"""Reference edge-list text for the seeded random regular generator.

An independent restatement of the configuration-model sampler behind
``hgspec gen random-regular``: the same PCG64 draws in the same order,
but its own connectivity test (union-find) and its own emitter.  The
benchmark hashes this text and requires ``gen`` to produce exactly the
same bytes for the same seed, so a change that speeds up generation
cannot silently change the instances every other number rests on.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _connected(n: int, edges: list[tuple[int, ...]]) -> bool:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n
    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
                components -= 1
    return components == 1


def random_regular_text(t: int, k: int, n: int, seed: int,
                        max_attempts: int = 10_000) -> str:
    """Canonical edge-list text the seeded sampler must emit."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        stubs = [v for v in range(n) for _ in range(k)]
        for i in range(len(stubs) - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            stubs[i], stubs[j] = stubs[j], stubs[i]
        accepted: list[tuple[int, ...]] = []
        edges_seen: set[tuple[int, ...]] = set()
        pairs_seen: set[tuple[int, int]] = set()
        failures = 0
        while stubs and failures < 500:
            size = len(stubs)
            for i in range(t):
                j = int(rng.integers(0, size - i))
                stubs[j], stubs[size - 1 - i] = stubs[size - 1 - i], stubs[j]
            proposal = tuple(sorted(stubs[size - t:]))
            pairs = [(proposal[a], proposal[b])
                     for a in range(t) for b in range(a + 1, t)]
            if (len(set(proposal)) == t and proposal not in edges_seen
                    and pairs_seen.isdisjoint(pairs)):
                accepted.append(proposal)
                edges_seen.add(proposal)
                pairs_seen.update(pairs)
                del stubs[size - t:]
            else:
                failures += 1
        if stubs or not _connected(n, accepted):
            continue
        accepted.sort()
        lines = [f"{t} {n} {len(accepted)}"]
        lines.extend(" ".join(map(str, edge)) for edge in accepted)
        return "\n".join(lines) + "\n"
    raise RuntimeError(f"reference sampler found no instance for t={t}, "
                       f"k={k}, n={n}, seed={seed}")


def random_regular_sha256(t: int, k: int, n: int, seed: int) -> str:
    return hashlib.sha256(random_regular_text(t, k, n, seed).encode()
                          ).hexdigest()
