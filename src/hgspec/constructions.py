"""Certificate vectors witnessing the spectral lower bounds.

Three constructions, all built from breadth-first layer structure and
the decay profile ``g`` of :mod:`hgspec.bounds`:

* the radial vector ``x_v = g(dist(o, v))`` and its componentwise
  inequality ``A x >= rho(t,k) x^[t-1]`` on regular hypergraphs;
* truncations of the radial vector, whose Rayleigh quotient is a lower
  bound for the spectral radius with an explicit analytic floor;
* multi-center vectors: s balls placed far apart, phased by the s-th
  roots of unity (s = smallest prime factor of t) and weighted so the
  entries sum to zero.  The all-ones form then annihilates exactly, so
  the plain adjacency quotient lower-bounds the shifted spectral norm.

Families of multi-center vectors with supports more than 2t apart are
strongly orthogonal for the adjacency tensor (images under up to t
applications have disjoint supports), which yields lower bounds for the
higher multilinear values mu_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import g_value, threshold
from .errors import CertificateError, DiameterTooSmall, NotRegularError
from .forms import (_magnitude, _power, adjacency_form, apply_adjacency,
                    as_vector, t_norm, t_norm_pow)
from .hypergraph import (DistanceMap, Hypergraph, _kept_distances,
                         _require_connected, diameter_and_path)

#: absolute slack for componentwise and quotient-vs-floor checks
SLACK_TOL = 1e-9

#: relative tolerance for exactness checks (entry sums, imaginary parts)
EXACTNESS_TOL = 1e-10


@dataclass(frozen=True)
class Certificate:
    """A vector together with the quotient value and bound it witnesses."""

    vector: np.ndarray
    quotient: float
    bound_kind: str  # rho_lower | lambda2_lower | mu_lower
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StrongOrthogonalSet:
    """Unit t-norm vectors whose A^p images are pairwise orthogonal."""

    vectors: list[np.ndarray]
    verified: bool
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RadialCheckResult:
    """Outcome of the componentwise inequality A x >= rho x^[t-1]."""

    passed: bool
    min_slack: float
    worst_vertex: int


def _resolve_degree(h: Hypergraph, k: int | None,
                    within: np.ndarray | None = None) -> int:
    """Common degree over ``within`` (default: all vertices).

    When ``k`` is given it is checked instead of inferred; the ``within``
    horizon is what lets hypertree balls (regular in the interior,
    degree-1 at the leaves) carry radial certificates whose support
    stays inside the regular core.
    """
    deg = h.degrees if within is None else h.degrees[within]
    inferred = int(deg[0]) if k is None else k
    if not bool(np.all(deg == inferred)):
        lo, hi = int(deg.min()), int(deg.max())
        raise NotRegularError(
            f"degrees in [{lo}, {hi}] are not constant "
            f"{'' if k is None else f'= {k} '}within the required horizon"
        )
    return inferred


def _g_profile(t: int, k: int, d: int) -> np.ndarray:
    """[g(0), ..., g(d)]; the constant-1 profile stands in at k = 1."""
    if k == 1:
        return np.ones(d + 1)
    return np.array([g_value(t, k, i) for i in range(d + 1)])


def _analytic_slack(t: int, k: int, d: int, weights: list[float],
                    layer_sizes: list[list[int]]) -> float:
    """t (k-1) * sum_j c_j^t |S_d^j| g(d)^t / sum_j c_j^t sum_i |S_i^j| g(i)^t.

    One ball of weight 1.0 gives the slack of a truncated radial vector.
    """
    profile = _g_profile(t, k, d)
    num = 0.0
    den = 0.0
    for c_j, sizes in zip(weights, layer_sizes):
        num += c_j ** t * sizes[d] * profile[d] ** t
        den += c_j ** t * float(np.sum(sizes * _power(profile, t)))
    return float(t * (k - 1) * num / den)


def _radial(h: Hypergraph, o: int, radius: int | None,
            k: int | None) -> tuple[np.ndarray, DistanceMap, int]:
    """x_v = g(dist(o, v)) on the ball of ``radius`` (all of h if None).

    Also returns the distance map from o and k, which is checked on the
    ball when given and else inferred there.
    """
    _require_connected(h, "certificate constructions")
    if radius is not None and radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    dm = _kept_distances(h, o)
    horizon = dm.eccentricity if radius is None else radius
    inside = dm.ball(horizon)
    k = _resolve_degree(h, k, within=inside)
    profile = _g_profile(h.t, k, horizon)
    x = np.zeros(h.n)
    x[inside] = profile[dm.dist[inside]]
    return x, dm, k


def radial_vector(h: Hypergraph, o: int, radius: int | None = None) -> np.ndarray:
    """Vertex weights g(dist(o, v)), zero beyond ``radius``.

    Requires constant degree k on the ball of the given radius around o
    (on all of h when untruncated); k is inferred from the degrees.
    """
    return _radial(h, o, radius, None)[0]


def verify_radial_inequality(h: Hypergraph, o: int) -> RadialCheckResult:
    """Check (A x)_v >= rho(t,k) x_v^(t-1) - 1e-9 for the radial x.

    Unconditional on finite connected regular uniform hypergraphs; the
    minimum slack and its vertex are reported so near-tight instances
    can be inspected.
    """
    x, _, k = _radial(h, o, None, None)
    rho = threshold(h.t, k)
    slack = apply_adjacency(h, x) - rho * _power(x, h.t - 1)
    worst = int(np.argmin(slack))
    min_slack = float(slack[worst])
    return RadialCheckResult(passed=min_slack >= -SLACK_TOL,
                             min_slack=min_slack, worst_vertex=worst)


def rho_lower_certificate(h: Hypergraph, o: int, radius: int,
                          k: int | None = None) -> Certificate:
    """Truncated radial vector as a spectral-radius lower bound.

    The quotient form(x_n)/||x_n||_t^t is a valid lower bound for any
    nonnegative vector; on a ball-regular horizon it additionally sits
    above the analytic floor

        rho(t,k) - t (k-1) |S_n| g(n)^t / sum_i |S_i| g(i)^t,

    which converges up to the threshold as the radius grows.
    """
    x, dm, k = _radial(h, o, radius, k)
    layer_sizes = dm.layer_sizes(radius)
    profile = _g_profile(h.t, k, radius)
    norm_pow = float(np.sum(layer_sizes * _power(profile, h.t)))
    quotient = float(adjacency_form(h, x)) / norm_pow
    rho = threshold(h.t, k)
    floor = rho - _analytic_slack(h.t, k, radius, [1.0], [layer_sizes])
    if not quotient >= floor - SLACK_TOL:  # a NaN fails too
        raise CertificateError(
            f"radial quotient {quotient!r} fell below its analytic floor "
            f"{floor!r} at radius {radius}"
        )
    return Certificate(
        vector=x,
        quotient=quotient,
        bound_kind="rho_lower",
        metadata={
            "origin": o,
            "radius": radius,
            "k": k,
            "analytic_floor": floor,
            "threshold": rho,
            "layer_sizes": layer_sizes,
        },
    )


def _smallest_prime_factor(t: int) -> int:
    p = 2
    while p * p <= t:
        if t % p == 0:
            return p
        p += 1
    return t


def _phased_ball_vector(h: Hypergraph, d: int, k: int,
                        dist_maps: list[DistanceMap]):
    """Multi-center vector: per-ball g-weights, s-th root-of-unity phases.

    Ball j is centered on the source of ``dist_maps[j]``, with entry
    c_j * omega^(j-1) * g(i) on its distance-i layer,
    with c_j chosen so each ball's weighted sum is exactly 1.  Phases
    are kept as exact (index, s) pairs in the metadata; they only become
    floating complex numbers in the returned vector.  Real dtype when
    s = 2 (omega = -1).
    """
    t = h.t
    s = len(dist_maps)
    profile = _g_profile(t, k, d)
    complex_phases = s > 2
    y = np.zeros(h.n, dtype=np.complex128 if complex_phases else np.float64)
    claimed = np.zeros(h.n, dtype=bool)
    weights = []
    layer_sizes = []
    for j, dm in enumerate(dist_maps):
        ball = dm.ball(d)
        if np.any(claimed[ball]):
            raise CertificateError("certificate balls overlap; centers are "
                                   "too close for the requested radius")
        claimed[ball] = True
        depth = dm.dist[ball]
        gvals = profile[depth]
        ball_sum = float(gvals.sum())
        c_j = 1.0 / ball_sum
        if complex_phases:
            omega_j = np.exp(2j * np.pi * j / s)
        else:
            omega_j = 1.0 if j % 2 == 0 else -1.0
        y[ball] = c_j * omega_j * gvals
        weights.append(c_j)
        # from the ball alone: a map searched to radius d marks the
        # rest of h unreached
        layer_sizes.append(np.bincount(depth, minlength=d + 1).tolist())
    meta = {
        "s": s,
        "d": d,
        "centers": [dm.source for dm in dist_maps],
        "weights": weights,
        "phases": [(j, s) for j in range(s)],
        "layer_sizes": layer_sizes,
    }
    return y, meta


def multi_center_vector(h: Hypergraph, k: int | None = None) -> Certificate:
    """Root-of-unity phased ball vector from the diameter path.

    Places s = (smallest prime factor of t) centers at positions
    0, 2d+2, 2(2d+2), ... along a shortest path realizing the diameter D,
    where d = floor(D / (2s-2)) - 1.  The entries sum to zero, so the
    all-ones form annihilates and |form| / ||y||_t^t lower-bounds the
    shifted spectral norm.  The metadata ends with the analytic slack and
    floor of :func:`lambda2_lower_certificate` and the threshold.

    An explicit ``k`` is taken on trust as the decay-profile parameter
    (no regularity check), which lets near-regular instances such as
    hypertree balls carry the certificate; the quotient is a valid lower
    bound for any connected input since the vector is a feasible point.

    The centers lie on a shortest path, so each is 2d+2 or more from the
    others and their balls of radius d are disjoint.  A center's kept
    distance map is used where h has one; the others are searched to
    radius d alone.

    Raises
    ------
    DiameterTooSmall
        When D < 2s-2 (no nonnegative d exists).
    """
    _require_connected(h, "certificate constructions")
    t = h.t
    s = _smallest_prime_factor(t)
    if k is None:
        k = _resolve_degree(h, None)
    diam, path = diameter_and_path(h)
    d = diam // (2 * s - 2) - 1
    if d < 0:
        raise DiameterTooSmall(2 * s - 2, diam)
    centers = [path[a * (2 * d + 2)] for a in range(s)]
    dist_maps = [_kept_distances(h, c, radius=d) for c in centers]
    y, meta = _phased_ball_vector(h, d, k, dist_maps)
    entry_sum = complex(y.sum())
    scale = float(_magnitude(y).sum())
    if abs(entry_sum) > EXACTNESS_TOL * scale:
        raise CertificateError(
            f"multi-center entries sum to {entry_sum} (scale {scale}); the "
            f"root-of-unity cancellation failed"
        )
    form = adjacency_form(h, y)
    quotient = float(abs(form)) / t_norm_pow(y, t)
    slack = _analytic_slack(t, k, d, meta["weights"], meta["layer_sizes"])
    rho = threshold(t, k)
    meta.update({
        "diameter": diam,
        "k": k,
        "entry_sum_abs": abs(entry_sum),
        "form_value": form,
        "min_center_separation": 2 * d + 2,
        "analytic_slack": slack,
        "analytic_floor": rho - slack,
        "threshold": rho,
    })
    return Certificate(vector=y, quotient=quotient,
                       bound_kind="lambda2_lower", metadata=meta)


def lambda2_lower_certificate(h: Hypergraph, k: int | None = None) -> Certificate:
    """Multi-center vector checked against its analytic floor.

    Raises ``CertificateError`` unless quotient >= rho(t,k) - slack - 1e-9
    (a NaN quotient or floor fails), with

        slack = t (k-1) sum_j c_j^t |S_d^j| g(d)^t
                / sum_j c_j^t sum_i |S_i^j| g(i)^t.
    """
    cert = multi_center_vector(h, k=k)
    floor = cert.metadata["analytic_floor"]
    if not cert.quotient >= floor - SLACK_TOL:  # a NaN fails too
        raise CertificateError(
            f"multi-center quotient {cert.quotient!r} fell below its "
            f"analytic floor {floor!r}"
        )
    return cert


def _greedy_far_centers(h: Hypergraph, count: int):
    """Farthest-point selection of ``count`` vertices, lowest id on ties.

    Returns the chosen ids, their distance maps, and the minimum pairwise
    distance achieved, 0 for fewer than two.  Each pick's distance to the
    centers before it is at most its predecessor's, so the least pairwise
    distance is the last pick's.
    """
    start = int(np.argmax(_kept_distances(h, 0).dist))
    chosen = [start]
    dist_maps = [_kept_distances(h, start)]
    min_dist = dist_maps[0].dist.copy()
    separation = 0
    while len(chosen) < count:
        nxt = int(np.argmax(min_dist))
        if int(min_dist[nxt]) == 0:
            break
        separation = int(min_dist[nxt])
        chosen.append(nxt)
        dm = _kept_distances(h, nxt)
        dist_maps.append(dm)
        np.minimum(min_dist, dm.dist, out=min_dist)
    return chosen, dist_maps, separation


def build_strong_orthogonal_family(h: Hypergraph, j: int,
                                   k: int | None = None) -> StrongOrthogonalSet:
    """j multi-center vectors with pairwise support distance > 2t.

    Selects s*j centers by greedy farthest-point placement and uses the
    achieved minimum pairwise separation Delta to fix the ball radius
    d = floor((Delta - 2t - 1) / 2), so supports of distinct vectors are
    at least 2t+1 apart and images under up to t adjacency applications
    stay disjoint.  Center blocks are nested: the family for j-1 uses a
    prefix of the centers for j.  As with the multi-center construction,
    an explicit ``k`` is the trusted decay parameter for near-regular
    instances; strong orthogonality is structural and holds regardless.

    Verification computes A^p x_l for p <= t and checks that every cross
    inner product is exactly zero (integer support disjointness, not a
    tolerance test).
    """
    _require_connected(h, "certificate constructions")
    if j < 1:
        raise ValueError(f"family size j must be >= 1, got {j}")
    t = h.t
    s = _smallest_prime_factor(t)
    count = s * j
    if count > h.n:
        raise DiameterTooSmall(
            2 * t + 1, 0,
            message=f"cannot place {count} centers on {h.n} vertices",
        )
    if k is None:
        k = _resolve_degree(h, None)
    chosen, dist_maps, separation = _greedy_far_centers(h, count)
    if len(chosen) < count:
        raise DiameterTooSmall(
            2 * t + 1, 0,
            message=f"only {len(chosen)} distinct centers available, "
                    f"{count} needed",
        )
    d = (separation - (2 * t + 1)) // 2
    if d < 0:
        raise DiameterTooSmall(2 * t + 1, separation)
    vectors = []
    blocks = [chosen[l * s:(l + 1) * s] for l in range(j)]
    for l in range(j):
        y, _ = _phased_ball_vector(h, d, k, dist_maps[l * s:(l + 1) * s])
        y = y / t_norm(y, t)
        vectors.append(y)
    verified = _verify_strong_orthogonality(h, vectors)
    return StrongOrthogonalSet(
        vectors=vectors,
        verified=verified,
        metadata={
            "j": j,
            "s": s,
            "d": d,
            "k": k,
            "centers": blocks,
            "min_separation": separation,
        },
    )


def _verify_strong_orthogonality(h: Hypergraph, vectors) -> bool:
    """All cross inner products of A^p x_l and A^q x_m are exactly zero."""
    t = h.t
    towers = []
    for x in vectors:
        tower = [as_vector(h, x)]
        for _ in range(t):
            tower.append(apply_adjacency(h, tower[-1]))
        towers.append(tower)
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            for p in range(t + 1):
                for q in range(t + 1):
                    if complex(np.vdot(towers[a][p], towers[b][q])) != 0:
                        return False
    return True


def mu_lower_certificate(h: Hypergraph, j: int,
                         k: int | None = None) -> Certificate:
    """min_l x_l^T(A x_l) over a verified strongly orthogonal family.

    Every member is unit t-norm, so the minimum form value is a feasible
    point of the inf in mu_j and therefore a valid lower bound.
    """
    family = build_strong_orthogonal_family(h, j, k=k)
    if not family.verified:
        raise CertificateError("strong orthogonality verification failed")
    values = []
    for x in family.vectors:
        form = adjacency_form(h, x)
        if isinstance(form, complex):
            if abs(form.imag) > EXACTNESS_TOL * max(abs(form), 1e-30):
                raise CertificateError(
                    f"family member form value {form} is not numerically real"
                )
            form = form.real
        values.append(float(form))
    argmin = int(np.argmin(values))
    meta = dict(family.metadata)
    meta["member_quotients"] = values
    return Certificate(vector=family.vectors[argmin],
                       quotient=float(values[argmin]),
                       bound_kind="mu_lower", metadata=meta)
