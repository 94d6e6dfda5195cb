"""A hypergraph keeps the BFS maps from vertex 0 and from the start s of
its diameter path, and no (instance, source) pair is searched twice.

Every call of ``distances_from`` is counted through each binding of the
name in an ``hgspec`` module, as the benchmark's tracer counts them.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import hgspec.hypergraph
from hgspec import (Hypergraph, NotConnectedError, diameter_and_path,
                    distances_from, emit_hypergraph, hypertree_ball,
                    multi_center_vector, mu_lower_certificate,
                    random_regular_linear, spectral_radius)

from conftest import cycle_graph
from test_cli import run


@pytest.fixture
def bfs_calls(monkeypatch):
    """The (hypergraph, source, radius) of every ``distances_from`` call,
    in order; the radius is None for a whole search.

    The hypergraphs are held, so no two live instances share an id.
    """
    calls = []
    original = hgspec.hypergraph.distances_from

    def counted(h, o, radius=None):
        calls.append((h, o, radius))
        return original(h, o, radius)

    for name, module in list(sys.modules.items()):
        if (name == "hgspec" or name.startswith("hgspec.")) and \
                getattr(module, "distances_from", None) is original:
            monkeypatch.setattr(module, "distances_from", counted)
    return calls


def repeats(calls):
    """The (instance id, source) pairs searched more than once, at any
    radius."""
    seen = Counter((id(h), o) for h, o, _ in calls)
    return {pair: count for pair, count in seen.items() if count > 1}


@pytest.fixture
def rr300_s1(tmp_path):
    """The rr300_s1 golden input as a file; request it before
    ``bfs_calls``, or the generator's connectivity search is counted."""
    path = tmp_path / "rr300_s1.txt"
    path.write_text(emit_hypergraph(random_regular_linear(3, 3, 300, 1)))
    return str(path)


class TestNoRepeatedSearch:
    def test_sweep_hypertree(self, bfs_calls):
        code, _ = run(["sweep", "hypertree", "--t", "3", "--k", "3",
                       "--radii", "1:6"])
        assert code == 0
        assert bfs_calls and repeats(bfs_calls) == {}

    def test_sweep_row_at_radius_8_runs_two(self, bfs_calls):
        # the centers are s, 0 and far: the diameter keeps s, and the
        # generator the map from 0, which is that of a fresh search; far
        # is searched to the ball radius d = 3 alone
        h = hypertree_ball(3, 3, 8)
        spectral_radius(h)
        cert = multi_center_vector(h, k=3)
        assert [(o, radius) for _, o, radius in bfs_calls] == \
            [(32767, None), (65535, 3)]
        assert cert.metadata["centers"] == [32767, 0, 65535]
        assert cert.metadata["d"] == 3
        assert sorted(h._kept) == [0, 32767]
        kept = h._kept[0].dist
        fresh = distances_from(h, 0).dist
        assert kept.dtype == fresh.dtype and not kept.flags.writeable
        assert kept.tobytes() == fresh.tobytes()

    def test_verify_alon_boppana(self, rr300_s1, bfs_calls):
        run(["verify", rr300_s1, "--check", "alon-boppana"])
        assert bfs_calls and repeats(bfs_calls) == {}

    def test_verify_radial_at_origin_0(self, rr300_s1, bfs_calls):
        code, _ = run(["verify", rr300_s1, "--check", "radial",
                       "--origin", "0"])
        assert code == 0
        assert [(o, radius) for _, o, radius in bfs_calls] == [(0, None)]

    def test_mu_lower_certificate(self, bfs_calls):
        mu_lower_certificate(hypertree_ball(3, 3, 5), 1, k=3)
        assert bfs_calls and repeats(bfs_calls) == {}


class TestKeptMaps:
    @pytest.mark.parametrize("h", [hypertree_ball(3, 3, 4), cycle_graph(11),
                                   random_regular_linear(3, 3, 60, 2)],
                             ids=["ball", "cycle", "rr60"])
    def test_read_only_and_equal_to_a_fresh_search(self, h):
        multi_center_vector(h, k=int(h.degrees.max()))
        assert 1 <= len(h._kept) <= 2
        for o, dm in h._kept.items():
            assert dm.source == o
            assert not dm.dist.flags.writeable
            np.testing.assert_array_equal(dm.dist, distances_from(h, o).dist)

    def test_disconnected_input(self):
        h = Hypergraph(5, 2, [(0, 1), (2, 3)])
        for _ in range(2):
            assert not h.is_connected
            with pytest.raises(NotConnectedError):
                diameter_and_path(h)
        assert list(h._kept) == [0]
