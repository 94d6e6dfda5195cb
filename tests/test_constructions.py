"""Certificate construction and verification tests."""

import numpy as np
import pytest

from hgspec import (CertificateError, DiameterTooSmall, Hypergraph,
                    NotRegularError, adjacency_form, apply_adjacency,
                    build_strong_orthogonal_family, complete_uniform,
                    constructions, distances_from, g_value, hypertree_ball,
                    lambda2_estimate, lambda2_lower_certificate,
                    mu_lower_certificate, multi_center_vector, radial_vector,
                    random_regular_linear, rho_lower_certificate,
                    spectral_radius, t_norm, t_norm_pow, threshold,
                    verify_radial_inequality)

from conftest import cycle_graph, edge_tuples, petersen, tight_cycle3


class TestRadialVector:
    def test_entry_at_origin_is_one(self):
        h = complete_uniform(4, 3)
        x = radial_vector(h, 0)
        assert x[0] == 1.0

    def test_entries_follow_g_profile(self):
        h = cycle_graph(9)
        x = radial_vector(h, 2)
        dm = distances_from(h, 2)
        for v in range(h.n):
            assert x[v] == pytest.approx(g_value(2, 2, int(dm.dist[v])))

    def test_weakly_decreasing_along_layers(self):
        h = random_regular_linear(3, 3, 30, 0)
        x = radial_vector(h, 0)
        dm = distances_from(h, 0)
        for r in range(dm.eccentricity):
            lo = x[np.flatnonzero(dm.dist == r + 1)].max(initial=0.0)
            hi = x[np.flatnonzero(dm.dist == r)].min()
            assert lo <= hi + 1e-12

    def test_truncation(self):
        h = cycle_graph(12)
        x = radial_vector(h, 0, radius=2)
        dm = distances_from(h, 0)
        assert np.all(x[dm.dist > 2] == 0.0)
        assert np.all(x[dm.dist <= 2] > 0.0)

    def test_apply_at_origin_gives_threshold(self):
        # (A x)_o = k g(1)^(t-1) = rho(t, k) for regular instances
        for h, k in [(complete_uniform(4, 3), 3), (cycle_graph(8), 2),
                     (random_regular_linear(3, 4, 18, 1), 4)]:
            x = radial_vector(h, 0)
            assert apply_adjacency(h, x)[0] == pytest.approx(
                threshold(h.t, k), rel=1e-12)

    def test_not_regular_raises(self):
        h = Hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])  # path, degrees 1,2
        with pytest.raises(NotRegularError):
            radial_vector(h, 0)

    def test_ball_regular_horizon_allows_truncation(self):
        # interior of a hypertree ball is regular out to radius R-1
        ball = hypertree_ball(3, 3, 3)
        x = radial_vector(ball, 0, radius=2)
        assert x[0] == 1.0
        with pytest.raises(NotRegularError):
            radial_vector(ball, 0, radius=3)  # horizon reaches the leaves


class TestRadialInequality:
    @pytest.mark.parametrize("make,origin", [
        (lambda: complete_uniform(4, 3), 0),
        (lambda: complete_uniform(6, 3), 2),
        (lambda: cycle_graph(5), 1),
        (lambda: cycle_graph(11), 0),
        (lambda: petersen(), 3),
        (lambda: random_regular_linear(3, 3, 30, 2), 0),
        (lambda: random_regular_linear(2, 3, 16, 3), 5),
        (lambda: random_regular_linear(4, 3, 24, 4), 0),
    ])
    def test_passes_on_regular_corpus(self, make, origin):
        res = verify_radial_inequality(make(), origin)
        assert res.passed
        assert res.min_slack >= -1e-9

    def test_cycle_slack_zero_at_origin(self):
        # C5, t=2, k=2: g is constant 1, (Ax)_v = 2 = rho everywhere
        res = verify_radial_inequality(cycle_graph(5), 0)
        assert res.passed
        assert res.min_slack == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_k1_trivial(self):
        # k = 1: threshold is 0, any nonnegative A x passes
        res = verify_radial_inequality(Hypergraph(3, 3, [(0, 1, 2)]), 0)
        assert res.passed
        assert res.min_slack >= 0.0


class TestRhoLowerCertificate:
    def test_quotient_below_spectral_radius(self):
        h = random_regular_linear(3, 3, 30, 5)
        rho = spectral_radius(h).value
        for radius in (0, 1, 2):
            cert = rho_lower_certificate(h, 0, radius)
            assert cert.quotient <= rho + 1e-9
            assert cert.quotient >= cert.metadata["analytic_floor"] - 1e-9

    def test_hypertree_quotient_increases_with_radius(self, small_ball_335):
        quots = [rho_lower_certificate(small_ball_335, 0, r, k=3).quotient
                 for r in range(1, 5)]
        assert all(a < b for a, b in zip(quots, quots[1:]))

    def test_hypertree_floor_increases_toward_threshold(self, small_ball_335):
        floors = [rho_lower_certificate(small_ball_335, 0, r,
                                        k=3).metadata["analytic_floor"]
                  for r in range(1, 5)]
        assert all(a < b for a, b in zip(floors, floors[1:]))
        assert floors[-1] < threshold(3, 3)

    def test_layer_bound_equality_on_hypertree(self, small_ball_335):
        # |S_n| = |S_1| ((t-1)(k-1))^(n-1) holds with equality on balls
        cert = rho_lower_certificate(small_ball_335, 0, 4, k=3)
        sizes = cert.metadata["layer_sizes"]
        for n in range(1, 5):
            assert sizes[n] == sizes[1] * 4 ** (n - 1)

    def test_radius_zero_trivial(self):
        h = cycle_graph(6)
        cert = rho_lower_certificate(h, 0, 0)
        assert cert.quotient == 0.0
        # floor = rho - t(k-1) = 0 exactly at (t,k) = (2,2)
        assert cert.metadata["analytic_floor"] == pytest.approx(0.0, abs=1e-12)

    def test_vector_recomputes_quotient(self):
        h = random_regular_linear(3, 3, 18, 7)
        cert = rho_lower_certificate(h, 0, 1)
        recomputed = adjacency_form(h, cert.vector) / t_norm_pow(cert.vector,
                                                                 h.t)
        assert recomputed == pytest.approx(cert.quotient, abs=1e-10)


class TestMultiCenter:
    def test_even_t_gives_real_signed_vector(self):
        ball = hypertree_ball(4, 3, 3)
        cert = multi_center_vector(ball, k=3)
        assert cert.metadata["s"] == 2
        assert cert.vector.dtype == np.float64
        assert (cert.vector > 0).any() and (cert.vector < 0).any()

    def test_odd_prime_t_gives_complex_vector(self):
        h = tight_cycle3(48)
        cert = multi_center_vector(h)
        assert cert.metadata["s"] == 3
        assert cert.vector.dtype == np.complex128

    def test_entry_sum_annihilates(self):
        for h, k in [(cycle_graph(12), None), (cycle_graph(24), None),
                     (tight_cycle3(48), None),
                     (hypertree_ball(4, 3, 3), 3)]:
            cert = multi_center_vector(h, k=k)
            y = cert.vector
            assert abs(complex(y.sum())) <= 1e-10 * float(np.abs(y).sum())

    def test_form_is_numerically_real(self):
        cert = multi_center_vector(tight_cycle3(48))
        form = cert.metadata["form_value"]
        assert abs(form.imag) <= 1e-10 * abs(form)

    def test_balls_disjoint_and_nonadjacent(self):
        h = cycle_graph(16)
        cert = multi_center_vector(h)
        support = np.flatnonzero(np.abs(cert.vector) > 0)
        signs = np.sign(cert.vector[support])
        for edge in edge_tuples(h):
            vals = [cert.vector[v] for v in edge]
            pos = sum(1 for v in vals if v > 0)
            neg = sum(1 for v in vals if v < 0)
            assert not (pos and neg), "an edge meets two distinct balls"
        assert (signs > 0).any() and (signs < 0).any()

    def test_per_ball_weighted_sums_are_one(self):
        h = cycle_graph(20)
        cert = multi_center_vector(h)
        dm_list = [distances_from(h, c) for c in cert.metadata["centers"]]
        d = cert.metadata["d"]
        for c_j, dm in zip(cert.metadata["weights"], dm_list):
            ball = dm.ball(d)
            total = c_j * sum(g_value(2, 2, int(dm.dist[v])) for v in ball)
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_diameter_too_small(self):
        with pytest.raises(DiameterTooSmall) as err:
            multi_center_vector(complete_uniform(4, 3))
        assert err.value.needed > err.value.actual

    def test_cycle_quotient_hand_value(self):
        # C12: balls of 5 vertices with 4 interior edges each, c = 1/5;
        # quotient = (2*8/25) / (10/25) = 1.6
        cert = multi_center_vector(cycle_graph(12))
        assert cert.quotient == pytest.approx(1.6, abs=1e-12)


class TestLambda2Certificate:
    def test_cycle_progression_toward_threshold(self):
        quots = [lambda2_lower_certificate(cycle_graph(n)).quotient
                 for n in (12, 24, 48)]
        assert all(a < b for a, b in zip(quots, quots[1:]))
        assert quots[-1] < threshold(2, 2) == 2.0

    def test_quotient_at_least_floor(self):
        for h in (cycle_graph(12), cycle_graph(30), tight_cycle3(48)):
            cert = lambda2_lower_certificate(h)
            assert cert.quotient >= cert.metadata["analytic_floor"] - 1e-9

    def test_estimate_dominates_certificate(self):
        for n in (12, 24):
            h = cycle_graph(n)
            cert = lambda2_lower_certificate(h)
            est = lambda2_estimate(h)
            assert est.value >= cert.quotient - 1e-9
            # even cycle: the shifted spectrum contains -2, so the norm is 2
            assert est.value == pytest.approx(2.0, abs=1e-8)

    def test_requires_regular_when_k_not_given(self):
        ball = hypertree_ball(3, 3, 4)
        with pytest.raises(NotRegularError):
            lambda2_lower_certificate(ball)

    def test_floor_failure_message_prints_plain_numbers(self):
        # C31 is 2-regular; with k = 3 the floor is out of reach
        with pytest.raises(CertificateError) as info:
            lambda2_lower_certificate(cycle_graph(31), k=3)
        assert str(info.value) == (
            "multi-center quotient 1.9364192042636355 fell below its "
            "analytic floor 2.6572702309268554")
        cert = multi_center_vector(cycle_graph(31), k=3)
        for key in ("analytic_slack", "analytic_floor", "threshold"):
            assert type(cert.metadata[key]) is float

    @pytest.mark.parametrize("build", [
        lambda: lambda2_lower_certificate(cycle_graph(24)),
        lambda: rho_lower_certificate(cycle_graph(24), 0, 3)],
        ids=["lambda2", "rho"])
    def test_nan_floor_fails_the_certificate(self, monkeypatch, build):
        # a comparison with NaN is false either way round
        monkeypatch.setattr(constructions, "_analytic_slack",
                            lambda *args: float("nan"))
        with pytest.raises(CertificateError):
            build()


class TestStrongOrthogonalFamily:
    def test_singleton_family_trivially_verified(self):
        ball = hypertree_ball(3, 3, 4)
        fam = build_strong_orthogonal_family(ball, 1, k=3)
        assert fam.verified
        assert len(fam.vectors) == 1
        assert t_norm(fam.vectors[0], 3) == pytest.approx(1.0, abs=1e-12)

    def test_two_member_family_exact_zeros(self):
        ball = hypertree_ball(3, 3, 6)
        fam = build_strong_orthogonal_family(ball, 2, k=3)
        assert fam.verified
        t = ball.t
        towers = []
        for x in fam.vectors:
            tower = [x]
            for _ in range(t):
                tower.append(apply_adjacency(ball, tower[-1]))
            towers.append(tower)
        for p in range(t + 1):
            for q in range(t + 1):
                assert complex(np.vdot(towers[0][p], towers[1][q])) == 0

    def test_support_grows_at_most_p_layers(self):
        ball = hypertree_ball(3, 3, 5)
        fam = build_strong_orthogonal_family(ball, 1, k=3)
        x = fam.vectors[0]
        support = np.flatnonzero(np.abs(x) > 0)
        dist_to_support = np.full(ball.n, 10 ** 9)
        for v in support:
            dm = distances_from(ball, int(v))
            np.minimum(dist_to_support, dm.dist, out=dist_to_support)
        y = x
        for p in range(1, ball.t + 1):
            y = apply_adjacency(ball, y)
            reached = np.flatnonzero(np.abs(y) > 0)
            assert np.all(dist_to_support[reached] <= p)

    def test_nested_center_blocks(self):
        ball = hypertree_ball(3, 3, 6)
        fam1 = build_strong_orthogonal_family(ball, 1, k=3)
        fam2 = build_strong_orthogonal_family(ball, 2, k=3)
        assert fam2.metadata["centers"][0] == fam1.metadata["centers"][0]

    def test_diameter_too_small(self):
        with pytest.raises(DiameterTooSmall):
            build_strong_orthogonal_family(hypertree_ball(3, 3, 2), 2, k=3)


class TestMuCertificate:
    def test_j1_below_spectral_radius(self):
        ball = hypertree_ball(3, 3, 5)
        cert = mu_lower_certificate(ball, 1, k=3)
        rho = spectral_radius(ball).value
        assert cert.quotient <= rho + 1e-8

    def test_nonincreasing_in_j(self):
        ball = hypertree_ball(3, 3, 6)
        mu1 = mu_lower_certificate(ball, 1, k=3)
        mu2 = mu_lower_certificate(ball, 2, k=3)
        assert mu2.quotient <= mu1.quotient + 1e-12

    def test_member_quotients_recorded(self):
        ball = hypertree_ball(3, 3, 6)
        cert = mu_lower_certificate(ball, 2, k=3)
        members = cert.metadata["member_quotients"]
        assert len(members) == 2
        assert cert.quotient == min(members)

    def test_quotient_matches_vector(self):
        ball = hypertree_ball(3, 3, 5)
        cert = mu_lower_certificate(ball, 1, k=3)
        form = adjacency_form(ball, cert.vector)
        value = form.real if isinstance(form, complex) else form
        assert value == pytest.approx(cert.quotient, rel=1e-10)

    def test_certificate_improves_with_radius(self):
        # larger balls admit larger separations, hence deeper certificate
        # balls and quotients climbing toward the threshold
        quots = [mu_lower_certificate(hypertree_ball(3, 3, r), 2, k=3).quotient
                 for r in (5, 6, 7)]
        assert all(a < b for a, b in zip(quots, quots[1:]))
        assert quots[-1] < threshold(3, 3)
