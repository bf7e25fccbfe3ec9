"""Closed-form simplex distance: frozen values, oracles, and invariants."""
import math

import numpy as np
import pytest

from oracles import (
    central_diff_grad,
    divergence_value,
    grid_min_distance_k2,
    random_simplex_point,
    random_target_set,
    slsqp_min_distance,
)
from tapgen.probspace import (
    DivergenceSpec,
    ProbVector,
    TargetSet,
    chi_square_divergence,
    classify_region,
    get_divergence,
    kl_divergence,
    project_to_target,
    target_distance,
    target_distance_batch,
    target_distance_grad,
)

KL = kl_divergence()
CHI2 = chi_square_divergence()
# squared Hellinger: a third convex spec, written as array functions
HELLINGER = DivergenceSpec("hellinger", lambda v: (np.sqrt(v) - 1.0) ** 2,
                           lambda v: 1.0 - 1.0 / np.sqrt(v))

# Frozen via independent evaluation: grid/SLSQP oracles and plain arithmetic.
BINARY_KL_DISTANCE = 0.2231435513142097  # 0.5 ln(0.5/0.8) + 0.5 ln(0.5/0.2)
BINARY_KL_GRAD0 = -1.3862943611198906   # ln(0.5/0.8) - ln(0.5/0.2), FD-confirmed
REGION_D_KL_DISTANCE = 0.3600624406359049


@pytest.fixture
def t_three():
    # k=3, desirable class 0 with floor 0.6, undesirable class 1 with cap 0.2
    return TargetSet(3, (0,), (1,), 0.6, 0.2)


class TestRegionClassification:
    def test_four_examples(self, t_three):
        assert classify_region([0.7, 0.1, 0.2], t_three) == "A"
        assert classify_region([0.3, 0.1, 0.6], t_three) == "B"
        assert classify_region([0.65, 0.3, 0.05], t_three) == "C"
        assert classify_region([0.2, 0.5, 0.3], t_three) == "D"

    def test_boundary_s_w_equal_p_is_region_a(self, t_three):
        assert classify_region([0.6, 0.2, 0.2], t_three) == "A"

    def test_empty_w_never_returns_b_or_d(self):
        rng = np.random.default_rng(11)
        t = TargetSet(4, (), (1, 2), 0.0, 0.3)
        for _ in range(200):
            y = random_simplex_point(rng, 4)
            assert classify_region(y, t) in ("A", "C")

    def test_empty_u_never_returns_c_or_d(self):
        rng = np.random.default_rng(12)
        t = TargetSet(4, (0, 3), (), 0.7, 1.0)
        for _ in range(200):
            y = random_simplex_point(rng, 4)
            assert classify_region(y, t) in ("A", "B")

    def test_dimension_mismatch(self, t_three):
        with pytest.raises(ValueError):
            classify_region([0.5, 0.5], t_three)


class TestTargetDistance:
    def test_binary_kl_frozen(self):
        t = TargetSet(2, (0,), (), 0.8, 1.0)
        assert target_distance([0.5, 0.5], t, KL) == pytest.approx(
            BINARY_KL_DISTANCE, abs=1e-12
        )

    def test_region_d_kl_frozen(self, t_three):
        d = target_distance([0.2, 0.5, 0.3], t_three, KL)
        assert d == pytest.approx(REGION_D_KL_DISTANCE, abs=1e-12)

    def test_zero_iff_member(self, t_three):
        assert target_distance([0.7, 0.1, 0.2], t_three, KL) == 0.0
        assert target_distance([0.6, 0.2, 0.2], t_three, KL) == 0.0
        rng = np.random.default_rng(5)
        for _ in range(300):
            y = random_simplex_point(rng, 3)
            d = target_distance(y, t_three, KL)
            if t_three.contains(y):
                assert d == 0.0
            else:
                assert d > 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("div", [KL, CHI2, HELLINGER],
                             ids=["kl", "chi2", "hellinger"])
    def test_matches_oracle(self, k, div):
        rng = np.random.default_rng(100 + k)
        for _ in range(60):
            t = random_target_set(rng, k)
            y = random_simplex_point(rng, k)
            closed = target_distance(y, t, div)
            if k == 2:
                oracle = grid_min_distance_k2(y, t, div)
            else:
                oracle = slsqp_min_distance(y, t, div)
            assert closed == pytest.approx(oracle, abs=1e-4)

    def test_binary_monotone_in_desirable_mass(self):
        # With one desirable class the distance never increases as its mass grows.
        t = TargetSet(2, (0,), (), 0.8, 1.0)
        for div in (KL, CHI2):
            values = [
                target_distance([y0, 1.0 - y0], t, div)
                for y0 in np.arange(0.0, 1.0 + 1e-9, 0.01)
            ]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12)

    def test_mass_transfer_monotonicity(self):
        # Moving mass neutral -> desirable never increases the distance;
        # neutral -> undesirable never decreases it.
        rng = np.random.default_rng(21)
        eps = 1e-3
        checked = 0
        while checked < 150:
            k = int(rng.integers(3, 5))
            t = random_target_set(rng, k)
            if not (t.desirable and t.undesirable and t.neutral):
                continue
            y = random_simplex_point(rng, k)
            n_idx = t.neutral[0]
            if y[n_idx] < eps:
                continue
            for div in (KL, CHI2):
                base = target_distance(y, t, div)
                up = y.copy()
                up[n_idx] -= eps
                up[t.desirable[0]] += eps
                assert target_distance(up, t, div) <= base + 1e-12
                down = y.copy()
                down[n_idx] -= eps
                down[t.undesirable[0]] += eps
                assert target_distance(down, t, div) >= base - 1e-12
            checked += 1


class TestTargetDistanceGrad:
    def test_binary_kl_frozen(self):
        t = TargetSet(2, (0,), (), 0.8, 1.0)
        g = target_distance_grad([0.5, 0.5], t, KL)
        assert g[0] == pytest.approx(BINARY_KL_GRAD0, abs=1e-12)
        assert g[1] == 0.0

    def test_zero_in_region_a(self, t_three):
        g = target_distance_grad([0.7, 0.1, 0.2], t_three, KL)
        assert np.all(g == 0.0)

    def test_neutral_components_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(3, 5))
            t = random_target_set(rng, k)
            y = random_simplex_point(rng, k)
            g = target_distance_grad(y, t, KL)
            for i in t.neutral:
                assert g[i] == 0.0

    @pytest.mark.parametrize("div", [KL, CHI2], ids=["kl", "chi2"])
    def test_matches_finite_differences(self, div):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 80:
            k = int(rng.integers(2, 5))
            t = random_target_set(rng, k)
            y = random_simplex_point(rng, k)
            # Keep probes away from region boundaries so the FD stencil stays
            # inside one case of the closed form.
            if _near_boundary(y, t):
                continue
            g = target_distance_grad(y, t, div)
            fd = central_diff_grad(lambda v: target_distance(v, t, div), y, h=1e-6)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.allclose(g, fd, atol=1e-4 * scale)
            checked += 1

    def test_desirable_down_undesirable_up(self):
        # Coordinate signs of the corollary: distance falls with desirable
        # mass and rises with undesirable mass.
        rng = np.random.default_rng(51)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            t = random_target_set(rng, k)
            y = random_simplex_point(rng, k)
            g = target_distance_grad(y, t, KL)
            assert all(g[i] <= 1e-12 for i in t.desirable)
            assert all(g[i] >= -1e-12 for i in t.undesirable)

    def test_finite_at_saturated_outputs(self, t_three):
        g = target_distance_grad([0.0, 1.0, 0.0], t_three, KL)
        assert np.all(np.isfinite(g))
        g = target_distance_grad([0.0, 0.0, 1.0], t_three, KL)
        assert np.all(np.isfinite(g))


def _near_boundary(y, t, margin=1e-4):
    s_w, s_u = t.masses(y)
    p, q = t.p, t.q
    checks = [s_w - p, s_u - q]
    if 1.0 - p > 0:
        checks.append(s_u - (1.0 - s_w) * q / (1.0 - p))
    if 1.0 - q > 0:
        checks.append(s_w - (1.0 - s_u) * p / (1.0 - q))
    return any(abs(c) < margin for c in checks)


class TestBoundaryContinuity:
    # Instances sitting exactly on each region boundary for the target set
    # W={0}, U={1}, p=0.6, q=0.2; straddling probes transfer 1e-7 of mass.
    CASES = [
        ("A/B", [0.6, 0.1, 0.3], 0, 2),        # S_W = p
        ("A/C", [0.7, 0.2, 0.1], 1, 2),        # S_U = q
        ("B/D", [0.3, 0.35, 0.35], 1, 2),      # S_U = (1-S_W) q / (1-p)
        ("C/D", [0.525, 0.3, 0.175], 0, 2),    # S_W = (1-S_U) p / (1-q)
    ]

    @pytest.mark.parametrize("name,y,move,other", CASES,
                             ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("div", [KL, CHI2], ids=["kl", "chi2"])
    def test_distance_and_grad_continuous(self, name, y, move, other, div, t_three):
        h = 1e-7
        lo = np.array(y, dtype=float)
        hi = np.array(y, dtype=float)
        lo[move] -= h / 2
        lo[other] += h / 2
        hi[move] += h / 2
        hi[other] -= h / 2
        regions = {classify_region(lo, t_three), classify_region(hi, t_three)}
        assert len(regions) == 2, f"probes for {name} fell in one region"
        d_lo = target_distance(lo, t_three, div)
        d_hi = target_distance(hi, t_three, div)
        assert abs(d_hi - d_lo) <= 1e-5
        g_lo = target_distance_grad(lo, t_three, div)
        g_hi = target_distance_grad(hi, t_three, div)
        assert np.max(np.abs(g_hi - g_lo)) <= 1e-3


class TestProjectToTarget:
    def test_identity_in_region_a(self, t_three):
        y = np.array([0.7, 0.1, 0.2])
        z = project_to_target(y, t_three, KL)
        assert np.allclose(z.values, y, atol=0)

    def test_binary_projection(self):
        t = TargetSet(2, (0,), (), 0.8, 1.0)
        z = project_to_target([0.5, 0.5], t, KL)
        assert np.allclose(z.values, [0.8, 0.2], atol=1e-12)

    @pytest.mark.parametrize("div", [KL, CHI2], ids=["kl", "chi2"])
    def test_member_and_attains_distance(self, div):
        rng = np.random.default_rng(61)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            t = random_target_set(rng, k)
            y = random_simplex_point(rng, k)
            z = project_to_target(y, t, div)
            assert t.contains(z, tol=1e-9)
            assert abs(float(z.values.sum()) - 1.0) <= 1e-9
            attained = divergence_value(y, z.values, div)
            assert attained == pytest.approx(target_distance(y, t, div), abs=1e-9)

    def test_zero_mass_group_gets_uniform_budget(self):
        # y carries nothing on the desirable classes; the projection must
        # still place mass p there.
        t = TargetSet(4, (0, 1), (), 0.5, 1.0)
        z = project_to_target([0.0, 0.0, 0.6, 0.4], t, KL)
        assert np.allclose(z.values[:2], [0.25, 0.25], atol=1e-12)
        assert t.contains(z)


class TestTargetSetConstruction:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(3, (0, 1), (1,), 0.5, 0.3)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(3, (), (), 0.0, 1.0)

    def test_vacuous_thresholds_drop_groups(self):
        t = TargetSet(3, (0,), (1,), 0.0, 0.4)
        assert t.desirable == ()
        t = TargetSet(3, (0,), (1,), 0.5, 1.0)
        assert t.undesirable == ()

    def test_undesirable_covering_simplex_rejected(self):
        with pytest.raises(ValueError):
            TargetSet(3, (), (0, 1, 2), 0.0, 0.5)

    def test_p_plus_q_budget_enforced_with_neutral(self):
        with pytest.raises(ValueError):
            TargetSet(3, (0,), (1,), 0.7, 0.5)
        TargetSet(3, (0,), (1,), 0.7, 0.3)  # boundary is allowed

    def test_no_neutral_thresholds_tightened(self):
        t = TargetSet(2, (0,), (1,), 0.6, 0.3)
        # S_U = 1 - S_W, so the cap q=0.3 is the binding constraint.
        assert t.p == pytest.approx(0.7)
        assert t.q == pytest.approx(0.3)

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            TargetSet(2, (0,), (), 1.2, 1.0)


class TestProbVectorAndDivergences:
    def test_valid_vector(self):
        v = ProbVector(np.array([0.2, 0.3, 0.5]))
        assert len(v) == 3
        with pytest.raises(ValueError):
            v.values[0] = 0.9  # frozen storage

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            ProbVector(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ProbVector(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            ProbVector(np.array([0.5, np.nan]))

    def test_registry(self):
        assert get_divergence("kl") is KL
        assert get_divergence("chi2") is CHI2
        with pytest.raises(ValueError):
            get_divergence("hellinger")

    def test_probe_rejects_nonzero_at_one(self):
        with pytest.raises(ValueError):
            DivergenceSpec("bad", lambda v: v, lambda v: 1.0)

    def test_probe_rejects_concave(self):
        with pytest.raises(ValueError):
            DivergenceSpec("bad", lambda v: -((v - 1.0) ** 2), lambda v: -2 * (v - 1))


class TestArrayContract:
    """f and f' are array functions: one call per closed-form term."""

    @staticmethod
    def spy():
        calls = {"f": 0, "f_prime": 0}

        def counted(name, fn):
            def wrapped(v):
                calls[name] += 1
                return fn(v)
            return wrapped

        spec = DivergenceSpec("spy", counted("f", KL.f),
                              counted("f_prime", KL.f_prime))
        calls.update(f=0, f_prime=0)   # the construction probes count apart
        return spec, calls

    @pytest.mark.parametrize("n", [1, 840])
    def test_one_call_per_region_term(self, t_three, n):
        # rows cycle through regions A, B, C and D, so every term runs
        y = np.tile([[0.7, 0.1, 0.2], [0.3, 0.1, 0.6], [0.65, 0.3, 0.05],
                     [0.2, 0.5, 0.3]], (n // 4 + 1, 1))[:n]
        spec, calls = self.spy()
        dist, grad = target_distance_batch(y, t_three, spec)
        assert calls["f"] <= 7 and calls["f_prime"] <= 7
        want_dist, want_grad = target_distance_batch(y, t_three, KL)
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("div", [KL, CHI2, HELLINGER],
                             ids=["kl", "chi2", "hellinger"])
    @pytest.mark.parametrize("y,t", [
        ([math.nan, 0.5], TargetSet(2, (0,), (), 0.8, 1.0)),
        ([0.2, math.nan, 0.3], TargetSet(3, (0,), (1,), 0.6, 0.2)),
    ], ids=["binary", "three-class"])
    def test_nan_output_gives_nan_distance(self, div, y, t):
        assert math.isnan(div.f(math.nan))
        assert math.isnan(target_distance(y, t, div))
