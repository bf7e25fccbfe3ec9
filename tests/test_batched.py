"""Batched layers and the batched descent, checked against the scalar code.

Every batched layer must agree row for row with the scalar function it
stands in for during descent, for a batch of one as for a permuted batch.
The network layers are checked against the single-row passes they
replaced (``oracles.row_forward``, ``oracles.row_input_gradient``), the
distance and the cost against the scalar closed form and term loop they
replaced (``oracles.row_target_distance``, ``oracles.row_cost``), and the
penalties, the coherence test and the rounding against the scalar bodies
they replaced (``oracles.row_penalty_actionable``,
``oracles.row_penalty_coherence``, ``oracles.row_is_coherent``,
``oracles.row_cond``).  The
batched frontier sweep must agree with the per-row search it replaced
(``oracles.per_row_candidate``) on the full-size benchmark problem, and the
row-batched l2 attack bit for bit with the per-point attack it replaced
(``oracles.per_row_cw``).  Every ``_batch`` twin must return, slot by
slot, exactly what its single-individual call returns or raises.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _priced,
    per_row_candidate,
    per_row_cw,
    random_target_set,
    row_cond,
    row_cost,
    row_forward,
    row_input_gradient,
    row_is_coherent,
    row_penalty_actionable,
    row_penalty_coherence,
    row_target_distance,
)
from tapgen.actionability import (
    CostModel,
    Feature,
    FeatureSchema,
    LinearTerm,
    PenaltyConfig,
    TriggerTerm,
    cond,
    cond_batch,
    cost_batch,
    cost_grad,
    penalties_batch,
    penalty_actionable,
    penalty_coherence,
)
from tapgen.baselines import (
    cw_l2,
    cw_l2_batch,
    wachter_counterfactual,
    wachter_counterfactual_batch,
)
from tapgen.bench import METHODS, benchmark_problem
from tapgen.netcore import (
    DenseClassifier,
    forward_cache_batch,
    input_gradient_batch,
)
from tapgen.perturb import (
    OptConfig,
    TapCandidate,
    _price,
    frontier_sweep,
    frontier_sweep_batch,
    repair_on_rejection,
    repair_on_rejection_batch,
)
from tapgen.presets import adult_income_preset, get_preset
from tapgen.probspace import (
    TargetSet,
    chi_square_divergence,
    classify_region,
    kl_divergence,
    target_distance_batch,
    target_distance_grad,
)
from tapgen.synthetic import canonical_benchmark_spec, sample_synthetic
from tapgen.verify import verify_pair, verify_pairs

TOL = dict(rtol=1e-12, atol=1e-12)
DIVS = (kl_divergence(), chi_square_divergence())
PROPERTY = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def row_thresholds(rng, t: TargetSet, n: int) -> list[TargetSet]:
    """Per-row targets over t's classes, tightened as shrink_target does."""
    rows = []
    for _ in range(n):
        step = float(rng.choice([0.0, 0.05, 0.1, 0.15]))
        try:
            rows.append(TargetSet(
                t.num_classes, t.desirable, t.undesirable,
                min(t.p + step, 1.0) if t.desirable else t.p,
                max(t.q - step, 0.0) if t.undesirable else t.q))
        except ValueError:   # p + q > 1 with neutral classes
            rows.append(t)
    return rows


def distance_case(seed, k, n, alpha=0.5):
    rng = np.random.default_rng(seed)
    t = random_target_set(rng, k)
    return t, row_thresholds(rng, t, n), rng.dirichlet(np.full(k, alpha), n)


def check_distance_rows(t, rows, y, div):
    dist, grad = target_distance_batch(y, t, div, [r.p for r in rows],
                                       [r.q for r in rows])
    for i, r in enumerate(rows):
        np.testing.assert_allclose(dist[i], row_target_distance(y[i], r, div),
                                   **TOL)
        np.testing.assert_allclose(grad[i],
                                   target_distance_grad(y[i], r, div), **TOL)
    return dist, grad


def adult_problem():
    """The adult_income preset with linear and trigger terms added."""
    schema, cm = adult_income_preset()
    cm = CostModel(
        quadratic=cm.quadratic,
        linear=(LinearTerm("hours_per_week", -0.02), LinearTerm("age", 0.5)),
        transitions=cm.transitions,
        triggers=(TriggerTerm("employer_self_employed", 2.0),
                  TriggerTerm("education_doctorate", 3.0)))
    return schema, cm


def adult_origin(schema, rng):
    x = np.zeros(len(schema.features))
    x[0] = rng.integers(17, 91)
    x[1] = rng.integers(1, 100)
    for idx in schema.onehot_groups.values():
        x[rng.choice(idx)] = 1.0
    return x


def adult_rows(seed, n, spread=1.0, per_row=False):
    """A coherent adult origin and n relaxed moves around it (row 0 stays);
    with ``per_row`` an (n, d) matrix of coherent origins, one per move."""
    schema, cm = adult_problem()
    rng = np.random.default_rng(seed)
    x = (np.array([adult_origin(schema, rng) for _ in range(n)]) if per_row
         else adult_origin(schema, rng))
    x_tilde = x + spread * rng.standard_normal((n, x.shape[-1])) * (
        rng.random((n, x.shape[-1])) < 0.5)
    x_tilde[0] = x[0] if per_row else x
    x_tilde[:, :2] *= 1.0 + spread * rng.standard_normal((n, 1))
    return schema, cm, x, x_tilde


def row_origins(x, n):
    """Row i's origin from a (d,) vector or an (n, d) matrix of origins."""
    return np.broadcast_to(x, (n, x.shape[-1]))


def check_cost_rows(schema, cm, x, x_tilde):
    value, grad = cost_batch(x, x_tilde, cm, schema)
    for i, (origin, row) in enumerate(zip(row_origins(x, len(x_tilde)),
                                          x_tilde)):
        np.testing.assert_allclose(value[i],
                                   row_cost(origin, row, cm, schema), **TOL)
        np.testing.assert_allclose(grad[i],
                                   cost_grad(origin, row, cm, schema), **TOL)
    return value, grad


def check_penalty_rows(schema, x, x_tilde, pc=PenaltyConfig()):
    value, grad = penalties_batch(x_tilde, schema, pc, schema.box_for(x))
    for i, (origin, row) in enumerate(zip(row_origins(x, len(x_tilde)),
                                          x_tilde)):
        box = schema.box_for(origin)
        box_val, box_grad = row_penalty_actionable(row, schema, pc, box)
        grp_val, grp_grad = row_penalty_coherence(row, schema, pc)
        np.testing.assert_allclose(value[i], box_val + grp_val, **TOL)
        np.testing.assert_allclose(grad[i], box_grad + grp_grad, **TOL)
    return value, grad


def random_net(seed, dims=(4, 9, 7, 3)):
    rng = np.random.default_rng(seed)
    return DenseClassifier(
        layer_dims=dims,
        weights=[rng.standard_normal((o, i)) for i, o in zip(dims, dims[1:])],
        biases=[0.3 * rng.standard_normal(o) for o in dims[1:]],
        mean=rng.standard_normal(dims[0]),
        std=rng.uniform(0.5, 2.0, dims[0]), temperature=1.3)


def check_net_rows(model, x, upstream):
    cache = forward_cache_batch(model, x)
    grad = input_gradient_batch(model, cache, upstream)
    for i, row in enumerate(x):
        single = row_forward(model, row)
        np.testing.assert_allclose(cache.probs[i], single.probs, **TOL)
        np.testing.assert_allclose(
            grad[i], row_input_gradient(model, single, upstream[i]), **TOL)
    return cache.probs, grad


class TestLayersMatchScalar:
    @PROPERTY
    @given(seed=SEEDS, k=st.integers(2, 5), n=st.integers(1, 12),
           div=st.sampled_from(DIVS),
           alpha=st.sampled_from([0.05, 0.5, 5.0]))
    def test_target_distance(self, seed, k, n, div, alpha):
        check_distance_rows(*distance_case(seed, k, n, alpha), div)

    @pytest.mark.parametrize("div", DIVS, ids=lambda d: d.name)
    def test_target_distance_all_four_regions(self, div):
        t = TargetSet(3, (0,), (1,), 0.5, 0.3)
        y = np.array([[0.6, 0.2, 0.2], [0.3, 0.1, 0.6],
                      [0.6, 0.35, 0.05], [0.2, 0.5, 0.3]])
        assert [classify_region(row, t) for row in y] == list("ABCD")
        dist, _ = check_distance_rows(t, [t] * 4, y, div)
        assert dist[0] == 0.0 and np.all(dist[1:] > 0.0)

    def test_target_distance_infinite_rows(self):
        # p = 1 puts every row off the boundary at infinite distance
        t = TargetSet(2, (1,), (), 0.5, 1.0)
        hard = TargetSet(2, (1,), (), 1.0, 1.0)
        y = np.array([[0.3, 0.7], [0.0, 1.0]])
        dist, _ = check_distance_rows(t, [hard, hard], y, kl_divergence())
        assert np.isinf(dist[0]) and dist[1] == 0.0

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(1, 10),
           spread=st.sampled_from([0.01, 1.0, 5.0]), per_row=st.booleans())
    def test_cost_adult_all_term_kinds(self, seed, n, spread, per_row):
        check_cost_rows(*adult_rows(seed, n, spread, per_row))

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(1, 10),
           spread=st.sampled_from([0.01, 1.0, 50.0]), per_row=st.booleans())
    def test_penalties(self, seed, n, spread, per_row):
        # per-row origins give per-row boxes with their own frozen values
        schema, _, x, x_tilde = adult_rows(seed, n, spread, per_row)
        check_penalty_rows(schema, x, x_tilde)

    def test_box_for_rows_matches_each_row(self):
        schema, _, x, _ = adult_rows(5, 6, per_row=True)
        lo, hi = schema.box_for(x)
        for i, origin in enumerate(x):
            assert all(np.array_equal(a, b) for a, b in
                       zip((lo[i], hi[i]), schema.box_for(origin)))

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(1, 10))
    def test_forward_and_input_gradient(self, seed, n):
        model = random_net(seed)
        rng = np.random.default_rng(seed)
        check_net_rows(model, rng.standard_normal((n, 4)),
                       rng.standard_normal((n, 3)))


class TestBatchShape:
    def test_batch_of_one_equals_scalar(self):
        t, rows, y = distance_case(7, 3, 1)
        dist, grad = target_distance_batch(y, t, kl_divergence(),
                                           [rows[0].p], [rows[0].q])
        assert dist[0] == row_target_distance(y[0], rows[0], kl_divergence())
        assert np.array_equal(grad[0], target_distance_grad(
            y[0], rows[0], kl_divergence()))
        schema, cm, x, x_tilde = adult_rows(3, 1)
        check_cost_rows(schema, cm, x, x_tilde[1:] + 0.5)
        check_penalty_rows(schema, x, x_tilde[1:] + 0.5)
        check_net_rows(random_net(3), np.ones((1, 4)), np.ones((1, 3)))

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(2, 12), per_row=st.booleans())
    def test_each_row_rounds_as_it_does_alone(self, seed, n, per_row):
        # a shared descent steps one row where the rows it stands for would
        # have stepped in a larger batch, so batch size must not round
        # differently: transitions, the 8-wide one-hot group and a target
        # with 8 desirable classes included
        schema, cm, x, x_tilde = adult_rows(seed, n, per_row=per_row)
        origins = row_origins(x, n)
        lo, hi = schema.box_for(origins)
        wide = TargetSet(12, tuple(range(8)), (8, 9, 10), 0.6, 0.3)
        y = np.random.default_rng(seed).dirichlet(np.ones(12), n)
        whole = (*cost_batch(origins, x_tilde, cm, schema),
                 *penalties_batch(x_tilde, schema, PenaltyConfig(), (lo, hi)),
                 *target_distance_batch(y, wide, kl_divergence()),
                 schema.coherent_rows(x_tilde))
        for i in range(n):
            one = slice(i, i + 1)
            alone = (*cost_batch(origins[one], x_tilde[one], cm, schema),
                     *penalties_batch(x_tilde[one], schema, PenaltyConfig(),
                                      (lo[one], hi[one])),
                     *target_distance_batch(y[one], wide, kl_divergence()),
                     schema.coherent_rows(x_tilde[one]))
            for a, b in zip(whole, alone):
                assert a[one].tobytes() == b.tobytes()

    @PROPERTY
    @given(seed=SEEDS, n=st.integers(2, 10))
    def test_permuting_rows_permutes_results(self, seed, n):
        perm = np.random.default_rng(seed).permutation(n)
        t, rows, y = distance_case(seed, 4, n)
        p, q = np.array([r.p for r in rows]), np.array([r.q for r in rows])
        schema, cm, x, x_tilde = adult_rows(seed, n)
        model = random_net(seed)
        z = np.random.default_rng(seed).standard_normal((n, 4))
        up = np.random.default_rng(seed + 1).standard_normal((n, 3))

        def layers(order):
            cache = forward_cache_batch(model, z[order])
            return (*target_distance_batch(y[order], t, kl_divergence(),
                                           p[order], q[order]),
                    *cost_batch(x, x_tilde[order], cm, schema),
                    *penalties_batch(x_tilde[order], schema, PenaltyConfig(),
                                     schema.box_for(x)),
                    cache.probs,
                    input_gradient_batch(model, cache, up[order]))

        for whole, permuted in zip(layers(np.arange(n)), layers(perm)):
            np.testing.assert_allclose(whole[perm], permuted, **TOL)


@st.composite
def schemas(draw):
    features = []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["numeric", "integer", "boolean",
                                     "onehot"]))
        mutable = draw(st.booleans())
        if kind == "onehot":
            features += [Feature(f"g{i}_{j}", "onehot", 0.0, 1.0,
                                 mutable=mutable, group=f"g{i}")
                         for j in range(draw(st.integers(2, 4)))]
        elif kind == "integer":
            lo = draw(st.integers(-5, 5))
            features.append(Feature(f"f{i}", "integer", lo,
                                    lo + draw(st.integers(0, 6)), mutable))
        elif kind == "numeric":
            lo = draw(st.floats(-10.0, 10.0))
            features.append(Feature(f"f{i}", "numeric", lo,
                                    lo + draw(st.floats(0.0, 10.0)), mutable))
        else:
            features.append(Feature(f"f{i}", "boolean", 0.0, 1.0, mutable))
    return FeatureSchema(tuple(features))


@PROPERTY
@given(schema=schemas(), seed=SEEDS)
def test_cond_idempotent_on_random_schemas(schema, seed):
    rng = np.random.default_rng(seed)
    spread = schema.upper_bounds - schema.lower_bounds + 6.0
    draw = lambda: schema.lower_bounds - 3.0 + spread * rng.random(spread.size)
    origin = cond(draw(), schema)
    assert schema.is_coherent(origin)
    for box in (None, schema.box_for(origin)):
        once = cond(draw(), schema, box)
        assert np.array_equal(cond(once, schema, box), once)


PRESETS = ("adult_income", "law_school", "diabetes", "german_credit")


def relaxed_rows(schema, rng, n):
    """n relaxed points around the bounds: some on a 0.5 grid (ties and
    halves) and some at signed zeros, where rounding and clipping can
    flip a sign."""
    lo = np.where(np.isfinite(schema.lower_bounds), schema.lower_bounds, -10.0)
    hi = np.where(np.isfinite(schema.upper_bounds), schema.upper_bounds, 10.0)
    x = lo - 3.0 + (hi - lo + 6.0) * rng.random((n, lo.size))
    roll = rng.random(x.shape)
    x = np.where(roll < 0.3, np.round(2.0 * x) / 2.0, x)
    x = np.where(roll > 0.9, np.where(roll > 0.95, -0.0, 0.0), x)
    return np.where((roll > 0.85) & (roll <= 0.9), -0.3, x)


def random_boxes(schema, rng, n):
    """Per-row boxes at coherent origins (immutables pinned), with random
    one-hot members forced on (lower bound 1) or ruled out (upper bound 0)."""
    origins = np.array([row_cond(row, schema)
                        for row in relaxed_rows(schema, rng, n)])
    lo, hi = (b.copy() for b in schema.box_for(origins))
    onehot = np.array([f.kind == "onehot" for f in schema.features])
    roll = rng.random(lo.shape)
    lo[onehot & (roll < 0.15)] = 1.0
    hi[onehot & (roll > 0.7)] = 0.0
    return origins, (lo, hi)


def check_cond_rows(schema, x, box=None):
    """cond_batch and cond against the scalar body, signed zeros included."""
    got = cond_batch(x, schema, box)
    for i, row in enumerate(x):
        row_box = (None if box is None else
                   tuple(np.broadcast_to(b, x.shape)[i] for b in box))
        want = row_cond(row, schema, row_box)
        for out in (got[i], cond(row, schema, row_box)):
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))
    return got


def check_coherence_rows(schema, x, box):
    """coherent_rows and the penalty views against the scalar bodies."""
    assert schema.coherent_rows(x).tolist() == [
        row_is_coherent(schema, row) for row in x]
    pc = PenaltyConfig(actionable_weight=3.0, coherence_weight=7.0)
    for i, row in enumerate(x):
        row_box = (box[0][i], box[1][i])
        for got, want in ((penalty_actionable(row, schema, pc, row_box),
                           row_penalty_actionable(row, schema, pc, row_box)),
                          (penalty_actionable(row, schema, pc),
                           row_penalty_actionable(row, schema, pc)),
                          (penalty_coherence(row, schema, pc),
                           row_penalty_coherence(row, schema, pc))):
            np.testing.assert_allclose(got[0], want[0], **TOL)
            np.testing.assert_allclose(got[1], want[1], **TOL)


class TestActionabilityMatchesScalar:
    @PROPERTY
    @given(schema=schemas(), seed=SEEDS, n=st.integers(1, 12))
    def test_cond_on_random_schemas(self, schema, seed, n):
        rng = np.random.default_rng(seed)
        x = relaxed_rows(schema, rng, n)
        origins, box = random_boxes(schema, rng, n)
        check_cond_rows(schema, x)
        check_cond_rows(schema, x, box)
        check_cond_rows(schema, x, schema.box_for(origins[0]))
        check_coherence_rows(schema, np.vstack([x, origins]),
                             tuple(np.vstack([b, b]) for b in box))

    @pytest.mark.parametrize("name", PRESETS)
    def test_cond_on_presets(self, name):
        schema, _ = get_preset(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        x = relaxed_rows(schema, rng, 400)
        origins, box = random_boxes(schema, rng, 400)
        check_cond_rows(schema, x)
        snapped = check_cond_rows(schema, x, box)
        assert np.array_equal(cond_batch(snapped, schema, box), snapped)
        assert schema.coherent_rows(origins).all()
        check_coherence_rows(schema, np.vstack([x, origins, snapped]),
                             tuple(np.vstack([b, b, b]) for b in box))

    def test_cond_non_finite_group_values(self):
        # -inf and NaN members: the mask must not hand the win to a member
        # that cannot be chosen
        schema = FeatureSchema(tuple(
            Feature(f"g{j}", "onehot", 0.0, 1.0, group="g") for j in range(3)))
        lo, hi = np.zeros((4, 3)), np.array([[0.0, 1.0, 1.0]] * 4)
        x = np.array([[-np.inf, -np.inf, -np.inf], [np.nan, -np.inf, np.nan],
                      [np.inf, -np.inf, 0.5], [0.2, np.nan, np.inf]])
        check_cond_rows(schema, x, (lo, hi))
        assert cond_batch(x, schema, (lo, hi))[0].tolist() == [0.0, 1.0, 0.0]

    def test_cond_batch_checks_shapes(self):
        schema, _ = adult_income_preset()
        d = len(schema.features)
        for bad in (np.zeros(d), np.zeros((2, d + 1))):
            with pytest.raises(ValueError):
                cond_batch(bad, schema)
            with pytest.raises(ValueError):
                schema.coherent_rows(bad)
        assert cond_batch(np.zeros((0, d)), schema).shape == (0, d)

    def test_non_finite_entries_are_not_coherent(self):
        schema, _ = adult_income_preset()
        x = np.array([row_cond(row, schema) for row in relaxed_rows(
            schema, np.random.default_rng(0), 3)])
        i = [f.kind for f in schema.features].index("integer")
        x[0, i], x[1, i] = np.nan, np.inf
        assert schema.coherent_rows(x).tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# the batched frontier sweep against the per-row search it replaced

INDIVIDUALS = 6


def relative_gap(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def test_batched_sweep_matches_per_row_oracle(bench_results_two_seeds):
    schema, cm, target = benchmark_problem()
    eps_gap, delta_gap, abs_gap = [], [], []
    same_iters = verdicts = agree = 0
    for result in bench_results_two_seeds:
        cfg = result.config
        x, _ = sample_synthetic(canonical_benchmark_spec(), cfg.n_samples,
                                cfg.seed)
        oc = OptConfig(lam=1.0, max_iters=cfg.opt_iters, seed=cfg.seed)
        for ind in result.individual_ids[:INDIVIDUALS]:
            sweep = frontier_sweep(result.model, schema, cm, target, x[ind],
                                   cfg.lambdas, oc, include_noop=False)
            assert not sweep.failures
            batched = {c.lam: c for c in sweep.candidates}
            for lam in cfg.lambdas:
                want = per_row_candidate(result.model, schema, cm, target,
                                         x[ind], OptConfig(lam=float(lam),
                                                           max_iters=cfg.opt_iters,
                                                           seed=cfg.seed))
                got = batched[float(lam)]
                eps_gap.append(relative_gap(got.epsilon, want.epsilon))
                delta_gap.append(relative_gap(got.delta, want.delta))
                abs_gap.append(max(abs(got.epsilon - want.epsilon),
                                   abs(got.delta - want.delta)))
                same_iters += got.iterations == want.iterations
                verdicts += 1
                agree += (verify_pair(result.model, result.verifier,
                                      result.calibration, x[ind],
                                      got.x_tilde).accepted
                          == verify_pair(result.model, result.verifier,
                                         result.calibration, x[ind],
                                         want.x_tilde).accepted)
    print(f"{verdicts} pairs: median relative gap eps "
          f"{np.median(eps_gap):.3g} delta {np.median(delta_gap):.3g}; "
          f"{sum(g > 1e-6 for g in eps_gap)} eps gaps above 1e-6; largest "
          f"absolute gap {max(abs_gap):.3g}; equal iteration counts "
          f"{same_iters}; verdict agreement {agree}/{verdicts}")
    assert verdicts >= 2 * INDIVIDUALS * 21
    assert np.median(eps_gap) <= 1e-9 and np.median(delta_gap) <= 1e-9
    assert max(abs_gap) <= 0.05
    assert agree >= 0.99 * verdicts


# ---------------------------------------------------------------------------
# the row-batched attack against the per-point attack it replaced


def same_candidate(a: TapCandidate, b: TapCandidate) -> bool:
    """Bit-for-bit equality of everything a candidate reports."""
    return (np.array_equal(a.x, b.x) and np.array_equal(a.x_tilde, b.x_tilde)
            and (a.lam, a.epsilon, a.delta, a.objective, a.iterations,
                 a.verified, a.discrepancy)
            == (b.lam, b.epsilon, b.delta, b.objective, b.iterations,
                b.verified, b.discrepancy))


def same_outcome(got, want) -> bool:
    """Equal results, or exceptions of one type with one message."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    trials = getattr(want, "trials", getattr(want, "candidates", None))
    got_trials = getattr(got, "trials", getattr(got, "candidates", None))
    return (len(trials) == len(got_trials)
            and all(map(same_candidate, got_trials, trials))
            and getattr(got, "failures", None) == getattr(want, "failures", None)
            and (not hasattr(want, "flipped")
                 or (got.flipped == want.flipped
                     and same_candidate(got.candidate, want.candidate))))


def test_batched_cw_matches_per_row_oracle(bench_results_two_seeds):
    schema, cm, target = benchmark_problem()
    trials = 0
    for result in bench_results_two_seeds:
        cfg = result.config
        x, _ = sample_synthetic(canonical_benchmark_spec(), cfg.n_samples,
                                cfg.seed)
        points = x[list(result.individual_ids)]
        batched = cw_l2_batch(result.model, schema, cm, target, points,
                              attack_class=1)
        for point, got in zip(points, batched):
            try:
                want = per_row_cw(result.model, schema, cm, target, point,
                                  attack_class=1)
            except ValueError as err:
                want = err
            assert same_outcome(got, want)
            if not isinstance(want, Exception):
                assert ([c.lam for c in got.trials]
                        == [c.lam for c in want.trials])   # the c schedule
                trials += len(want.trials)
    assert trials >= 2 * 30 * 9


# ---------------------------------------------------------------------------
# a bad individual does not sink its batch


FAST = dict(max_iters=60, patience=5)


@pytest.fixture(scope="module")
def mixed_batch(bench_data, bench_model):
    """Four wrong-side individuals, one point outside the feature bounds
    and one the model already places in the desirable class."""
    _, x, _ = bench_data
    p1 = forward_cache_batch(bench_model, x).probs[:, 1]
    good = x[np.flatnonzero((p1 > 0.05) & (p1 < 0.45))[:4]]
    outside = good[0] + np.array([0.0, 0.0, 20.0, 0.0])
    desired = x[np.flatnonzero(p1 > 0.9)[0]]
    return np.vstack([good[:2], outside, good[2:3], desired, good[3:]])


def run_single(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        return err


def test_twins_isolate_bad_individuals(bench_model, bench_schema, bench_cost,
                                       bench_target, bench_verifier,
                                       bench_calibration, bench_data,
                                       mixed_batch):
    problem = (bench_model, bench_schema, bench_cost, bench_target)
    oc = OptConfig(lam=0.5, **FAST)
    lams = (0.0, 0.05, 1.0)
    sweeps = frontier_sweep_batch(*problem, mixed_batch, lams, oc)
    for x, got in zip(mixed_batch, sweeps):
        assert same_outcome(got, run_single(frontier_sweep, *problem, x, lams,
                                            oc))
    assert "outside the feature bounds" in str(sweeps[2])

    # repair the cheapest moved candidate of each sweep; the bad origin
    # comes back as a candidate that never started inside its box
    rejected = [TapCandidate(x=x, x_tilde=x, lam=1.0, epsilon=0.0, delta=1.0,
                             objective=1.0, iterations=0, verified=False,
                             discrepancy=0.5)
                if isinstance(sweep, Exception) else sweep.candidates[-1]
                for x, sweep in zip(mixed_batch, sweeps)]
    ocs = [OptConfig(lam=c.lam if np.isfinite(c.lam) else 1.0, **FAST)
           for c in rejected]
    repairs = repair_on_rejection_batch(
        bench_model, bench_verifier, bench_calibration, *problem[1:],
        rejected, ocs, attempts_per_strategy=1)
    for cand, run_oc, got in zip(rejected, ocs, repairs):
        want = run_single(repair_on_rejection, bench_model, bench_verifier,
                          bench_calibration, *problem[1:], cand, run_oc,
                          attempts_per_strategy=1)
        if isinstance(want, Exception):
            assert same_outcome(got, want)
            continue
        assert (got.verified, got.strategy) == (want.verified, want.strategy)
        assert same_candidate(got.candidate, want.candidate)
        assert [(a.strategy, a.attempt, a.error) for a in got.attempts] == [
            (a.strategy, a.attempt, a.error) for a in want.attempts]
    assert isinstance(repairs[2], ValueError)

    _, x, _ = bench_data
    attacks = cw_l2_batch(*problem, mixed_batch, attack_class=1,
                          bisection_steps=3, max_iters=40)
    counterfactuals = wachter_counterfactual_batch(
        *problem, mixed_batch, x[:500], max_iters=60)
    for point, attack, cf in zip(mixed_batch, attacks, counterfactuals):
        assert same_outcome(attack, run_single(
            cw_l2, *problem, point, attack_class=1, bisection_steps=3,
            max_iters=40))
        assert same_outcome(cf, wachter_counterfactual(
            *problem, point, x[:500], max_iters=60))
    assert "already classified" in str(attacks[4])
    assert counterfactuals[4].trials[0].is_noop


def test_batch_of_none(bench_model, bench_schema, bench_cost, bench_target,
                       bench_verifier, bench_calibration, bench_data):
    problem = (bench_model, bench_schema, bench_cost, bench_target)
    empty = np.empty((0, 4))
    assert frontier_sweep_batch(*problem, empty, (0.1,), OptConfig()) == []
    assert repair_on_rejection_batch(bench_model, bench_verifier,
                                     bench_calibration, *problem[1:], [],
                                     []) == []
    assert cw_l2_batch(*problem, empty, attack_class=1) == []
    assert wachter_counterfactual_batch(*problem, empty,
                                        bench_data[1][:50]) == []


def test_benchmark_output_order(bench_results_two_seeds):
    """Records and failures are laid out individual by individual, in the
    order tap, wachter, cw within each individual."""
    for result in bench_results_two_seeds:
        for rows in ([(r.individual_id, r.method) for r in result.records],
                     [(i, m) for i, m, _ in result.failures]):
            keys = [(result.individual_ids.index(i), METHODS.index(m))
                    for i, m in rows]
            assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# one pricing path and one verdict path


def last_bits(a: float, b: float, ulps: int = 8) -> bool:
    return a == b or abs(a - b) <= ulps * np.spacing(max(abs(a), abs(b)))


def batches(n: int):
    """The full batch, a shuffled batch and every one-row batch."""
    yield np.arange(n)
    yield np.random.default_rng(n).permutation(n)
    yield from ([i] for i in range(n))


class TestOnePricingPath:
    """Every candidate of a benchmark run (its full frontier.csv), priced
    and verified in batches, against the scalar pricing oracle and the
    one-pair verdict."""

    def test_batched_pricing_matches_scalar_oracle(self,
                                                   bench_results_two_seeds):
        schema, cm, target = benchmark_problem()
        div = kl_divergence()
        for result in bench_results_two_seeds:
            cands = [r.candidate for r in result.records]
            x = np.array([c.x for c in cands])
            x_tilde = np.array([c.x_tilde for c in cands])
            lams = np.array([c.lam for c in cands])
            iterations = np.array([c.iterations for c in cands])
            want = [_priced(result.model, schema, cm, target, div, c.x,
                            c.x_tilde, c.lam, c.iterations) for c in cands]
            for rows in batches(len(cands)):
                got, probs = _price(result.model, schema, cm, target, div,
                                    x[rows], x_tilde[rows], lams[rows],
                                    iterations[rows])
                assert len(got) == len(rows)
                assert np.array_equal(probs, forward_cache_batch(
                    result.model, x_tilde[rows]).probs)
                for i, g in zip(rows, got):
                    w = want[i]
                    assert np.array_equal(g.x, w.x)
                    assert np.array_equal(g.x_tilde, w.x_tilde)
                    assert (g.lam, g.delta, g.iterations) == (
                        w.lam, w.delta, w.iterations)
                    assert last_bits(g.epsilon, w.epsilon)
                    assert last_bits(g.objective, w.objective)

    def test_verify_pairs_equals_verify_pair(self, bench_results_two_seeds):
        for result in bench_results_two_seeds:
            problem = (result.model, result.verifier, result.calibration)
            cands = [r.candidate for r in result.records]
            x = np.array([c.x for c in cands])
            x_tilde = np.array([c.x_tilde for c in cands])
            want = [verify_pair(*problem, c.x, c.x_tilde) for c in cands]
            assert [(v.accepted, v.discrepancy) for v in want] == [
                (c.verified, c.discrepancy) for c in cands]
            for rows in batches(len(cands)):
                assert verify_pairs(*problem, x[rows], x_tilde[rows]) == [
                    want[i] for i in rows]
