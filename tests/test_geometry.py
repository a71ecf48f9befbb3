import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from baryfed import geometry
from baryfed.checks import (
    divergence,
    geodesic_monotonicity,
    numeric_projection_oracle,
    projection_oracle_error,
    projection_path,
    random_instance,
)
from baryfed.config import parse_config
from baryfed.geometry import (
    AggregationMethod,
    DiagGaussian,
    Divergence,
    VAR_FLOOR,
    aggregate,
    project,
    projection_divergence,
)


def g(mean, var):
    return DiagGaussian(mean=np.atleast_1d(np.asarray(mean, dtype=np.float64)),
                        var=np.atleast_1d(np.asarray(var, dtype=np.float64)))


STD_NORMAL = g(0.0, 1.0)


# Property-test inputs. Means in [-10, 10] and variances in [1e-3, 1e3] keep
# the rounding error of a reordered weighted sum far below the 1e-12 tolerance.
DIM = 3
METHODS = st.sampled_from(list(AggregationMethod))
POSTERIORS = st.builds(
    g,
    st.lists(st.floats(-10.0, 10.0), min_size=DIM, max_size=DIM),
    st.lists(st.floats(1e-3, 1e3), min_size=DIM, max_size=DIM),
)


@st.composite
def weighted_sets(draw, min_size=1, max_size=12):
    """Posteriors with positive weights normalized to sum to 1."""
    k = draw(st.integers(min_size, max_size))
    posts = draw(st.lists(POSTERIORS, min_size=k, max_size=k))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return posts, raw / raw.sum()


@st.composite
def projection_instances(draw):
    """(p_g, p_k, grid): P of 1, 2 or 51; means that may be +0.0 or -0.0;
    variances that may be small enough for a projection to floor them; and
    an unsorted grid that may repeat lambdas and hold 0, 1e-300, 1e300, inf."""
    dim = draw(st.sampled_from([1, 2, 51]))
    means = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    variances = st.one_of(st.sampled_from([1e-14, 1e-13]), st.floats(1e-3, 1e3))
    p_g, p_k = (
        g(
            draw(st.lists(means, min_size=dim, max_size=dim)),
            draw(st.lists(variances, min_size=dim, max_size=dim)),
        )
        for _ in range(2)
    )
    lams = st.one_of(st.sampled_from([0.0, 1e-300, 1e300, math.inf]), st.floats(1e-3, 1e3))
    return p_g, p_k, draw(st.lists(lams, min_size=1, max_size=8))


def assert_close(a: DiagGaussian, b: DiagGaussian):
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.var, b.var, rtol=1e-12, atol=1e-12)


class TestDiagGaussian:
    def test_validation(self):
        with pytest.raises(ValueError):
            g([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            g(0.0, -1.0)
        with pytest.raises(ValueError):
            g(0.0, 0.0)
        with pytest.raises(ValueError):
            g(np.nan, 1.0)
        with pytest.raises(ValueError):
            g(0.0, np.inf)

    def test_arrays_frozen(self):
        p = g([1.0, 2.0], [0.5, 2.0])
        with pytest.raises(ValueError):
            p.mean[0] = 3.0
        assert p.dim == 2
        assert np.allclose(p.std, np.sqrt(p.var))

    def test_contiguous_float64_is_shared_not_copied(self):
        # frozen in place: a caller that keeps writing passes a copy
        m, v = np.zeros(3), np.ones(3)
        p = DiagGaussian(mean=m, var=v)
        assert p.mean is m and p.var is v
        assert not m.flags.writeable and not v.flags.writeable
        # anything else is converted into an array of the posterior's own
        ints = np.ones(3, dtype=np.int64)
        q = DiagGaussian(mean=ints, var=ints)
        assert q.var is not ints and ints.flags.writeable and not q.var.flags.writeable

    def test_stack_rows_are_posteriors(self):
        # a (2, 3, P) stack: dim is the last axis, post[i] views row i, and
        # post[None] is a stack of one
        rng = np.random.default_rng(0)
        mean, var = rng.normal(size=(2, 3, 4)), rng.uniform(0.5, 2.0, size=(2, 3, 4))
        stack = DiagGaussian(mean=mean, var=var)
        assert stack.dim == 4 and stack.std.shape == (2, 3, 4)
        row = stack[1, 2]
        assert row.mean.shape == (4,) and np.shares_memory(row.mean, mean)
        assert np.array_equal(row.var, var[1, 2])
        assert stack[None].mean.shape == (1, 2, 3, 4)
        assert [p.mean.shape for p in stack] == [(3, 4), (3, 4)]
        with pytest.raises(ValueError):
            row.mean[0] = 1.0
        # one row, or a stack of one, is a contiguous read-only view
        for view in (stack[1], stack[1][2], stack[None], stack[1][None]):
            assert np.shares_memory(view.var, var) and view.var.flags.c_contiguous
            assert not view.mean.flags.writeable and not view.var.flags.writeable
        assert np.array_equal(stack[1][2].var, var[1, 2])

    def test_stack_validation(self):
        var = np.ones((2, 3))
        var[1, 2] = 0.0
        with pytest.raises(ValueError, match="non-positive variance at coordinate 2"):
            DiagGaussian(mean=np.zeros((2, 3)), var=var)
        with pytest.raises(ValueError, match="finite"):
            DiagGaussian(mean=np.full((2, 3), np.nan), var=np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            DiagGaussian(mean=np.zeros((2, 3)), var=np.ones((1, 3)))
        with pytest.raises(ValueError, match="dimension"):
            DiagGaussian(mean=np.zeros((2, 0)), var=np.ones((2, 0)))

    def test_projected_rows_are_read_only(self):
        p_g, p_k = g([0.0, 1.0], [1.0, 0.5]), g([4.0, -2.0], [9.0, 0.1])
        for d in (Divergence.RKL, Divergence.W2SQ):
            proj = project(d, p_g[None], p_k[None], [0.5, 1.0, 3.0])
            mean, var = proj.mean, proj.var
            assert mean.shape == var.shape == (1, 3, 2)
            assert not mean.flags.writeable and not var.flags.writeable
            with pytest.raises(ValueError):
                var[0, 0, 0] = 1.0


RKL, W2SQ = Divergence.RKL, Divergence.W2SQ


class TestDivergences:
    def test_kl_pinned_values(self):
        # mean shift only: 0.5 * 1^2 / 1
        assert projection_divergence(RKL, g(1.0, 1.0), STD_NORMAL) == pytest.approx(
            0.5, abs=1e-15
        )
        # variance ratio 2: 0.5 * (2 - 1 - ln 2)
        expect = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert projection_divergence(RKL, g(0.0, 2.0), STD_NORMAL) == pytest.approx(
            expect, abs=1e-15
        )
        assert projection_divergence(RKL, STD_NORMAL, STD_NORMAL) == 0.0

    def test_kl_asymmetry(self):
        a, b = g(0.0, 1.0), g(0.0, 4.0)
        assert projection_divergence(RKL, a, b) != pytest.approx(
            projection_divergence(RKL, b, a), abs=1e-6
        )

    def test_w2sq_pinned_values(self):
        assert projection_divergence(W2SQ, g(4.0, 9.0), g(1.0, 9.0)) == pytest.approx(9.0)
        assert projection_divergence(W2SQ, g(0.0, 4.0), g(0.0, 1.0)) == pytest.approx(1.0)
        assert projection_divergence(W2SQ, g(2.0, 3.0), g(2.0, 3.0)) == 0.0

    def test_w2sq_symmetric(self):
        a, b = g(1.0, 2.0), g(-3.0, 0.25)
        assert projection_divergence(W2SQ, a, b) == pytest.approx(
            projection_divergence(W2SQ, b, a), abs=1e-15
        )

    def test_projection_divergence_is_candidate_first(self):
        # the candidate (first argument) is scored against the reference
        cand, ref = g(0.5, 2.0), g(0.0, 1.0)
        rkl = 0.5 * (2.0 + 0.5**2 - 1.0 - math.log(2.0))  # KL(cand || ref)
        assert projection_divergence(RKL, cand, ref) == pytest.approx(rkl, abs=1e-15)
        w2sq = 0.5**2 + (math.sqrt(2.0) - 1.0) ** 2
        assert projection_divergence(W2SQ, cand, ref) == pytest.approx(w2sq, abs=1e-15)

    def test_dim_mismatch(self):
        for d in Divergence:
            with pytest.raises(ValueError):
                projection_divergence(d, g([0.0, 0.0], [1.0, 1.0]), STD_NORMAL)

    @pytest.mark.parametrize("d", list(Divergence))
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_closed_form_is_sum_of_coordinate_definitions(self, d, dim):
        # checks.divergence is written from the definitions, one coordinate
        # at a time; the closed form must be its sum over coordinates
        rng = np.random.default_rng(dim)
        for _ in range(20):
            q, p = (g(rng.uniform(-2.0, 2.0, dim), rng.uniform(0.1, 3.0, dim)) for _ in "qp")
            coords = [
                divergence(d, q.mean[i], q.std[i], g(p.mean[i], p.var[i])) for i in range(dim)
            ]
            assert projection_divergence(d, q, p) == pytest.approx(math.fsum(coords), rel=1e-12)

    @pytest.mark.parametrize("d", list(Divergence))
    def test_every_divergence_is_computed(self, d):
        # no member is named without a config entry, a projection and a score
        body = {"dataset": {"kind": "synth"}, "personalization": {"divergence": d.value.lower()}}
        assert parse_config(body).personalization.divergence is d
        p_g, p_k = g([0.0, 1.0], [1.0, 0.5]), g([4.0, -2.0], [9.0, 0.1])
        proj = project(d, p_g[None], p_k[None], [0.5, 2.0])
        assert np.isfinite(proj.mean).all() and np.isfinite(proj.var).all()
        q = proj[0, 0]
        assert math.isfinite(projection_divergence(d, q, p_k))
        assert np.isfinite(divergence(d, q.mean[0], q.std[0], g(p_k.mean[0], p_k.var[0])))


class TestAggregate:
    trio = [g(0.0, 1.0), g(2.0, 1.0 / 3.0)]
    half = [0.5, 0.5]

    def test_eaa_worked_example(self):
        out = aggregate(AggregationMethod.EAA, [g(0.0, 1.0), g(0.0, 9.0)], self.half)
        assert out.var[0] == pytest.approx(5.0, abs=1e-15)

    def test_w2b_worked_example(self):
        out = aggregate(AggregationMethod.W2B, [g(0.0, 1.0), g(0.0, 9.0)], self.half)
        assert out.var[0] == pytest.approx(4.0, abs=1e-15)

    def test_rklb_worked_example(self):
        out = aggregate(AggregationMethod.RKLB, self.trio, self.half)
        assert out.mean[0] == pytest.approx(1.5, abs=1e-12)
        assert out.var[0] == pytest.approx(0.5, abs=1e-12)

    def test_mean_rules_agree_for_eaa_w2b(self):
        ps = [g(-1.0, 0.5), g(3.0, 2.0)]
        for method in (AggregationMethod.EAA, AggregationMethod.W2B):
            out = aggregate(method, ps, [0.25, 0.75])
            assert out.mean[0] == pytest.approx(-0.25 + 2.25, abs=1e-15)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [0.6, 0.6])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [-0.1, 1.1])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, self.trio, [1.0])
        with pytest.raises(ValueError):
            aggregate(AggregationMethod.EAA, [], [])

    def test_weight_normalization_within_tolerance(self):
        # drift below 1e-9 is renormalized, not rejected
        out = aggregate(AggregationMethod.EAA, self.trio, [0.5, 0.5 + 1e-10])
        assert math.isfinite(out.mean[0])

    @settings(deadline=None)
    @given(METHODS, weighted_sets(), POSTERIORS, st.data())
    def test_zero_weight_entry_is_bit_exact_identity(self, method, members, extra, data):
        posts, w = members
        at = data.draw(st.integers(0, len(posts)))
        out = aggregate(method, posts[:at] + [extra] + posts[at:], np.insert(w, at, 0.0))
        ref = aggregate(method, posts, w)  # a lone member comes back as itself
        assert np.array_equal(out.mean, ref.mean)
        assert np.array_equal(out.var, ref.var)

    @settings(deadline=None)
    @given(METHODS, weighted_sets(min_size=2), st.data())
    def test_permutation_invariant(self, method, members, data):
        posts, w = members
        perm = data.draw(st.permutations(range(len(posts))))
        shuffled = aggregate(method, [posts[i] for i in perm], w[list(perm)])
        assert_close(shuffled, aggregate(method, posts, w))

    @settings(deadline=None)
    @given(METHODS, POSTERIORS, st.floats(0.0, 1.0))
    def test_self_aggregate_is_identity(self, method, p, w):
        assert_close(aggregate(method, [p, p], [w, 1.0 - w]), p)

    def test_many_members_weighted(self):
        ps = [g(float(i), 1.0 + i) for i in range(4)]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        out = aggregate(AggregationMethod.EAA, ps, w)
        assert out.mean[0] == pytest.approx(float(np.sum(w * np.arange(4))))
        assert out.var[0] == pytest.approx(float(np.sum(w * (1.0 + np.arange(4)))))

    @pytest.mark.parametrize("dim", [1, 2, 51, 1000])
    @pytest.mark.parametrize("k", [2, 7, 8, 20])
    def test_bits_equal_stacked_sums(self, k, dim):
        # the stacked form every rule was first written in: one (k, dim)
        # array per statistic, reduced with np.sum over axis 0
        rng = np.random.default_rng(k * dim)
        means = rng.standard_normal((k, dim)) * 10.0 ** rng.integers(-4, 5, (k, 1))
        means[:, 0] = -0.0  # a column of negative zeros sums to +0.0, as before
        posts = [g(m, np.exp(3.0 * rng.standard_normal(dim))) for m in means]
        w = rng.random(k)
        w /= w.sum()
        wcol = (w / w.sum())[:, None]  # aggregate renormalizes its weights
        means, variances = np.stack([p.mean for p in posts]), np.stack([p.var for p in posts])
        prec = np.sum(wcol / variances, axis=0)
        expect = {
            AggregationMethod.EAA: (np.sum(wcol * means, axis=0), np.sum(wcol * variances, axis=0)),
            AggregationMethod.W2B: (np.sum(wcol * means, axis=0), np.sum(wcol * np.sqrt(variances), axis=0) ** 2),
            AggregationMethod.RKLB: ((1.0 / prec) * np.sum(wcol * means / variances, axis=0), 1.0 / prec),
        }
        for method, (mean, var) in expect.items():
            out = aggregate(method, posts, w)
            assert out.mean.tobytes() == mean.tobytes(), method
            assert out.var.tobytes() == np.maximum(var, VAR_FLOOR).tobytes(), method

    def test_variance_floor(self, caplog):
        tiny = [g(0.0, 1e-14), g(0.0, 1e-14)]
        with caplog.at_level("WARNING"):
            out = aggregate(AggregationMethod.EAA, tiny, self.half)
        assert out.var[0] >= VAR_FLOOR


class TestLaneStacks:
    """The server step on (L, P) lane stacks: aggregate fuses K client
    stacks with (L, K) weights, and projection_divergence scores two stacks
    row by row; each row has the bits of a call on that lane alone."""

    LANES = 5

    @staticmethod
    def client_stacks(rng, k, lanes, dim):
        scale = 10.0 ** rng.integers(-4, 5, (k, lanes, 1))
        means = rng.standard_normal((k, lanes, dim)) * scale
        variances = np.exp(3.0 * rng.standard_normal((k, lanes, dim)))
        return [DiagGaussian(mean=m, var=v) for m, v in zip(means, variances)]

    @pytest.mark.parametrize("dim", [1, 7, 8, 129])
    @pytest.mark.parametrize("k", [2, 9])
    def test_rows_bit_equal_per_lane_calls(self, k, dim):
        # k = 9 sums each weight row, and at dim = 1 each coordinate's k
        # terms, with NumPy's unrolled pairwise sum
        rng = np.random.default_rng(100 * k + dim)
        stacks = self.client_stacks(rng, k, self.LANES, dim)
        w = rng.random((self.LANES, k))
        w /= w.sum(axis=1, keepdims=True)
        for method in AggregationMethod:
            out = aggregate(method, stacks, w)
            assert out.mean.shape == out.var.shape == (self.LANES, dim)
            for lane in range(self.LANES):
                ref = aggregate(method, [s[lane] for s in stacks], w[lane])
                assert out.mean[lane].tobytes() == ref.mean.tobytes(), (method, lane)
                assert out.var[lane].tobytes() == ref.var.tobytes(), (method, lane)
            for d in Divergence:
                for s in stacks:
                    got = projection_divergence(d, s, out)
                    ref = [projection_divergence(d, s[lane], out[lane]) for lane in range(self.LANES)]
                    assert got.shape == (self.LANES,)
                    assert got.tobytes() == np.array(ref).tobytes(), (method, d)

    def test_lone_survivor_is_the_stack_itself(self):
        stacks = self.client_stacks(np.random.default_rng(0), 2, self.LANES, 3)
        for method in AggregationMethod:
            assert aggregate(method, stacks[:1], np.ones((self.LANES, 1))) is stacks[0]
            w = np.tile([0.0, 1.0], (self.LANES, 1))
            assert aggregate(method, stacks, w) is stacks[1]

    def test_weights_must_match_the_stacks(self):
        stacks = self.client_stacks(np.random.default_rng(0), 2, self.LANES, 3)
        with pytest.raises(ValueError, match="shape"):
            aggregate(AggregationMethod.EAA, stacks, [0.5, 0.5])
        with pytest.raises(ValueError, match="shape"):
            aggregate(AggregationMethod.EAA, [stacks[0], stacks[1][0]], [0.5, 0.5])
        mixed = np.full((self.LANES, 2), 0.5)
        mixed[1] = [0.0, 1.0]  # one lane drops a member the others keep
        with pytest.raises(ValueError, match="every row"):
            aggregate(AggregationMethod.EAA, stacks, mixed)

    def test_divergence_needs_equal_shapes(self):
        # a stack against one posterior would broadcast: it is refused
        stack = self.client_stacks(np.random.default_rng(0), 1, self.LANES, 3)[0]
        for d in Divergence:
            with pytest.raises(ValueError, match="shape mismatch"):
                projection_divergence(d, stack, stack[0])


class TestProjectionWeights:
    """project is the barycenter of (p_g, p_k) with weights 1/(lam+1), lam/(lam+1)."""

    p_g = g([0.0, 1.0], [1.0, 0.5])
    p_k = g([4.0, -2.0], [9.0, 0.1])

    def test_from_lambda(self):
        pairs = {
            Divergence.W2SQ: AggregationMethod.W2B,
            Divergence.RKL: AggregationMethod.RKLB,
        }
        grid = [1.0, 0.0, 3.0, math.inf]
        weights = [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]
        for d, method in pairs.items():
            # 0 and inf get no row: they are the global and local posteriors
            proj = project(d, self.p_g[None], self.p_k[None], grid)
            assert proj.mean.shape == (1, 2, 2)
            for m, v, w in zip(proj.mean[0], proj.var[0], weights[::2]):
                ref = aggregate(method, [self.p_g, self.p_k], w)
                assert np.array_equal(m, ref.mean)
                assert np.array_equal(v, ref.var)
            *_, at_inf = projection_path(d, self.p_g, self.p_k, grid)
            assert at_inf is self.p_k
        proj = project(Divergence.RKL, self.p_g[None], self.p_k[None], [])
        assert proj.mean.shape == proj.var.shape == (1, 0, 2)

    def test_stacks_must_share_one_shape(self):
        pair = DiagGaussian(mean=np.zeros((2, 2)), var=np.ones((2, 2)))
        for p_g, p_k in [(self.p_g[None], self.p_k), (self.p_g, self.p_k), (self.p_g[None], pair)]:
            with pytest.raises(ValueError, match="two \\(J, P\\) stacks of one shape"):
                project(Divergence.W2SQ, p_g, p_k, [1.0])

    def test_from_lambda_rejects_negative(self, monkeypatch):
        # anywhere in the grid, before any arithmetic
        def refuse(*args):
            raise AssertionError("barycenter computed before every lambda was checked")

        monkeypatch.setattr(geometry, "_barycenter", refuse)
        for bad in (-0.5, -math.inf, math.nan):
            for at in (0, 2, 4):
                grid = [0.0, 1.0, 1e300, math.inf]
                grid.insert(at, bad)
                with pytest.raises(ValueError, match=f"lambda must be >= 0, got {bad}"):
                    project(Divergence.W2SQ, self.p_g[None], self.p_k[None], grid)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(projection_instances())
    def test_grid_rows_bit_equal_aggregate(self, instance):
        p_g, p_k, grid = instance
        pairs = {
            Divergence.W2SQ: AggregationMethod.W2B,
            Divergence.RKL: AggregationMethod.RKLB,
        }
        inner = [lam for lam in grid if 0.0 < lam < math.inf]
        # a block of J = 3 pairs: each row has the bits of its pair alone
        block = [(p_g, p_k), (p_k, p_g), (p_g, p_g)]
        stacks = [DiagGaussian(mean=np.stack([q[i].mean for q in block]),
                               var=np.stack([q[i].var for q in block])) for i in (0, 1)]
        for d, method in pairs.items():
            proj = project(d, *stacks, grid)
            mean, var = proj.mean, proj.var
            assert mean.shape == var.shape == (3, len(inner), p_g.dim)
            for j, (a, b) in enumerate(block):
                for l, lam in enumerate(inner):
                    ref = aggregate(method, [a, b], [1.0 / (lam + 1.0), lam / (lam + 1.0)])
                    assert mean[j, l].tobytes() == ref.mean.tobytes(), (d, j, lam)
                    assert var[j, l].tobytes() == ref.var.tobytes(), (d, j, lam)

    def test_variance_floor_per_row(self, caplog):
        # a tiny global variance is floored near lambda = 0 only; one warning
        # per grid counts the floored coordinates of every row
        p_g, p_k = g([0.0, 1.0], [1e-14, 1e-14]), g([0.5, -0.0], [1.0, 2.0])
        with caplog.at_level("WARNING"):
            ((low, high),) = project(Divergence.RKL, p_g[None], p_k[None], [1e-300, 1e300]).var
        assert np.array_equal(low, [VAR_FLOOR, VAR_FLOOR])
        assert high.tobytes() == aggregate(
            AggregationMethod.RKLB, [p_g, p_k], [1.0 / (1e300 + 1.0), 1e300 / (1e300 + 1.0)]
        ).var.tobytes()
        assert high.min() > VAR_FLOOR
        floors = [r.getMessage() for r in caplog.records if "variance floor" in r.getMessage()]
        assert floors == ["variance floor applied to 2 coordinate(s)"]


class TestProject:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_w2sq_worked_example(self):
        proj = project(Divergence.W2SQ, self.p_g[None], self.p_k[None], [1.0])
        assert proj.mean[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert proj.var[0, 0, 0] == pytest.approx(4.0, abs=1e-12)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_zero_is_global_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            # no row is computed: the path at lambda = 0 is p_g itself
            assert project(d, p_g[None], p_k[None], [0.0]).mean.shape == (1, 0, p_g.dim)
            (out,) = projection_path(d, p_g, p_k, [0.0])
            assert np.array_equal(out.mean, p_g.mean)
            assert np.array_equal(out.var, p_g.var)

    @settings(deadline=None)
    @given(POSTERIORS, POSTERIORS)
    def test_lambda_inf_is_local_bit_exact(self, p_g, p_k):
        for d in (Divergence.RKL, Divergence.W2SQ):
            assert project(d, p_g[None], p_k[None], [math.inf]).mean.shape == (1, 0, p_g.dim)
            (out,) = projection_path(d, p_g, p_k, [math.inf])
            assert np.array_equal(out.mean, p_k.mean)
            assert np.array_equal(out.var, p_k.var)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            project(Divergence.W2SQ, self.p_g[None], self.p_k[None], [-1.0])

    def test_rkl_matches_two_point_fusion(self):
        proj = project(Divergence.RKL, g(0.0, 1.0)[None], g(2.0, 1.0 / 3.0)[None], [1.0])
        assert proj.mean[0, 0, 0] == pytest.approx(1.5, abs=1e-12)
        assert proj.var[0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_along_grid(self):
        grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0, math.inf]
        for d in (Divergence.RKL, Divergence.W2SQ):
            assert geodesic_monotonicity(d, self.p_g, self.p_k, grid) == []


class TestNumericOracle:
    p_g = g(0.0, 1.0)
    p_k = g(4.0, 9.0)

    def test_radius_zero_returns_local(self):
        out = numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, 0.0)
        assert np.array_equal(out.mean, self.p_k.mean)

    def test_global_inside_ball_returns_global(self):
        r = projection_divergence(Divergence.W2SQ, self.p_g, self.p_k) + 1.0
        out = numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, r)
        assert np.array_equal(out.mean, self.p_g.mean)

    @pytest.mark.parametrize("d", [Divergence.RKL, Divergence.W2SQ])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
    def test_matches_closed_form(self, d, lam):
        assert projection_oracle_error(d, self.p_g, self.p_k, lam) < 2e-3

    def test_small_variance_instances(self):
        # tight posteriors stress the constrained search
        p_g, p_k = g(0.2739, 0.1163), g(-0.4604, 0.1002)
        for d in (Divergence.RKL, Divergence.W2SQ):
            for lam in (0.25, 1.0, 4.0):
                assert projection_oracle_error(d, p_g, p_k, lam) < 2e-3

    @pytest.mark.parametrize("d", [Divergence.RKL, Divergence.W2SQ])
    def test_candidate_on_sphere_between_sds(self, d):
        # p_g outside the sphere: the best candidate lies on it, its sd
        # between p_k's and p_g's
        rng = np.random.default_rng(5)
        for _ in range(20):
            p_g, p_k = random_instance(rng)
            radius = rng.uniform(0.05, 0.95) * projection_divergence(d, p_g, p_k)
            cand = numeric_projection_oracle(d, p_g, p_k, radius)
            gap = abs(projection_divergence(d, cand, p_k) - radius)
            assert gap <= 1e-9 * max(1.0, radius), (p_g, p_k, radius, gap)
            lo, hi = sorted((p_k.std[0], p_g.std[0]))
            assert lo <= cand.std[0] <= hi

    def test_rejects_multidim(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(
                Divergence.W2SQ, g([0.0, 0.0], [1.0, 1.0]), g([1.0, 1.0], [1.0, 1.0]), 1.0
            )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            numeric_projection_oracle(Divergence.W2SQ, self.p_g, self.p_k, -0.1)


def summed_divergence(d, mu, sd, coords) -> float:
    """D(N(mu, sd^2) || ref) summed over coordinates: ``checks.divergence`` of
    each coordinate against ``coords``, the reference's coordinates as 1-D
    posteriors."""
    return math.fsum(float(divergence(d, m, s, c)) for m, s, c in zip(mu, sd, coords))


def slsqp_projection(d, p_g, p_k, radius, rng):
    """(mean, sd) minimizing D(q || p_g) subject to D(q || p_k) <= radius over
    (mean, log sd) in R^{2P}: the best feasible SLSQP end point from p_k, p_g
    and a perturbed p_k."""
    dim = p_g.dim
    coords_g, coords_k = (list(DiagGaussian(mean=p.mean[:, None], var=p.var[:, None]))
                          for p in (p_g, p_k))

    def split(x):
        return x[:dim], np.exp(x[dim:])

    def slack(x):
        return radius - summed_divergence(d, *split(x), coords_k)

    starts = [np.concatenate([p.mean, np.log(p.std)]) for p in (p_k, p_g)]
    starts.append(starts[0] + rng.normal(scale=0.3, size=2 * dim))
    best = None
    for x0 in starts:
        res = minimize(lambda x: summed_divergence(d, *split(x), coords_g), x0, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": slack}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        if slack(res.x) >= -1e-12 and (best is None or res.fun < best.fun):
            best = res
    return split(best.x)


def oracle_gap(d, p_g, p_k, q, rng) -> float:
    """Largest |mean| or |sd| gap between q and the SLSQP projection at the
    radius q reaches."""
    mean, sd = slsqp_projection(d, p_g, p_k, projection_divergence(d, q, p_k), rng)
    return max(np.abs(mean - q.mean).max(), np.abs(sd - q.std).max())


class TestProjectionOracleInP:
    """In P dimensions the sphere constraint sums the divergence over
    coordinates, so one lambda must serve every coordinate; a 1-D oracle
    cannot see a per-coordinate radius or a lambda mis-shared across
    coordinates. An independent SLSQP oracle over R^{2P} can."""

    LAMBDAS = (0.25, 1.0, 4.0)

    @staticmethod
    def instances(count):
        """(p_g, p_k) pairs at P = 2, 3, 4 in turn: means in [-1, 1], sds in [0.3, 1.3]."""
        rng = np.random.default_rng(0)
        for i in range(count):
            dim = (2, 3, 4)[i % 3]
            yield tuple(g(rng.uniform(-1.0, 1.0, dim), rng.uniform(0.3, 1.3, dim) ** 2)
                        for _ in "gk")

    @pytest.mark.parametrize("d", list(Divergence))
    def test_project_solves_the_constrained_problem(self, d):
        rng = np.random.default_rng(1)
        for p_g, p_k in self.instances(6):
            path = project(d, p_g[None], p_k[None], self.LAMBDAS)[0]
            for q, lam in zip(path, self.LAMBDAS):
                assert oracle_gap(d, p_g, p_k, q, rng) <= 1e-6, (p_g.dim, lam)

    @pytest.mark.parametrize("d", list(Divergence))
    def test_mis_weighted_coordinate_detected(self, d):
        # coordinate 0 of the lambda = 1 projection taken at lambda = 4
        rng = np.random.default_rng(2)
        for p_g, p_k in self.instances(3):
            q, other = project(d, p_g[None], p_k[None], [1.0, 4.0])[0]
            mean, var = q.mean.copy(), q.var.copy()
            mean[0], var[0] = other.mean[0], other.var[0]
            assert oracle_gap(d, p_g, p_k, g(mean, var), rng) > 1e-3
