import itertools
import math

import numpy as np
import pytest

from pgsosp.errors import ConfigError, PolicyDomainError
from pgsosp.policy import (
    LEFT,
    RIGHT,
    ExampleOnePiecewise,
    TabularSoftmax,
    estimate_regularity,
    make_family,
)
from pgsosp.util import derive_rng

from formula_reference import ExampleOneTables

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestSoftmaxProbs:
    def test_uniform_at_zero(self):
        fam = TabularSoftmax(2, 3)
        for s in range(2):
            assert fam.action_probs(np.zeros(6), s) == pytest.approx([1 / 3] * 3)

    def test_log3_logits(self):
        fam = TabularSoftmax(1, 2)
        probs = fam.action_probs(np.array([math.log(3.0), 0.0]), 0)
        assert probs == pytest.approx([0.75, 0.25], abs=1e-14)

    def test_normalized(self):
        fam = TabularSoftmax(2, 4)
        rng = derive_rng(0, 1)
        for _ in range(20):
            theta = rng.uniform(-5, 5, 8)
            for s in range(2):
                probs = fam.action_probs(theta, s)
                assert probs.min() >= 0.0
                assert abs(probs.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        fam = TabularSoftmax(2, 3)
        rng = derive_rng(0, 2)
        theta = rng.uniform(-2, 2, 6)
        shifted = theta.copy()
        shifted[0:3] += 7.5
        assert np.abs(fam.action_probs(theta, 0)
                      - fam.action_probs(shifted, 0)).max() <= 1e-12


class TestScores:
    def test_softmax_uniform_block(self):
        fam = TabularSoftmax(1, 2)
        g = fam.grad_log_prob(np.zeros(2), 0, 0)
        assert g == pytest.approx([0.5, -0.5], abs=1e-14)

    @pytest.mark.parametrize("seed", range(100))
    def test_score_identity(self, seed):
        rng = derive_rng(seed, 3)
        fam = TabularSoftmax(2, 3)
        theta = rng.uniform(-3, 3, 6)
        s = int(rng.integers(0, 2))
        probs = fam.action_probs(theta, s)
        total = sum(probs[a] * fam.grad_log_prob(theta, s, a) for a in range(3))
        assert np.abs(total).max() <= 1e-10

    def test_example1_score_at_half(self):
        fam = ExampleOnePiecewise()
        g = fam.grad_log_prob(np.array([0.5, 0.5]), 0, 0)
        assert g == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_zero_probability_action_rejected(self):
        fam = ExampleOnePiecewise()
        with pytest.raises(PolicyDomainError):
            fam.grad_log_prob(np.array([0.5, 0.5]), 0, 1)  # `left` is off in box

    def test_example1_score_identity(self):
        fam = ExampleOnePiecewise()
        rng = derive_rng(0, 4)
        for _ in range(50):
            theta = rng.uniform(-0.9, 0.9, 2)
            probs = fam.action_probs(theta, 0)
            total = np.zeros(2)
            for a in range(3):
                if probs[a] > 0:
                    total += probs[a] * fam.grad_log_prob(theta, 0, a)
            assert np.abs(total).max() <= 1e-10


class TestHessians:
    def test_softmax_uniform_block(self):
        fam = TabularSoftmax(1, 2)
        h = fam.hessian_log_prob(np.zeros(2), 0, 0)
        assert h == pytest.approx(np.array([[-0.25, 0.25], [0.25, -0.25]]), abs=1e-14)

    def test_single_action_zero(self):
        fam = TabularSoftmax(1, 1)
        assert np.array_equal(fam.hessian_log_prob(np.zeros(1), 0, 0),
                              np.zeros((1, 1)))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_finite_differences(self, seed):
        # Central differences of the analytic score at step 1e-5.
        rng = derive_rng(seed, 5)
        if seed % 2 == 0:
            fam = TabularSoftmax(2, 2)
            theta = rng.uniform(-2, 2, 4)
            s = int(rng.integers(0, 2))
            probs = fam.action_probs(theta, s)
            a = int(rng.integers(0, 2))
        else:
            fam = ExampleOnePiecewise()
            theta = rng.uniform(0.05, 0.8, 2) if seed % 4 == 1 \
                else rng.uniform(-0.85, -0.05, 2)
            s = 0
            probs = fam.action_probs(theta, s)
            a = int(rng.choice(np.flatnonzero(probs > 0)))
        step = 1e-5
        h_exact = fam.hessian_log_prob(theta, s, a)
        assert np.abs(h_exact - h_exact.T).max() <= 1e-12
        p = theta.size
        h_fd = np.zeros((p, p))
        for j in range(p):
            bump = np.zeros(p)
            bump[j] = step
            h_fd[:, j] = (fam.grad_log_prob(theta + bump, s, a)
                          - fam.grad_log_prob(theta - bump, s, a)) / (2 * step)
        # Absolute tolerance scaled by the curvature magnitude: truncation
        # error of central differences grows with the higher derivatives.
        tol = 1e-6 * max(1.0, float(np.abs(h_exact).max()))
        assert np.abs(h_exact - h_fd).max() <= tol


class TestExampleOneFamily:
    def test_origin_probs(self):
        fam = ExampleOnePiecewise()
        probs = fam.action_probs(np.zeros(2), 0)
        assert probs[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        assert probs[1] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_absorbing_states_point_mass(self):
        fam = ExampleOnePiecewise()
        assert np.array_equal(fam.action_probs(np.zeros(2), 1), [1.0, 0.0, 0.0])
        assert np.array_equal(fam.action_probs(np.zeros(2), 2), [0.0, 1.0, 0.0])
        assert np.array_equal(fam.grad_log_prob(np.zeros(2), 1, 0), np.zeros(2))

    def test_boundary_uses_box_branch(self):
        fam = ExampleOnePiecewise()
        on_boundary = fam.action_probs(np.array([1.0, 1.0]), 0)
        assert on_boundary[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        just_outside = fam.action_probs(np.array([1.0 + 1e-9, 1.0]), 0)
        assert just_outside[0] == 0.0
        assert just_outside[1] > 0.0

    def test_domain_error_far_from_box(self):
        fam = ExampleOnePiecewise()
        with pytest.raises(PolicyDomainError, match="theta"):
            fam.action_probs(np.array([2.0, 1.5]), 0)

    def test_gaussian_branch_score(self):
        fam = ExampleOnePiecewise()
        theta = np.array([-0.5, 0.5])
        g = fam.grad_log_prob(theta, 0, 1)
        assert g == pytest.approx(theta, abs=1e-14)


class TestRegularity:
    def test_softmax_score_bound(self):
        fam = TabularSoftmax(1, 2)
        reg = estimate_regularity(fam, [(-2, 2), (-2, 2)], 9)
        assert 0.0 < reg.G <= 1.0 + 1e-12

    def test_single_action_all_zero(self):
        fam = TabularSoftmax(2, 1)
        reg = estimate_regularity(fam, [(-1, 1), (-1, 1)], 5)
        assert reg.G == 0.0 and reg.L == 0.0 and reg.U == 0.0

    def test_example1_prob_derivative_max(self):
        # max |d_i pi| on the unit box is 2/sqrt(2*pi), attained at the edge.
        fam = ExampleOnePiecewise()
        reg = estimate_regularity(fam, [(0, 1), (0, 1)], 21)
        assert reg.U == pytest.approx(2.0 * INV_SQRT_2PI, abs=1e-12)

    def test_w_estimated_when_requested(self):
        fam = TabularSoftmax(1, 2)
        reg = estimate_regularity(fam, [(-1, 1), (-1, 1)], 7)
        assert reg.W is not None and reg.W >= 0.0

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigError):
            estimate_regularity(TabularSoftmax(1, 2), [(0, 1), (1, 0)], 5)


class TestPolicyParams:
    def test_make_family(self):
        fam = make_family("tabular_softmax", 2, 3)
        assert fam.param_dim == 6
        assert make_family("example_one").param_dim == 2
        with pytest.raises(ConfigError):
            make_family("gaussian")


def _central_dprobs(fam, theta, step=1e-6):
    out = np.zeros(fam.dprobs(theta).shape)
    for j in range(theta.size):
        bump = np.zeros(theta.size)
        bump[j] = step
        out[..., j] = (fam.probs(theta + bump) - fam.probs(theta - bump)) / (2 * step)
    return out


class TestTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_softmax_dprobs_match_central_differences(self, seed):
        fam = TabularSoftmax(3, 4)
        theta = derive_rng(seed, 6).uniform(-2, 2, fam.param_dim)
        assert np.abs(fam.dprobs(theta) - _central_dprobs(fam, theta)).max() <= 1e-8

    @pytest.mark.parametrize("theta", [(0.3, 0.6), (0.7, 0.1), (-0.5, 0.5),
                                       (1.3, 0.2), (-0.4, -0.9)])
    def test_example1_dprobs_match_central_differences(self, theta):
        # In the unit box (first two) and outside it, away from its edge.
        fam = ExampleOnePiecewise()
        theta = np.array(theta)
        assert np.abs(fam.dprobs(theta) - _central_dprobs(fam, theta)).max() <= 1e-8

    def test_softmax_zero_probability_rows_are_zero(self):
        fam = TabularSoftmax(1, 2)
        theta = np.array([800.0, 0.0])  # pi(1|0) underflows to an exact zero
        assert fam.probs(theta)[0, 1] == 0.0
        assert not fam.score(theta)[0, 1].any()
        assert not fam.hess(theta)[0, 1].any()

    def test_example1_zero_probability_rows_are_zero(self):
        fam = ExampleOnePiecewise()
        theta = np.array([0.5, 0.5])  # `left` is off in the box
        assert fam.probs(theta)[0, LEFT] == 0.0
        assert not fam.score(theta)[0, LEFT].any()
        assert not fam.hess(theta)[0, LEFT].any()
        assert fam.score(theta)[0, RIGHT].any()

    def test_example1_tables_raise_outside_the_domain(self):
        fam = ExampleOnePiecewise()
        for table in (fam.probs, fam.score, fam.hess):
            with pytest.raises(PolicyDomainError, match="leave"):
                table(np.array([2.0, 1.5]))


def _regularity_by_points(family, box, grid_density):
    """Per-point reference: a try per state, one spectral norm per pair."""
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in box]
    g = l = u = 0.0
    hess = {}
    indices = list(itertools.product(range(grid_density), repeat=len(box)))
    for idx in indices:
        theta = np.array([axes[d][i] for d, i in enumerate(idx)])
        hess[idx] = {}
        for s in range(family.n_states):
            try:
                probs = family.action_probs(theta, s)
            except PolicyDomainError:
                continue
            u = max(u, float(np.abs(family.grad_prob(theta, s)).max()))
            for a in np.flatnonzero(probs > 0.0):
                g = max(g, float(np.abs(family.grad_log_prob(theta, s, a)).max()))
                h = family.hessian_log_prob(theta, s, a)
                l = max(l, float(np.abs(h).max()))
                hess[idx][(s, a)] = h
    w = 0.0
    for idx in indices:
        for axis in range(len(box)):
            if idx[axis] + 1 >= grid_density:
                continue
            step = float(axes[axis][idx[axis] + 1] - axes[axis][idx[axis]])
            if step <= 0.0:
                continue
            other = hess[tuple(i + (d == axis) for d, i in enumerate(idx))]
            for key, h in hess[idx].items():
                if key in other:
                    w = max(w, float(np.linalg.norm(other[key] - h, 2) / step))
    return g, l, u, w


# (family, box, grid density) cases of the regularity grid tests.
REGULARITY_GRIDS = [
    (TabularSoftmax(2, 2), [(-1.0, 1.0)] * 4, 6),
    (TabularSoftmax(1, 2), [(-2.0, 2.0)] * 2, 9),
    (ExampleOnePiecewise(), [(-2.0, 2.0)] * 2, 9),
    (ExampleOnePiecewise(), [(-3.0, 3.0), (0.5, 0.5)], 11),
]


class TestRegularityGrid:
    @pytest.mark.parametrize("family, box, grid", REGULARITY_GRIDS)
    def test_equals_the_per_point_loop(self, family, box, grid):
        reg = estimate_regularity(family, box, grid)
        assert (reg.G, reg.L, reg.U, reg.W) == _regularity_by_points(family, box, grid)


TABLES = ("probs", "dprobs", "score", "hess")


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestBlockTables:
    @pytest.mark.parametrize("n_s, n_a", [(1, 2), (3, 2), (2, 3), (2, 9)])
    def test_softmax_blocks_equal_per_point_tables(self, n_s, n_a):
        fam = TabularSoftmax(n_s, n_a)
        rng = derive_rng(n_s * 10 + n_a, 60)
        thetas = rng.uniform(-3, 3, (2, 3, fam.param_dim))
        thetas[0, 1, 0] = 800.0   # the rest of state 0's block underflows
        thetas[1, 2, -1] = -800.0  # the last action underflows
        assert (fam.probs(thetas[0, 1]) == 0.0).any()
        assert (fam.probs(thetas[1, 2]) == 0.0).any()
        for table in TABLES:
            method = getattr(fam, table)
            for block in (thetas, thetas.reshape(6, fam.param_dim)):
                got = method(block)
                for idx in np.ndindex(block.shape[:-1]):
                    assert same_bits(got[idx], method(block[idx])), (table, idx)

    def test_example1_blocks_equal_per_point_tables(self):
        fam = ExampleOnePiecewise()
        thetas = derive_rng(1, 61).uniform(-1.2, 1.2, (4, 5, 2))
        thetas[0, 0] = [0.5, 0.5]   # in the box: `left` has probability 0
        thetas[0, 1] = [1.0, 1.0]   # the box corner
        for table in TABLES:
            method = getattr(fam, table)
            for block in (thetas, thetas.reshape(20, 2)):
                got = method(block)
                for idx in np.ndindex(block.shape[:-1]):
                    assert same_bits(got[idx], method(block[idx])), (table, idx)

    def test_example1_block_with_one_point_outside_raises(self):
        fam = ExampleOnePiecewise()
        block = np.array([[0.5, 0.5], [0.2, 1.5], [2.0, 1.5], [1.5, 0.0]])
        assert fam.in_domain(block).tolist() == [True, True, False, True]
        for table in (fam.probs, fam.score, fam.hess):
            with pytest.raises(PolicyDomainError, match="leave"):
                table(block)
            table(block[[0, 1, 3]])

    def test_example1_tables_equal_the_per_method_branches(self):
        """Every table, the domain mask and every raised error are those of
        the earlier form that picked the branch in each method."""
        new, old = ExampleOnePiecewise(), ExampleOneTables()
        up = np.nextafter(1.0, 2.0)
        # The box edges and just past them, theta = (1, 0) where p(right) = 0,
        # the outside branch inside and beyond the domain (|theta|^2 > 3.84).
        axis = [-2.0, -1.0, -up, -0.0, 0.0, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0,
                up, 1.3, 1.5, 1.9598, 2.0, 2.5]
        points = np.array(list(itertools.product(axis, axis)))
        assert new.probs(np.array([1.0, 0.0]))[0, RIGHT] == 0.0
        assert not new.in_domain(points).all() and new.in_domain(points).any()

        def answer(table, theta):
            try:
                got = table(theta)
            except PolicyDomainError as exc:
                return str(exc)
            return type(got), np.asarray(got).dtype, np.shape(got), \
                np.asarray(got).tobytes()

        inside = points[old.in_domain(points)]
        blocks = list(points) + [inside, inside[:24].reshape(2, 3, 4, 2),
                                 points[:12].reshape(3, 4, 2)]
        for table in TABLES + ("in_domain",):
            for theta in blocks:
                assert answer(getattr(new, table), theta) == \
                    answer(getattr(old, table), theta), (table, theta.tolist())

    @pytest.mark.parametrize("family, box, grid", REGULARITY_GRIDS)
    def test_domain_mask_is_where_probs_answers(self, family, box, grid):
        axes = [np.linspace(lo, hi, grid) for lo, hi in box]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        mask = family.in_domain(points)
        assert mask.shape == points.shape[:-1]
        for idx in np.ndindex(mask.shape):
            try:
                family.probs(points[idx])
                answers = True
            except PolicyDomainError:
                answers = False
            assert bool(mask[idx]) is answers
            assert bool(family.in_domain(points[idx])) is answers


class TestRegularityGridCap:
    def test_entries_above_the_cap_are_rejected(self, monkeypatch):
        # Softmax S2 A2: p = 4 and 4 * (4 + 1)^2 = 100 table entries per
        # point; 3^4 points fill a cap of 8100 exactly, 4^4 exceed it.
        from pgsosp import policy
        monkeypatch.setattr(policy, "GRID_ENTRY_CAP", 8100)
        fam = TabularSoftmax(2, 2)
        estimate_regularity(fam, [(-1.0, 1.0)] * 4, 3)
        with pytest.raises(ConfigError, match=r"estimate\.grid: 4 .* 256 grid points"):
            estimate_regularity(fam, [(-1.0, 1.0)] * 4, 4)


class TestTracerHooks:
    def test_instrument_restores_the_family_methods(self, monkeypatch):
        # The benchmark's tracer rebinds these four methods from each
        # family's own __dict__; a missing one fails only in traced runs.
        import importlib.util
        import pathlib
        import sys

        import pgsosp.cli  # noqa: F401  (the tracer instruments loaded modules)

        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("pgsosp_bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)

        queries = ("action_probs", "grad_prob", "grad_log_prob", "hessian_log_prob")
        families = (TabularSoftmax, ExampleOnePiecewise)
        before = {(cls, m): cls.__dict__[m] for cls in families for m in queries}
        trace = tracer.Tracer()
        restore = tracer.instrument(trace)
        try:
            assert all(cls.__dict__[m] is not before[cls, m] for cls, m in before)
            TabularSoftmax(1, 2).action_probs(np.zeros(2), 0)
        finally:
            restore()
        assert trace.total(tracer.CALLS, "policy.TabularSoftmax.action_probs") == 1
        assert all(cls.__dict__[m] is before[cls, m] for cls, m in before)
