import math
from dataclasses import asdict

import numpy as np
import pytest

from pgsosp.errors import ConfigError, PreconditionError
from pgsosp.oracle import analytic_example1
from pgsosp.policy import RegularityConstants
from pgsosp.sosp import (
    Region,
    classify_values,
    cnc_enumerate,
    cnc_estimate,
    cnc_lower_bound,
    deviation_sigma,
    escape_budget,
    hessian_estimator_sigma,
    hessian_lipschitz_chi,
    iota_sq_floor,
    iteration_budget,
    paper_constants,
    prop3_step_size,
    report_from_grad_hessian,
    second_order_report,
    smoothness_ell,
    sym_eig_max,
    theorem_step_size,
    trap_budget,
)
from pgsosp.util import derive_rng
from formula_reference import trap_benchmark_alpha

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestEigMax:
    def test_exchange_matrix(self):
        lam, u = sym_eig_max(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, abs=1e-14)
        assert u == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-12)

    def test_diagonal(self):
        lam, u = sym_eig_max(np.diag([-2.0, 3.0]))
        assert lam == pytest.approx(3.0, abs=1e-14)
        assert u == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_example1_origin_hessian(self):
        lam, u = sym_eig_max(analytic_example1(np.zeros(2)).hessian)
        assert lam == pytest.approx(2.0 * INV_SQRT_2PI, abs=1e-14)
        assert u == pytest.approx([0.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(200))
    def test_residual_contract(self, seed):
        rng = derive_rng(seed, 51)
        p = int(rng.integers(2, 21))
        m = rng.standard_normal((p, p))
        h = (m + m.T) / 2.0
        lam, u = sym_eig_max(h)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-10
        assert np.abs(h @ u - lam * u).max() <= 1e-8 * max(1.0, abs(lam))
        # Sign convention: first sizable component is positive.
        lead = u[np.abs(u) > 1e-12][0]
        assert lead > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_two_by_two_characteristic_polynomial(self, seed):
        rng = derive_rng(seed, 52)
        a, b, c = rng.standard_normal(3)
        h = np.array([[a, b], [b, c]])
        lam, _ = sym_eig_max(h)
        expected = ((a + c) + math.sqrt((a - c) ** 2 + 4 * b * b)) / 2.0
        assert lam == pytest.approx(expected, abs=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            sym_eig_max(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            sym_eig_max(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestClassification:
    def test_example1_origin_is_saddle_region(self):
        res = analytic_example1(np.zeros(2))
        region = report_from_grad_hessian(res.grad, res.hessian, 0.1, 1.0).region
        assert region is Region.L2

    def test_example1_half_is_large_gradient(self):
        res = analytic_example1(np.array([0.5, 0.5]))
        region = report_from_grad_hessian(res.grad, res.hessian, 0.1, 1.0).region
        assert region is Region.L1

    def test_negative_definite_zero_gradient(self):
        region = report_from_grad_hessian(np.zeros(3), -np.eye(3), 0.5, 2.0).region
        assert region is Region.L3

    def test_boundaries_resolve_downward(self):
        # Ties land in the better region: exactly eps is not L1; exactly
        # sqrt(chi*eps) is not L2.
        assert classify_values(0.1, 10.0, 0.1, 1.0) is Region.L2
        assert classify_values(0.1 + 1e-12, 10.0, 0.1, 1.0) is Region.L1
        root = math.sqrt(0.1)
        assert classify_values(0.0, root, 0.1, 1.0) is Region.L3
        assert classify_values(0.0, root + 1e-12, 0.1, 1.0) is Region.L2

    @pytest.mark.parametrize("seed", range(50))
    def test_partition(self, seed):
        rng = derive_rng(seed, 53)
        gn = float(rng.uniform(0, 2))
        lam = float(rng.uniform(-2, 2))
        labels = [classify_values(gn, lam, 0.5, 1.0)]
        assert labels.count(labels[0]) == 1
        assert labels[0] in (Region.L1, Region.L2, Region.L3)

    def test_requires_positive_tolerances(self):
        with pytest.raises(ConfigError):
            classify_values(0.1, 0.1, 0.0, 1.0)


class TestSecondOrderReport:
    def test_example1_oracle_mode(self, example1):
        mdp, family = example1
        rep = second_order_report(mdp, family, np.zeros(2), 0.1, 1.0)
        assert rep.region is Region.L2
        assert rep.is_sosp is False
        assert rep.lambda_max == pytest.approx(2.0 * INV_SQRT_2PI, abs=1e-10)
        assert abs(np.linalg.norm(rep.u_p) - 1.0) <= 1e-10

    def test_strongly_concave_point_is_sosp(self):
        from pgsosp.sosp import report_from_grad_hessian

        rep = report_from_grad_hessian(np.zeros(2), -np.eye(2), 0.1, 1.0)
        assert rep.is_sosp is True
        assert rep.region is Region.L3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_gets_no_verdict(self, bad):
        from pgsosp.sosp import report_from_grad_hessian

        with pytest.raises(ConfigError, match="non-finite gradient"):
            report_from_grad_hessian(np.array([bad, 0.0]), -np.eye(2), 0.1, 1.0)

    def test_estimated_mode_matches_oracle_region(self, bandit, bandit_family):
        oracle = second_order_report(bandit, bandit_family, np.zeros(2),
                                     0.1, 1.0, mode="oracle")
        est = second_order_report(bandit, bandit_family, np.zeros(2),
                                  0.1, 1.0, mode="estimated", n=20_000, seed=3)
        assert est.region is oracle.region
        assert est.grad_std_error is not None

    def test_json_fields(self, example1):
        mdp, family = example1
        rep = second_order_report(mdp, family, np.zeros(2), 0.1, 1.0)
        payload = rep.to_json()
        assert payload["region"] == "L2"
        assert payload["is_sosp"] is False


def _reg(g, l, u=0.0, w=None):
    return RegularityConstants(G=g, L=l, U=u, W=w)


class TestConstants:
    def test_smoothness(self):
        assert smoothness_ell(1.0, 1.0, 1.0, 0.5, 2) == pytest.approx(12.0)

    def test_deviation(self):
        assert deviation_sigma(2.0, 3.0, 0.5) == pytest.approx(24.0)

    def test_hessian_lipschitz(self):
        chi = hessian_lipschitz_chi(1.0, 1.0, 1.0, 1.0, 0.5)
        assert chi == pytest.approx(62.0 / 3.0, abs=1e-12)

    def test_hessian_estimator_bound(self):
        val = hessian_estimator_sigma(1.0, 1.0, 1.0, 0.9, 5, 2)
        assert val == pytest.approx(1200.0 * math.sqrt(2.0), abs=1e-9)

    def test_paper_constants_derives_chi(self):
        pc = paper_constants(_reg(1.0, 1.0, w=1.0), r_min=1.0, r_max=1.0,
                             gamma=0.5, h=2, p=2)
        assert pc.chi_derived is True
        assert pc.chi == pytest.approx(62.0 / 3.0, abs=1e-12)
        assert pc.ell == pytest.approx(12.0)

    def test_paper_constants_needs_chi_or_w(self):
        with pytest.raises(ConfigError):
            paper_constants(_reg(1.0, 1.0), r_min=1.0, r_max=1.0,
                            gamma=0.5, h=2, p=2)

    def test_serialization_keys(self):
        pc = paper_constants(_reg(1.0, 1.0, w=1.0), r_min=1.0, r_max=1.0,
                             gamma=0.5, h=2, p=2, omega=0.5)
        payload = asdict(pc)
        for key in ("ell", "sigma", "chi", "sigma_h0", "omega", "iota"):
            assert key in payload

    @pytest.mark.parametrize("base", [(0.5, 0.5, 1.0, 0.5), (1.0, 2.0, 3.0, 0.7)])
    def test_monotonicity(self, base):
        g, l, r, gamma = base
        for fn in (lambda gg, ll, rr, mm: smoothness_ell(gg, ll, rr, mm, 3),
                   lambda gg, ll, rr, mm: deviation_sigma(gg, rr, mm),
                   lambda gg, ll, rr, mm: hessian_estimator_sigma(gg, ll, rr, mm, 3, 2),
                   lambda gg, ll, rr, mm: hessian_lipschitz_chi(gg, ll, 1.0, rr, mm)):
            v0 = fn(g, l, r, gamma)
            assert fn(g * 1.5, l, r, gamma) >= v0
            assert fn(g, l * 1.5, r, gamma) >= v0
            assert fn(g, l, r * 1.5, gamma) >= v0
            assert fn(g, l, r, gamma + 0.2) > v0


class TestStepSizesAndBudgets:
    def test_theorem_step_size_example(self):
        alpha = theorem_step_size(0.1, 1.0, 1.0, 1.0, 10.0, 12.0)
        first = 0.1 ** 2 / (2.0 * math.sqrt(0.1))
        second = 2.0 * 0.1 ** 2 / ((0.1 ** 2 + 100.0) * 12.0)
        assert first == pytest.approx(0.0158114, abs=1e-7)
        assert alpha == second
        assert f"{alpha:.5e}" == "1.66650e-05"

    def test_theorem_step_size_sigma_zero(self):
        alpha = theorem_step_size(0.1, 1.0, 1.0, 1.0, 0.0, 12.0)
        assert alpha == min(0.1 ** 2 / (2.0 * math.sqrt(0.1)), 2.0 / 12.0)

    def test_doubling_ell_halves_second_branch(self):
        a1 = theorem_step_size(0.1, 1.0, 1.0, 1.0, 10.0, 12.0)
        a2 = theorem_step_size(0.1, 1.0, 1.0, 1.0, 10.0, 24.0)
        assert a2 == a1 / 2.0

    def test_theorem_step_size_validation(self):
        with pytest.raises(ConfigError):
            theorem_step_size(0.1, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_iteration_budget_example(self):
        k = iteration_budget(0.01, 1.0, 0.5, 1.0, 1.0, 1.0, 0.1)
        assert k == 276312
        # Recompute independently from the closed form.
        raw = 6.0 / (0.01 ** 2 * 0.5) * math.log(10.0)
        assert k == math.ceil(raw) + 1

    def test_iteration_budget_near_delta_one(self):
        # The pre-ceiling value tends to zero; at exactly delta = 1 the
        # formula would give ceil(0) + 1 = 1, and any admissible delta < 1
        # yields ceil(positive) + 1 = 2.
        assert iteration_budget(0.01, 1.0, 0.5, 1.0, 1.0, 1.0, 1 - 1e-12) == 2

    def test_iteration_budget_alpha_scaling(self):
        k1 = iteration_budget(0.25, 1.0, 0.5, 1.0, 1.0, 1.0, 0.1)
        k2 = iteration_budget(0.125, 1.0, 0.5, 1.0, 1.0, 1.0, 0.1)
        raw1 = 6.0 / (0.25 ** 2 * 0.5) * math.log(10.0)
        assert k2 - 1 == math.ceil(4.0 * raw1)

    def test_escape_budget_example(self):
        assert escape_budget(1e-4, 10.0, 1.0, 1.0) == 1053

    def test_escape_budget_precondition(self):
        with pytest.raises(PreconditionError, match="sigma_H0"):
            escape_budget(0.02, 10.0, 1.0, 1.0)

    def test_escape_budget_vanishing_numerator(self):
        # As the Hessian-estimator bound shrinks with the step term fixed,
        # the budget collapses to zero.
        assert escape_budget(1e-4, 1e-6, 1.0, 1.0) == 0

    def test_escape_budget_rate(self):
        # kappa scales like alpha^(-1/2).
        k1 = escape_budget(1e-4, 10.0, 1.0, 1.0)
        k2 = escape_budget(2.5e-5, 10.0, 1.0, 1.0)
        assert abs(k1 / k2 - 0.5) <= 0.05

    def test_trap_budget_example(self):
        assert trap_budget(0.1, 0.1) == 230

    def test_trap_budget_limits(self):
        assert trap_budget(10.0, 0.5) == 0
        assert trap_budget(0.1, 1 - 1e-12) == 0

    def test_prop3_step_size_example(self):
        # G = r_max = 1, gamma = 0.5: the gradient bound is 2, squared 4.
        # The log cap binds below delta = 0.1, and alpha is its largest root.
        alpha = prop3_step_size(0.1, 1.0, 1.0, 1.0, 1.0, 4.0)
        rhs = 2.0 / (27.0 * (4.0 + 1.0 + 1.0) ** 2)
        assert 0.0 < alpha < 0.1
        assert alpha * math.log(1.0 / alpha) <= rhs
        above = alpha * (1.0 + 1e-9)
        assert above * math.log(1.0 / above) > rhs

    def test_prop3_zeta_over_ell_sq_binding(self):
        # A relaxation that lifts the log cap leaves min{..., zeta/ell^2}.
        assert prop3_step_size(0.2, 2.0, 4.0, 1.0, 1.0, 4.0, relaxation=1e3) == 0.125

    def test_prop3_noise_term_vanishes_without_noise(self):
        # At sigma = 0 the zeta varrho^2 / (3 sigma^2) term is +inf.
        assert prop3_step_size(0.3, 1.0, 1.0, 1.0, 0.0, 0.0, relaxation=1e3) == 0.3
        assert prop3_step_size(0.3, 1.0, 1.0, 0.1, 1.0, 0.0, relaxation=1e6) \
            == pytest.approx(1.0 / 300.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(delta=1.0), "delta must be in"),
        (dict(varrho=0.0), "varrho: must be positive, got 0.0"),
        (dict(zeta=0.0), "prop3_step_size: inputs"),
        (dict(ell=-1.0), "prop3_step_size: inputs"),
        (dict(sigma=-0.1), "prop3_step_size: inputs"),
        (dict(grad_bound_sq=-1.0), "prop3_step_size: inputs"),
    ])
    def test_prop3_rejects_inputs(self, kwargs, match):
        args = dict(delta=0.2, zeta=1.0, ell=1.0, varrho=1.0, sigma=0.3,
                    grad_bound_sq=1.69)
        with pytest.raises(ConfigError, match=match):
            prop3_step_size(**{**args, **kwargs})

    def test_trap_rule_matches_the_earlier_trap_copy_bit_for_bit(self):
        # The trap benchmark's own copy of the rule, kept as it was, over a
        # grid with sigma = 0 and relaxations != 1; the three relaxations
        # that raise raise the same error text from both.
        grid = [(zeta, varrho, sigma, delta, relaxation)
                for zeta in (0.05, 0.5, 1.0, 3.0, 40.0)
                for varrho in (0.01, 0.3, 1.0, 5.0)
                for sigma in (0.0, 0.01, 0.3, 2.0)
                for delta in (1e-6, 0.05, 0.2, 0.9)
                for relaxation in (1.0, 1e-3, 0.5, 2.0, 1e4, 0.0, -1.0, 1e-30)]
        raised = 0
        for zeta, varrho, sigma, delta, relaxation in grid:
            try:
                want = trap_benchmark_alpha(zeta, varrho, sigma, delta, relaxation)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    prop3_step_size(delta, zeta, zeta, varrho, sigma,
                                    (zeta * varrho + sigma) ** 2, relaxation)
                assert str(got.value) == str(exc)
                raised += 1
                continue
            got = prop3_step_size(delta, zeta, zeta, varrho, sigma,
                                  (zeta * varrho + sigma) ** 2, relaxation)
            assert got == want, (zeta, varrho, sigma, delta, relaxation)
        assert 3 * 320 <= raised < len(grid)


class TestCnc:
    def test_bandit_enumeration_closed_form(self, bandit, bandit_family):
        u = np.array([1.0, -1.0]) / math.sqrt(2.0)
        val = cnc_enumerate(bandit, bandit_family, np.zeros(2), u)
        assert abs(val - 0.25) <= 1e-12

    def test_orthogonal_direction_zero(self):
        from pgsosp.mdp import TabularMdp
        from pgsosp.policy import TabularSoftmax

        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=2, r_min=1.0, r_max=1.0)
        val = cnc_enumerate(mdp, TabularSoftmax(1, 1), np.zeros(1),
                            np.array([1.0]))
        assert val == 0.0

    def test_example1_near_origin_positive(self, example1):
        mdp, family = example1
        theta = np.array([0.01, 0.01])
        u = np.array([0.0, 1.0])
        mean, se = cnc_estimate(mdp, family, theta, u, 10_000, seed=5)
        assert mean - 3.0 * se > 0.0

    def test_mc_agrees_with_enumeration(self, bandit, bandit_family):
        u = np.array([1.0, -1.0]) / math.sqrt(2.0)
        mean, se = cnc_estimate(bandit, bandit_family, np.zeros(2), u,
                                50_000, seed=6)
        assert abs(mean - 0.25) <= 3.0 * se + 1e-12

    def test_unit_vector_required(self, bandit, bandit_family):
        with pytest.raises(ConfigError):
            cnc_estimate(bandit, bandit_family, np.zeros(2),
                         np.array([1.0, 1.0]), 10, seed=0)

    def test_lower_bound_report(self, example1):
        mdp, family = example1
        rep = cnc_lower_bound(mdp, family, np.array([0.2, 0.2]), omega=0.05)
        base = mdp.r_min ** 2 * mdp.horizon * 0.05 / (1.0 - mdp.gamma) ** 2
        assert rep.iota_sq <= base + 1e-15
        assert np.isfinite(rep.c0)
        payload = asdict(rep)
        assert set(payload) == {"iota_sq", "c0", "lambda_p", "h0_op_norm",
                                "omega"}


class TestEmpiricalIota:
    def test_floor_applies(self):
        from pgsosp.mdp import TabularMdp
        from pgsosp.policy import TabularSoftmax

        mdp = TabularMdp(n_states=1, n_actions=1, transition=np.ones((1, 1, 1)),
                         reward=np.ones((1, 1)), rho0=np.array([1.0]),
                         gamma=0.5, horizon=2, r_min=1.0, r_max=1.0)
        val = iota_sq_floor(*cnc_estimate(mdp, TabularSoftmax(1, 1), np.zeros(1),
                                          np.array([1.0]), n=100, seed=0))
        assert val == 1e-6  # all projections are zero; the floor holds

    def test_positive_case_exceeds_floor(self, bandit, bandit_family):
        u = np.array([1.0, -1.0]) / math.sqrt(2.0)
        val = iota_sq_floor(*cnc_estimate(bandit, bandit_family, np.zeros(2), u,
                                          n=20_000, seed=1))
        assert 0.2 < val < 0.3  # around the exact 0.25
