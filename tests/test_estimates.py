import math

import pytest

from mouldnf import Observable, normalize
from mouldnf.alphabet import diophantine_alpha
from mouldnf.liealg import apply_exp_ad, contract
from mouldnf.observables import norm_rho
from mouldnf.solver import MouldSolver
from mouldnf.estimates import (
    BoundReport,
    generator_majorant,
    exp_tail_constant,
    gap_constant,
    growth_prefactors,
    default_eta,
    norm_power_constants,
    smallness_and_remainder_constants,
    fit_growth_constants,
    power_exponential_bound,
    verify_remainder_bound,
    verify_semiclassical,
)

from oracles import weighted_tuple_sum


class TestPowerExponentialBound:
    def test_extremal_point_holds_with_slack(self):
        # x = (tau/eta)^tau is the maximizer; equality there
        rep = power_exponential_bound(1.0, 1.0, 1.0)
        assert rep.lhs == pytest.approx(rep.rhs)
        assert rep.holds

    def test_interior_point_strict(self):
        rep = power_exponential_bound(0.5, 1.0, 1.0)
        assert rep.lhs < rep.rhs
        assert rep.holds

    def test_small_x(self):
        assert power_exponential_bound(1e-9, 2.0, 0.7).holds

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_exponential_bound(0.0, 1.0, 1.0)


class TestGrowthPrefactors:
    def test_r1_exponent_vanishes_for_f(self):
        f_pre, g_pre = growth_prefactors(1, 1.0, 0.5, 2.0, 3.0)
        assert f_pre == pytest.approx(2.0)
        assert g_pre == pytest.approx(3.0 * (1.0 / (math.e * 0.5)))

    def test_r2_unit_parameters(self):
        f_pre, g_pre = growth_prefactors(2, 1.0, 1.0, 5.0, 7.0)
        assert f_pre == pytest.approx(5.0 / math.e)
        assert g_pre == pytest.approx(7.0 / math.e ** 2)

    def test_monotone_in_r_when_base_above_one(self):
        prev = 0.0
        for r in range(1, 5):
            f_pre, _ = growth_prefactors(r, 1.0, 0.1, 1.0, 1.0)  # tau/(e eta) > 1
            assert f_pre >= prev
            prev = f_pre


class TestGeneratorMajorant:
    def test_single_term(self):
        val = generator_majorant(1, 0.5, 1.0, [1.0], [0.5], [2.0], [0.3])
        assert val == pytest.approx(2.0 * (1.0 / (math.e * 0.5)) ** 1 * 0.3)

    def test_additive_in_N(self):
        args = ([1.0, 1.0], [0.5, 0.25], [2.0, 1.0], [0.3, 0.1])
        e1 = generator_majorant(1, 0.5, 1.0, *args)
        e2 = generator_majorant(2, 0.5, 1.0, *args)
        term2 = math.factorial(1) / 2 * (1.0 / 0.25) * 1.0 * (1.0 / (math.e * 0.25)) ** 2 * 0.1
        assert e2 == pytest.approx(e1 + term2)

    def test_monotone_in_N(self):
        args = ([1.0] * 4, [0.5, 0.25, 0.125, 0.0625], [1.0] * 4, [0.1] * 4)
        vals = [generator_majorant(N, 0.5, 1.0, *args) for N in (1, 2, 3, 4)]
        assert vals == sorted(vals)

    def test_list_too_short(self):
        with pytest.raises(ValueError):
            generator_majorant(3, 0.5, 1.0, [1.0], [0.5], [1.0], [0.1])


class TestExpTailConstant:
    def test_plugin_formula(self):
        chi = lambda delta: 1.0 / (math.e * delta)
        val = exp_tail_constant(2, 1.0, 0.5, 1.0, chi, 0.01)
        delta = 0.5
        expected = 2.0 * (delta ** 2 / (4.0 * chi(delta / 2)) + 0.01) * (4.0 / delta ** 2) ** 3
        assert val == pytest.approx(expected)

    def test_zero_norm_limit(self):
        chi = lambda delta: 1.0 / (math.e * delta)
        base = exp_tail_constant(1, 1.0, 0.5, 1.0, chi, 0.0)
        assert base == pytest.approx(2.0 * (0.25 * math.e * 0.25 / 4.0) * 16 ** 2, rel=1e-9)
        assert base == pytest.approx(21.74625462767236, rel=1e-12)

    def test_geometric_in_N(self):
        chi = lambda delta: 1.0 / (math.e * delta)
        v2 = exp_tail_constant(2, 1.0, 0.5, 1.0, chi, 0.01)
        v1 = exp_tail_constant(1, 1.0, 0.5, 1.0, chi, 0.01)
        assert v2 / v1 == pytest.approx(4.0 / 0.5 ** 2)


class TestThresholdAndConstant:
    def test_N1_closed_form(self):
        eta1 = 0.5
        eps, D = smallness_and_remainder_constants(1, 1.0, 0.5, 1.0, 1.0, eta1, eta1 / 2, 0.01)
        delta = 0.5
        head = (2.0 * 1.0 / (math.e * eta1)) ** 1
        assert eps == pytest.approx(delta ** 2 / (32.0 * head))
        chi = lambda dd: 1.0 / (math.e * dd)
        expected_D = exp_tail_constant(1, 1.0, 0.5, 1.0, chi, 0.01) * (4.0 * head) ** 2 + (
            2.0 / (math.e * (eta1 / 2))
        ) ** 1
        assert D == pytest.approx(expected_D)

    def test_eps_star_decreasing_in_N(self):
        vals = []
        for N in (1, 2, 3, 4):
            eta_1n = min(default_eta(1.0, 1.0, 1.0, r) for r in range(1, N + 1))
            eta_nn2 = min(default_eta(1.0, 1.0, 1.0, r) for r in range(N + 1, N * N + 1)) if N > 1 else eta_1n / 2
            eps, _ = smallness_and_remainder_constants(N, 1.0, 0.5, 1.0, 1.0, eta_1n, eta_nn2, 0.01)
            vals.append(eps)
        assert vals == sorted(vals, reverse=True)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_D_positive_and_increasing_in_N(self):
        vals = []
        for N in (1, 2, 3):
            eta_1n = min(default_eta(1.0, 1.0, 1.0, r) for r in range(1, N + 1))
            eta_nn2 = (
                min(default_eta(1.0, 1.0, 1.0, r) for r in range(N + 1, N * N + 1))
                if N > 1
                else eta_1n / 2
            )
            _, D = smallness_and_remainder_constants(N, 1.0, 0.5, 1.0, 1.0, eta_1n, eta_nn2, 0.01)
            assert D > 0
            vals.append(D)
        assert vals == sorted(vals)

    def test_golden_regression_value(self):
        # frozen once from a direct evaluation of the closed forms
        eps, D = smallness_and_remainder_constants(2, 1.0, 0.5, 1.0, 1.0, 0.25, 0.0625, 0.01)
        assert eps == pytest.approx(0.00011274804838456191, rel=1e-12)
        assert D == pytest.approx(39360104743.2938, rel=1e-12)


@pytest.fixture(scope="module")
def fitted(golden_freq, toy_B):
    alpha = diophantine_alpha(golden_freq, 1.0, 5)
    letters = sorted({k for k, _ in toy_B.coeffs})
    return alpha, fit_growth_constants(golden_freq, letters, 9, 1.0, alpha, 1.0, limit=200)


class TestGrowthFitAndRemainder:

    def test_fitted_constants_positive_up_to_N2(self, fitted):
        _, (f_list, g_list) = fitted
        assert len(g_list) == 9
        assert all(g >= 0 for g in g_list)
        assert g_list[0] > 0

    def test_remainder_bound_holds_under_threshold(
        self, fitted, toy_B, golden_freq, scale_params, classical_backend
    ):
        alpha, (_, g_list) = fitted
        for N in (1, 2):
            res = normalize(toy_B, N, scale_params, golden_freq, classical_backend)
            rep = verify_remainder_bound(res, N, scale_params, golden_freq, g_list, alpha=alpha)
            assert rep.inputs["precondition_holds"]
            assert rep.holds

    def test_norm_power_constants_shapes(self, fitted):
        alpha, (_, g_list) = fitted
        D, eps, gamma_n, gamma_n2 = norm_power_constants(2, 1.0, 0.5, 1.0, 1.0, alpha, g_list)
        assert D > 0 and eps > 0 and gamma_n > 0 and gamma_n2 >= 0
        with pytest.raises(ValueError):
            norm_power_constants(4, 1.0, 0.5, 1.0, 1.0, alpha, g_list)

    def test_truncation_tail_bound(self, fitted, toy_B, golden_freq, scale_params, classical_backend):
        # geometric-series lemma: the measured truncation error of the
        # exponential at order N obeys C_sg * E^{N+1} under smallness
        alpha, (_, g_list) = fitted
        solver = MouldSolver(golden_freq)
        delta = scale_params.delta
        for N in (1, 2, 3):
            Y = contract(solver.G_mould, toy_B, N, classical_backend)
            full, _, _ = apply_exp_ad(Y, toy_B, 18, scale_params, classical_backend, with_x0=True)
            trunc, _, _ = apply_exp_ad(Y, toy_B, N, scale_params, classical_backend, with_x0=True)
            measured = norm_rho(full - trunc, scale_params.rho_prime)
            eta = [default_eta(1.0, alpha, 1.0, r) for r in range(1, N + 1)]
            eps = [weighted_tuple_sum(toy_B, r, eta[r - 1], 1.0, golden_freq, 1.0) for r in range(1, N + 1)]
            majorant = generator_majorant(N, delta / 2, 1.0, [1.0] * N, eta, g_list, eps)
            assert majorant <= 0.5 * delta ** 2 / 4.0  # smallness hypothesis
            bound = exp_tail_constant(N, 1.0, 0.5, 1.0, scale_params.chi, norm_rho(toy_B, 1.0)) * majorant ** (N + 1)
            assert measured <= bound * (1 + 1e-12)


class TestSemiclassical:
    def test_order_one_gap_identically_zero(self, toy_B, golden_freq):
        rep = verify_semiclassical(toy_B, 1, 1.0, 0.5, golden_freq, [0.1, 0.01])
        assert rep.g_values == [0.0, 0.0]
        assert rep.slope is None
        assert rep.ok

    def test_single_mode_no_bracket_content(self, golden_freq):
        B = Observable(2, {((1, 0), (0, 1)): 0.001})
        rep = verify_semiclassical(B, 2, 1.0, 0.5, golden_freq, [0.1])
        assert rep.g_values == [0.0]

    def test_order_two_slope(self, toy_B, golden_freq):
        rep = verify_semiclassical(
            toy_B, 2, 1.0, 0.5, golden_freq, [10 ** -1, 10 ** -1.5, 10 ** -2]
        )
        assert rep.slope == pytest.approx(2.0, abs=0.1)
        assert rep.ok

    def test_gap_constant_formula(self):
        val = gap_constant(2, 1.0, 0.5, 1.0, 1.0, 0.5)
        expected = 0.5 / 12.0 * (4.0 / math.e) ** 1 * (4.0 / (math.e * 0.5)) ** 4
        assert val == pytest.approx(expected)


class TestBoundReport:
    def test_slack_semantics(self):
        assert BoundReport("t", 1.0, 1.0).holds
        assert BoundReport("t", 1.0 + 1e-13, 1.0).holds
        assert not BoundReport("t", 1.0 + 1e-9, 1.0).holds

    def test_json_dict(self):
        rep = BoundReport("t", 1.0, 2.0, {"a": 1})
        data = rep.to_dict()
        assert data == {"name": "t", "lhs": 1.0, "rhs": 2.0, "holds": True, "inputs": {"a": 1}}
