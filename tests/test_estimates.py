import math
import re

import pytest

from mouldnf import Frequency, Observable, OutOfDomainError, normalize
from mouldnf import estimates
from mouldnf.alphabet import diophantine_alpha, words_over
from mouldnf.liealg import apply_exp_ad, chi, contract
from mouldnf.observables import norm_rho
from mouldnf.solver import MouldSolver
from mouldnf.estimates import (
    SAMPLE_LIMIT,
    BoundReport,
    exp_tail_constant,
    gap_constant,
    default_eta,
    norm_power_constants,
    fit_growth_constants,
    power_exponential_bound,
    verify_remainder_bound,
    verify_semiclassical,
)

from oracles import exp_tail_constant_at, generator_majorant, weighted_tuple_sum


class TestPowerExponentialBound:
    def test_extremal_point_holds_with_slack(self):
        # x = tau^tau is the maximizer; equality there
        rep = power_exponential_bound(1.0, 1.0)
        assert rep.lhs == pytest.approx(rep.rhs)
        assert rep.holds

    def test_interior_point_strict(self):
        rep = power_exponential_bound(0.5, 1.0)
        assert rep.lhs < rep.rhs
        assert rep.holds

    def test_small_x(self):
        assert power_exponential_bound(1e-9, 2.0).holds

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_exponential_bound(0.0, 1.0)


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
        delta = 0.5
        expected = 2.0 * (delta ** 2 / (4.0 * chi(delta / 2)) + 0.01) * (4.0 / delta ** 2) ** 3
        assert exp_tail_constant_at(2, delta, 0.01) == pytest.approx(expected)
        # the package's constant is the oracle's at the unit norm, bit for bit
        for N in (1, 2, 5):
            assert exp_tail_constant(N, delta) == exp_tail_constant_at(N, delta, 1.0)

    def test_zero_norm_limit(self):
        base = exp_tail_constant_at(1, 0.5, 0.0)
        assert base == pytest.approx(2.0 * (0.25 * math.e * 0.25 / 4.0) * 16 ** 2, rel=1e-9)
        assert base == pytest.approx(21.74625462767236, rel=1e-12)

    def test_geometric_in_N(self):
        ratio = exp_tail_constant(2, 0.5) / exp_tail_constant(1, 0.5)
        assert ratio == pytest.approx(4.0 / 0.5 ** 2)
        v2 = exp_tail_constant_at(2, 0.5, 0.01)
        v1 = exp_tail_constant_at(1, 0.5, 0.01)
        assert v2 / v1 == pytest.approx(4.0 / 0.5 ** 2)


@pytest.fixture(scope="module")
def golden_alpha(golden_freq):
    return diophantine_alpha(golden_freq, 5)


@pytest.fixture(scope="module")
def fitted(golden_freq, golden_alpha, toy_B):
    letters = sorted({k for k, _ in toy_B.coeffs})
    return golden_alpha, fit_growth_constants(golden_freq, letters, 9, 1.0, golden_alpha, seed=7)


class TestFloatRange:
    """A constant of the bound beyond float range is refused by name and
    word length, never raised as an ``OverflowError``."""

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0])
    def test_growth_fit_refuses_the_shape(self, alpha, tau):
        # the shape (tau/(e eta_r))^(tau r) grows like 2^(tau r^2)
        freq = Frequency((1.0, (1 + 5 ** 0.5) / 2), dioph_tau=tau)
        with pytest.raises(OutOfDomainError, match=r"^growth shape .* at word length \d+ = inf"):
            fit_growth_constants(freq, [(1, 0)], 36, 1.0, alpha, seed=0)

    @pytest.mark.parametrize(
        "compute, name",
        [
            (lambda: norm_power_constants(6, 1.0, 0.5, 1.0, 0.1, [1.0] * 36),
             "Gamma term at word length 29"),
            (lambda: norm_power_constants(3, 1.0, 0.5, 1.0, 0.1, [1e200] * 9), "D at N = 3"),
            (lambda: gap_constant(60, 1.0, 0.5, 1.0, 0.1, 1.0), "C_N at word length 60"),
        ],
    )
    def test_constants_refused_by_name(self, compute, name):
        with pytest.raises(OutOfDomainError, match=f"^{re.escape(name)} = inf"):
            compute()


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
            rep = verify_remainder_bound(res, N, scale_params, golden_freq, g_list, alpha)
            assert rep.inputs["precondition_holds"]
            assert rep.holds

    def test_norm_power_constants_shapes(self, fitted):
        alpha, (_, g_list) = fitted
        D, eps, gamma_n, gamma_n2 = norm_power_constants(2, 1.0, 0.5, 1.0, alpha, g_list)
        assert D > 0 and eps > 0 and gamma_n > 0 and gamma_n2 >= 0
        with pytest.raises(ValueError):
            norm_power_constants(4, 1.0, 0.5, 1.0, alpha, g_list)

    def test_truncation_tail_bound(self, fitted, toy_B, golden_freq, scale_params, classical_backend):
        # geometric-series lemma: the measured truncation error of the
        # exponential at order N obeys C_sg * E^{N+1} under smallness
        alpha, (_, g_list) = fitted
        solver = MouldSolver(golden_freq)
        delta = scale_params.delta
        for N in (1, 2, 3):
            Y = contract(solver.G_mould, toy_B, N, classical_backend)
            full, _, _ = apply_exp_ad(Y, toy_B, 18, scale_params, classical_backend)
            trunc, _, _ = apply_exp_ad(Y, toy_B, N, scale_params, classical_backend)
            measured = norm_rho(full - trunc, scale_params.rho_prime)
            eta = [default_eta(1.0, alpha, 1.0, r) for r in range(1, N + 1)]
            eps = [weighted_tuple_sum(toy_B, r, eta[r - 1], 1.0, golden_freq, 1.0) for r in range(1, N + 1)]
            majorant = generator_majorant(N, delta / 2, 1.0, [1.0] * N, eta, g_list, eps)
            assert majorant <= 0.5 * delta ** 2 / 4.0  # smallness hypothesis
            bound = exp_tail_constant_at(N, delta, norm_rho(toy_B, 1.0)) * majorant ** (N + 1)
            assert measured <= bound * (1 + 1e-12)


class TestPrefixWalk:
    """The fit's sample as a seeded prefix-extension walk, and its work
    counted in solver-table entries, not timed."""

    @staticmethod
    def walk(monkeypatch, freq, letters, r_max, alpha, seed):
        """The fit's word lists per length, and the solver-table size
        after each length."""
        solvers, lists, sizes = [], [], []

        class Recording(MouldSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        sample = estimates._sample_words

        def recording(letters, previous, rng):
            sizes.append(len(solvers[0]._table))
            lists.append(sample(letters, previous, rng))
            return lists[-1]

        with monkeypatch.context() as patch:
            patch.setattr(estimates, "MouldSolver", Recording)
            patch.setattr(estimates, "_sample_words", recording)
            fit_growth_constants(freq, letters, r_max, 1.0, alpha, seed)
        sizes.append(len(solvers[0]._table))
        return lists, sizes[1:]

    def test_walk_extends_the_previous_sample(self, monkeypatch, golden_freq, golden_alpha, toy_B):
        letters = sorted({k for k, _ in toy_B.coeffs})
        lists, sizes = self.walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=0)
        assert len(lists) == 16
        sampled = 0
        for r, words in enumerate(lists, 1):
            if len(letters) ** r <= SAMPLE_LIMIT:
                assert words == list(words_over(letters, r, min_r=r))
                continue
            sampled += 1
            assert len(words) == SAMPLE_LIMIT
            parents = set(lists[r - 2])
            assert all(w[:-1] in parents and w[-1] in letters for w in words)
            # each word's prefix is solved, so it adds at most its r suffixes
            assert sizes[r - 1] - sizes[r - 2] <= r * SAMPLE_LIMIT
        assert sampled == 13
        again, _ = self.walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=0)
        other, _ = self.walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=1)
        assert again == lists
        assert other[:3] == lists[:3] and other[3:] != lists[3:]


class TestSemiclassical:
    def test_order_one_gap_identically_zero(self, toy_B, golden_freq, golden_alpha):
        rep = verify_semiclassical(toy_B, 1, 1.0, 0.5, golden_freq, [0.1, 0.01], golden_alpha, seed=7)
        assert rep.g_values == [0.0, 0.0]
        assert rep.slope is None
        assert rep.ok

    def test_single_mode_no_bracket_content(self, golden_freq, golden_alpha):
        B = Observable(2, {((1, 0), (0, 1)): 0.001})
        rep = verify_semiclassical(B, 2, 1.0, 0.5, golden_freq, [0.1], golden_alpha, seed=7)
        assert rep.g_values == [0.0]

    def test_order_two_slope(self, toy_B, golden_freq, golden_alpha):
        rep = verify_semiclassical(
            toy_B, 2, 1.0, 0.5, golden_freq, [10 ** -1, 10 ** -1.5, 10 ** -2], golden_alpha, seed=7
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
