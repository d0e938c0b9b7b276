import ast
import functools
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Backend, Frequency, Observable, OutOfDomainError, normalize
from mouldnf import estimates, liealg
from mouldnf.alphabet import diophantine_alpha
from mouldnf.cli import main
from mouldnf.liealg import apply_exp_ad, chi, contract
from mouldnf.mould import Mould
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

from oracles import (
    exp_tail_constant_at,
    generator_majorant,
    growth_shape,
    ksum,
    mould_fit_growth_constants,
    shaped_gap_constant,
    shaped_norm_power_constants,
    trie_table,
    tuple_subset_sums,
    weighted_tuple_sum,
)


REPO = Path(__file__).resolve().parent.parent


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
    return golden_alpha, fit_growth_constants(golden_freq, letters, 9, 1.0, golden_alpha, seed=7)[1]


class TestFloatRange:
    """A constant of the bound beyond float range is refused by name and
    word length, never raised as an ``OverflowError``."""

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0])
    def test_growth_fit_refuses_the_shape(self, alpha, tau):
        # the fit leaves out the shape (tau/(e eta_r))^(tau r), which grows
        # like 2^(tau r^2) and left float range near r = 32, so a fit to
        # length 36 finishes finite
        freq = Frequency((1.0, (1 + 5 ** 0.5) / 2), dioph_tau=tau)
        for fit in fit_growth_constants(freq, [(1, 0)], 36, 1.0, alpha, seed=0):
            assert len(fit) == 36 and all(math.isfinite(g) for g in fit)
        assert fit[0] > 0

    @pytest.mark.parametrize(
        "compute, name",
        [
            # growth constants near the top of float range from length 29 on
            (lambda: norm_power_constants(6, 1.0, 0.5, [1.0] * 28 + [1e300] * 8),
             "Gamma term at word length 29"),
            (lambda: norm_power_constants(3, 1.0, 0.5, [1e200] * 9), "D at N = 3"),
            (lambda: gap_constant(60, 1.0, 0.5, 1e300), "C_N at word length 60"),
        ],
    )
    def test_constants_refused_by_name(self, compute, name):
        with pytest.raises(OutOfDomainError, match=f"^{re.escape(name)} = inf"):
            compute()

    def test_reported_F_N_refused_by_name(self, toy_B, golden_freq):
        # at tau = 2 the length-2 shape is (2/(e eta_2))^2 ~ 8.7/alpha
        freq = Frequency(golden_freq.omega, dioph_tau=2.0)
        with pytest.raises(OutOfDomainError, match=r"^F_N at word length 2 = inf"):
            verify_semiclassical(toy_B, 2, 1.0, 0.5, freq, [0.1], 1e-308, seed=7)


class TestGrowthFitAndRemainder:

    def test_fitted_constants_positive_up_to_N2(self, fitted):
        _, g_list = fitted
        assert len(g_list) == 9
        assert all(g >= 0 for g in g_list)
        assert g_list[0] > 0

    def test_remainder_bound_holds_under_threshold(
        self, fitted, toy_B, golden_freq, scale_params, classical_backend
    ):
        alpha, g_list = fitted
        for N in (1, 2):
            res = normalize(toy_B, N, scale_params, golden_freq, classical_backend)
            rep = verify_remainder_bound(res, N, scale_params, g_list)
            assert rep.inputs["precondition_holds"]
            assert rep.holds

    def test_norm_power_constants_shapes(self, fitted):
        alpha, g_list = fitted
        D, eps, gamma_n, gamma_n2 = norm_power_constants(2, 1.0, 0.5, g_list)
        assert D > 0 and eps > 0 and gamma_n > 0 and gamma_n2 >= 0
        with pytest.raises(ValueError):
            norm_power_constants(4, 1.0, 0.5, g_list)

    def test_truncation_tail_bound(self, fitted, toy_B, golden_freq, scale_params, classical_backend):
        # geometric-series lemma: the measured truncation error of the
        # exponential at order N obeys C_sg * E^{N+1} under smallness
        alpha, g_list = fitted
        # the majorant multiplies each length's growth shape back in
        g_list = [g / growth_shape(1.0, alpha, 1.0, r) for r, g in enumerate(g_list, 1)]
        solver = MouldSolver(golden_freq)
        delta = scale_params.delta
        for N in (1, 2, 3):
            _, Y = contract(solver, toy_B, N, classical_backend)
            full, _, _ = apply_exp_ad(Y, toy_B, 18, scale_params, golden_freq, classical_backend)
            trunc, _, _ = apply_exp_ad(Y, toy_B, N, scale_params, golden_freq, classical_backend)
            measured = norm_rho(full - trunc, scale_params.rho_prime)
            eta = [default_eta(1.0, alpha, 1.0, r) for r in range(1, N + 1)]
            eps = [weighted_tuple_sum(toy_B, r, eta[r - 1], 1.0, golden_freq, 1.0) for r in range(1, N + 1)]
            majorant = generator_majorant(N, delta / 2, 1.0, [1.0] * N, eta, g_list, eps)
            assert majorant <= 0.5 * delta ** 2 / 4.0  # smallness hypothesis
            bound = exp_tail_constant_at(N, delta, norm_rho(toy_B, 1.0)) * majorant ** (N + 1)
            assert measured <= bound * (1 + 1e-12)


def record_walk(monkeypatch, freq, letters, r_max, alpha, seed):
    """The fit's sampled words per length, with repeats, each named by
    its frontier pair of parent state and letter code; its steps per
    length; and its F and G lists."""
    samples, steps, words, kept, decode = [], [], {}, [], {}
    sample, grow = estimates._sample_words, estimates._grow

    def recording(coded, previous, rng):
        if not samples:
            words[id(previous[0])] = ()
            kept.append(previous[0])
            # the fit's letter codes sort as its letters do
            decode.update(zip(coded, sorted(letters)))
        samples.append(sample(coded, previous, rng))
        steps.append(0)
        return samples[-1]

    def stepping(state, letter, *args):
        steps[-1] += 1
        new = grow(state, letter, *args)
        words[id(new)] = words[id(state)] + (decode[letter],)
        kept.append(new)  # kept alive, so that no id is reused
        return new

    with monkeypatch.context() as patch:
        patch.setattr(estimates, "_sample_words", recording)
        patch.setattr(estimates, "_grow", stepping)
        fit = fit_growth_constants(freq, letters, r_max, 1.0, alpha, seed)
    lists = [[words[id(parent)] + (decode[k],) for parent, k in pairs] for pairs in samples]
    return lists, steps, fit


class TestPrefixWalk:
    """The fit's sample as a seeded prefix-extension walk on a frontier of
    word states, its work counted in steps, not timed."""

    def test_walk_extends_the_previous_sample(self, monkeypatch, golden_freq, golden_alpha, toy_B):
        letters = sorted({k for k, _ in toy_B.coeffs})
        lists, steps, _ = record_walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=0)
        assert len(lists) == len(steps) == 16
        sampled = 0
        for r, words in enumerate(lists, 1):
            # one step per distinct sampled word
            assert steps[r - 1] == len(set(words))
            if len(letters) ** r <= SAMPLE_LIMIT:
                assert words == list(itertools.product(letters, repeat=r))
                continue
            sampled += 1
            assert len(words) == SAMPLE_LIMIT
            parents = set(lists[r - 2])
            assert all(w[:-1] in parents and w[-1] in letters for w in words)
        assert sampled == 13
        again, _, _ = record_walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=0)
        other, _, _ = record_walk(monkeypatch, golden_freq, letters, 16, golden_alpha, seed=1)
        assert again == lists
        assert other[:3] == lists[:3] and other[3:] != lists[3:]


# The fit's lists on the toy letters, from its form that scored F and G
# in one fit, weighed every word's subset sums afresh and divided every
# word by its growth shape.
FIT_PINS = {
    ("G", 0): "[0.8243606353500641, 0.18539422138690206, 0.02980310928211229, "
    "0.0005423833371166071, 4.54127881204884e-06, 5.426006298840722e-09, "
    "1.9977818827162524e-12, 3.4866180969363137e-16, 3.2482342451805737e-21]",
    ("G", 7): "[0.8243606353500641, 0.18539422138690206, 0.02980310928211229, "
    "0.0005423833371166071, 4.54127881204884e-06, 7.221563180674583e-09, "
    "3.834884709459123e-12, 5.3233076321519084e-17, 3.851239470611752e-21]",
    ("F", 0): "[0.0, 0.41218031767503205, 0.06179807379563402, 0.002852861271582646, "
    "1.6949479284893972e-05]",
    ("F", 7): "[0.0, 0.41218031767503205, 0.06179807379563402, 0.002852861271582646, "
    "2.4213541835562817e-05]",
}


class TestFitWork:
    """The fit scores one mould as before, to rounding once its growth
    shape is divided out, and its work is counted, not timed."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_lists_pinned(self, golden_freq, golden_alpha, toy_B, seed):
        letters = sorted({k for k, _ in toy_B.coeffs})
        # one walk to length 9 scores F and G; a walk's lengths 1..5 do
        # not depend on its r_max
        f_list, g_list = fit_growth_constants(golden_freq, letters, 9, 1.0, golden_alpha, seed)
        for name, fit, lag in (("G", g_list, 0), ("F", f_list[:5], 1)):
            pins = ast.literal_eval(FIT_PINS[name, seed])
            assert len(fit) == len(pins)
            for r, (g, pin) in enumerate(zip(fit, pins), 1):
                shaped = g / growth_shape(1.0, golden_alpha, 1.0, r, lag)
                assert math.isclose(shaped, pin, rel_tol=1e-14, abs_tol=0.0), (name, r)

    def test_one_solve_per_entry_one_weight_per_sum(self, monkeypatch, golden_freq, golden_alpha, toy_B):
        letters = sorted({k for k, _ in toy_B.coeffs})
        decided, touched = [], []

        class CountingFrequency(Frequency):
            def _in_lattice(self, k):
                decided.append(k)
                return super()._in_lattice(k)

        def refused(name):
            def call(*args, **kwargs):
                touched.append(name)
                raise AssertionError(f"the fit called {name}")
            return call

        freq = CountingFrequency(golden_freq.omega, dioph_tau=golden_freq.dioph_tau)
        with monkeypatch.context() as patch:
            # no solver table and no mould memo: the frontier holds the states
            for name in ("__init__", "values", "node", "child"):
                patch.setattr(MouldSolver, name, refused(f"MouldSolver.{name}"))
            patch.setattr(Mould, "__call__", refused("a mould"))
            lists, steps, _ = record_walk(monkeypatch, freq, letters, 9, golden_alpha, seed=0)
        assert touched == []
        # one step per distinct sampled word, so one solve per new suffix
        assert steps == [len(set(words)) for words in lists]
        # the solve steps and the weights read one table, so each distinct
        # sum, a suffix's letter sum or a subset sum of the fit's words, is
        # decided once; every suffix sum is a subset sum
        sums = set().union(*(functools.reduce(tuple_subset_sums, w, {}) for words in lists for w in words))
        assert {ksum(w[j:]) for words in lists for w in words for j in range(len(w))} <= sums
        assert sorted(decided) == sorted(sums)

    def test_normalize_and_fit_decide_each_sum_once(self, golden_freq, scale_params, toy_B):
        decided = []

        class CountingFrequency(Frequency):
            def _in_lattice(self, k):
                decided.append(k)
                return super()._in_lattice(k)

        freq = CountingFrequency(golden_freq.omega, dioph_tau=golden_freq.dioph_tau)
        N = 3
        res = normalize(toy_B, N, scale_params, freq, Backend())
        alpha = diophantine_alpha(freq, 5)
        letters = sorted({k for k, _ in toy_B.coeffs})
        fit_growth_constants(freq, letters, N ** 2, scale_params.rho, alpha, seed=0)
        # the solver, the x0 action of the exponential chain, the witness
        # alpha and the fit's weights all read freq.divisors
        assert len(decided) == len(set(decided)) == len(freq.divisors)


PHI = (1 + 5 ** 0.5) / 2
# (frequency, letters, r_max): the golden float omega on the toy letters,
# the exact resonant omega on the verify-exact-r6 letters, and a float
# resonant one; each r_max crosses SAMPLE_LIMIT (4^4, 3^5 and 4^4 words)
FIT_CONFIGS = {
    "golden": (lambda tau: Frequency((1.0, PHI), dioph_tau=tau),
               [(-2, 0), (-1, 0), (1, 0), (2, 0)], 9),
    "exact": (lambda tau: Frequency((Fraction(1), Fraction(2)), [(2, -1)], dioph_tau=tau),
              [(1, 0), (1, -1), (2, -1)], 7),
    "resonant-float": (lambda tau: Frequency((1.0, 2.0), [(2, -1)], dioph_tau=tau),
                       [(1, 0), (1, -1), (2, -1), (-3, 1)], 7),
}


class TestFrontierMatchesMouldFit:
    """The frontier's F and G lists are bit for bit those of the fit
    that scored the solver's moulds on word tuples."""

    @settings(max_examples=15)
    @given(
        name=st.sampled_from(sorted(FIT_CONFIGS)),
        seed=st.integers(0, 2 ** 32),
        tau=st.sampled_from([1.0, 1.5]),
        alpha=st.floats(0.05, 1.0),
        shift=st.integers(-2, 2),
    )
    def test_lists_bit_identical(self, name, seed, tau, alpha, shift):
        make, letters, r_max = FIT_CONFIGS[name]
        freq = make(tau)
        if freq.resonance_basis:
            # the verify-exact-r6 inputs move a letter along the resonance
            a, b = freq.resonance_basis[0]
            letters = [(letters[0][0] + shift * a, letters[0][1] + shift * b), *letters[1:]]
        f_list, g_list = fit_growth_constants(freq, letters, r_max, 1.0, alpha, seed)
        solver = MouldSolver(freq)
        for fit, mould in ((f_list, solver.F_mould), (g_list, solver.G_mould)):
            reference = mould_fit_growth_constants(mould, freq, letters, r_max, 1.0, alpha, seed)
            assert [x.hex() for x in fit] == [x.hex() for x in reference]
            assert repr(fit) == repr(reference)


class TestFitMemory:
    def test_peak_under_6_mb_at_length_16(self, golden_freq, golden_alpha, toy_B):
        # the fit of CLI normalize at N = 4 keeps two lengths' frontiers
        # of at most SAMPLE_LIMIT states; scoring the solver's moulds
        # kept every sampled word's subwords (11.7 MB)
        letters = sorted({k for k, _ in toy_B.coeffs})
        tracemalloc.start()
        try:
            fit_growth_constants(golden_freq, letters, 16, 1.0, golden_alpha, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_normalize_solver_tables_do_not_grow_during_the_fit(self, monkeypatch, tmp_path):
        built, sizes = [], []

        class Recording(MouldSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def size():
            (solver,) = built
            return len(trie_table(solver))

        fit = estimates.fit_growth_constants

        def measured(*args, **kwargs):
            sizes.append(size())
            result = fit(*args, **kwargs)
            sizes.append(size())
            return result

        config = json.loads((REPO / "configs" / "toy_normalize.json").read_text())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "N": 3}))
        monkeypatch.setattr(liealg, "MouldSolver", Recording)
        monkeypatch.setattr(estimates, "fit_growth_constants", measured)
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(sizes) == 2 and sizes[0] == sizes[1] > 1


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
        # F_N = 0.5 times its length-2 shape 4/e at rho = alpha = tau = 1
        val = gap_constant(2, 1.0, 0.5, 0.5 * 4.0 / math.e)
        expected = 0.5 / 12.0 * (4.0 / math.e) ** 1 * (4.0 / (math.e * 0.5)) ** 4
        assert val == pytest.approx(expected)


@pytest.fixture(scope="module")
def toy_solver(golden_freq):
    """One solver for every example: the mould values do not depend on
    ``tau``, which only the fit's weights and shape read."""
    return MouldSolver(golden_freq)


class TestShapeCancels:
    """The growth shape that the shaped fit divided out of every word
    and the shaped constants multiplied back in cancels: the shape-free
    constants agree with the shaped ones to rounding."""

    @settings(max_examples=20)
    @given(
        N=st.integers(1, 4),
        tau=st.floats(1.0, 2.0),
        rho=st.floats(0.5, 2.0),
        ratio=st.floats(0.1, 0.9),
        alpha=st.floats(0.01, 1.0),
    )
    def test_constants_agree_with_the_shaped_oracle(self, toy_solver, golden_freq, toy_B, N, tau,
                                                     rho, ratio, alpha):
        freq = Frequency(golden_freq.omega, dioph_tau=tau)
        letters = sorted({k for k, _ in toy_B.coeffs})
        rho_prime = rho * ratio
        G, F = toy_solver.G_mould, toy_solver.F_mould
        try:
            old = shaped_norm_power_constants(
                N, rho, rho_prime, tau, alpha,
                mould_fit_growth_constants(G, freq, letters, N * N, rho, alpha, seed=0, lag=0),
            ) + (shaped_gap_constant(
                N, rho, rho_prime, tau, alpha,
                mould_fit_growth_constants(F, freq, letters, N, rho, alpha, seed=0, lag=1)[N - 1],
            ),)
        except OutOfDomainError:
            return  # compared only where the shaped form is finite
        f_list, g_list = fit_growth_constants(freq, letters, N * N, rho, alpha, seed=0)
        new = norm_power_constants(N, rho, rho_prime, g_list) + (
            gap_constant(N, rho, rho_prime, f_list[N - 1]),
        )
        for name, a, b in zip(("D", "eps", "Gamma_N", "Gamma_N2N", "C_N"), new, old):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), name

    @pytest.mark.parametrize("N", [2, 3])
    def test_reported_F_N_is_the_shaped_fit(self, toy_B, golden_freq, golden_alpha, N):
        rep = verify_semiclassical(toy_B, N, 1.0, 0.5, golden_freq, [0.1], golden_alpha, seed=7)
        F = MouldSolver(golden_freq).F_mould
        letters = sorted({k for k, _ in toy_B.coeffs})
        shaped = mould_fit_growth_constants(F, golden_freq, letters, N, 1.0, golden_alpha, seed=7, lag=1)
        assert math.isclose(rep.bounds[0].inputs["F_N"], shaped[N - 1], rel_tol=1e-14, abs_tol=0.0)


class TestBoundReport:
    def test_slack_semantics(self):
        assert BoundReport("t", 1.0, 1.0).holds
        assert BoundReport("t", 1.0 + 1e-13, 1.0).holds
        assert not BoundReport("t", 1.0 + 1e-9, 1.0).holds

    def test_json_dict(self):
        rep = BoundReport("t", 1.0, 2.0, {"a": 1})
        data = rep.to_dict()
        assert data == {"name": "t", "lhs": 1.0, "rhs": 2.0, "holds": True, "inputs": {"a": 1}}
