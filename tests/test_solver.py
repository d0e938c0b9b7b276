import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.alphabet import beta, diophantine_alpha, is_resonant
from mouldnf.estimates import SAMPLE_LIMIT, default_eta, fit_growth_constants
from mouldnf.exact import QI
from mouldnf.mould import check_alternal, from_table, mexp, nabla
from mouldnf import alphabet
from mouldnf import solver as solver_module
from mouldnf.solver import MouldSolver, verify_equation

from oracles import StackSolver, subset_sum_counts

PHI = (1 + 5 ** 0.5) / 2

MIXED_ALPHABET = ((1, 0), (1, -1), (2, -1))  # (2,-1) resonant for omega=(1,2)


def words_over(letters, r_max):
    for r in range(1, r_max + 1):
        for combo in itertools.product(letters, repeat=r):
            yield combo


class TestClosedForms:
    def test_resonant_single_letter(self, rational_freq_float):
        solver = MouldSolver(rational_freq_float)
        F, S, N = solver.values(((2, -1),))
        assert (F, S, N) == (1, 0, 0)

    def test_nonresonant_single_letter(self, golden_freq):
        solver = MouldSolver(golden_freq)
        lam = 1j  # i<(1,0), omega>
        F, S, N = solver.values(((1, 0),))
        assert F == 0
        assert S == pytest.approx(1 / lam)
        assert N == pytest.approx(1 / lam)

    def test_cancelling_pair(self, golden_freq):
        solver = MouldSolver(golden_freq)
        lam = 1j
        F, S, N = solver.values(((1, 0), (-1, 0)))
        assert F == pytest.approx(-1 / lam)
        assert S == pytest.approx(-1 / (2 * lam ** 2))
        assert N == pytest.approx(0)
        assert solver.G_mould(((1, 0), (-1, 0))) == pytest.approx(0)

    def test_g_single_letters(self, golden_freq, rational_freq_float):
        assert MouldSolver(golden_freq).G_mould(((1, 0),)) == pytest.approx(1 / 1j)
        assert MouldSolver(rational_freq_float).G_mould(((2, -1),)) == 0

    def test_exact_mode_closed_forms(self, rational_freq):
        solver = MouldSolver(rational_freq)
        F, S, N = solver.values(((2, -1),))
        assert F == QI(1, 0) and S == QI(0, 0) and N == QI(0, 0)
        F1, S1, N1 = solver.values(((1, 0),))
        # 1/lambda with lambda = i: equals -i
        assert F1 == QI(0, 0) and S1 == QI(0, -1) and N1 == QI(0, -1)


class TestEquation:
    def test_exact_residual_is_zero(self, rational_freq):
        solver = MouldSolver(rational_freq)
        rep = verify_equation(solver, 3, MIXED_ALPHABET)
        assert rep.exact
        assert rep.max_residual == 0.0
        assert rep.max_nabla_f == 0.0
        assert rep.max_gauge == 0.0
        assert rep.ok

    def test_float_residual_small(self, golden_solver):
        rep = verify_equation(golden_solver, 4, ((1, 0), (0, 1), (-1, 0)), tol=1e-9)
        assert rep.ok
        assert rep.max_residual <= 1e-9 * rep.scale

    def test_nabla_f_vanishes_off_resonance(self, golden_solver, golden_freq):
        NF = nabla(golden_solver.F_mould, golden_freq)
        for w in words_over(((1, 0), (0, 1)), 3):
            assert NF(w) == 0


class TestStructure:
    def test_f_supported_on_resonant_words(self, golden_solver, golden_freq):
        for w in words_over(((1, 0), (-1, 0), (0, 1)), 4):
            if not is_resonant(w, golden_freq):
                assert golden_solver.values(w)[0] == 0

    def test_s_equals_exp_g(self, golden_solver):
        E = mexp(golden_solver.G_mould)
        for w in words_over(((1, 0), (-1, 0)), 5):
            assert complex(E(w)) == pytest.approx(complex(golden_solver.values(w)[1]), abs=1e-12)

    def test_alternality_of_f_and_g(self, rational_freq_float):
        solver = MouldSolver(rational_freq_float)
        for mould in (solver.F_mould, solver.G_mould):
            rep = check_alternal(mould, 4, MIXED_ALPHABET, tol=1e-10)
            assert rep.ok, rep.violations[:3]

    def test_homogeneity_under_frequency_scaling(self):
        # scaling omega by c multiplies every eigenvalue by c, so the
        # value on an r-word scales by c^-(r-1) for F and c^-r for G.
        c = 2.0
        base = Frequency((1.0, PHI))
        scaled = Frequency((c, c * PHI))
        s1, s2 = MouldSolver(base), MouldSolver(scaled)
        for w in words_over(((1, 0), (-1, 0), (0, 1)), 4):
            r = len(w)
            f1 = complex(s1.values(w)[0])
            f2 = complex(s2.values(w)[0])
            assert f2 == pytest.approx(f1 * c ** (-(r - 1)), rel=1e-9, abs=1e-15)
            g1 = complex(s1.G_mould(w))
            g2 = complex(s2.G_mould(w))
            assert g2 == pytest.approx(g1 * c ** (-r), rel=1e-9, abs=1e-15)


class TestGrowthBound:
    def test_fitted_constants_bound_fresh_sample(self, golden_freq):
        # constants fitted as exact suprema over all words of each
        # length; a fresh random sample cannot exceed them.
        letters = ((1, 0), (-1, 0), (0, 1))
        rho, tau = 1.0, 1.0
        alpha = diophantine_alpha(golden_freq, 5)
        assert len(letters) ** 4 <= SAMPLE_LIMIT  # every word is enumerated
        f_list, g_list = fit_growth_constants(golden_freq, letters, 4, rho, alpha, seed=7)
        solver = MouldSolver(golden_freq)
        rng = random.Random(99)
        import math

        for _ in range(50):
            r = rng.randint(1, 4)
            w = tuple(rng.choice(letters) for _ in range(r))
            eta_r = default_eta(rho, alpha, tau, r)
            base = (tau / (math.e * eta_r)) ** tau
            shape = math.exp(eta_r * beta(subset_sum_counts(w), tau, golden_freq))
            fv = abs(complex(solver.values(w)[0]))
            gv = abs(complex(solver.G_mould(w)))
            assert fv <= f_list[r - 1] * base ** (r - 1) * shape * (1 + 1e-12)
            assert gv <= g_list[r - 1] * base ** r * shape * (1 + 1e-12)


class TestGaugeHook:
    def test_nonzero_gauge_accepted(self, rational_freq_float):
        # resonant alternal gauge supported on the resonant letter
        gauge = from_table({((2, -1),): 0.5})
        solver = MouldSolver(rational_freq_float, gauge=gauge)
        F, S, N = solver.values(((2, -1),))
        assert N == 0.5
        assert S == pytest.approx(0.5)


class TestSharedMoulds:
    def test_f_and_s_moulds_are_cached(self, golden_freq):
        solver = MouldSolver(golden_freq)
        assert solver.F_mould is solver.F_mould
        assert solver.S_mould is solver.S_mould


# Each case: a frequency, letters whose words are resonant and
# non-resonant, and a gauge.  Words over the golden letters are resonant
# when the counts of opposite letters balance; over the rational letters
# also through the declared resonance (2, -1).
GOLDEN_LETTERS = ((1, 0), (-1, 0), (0, 1), (0, -1))
RATIONAL_LETTERS = ((1, 0), (-1, 0), (1, -1), (2, -1), (-2, 1))
SOLVER_CASES = {
    "golden": (Frequency((1.0, PHI), dioph_tau=1.0), GOLDEN_LETTERS, None),
    "rational_float": (Frequency((1.0, 2.0), resonance_basis=[(2, -1)]), RATIONAL_LETTERS, None),
    "rational_exact": (
        Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)]),
        RATIONAL_LETTERS,
        None,
    ),
    "gauge": (
        Frequency((1.0, 2.0), resonance_basis=[(2, -1)]),
        RATIONAL_LETTERS,
        from_table({((2, -1),): 0.5}),
    ),
}


class TestStackOracle:
    """The subword-table solver equals the earlier stack solver bit for
    bit, whichever word is asked for first."""

    @pytest.mark.parametrize("longest_first", [True, False], ids=["longest_first", "subwords_first"])
    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_values_bit_identical(self, case, longest_first, data):
        freq, letters, gauge = SOLVER_CASES[case]
        word = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=8)))
        subwords = [word[j:j + n] for n in range(1, len(word) + 1) for j in range(len(word) - n + 1)]
        solver = MouldSolver(freq, gauge=gauge)
        oracle = StackSolver(freq, gauge=gauge)
        queries = [word, *subwords] if longest_first else [*subwords[:-1], word]
        for w in queries:
            got, want = solver.values(w), oracle.values(w)
            assert got == want
            assert repr(got) == repr(want)


class TestSuffixPath:
    """A word whose prefix is solved adds only its new suffixes; the table
    must not depend on the order in which words arrive."""

    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_orders_and_stack_oracle_bit_identical(self, case, data):
        freq, letters, gauge = SOLVER_CASES[case]
        drawn = data.draw(
            st.lists(st.lists(st.sampled_from(letters), min_size=1, max_size=7), min_size=1, max_size=5)
        )
        # with every prefix in lexicographic order, each word after the
        # first meets its prefix solved
        lexicographic = sorted({tuple(w[:i]) for w in drawn for i in range(1, len(w) + 1)})
        shuffled = data.draw(st.permutations(lexicographic))
        tables = []
        for order in (lexicographic, shuffled):
            solver = MouldSolver(freq, gauge=gauge)
            for w in order:
                solver.values(w)
            table = solver._table
            assert all(
                w[j:k] in table for w in table for j in range(len(w)) for k in range(j + 1, len(w) + 1)
            )
            tables.append(table)
        oracle = StackSolver(freq, gauge=gauge)
        for table in tables:
            assert table.keys() == tables[0].keys()
            for w, got in table.items():
                assert repr(got) == repr(oracle.values(w))


class TestLetterSums:
    """Each solved word forms its letter sum once: the resonance decision
    and the eigenvalue share it."""

    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    def test_one_letter_sum_per_solved_word(self, case, monkeypatch):
        freq, letters, gauge = SOLVER_CASES[case]
        calls = []
        real_ksum = alphabet.ksum

        def counting(word):
            calls.append(word)
            return real_ksum(word)

        # wherever the solver reaches the letter sum from
        monkeypatch.setattr(alphabet, "ksum", counting)
        monkeypatch.setattr(solver_module, "ksum", counting, raising=False)
        solver = MouldSolver(freq, gauge=gauge)
        for w in words_over(letters, 3):
            solver.values(w)
        solved = [w for w in solver._table if w]
        assert len(solved) == len(letters) + len(letters) ** 2 + len(letters) ** 3
        assert sorted(calls) == sorted(solved)

    def test_word_of_another_dimension_refused(self, golden_freq):
        with pytest.raises(ValueError):
            MouldSolver(golden_freq).values(((1, 0, 0),))
