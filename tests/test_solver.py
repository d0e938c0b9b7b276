import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.alphabet import beta, diophantine_alpha
from mouldnf.estimates import SAMPLE_LIMIT, default_eta, fit_growth_constants
from mouldnf.exact import QI
from mouldnf.mould import check_alternal
from mouldnf import alphabet
from mouldnf import solver as solver_module
from mouldnf.solver import MouldSolver, verify_equation

from oracles import (
    StackSolver,
    SummingSolver,
    combinator_verify_equation,
    ident_mould,
    is_resonant,
    ksum,
    nabla,
    solver_moulds,
    subset_sum_counts,
    table_mould,
    times,
    trie_table,
    times_all_splits,
    word_codes,
)

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
        assert solver.G(((1, 0), (-1, 0))) == pytest.approx(0)

    def test_g_single_letters(self, golden_freq, rational_freq_float):
        assert MouldSolver(golden_freq).G(((1, 0),)) == pytest.approx(1 / 1j)
        assert MouldSolver(rational_freq_float).G(((2, -1),)) == 0

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
        NF = nabla(solver_moulds(golden_solver)["F"], golden_freq)
        for w in words_over(((1, 0), (0, 1)), 3):
            assert NF(w) == 0


class TestStructure:
    def test_f_supported_on_resonant_words(self, golden_solver, golden_freq):
        for w in words_over(((1, 0), (-1, 0), (0, 1)), 4):
            if not is_resonant(w, golden_freq):
                assert golden_solver.values(w)[0] == 0

    def test_s_equals_exp_g(self, golden_solver):
        for w in words_over(((1, 0), (-1, 0)), 5):
            assert complex(golden_solver.exp(w)) == pytest.approx(complex(golden_solver.values(w)[1]), abs=1e-12)

    def test_alternality_of_f_and_g(self, rational_freq_float):
        moulds = solver_moulds(MouldSolver(rational_freq_float))
        for mould in (moulds["F"], moulds["G"]):
            (rep,) = check_alternal([mould], 4, MIXED_ALPHABET, tol=1e-10)
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
            g1 = complex(s1.G(w))
            g2 = complex(s2.G(w))
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
            codes, _, weights = word_codes(golden_freq, w)
            shape = math.exp(eta_r * beta(subset_sum_counts(w, codes), weights))
            fv = abs(complex(solver.values(w)[0]))
            gv = abs(complex(solver.G(w)))
            assert fv <= f_list[r - 1] * shape * (1 + 1e-12)
            assert gv <= g_list[r - 1] * shape * (1 + 1e-12)


class TestGaugeHook:
    def test_nonzero_gauge_accepted(self, rational_freq_float):
        # resonant alternal gauge supported on the resonant letter
        gauge = table_mould({((2, -1),): 0.5}, 0)
        solver = MouldSolver(rational_freq_float, gauge=gauge)
        F, S, N = solver.values(((2, -1),))
        assert N == 0.5
        assert S == pytest.approx(0.5)


class TestSharedMoulds:
    def test_f_and_s_moulds_are_cached(self, golden_freq):
        # F and S live on the word's node, G and exp(+-G) in memos by node
        solver = MouldSolver(golden_freq)
        w = ((1, 0), (0, 1), (1, 0))
        assert solver.values(w) is solver.values(w)
        assert solver.G(w) is solver.G(w)
        assert solver.exp(w, -1) is solver.exp(w, -1)


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
        table_mould({((2, -1),): 0.5}, 0),
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


class TestZeroSkips:
    """Skipping exactly zero terms leaves every float value bit for bit
    as summing them does: the sums start at +0 and never hold -0.0."""

    def test_solver_values_bit_identical(self, golden_freq, toy_B):
        letters = sorted({k for k, _ in toy_B.coeffs})
        solver, oracle = MouldSolver(golden_freq), SummingSolver(golden_freq)
        for w in words_over(letters, 5):
            assert repr(solver.values(w)) == repr(oracle.values(w))

    def test_products_bit_identical(self, golden_solver):
        moulds = solver_moulds(golden_solver)
        S, F = moulds["S"], moulds["F"]
        for M, N in ((ident_mould(), S), (S, F), (F, S)):
            product = times(M, N)
            for w in [(), *words_over(((1, 0), (-1, 0), (2, 0)), 4)]:
                assert repr(complex(product(w))) == repr(complex(times_all_splits(M, N, w)))


class TestSuffixPath:
    """A word whose prefix is solved adds only its new suffixes; the trie
    must not depend on the order in which words arrive, and each node's
    shift is the node of its word less the first letter."""

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
            table = trie_table(solver)
            assert all(
                w[j:k] in table for w in table for j in range(len(w)) for k in range(j + 1, len(w) + 1)
            )
            tables.append(table)
        oracle = StackSolver(freq, gauge=gauge)
        for table in tables:
            assert table.keys() == tables[0].keys()
            for w, node in table.items():
                assert repr(node[0]) == repr(oracle.values(w))

    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_shift_is_node_of_suffix(self, case, data):
        freq, letters, gauge = SOLVER_CASES[case]
        drawn = data.draw(st.lists(
            st.lists(st.sampled_from(letters), min_size=1, max_size=7).map(tuple), min_size=1, max_size=5
        ))
        solver = MouldSolver(freq, gauge=gauge)
        oracle = StackSolver(freq, gauge=gauge)
        for w in drawn:
            assert repr(solver.values(w)) == repr(oracle.values(w))
        table = trie_table(solver)
        for w, node in table.items():
            if w:
                assert node[3] is solver.node(w[1:])
                assert repr(node[0]) == repr(oracle.values(w))
        # the suffixes were recorded: finding them solved nothing
        assert trie_table(solver).keys() == table.keys()


class TestLongWords:
    """Mould-table keys come from outside the program and can be long:
    ``child`` builds a node's missing shift chain with no recursion.  A
    periodic word finds each new node's shift one step down its chain,
    so only a random one would catch a recursive build."""

    def test_word_longer_than_the_recursion_limit(self, golden_freq):
        periodic = ((1, 0),) * 300
        rng = random.Random(300)
        drawn = tuple(rng.choice([(1, 0), (0, 1)]) for _ in range(300))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        for word in (periodic, drawn):
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(depth + 100)
            try:
                got = MouldSolver(golden_freq).values(word)
            finally:
                sys.setrecursionlimit(limit)
            stepwise = MouldSolver(golden_freq)
            for i in range(1, len(word) + 1):
                stepwise.values(word[:i])
            assert repr(got) == repr(stepwise.values(word))


# Letters resonant for some frequency below and not for others: (2, -1)
# and (-2, 1) for omega = (1, 2), (3, -1) for omega = (0.1, 0.3), where
# the float pairing of the lattice vector is 5.6e-17, not 0; over the
# golden mean only words whose opposite letters cancel are resonant.
VERIFY_LETTERS = ((1, 0), (-1, 0), (0, 1), (1, -1), (2, -1), (-2, 1), (3, -1))
VERIFY_CASES = {
    "golden": Frequency((1.0, PHI)),
    "rational_float": Frequency((1.0, 2.0), resonance_basis=[(2, -1)]),
    "rational_exact": Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)]),
    "tenths": Frequency((0.1, 0.3), resonance_basis=[(3, -1)]),
}


class TestCombinatorOracle:
    """The word-by-word check gives the report of the equation assembled
    from memoized combinator moulds: ``==`` in Q(i), the same ``repr``
    in floats."""

    @pytest.mark.parametrize("gauged", [False, True], ids=["zero_gauge", "gauge"])
    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    @settings(max_examples=30)
    @given(
        letters=st.lists(st.sampled_from(VERIFY_LETTERS), min_size=1, max_size=3, unique=True),
        max_r=st.integers(1, 4),
    )
    @example(letters=list(MIXED_ALPHABET), max_r=4)
    # test_exact.TestVerifyWork's alphabet, which is MIXED_ALPHABET, and length
    @example(letters=list(MIXED_ALPHABET), max_r=6)
    # one letter: the CLI's default (1, 0), and (2, -1), resonant for omega = (1, 2)
    @example(letters=[(1, 0)], max_r=6)
    @example(letters=[(2, -1)], max_r=6)
    def test_report_matches_combinator_oracle(self, case, gauged, letters, max_r):
        freq = VERIFY_CASES[case]
        gauge = None
        if gauged:
            # alternal: one half on the letters resonant for some case; the
            # solver reads it only on the words resonant for the case at hand
            half = Fraction(1, 2) if freq.exact else 0.5
            gauge = table_mould({((2, -1),): half, ((-2, 1),): half, ((3, -1),): half}, 0)
        got = verify_equation(MouldSolver(freq, gauge=gauge), max_r, letters)
        want = combinator_verify_equation(MouldSolver(freq, gauge=gauge), max_r, letters)
        if freq.exact:
            assert vars(got) == vars(want)
        else:
            assert repr(vars(got)) == repr(vars(want))


class TestLetterSums:
    """Each solved word forms its letter sum in one step, its parent's
    sum plus its last letter: the resonance decision and the eigenvalue
    share it."""

    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    def test_one_letter_sum_per_solved_word(self, case, monkeypatch):
        freq, letters, gauge = SOLVER_CASES[case]
        steps, stepped = [], []
        step = solver_module.step

        def counting_add(a, b):
            steps.append((a, b))
            return a + b

        def recording(parent, shift, k, *args):
            node = step(parent, shift, k, *args)
            stepped.append(node[0])
            return node

        monkeypatch.setattr(solver_module, "add", counting_add)
        monkeypatch.setattr(solver_module, "step", recording)
        solver = MouldSolver(freq, gauge=gauge)
        for w in words_over(letters, 3):
            solver.values(w)
        table = trie_table(solver)
        solved = [w for w in table if w]
        assert len(solved) == len(letters) + len(letters) ** 2 + len(letters) ** 3
        # each solved word is stepped once, with its letter sum
        assert sorted(map(id, stepped)) == sorted(id(table[w][0]) for w in solved)
        assert all(table[w][2] == ksum(w) for w in solved)
        # a one-letter word's sum is its letter; a longer one adds its
        # last letter's d entries to its parent's sum
        assert len(steps) == freq.d * sum(len(w) > 1 for w in solved)

    def test_word_of_another_dimension_refused(self, golden_freq):
        with pytest.raises(ValueError):
            MouldSolver(golden_freq).values(((1, 0, 0),))

    def test_longer_word_of_another_dimension_refused(self, golden_freq):
        # the sum of a carried prefix would silently drop the extra entry
        with pytest.raises(ValueError):
            MouldSolver(golden_freq).values(((1, 0), (1, 0, 0)))

    @pytest.mark.parametrize("letters", [[(1, 0, 0)], [(1, 0), (1, 0, 0)]])
    def test_verify_letter_of_another_dimension_refused(self, golden_freq, letters):
        with pytest.raises(ValueError):
            verify_equation(MouldSolver(golden_freq), 2, letters)


class TestVerifyWalk:
    """``verify_equation`` solves each word once, in walk order, through
    ``MouldSolver.child``, and leaves the trie that ``values`` fills."""

    @pytest.mark.parametrize("gauged", [False, True], ids=["zero_gauge", "gauge"])
    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    @settings(max_examples=15)
    @given(
        letters=st.lists(st.sampled_from(VERIFY_LETTERS), min_size=1, max_size=3, unique=True),
        max_r=st.integers(1, 4),
        data=st.data(),
    )
    def test_tables_equal_values_and_stack_oracle(self, case, gauged, letters, max_r, data):
        freq = VERIFY_CASES[case]
        gauge = None
        if gauged:
            half = Fraction(1, 2) if freq.exact else 0.5
            gauge = table_mould({((2, -1),): half, ((-2, 1),): half, ((3, -1),): half}, 0)
        walked = MouldSolver(freq, gauge=gauge)
        report = verify_equation(walked, max_r, letters)
        lazy = MouldSolver(freq, gauge=gauge)
        for w in data.draw(st.permutations([(), *words_over(letters, max_r)])):
            lazy.values(w)
        oracle = StackSolver(freq, gauge=gauge)
        walked_table, lazy_table = trie_table(walked), trie_table(lazy)
        assert walked_table.keys() == lazy_table.keys()
        for w, node in walked_table.items():
            entry, lefts, k, shift, _ = node
            assert repr(entry) == repr(lazy_table[w][0]) == repr(oracle.values(w))
            assert repr((lefts, k)) == repr(lazy_table[w][1:3])
            # the shift is the trie's own node of w[1:]
            assert shift is (walked_table[w[1:]] if w else None)
        # a walk over recorded words reads their entries as they are
        assert repr(vars(verify_equation(lazy, max_r, letters))) == repr(vars(report))
        assert trie_table(lazy).keys() == walked_table.keys()

    def test_each_word_solved_once_in_walk_order(self, monkeypatch):
        freq = VERIFY_CASES["rational_exact"]
        asked, solved, stepped, hits = [], [], [], []
        child, path, step = MouldSolver.child, MouldSolver.path, solver_module.step

        def recording_child(self, parent, word):
            asked.append(word)
            if word[-1] not in parent[4]:
                solved.append(word)
            return child(self, parent, word)

        def recording_step(*args):
            stepped.append(args)
            return step(*args)

        def recording_path(self, word):
            hits.append(word in trie_table(self))
            return path(self, word)

        monkeypatch.setattr(MouldSolver, "child", recording_child)
        monkeypatch.setattr(solver_module, "step", recording_step)
        monkeypatch.setattr(MouldSolver, "path", recording_path)
        assert verify_equation(MouldSolver(freq), 5, MIXED_ALPHABET).ok
        walk = list(alphabet.words_over(MIXED_ALPHABET, 5))
        assert asked == solved == walk
        assert len(stepped) == len(walk)
        # the gauge sums read exp(+-G), and so G, down paths from the
        # root: every word they ask for is recorded, so path() solves nothing
        assert hits and all(hits)

    def test_walk_without_resonant_words_enters_no_values_call(self, golden_freq, monkeypatch):
        # over the golden mean no word over these letters is resonant, so
        # no gauge sum reads exp(+-G): the walk enters no path from the
        # root, which values, G and exp all take
        solver = MouldSolver(golden_freq)

        def refused(self, word):
            raise AssertionError(f"path({word!r}) entered")

        monkeypatch.setattr(MouldSolver, "path", refused)
        assert verify_equation(solver, 4, ((1, 0), (0, 1), (1, 1))).ok
        assert len(trie_table(solver)) == 1 + 3 + 9 + 27 + 81

