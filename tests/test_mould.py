import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf import mould as mould_module
from mouldnf.exact import QI, scalar_abs
from mouldnf import solver as solver_module
from mouldnf.mould import check_alternal, read_table, write_table
from mouldnf.solver import MouldSolver

from oracles import (
    Mould,
    composition_series,
    ident_mould,
    ksum,
    madd,
    mexp,
    mlog,
    mneg,
    nabla,
    nabla1,
    resonant_part,
    solver_moulds,
    summing_check_alternal,
    summing_series,
    table_mould,
    times,
    unit_mould,
    zero_mould,
)

X, Y, Z = (1, 0), (0, 1), (-1, 0)
LETTERS = (X, Y, Z)


def words_up_to(r_max, letters=LETTERS):
    out = [()]
    for r in range(1, r_max + 1):
        out.extend(itertools.product(letters, repeat=r))
    return out


def random_mould(seed, empty=0.0):
    rng = random.Random(seed)
    table = {}

    def fn(word):
        if len(word) == 0:
            return complex(empty)
        if word not in table:
            table[word] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return table[word]

    return Mould(fn, name=f"rand{seed}")


class TestTimes:
    def test_ident_squared_on_pair(self):
        I = ident_mould()
        assert times(I, I)((X, Y)) == 1

    def test_unit_identity_both_sides(self):
        M = random_mould(1)
        left = times(unit_mould(), M)
        right = times(M, unit_mould())
        for w in words_up_to(3):
            assert left(w) == pytest.approx(M(w))
            assert right(w) == pytest.approx(M(w))

    def test_ident_times_shifts_head(self):
        M = random_mould(2)
        IM = times(ident_mould(), M)
        for w in words_up_to(4):
            if len(w) == 0:
                assert IM(w) == 0
            else:
                assert IM(w) == pytest.approx(M(w[1:]))

    def test_associative_exhaustive(self):
        A, B, C = random_mould(3), random_mould(4), random_mould(5)
        lhs = times(times(A, B), C)
        rhs = times(A, times(B, C))
        for w in words_up_to(5):
            assert lhs(w) == pytest.approx(rhs(w))


class TestNabla:
    def test_resonant_word_exactly_zero(self, golden_freq):
        M = random_mould(6)
        assert nabla(M, golden_freq)((X, Z)) == 0

    def test_single_letter_scales(self):
        freq = Frequency((1.0,))
        M = random_mould(7)
        w = ((1,),)
        assert nabla(M, freq)(w) == pytest.approx(1j * M(w))

    def test_resonant_supported_mould_killed(self, golden_freq):
        M = resonant_part(random_mould(8), golden_freq)
        NM = nabla(M, golden_freq)
        for w in words_up_to(3):
            assert NM(w) == 0

    def test_one_letter_sum_and_one_decision_per_word(self, rational_freq_float):
        decided = []

        class CountingFrequency(Frequency):
            def _in_lattice(self, k):
                decided.append(k)
                return super()._in_lattice(k)

        freq = CountingFrequency(rational_freq_float.omega, rational_freq_float.resonance_basis)
        M = random_mould(11)
        words = words_up_to(3, letters=((1, 0), (1, -1), (2, -1)))[1:]
        values = [nabla(M, freq)(w) for w in words]
        assert decided == [ksum(w) for w in words]
        for w, value in zip(words, values):
            k = ksum(w)
            assert value == (0 if freq.divisors[k] is None else freq.eigenvalue(k, exact_zero=False) * M(w))

    def test_derivation_of_times_exact_on_integer_omega(self, rational_freq_float):
        freq = rational_freq_float
        M, N = random_mould(9), random_mould(10)
        lhs = nabla(times(M, N), freq)
        rhs = madd(times(nabla(M, freq), N), times(M, nabla(N, freq)))
        for w in words_up_to(4, letters=((1, 0), (1, -1), (2, -1))):
            assert lhs(w) == pytest.approx(rhs(w), abs=1e-12)


class TestNabla1:
    def test_empty(self):
        assert nabla1(random_mould(11))(()) == 0

    def test_single_letter_unchanged(self):
        M = random_mould(12)
        w = (X,)
        assert nabla1(M)(w) == M(w)

    def test_triple_letter(self):
        M = random_mould(13)
        w = (X, Y, Z)
        assert nabla1(M)(w) == 3 * M(w)


class TestResonantPart:
    def test_resonant_mould_fixed(self, golden_freq):
        M = resonant_part(random_mould(14), golden_freq)
        again = resonant_part(M, golden_freq)
        for w in words_up_to(3):
            assert again(w) == M(w)

    def test_ident_killed_without_zero_letters(self, golden_freq):
        RI = resonant_part(ident_mould(), golden_freq)
        for w in words_up_to(2):
            assert RI(w) == 0

    def test_filters_word_list(self, rational_freq_float):
        M = unit_filled = table_mould({}, 1.0)
        R = resonant_part(M, rational_freq_float)
        assert R(((2, -1),)) == 1.0
        assert R(((1, 0),)) == 0


class TestExpLog:
    def test_exp_of_zero_is_unit(self):
        E = mexp(zero_mould())
        assert E(()) == 1
        for w in words_up_to(3):
            if len(w) > 0:
                assert E(w) == 0

    def test_exp_on_pair_of_single_letter_support(self):
        table = {(X,): 0.3 + 0.1j, (Y,): -0.2j, (Z,): 0.7}
        G = table_mould(table, 0)
        E = mexp(G)
        # only the two-block composition survives: G(x)G(y)/2!
        assert E((X, Y)) == pytest.approx(table[(X,)] * table[(Y,)] / 2)

    def test_exp_log_inverse_pair(self):
        S = random_mould(15, empty=1.0)
        S2 = mexp(mlog(S))
        for w in words_up_to(5, letters=(X, Y)):
            assert S2(w) == pytest.approx(S(w))

    def test_exp_times_exp_of_negative_is_unit(self):
        G = random_mould(16)
        prod = times(mexp(G), mexp(mneg(G)))
        for w in words_up_to(5, letters=(X, Y)):
            expected = 1 if len(w) == 0 else 0
            assert prod(w) == pytest.approx(expected, abs=1e-12)

    def test_log_of_unit_is_zero(self):
        L = mlog(unit_mould())
        for w in words_up_to(3):
            assert L(w) == 0

    def test_log_single_letter(self):
        S = random_mould(17, empty=1.0)
        assert mlog(S)((X,)) == pytest.approx(S((X,)))

    def test_log_pair_expansion(self):
        S = random_mould(18, empty=1.0)
        w = (X, Y)
        expected = S(w) - S((X,)) * S((Y,)) / 2
        assert mlog(S)(w) == pytest.approx(expected)

    def test_exp_requires_vanishing_empty_value(self):
        with pytest.raises(ValueError):
            mexp(unit_mould())

    def test_log_requires_unit_empty_value(self):
        with pytest.raises(ValueError):
            mlog(zero_mould())


EXP_COEFFICIENT = lambda k: (1, math.factorial(k))
EXP_MINUS_COEFFICIENT = lambda k: ((-1) ** k, math.factorial(k))
LOG_COEFFICIENT = lambda k: ((-1) ** (k - 1), k)
# words of length 1..7 over letters that give both resonant and
# non-resonant subwords
SERIES_WORDS = st.lists(st.sampled_from((X, Y, Z, (1, 1))), min_size=1, max_size=7).map(tuple)
# for omega = (1, 2), resonant through (2, -1): over these letters the
# solver's resonant words read the gauge and the others divide
SOLVER_LETTERS = {X: (1, 0), Y: (2, -1), Z: (-2, 1), (1, 1): (1, -1)}
FREQS = {
    True: Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)]),
    False: Frequency((1.0, 2.0), resonance_basis=[(2, -1)]),
}


def seeded_mould(seed, empty, value):
    """A mould whose value on each word is ``value(rng)`` for an rng
    seeded by the word, so every word has a fixed pseudo-random value."""
    return Mould(
        lambda w: empty if len(w) == 0 else value(random.Random(f"{seed}:{w}")),
        name=f"seeded{seed}",
    )


def seeded_solver(seed, value, exact):
    """A solver whose gauge on each resonant word is ``value(rng)`` for an
    rng seeded by the word, so S takes pseudo-random values there."""
    return MouldSolver(FREQS[exact], gauge=lambda w: value(random.Random(f"{seed}:{w}")))


def solver_word(word):
    """``word``, drawn over ``SERIES_WORDS``'s letters, over the solver's."""
    return tuple(SOLVER_LETTERS[letter] for letter in word)


def exact_value(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QI(re, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def float_value(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def series_values(solver, word):
    """G, exp(G) and exp(-G) of ``solver`` on ``word``."""
    return solver.G(word), solver.exp(word), solver.exp(word, -1)


def composition_values(solver, word):
    """G, exp(G) and exp(-G) on ``word`` as the composition sums over S and G."""
    S = lambda w: solver.values(w)[1]
    return tuple(
        composition_series(M, word, coefficient)
        for M, coefficient in ((S, LOG_COEFFICIENT), (solver.G, EXP_COEFFICIENT),
                               (solver.G, EXP_MINUS_COEFFICIENT))
    )


def counting(monkeypatch, name):
    """Count the calls of ``solver.<name>``; the list of counts is returned."""
    calls = [0]
    fn = getattr(solver_module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(solver_module, name, counted)
    return calls


class TestSeriesRecursion:
    """The solver's G and exp(+-G), from the prefix recursion on its
    trie, against the composition sum."""

    @given(st.integers(0, 10 ** 6), SERIES_WORDS)
    def test_exact_equals_composition_sum(self, seed, word):
        solver, word = seeded_solver(seed, exact_value, True), solver_word(word)
        assert series_values(solver, word) == composition_values(solver, word)

    @given(st.integers(0, 10 ** 6), SERIES_WORDS)
    def test_float_matches_composition_sum(self, seed, word):
        solver, word = seeded_solver(seed, float_value, False), solver_word(word)
        S = lambda w: solver.values(w)[1]
        for got, want, M, coefficient in zip(
            series_values(solver, word), composition_values(solver, word),
            (S, solver.G, solver.G), (LOG_COEFFICIENT, EXP_COEFFICIENT, EXP_COEFFICIENT),
        ):
            # the mass of the sum: every term taken in absolute value
            mass = composition_series(lambda w: abs(M(w)), word, lambda k: (1, coefficient(k)[1]))
            assert abs(got - want) <= 1e-12 * mass

    @pytest.mark.parametrize("series", ["exp", "log"])
    def test_one_column_per_node(self, series, monkeypatch):
        # the r subwords X^1..X^r of X^r are its r prefixes
        columns = counting(monkeypatch, "power_column")
        sums = counting(monkeypatch, "series_sum")
        for r in range(1, 8):
            solver = MouldSolver(FREQS[False])
            columns[0] = sums[0] = 0
            (solver.exp if series == "exp" else solver.G)((X,) * r)
            # exp(G) forms its r columns over G and reads G on the r nodes
            assert columns[0] == (2 * r if series == "exp" else r)
            assert sums[0] == (r + 1 if series == "exp" else 1)
            # once every prefix has its values, asking again forms nothing
            for i in range(r + 1):
                series_values(solver, (X,) * i)
            columns[0] = sums[0] = 0
            for i in range(r + 1):
                series_values(solver, (X,) * i)
            assert columns[0] == sums[0] == 0


class TestSeriesColumnMemo:
    """The solver keeps the power columns of every node it met, so a word
    may reuse columns that other words built; its values must not depend
    on which words came first."""

    @staticmethod
    def closed_words(words):
        # every non-empty prefix, so that words extend one another
        return sorted({solver_word(w[:i]) for w in words for i in range(1, len(w) + 1)})

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4), st.randoms())
    def test_exact_shuffled_order_equals_composition_sum(self, seed, words, rng):
        solver = seeded_solver(seed, exact_value, True)
        words = self.closed_words(words)
        rng.shuffle(words)
        for w in words:
            assert series_values(solver, w) == composition_values(solver, w)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4), st.randoms())
    def test_float_bit_identical_across_orders(self, seed, words, rng):
        words = self.closed_words(words)
        shuffled = list(words)
        rng.shuffle(shuffled)
        # longest first: a prefix then finds its own column formed
        longest_first = sorted(words, key=len, reverse=True)
        values = []
        for order in (shuffled, longest_first):
            # a fresh solver each time: its memos hold every column formed
            solver = seeded_solver(seed, float_value, False)
            values.append({w: series_values(solver, w) for w in order})
        # and the word-keyed series of the earlier mould layer
        reference = seeded_solver(seed, float_value, False)
        G = mlog(solver_moulds(reference)["S"])
        exp_g, exp_minus_g = mexp(G), mexp(G, -1)
        for w in words:
            assert repr(values[0][w]) == repr(values[1][w]) == repr((G(w), exp_g(w), exp_minus_g(w)))


def float_value_with_zeros(rng):
    # each part +0.0, -0.0 or not zero, so about a quarter of the values
    # are exact zeros
    return complex(*(rng.choice((0.0, -0.0, rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in "ri"))


def exact_value_with_zeros(rng):
    return QI(0, 0) if rng.random() < 0.3 else exact_value(rng)


class TestSharedColumnsAndZeroSkips:
    """exp(-G) reads the power columns of exp(G); products and powers
    that are exactly zero are skipped.  Both give the values of the fold
    that sums every term into one memo per series."""

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4))
    def test_exp_of_minus_equals_exp_of_negated(self, seed, words):
        for value, exact in ((exact_value_with_zeros, True), (float_value_with_zeros, False)):
            solver = seeded_solver(seed, value, exact)
            reference = mexp(mneg(solver_moulds(solver)["G"]))
            for w in map(solver_word, words):
                # the prefixes of w have their columns once exp(G) has met w
                solver.exp(w)
                assert repr(solver.exp(w, -1)) == repr(reference(w))
                assert solver.exp(w, -1) == reference(w)

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4))
    def test_skipping_series_equals_summing_fold(self, seed, words):
        # power_column and series_sum, through the earlier mould layer on
        # seeded moulds and through the solver's memos
        for (series, coefficient, empty), value in itertools.product(
            ((mexp, EXP_COEFFICIENT, 0), (mlog, LOG_COEFFICIENT, 1)),
            (exact_value_with_zeros, float_value_with_zeros),
        ):
            exact = value is exact_value_with_zeros
            M = seeded_mould(seed, QI(empty, 0) if exact else complex(empty), value)
            new = series(M)
            old = summing_series(M, new(()), coefficient)
            for w in words:
                assert repr(new(w)) == repr(old(w))
                assert new(w) == old(w)
        for value, exact in ((exact_value_with_zeros, True), (float_value_with_zeros, False)):
            solver = seeded_solver(seed, value, exact)
            moulds = solver_moulds(solver)
            old = (summing_series(moulds["S"], 0, LOG_COEFFICIENT),
                   summing_series(moulds["G"], 1, EXP_COEFFICIENT),
                   summing_series(moulds["G"], 1, EXP_MINUS_COEFFICIENT))
            for w in map(solver_word, words):
                assert repr(series_values(solver, w)) == repr(tuple(series(w) for series in old))

    def test_exp_of_minus_evaluates_no_word_again(self, monkeypatch):
        word = solver_word((X, Y, Z, X, Y))
        expected = mexp(mneg(solver_moulds(MouldSolver(FREQS[False]))["G"]))(word)
        solver = MouldSolver(FREQS[False])
        solver.exp(word)
        columns = counting(monkeypatch, "power_column")
        sums = counting(monkeypatch, "series_sum")
        assert repr(solver.exp(word, -1)) == repr(expected)
        # no column is formed, and G is read from its memo: one sum, exp(-G)'s
        assert (columns[0], sums[0]) == (0, 1)


class TestAlternality:
    def test_ident_is_alternal(self):
        (rep,) = check_alternal([ident_mould()], 4, LETTERS)
        assert rep.ok
        assert rep.pairs_checked > 0

    def test_unit_mould_fails_precondition(self):
        with pytest.raises(ValueError):
            check_alternal([unit_mould()], 3, LETTERS)

    def test_violating_mould_reported(self):
        table = {(X, Y): 1.0, (Y, X): 1.0}
        M = table_mould(table, 0)
        (rep,) = check_alternal([M], 2, (X, Y), tol=1e-10)
        assert not rep.ok
        assert rep.violations

    def test_one_letter_float_generator_passes(self):
        # G vanishes on (1, 0)^r for r >= 2, so every shuffle sum, and each
        # pair's own mass, is rounding dust; G((1, 0)) sets the reference
        solver = MouldSolver(Frequency((1.0, 2.0)))
        assert check_alternal([solver.G], 4, [X])[0].ok
        S_off_empty = lambda w: solver.values(w)[1] if w else 0j
        assert not check_alternal([S_off_empty], 4, [X])[0].ok

    @settings(max_examples=60)
    @given(
        st.integers(0, 10 ** 6),
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3, unique=True),
        st.integers(1, 4),
    )
    def test_zero_skipping_matches_summing_check(self, seed, letters, max_r):
        for empty, value in ((QI(0, 0), exact_value_with_zeros), (0j, float_value_with_zeros)):
            (got,) = check_alternal([seeded_mould(seed, empty, value)], max_r, letters)
            want = summing_check_alternal(seeded_mould(seed, empty, value), max_r, letters)
            assert repr(vars(got)) == repr(vars(want))
            assert vars(got) == vars(want)


class TestMirroredPairs:
    """``sh(a, b)`` and ``sh(b, a)`` are one multiset: each unordered pair
    is summed once, and its mirror reads the same residual and mass."""

    def test_one_shuffle_sum_per_unordered_pair(self, monkeypatch):
        built = []
        shuffles = mould_module.shuffles

        def counting(a, b):
            built.append((a, b))
            return shuffles(a, b)

        monkeypatch.setattr(mould_module, "shuffles", counting)
        for empty, value in ((QI(0, 0), exact_value_with_zeros), (0j, float_value_with_zeros)):
            built.clear()
            M = seeded_mould(5, empty, value)
            (got,) = check_alternal([M], 4, LETTERS)
            # 3 + 9 pairs are their own mirror among the 306 ordered pairs
            assert len(built) == len(set(built)) == 159
            assert got.pairs_checked == 306
            want = summing_check_alternal(seeded_mould(5, empty, value), 4, LETTERS)
            assert repr(vars(got)) == repr(vars(want))
            assert vars(got) == vars(want)
            violated = {(a, b) for a, b, _, _ in got.violations}
            assert len(violated) > 100
            assert all((b, a) in violated for a, b in violated)


class TestAlternalityOfSeveralMoulds:
    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans()), min_size=1, max_size=3),
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3, unique=True),
        st.integers(1, 4),
    )
    def test_one_walk_matches_each_mould_alone(self, moulds, letters, max_r):
        # exact and float moulds in one list, each with exact zeros
        def mould(seed, exact):
            if exact:
                return seeded_mould(seed, QI(0, 0), exact_value_with_zeros)
            return seeded_mould(seed, 0j, float_value_with_zeros)

        reports = check_alternal([mould(*m) for m in moulds], max_r, letters)
        assert len(reports) == len(moulds)
        for m, got in zip(moulds, reports):
            want = summing_check_alternal(mould(*m), max_r, letters)
            assert repr(vars(got)) == repr(vars(want))
            assert vars(got) == vars(want)

    def test_every_mould_checked_for_the_empty_word(self):
        with pytest.raises(ValueError):
            check_alternal([ident_mould(), unit_mould()], 3, LETTERS)


class TestTableIO:
    def test_float_roundtrip(self):
        moulds = {name: random_mould(seed) for name, seed in zip("FSG", (19, 20, 21))}
        payload = write_table(moulds, LETTERS, 3)
        assert (payload["alphabet"], payload["max_r"], payload["exact"]) == ([list(k) for k in LETTERS], 3, False)
        loaded = read_table(json.loads(json.dumps(payload, sort_keys=True)), 2)
        words = words_up_to(3)[1:]
        for name, M in moulds.items():
            assert loaded[name].keys() == set(words)
            for w in words:
                assert loaded[name][w] == M(w)

    def test_exact_roundtrip(self):
        table_in = {(X,): QI(1, 2), (X, Y): QI("1/3", "-2/7")}
        M = table_mould(table_in, QI(0, 0))
        dumped = write_table({"F": M, "S": M, "G": M}, [X, Y], 2, exact=True)
        loaded = read_table(json.loads(json.dumps(dumped)), 2, exact=True)
        for name in "FSG":
            assert len(loaded[name]) == 6
            for w, v in loaded[name].items():
                assert v == table_in.get(w, 0)
                assert type(v) is (QI if w in table_in else int)

    def test_serialization_is_sorted_and_stable(self):
        M = random_mould(20)
        moulds = {"F": M, "S": M, "G": M}
        dumped = write_table(moulds, LETTERS, 2)
        words = sorted(words_up_to(2)[1:], key=lambda w: (len(w), w))
        assert list(dumped["F"]) == ["|".join(f"{a},{b}" for a, b in w) for w in words]
        reordered = write_table(moulds, list(reversed(LETTERS)), 2)
        assert json.dumps(reordered["F"]) == json.dumps(dumped["F"])

    def test_malformed_key_refused_naming_key_or_section(self):
        # int would also read these, as other spellings of written keys
        for key in ("1.5,0", "1,0|x", "1,,0", " 1,0", "+1,0", "01,0", "-0,0", "1_0,0"):
            with pytest.raises(ValueError, match="not a word of integer letters"):
                read_table({"F": {}, "S": {}, "G": {key: [0.0, 0.0]}}, 2)
        with pytest.raises(ValueError, match="a key in S has a letter not of dimension 2"):
            read_table({"F": {"1,0": [0.0, 0.0]}, "S": {"1,0|1": [0.0, 0.0]}, "G": {}}, 2)
        assert read_table({"F": {"": [1.0, 0.0]}, "S": {}, "G": {}}, 2)["F"] == {(): 1 + 0j}


class TestScalarHelpers:
    def test_qi_field_ops(self):
        a = QI("1/2", "1/3")
        b = QI(2, -1)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert -(-a) == a
        assert a + 0 == a
        assert 1 * a == a
        assert scalar_abs(QI(3, 4)) == pytest.approx(5.0)

    def test_qi_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QI(1, 0) / QI(0, 0)
