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
from mouldnf.mould import (
    Mould,
    check_alternal,
    mexp,
    mlog,
    read_table,
    write_table,
)
from mouldnf.solver import MouldSolver

from oracles import (
    composition_series,
    ident_mould,
    ksum,
    madd,
    mneg,
    nabla,
    nabla1,
    resonant_part,
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
LOG_COEFFICIENT = lambda k: ((-1) ** (k - 1), k)
# words of length 1..7 over letters that give both resonant and
# non-resonant subwords
SERIES_WORDS = st.lists(st.sampled_from((X, Y, Z, (1, 1))), min_size=1, max_size=7).map(tuple)


def seeded_mould(seed, empty, value):
    """A mould whose value on each word is ``value(rng)`` for an rng
    seeded by the word, so every word has a fixed pseudo-random value."""
    return Mould(
        lambda w: empty if len(w) == 0 else value(random.Random(f"{seed}:{w}")),
        name=f"seeded{seed}",
    )


def exact_value(rng):
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QI(re, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def float_value(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


class CountingMould:
    """A mould that counts its evaluations; it has no memo of its own."""

    def __init__(self, empty):
        self.empty = empty
        self.calls = 0
        self.name = "counting"

    def __call__(self, word):
        self.calls += 1
        return self.empty if len(word) == 0 else 1.0 / (1 + len(word))


class TestSeriesRecursion:
    """The prefix recursion of exp/log against the composition sum."""

    @given(st.integers(0, 10 ** 6), SERIES_WORDS)
    def test_exact_equals_composition_sum(self, seed, word):
        G = seeded_mould(seed, QI(0, 0), exact_value)
        S = seeded_mould(seed, QI(1, 0), exact_value)
        assert mexp(G)(word) == composition_series(G, word, EXP_COEFFICIENT)
        assert mlog(S)(word) == composition_series(S, word, LOG_COEFFICIENT)

    @given(st.integers(0, 10 ** 6), SERIES_WORDS)
    def test_float_matches_composition_sum(self, seed, word):
        for M, series, coefficient in (
            (seeded_mould(seed, 0j, float_value), mexp, EXP_COEFFICIENT),
            (seeded_mould(seed, 1 + 0j, float_value), mlog, LOG_COEFFICIENT),
        ):
            # the mass of the sum: every term taken in absolute value
            mass = composition_series(
                lambda w: abs(M(w)), word, lambda k: (1, coefficient(k)[1])
            )
            assert abs(series(M)(word) - composition_series(M, word, coefficient)) <= 1e-12 * mass

    @pytest.mark.parametrize("series, empty", [(mexp, 0.0), (mlog, 1.0)])
    def test_one_evaluation_per_subword(self, series, empty):
        for r in range(1, 8):
            M = CountingMould(empty)
            result = series(M)
            M.calls = 0
            result((X,) * r)
            assert M.calls == r * (r + 1) // 2


class TestSeriesColumnMemo:
    """One series keeps the power columns of every prefix it met, so a
    word may reuse columns that other words built; its value must not
    depend on which words came first."""

    @staticmethod
    def closed_words(words):
        # every non-empty prefix, so that words extend one another
        return sorted({w[:i] for w in words for i in range(1, len(w) + 1)})

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4), st.randoms())
    def test_exact_shuffled_order_equals_composition_sum(self, seed, words, rng):
        G = seeded_mould(seed, QI(0, 0), exact_value)
        S = seeded_mould(seed, QI(1, 0), exact_value)
        exp_g, log_s = mexp(G), mlog(S)
        words = self.closed_words(words)
        rng.shuffle(words)
        for w in words:
            assert exp_g(w) == composition_series(G, w, EXP_COEFFICIENT)
            assert log_s(w) == composition_series(S, w, LOG_COEFFICIENT)

    @settings(max_examples=30)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4), st.randoms())
    def test_float_bit_identical_across_orders(self, seed, words, rng):
        words = self.closed_words(words)
        shuffled = list(words)
        rng.shuffle(shuffled)
        # longest first: a prefix then finds its own column cached
        longest_first = sorted(words, key=len, reverse=True)
        for series, empty in ((mexp, 0j), (mlog, 1 + 0j)):
            values = []
            for order in (shuffled, longest_first):
                # a fresh mould each time: series over one mould share columns
                evaluate = series(seeded_mould(seed, empty, float_value))
                values.append({w: evaluate(w) for w in order})
            for w in words:
                assert repr(values[0][w]) == repr(values[1][w])


def float_value_with_zeros(rng):
    # each part +0.0, -0.0 or not zero, so about a quarter of the values
    # are exact zeros
    return complex(*(rng.choice((0.0, -0.0, rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in "ri"))


def exact_value_with_zeros(rng):
    return QI(0, 0) if rng.random() < 0.3 else exact_value(rng)


class TestSharedColumnsAndZeroSkips:
    """Every series over one mould shares its power columns, so exp(-G)
    reads those of exp(G); products and powers that are exactly zero are
    skipped.  Both give the values of the fold that sums every term into
    one memo per series."""

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4))
    def test_exp_of_minus_equals_exp_of_negated(self, seed, words):
        for empty, value in ((QI(0, 0), exact_value_with_zeros), (0j, float_value_with_zeros)):
            G = seeded_mould(seed, empty, value)
            exp_g, exp_minus_g, reference = mexp(G), mexp(G, -1), mexp(mneg(G))
            for w in words:
                # the prefixes of w are in the memo once exp(G) has met w
                exp_g(w)
                assert repr(exp_minus_g(w)) == repr(reference(w))
                assert exp_minus_g(w) == reference(w)

    @settings(max_examples=60)
    @given(st.integers(0, 10 ** 6), st.lists(SERIES_WORDS, min_size=1, max_size=4))
    def test_skipping_series_equals_summing_fold(self, seed, words):
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

    def test_exp_of_minus_evaluates_no_word_again(self):
        G = CountingMould(0.0)
        word = (X, Y, Z, X, Y)
        expected = mexp(mneg(Mould(G)))(word)
        exp_g, exp_minus_g = mexp(G), mexp(G, -1)
        exp_g(word)
        G.calls = 0
        assert repr(exp_minus_g(word)) == repr(expected)
        assert G.calls == 0


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
        assert check_alternal([solver.G_mould], 4, [X])[0].ok
        S_off_empty = Mould(lambda w: solver.S_mould(w) if w else 0j, name="S - 1")
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
