import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.exact import QI, scalar_abs
from mouldnf.mould import (
    Mould,
    check_alternal,
    dump_table,
    from_table,
    ident_mould,
    load_table,
    madd,
    mexp,
    mlog,
    mneg,
    nabla,
    nabla1,
    resonant_part,
    times,
)

from oracles import composition_series, unit_mould, zero_mould

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
        M = unit_filled = from_table({}, default=1.0)
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
        G = from_table(table)
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


class TestAlternality:
    def test_ident_is_alternal(self):
        rep = check_alternal(ident_mould(), 4, LETTERS)
        assert rep.ok
        assert rep.pairs_checked > 0

    def test_unit_mould_fails_precondition(self):
        with pytest.raises(ValueError):
            check_alternal(unit_mould(), 3, LETTERS)

    def test_violating_mould_reported(self):
        table = {(X, Y): 1.0, (Y, X): 1.0}
        M = from_table(table)
        rep = check_alternal(M, 2, (X, Y), tol=1e-10)
        assert not rep.ok
        assert rep.violations


class TestTableIO:
    def test_float_roundtrip(self):
        M = random_mould(19)
        words = words_up_to(3)
        table = json.loads(json.dumps(dump_table(M, words), sort_keys=True))
        loaded = load_table(table)
        for w in words:
            assert loaded(w) == pytest.approx(M(w))

    def test_exact_roundtrip(self):
        table_in = {(X,): QI(1, 2), (X, Y): QI("1/3", "-2/7")}
        M = from_table(table_in, default=QI(0, 0))
        dumped = dump_table(M, list(table_in), exact=True)
        loaded = load_table(dumped, exact=True)
        for w, v in table_in.items():
            assert loaded(w) == v

    def test_serialization_is_sorted_and_stable(self):
        M = random_mould(20)
        words = words_up_to(2)
        dumped = json.dumps(dump_table(M, words), sort_keys=True)
        assert dumped == json.dumps(dump_table(M, list(reversed(words))), sort_keys=True)


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
