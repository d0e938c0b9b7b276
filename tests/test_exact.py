"""``exact.QI`` against the Fraction-pair oracle, operator by operator and
through the whole exact solve."""

import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mouldnf.alphabet
import mouldnf.exact
import mouldnf.mould
from mouldnf import Frequency
from mouldnf.alphabet import words_over
from mouldnf.cli import load_config
from mouldnf.exact import QI, scalar_abs
from mouldnf.mould import write_table
from mouldnf.solver import MouldSolver, verify_equation

from oracles import FractionQI, Mould, solver_moulds

REPO = Path(__file__).parent.parent
RATIONALS = st.integers(-10 ** 30, 10 ** 30) | st.fractions(max_denominator=10 ** 12)
PAIRS = st.tuples(RATIONALS, RATIONALS)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def assert_same(new, old):
    """``new`` is int 0, the only exact zero, when the value ``old``
    holds is zero, and otherwise the QI for it, in lowest terms: the
    canonical triple and hash of the QI built from its parts."""
    assert isinstance(old, FractionQI)
    if old.is_zero():
        assert type(new) is int and new == 0
        return
    assert isinstance(new, QI)
    assert (new.re, new.im) == (old.re, old.im)
    assert new.as_strings() == old.as_strings()
    assert repr(new) == repr(old)
    assert math.gcd(new._a, new._b, new._d) == 1 and new._d > 0
    built = QI(old.re, old.im)
    assert (new._a, new._b, new._d) == (built._a, built._b, built._d)
    assert hash(new) == hash(built)


def assert_op_matches(op, new_args, old_args):
    try:
        expected = op(*old_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*new_args)
        return
    got = op(*new_args)
    if not any(isinstance(a, QI) for a in new_args):
        # int 0, the QI of a zero pair, with an int or a Fraction is
        # their own arithmetic: 0 / n is a float
        assert Fraction(got) == expected.re and expected.im == 0
        return
    assert_same(got, expected)


class TestAgainstFractionOracle:
    @settings(max_examples=300)
    @given(PAIRS, PAIRS)
    def test_binary_operators(self, x, y):
        for op in BINARY:
            assert_op_matches(op, (QI(*x), QI(*y)), (FractionQI(*x), FractionQI(*y)))
        assert_same(-QI(*x), -FractionQI(*x))

    @settings(max_examples=300)
    @given(PAIRS, RATIONALS)
    def test_mixed_with_int_and_fraction(self, x, s):
        for op in BINARY:
            assert_op_matches(op, (QI(*x), s), (FractionQI(*x), s))
            # the reflected forms: __radd__, __rsub__, __rmul__, __rtruediv__
            assert_op_matches(op, (s, QI(*x)), (s, FractionQI(*x)))

    @settings(max_examples=300)
    @given(PAIRS, PAIRS, RATIONALS)
    def test_equality(self, x, y, s):
        assert (QI(*x) == QI(*y)) == (FractionQI(*x) == FractionQI(*y))
        assert (QI(*x) == s) == (FractionQI(*x) == s)
        assert (s == QI(*x)) == (s == FractionQI(*x))

    @settings(max_examples=300)
    @given(PAIRS)
    def test_floats_bit_equal(self, x):
        new, old = QI(*x), FractionQI(*x)
        assert abs(new) == abs(old)
        assert complex(new) == complex(old)
        assert scalar_abs(new) == abs(old)

    @given(PAIRS)
    def test_boundary_forms(self, x):
        new, old = QI(*x), FractionQI(*x)
        assert_same(new, old)
        assert_same(QI.from_strings(old.as_strings()), old)
        assert_same(QI.coerce(x[0]), FractionQI.coerce(x[0]))
        assert bool(new) == bool(old) != old.is_zero()

    @given(PAIRS)
    def test_division_by_zero(self, x):
        # 0/0 raises too: the zero-divisor check comes before any zero
        # short cut
        for numerator in (QI(*x), QI(0, 0)):
            for zero in (0, Fraction(0), QI(0, 0), QI(1, 1) - QI(1, 1)):
                with pytest.raises(ZeroDivisionError):
                    numerator / zero
        for numerator in (x[0], 0):
            with pytest.raises(ZeroDivisionError):
                numerator / QI(0, 0)


# 0, 1 and -1 drawn often, each as an int, a Fraction, a real QI or a
# part of a QI, next to the general rationals
UNITS = st.sampled_from((0, 1, -1))
PARTS = UNITS | RATIONALS
OPERANDS = st.one_of(
    st.tuples(PARTS, PARTS).map(lambda x: (QI(*x), FractionQI(*x))),
    UNITS.map(lambda s: (QI(s), FractionQI(s))),
    PARTS.map(lambda s: (s, s)),
    PARTS.map(lambda s: (Fraction(s), Fraction(s))),
)


class TestZerosAndUnits:
    """The exact-zero and unit short cuts give the oracle's value as the
    same canonical triple, with the same hash."""

    @settings(max_examples=500)
    @given(OPERANDS, OPERANDS)
    def test_binary_operators_both_sides(self, x, y):
        (new_x, old_x), (new_y, old_y) = x, y
        assume(isinstance(new_x, QI) or isinstance(new_y, QI))
        # with a QI on either side this covers the reflected forms
        for op in BINARY:
            assert_op_matches(op, (new_x, new_y), (old_x, old_y))



NONZERO = st.tuples(PARTS, PARTS).filter(any).map(lambda x: (QI(*x), FractionQI(*x)))


class TestIntZero:
    """Zero is int 0, the only exact zero: no QI is zero, and each of
    the nine operators gives int 0 exactly when the oracle's value is
    zero, and otherwise a QI with the oracle's canonical triple."""

    @given(PARTS, PARTS)
    def test_constructors_return_int_zero(self, re, im):
        pair = [str(Fraction(re)), str(Fraction(im))]
        for value in (QI(re, im), QI.from_strings(pair)):
            assert_same(value, FractionQI(re, im))
        for zero in (0, Fraction(0)):
            assert type(QI.coerce(zero)) is int and QI.coerce(zero) == 0
        assert "__bool__" not in vars(QI)

    @settings(max_examples=500)
    @given(NONZERO, OPERANDS)
    def test_nine_operators(self, x, y):
        (new_x, old_x), (new_y, old_y) = x, y
        for name in QI_OPERATORS:
            new_args, old_args = ((new_x,), (old_x,)) if name == "__neg__" else ((new_x, new_y), (old_x, old_y))
            try:
                expected = getattr(FractionQI, name)(*old_args)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    getattr(QI, name)(*new_args)
                continue
            got = getattr(QI, name)(*new_args)
            assert (type(got) is int and got == 0) == expected.is_zero(), name
            assert_same(got, expected)


# int operands 0 and +-1 drawn often, next to large ones of either sign
INTS = UNITS | st.integers(-10 ** 30, 10 ** 30)


class TestIntOperands:
    """An int operand is not coerced: ``x + 0``, ``x * 1`` and ``x / 1``
    are ``x``, ``x * n`` scales the numerators and ``x / n`` the
    denominator, with the sign of a negative ``n`` moved to the
    numerators.  Each result is the oracle's value as the canonical
    triple, on either side."""

    @settings(max_examples=500)
    @given(st.tuples(PARTS, PARTS), INTS)
    def test_binary_operators_both_sides(self, x, n):
        for op in BINARY:
            assert_op_matches(op, (QI(*x), n), (FractionQI(*x), n))
            assert_op_matches(op, (n, QI(*x)), (n, FractionQI(*x)))

    @given(st.tuples(PARTS, PARTS))
    def test_int_identities_return_the_operand(self, x):
        x = QI(*x)
        assume(isinstance(x, QI))  # a zero pair is int 0, and 0 / 1 a float
        assert x + 0 is x and 0 + x is x
        assert x * 1 is x and 1 * x is x and x / 1 is x

    @given(st.tuples(PARTS, PARTS))
    def test_division_by_int_zero_raises(self, x):
        for numerator in (QI(*x), QI(0, 0)):
            with pytest.raises(ZeroDivisionError):
                numerator / 0
        with pytest.raises(ZeroDivisionError):
            0 / QI(0, 0)


class TestHash:
    @settings(max_examples=300)
    @given(RATIONALS)
    def test_real_value_hashes_like_its_rational(self, s):
        assert QI(s, 0) == s and hash(QI(s, 0)) == hash(s)
        assert len({QI(s, 0), s}) == 1

    def test_seen_collisions_resolved(self):
        assert len({QI(1, 0), 1}) == 1
        assert len({QI(Fraction(1, 2)), Fraction(1, 2)}) == 1

    @settings(max_examples=300)
    @given(PAIRS, PAIRS)
    def test_equal_values_hash_equal(self, x, y):
        a = QI(*x)
        b = QI(*y)
        if b:
            # (a * b) / b reaches a's value by another route
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)
        assert hash(a + b - b) == hash(a)


# The verify-exact benchmark's alphabet: (2, -1) is resonant for omega = (1, 2).
LETTERS = ((1, 0), (1, -1), (2, -1))
MAX_R = 6


class OracleQI(FractionQI):
    """The oracle, with the trusted constructor ``Frequency`` calls."""

    @staticmethod
    def _of(a, b, d):
        return FractionQI(Fraction(a, d), Fraction(b, d))


def exact_solve():
    """F, S and G on every word up to ``MAX_R``, and the equation report."""
    freq = Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])
    solver = MouldSolver(freq)
    tables = write_table(solver_moulds(solver), LETTERS, MAX_R, exact=True)
    report = verify_equation(solver, MAX_R, LETTERS)
    return tables, vars(report), solver.values(LETTERS)[1]


# the nine operators, each counted under its own name
QI_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class TestVerifyWork:
    """The exact verify solve, counted, not timed: zero is int 0 and
    costs no Q(i) arithmetic, exp(-G) shares the power columns of exp(G),
    int operands are not coerced, eigenvalues build no Fraction, each
    distinct letter sum forms one eigenvalue, each word evaluates no
    combinator mould and reads S and F from lists rather than moulds, and
    the gauge sums read exp(+-G) from memos keyed by node."""

    # ``vars`` of the report, as summing every zero term gives it
    REPORT = (
        "{'words_checked': 1093, 'max_residual': 0.0, 'max_nabla_f': 0.0, 'max_gauge': 0.0, "
        "'scale': 20.0, 'exact': True, 'tol': 1e-09}"
    )

    def test_counts_pinned(self, monkeypatch):
        freq = Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])
        solver = MouldSolver(freq)
        counts = {"QI._of": 0, "QI operators": 0, "Fraction": 0, "Mould calls": 0}
        of, new, call = QI._of, Fraction.__new__, Mould.__call__

        def counting_of(a, b, d):
            counts["QI._of"] += 1
            return of(a, b, d)

        def counting_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        def counting_call(mould, word):
            counts["Mould calls"] += 1
            return call(mould, word)

        def counting_operator(op):
            def counted(*args):
                counts["QI operators"] += 1
                return op(*args)

            return counted

        with monkeypatch.context() as patch:
            # the operators' module-level alias and the eigenvalues' QI._of
            patch.setattr(mouldnf.exact, "_of", counting_of)
            patch.setattr(QI, "_of", staticmethod(counting_of))
            patch.setattr(Fraction, "__new__", counting_new)
            patch.setattr(Mould, "__call__", counting_call)
            for name in QI_OPERATORS:
                patch.setattr(QI, name, counting_operator(vars(QI)[name]))
            report = verify_equation(solver, MAX_R, LETTERS)
        assert repr(vars(report)) == self.REPORT
        # summing every term and coercing every int operand took 42806 and 61130;
        # times(I, S) as a product rather than a shift took 37450 operators;
        # the equation assembled from memoized combinator moulds took 28249
        # QI._of (two eigenvalues per non-resonant word) and 34611 mould calls;
        # S and F read through their moulds on prefixes and suffixes took 22171;
        # a QI zero, and an eigenvalue formed per word in the solve and in
        # the check, took 27379 QI._of and 35308 operators; exp(+-G) from
        # memoized moulds, with the gauge split on the empty suffix, took
        # 25591 QI._of, 34397 operators and 5698 mould calls
        assert counts == {"QI._of": 25263, "QI operators": 34065, "Fraction": 0, "Mould calls": 0}


def closure_values(freq, alphabet, max_r=5):
    """F, S, N, G, exp(G) and exp(-G) on every word up to ``max_r``."""
    solver = MouldSolver(freq)
    for w in [(), *words_over(alphabet, max_r)]:
        yield (w, *solver.values(w), solver.G(w), solver.exp(w), solver.exp(w, -1))


@pytest.mark.parametrize("source", ["verify-exact-r6", "rational_moulds.json"])
def test_exact_values_are_int_zero_one_or_nonzero_qi(source):
    if source == "verify-exact-r6":
        freq = Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])
        alphabet = LETTERS
    else:
        config = load_config(REPO / "configs" / source, exact=True)
        freq, alphabet = config.freq, config.alphabet
    kinds = set()
    for w, *values in closure_values(freq, alphabet):
        for value in values:
            if type(value) is int:
                assert value in (0, 1), (w, value)
            else:
                assert type(value) is QI and (value._a or value._b), (w, value)
            kinds.add(type(value))
    assert kinds == {int, QI}


def test_exact_solve_matches_fraction_oracle(monkeypatch):
    tables, report, value = exact_solve()
    assert isinstance(value, QI)
    assert report["exact"] and report["max_residual"] == 0.0
    assert len(tables["S"]) == sum(len(LETTERS) ** r for r in range(1, MAX_R + 1))

    monkeypatch.setattr(mouldnf.alphabet, "QI", OracleQI)
    monkeypatch.setattr(mouldnf.alphabet, "_QI_ONE", FractionQI(1, 0))
    monkeypatch.setattr(mouldnf.mould, "QI", FractionQI)
    monkeypatch.setattr(mouldnf.exact, "QI", FractionQI)
    oracle_tables, oracle_report, oracle_value = exact_solve()
    assert isinstance(oracle_value, FractionQI)

    assert tables == oracle_tables
    assert report == oracle_report
