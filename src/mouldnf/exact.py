"""Exact complex-rational scalars for the rational-frequency mode.

When every component of omega is rational, all eigenvalues are purely
imaginary rationals and the whole mould recursion stays inside Q(i).
``QI`` is a minimal field implementation for that case; it interoperates
with ``int`` and ``Fraction`` so generic mould code runs unchanged.

A ``QI`` stores one Gaussian-integer numerator over one denominator:
the value ``(a + ib) / d`` as three ints, kept in lowest terms, so
``gcd(a, b, d) == 1`` and ``d > 0``.  The form is canonical, so two
values are equal exactly when their triples are.  An operator on two
``QI`` values is plain int arithmetic followed by one three-argument
``math.gcd``.

Zero is ``int`` 0, and a ``QI`` is never zero: ``QI(0, 0)``,
``QI.from_strings(["0", "0"])``, ``QI.coerce(0)`` and every operator
whose value vanishes return ``int`` 0.  ``QI`` defines no ``__bool__``,
so a truth test (``if value:``) of an exact value runs at C speed: int 0
is false and a ``QI`` true.  A zero ``int`` or ``Fraction`` operand
takes no arithmetic and no coercion: ``x + 0`` and ``x - 0`` are ``x``,
``0 - x`` is ``-x``, ``x * 0`` and ``0 / x`` are ``0``, and ``x / 0``
raises ``ZeroDivisionError``.  No other ``int`` operand of ``*`` or
``/`` is coerced either: ``x * 1`` and ``x / 1`` are ``x``, ``x * n``
scales the numerators and ``x / n`` the denominator, with the sign of a
negative ``n`` moved to the numerators.  Every result is the same
canonical triple either way, and no ``Fraction`` is built per
operation.  ``Fraction`` appears only at the boundary: the public
constructor, :meth:`QI.from_strings` and the ``re``/``im`` properties.
A ``QI`` hashes like the complex number it is, the rational hash of its
real part plus ``sys.hash_info.imag`` times that of its imaginary part,
so ``hash(QI(x, 0)) == hash(x)`` for ``int`` and ``Fraction`` ``x``,
which it compares equal to.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

_RAT = (int, Fraction)
_MODULUS = sys.hash_info.modulus


def _rational_hash(n, d):
    """``hash(Fraction(n, d))`` for ``d > 0``, without building the Fraction."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    try:
        inverse = pow(d, -1, _MODULUS)
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    else:
        h = abs(n) % _MODULUS * inverse % _MODULUS
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


class QI:
    """A nonzero complex number with rational real and imaginary parts;
    its zero is ``int`` 0, which the constructors return."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        return _of(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    @staticmethod
    def _of(a, b, d):
        """The value ``(a + ib) / d`` for ints ``a``, ``b`` and ``d > 0``,
        put in lowest terms, or ``int`` 0; the arguments are trusted
        unchecked."""
        if not (a or b):
            return 0
        g = math.gcd(a, b, d)
        q = _new(QI)
        if g == 1:
            q._a = a
            q._b = b
            q._d = d
        else:
            q._a = a // g
            q._b = b // g
            q._d = d // g
        return q

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @classmethod
    def coerce(cls, value):
        """``value`` as a ``QI``, or ``int`` 0 for a zero ``int`` or ``Fraction``."""
        if isinstance(value, QI):
            return value
        if isinstance(value, _RAT):
            if type(value) is int and 0 <= value <= 1:
                return _ONE if value else 0
            return _of(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} to QI")

    def __add__(self, other):
        if type(other) is not QI:
            if not other and isinstance(other, _RAT):
                return self
            other = QI.coerce(other)
        d, f = self._d, other._d
        return _of(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QI:
            if not other and isinstance(other, _RAT):
                return self
            other = QI.coerce(other)
        d, f = self._d, other._d
        return _of(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        if not other and isinstance(other, _RAT):
            return -self
        return QI.coerce(other) - self

    def __neg__(self):
        return _of(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not QI:
            if type(other) is int:
                if not other:
                    return 0
                return self if other == 1 else _of(self._a * other, self._b * other, self._d)
            if not other and isinstance(other, _RAT):
                return 0
            other = QI.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _of(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QI:
            if type(other) is int and other:
                n = -1 if other < 0 else 1
                return self if other == 1 else _of(n * self._a, n * self._b, n * other * self._d)
            if not other and isinstance(other, _RAT):
                raise ZeroDivisionError("division by zero in QI")
            other = QI.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        f = other._d
        return _of((a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        if not other and isinstance(other, _RAT):
            return 0
        return QI.coerce(other) / self

    def __eq__(self, other):
        try:
            other = QI.coerce(other)
        except TypeError:
            return NotImplemented
        return (
            type(other) is QI and self._a == other._a and self._b == other._b and self._d == other._d
        )

    def __hash__(self):
        d = self._d
        return _rational_hash(self._a, d) + sys.hash_info.imag * _rational_hash(self._b, d)

    def __abs__(self):
        # int true division is correctly rounded, so a / d == float(self.re)
        return math.hypot(self._a / self._d, self._b / self._d)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"QI({self.re!s}, {self.im!s})"

    def as_strings(self):
        """Serialize as a ``[re, im]`` pair of exact fraction strings."""
        return [str(self.re), str(self.im)]

    @classmethod
    def from_strings(cls, pair):
        return cls(Fraction(pair[0]), Fraction(pair[1]))


_new = object.__new__
_of = QI._of
_ONE = _of(1, 0, 1)


def scalar_abs(value):
    """|value| as a float, for complex, QI, int or Fraction inputs."""
    if isinstance(value, QI):
        return abs(value)
    return abs(complex(value))
