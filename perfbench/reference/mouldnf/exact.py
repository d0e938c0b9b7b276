"""Exact complex-rational scalars for the rational-frequency mode.

When every component of omega is rational, all eigenvalues are purely
imaginary rationals and the whole mould recursion stays inside Q(i).
``QI`` is a minimal field implementation for that case; it interoperates
with ``int`` and ``Fraction`` so generic mould code runs unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction

_RAT = (int, Fraction)


class QI:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, QI):
            return value
        if isinstance(value, _RAT):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {value!r} to QI")

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = QI.coerce(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QI.coerce(other)
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QI.coerce(other) - self

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        other = QI.coerce(other)
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero in QI")
        return QI(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return QI.coerce(other) / self

    def __eq__(self, other):
        try:
            other = QI.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QI({self.re!s}, {self.im!s})"

    def as_strings(self):
        """Serialize as a ``[re, im]`` pair of exact fraction strings."""
        return [str(self.re), str(self.im)]

    @classmethod
    def from_strings(cls, pair):
        return cls(Fraction(pair[0]), Fraction(pair[1]))


def scalar_abs(value):
    """|value| as a float, for complex, QI, int or Fraction inputs."""
    if isinstance(value, QI):
        return abs(value)
    return abs(complex(value))


def scalar_is_zero(value):
    if isinstance(value, QI):
        return value.is_zero()
    return value == 0
