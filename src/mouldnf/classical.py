"""The shared mode-bracket kernel and the bracket backend.

On modes the bracket is a structure constant times the sum mode:

    {e_(k,m), e_(k',m')} = (k.m' - m.k') e_(k+k', m+m')

which is the bilinear extension of ``d_xi F . d_x G - d_x F . d_xi G``.
The Moyal bracket differs only in the structure constant, a function of
the integer ``s = k.m' - m.k'``: ``(2/hbar) sin(hbar s / 2)``.  So both
brackets run through one kernel, :func:`code_bracket`, on modes keyed by
the ints of a :func:`mode_codes` space, and one :class:`Backend` holds
either.  The codes are those of :class:`VectorCodes`, which the growth
fit uses for its letter sums too.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from operator import mul

from .alphabet import _as_int_vector
from .observables import Observable

# Array typecodes by item size in bytes: unsigned ones hold the biased
# coordinate fields of codes, signed ones read ``s`` back.
_UNSIGNED = {array(t).itemsize: t for t in "BHILQ"}
_SIGNED = {array(t).itemsize: t for t in "bhilq"}


def top(*observables):
    """The largest ``|coordinate|`` over the modes of ``observables``."""
    return max((abs(x) for obs in observables for k, m in obs.coeffs for x in k + m), default=0)


class VectorCodes:
    """One int per integer vector of ``n`` coordinates within ``reach``
    ``T``: the kernel's modes and the growth fit's letter sums.

    The coordinates are the balanced big-endian fields of ``w`` bytes of
    ``code = sum x_i 2^(8w(n-1-i))``, with ``w`` the least power of two
    with ``max(T, largest) < 2^(8w-1)``, ``largest`` the largest
    magnitude the caller forms in a field.  So the zero vector has code
    0, codes sort as the vectors do, a sum within reach has the sum of
    the codes and the mirror ``-x`` has ``-code``.  :meth:`encode` checks
    a vector from outside the program; inside, ``x`` has the code
    ``sum(map(mul, x, weights))``.
    """

    def __init__(self, n, reach, largest=0):
        width = 1
        while max(reach, largest) >> (8 * width - 1):
            width *= 2
        self.n, self.reach, self.width = n, reach, width
        self.typecode = _UNSIGNED.get(width)
        self.weights = [1 << (8 * width * (n - 1 - i)) for i in range(n)]
        # the code of (T, ..., T): a code plus it has the fields x_i + T >= 0
        self._shift = reach * sum(self.weights)

    def encode(self, vec):
        """The code of ``vec``; one of another dimension, non-integral or
        beyond reach is refused with ``ValueError``."""
        x = _as_int_vector(vec)
        if len(x) != self.n:
            raise ValueError(f"vector {x} is not of dimension {self.n}")
        if any(abs(c) > self.reach for c in x):
            raise ValueError(f"vector {x} is beyond the reach {self.reach} of the codes")
        return sum(map(mul, x, self.weights))

    def fields(self, codes):
        """The coordinates of ``codes`` plus ``T``, one after another: an
        ``array`` of native unsigned ints, or a list beyond 8-byte fields."""
        width, size, shift = self.width, self.n * self.width, self._shift
        raw = b"".join((c + shift).to_bytes(size, "big") for c in codes)
        if self.typecode is None:
            return [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]
        out = array(self.typecode, raw)
        if sys.byteorder == "little":
            out.byteswap()
        return out

    def vectors(self, codes):
        """The coordinates of ``codes``, one after another, in a list."""
        reach = self.reach
        return [x - reach for x in self.fields(codes)]

    def decode(self, code):
        """The vector of ``code``, a tuple of ``n`` ints."""
        return tuple(self.vectors([code]))


def mode_codes(d, reach):
    """The codes of modes ``(k, m)`` as vectors ``k + m`` within ``reach``,
    whose fields hold any structure constant ``|s| <= 2d T^2`` of two."""
    return VectorCodes(2 * d, reach, 2 * d * reach * reach)


def encode_modes(codes, obs):
    """``obs`` keyed by its modes' codes, in its order; its reality flag
    is dropped."""
    weights = codes.weights
    data = {sum(map(mul, k + m, weights)): c for (k, m), c in obs.coeffs.items()}
    return Observable._of(obs.d, data, False)


def mode_rows(codes, obs):
    """Code-keyed ``obs`` as :func:`code_bracket`'s left operand, formed
    once per walk: ``obs`` and its modes in code order as
    ``(code, c, a, T sum(a))``, with ``a = (-m) + k``."""
    d, n, reach = obs.d, codes.n, codes.reach
    order = sorted(obs.coeffs)
    flat = codes.vectors(order)
    out = []
    for i, code in zip(range(0, len(flat), n), order):
        a = [-x for x in flat[i + d : i + n]] + flat[i : i + d]
        out.append((code, obs.coeffs[code], a, reach * sum(a)))
    return obs, out


def decode_modes(codes, obs):
    """``{(k, m): c}`` of code-keyed ``obs``, in its order."""
    d, n = obs.d, codes.n
    flat = codes.vectors(obs.coeffs)
    return {
        (tuple(flat[i : i + d]), tuple(flat[i + d : i + n])): c
        for i, c in zip(range(0, len(flat), n), obs.coeffs.values())
    }


def code_bracket(left, G, coupling, codes, real=False):
    """Bracket of the left operand ``left = mode_rows(codes, F)`` with the
    code-keyed observable ``G``, pruned of rounding dust.

    Every mode pair with a nonzero Poisson constant ``s`` contributes
    ``coupling(s) * c * c'`` at the sum mode; with ``coupling`` None the
    integer ``s`` itself is used (the Poisson bracket).  ``coupling`` is
    called once per distinct ``s`` of the call.  With ``real`` the
    result is checked for the reality symmetry before and after the
    prune; its flag stays false.
    """
    F, f_rows = left
    if F is G or F == G:
        # antisymmetry; spares relying on floating cancellation
        return Observable._of(F.d, {}, False)
    # s = k.m' - m.k' is the dot product of a = (-m) + k with the row
    # (k', m') of G, so |s| <= n T^2 < 2^(8 width - 1) =: half.  Column i
    # packs coordinate i of every row of G, biased by T, into fields of
    # width bytes; then sum_i a_i col_i + (half - T sum(a)) ones holds
    # s_j + half in field j, and flipping each field's top bit leaves
    # s_j in two's complement.  One big-int dot product thus gives the
    # s of a mode of F against all of G.
    n, width = codes.n, codes.width
    g_codes = sorted(G.coeffs)
    cps = [G.coeffs[code] for code in g_codes]
    rows = len(g_codes)
    order = sys.byteorder
    fields = codes.fields(g_codes)
    signed = _SIGNED.get(width)
    if signed:
        cols = [int.from_bytes(fields[i::n], order) for i in range(n)]
    else:
        cols = [
            int.from_bytes(b"".join(x.to_bytes(width, order) for x in fields[i::n]), order)
            for i in range(n)
        ]
    ones = int.from_bytes((1).to_bytes(width, order) * rows, order)
    half = 1 << (8 * width - 1)
    flip = half * ones
    memo = {}
    data = {}
    for base, c, a, reach_sum in f_rows:
        packed = sum(map(mul, a, cols)) + (half - reach_sum) * ones
        raw = (packed ^ flip).to_bytes(width * rows, order)
        if signed:
            svals = memoryview(raw).cast(signed)
        else:
            svals = [
                int.from_bytes(raw[i : i + width], order, signed=True)
                for i in range(0, len(raw), width)
            ]
        for s, code_g, cp in zip(svals, g_codes, cps):
            if s:
                if coupling is not None:
                    w = memo.get(s)
                    if w is None:
                        w = memo[s] = coupling(s)
                    s = w
                code = base + code_g
                # the 0j start clears a negative zero of the first product
                data[code] = data.get(code, 0j) + s * c * cp
    out = Observable._of(F.d, data, False)
    if real:
        # the reality symmetry, checked on the decoded modes
        Observable._of(F.d, decode_modes(codes, out), True)
    out = out.prune()
    if real:
        Observable._of(F.d, decode_modes(codes, out), True)
    return out


def mode_bracket(F, G, coupling=None):
    """Bracket of two observables, pruned of rounding dust: the
    :func:`code_bracket` of ``F`` and ``G`` in codes of reach
    ``2 top(F, G)``, which holds every sum mode."""
    if F.d != G.d:
        raise ValueError("dimension mismatch")
    if F is G or F == G:
        return Observable.zero(F.d)
    codes = mode_codes(F.d, 2 * top(F, G))
    real = F.real and G.real
    left = mode_rows(codes, encode_modes(codes, F))
    out = code_bracket(left, encode_modes(codes, G), coupling, codes, real)
    return Observable._of(F.d, decode_modes(codes, out), real)


def check_hbar(hbar):
    """Refuse any ``hbar`` but a finite positive number (not a bool)."""
    if isinstance(hbar, bool) or not (
        isinstance(hbar, numbers.Real) and math.isfinite(hbar) and hbar > 0
    ):
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")


def sine_coupling(hbar):
    """The Moyal structure constant as a function of the Poisson one."""
    return lambda s: 2.0 / hbar * math.sin(hbar * s / 2.0)


class Backend:
    """The bracket of a normal-form run: ``Backend()`` is the Poisson
    bracket, ``Backend(hbar)`` the Moyal bracket at ``hbar``.  The two
    differ only in the kernel's ``coupling``: None (the integer ``s``
    itself) or :func:`sine_coupling`."""

    name = "classical"
    coupling = None

    def __init__(self, hbar=None):
        if hbar is not None:
            check_hbar(hbar)
            self.hbar = float(hbar)
            self.coupling = sine_coupling(self.hbar)
            self.name = f"quantum(hbar={self.hbar})"

    def bracket(self, F, G):
        return mode_bracket(F, G, self.coupling)
