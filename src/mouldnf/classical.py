"""The shared mode-bracket kernel and the Poisson-bracket backend.

On modes the bracket is a structure constant times the sum mode:

    {e_(k,m), e_(k',m')} = (k.m' - m.k') e_(k+k', m+m')

which is the bilinear extension of ``d_xi F . d_x G - d_x F . d_xi G``.
The Moyal bracket differs only in the structure constant, a function of
the integer ``s = k.m' - m.k'`` (see :mod:`mouldnf.quantum`), so both
brackets run through one kernel, :func:`code_bracket`, on modes keyed by
the ints of a :class:`ModeCodes` space.  The generator ``omega . xi``
acts diagonally with eigenvalue ``i<k, omega>`` and never materializes
as an observable.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .observables import Observable

# Array typecodes by item size in bytes: unsigned ones hold the biased
# coordinate fields of mode codes, signed ones read ``s`` back.
_UNSIGNED = {array(t).itemsize: t for t in "BHILQ"}
_SIGNED = {array(t).itemsize: t for t in "bhilq"}


def top(*observables):
    """The largest ``|coordinate|`` over the modes of ``observables``."""
    return max((abs(x) for obs in observables for k, m in obs.coeffs for x in k + m), default=0)


class ModeCodes:
    """One int per mode, for a walk whose modes have coordinates within
    ``reach`` ``T`` in absolute value.

    The ``n = 2d`` coordinates of ``k + m``, biased by ``T``, are the
    big-endian fields of ``w`` bytes of the code:
    ``code = sum (x_i + T) 2^(8w(n-1-i))``, with ``w`` the least of 1, 2,
    4, 8 bytes (a power of two beyond) with ``n T^2 < 2^(8w-1)``, so a
    field also holds any structure constant of two modes.  So:

    * codes sort as the ``(k, m)`` tuples do;
    * the sum of two modes within reach has code ``code + code' - bias``,
      with ``bias = sum T 2^(8w(n-1-i))`` the code of the zero mode;
    * the mirror ``(-k, -m)`` has code ``2 bias - code``.
    """

    def __init__(self, d, reach):
        self.d = d
        self.n = n = 2 * d
        self.reach = reach
        width = 1
        while (n * reach * reach) >> (8 * width - 1):
            width *= 2
        self.width = width
        self.typecode = _UNSIGNED.get(width)
        self.weights = [1 << (8 * width * (n - 1 - i)) for i in range(n)]
        self.bias = reach * sum(self.weights)

    def encode(self, obs):
        """``obs`` keyed by codes, in its order; its reality flag is dropped."""
        weights, bias = self.weights, self.bias
        data = {bias + sum(map(mul, k + m, weights)): c for (k, m), c in obs.coeffs.items()}
        return Observable._of(obs.d, data, False)

    def fields(self, codes):
        """The biased coordinates of ``codes``, one after another: an
        ``array`` of native ints, or a list beyond 8-byte fields."""
        width = self.width
        raw = b"".join(c.to_bytes(self.n * width, "big") for c in codes)
        if self.typecode is None:
            return [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]
        out = array(self.typecode, raw)
        if sys.byteorder == "little":
            out.byteswap()
        return out

    def rows(self, obs):
        """Code-keyed ``obs`` as :func:`code_bracket`'s left operand, formed
        once per walk: ``obs`` and its modes in code order as
        ``(code - bias, c, a, T sum(a))``, with ``a = (-m) + k``."""
        d, n, reach = self.d, self.n, self.reach
        codes = sorted(obs.coeffs)
        flat = [x - reach for x in self.fields(codes)]
        out = []
        for i, code in zip(range(0, len(flat), n), codes):
            a = [-x for x in flat[i + d : i + n]] + flat[i : i + d]
            out.append((code - self.bias, obs.coeffs[code], a, reach * sum(a)))
        return obs, out

    def decode(self, obs):
        """``{(k, m): c}`` of code-keyed ``obs``, in its order."""
        d, n, reach = self.d, self.n, self.reach
        flat = [x - reach for x in self.fields(obs.coeffs)]
        return {
            (tuple(flat[i : i + d]), tuple(flat[i + d : i + n])): c
            for i, c in zip(range(0, len(flat), n), obs.coeffs.values())
        }

    def check_real(self, obs):
        """:meth:`Observable._check_real` on code-keyed ``obs``."""
        Observable._of(self.d, self.decode(obs), True)


def code_bracket(left, G, coupling, codes, real=False):
    """Bracket of the left operand ``left = codes.rows(F)`` with the
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
        codes.check_real(out)
    out = out.prune()
    if real:
        codes.check_real(out)
    return out


def mode_bracket(F, G, coupling=None):
    """Bracket of two observables, pruned of rounding dust: the
    :func:`code_bracket` of ``F`` and ``G`` in codes of reach
    ``2 top(F, G)``, which holds every sum mode."""
    if F.d != G.d:
        raise ValueError("dimension mismatch")
    if F is G or F == G:
        return Observable.zero(F.d)
    codes = ModeCodes(F.d, 2 * top(F, G))
    real = F.real and G.real
    out = code_bracket(codes.rows(codes.encode(F)), codes.encode(G), coupling, codes, real)
    return Observable._of(F.d, codes.decode(out), real)


def poisson_bracket(F, G):
    """Poisson bracket of two observables, pruned of rounding dust."""
    return mode_bracket(F, G)


class ClassicalBackend:
    """Bracket backend for the commutative (function) picture; the
    bracket kernel's ``coupling`` is the integer ``s`` itself."""

    name = "classical"
    coupling = None

    def __init__(self, freq):
        self.freq = freq

    def bracket(self, F, G):
        return mode_bracket(F, G, self.coupling)

    def ad_x0(self, G, exact_zero=True):
        """[x0, G]: multiply each mode by its eigenvalue.

        The generator is linear in xi, so this action is the same for
        every bracket backend.  With ``exact_zero`` resonant modes are
        annihilated exactly, consistent with the resonance decisions
        elsewhere; without it the raw floating inner product is used
        (diagnostics).
        """
        data = {}
        for (k, m), c in G.items_sorted():
            lam = complex(self.freq.eigenvalue(k, exact_zero=exact_zero))
            if lam != 0:
                data[(k, m)] = lam * c
        return Observable(G.d, data, _prune=False)
