"""The shared mode-bracket kernel and the Poisson-bracket backend.

On modes the bracket is a structure constant times the sum mode:

    {e_(k,m), e_(k',m')} = (k.m' - m.k') e_(k+k', m+m')

which is the bilinear extension of ``d_xi F . d_x G - d_x F . d_xi G``.
The Moyal bracket differs only in the structure constant, a function of
the integer ``s = k.m' - m.k'`` (see :mod:`mouldnf.quantum`), so both
brackets run through :func:`mode_bracket`.  The generator
``omega . xi`` acts diagonally with eigenvalue ``i<k, omega>`` and never
materializes as an observable.
"""

from __future__ import annotations

import sys
from array import array
from operator import add, mul, neg

from .observables import Observable

# Array typecodes by item size in bytes: unsigned ones pack the biased
# fields of the structure-constant rows, signed ones read ``s`` back.
_UNSIGNED = {array(t).itemsize: t for t in "BHILQ"}
_SIGNED = {array(t).itemsize: t for t in "bhilq"}


def mode_bracket(F, G, coupling=None):
    """Bracket of two observables on modes, pruned of rounding dust.

    Every mode pair with a nonzero Poisson constant ``s`` contributes
    ``coupling(s) * c * c'`` at the sum mode; without ``coupling`` the
    integer ``s`` itself is used (the Poisson bracket).  ``coupling`` is
    called once per distinct ``s`` of the call.
    """
    if F.d != G.d:
        raise ValueError("dimension mismatch")
    if F is G or F == G:
        # antisymmetry; spares relying on floating cancellation
        return Observable.zero(F.d)
    # Each mode (k, m) is keyed by the int sum x_i 2^(shift i) over the
    # signed coordinates x of k + m.  The packing is linear, so the sum
    # mode's code is code_f + code_g; two sum modes differ by at most
    # 4 * top < 2^shift per coordinate, so within this call distinct sum
    # modes get distinct codes.
    top = max((abs(x) for obs in (F, G) for k, m in obs.coeffs for x in k + m), default=0)
    n = 2 * F.d
    shift = (4 * top).bit_length()
    weights = [1 << (shift * i) for i in range(n)]
    g_items = G.items_sorted()
    g_modes = {sum(map(mul, kp + mp, weights)): (kp, mp) for (kp, mp), _ in g_items}
    cps = [cp for _, cp in g_items]
    # s = k.m' - m.k' is the dot product of a = k + (-m) with the row
    # (m', k') of G, so |s| <= n top^2 < 2^(8 width - 1) =: half, with
    # width the least of 1, 2, 4, 8 bytes (or a power of two beyond).
    # Column i packs coordinate i of every row of G, biased by top, into
    # fields of width bytes; then sum_i a_i col_i + (half - top sum(a))
    # ones holds s_j + half in field j, and flipping each field's top
    # bit leaves s_j in two's complement.  One big-int dot product thus
    # gives the s of a mode of F against all of G.
    bound = n * top * top
    width = 1
    while bound >> (8 * width - 1):
        width *= 2
    rows = len(g_items)
    order = sys.byteorder
    biased = [x + top for kp, mp in g_modes.values() for x in mp + kp]
    signed = _SIGNED.get(width)
    if signed:
        fields = memoryview(array(_UNSIGNED[width], biased))
        cols = [int.from_bytes(fields[i::n], order) for i in range(n)]
    else:
        cols = [
            int.from_bytes(b"".join(x.to_bytes(width, order) for x in biased[i::n]), order)
            for i in range(n)
        ]
    ones = int.from_bytes((1).to_bytes(width, order) * rows, order)
    half = 1 << (8 * width - 1)
    flip = half * ones
    memo = {}
    data = {}
    first = {}
    f_modes = {}
    for km, c in F.items_sorted():
        k, m = km
        code_f = sum(map(mul, k + m, weights))
        f_modes[code_f] = km
        a = k + tuple(map(neg, m))
        packed = sum(map(mul, a, cols)) + (half - top * sum(a)) * ones
        raw = (packed ^ flip).to_bytes(width * rows, order)
        if signed:
            svals = memoryview(raw).cast(signed)
        else:
            svals = [
                int.from_bytes(raw[i : i + width], order, signed=True)
                for i in range(0, len(raw), width)
            ]
        for s, code_g, cp in zip(svals, g_modes, cps):
            if s:
                if coupling is not None:
                    w = memo.get(s)
                    if w is None:
                        w = memo[s] = coupling(s)
                    s = w
                code = code_f + code_g
                old = data.get(code)
                if old is None:
                    data[code] = 0j + s * c * cp
                    first[code] = code_g
                else:
                    data[code] = old + s * c * cp
    # each sum mode's key, from the first pair that reached it
    out = {}
    for code, total in data.items():
        code_g = first[code]
        (k, m), (kp, mp) = f_modes[code - code_g], g_modes[code_g]
        out[(tuple(map(add, k, kp)), tuple(map(add, m, mp)))] = total
    return Observable._of(F.d, out, F.real and G.real).prune()


def poisson_bracket(F, G):
    """Poisson bracket of two observables, pruned of rounding dust."""
    return mode_bracket(F, G)


class ClassicalBackend:
    """Bracket backend for the commutative (function) picture."""

    name = "classical"

    def __init__(self, freq):
        self.freq = freq

    def bracket(self, F, G):
        return poisson_bracket(F, G)

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
