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

from operator import add, mul, neg

from .observables import Observable


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
    shift = (4 * top).bit_length()
    weights = [1 << (shift * i) for i in range(2 * F.d)]
    # s = k.m' - m.k' is one dot product of k + m with m' + (-k')
    g_rows = [
        (mp + tuple(map(neg, kp)), sum(map(mul, kp + mp, weights)), kp, mp, cp)
        for (kp, mp), cp in G.items_sorted()
    ]
    memo = {}
    data = {}
    keys = {}
    for (k, m), c in F.items_sorted():
        u = k + m
        code_f = sum(map(mul, u, weights))
        for v, code_g, kp, mp, cp in g_rows:
            s = sum(map(mul, u, v))
            if s == 0:
                continue
            if coupling is not None:
                w = memo.get(s)
                if w is None:
                    w = memo[s] = coupling(s)
                s = w
            code = code_f + code_g
            old = data.get(code)
            if old is None:
                data[code] = 0j + s * c * cp
                keys[code] = (tuple(map(add, k, kp)), tuple(map(add, m, mp)))
            else:
                data[code] = old + s * c * cp
    data = {keys[code]: total for code, total in data.items()}
    return Observable._of(F.d, data, F.real and G.real).prune()


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
