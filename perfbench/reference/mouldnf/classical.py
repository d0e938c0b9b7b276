"""Poisson-bracket backend on exponential modes.

On modes the bracket is a structure constant times the sum mode:

    {e_(k,m), e_(k',m')} = (k.m' - m.k') e_(k+k', m+m')

which is the bilinear extension of ``d_xi F . d_x G - d_x F . d_xi G``.
The generator ``omega . xi`` acts diagonally with eigenvalue
``i<k, omega>`` and never materializes as an observable.
"""

from __future__ import annotations

from .observables import Observable, norm_rho as _norm_rho


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def poisson_structure_constant(k, m, kp, mp):
    """Structure constant of the mode bracket (an integer)."""
    return _dot(k, mp) - _dot(m, kp)


def poisson_bracket(F, G):
    """Poisson bracket of two observables, pruned of rounding dust."""
    if F.d != G.d:
        raise ValueError("dimension mismatch")
    if F is G or F == G:
        # antisymmetry; spares relying on floating cancellation
        return Observable.zero(F.d)
    data = {}
    for (k, m), c in F.items_sorted():
        for (kp, mp), cp in G.items_sorted():
            s = poisson_structure_constant(k, m, kp, mp)
            if s == 0:
                continue
            km = (tuple(a + b for a, b in zip(k, kp)), tuple(a + b for a, b in zip(m, mp)))
            data[km] = data.get(km, 0j) + s * c * cp
    return Observable(F.d, data, real=F.real and G.real, _prune=False).prune()


class ClassicalBackend:
    """Bracket backend for the commutative (function) picture."""

    name = "classical"

    def __init__(self, freq):
        self.freq = freq

    def bracket(self, F, G):
        return poisson_bracket(F, G)

    def ad_x0_eigen(self, k):
        """Eigenvalue i<k, omega> of the diagonal x0 action on mode k."""
        return self.freq.eigenvalue(k)

    def ad_x0(self, G, exact_zero=True):
        """[x0, G]: multiply each mode by its eigenvalue.

        With ``exact_zero`` resonant modes are annihilated exactly,
        consistent with the resonance decisions elsewhere; without it
        the raw floating inner product is used (diagnostics).
        """
        data = {}
        for (k, m), c in G.items_sorted():
            lam = self.freq.eigenvalue(k, exact_zero=exact_zero)
            lam = complex(lam)
            if lam != 0:
                data[(k, m)] = lam * c
        return Observable(G.d, data, _prune=False)

    def norm_rho(self, G, rho):
        return _norm_rho(G, rho)
