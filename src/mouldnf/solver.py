"""Solver for the universal mould equation with zero gauge.

Produces the coefficient moulds of the normal-form expansion by a
memoized induction on word length.  On a word of length r the recursion
branches on resonance of the full letter sum:

* non-resonant: the value of the group-like mould is fixed by dividing
  by the (non-zero) eigenvalue sum, and the normal-form mould vanishes;
* resonant: the normal-form mould absorbs the right-hand side, and the
  group-like value is fixed by the gauge (zero here) through an
  auxiliary mould.

One table maps each solved word (a tuple of letters) to its (F, S, N)
values.  The values on a word read only its shorter contiguous subwords
(the tail and both sides of each proper split), so a new word is solved
by extending its longest solved prefix one letter at a time, each
extension solving its new suffixes shortest first.  Keys are tuples of
k-vectors, not eigenvalues: two letters with equal eigenvalue but
different k are distinct keys.  The values only depend on the
eigenvalues, so this merely accepts some duplicate computation in
exchange for a simpler table.
"""

from __future__ import annotations

import functools

from .alphabet import ksum, words_over
from .exact import scalar_abs
from .mould import (
    Mould,
    ident_mould,
    madd,
    mexp,
    mlog,
    mneg,
    msub,
    nabla,
    nabla1,
    resonant_part,
    times,
)


class MouldSolver:
    """Memoized induction computing F, S = e^G, N and G for a frequency.

    Parameters
    ----------
    freq : Frequency
        Decides resonance and supplies eigenvalues (exact Q(i) when the
        frequency is exact).
    gauge : Mould, optional
        Resonant alternal gauge mould, zero when omitted.  The CLI always
        uses the zero gauge; :func:`verify_equation` checks the
        zero-gauge condition only.
    """

    def __init__(self, freq, gauge=None):
        self.freq = freq
        self.gauge = gauge
        self._table = {(): (freq.zero(), freq.one(), freq.zero())}

    def values(self, word):
        """The (F, S, N) values on ``word``, solving its subwords first.

        The table is closed under contiguous subwords, so once a prefix
        ``word[:i]`` is solved the new subwords of ``word[:i + 1]`` are
        its suffixes; they are solved shortest first, each reading only
        shorter subwords.  A word whose ``word[:-1]`` is solved costs
        its r suffixes, O(r^2), and the values do not depend on the
        order in which words arrive.
        """
        table = self._table
        if word not in table:
            known = len(word) - 1
            while word[:known] not in table:
                known -= 1
            for end in range(known + 1, len(word) + 1):
                for j in range(end - 1, -1, -1):
                    sub = word[j:end]
                    if sub not in table:
                        table[sub] = self._solve_one(sub)
        return table[word]

    def _solve_one(self, word):
        """The values on a non-empty ``word`` whose proper subwords are
        solved; its letter sum is formed once and decided on the lattice."""
        table = self._table
        freq = self.freq
        r = len(word)
        k = ksum(word)
        if len(k) != freq.d:
            raise ValueError("word dimension does not match frequency")
        s_tail = table[word[1:]][1]
        sum_sf = freq.zero()
        sum_sn = freq.zero()
        for i in range(1, r):
            sa = table[word[:i]][1]
            fb, _, nb = table[word[i:]]
            sum_sf = sum_sf + sa * fb
            sum_sn = sum_sn + sa * nb
        if freq._in_lattice(k):
            n = freq.zero() if self.gauge is None else self.gauge(word)
            return s_tail - sum_sf, (n + sum_sn) / r, n
        s = (s_tail - sum_sf) / freq._eigenvalue(k, exact_zero=False)
        return freq.zero(), s, r * s - sum_sn

    @functools.cached_property
    def F_mould(self):
        return Mould(lambda w: self.values(w)[0], name="F")

    @functools.cached_property
    def S_mould(self):
        return Mould(lambda w: self.values(w)[1], name="S")

    @functools.cached_property
    def G_mould(self):
        """G = log S, built once so that every caller shares its memo."""
        return mlog(self.S_mould)


class EquationReport:
    """Residuals of the mould equation over a finite word set."""

    def __init__(self, words_checked, max_residual, max_nabla_f, max_gauge, scale, exact, tol):
        self.words_checked = words_checked
        self.max_residual = max_residual
        self.max_nabla_f = max_nabla_f
        self.max_gauge = max_gauge
        self.scale = scale
        self.exact = exact
        self.tol = tol

    @property
    def ok(self):
        worst = max(self.max_residual, self.max_nabla_f, self.max_gauge)
        if self.exact:
            return worst == 0.0
        return worst <= self.tol * max(self.scale, 1e-300)

    def __repr__(self):
        return (
            f"EquationReport(words={self.words_checked}, residual={self.max_residual:.3e}, "
            f"nabla_f={self.max_nabla_f:.3e}, gauge={self.max_gauge:.3e}, scale={self.scale:.3e})"
        )


def verify_equation(solver, max_r, alphabet, tol=1e-9):
    """Evaluate the defining equation's residual word by word.

    Checks three identities on every word of length <= ``max_r`` over
    ``alphabet``: the main equation (derivative of the group-like mould
    against its product form), the vanishing derivative of the
    normal-form mould, and the zero-gauge condition on the resonant part
    of ``exp(-G) x nabla1 exp(G)``.
    """
    freq = solver.freq
    S = solver.S_mould
    F = solver.F_mould
    G = solver.G_mould
    nabla_S = nabla(S, freq)
    I_times_S = times(ident_mould(), S)
    S_times_F = times(S, F)
    residual = madd(msub(nabla_S, I_times_S), S_times_F)
    nabla_F = nabla(F, freq)
    gauge_check = resonant_part(times(mexp(mneg(G)), nabla1(mexp(G))), freq)

    words = [(), *words_over(alphabet, max_r)]
    max_res = 0.0
    max_nf = 0.0
    max_gauge = 0.0
    scale = 0.0
    for w in words:
        max_res = max(max_res, scalar_abs(residual(w)))
        max_nf = max(max_nf, scalar_abs(nabla_F(w)))
        max_gauge = max(max_gauge, scalar_abs(gauge_check(w)))
        scale = max(
            scale,
            scalar_abs(nabla_S(w)) + scalar_abs(I_times_S(w)) + scalar_abs(S_times_F(w)),
        )
    return EquationReport(len(words), max_res, max_nf, max_gauge, scale, freq.exact, tol)
