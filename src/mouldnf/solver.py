"""Solver for the universal mould equation with zero gauge.

Produces the coefficient moulds of the normal-form expansion by a
memoized induction on word length.  On a word of length r the recursion
branches on resonance of the full letter sum:

* non-resonant: the value of the group-like mould is fixed by dividing
  by the (non-zero) eigenvalue sum, and the normal-form mould vanishes;
* resonant: the normal-form mould absorbs the right-hand side, and the
  group-like value is fixed by the gauge (zero here) through an
  auxiliary mould.

A solved word is one **word node**, the plain tuple ``(entry, lefts, k,
shift)``: ``entry`` its (F, S, N), ``lefts`` S on its prefixes from the
empty word through itself, ``k`` its letter sum and ``shift`` the node
of ``w[1:]`` (``None`` for the empty word), so the shift chain of a node
holds the values on all of the word's suffixes.  The values on a word
read only S on its prefixes and (F, N) on its suffixes, so one step,
:func:`step`, builds the node of a word from the node of its parent
``w[:-1]``, the node of its shift and its letter sum.  Its three drivers
differ only in how they find those nodes: :class:`MouldSolver` keeps
one dict from word to node and extends a word's longest solved prefix
one letter at a time, :func:`verify_equation` walks every word by
length and finds them by position, and the growth fit's frontier
(``estimates.fit_growth_constants``) builds a word's new suffixes along
its parent's shift chain, with no table.  Keys are tuples of k-vectors,
not eigenvalues: two letters with equal eigenvalue but different k are
distinct keys.  The values only depend on the eigenvalues, so this
merely accepts some duplicate computation in exchange for a simpler
table.
"""

from __future__ import annotations

import functools
from operator import add

from .alphabet import words_over
from .exact import scalar_abs
from .mould import Mould, mexp, mlog


def step(parent, shift, k, lam, zero, n):
    """The node of a non-empty word from the node ``parent`` of its
    ``w[:-1]`` and the node ``shift`` of its ``w[1:]``: the one solve
    step.

    ``k`` is the word's letter sum, ``lam`` its divisor from
    ``Frequency.divisors`` (``None`` when it is resonant), ``zero`` the
    frequency's zero and ``n`` the gauge value on a resonant word.  The
    word's length is that of the parent's ``lefts``.
    """
    lefts = parent[1]
    r = len(lefts)
    s_tail = shift[0][1]
    sum_sf = zero
    sum_sn = zero
    # the proper splits, S on w[:i] and the values on w[i:], i = 1..r-1,
    # down the shift chain; F vanishes off the resonant words and, under
    # the zero gauge, N on them; skipping an exactly zero term leaves
    # the sums (from +0, never -0.0) bit for bit those of summing every
    # term
    node = shift
    for sa in lefts[1:]:
        fb, _, nb = node[0]
        if fb:
            sum_sf = sum_sf + sa * fb
        if nb:
            sum_sn = sum_sn + sa * nb
        node = node[3]
    if lam is None:
        s = n + sum_sn
        # only a nonzero S is divided: int 0 / r is a float, and a
        # float zero here is +0, which r > 0 leaves as it is
        entry = (s_tail - sum_sf, s / r if s else s, n)
    else:
        s = (s_tail - sum_sf) / lam
        entry = (zero, s, r * s - sum_sn)
    return entry, [*lefts, entry[1]], k, shift


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
        zero-gauge condition only.  The gauge stays a parameter because
        it is part of the paper's mould equation, and the solver's
        covariance under it is checked with a nonzero one.
    """

    def __init__(self, freq, gauge=None):
        self.freq = freq
        self.gauge = gauge
        self._nodes = {(): ((freq.zero(), freq.one(), freq.zero()), [freq.one()], (), None)}

    def values(self, word):
        """The (F, S, N) values on ``word``, solving its subwords first.

        The table is closed under contiguous subwords, so once a prefix
        ``word[:i]`` is solved the new subwords of ``word[:i + 1]`` are
        its suffixes; each missing one is solved by :meth:`extend`,
        shortest first, from its parent's node and the suffix visited
        just before it, its shift.  A word whose ``word[:-1]`` is solved
        costs its r suffixes, O(r^2), with no recursion, and the values
        do not depend on the order in which words arrive.
        """
        nodes = self._nodes
        node = nodes.get(word)
        if node is None:
            known = len(word) - 1
            while word[:known] not in nodes:
                known -= 1
            for end in range(known + 1, len(word) + 1):
                node = nodes[()]
                for j in range(end - 1, -1, -1):
                    sub = word[j:end]
                    node = nodes.get(sub) or self.extend(sub, nodes[sub[:-1]], node)
        return node[0]

    def extend(self, word, parent, shift):
        """Solve and record a new non-empty ``word`` from the nodes of its
        ``word[:-1]`` and ``word[1:]``, returning its node.

        The letter sum is the parent's plus the last letter (the empty
        word's sum is ``()``, so a one-letter word's is its letter, which
        ``Frequency.divisors`` refuses in another dimension), and its
        resonance is read from the frequency's one decision per letter
        sum.
        """
        freq = self.freq
        letter = word[-1]
        k = tuple(map(add, parent[2], letter)) if parent[2] else letter
        lam = freq.divisors[k]
        n = freq.zero() if self.gauge is None or lam is not None else self.gauge(word)
        node = self._nodes[word] = step(parent, shift, k, lam, freq.zero(), n)
        return node

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
    ``alphabet``: the main equation ``nabla S - I x S + S x F = 0``
    (``nabla`` multiplies a word's value by its eigenvalue sum, and
    ``I x S`` is ``S`` on the word less its first letter), the vanishing
    of ``nabla F``, and the zero-gauge condition: on resonant words,
    ``sum_i exp(-G)(w[:i]) |w[i:]| exp(G)(w[i:])`` vanishes.

    The walk solves each word once, in walk order, through
    ``solver.extend``, and calls ``solver.values`` for no word.  A word's
    ``w[:-1]`` and ``w[1:]`` were walked one length earlier and their
    nodes are found by position in the enumeration, without hashing
    either; only the previous length's nodes are kept.  A word the
    solver has recorded is read as it is.  The resonance of the word's
    letter sum is read from the frequency's ``divisors``, one decision
    per distinct sum: off the lattice one eigenvalue serves ``nabla S``
    and ``nabla F``, on it both are exactly zero and the gauge sum is
    formed.  The walked words are closed under subwords, so the solver's
    table stays so, and the moulds ``F``, ``S`` and ``G`` then read every
    walked word as a hit.

    The main equation reads no mould: ``S x F`` pairs the node's
    ``lefts`` with F down its shift chain, and the shift ``S(w[1:])`` is
    the shift node's.  The S x F sum runs over the r+1 splits from int
    0 and skips a split with an exactly zero factor, and only nonzero
    values are measured.  The gauge sums, formed on resonant words only,
    read the memoized moulds ``exp(+-G)``, and ``|w| exp(G)(w)``, which
    they read again on suffixes, from a dict.
    """
    freq = solver.freq
    exp_minus_g, exp_g = mexp(solver.G_mould, -1), mexp(solver.G_mould)
    weighted = {}

    def weighted_exp_g(word):
        value = weighted.get(word)
        if value is None:
            value = weighted[word] = len(word) * exp_g(word)
        return value

    nodes = solver._nodes
    divisors = freq.divisors
    words = [(), *words_over(alphabet, max_r)]
    # words_over lists each length in itertools.product order over its n
    # letters: the i-th word w of a length has w[:-1] at i // n and w[1:]
    # at i mod n^(r-1) among the words one letter shorter
    n = sum(len(w) == 1 for w in words)
    shorter, current, length = [], [nodes[()]], 0
    max_res = 0.0
    max_nf = 0.0
    max_gauge = 0.0
    scale = 0.0
    for w in words:
        if len(w) != length:
            shorter, current, length = current, [], len(w)
        if w:
            i = len(current)
            node = nodes.get(w) or solver.extend(w, shorter[i // n], shorter[i % len(shorter)])
            current.append(node)
            lam = divisors[node[2]]
        else:
            node = current[0]
            lam = None  # the empty word's letter sum, 0, is on every lattice
        entry, lefts, _, below = node
        if lam is None:
            nabla_s = nabla_f = freq.zero()
        else:
            nabla_s = lam * entry[1]
            nabla_f = lam * entry[0]
        shift = below[0][1] if w else 0
        s_f = 0
        for a in lefts:
            b = node[0][0]
            if b and a:  # F, the zero factor off the resonant suffixes, first
                s_f = s_f + a * b
            node = node[3]
        gauge = _split_sum(exp_minus_g, weighted_exp_g, w) if lam is None else freq.zero()
        max_res = max(max_res, _measure((nabla_s - shift) + s_f))
        max_nf = max(max_nf, _measure(nabla_f))
        max_gauge = max(max_gauge, _measure(gauge))
        scale = max(scale, _measure(nabla_s) + _measure(shift) + _measure(s_f))
    return EquationReport(len(words), max_res, max_nf, max_gauge, scale, freq.exact, tol)


def _measure(value):
    """``scalar_abs(value)``, taken only of a nonzero value: an exact
    zero of any type measures 0.0, as its ``scalar_abs`` does."""
    return scalar_abs(value) if value else 0.0


def _split_sum(left, right, word):
    """``sum_i left(word[:i]) right(word[i:])`` over the r+1 splittings,
    from int 0; a split with an exactly zero factor is skipped (``right``
    is not evaluated when the left factor is zero).  The sum never holds
    a float -0.0, so a skipped product, a signed zero when the other
    factor is finite, would not change it."""
    total = 0
    for i in range(len(word) + 1):
        a = left(word[:i])
        if a:
            b = right(word[i:])
            if b:
                total = total + a * b
    return total
