"""Solver for the universal mould equation with zero gauge.

Produces the coefficient moulds of the normal-form expansion by a
memoized induction on word length.  On a word of length r the recursion
branches on resonance of the full letter sum:

* non-resonant: the value of the group-like mould is fixed by dividing
  by the (non-zero) eigenvalue sum, and the normal-form mould vanishes;
* resonant: the normal-form mould absorbs the right-hand side, and the
  group-like value is fixed by the gauge (zero here) through an
  auxiliary mould.

A solved word is one **word node**, the tuple ``(entry, lefts, k,
shift)``: its (F, S, N), S on its prefixes from the empty word through
itself, its letter sum and the node of ``w[1:]`` (``None`` for the empty
word).  One step, :func:`step`, builds a node from the nodes of
``w[:-1]`` and ``w[1:]``.  :class:`MouldSolver` keeps its nodes, each
with a fifth entry, its children by letter, as a trie whose shift is the
suffix link (Aho and Corasick, CACM 18, 1975), so the node of ``w + a``
is ``child(node(w), w + a)``, found with no word hashed.  G = log S and
exp(+-G) are kept beside the trie, in memos keyed by node.  The growth
fit (``estimates.fit_growth_constants``) steps its frontier with the same
:func:`step` and keeps no trie.
"""

from __future__ import annotations

import math
from operator import add

from .alphabet import words_over
from .exact import scalar_abs
from .mould import log_divisor, power_column, series_sum


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


def log_column(cols, node):
    """The power column of S at the word of ``node`` from the columns
    ``cols`` of its proper prefixes and S down its shift chain; G on the
    word is its ``series_sum`` by ``log_divisor``, as in ``MouldSolver.G``."""
    tails = []
    while node[3] is not None:
        tails.append(node[0][1])
        node = node[3]
    return power_column(cols, tails)


class MouldSolver:
    """Memoized induction computing F, S = e^G, N and G for a frequency,
    on a trie of word nodes rooted at the empty word's, ``root``.

    G and exp(+-G) live in memos keyed by ``id(node)``, safe since a node
    lives as long as the solver: a node's power columns of S and of G and
    its values of G and exp(+-G), each formed on first ask.

    Parameters
    ----------
    freq : Frequency
        Decides resonance and supplies eigenvalues (exact Q(i) when the
        frequency is exact).
    gauge : callable, optional
        Resonant alternal gauge mould, zero when omitted.  The CLI always
        uses the zero gauge; :func:`verify_equation` checks the
        zero-gauge condition only.  The gauge stays a parameter because
        it is part of the paper's mould equation, and the solver's
        covariance under it is checked with a nonzero one.
    """

    def __init__(self, freq, gauge=None):
        self.freq = freq
        self.gauge = gauge
        self.root = ((freq.zero(), freq.one(), freq.zero()), [freq.one()], (), None, {})
        self._log_columns, self._exp_columns = {}, {}
        self._g = {id(self.root): 0}
        self._exp = {sign: {id(self.root): 1} for sign in (1, -1)}

    def child(self, parent, word):
        """The node of the non-empty ``word`` whose ``word[:-1]`` has the
        node ``parent``, solved and recorded on first ask.

        Its shift is the child of the parent's shift by the same letter:
        the shift chain is walked down to the first node that has the
        letter, and the missing nodes are solved upward from there, with
        no recursion.  A letter sum is the parent's plus the last letter
        (``Frequency.divisors`` refuses one of another dimension).
        """
        letter = word[-1]
        chain, below = [], parent
        while below is not None and letter not in below[4]:
            chain.append(below)
            below = below[3]
        node = self.root if below is None else below[4][letter]
        freq, zero = self.freq, self.freq.zero()
        # chain[i] is the node of word[i:-1]
        for i in range(len(chain) - 1, -1, -1):
            above = chain[i]
            k = tuple(map(add, above[2], letter)) if above[2] else letter
            lam = freq.divisors[k]
            n = zero if self.gauge is None or lam is not None else self.gauge(word[i:])
            node = above[4][letter] = (*step(above, node, k, lam, zero, n), {})
        return node

    def path(self, word):
        """The nodes of the prefixes of ``word``, walked down the children
        from the root: the root's first, the word's own last."""
        nodes = [self.root]
        for i, letter in enumerate(word, 1):
            nodes.append(nodes[-1][4].get(letter) or self.child(nodes[-1], word[:i]))
        return nodes

    def node(self, word):
        """The node of ``word``."""
        return self.path(word)[-1]

    def values(self, word):
        """The (F, S, N) values on ``word``."""
        return self.node(word)[0]

    def G(self, word):
        """G = log S on ``word``: the ``series_sum`` by ``log_divisor`` of
        its power column of S, :func:`log_column`."""
        return self._sum(word, self._g, self._log_columns,
                         lambda cols, node, prefix: log_column(cols, node), log_divisor)

    def exp(self, word, sign=1):
        """exp(sign G) on ``word``, for ``sign`` 1 or -1: the ``series_sum``
        by ``sign^k k!`` of its power column of G.  exp(-G) reads the
        columns of exp(G), since ``P_k[-G] = (-1)^k P_k[G]``."""
        return self._sum(word, self._exp[sign], self._exp_columns, self._exp_column,
                         lambda k: sign ** k * math.factorial(k))

    def _sum(self, word, values, columns, column, divisor):
        """The value on ``word`` in ``values``, formed on first ask as the
        ``series_sum`` by ``divisor`` of its column in ``columns``; a
        prefix's missing column is formed once, as ``column(cols, node,
        prefix)`` of the columns ``cols`` of its proper prefixes."""
        nodes = self.path(word)
        value = values.get(id(nodes[-1]))
        if value is None:
            cols = []
            for i in range(1, len(nodes)):
                col = columns.get(id(nodes[i]))
                if col is None:
                    col = columns[id(nodes[i])] = column(cols, nodes[i], word[:i])
                cols.append(col)
            value = values[id(nodes[-1])] = series_sum(cols[-1], divisor)
        return value

    def _exp_column(self, cols, node, word):
        """The power column of G at ``word``, whose node is ``node``, from
        G on its suffixes, read down its shift chain."""
        tails = []
        for j in range(len(word)):
            value = self._g.get(id(node))
            tails.append(self.G(word[j:]) if value is None else value)
            node = node[3]
        return power_column(cols, tails)


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

    The walk goes down the solver's trie level by level, in
    ``words_over`` order, keeping one length's ``(word, node)`` list, so
    each word is solved once, by ``solver.child``, in walk order.  The
    word's resonance is read from ``freq.divisors``: off the lattice one
    eigenvalue serves ``nabla S`` and ``nabla F``, on it both are exactly
    zero and the gauge sum is formed.

    The main equation reads no mould: ``S x F`` pairs the node's
    ``lefts`` with F down its shift chain, from int 0, skipping a split
    with an exactly zero factor, and only nonzero values are measured.
    The gauge sum, formed only on resonant words, reads exp(+-G) from
    ``solver.exp``, formed once per node.  It starts from int 0, forms
    the left factor first and the right one only when the left is
    nonzero, and skips a split with an exactly zero factor, which, as
    the sum never holds a float -0.0, changes no bit.
    """
    freq = solver.freq
    divisors = freq.divisors
    letters = [w[0] for w in words_over(alphabet, 1)]
    level = [((), solver.root)]
    words = 0
    max_res = 0.0
    max_nf = 0.0
    max_gauge = 0.0
    scale = 0.0
    for r in range(max_r + 1):
        if r:
            level = [(v, solver.child(node, v))
                     for w, node in level for a in letters for v in [w + (a,)]]
        words += len(level)
        for w, node in level:
            entry, lefts, k, below, _ = node
            # the empty word's letter sum, 0, is on every lattice
            lam = divisors[k] if w else None
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
            gauge = 0
            if lam is None:
                for i in range(r):  # the split with the empty suffix weighs 0
                    a = solver.exp(w[:i], -1)
                    if a:
                        b = (r - i) * solver.exp(w[i:])
                        if b:
                            gauge = gauge + a * b
            max_res = max(max_res, _measure((nabla_s - shift) + s_f))
            max_nf = max(max_nf, _measure(nabla_f))
            max_gauge = max(max_gauge, _measure(gauge))
            scale = max(scale, _measure(nabla_s) + _measure(shift) + _measure(s_f))
    return EquationReport(words, max_res, max_nf, max_gauge, scale, freq.exact, tol)


def _measure(value):
    """``scalar_abs(value)``, taken only of a nonzero value: an exact
    zero of any type measures 0.0, as its ``scalar_abs`` does."""
    return scalar_abs(value) if value else 0.0
