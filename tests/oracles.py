"""Reference implementations and test-only helpers.

Nothing in the package uses these; they pin its results.

* Independent oracles avoid the library's own mode arithmetic: the
  bracket oracle differentiates pointwise values (:func:`evaluate`)
  numerically, the flow oracle integrates the Hamiltonian ODE with RK4,
  and the interleavings are enumerated one by one.
* Earlier forms of package code, kept to pin the current forms: the
  two-chain exponential for ``apply_exp_ad``'s fused chain; the
  tuple-keyed exponential chain and comould walk, on the backend's
  ``bracket``, for ``apply_exp_ad`` and ``contract`` on mode codes; the
  composition sum for the prefix recursion of the mould exponential and
  logarithm, and that recursion summing every term (:func:`summing_series`)
  for the one that skips exact zeros; the per-mask subset sums for
  :func:`subset_sum_counts` (the fold of ``alphabet.grow_subset_sums``
  over a word's letter-sum codes, the ints of the one codec
  ``classical.VectorCodes``) and
  ``alphabet.beta``; the per-word ``beta`` (:func:`beta_per_word`,
  deciding and weighting every sum afresh) for ``alphabet.beta`` on
  the weights of ``estimates.letter_sums`` kept across words; the growth fit
  driven by the solver's moulds on word tuples
  (:func:`mould_fit_growth_constants`), one mould at a time, for the
  frontier walk of ``estimates.fit_growth_constants``;
  the mode-bracket double loop with its helper calls for
  ``classical.mode_bracket``; and the stack solver, the earlier
  ``solver.MouldSolver`` with three word-keyed tables and an explicit
  dependency stack, for the node-table solver; the summing solver
  (:class:`SummingSolver`), a solver of its own on one word-keyed
  table that solves a word's subwords shortest first, sums every split
  term, exactly zero or not, and forms each letter sum afresh, for
  ``solver.step``, which skips exact zeros and carries letter sums one
  letter at a time; the equation check
  assembled from memoized combinator moulds (the product ``times``,
  ``madd``, ``msub``, the derivations ``nabla`` and ``nabla1``, the
  projection ``resonant_part`` on ``is_resonant``) for the word-by-word
  ``solver.verify_equation``; the interleavings rebuilt from
  ``itertools.combinations`` on every call for ``alphabet.shuffles`` on
  patterns kept per length pair; the shuffle check summing every term
  (:func:`summing_check_alternal`) for ``mould.check_alternal``, which
  skips exactly zero terms; the Weyl matrices on the basis box and their
  sparse product (:func:`weyl_matrix`, :func:`matrix_validate_moyal`)
  for ``quantum.weyl_operator`` and the matrix-free
  ``quantum.validate_moyal``; and the Fraction-pair
  ``FractionQI`` for the Gaussian-integer ``exact.QI``.  The last nine
  are compared bit for bit, and so is the mould-driven fit.  The shaped
  growth fit (the mould-driven one with a ``lag``), which divided every
  word by the growth shape ``(tau/(e eta_r))^(tau (r - lag))``, and the
  shaped constants, which multiplied it back in, for the shape-free
  fit, ``norm_power_constants`` and ``gap_constant``; these agree to
  rounding.
* Small definitions the tests state properties of: the letter sum of
  a word (:func:`ksum`; the solver carries it one letter at a time),
  the shuffle coefficient, the Poisson and Moyal structure constants of
  one mode pair, the crude subset bound on ``beta``, the unit, zero and
  one-letter moulds (the last is the left factor of the product that
  ``solver.verify_equation`` takes as a shift),
  the negated mould,
  the mould commutator, the comould (right-nested bracket of slices
  along a word), the dense form of a sparse Weyl matrix with its
  spectral norm and Hermiticity defect, and the paper's homogeneous
  decomposition with the weighted tuple sums over it (lattice classes,
  the stripped part norm), the generator majorant built on them, and the
  exponential-tail constant at a given ``||B||``.
* Variants of package code at values its callers never use: a prune at
  another relative threshold, and a table mould with another default.
"""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction
from operator import add, mul

import numpy as np

from mouldnf import Backend, Observable
from mouldnf.alphabet import (
    _as_int_vector,
    grow_subset_sums,
    l1,
    words_over,
)
from mouldnf.classical import check_hbar, sine_coupling
from mouldnf.estimates import SAMPLE_LIMIT, _finite, default_eta, exp_tail_constant, letter_sums
from mouldnf.exact import scalar_abs
from mouldnf.liealg import ad_x0, chi, exp_ad_tail_bound
from mouldnf.mould import AlternalityReport, Mould, mexp
from mouldnf.observables import PRUNE_REL, norm_rho, slices
from mouldnf.quantum import MoyalReport, _inside, _kmax
from mouldnf.solver import EquationReport


def evaluate(obs, x, xi):
    """Pointwise value of an observable at a real phase-space point."""
    total = 0j
    for (k, m), c in obs.items_sorted():
        phase = sum(ki * vi for ki, vi in zip(k, x)) + sum(mi * vi for mi, vi in zip(m, xi))
        total += c * complex(math.cos(phase), math.sin(phase))
    return total


def numeric_poisson(F, G, x, xi, h=1e-5):
    """Central-difference d_xi F . d_x G - d_x F . d_xi G at a point."""

    def deriv(obs, var, j):
        xp, xip = list(x), list(xi)
        if var == "x":
            xp[j] += h
            up = evaluate(obs, xp, xip)
            xp[j] -= 2 * h
            down = evaluate(obs, xp, xip)
        else:
            xip[j] += h
            up = evaluate(obs, xp, xip)
            xip[j] -= 2 * h
            down = evaluate(obs, xp, xip)
        return (up - down) / (2 * h)

    total = 0j
    for j in range(F.d):
        total += deriv(F, "xi", j) * deriv(G, "x", j) - deriv(F, "x", j) * deriv(G, "xi", j)
    return total


def hamiltonian_flow(Y, x0, xi0, T=1.0, steps=2000):
    """RK4 time-T flow of xdot = d_xi Y, xidot = -d_x Y for real Y."""

    def vector_field(x, xi):
        dx = [0.0] * len(x)
        dxi = [0.0] * len(x)
        for (k, m), c in Y.items_sorted():
            phase = sum(ki * vi for ki, vi in zip(k, x)) + sum(mi * vi for mi, vi in zip(m, xi))
            e = c * cmath.exp(1j * phase)
            for j in range(len(x)):
                dx[j] += (1j * m[j] * e).real
                dxi[j] += -(1j * k[j] * e).real
        return dx, dxi

    x, xi = list(x0), list(xi0)
    h = T / steps
    for _ in range(steps):
        k1 = vector_field(x, xi)
        k2 = vector_field(
            [a + h / 2 * b for a, b in zip(x, k1[0])],
            [a + h / 2 * b for a, b in zip(xi, k1[1])],
        )
        k3 = vector_field(
            [a + h / 2 * b for a, b in zip(x, k2[0])],
            [a + h / 2 * b for a, b in zip(xi, k2[1])],
        )
        k4 = vector_field(
            [a + h * b for a, b in zip(x, k3[0])],
            [a + h * b for a, b in zip(xi, k3[1])],
        )
        x = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(x, k1[0], k2[0], k3[0], k4[0])]
        xi = [a + h / 6 * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(xi, k1[1], k2[1], k3[1], k4[1])]
    return x, xi


def enumerate_interleavings(a, b):
    """All interleavings of two letter tuples, with repetition."""
    total = len(a) + len(b)
    for positions in itertools.combinations(range(total), len(a)):
        pos = set(positions)
        out = []
        ia = ib = 0
        for p in range(total):
            if p in pos:
                out.append(a[ia])
                ia += 1
            else:
                out.append(b[ib])
                ib += 1
        yield tuple(out)


def combination_shuffles(a, b):
    """``alphabet.shuffles`` as it rebuilt every interleaving from
    ``itertools.combinations`` on each call."""
    counts = {}
    total = len(a) + len(b)
    for positions in itertools.combinations(range(total), len(a)):
        pos_set = set(positions)
        ia, ib = iter(a), iter(b)
        w = tuple(next(ia) if p in pos_set else next(ib) for p in range(total))
        counts[w] = counts.get(w, 0) + 1
    return counts


def summing_check_alternal(M, max_r, alphabet, tol=1e-10):
    """``mould.check_alternal`` as it summed every shuffle term, exact
    zeros included, with its reference raised to the largest ``|M(w)|``
    over every word of length ``1..max_r`` (``check_alternal`` reads
    only the one-letter words for it)."""
    if M(()):
        raise ValueError("an alternal-type mould must vanish on the empty word")
    checked = []
    pairs = 0
    global_scale = max((scalar_abs(M(w)) for w in words_over(alphabet, max_r)), default=0.0)
    for a in words_over(alphabet, max_r - 1):
        for b in words_over(alphabet, max_r - len(a)):
            pairs += 1
            total = 0
            scale = 0.0
            for lam, mult in sorted(combination_shuffles(a, b).items()):
                v = M(lam)
                total = total + mult * v
                scale += mult * scalar_abs(v)
            checked.append((a, b, scalar_abs(total), scale))
            global_scale = max(global_scale, scale)
    violations = []
    max_ratio = 0.0
    for a, b, resid, scale in checked:
        ref = max(scale, global_scale)
        if ref > 0.0:
            ratio = resid / ref
            max_ratio = max(max_ratio, ratio)
            if ratio > tol:
                violations.append((a, b, resid, ref))
        elif resid > 0.0:
            violations.append((a, b, resid, ref))
            max_ratio = float("inf")
    return AlternalityReport(pairs, violations, max_ratio, tol)


def two_chain_exp_ad(Y, X, order, freq, backend):
    """``sum_{d<=order} ad_Y^d X / d!`` plus the x0 part
    ``e^{ad_Y} x0 - x0`` as a second chain started at ``-[x0, Y]``
    (2 order - 1 brackets in all)."""
    total = X
    term = X
    for d in range(1, order + 1):
        term = backend.bracket(Y, term) * (1.0 / d)
        total = total + term
    if order >= 1:
        term = -1.0 * ad_x0(freq, Y)
        total = total + term
        for d in range(2, order + 1):
            term = backend.bracket(Y, term) * (1.0 / d)
            total = total + term
    return total


def tuple_exp_ad(Y, X, order, params, freq, backend):
    """``apply_exp_ad`` as one chain of ``backend.bracket`` calls on
    tuple-keyed observables."""
    if order < 0:
        raise ValueError("order must be >= 0")
    norm_y = norm_rho(Y, params.rho)
    norm_x = norm_rho(X, params.rho)
    tail, ratio = exp_ad_tail_bound(norm_y, norm_x, order, params)
    total = X
    if order >= 1:
        term = backend.bracket(Y, X) - ad_x0(freq, Y)
        total = total + term
    for d in range(2, order + 1):
        term = backend.bracket(Y, term) * (1.0 / d)
        total = total + term
    return total, tail, ratio


def tuple_contract_range(M, B, r_min, r_max, backend):
    """The contraction of the one mould ``M``, as ``liealg.contract``
    forms those of F and G, by a walk of ``backend.bracket`` calls on
    tuple-keyed observables."""
    parts = slices(B)
    letters = sorted(parts)
    total = Observable.zero(B.d)
    if not letters:
        return total
    scale = 0.0

    def descend(word, nested):
        nonlocal total, scale
        r = len(word)
        if r >= r_min:
            value = complex(M(word))
            weight = abs(value) * nested.max_abs()
            if value != 0 and weight > PRUNE_REL * scale:
                total = total + (value / r) * nested
                scale = max(scale, weight)
        if r == r_max:
            return
        for letter in letters:
            extended = backend.bracket(parts[letter], nested)
            if extended:
                descend(word + (letter,), extended)

    for letter in letters:
        descend((letter,), parts[letter])
    return total


def prune_at(obs, rel):
    """``obs.prune()`` at the relative threshold ``rel``."""
    if not obs.coeffs:
        return obs
    top = max(abs(c) for c in obs.coeffs.values())
    data = {km: c for km, c in obs.coeffs.items() if c != 0 and abs(c) > rel * top}
    return Observable._of(obs.d, data, obs.real)


def table_mould(table, default):
    """The mould with the values of ``table`` on its words and
    ``default`` off them."""
    table = dict(table)
    return Mould(lambda w: table.get(w, default), name="table")


def compositions(word, nparts):
    """All splittings of ``word`` into ``nparts`` non-empty blocks."""
    r = len(word)
    if nparts > r:
        return
    if nparts == 1:
        yield (word,)
        return
    for i in range(1, r - nparts + 2):
        head = word[:i]
        for rest in compositions(word[i:], nparts - 1):
            yield (head, *rest)


def divide(x, n):
    """``x / n``, except that the exact zero, int 0, stays int 0 where
    int / int would make it a float."""
    return x if type(x) is int and x == 0 else x / n


def composition_series(M, word, coefficient):
    """``sum_k c_k sum_{word = w_1...w_k} M(w_1)...M(w_k)`` summed over
    all 2^(r-1) compositions of a non-empty ``word``, with ``c_k`` given
    by ``coefficient(k)`` as a ``(sign, divisor)`` pair."""
    total = 0
    for k in range(1, len(word) + 1):
        ksum = 0
        for parts in compositions(word, k):
            prod = M(parts[0])
            for p in parts[1:]:
                prod = prod * M(p)
            ksum = ksum + prod
        sign, divisor = coefficient(k)
        total = total + divide(sign * ksum, divisor)
    return total


def summing_series(M, empty_value, coefficient):
    """The prefix recursion of exp/log with its own column memo, summing
    every term: no product with a zero factor and no zero power is
    skipped, and each fold starts from its first product."""
    memo = {(): []}

    def value(word):
        r = len(word)
        if r == 0:
            return empty_value
        known = r
        while (cols := memo.get(word[:known])) is None:
            known -= 1
        for i in range(known + 1, r + 1):
            tails = [M(word[j:i]) for j in range(i)]
            col = [tails[0]]
            for k in range(2, i + 1):
                power = cols[k - 2][k - 2] * tails[k - 1]
                for j in range(k, i):
                    power = power + cols[j - 1][k - 2] * tails[j]
                col.append(power)
            cols = cols + [col]
            memo[word[:i]] = cols
        total = 0
        for k, power in enumerate(cols[-1], 1):
            sign, divisor = coefficient(k)
            total = total + divide(sign * power, divisor)
        return total

    return Mould(value, name="summing")


def subset_sums_by_mask(word):
    """The mode sum of every non-empty letter subset, each rebuilt from
    its letters, in bitmask order."""
    for mask in range(1, 1 << len(word)):
        chosen = [letter for i, letter in enumerate(word) if mask >> i & 1]
        yield tuple(sum(c) for c in zip(*chosen))


def subset_eigenvalues_by_mask(word, freq):
    """``|<k_sigma, omega>|`` over the non-resonant non-empty letter
    subsets, each sum decided afresh, in bitmask order."""
    omega_f = tuple(float(c) for c in freq.omega)
    for ksub in subset_sums_by_mask(word):
        if all(c == 0 for c in ksub) or freq._in_lattice(ksub):
            continue
        yield abs(sum(ki * wi for ki, wi in zip(ksub, omega_f)))


def mode_bracket_double_loop(F, G, coupling=None):
    """The mode bracket with generator-expression dot products and sum
    modes, built through the public ``Observable`` constructor."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    if F is G or F == G:
        return Observable.zero(F.d)
    g_items = G.items_sorted()
    data = {}
    for (k, m), c in F.items_sorted():
        for (kp, mp), cp in g_items:
            s = dot(k, mp) - dot(m, kp)
            if s == 0:
                continue
            if coupling is not None:
                s = coupling(s)
            km = (tuple(a + b for a, b in zip(k, kp)), tuple(a + b for a, b in zip(m, mp)))
            data[km] = data.get(km, 0j) + s * c * cp
    return Observable(F.d, data, real=F.real and G.real, _prune=False).prune()


def ksum(word):
    """The letter sum of a word; ``()`` for the empty word."""
    return tuple(map(sum, zip(*word)))


def trie_table(solver):
    """``{word: node}`` over every node of ``solver``'s trie, the empty
    word's first, each parent before its children."""
    table = {(): solver.root}
    stack = [((), solver.root)]
    while stack:
        word, node = stack.pop()
        for letter, below in node[4].items():
            table[word + (letter,)] = below
            stack.append((word + (letter,), below))
    return table


class StackSolver:
    """(F, S, N) by the earlier memoized induction: three word-keyed
    tables, and a stack that lists each new word's missing tail,
    prefixes and suffixes before solving it."""

    def __init__(self, freq, gauge=None):
        self.freq = freq
        self.gauge = gauge
        self._F = {(): freq.zero()}
        self._S = {(): freq.one()}
        self._N = {(): freq.zero()}

    def _gauge_value(self, word):
        if self.gauge is None:
            return self.freq.zero()
        return self.gauge(word)

    def _proper_splits(self, w):
        return [(w[:i], w[i:]) for i in range(1, len(w))]

    def values(self, word):
        if word in self._F:
            return self._F[word], self._S[word], self._N[word]
        stack = [word]
        while stack:
            w = stack[-1]
            if w in self._F:
                stack.pop()
                continue
            missing = [w[1:]] if w[1:] not in self._F else []
            for a, b in self._proper_splits(w):
                if a not in self._F:
                    missing.append(a)
                if b not in self._F:
                    missing.append(b)
            if missing:
                stack.extend(missing)
                continue
            self._solve_one(w)
            stack.pop()
        return self._F[word], self._S[word], self._N[word]

    def _solve_one(self, w):
        r = len(w)
        s_tail = self._S[w[1:]]
        sum_sf = self.freq.zero()
        sum_sn = self.freq.zero()
        for a, b in self._proper_splits(w):
            sa = self._S[a]
            sum_sf = sum_sf + sa * self._F[b]
            sum_sn = sum_sn + sa * self._N[b]
        if is_resonant(w, self.freq):
            f = s_tail - sum_sf
            s = divide(self._gauge_value(w) + sum_sn, r)
            n = self._gauge_value(w)
        else:
            f = self.freq.zero()
            s = (s_tail - sum_sf) / self.freq.eigenvalue(ksum(w))
            n = r * s - sum_sn
        self._F[w] = f
        self._S[w] = s
        self._N[w] = n


class SummingSolver:
    """(F, S, N) by induction on word length on one word-keyed table,
    every split term summed, exactly zero or not: the sums that skipping
    zero terms must reproduce.  A word's subwords are solved shortest
    first, each forming its letter sum afresh and deciding it on the
    frequency's raw lattice test."""

    def __init__(self, freq, gauge=None):
        self.freq = freq
        self.gauge = gauge
        self._table = {(): (freq.zero(), freq.one(), freq.zero())}

    def values(self, word):
        table = self._table
        for length in range(1, len(word) + 1):
            for j in range(len(word) - length + 1):
                sub = word[j:j + length]
                if sub not in table:
                    table[sub] = self._solve(sub)
        return table[word]

    def _solve(self, word):
        freq, table = self.freq, self._table
        r = len(word)
        k = ksum(word)
        if len(k) != freq.d:
            raise ValueError("word dimension does not match frequency")
        sum_sf = freq.zero()
        sum_sn = freq.zero()
        for i in range(1, r):
            sa = table[word[:i]][1]
            fb, _, nb = table[word[i:]]
            sum_sf = sum_sf + sa * fb
            sum_sn = sum_sn + sa * nb
        s_tail = table[word[1:]][1]
        if freq._in_lattice(k):
            n = freq.zero() if self.gauge is None else self.gauge(word)
            return (s_tail - sum_sf, divide(n + sum_sn, r), n)
        s = (s_tail - sum_sf) / freq._eigenvalue(k, exact_zero=False)
        return (freq.zero(), s, r * s - sum_sn)


def times_all_splits(M, N, word):
    """``(M x N)(word)``, every split summed, exactly zero or not."""
    total = 0
    for i in range(len(word) + 1):
        total = total + M(word[:i]) * N(word[i:])
    return total


def shuffle_coefficient(a, b, lam):
    """Number of ways ``lam`` arises by interdigitating ``a`` and ``b``:
    a dynamic program on prefix pairs; zero when the lengths do not add
    up."""
    ra, rb = len(a), len(b)
    if len(lam) != ra + rb:
        return 0
    prev = [1] + [0] * rb
    for j in range(1, rb + 1):
        prev[j] = prev[j - 1] if b[j - 1] == lam[j - 1] else 0
    for i in range(1, ra + 1):
        cur = [0] * (rb + 1)
        cur[0] = prev[0] if a[i - 1] == lam[i - 1] else 0
        for j in range(1, rb + 1):
            if a[i - 1] == lam[i + j - 1]:
                cur[j] += prev[j]
            if b[j - 1] == lam[i + j - 1]:
                cur[j] += cur[j - 1]
        prev = cur
    return prev[rb]


def word_codes(freq, word):
    """The growth fit's letter sums of the letters of ``word``, up to its
    length: ``estimates.letter_sums``' codec, divisors and weights."""
    return letter_sums(freq, word, max(len(word), 1))


def subset_sum_counts(word, codes):
    """``{k_sigma: n}`` over the non-empty letter subsets of ``word``,
    each sum by its code in ``codes``: the one-letter step of the growth
    fit's frontier folded from ``{}``."""
    return functools.reduce(grow_subset_sums, map(codes.encode, word), {})


def tuple_subset_sums(counts, letter):
    """The one-letter step of the subset-sum counts keyed by letter-sum
    tuples, as the mould-driven growth fit took it."""
    step = dict(counts)
    step[letter] = step.get(letter, 0) + 1
    for k, n in counts.items():
        k = tuple(map(add, k, letter))
        step[k] = step.get(k, 0) + n
    return step


def beta_per_word(counts, tau, freq):
    """``alphabet.beta`` as each word formed it before the weights were
    kept across words: every distinct sum of ``counts`` decided on the
    lattice and weighted afresh, resonant sums left out of the fsum."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    omega_f = tuple(float(c) for c in freq.omega)
    return math.fsum(
        n * abs(sum(map(mul, k, omega_f))) ** (-1.0 / tau)
        for k, n in counts.items()
        if not freq._in_lattice(k)
    )


def beta_subset_bound(word, tau, freq):
    """Crude upper bound ``2^r max |lambda_sigma|^(-1/tau)`` on ``beta``,
    the maximum over the non-resonant distinct subset sums."""
    omega_f = tuple(float(c) for c in freq.omega)
    codes, _, _ = word_codes(freq, word)
    best = max(
        (
            abs(sum(ki * wi for ki, wi in zip(k, omega_f))) ** (-1.0 / tau)
            for k in map(codes.decode, subset_sum_counts(word, codes))
            if not freq._in_lattice(k)
        ),
        default=0.0,
    )
    return 2 ** len(word) * best


def poisson_structure_constant(k, m, kp, mp):
    """Structure constant ``k.m' - m.k'`` of one mode pair (an integer)."""
    return sum(map(mul, k, mp)) - sum(map(mul, m, kp))


def moyal_structure_constant(k, m, kp, mp, hbar):
    s = poisson_structure_constant(k, m, kp, mp)
    if s == 0:
        return 0.0
    return sine_coupling(hbar)(s)


def weyl_matrix(F, cutoff, hbar):
    """Weyl quantization of a symbol as a sparse matrix ``{(row, col): entry}``
    on the Fourier basis e^{i n.x}, |n|_inf <= cutoff, keyed by basis tuples.

    Mode ``(k, m)`` maps ``e^{i n.x}`` to
    ``exp(-i hbar m.(n + k/2)) e^{i (n+k).x}``, i.e. the entry at row
    ``n+k``, column ``n`` is ``b_km exp(-i hbar m.(n + k/2))`` (midpoint
    rule).  Rows falling outside the basis box are the inherent
    truncation; callers compare on the interior only.
    """
    check_hbar(hbar)
    kmax = _kmax(F)
    if cutoff < kmax + 1:
        raise ValueError(
            f"cutoff {cutoff} too small: support escapes the box (max |k|_inf = {kmax})"
        )
    entries = {}
    for (k, m), c in F.items_sorted():
        for n in itertools.product(range(-cutoff, cutoff + 1), repeat=F.d):
            row = tuple(a + b for a, b in zip(n, k))
            if not _inside(row, cutoff):
                continue
            phase = sum(mi * (ni + ki / 2.0) for mi, ni, ki in zip(m, n, k))
            entries[row, n] = entries.get((row, n), 0j) + c * complex(
                math.cos(hbar * phase), -math.sin(hbar * phase)
            )
    return entries


def _matmul(A, B):
    """Product of two sparse matrices keyed by ``(row, col)``."""
    rows_b = {}
    for (k, j), b in B.items():
        rows_b.setdefault(k, []).append((j, b))
    out = {}
    for (i, k), a in A.items():
        for j, b in rows_b.get(k, ()):
            out[i, j] = out.get((i, j), 0j) + a * b
    return out


def matrix_validate_moyal(F, G, cutoff, hbar, tol=1e-10):
    """``quantum.validate_moyal`` on Weyl matrices over the whole
    ``cutoff`` box: the commutator is a sparse matrix product, compared
    on the interior rows and columns.  Refuses where a symbol's or the
    bracket's modes reach the box edge."""
    margin = _kmax(F) + _kmax(G)
    wf = weyl_matrix(F, cutoff, hbar)
    wg = weyl_matrix(G, cutoff, hbar)
    wb = weyl_matrix(Backend(hbar).bracket(F, G), cutoff, hbar)
    fg, gf = _matmul(wf, wg), _matmul(wg, wf)
    inner = cutoff - margin
    if inner < 0:
        raise ValueError("cutoff too small: no interior left after margin")
    dev = max(
        (
            abs(wb.get(key, 0j) - (fg.get(key, 0j) - gf.get(key, 0j)) / (1j * hbar))
            for key in wb.keys() | fg.keys() | gf.keys()
            if _inside(key[0], inner) and _inside(key[1], inner)
        ),
        default=0.0,
    )
    return MoyalReport(dev, margin, (2 * inner + 1) ** F.d, tol)


def dense(entries, d, cutoff):
    """The sparse Weyl matrix ``entries`` as a dense array over the basis
    box ``|n|_inf <= cutoff``, in lexicographic order of ``n``."""
    basis = list(itertools.product(range(-cutoff, cutoff + 1), repeat=d))
    index = {n: i for i, n in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for (row, col), value in entries.items():
        out[index[row], index[col]] = value
    return out


def spectral_norm(entries):
    return float(np.linalg.norm(entries, 2))


def hermiticity_defect(entries):
    return float(np.max(np.abs(entries - entries.conj().T)))


def unit_mould():
    """The multiplicative unit: 1 on the empty word, 0 elsewhere."""
    return Mould(lambda w: 1 if len(w) == 0 else 0, name="unit")


def zero_mould():
    return Mould(lambda w: 0, name="zero")


def ident_mould():
    """The mould that is 1 exactly on one-letter words."""
    return Mould(lambda w: 1 if len(w) == 1 else 0, name="I")


def mneg(M):
    """The mould ``-M``."""
    return Mould(lambda w: -M(w), name=f"-{M.name}")


def madd(M, N):
    return Mould(lambda w: M(w) + N(w), name=f"({M.name}+{N.name})")


def msub(M, N):
    return Mould(lambda w: M(w) - N(w), name=f"({M.name}-{N.name})")


def times(M, N):
    """Mould product: sum of ``M(a) N(b)`` over the r+1 splittings.

    Splittings include the empty factors, so the unit mould is a
    two-sided identity.  A split with an exactly zero factor is skipped
    (the right factor is not evaluated when the left one is zero).  The
    sum starts at int 0 and never holds a float -0.0, so a skipped
    product, a signed zero when the other factor is finite, would not
    change it; a word whose every split is skipped gets int 0.
    """

    def value(word):
        total = 0
        for i in range(len(word) + 1):
            a = M(word[:i])
            if a:
                b = N(word[i:])
                if b:
                    total = total + a * b
        return total

    return Mould(value, name=f"({M.name}x{N.name})")


def nabla(M, freq):
    """Multiply the value on each word by its eigenvalue sum.

    The factor is exactly zero on resonant words (integer-lattice
    decision), never a tiny float.  Each word's letter sum is formed
    once, decided on the lattice once and, off it, paired with omega.
    """

    def value(word):
        k = ksum(word)
        if not word or freq._in_lattice(k):
            return freq.zero()
        if len(k) != freq.d:
            raise ValueError("word dimension does not match frequency")
        return freq._eigenvalue(k, exact_zero=False) * M(word)

    return Mould(value, name=f"nabla({M.name})")


def nabla1(M):
    """Multiply the value on each word by the word length."""
    return Mould(lambda w: len(w) * M(w), name=f"nabla1({M.name})")


def resonant_part(M, freq):
    """Keep values on resonant words, zero elsewhere."""

    def value(word):
        if is_resonant(word, freq):
            return M(word)
        return freq.zero()

    return Mould(value, name=f"[{M.name}]_0")


def is_resonant(word, freq):
    """Whether the letter sum lies in the integer resonance lattice."""
    return not word or freq._in_lattice(ksum(word))


def combinator_verify_equation(solver, max_r, alphabet, tol=1e-9):
    """``solver.verify_equation`` assembled, as it was, from memoized
    combinator moulds: each word's letter sum is formed and decided in
    ``nabla(S)``, ``nabla(F)`` and ``resonant_part``."""
    freq = solver.freq
    S = solver.S_mould
    F = solver.F_mould
    G = solver.G_mould
    nabla_S = nabla(S, freq)
    # times(I, S) with I the mould that is 1 on one-letter words: S on
    # the word less its first letter, and 0 on the empty word
    I_times_S = Mould(lambda w: S(w[1:]) if w else 0, name=f"(Ix{S.name})")
    S_times_F = times(S, F)
    residual = madd(msub(nabla_S, I_times_S), S_times_F)
    nabla_F = nabla(F, freq)
    gauge_check = resonant_part(times(mexp(G, -1), nabla1(mexp(G))), freq)

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


def mbracket(M, N):
    """Mould commutator ``M x N - N x M``."""
    return msub(times(M, N), times(N, M))


def comould(word, parts, backend):
    """Right-nested iterated bracket of the slices along a word;
    ``parts`` maps each letter to its slice, and the empty word gives
    the zero observable."""
    d = next(iter(parts.values())).d if parts else 1
    if not word:
        return Observable.zero(d)
    acc = parts[word[0]]
    for letter in word[1:]:
        acc = backend.bracket(parts[letter], acc)
    return acc


def lattice_class(freq, k):
    """Canonical representative of the integer vector ``k`` modulo the
    resonance lattice of ``freq``."""
    k = tuple(k)
    for col, row in freq._pivots:
        q = k[col] // row[col]
        if q:
            k = tuple(a - q * b for a, b in zip(k, row))
    return k


def homogeneous_parts(B, freq):
    """Partition into eigen-components of the x0 adjoint action.

    Modes are grouped by the class of ``k`` modulo the resonance
    lattice (exact integer decision), which is exactly grouping by the
    eigenvalue ``i<k, omega>`` for a consistent frequency.  The parts
    sum back to ``B`` bitwise.  Returns ``class_representative ->
    Observable``, sorted by representative.
    """
    parts = {}
    for (k, m), c in B.items_sorted():
        parts.setdefault(lattice_class(freq, k), {})[(k, m)] = c
    return {g: Observable(B.d, data, _prune=False) for g, data in sorted(parts.items())}


def norm_rho_stripped(G, rho):
    """Part norm with a single x-mode weight: ``sum |b| e^(rho(|m| + |k|))``.

    One of the two e^(rho|k|) factors of ``norm_rho`` is the budget
    that the small-divisor weight ``e^(eta beta)`` consumes letter by
    letter in the geometric-eta estimates; the norm-power bound on the
    weighted tuple sums holds with this stripped convention.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = 0.0
    for (k, m), c in G.items_sorted():
        total += abs(c) * math.exp(rho * (l1(m) + l1(k)))
    return total


def weighted_tuple_sum(B, r, eta_r, tau_r, freq, rho, strip_letter_weight=False):
    """Weighted sum of products of part norms over r-tuples of classes.

    Exact finite sum over all r-tuples of the homogeneous classes of
    ``B`` of ``prod ||B_li||_rho * exp(eta_r * beta_{tau_r}(word))``.
    With ``strip_letter_weight`` the part norms drop one e^(rho|k|)
    factor (see :func:`norm_rho_stripped`); that is the convention under
    which the geometric eta ladder keeps the sums below ``||B||_rho^r``.
    """
    if eta_r <= 0 or tau_r < 1:
        raise ValueError("need eta_r > 0 and tau_r >= 1")
    parts = homogeneous_parts(B, freq)
    if not parts:
        return 0.0
    part_norm = norm_rho_stripped if strip_letter_weight else norm_rho
    norms = {rep: part_norm(part, rho) for rep, part in parts.items()}
    total = 0.0
    for word in itertools.product(sorted(parts), repeat=r):
        counts = functools.reduce(tuple_subset_sums, word, {})
        weight = math.exp(eta_r * beta_per_word(counts, tau_r, freq))
        prod = 1.0
        for rep in word:
            prod *= norms[rep]
        total += prod * weight
    return total


def generator_majorant(N, delta, gamma, tau_list, eta_list, G_list, eps_list):
    """Generator-norm majorant: sum over r of
    ``((r-1)!/r)(gamma/delta^2)^(r-1) G_r (tau_r/(e eta_r))^(tau_r r) eps_r``
    with the supplied per-length growth constants and tuple sums."""
    if min(len(tau_list), len(eta_list), len(G_list), len(eps_list)) < N:
        raise ValueError("need lists of length >= N")
    total = 0.0
    for r in range(1, N + 1):
        tau_r, eta_r, g_r, eps_r = tau_list[r - 1], eta_list[r - 1], G_list[r - 1], eps_list[r - 1]
        total += (
            math.factorial(r - 1)
            / r
            * (gamma / delta ** 2) ** (r - 1)
            * g_r
            * (tau_r / (math.e * eta_r)) ** (tau_r * r)
            * eps_r
        )
    return total


def exp_tail_constant_at(N, delta, normB):
    """The geometric-series constant of the exponential truncation tail
    at a given ``||B||``; ``estimates.exp_tail_constant`` is its value at
    the unit norm of the norm-power constant."""
    return 2.0 * (delta ** 2 / (4.0 * chi(delta / 2.0)) + normB) * (4.0 / delta ** 2) ** (N + 1)


def growth_shape(rho, alpha, tau, r, lag=0):
    """``(tau/(e eta_r))^(tau (r - lag))``, formed as the shaped fit
    formed it; refused by name beyond float range."""
    eta_r = default_eta(rho, alpha, tau, r)
    name = f"growth shape (tau/(e eta_r))^(tau r) exp(eta_r beta) at word length {r}"
    base = _finite(name, lambda: (tau / (math.e * eta_r)) ** tau)
    return _finite(name, lambda: base ** (r - lag))


def tuple_fit_walk(freq, alphabet, r_max, seed):
    """The growth fit's words as the mould-driven fit walked them: for
    each length r, ``(r, counts)`` with ``counts`` the tuple-keyed
    subset-sum counts of its distinct sampled words, in order of first
    draw; the same rng stream as ``estimates._sample_words``."""
    rng = random.Random(seed)
    letters = sorted(_as_int_vector(k) for k in alphabet)
    words, counts = [()], {(): {}}
    for r in range(1, r_max + 1):
        if len(words) * len(letters) <= SAMPLE_LIMIT:
            words = [w + (k,) for w in words for k in letters]
        else:
            if len(words) < SAMPLE_LIMIT:
                words = [rng.choice(words) for _ in range(SAMPLE_LIMIT)]
            words = [w + (rng.choice(letters),) for w in words]
        counts = {w: tuple_subset_sums(counts[w[:-1]], w[-1]) for w in dict.fromkeys(words)}
        yield r, counts


def tuple_beta(counts, freq, weights):
    """``alphabet.beta`` on tuple-keyed counts, each sum's weight read
    from ``freq.divisors`` and kept in ``weights``."""
    for k in counts:
        if k not in weights:
            divisor = freq.divisors[k]
            weights[k] = 0.0 if divisor is None else abs(divisor) ** (-1.0 / freq.dioph_tau)
    return math.fsum(n * weights[k] for k, n in counts.items())


def mould_fit_growth_constants(M, freq, alphabet, r_max, rho, alpha, seed, lag=None):
    """The growth fit as it scored one mould ``M`` on word tuples, on
    the subword-table solver's moulds: the reference of the frontier's
    F and G lists.  With ``lag`` every word is also divided by its
    growth shape :func:`growth_shape` (``lag = 1`` for the normal-form
    mould F), as the shaped fit did."""
    tau = freq.dioph_tau
    weights = {}
    suprema = []
    for r, counts in tuple_fit_walk(freq, alphabet, r_max, seed):
        eta_r = default_eta(rho, alpha, tau, r)
        if lag is None:
            name, power = f"exp(eta_r beta) at word length {r}", 1.0
        else:
            name = f"growth shape (tau/(e eta_r))^(tau r) exp(eta_r beta) at word length {r}"
            power = growth_shape(rho, alpha, tau, r, lag)
        best = 0.0
        for w, c in counts.items():
            scale = _finite(name, lambda: power * math.exp(eta_r * tuple_beta(c, freq, weights)))
            value = abs(complex(M(w)))
            if value:
                best = max(best, value / scale)
        suprema.append(best)
    return suprema


def shaped_norm_power_constants(N, rho, rho_prime, tau, alpha, G_list):
    """``(D, eps, Gamma_N, Gamma_N2N)`` from shaped growth constants,
    each Gamma term multiplying the shape ``(tau/(e eta_r))^(tau r)``
    back in."""
    if len(G_list) < N * N:
        raise ValueError(f"need growth constants up to length {N * N}")
    delta = rho - rho_prime

    def gamma_sum(r_lo, r_hi):
        total = 0.0
        for r in range(r_lo, r_hi + 1):
            eta_r = default_eta(rho, alpha, tau, r)
            total += _finite(
                f"Gamma term at word length {r}",
                lambda: math.factorial(r - 1)
                / r
                * (1.0 / delta ** 2) ** (r - 1)
                * G_list[r - 1]
                * (tau / (math.e * eta_r)) ** (tau * r),
            )
        return total

    gamma_n = gamma_sum(1, N)
    gamma_n2 = gamma_sum(N + 1, N * N)
    D = _finite(
        f"D at N = {N}",
        lambda: exp_tail_constant(N, delta) * gamma_n ** (N + 1) + 2.0 * N ** N * gamma_n2,
    )
    eps = 1.0 if gamma_n == 0.0 else min(1.0, delta / (8.0 * gamma_n))
    return D, eps, gamma_n, gamma_n2


def shaped_gap_constant(N, rho, rho_prime, tau, alpha, F_N):
    """``C_N`` from the shaped F constant at length N, multiplying its
    shape ``(tau/(e eta_N))^(tau (N - 1))`` back in."""
    return _finite(
        f"C_N at word length {N}",
        lambda: F_N
        / (6.0 * N)
        * (2.0 ** N * tau / (math.e * rho * alpha ** (1.0 / tau))) ** ((N - 1) * tau)
        * ((N + 2) / (math.e * (rho - rho_prime))) ** (N + 2),
    )


# The earlier ``exact.QI``, one Fraction per part, kept as written (its
# hash does not match that of an equal int or Fraction).
_RAT = (int, Fraction)


class FractionQI:
    """A complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, FractionQI):
            return value
        if isinstance(value, _RAT):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {value!r} to QI")

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = FractionQI.coerce(other)
        return FractionQI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionQI.coerce(other)
        return FractionQI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return FractionQI.coerce(other) - self

    def __neg__(self):
        return FractionQI(-self.re, -self.im)

    def __mul__(self, other):
        other = FractionQI.coerce(other)
        return FractionQI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionQI.coerce(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero in QI")
        return FractionQI(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return FractionQI.coerce(other) / self

    def __eq__(self, other):
        try:
            other = FractionQI.coerce(other)
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
