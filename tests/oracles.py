"""Independent numerical oracles used to pin expected values.

These deliberately avoid the library's own mode arithmetic: the bracket
oracle differentiates the evaluated functions numerically, and the flow
oracle integrates the Hamiltonian ODE with RK4.  The two-chain
exponential keeps the earlier formula of ``apply_exp_ad`` as a
reference for the fused chain, and the composition sum keeps the
earlier formula of the mould exponential and logarithm as a reference
for the prefix recursion.  The per-mask subset sums and the mode-bracket
double loop with its helper calls are the earlier forms of
``alphabet._subset_eigenvalues`` and ``classical.mode_bracket``, kept to
pin their results bit for bit.  The stack solver is the earlier
``solver.MouldSolver``, with three word-keyed tables and an explicit
dependency stack, kept to pin the subword-table solver bit for bit.
"""

import cmath
import itertools

from mouldnf import Observable
from mouldnf.alphabet import is_resonant, sigma


def numeric_poisson(F, G, x, xi, h=1e-5):
    """Central-difference d_xi F . d_x G - d_x F . d_xi G at a point."""

    def deriv(obs, var, j):
        xp, xip = list(x), list(xi)
        if var == "x":
            xp[j] += h
            up = obs.evaluate(xp, xip)
            xp[j] -= 2 * h
            down = obs.evaluate(xp, xip)
        else:
            xip[j] += h
            up = obs.evaluate(xp, xip)
            xip[j] -= 2 * h
            down = obs.evaluate(xp, xip)
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


def two_chain_exp_ad(Y, X, order, backend, with_x0=False):
    """``sum_{d<=order} ad_Y^d X / d!`` plus, with ``with_x0``, the x0
    part ``e^{ad_Y} x0 - x0`` as a second chain started at ``-[x0, Y]``
    (2 order - 1 brackets in all)."""
    total = X
    term = X
    for d in range(1, order + 1):
        term = backend.bracket(Y, term) * (1.0 / d)
        total = total + term
    if with_x0 and order >= 1:
        term = -1.0 * backend.ad_x0(Y)
        total = total + term
        for d in range(2, order + 1):
            term = backend.bracket(Y, term) * (1.0 / d)
            total = total + term
    return total


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
        total = total + (sign * ksum) / divisor
    return total


def subset_eigenvalues_by_mask(word, freq):
    """``|<k_sigma, omega>|`` over the non-resonant non-empty letter
    subsets, each sum rebuilt from its letters and decided afresh, in
    bitmask order."""
    omega_f = tuple(float(c) for c in freq.omega)
    for mask in range(1, 1 << len(word)):
        chosen = [letter for i, letter in enumerate(word) if mask >> i & 1]
        ksub = [sum(c) for c in zip(*chosen)]
        if all(c == 0 for c in ksub) or freq.in_lattice(ksub):
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
            s = (self._gauge_value(w) + sum_sn) / r
            n = self._gauge_value(w)
        else:
            f = self.freq.zero()
            s = (s_tail - sum_sf) / sigma(w, self.freq)
            n = r * s - sum_sn
        self._F[w] = f
        self._S[w] = s
        self._N[w] = n
