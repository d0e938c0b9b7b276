"""Reference implementations and test-only helpers.

Nothing in the package uses these; they pin its results.

* Independent oracles avoid the library's own mode arithmetic: the
  bracket oracle differentiates pointwise values (:func:`evaluate`)
  numerically, the flow oracle integrates the Hamiltonian ODE with RK4,
  and the interleavings are enumerated one by one.
* Earlier forms of package code, kept to pin the current forms: the
  two-chain exponential for ``apply_exp_ad``'s fused chain; the
  composition sum for the prefix recursion of the mould exponential and
  logarithm; the per-mask subset sums for :func:`subset_sum_counts` (the
  fold of ``alphabet.extend_subset_sums`` over a word) and
  ``alphabet.beta``;
  the mode-bracket double loop with its helper calls for
  ``classical.mode_bracket``; and the stack solver, the earlier
  ``solver.MouldSolver`` with three word-keyed tables and an explicit
  dependency stack, for the subword-table solver; and the Fraction-pair
  ``FractionQI`` for the Gaussian-integer ``exact.QI``.  The last four
  are compared bit for bit.
* Small definitions the tests state properties of: the shuffle
  coefficient, the Poisson and Moyal structure constants of one mode
  pair, the crude subset bound on ``beta``, the unit and zero moulds,
  the mould commutator, the comould (right-nested bracket of slices
  along a word), the dense form of a sparse Weyl matrix with its
  spectral norm and Hermiticity defect, and the paper's homogeneous
  decomposition with the weighted tuple sums over it (lattice classes,
  the stripped part norm), the generator majorant built on them, and the
  exponential-tail constant at a given ``||B||``.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction
from operator import mul

import numpy as np

from mouldnf import Observable
from mouldnf.alphabet import beta, extend_subset_sums, is_resonant, l1, sigma, words_over
from mouldnf.liealg import chi
from mouldnf.mould import Mould, msub, times
from mouldnf.observables import _group_by_x_mode, norm_rho
from mouldnf.quantum import sine_coupling


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


def two_chain_exp_ad(Y, X, order, backend):
    """``sum_{d<=order} ad_Y^d X / d!`` plus the x0 part
    ``e^{ad_Y} x0 - x0`` as a second chain started at ``-[x0, Y]``
    (2 order - 1 brackets in all)."""
    total = X
    term = X
    for d in range(1, order + 1):
        term = backend.bracket(Y, term) * (1.0 / d)
        total = total + term
    if order >= 1:
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


def subset_sum_counts(word):
    """``{k_sigma: n}`` over the non-empty letter subsets of ``word``: the
    one-letter step of the growth fit's walk folded from ``{}``."""
    return functools.reduce(extend_subset_sums, word, {})


def beta_subset_bound(word, tau, freq):
    """Crude upper bound ``2^r max |lambda_sigma|^(-1/tau)`` on ``beta``,
    the maximum over the non-resonant distinct subset sums."""
    omega_f = tuple(float(c) for c in freq.omega)
    best = max(
        (
            abs(sum(ki * wi for ki, wi in zip(k, omega_f))) ** (-1.0 / tau)
            for k in subset_sum_counts(word)
            if not freq.in_lattice(k)
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
    return _group_by_x_mode(B, lambda k: lattice_class(freq, k))


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
    for word in words_over(parts, r, min_r=r):
        weight = math.exp(eta_r * beta(subset_sum_counts(word), tau_r, freq))
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
