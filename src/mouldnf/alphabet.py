"""Letters, words, eigenvalue arithmetic and shuffle combinatorics.

A letter is an integer mode vector ``k`` in Z^d, a tuple of ints; its
scalar eigenvalue ``i<k, omega>`` is derived from a :class:`Frequency`.
A word is the tuple of its letters: ``()`` is the empty word, ``len``
its length, slices and ``+`` its splits and concatenations, and it keys
every memo table downstream.  Letters are checked to be integral once,
where they enter from outside the program (:func:`words_over` checks
its alphabet); inside, words are trusted.

Resonance (a vanishing eigenvalue sum) is always decided exactly on the
integer lattice spanned by the declared resonance basis, never by
comparing a floating-point inner product against zero; small divisors
would otherwise be misclassified.  Throughout this package ``|k|`` means
the l1 norm (the weights it induces are sub-multiplicative under mode
addition, which the norm estimates rely on).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add

from .exact import QI

_EXACT_TYPES = (int, Fraction)


def l1(vec):
    return sum(abs(c) for c in vec)


def _as_int_vector(vec):
    out = tuple(int(c) for c in vec)
    if any(c != int(c) for c in vec):
        raise ValueError(f"mode vector must be integral, got {vec!r}")
    return out


class DegenerateFrequencyError(ValueError):
    """Raised when a frequency box contains no non-resonant modes."""


def _hermite_normal_form(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns a list of nonzero rows with positive pivots, pivot columns
    strictly increasing, and entries above each pivot reduced modulo it.
    Exact integer arithmetic throughout.
    """
    mat = [list(r) for r in rows if any(c != 0 for c in r)]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        # Euclidean elimination below the pivot.
        while True:
            dirty = False
            for i in range(pivot_row + 1, len(mat)):
                if mat[i][col] == 0:
                    continue
                q = mat[i][col] // mat[pivot_row][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
                if mat[i][col] != 0:
                    mat[pivot_row], mat[i] = mat[i], mat[pivot_row]
                    dirty = True
            if not dirty:
                break
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        # Reduce entries above the pivot.
        for i in range(pivot_row):
            q = mat[i][col] // mat[pivot_row][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [tuple(r) for r in mat[:pivot_row] if any(c != 0 for c in r)]


class Frequency:
    """A frequency vector with its declared resonance lattice.

    Parameters
    ----------
    omega : sequence of float or Fraction
        Frequency vector.  If every component is an ``int`` or
        ``Fraction`` the frequency is *exact* and eigenvalues are
        returned as :class:`~mouldnf.exact.QI` values.
    resonance_basis : sequence of integer vectors, optional
        Integer vectors spanning ``{k : <k, omega> = 0}``.  Defaults to
        the trivial lattice ``{0}`` (non-resonant frequency).
    dioph_alpha, dioph_tau : float, optional
        Diophantine parameters; when ``dioph_alpha`` is set, the lower
        bound ``|<k, omega>| >= alpha * |k|^(-tau)`` is spot-checked on
        a box of modes at construction.
    """

    def __init__(self, omega, resonance_basis=(), dioph_alpha=None, dioph_tau=1.0):
        omega = tuple(omega)
        if not omega:
            raise ValueError("omega must be non-empty")
        self.exact = all(isinstance(c, _EXACT_TYPES) for c in omega)
        if self.exact:
            self.omega = tuple(Fraction(c) for c in omega)
        else:
            self.omega = tuple(float(c) for c in omega)
            if not all(math.isfinite(c) for c in self.omega):
                raise ValueError(f"omega must be finite, got {self.omega!r}")
        self.d = len(omega)
        self.dioph_tau = float(dioph_tau)
        if not (math.isfinite(self.dioph_tau) and self.dioph_tau >= 1.0):
            raise ValueError(f"dioph_tau must be finite and >= 1, got {self.dioph_tau!r}")
        self.dioph_alpha = None if dioph_alpha is None else float(dioph_alpha)
        if self.dioph_alpha is not None and not math.isfinite(self.dioph_alpha):
            raise ValueError(f"dioph_alpha must be finite, got {self.dioph_alpha!r}")

        basis = tuple(_as_int_vector(b) for b in resonance_basis)
        for b in basis:
            if len(b) != self.d:
                raise ValueError("resonance basis dimension mismatch")
        self.resonance_basis = basis
        self._hnf = _hermite_normal_form(basis)
        self._pivots = []
        for row in self._hnf:
            col = next(i for i, c in enumerate(row) if c != 0)
            self._pivots.append((col, row))
        self._check_consistency()

    def _check_consistency(self):
        omega_f = tuple(float(c) for c in self.omega)
        for b in self.resonance_basis:
            dot = sum(bi * wi for bi, wi in zip(b, omega_f))
            if self.exact:
                exact_dot = sum(bi * wi for bi, wi in zip(b, self.omega))
                if exact_dot != 0:
                    raise ValueError(f"declared resonance {b} has <k,omega> = {exact_dot}")
            elif abs(dot) > 1e-12 * l1(b) * l1(omega_f):
                raise ValueError(f"declared resonance {b} is not numerically consistent")
        if self.dioph_alpha is not None:
            kbox = min(8, max(4, 2 * self.d))
            for k in iter_modes(self.d, kbox):
                if self.in_lattice(k):
                    continue
                lhs = abs(sum(ki * wi for ki, wi in zip(k, omega_f)))
                if lhs < self.dioph_alpha * l1(k) ** (-self.dioph_tau) * (1 - 1e-12):
                    raise ValueError(
                        f"dioph_alpha={self.dioph_alpha} violated at k={k}: |<k,omega>|={lhs}"
                    )

    def in_lattice(self, k):
        """Exact membership of ``k`` in the declared resonance lattice."""
        k = list(_as_int_vector(k))
        for col, row in self._pivots:
            if k[col] % row[col] != 0:
                return False
            q = k[col] // row[col]
            k = [a - q * b for a, b in zip(k, row)]
        return all(c == 0 for c in k)

    def lattice_class(self, k):
        """Canonical representative of ``k`` modulo the resonance lattice."""
        k = list(_as_int_vector(k))
        for col, row in self._pivots:
            q = k[col] // row[col]
            if q:
                k = [a - q * b for a, b in zip(k, row)]
        return tuple(k)

    def pairing(self, k):
        """<k, omega> as a float, or a Fraction for exact frequencies."""
        return sum(ki * wi for ki, wi in zip(k, self.omega))

    def eigenvalue(self, k, exact_zero=True):
        """i<k, omega> for a mode vector ``k``.

        With ``exact_zero`` (the default) the value is exactly zero for
        lattice members, matching the resonance decision used everywhere
        else.
        """
        k = _as_int_vector(k)
        if len(k) != self.d:
            raise ValueError("mode dimension mismatch")
        if exact_zero and self.in_lattice(k):
            return QI(0, 0) if self.exact else 0j
        dot = self.pairing(k)
        if self.exact:
            return QI(0, dot)
        return complex(0.0, dot)

    def zero(self):
        """The scalar zero of the eigenvalue field."""
        return QI(0, 0) if self.exact else 0j

    def one(self):
        return QI(1, 0) if self.exact else complex(1.0)

    def __repr__(self):
        return (
            f"Frequency(omega={self.omega!r}, resonance_basis={self.resonance_basis!r},"
            f" exact={self.exact})"
        )


def ksum(word):
    """The letter sum of a word; ``()`` for the empty word."""
    return tuple(map(sum, zip(*word)))


def words_over(alphabet, max_r, min_r=1):
    """All words of length ``min_r..max_r`` over ``alphabet``: by length,
    then lexicographically in the sorted letters, which must be integral."""
    letters = sorted(_as_int_vector(k) for k in alphabet)
    for r in range(min_r, max_r + 1):
        yield from itertools.product(letters, repeat=r)


def sigma(word, freq):
    """Eigenvalue sum i<sum_j k_j, omega> of a word, in floating point.

    Whether the sum *is* zero is not decided from this value; use
    :func:`is_resonant`.
    """
    if not word:
        return freq.zero()
    if len(word[0]) != freq.d:
        raise ValueError("word dimension does not match frequency")
    return freq.eigenvalue(ksum(word), exact_zero=True)


def is_resonant(word, freq):
    """Whether the letter sum lies in the integer resonance lattice."""
    if not word:
        return True
    ks = ksum(word)
    return all(c == 0 for c in ks) or freq.in_lattice(ks)


def _subset_eigenvalues(letters, freq):
    """``|<k_sigma, omega>|`` for every non-empty letter subset ``sigma``
    whose mode sum ``k_sigma`` is non-resonant (decided exactly), in
    bitmask order.

    Each subset sum is its lowest letter added to the sum of the rest,
    an earlier mask; each distinct sum is decided and paired once.
    """
    if not letters:
        return
    omega_f = tuple(float(c) for c in freq.omega)
    ksub = [(0,) * len(letters[0])] * (1 << len(letters))
    lam_of = {}
    for mask in range(1, len(ksub)):
        low = mask & -mask
        k = ksub[mask] = tuple(map(add, ksub[mask ^ low], letters[low.bit_length() - 1]))
        try:
            lam = lam_of[k]
        except KeyError:
            if all(c == 0 for c in k) or freq.in_lattice(k):
                lam = None
            else:
                lam = abs(sum(ki * wi for ki, wi in zip(k, omega_f)))
            lam_of[k] = lam
        if lam is not None:
            yield lam


def beta(word, tau, freq):
    """Sum of |lambda_sigma|^(-1/tau) over non-resonant letter subsets.

    ``lambda_sigma`` is the eigenvalue of the subset sum of letters;
    subsets whose mode sum lies in the resonance lattice are skipped
    (decided exactly).  Returns 0.0 for the empty word by convention.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    total = 0.0
    for lam in _subset_eigenvalues(word, freq):
        total += lam ** (-1.0 / tau)
    return total


def shuffle_coefficient(a, b, lam):
    """Number of ways ``lam`` arises by interdigitating ``a`` and ``b``.

    Standard dynamic program on prefix pairs; zero when the lengths
    do not add up.
    """
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


def shuffles(a, b):
    """Multiset of interleavings of ``a`` and ``b`` as ``{word: count}``.

    Counts coincide with :func:`shuffle_coefficient`; the two are kept
    as independent routes and cross-checked in the tests.
    """
    counts = {}
    total = len(a) + len(b)
    for positions in itertools.combinations(range(total), len(a)):
        pos_set = set(positions)
        ia, ib = iter(a), iter(b)
        w = tuple(next(ia) if p in pos_set else next(ib) for p in range(total))
        counts[w] = counts.get(w, 0) + 1
    return counts


def iter_modes(d, kmax):
    """All nonzero integer vectors in Z^d with l1 norm at most kmax."""
    for k in itertools.product(range(-kmax, kmax + 1), repeat=d):
        if any(c != 0 for c in k) and l1(k) <= kmax:
            yield k


def diophantine_alpha(freq, tau, K):
    """Empirical lower witness for the Diophantine constant alpha.

    Minimizes ``|<k, omega>| * |k|_1^tau`` over the non-resonant modes
    with ``0 < |k|_1 <= K``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    omega_f = tuple(float(c) for c in freq.omega)
    best = None
    for k in iter_modes(freq.d, K):
        if freq.in_lattice(k):
            continue
        val = abs(sum(ki * wi for ki, wi in zip(k, omega_f))) * l1(k) ** float(tau)
        if best is None or val < best:
            best = val
    if best is None:
        raise DegenerateFrequencyError(
            f"no non-resonant mode with |k|_1 <= {K}; frequency is degenerate"
        )
    return best


def beta_subset_bound(word, tau, freq):
    """Crude upper bound 2^r * max |lambda_sigma|^(-1/tau); test helper."""
    best = max((lam ** (-1.0 / tau) for lam in _subset_eigenvalues(word, freq)), default=0.0)
    return 2 ** len(word) * best


def factorial(n):
    return math.factorial(n)
