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
from operator import add, mul

from .exact import QI

_EXACT_TYPES = (int, Fraction)
_QI_ZERO = QI(0, 0)
_QI_ONE = QI(1, 0)


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
                if self._in_lattice(k):
                    continue
                lhs = abs(sum(ki * wi for ki, wi in zip(k, omega_f)))
                if lhs < self.dioph_alpha * l1(k) ** (-self.dioph_tau) * (1 - 1e-12):
                    raise ValueError(
                        f"dioph_alpha={self.dioph_alpha} violated at k={k}: |<k,omega>|={lhs}"
                    )

    def in_lattice(self, k):
        """Exact membership of ``k`` in the declared resonance lattice."""
        return self._in_lattice(_as_int_vector(k))

    def _in_lattice(self, k):
        """:meth:`in_lattice` for a tuple of ints, trusted unchecked."""
        for col, row in self._pivots:
            q, rem = divmod(k[col], row[col])
            if rem:
                return False
            k = tuple(a - q * b for a, b in zip(k, row))
        return not any(k)

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
        return self._eigenvalue(k, exact_zero)

    def _eigenvalue(self, k, exact_zero=True):
        """:meth:`eigenvalue` for a tuple of ``d`` ints, trusted unchecked."""
        if exact_zero and self._in_lattice(k):
            return self.zero()
        dot = self.pairing(k)
        if self.exact:
            return QI._of(0, dot.numerator, dot.denominator)
        return complex(0.0, dot)

    def zero(self):
        """The scalar zero of the eigenvalue field (a shared constant)."""
        return _QI_ZERO if self.exact else 0j

    def one(self):
        return _QI_ONE if self.exact else complex(1.0)

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
    return freq._eigenvalue(ksum(word))


def is_resonant(word, freq):
    """Whether the letter sum lies in the integer resonance lattice."""
    return not word or freq._in_lattice(ksum(word))


def subset_sum_counts(word):
    """``{k_sigma: n}``: the number ``n`` of non-empty letter subsets
    ``sigma`` of ``word`` whose mode sum is ``k_sigma``, as exact
    integers.  Built one letter at a time, each new subset being an old
    one (or none) plus that letter, so the cost is the length times the
    number of distinct sums rather than ``2^r``.
    """
    counts = {}
    for letter in word:
        step = dict(counts)
        step[letter] = step.get(letter, 0) + 1
        for k, n in counts.items():
            k = tuple(map(add, k, letter))
            step[k] = step.get(k, 0) + n
        counts = step
    return counts


def beta(word, tau, freq):
    """Sum of |lambda_sigma|^(-1/tau) over non-resonant letter subsets.

    ``lambda_sigma`` is the eigenvalue of the subset sum of letters, so
    the sum runs over the distinct sums of :func:`subset_sum_counts`,
    each weighted by its count; sums in the resonance lattice are
    skipped (decided exactly).  Summed with ``math.fsum``, so the result
    does not depend on the order of the sums.  Returns 0.0 for the
    empty word by convention.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    omega_f = tuple(float(c) for c in freq.omega)
    return math.fsum(
        n * abs(sum(map(mul, k, omega_f))) ** (-1.0 / tau)
        for k, n in subset_sum_counts(word).items()
        if not freq._in_lattice(k)
    )


def shuffles(a, b):
    """Multiset of interleavings of ``a`` and ``b`` as ``{word: count}``."""
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


def diophantine_alpha(freq, K):
    """Empirical lower witness for the Diophantine constant alpha.

    Minimizes ``|<k, omega>| * |k|_1^tau`` over the non-resonant modes
    with ``0 < |k|_1 <= K``; ``tau`` is the frequency's.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    tau = freq.dioph_tau
    omega_f = tuple(float(c) for c in freq.omega)
    best = None
    for k in iter_modes(freq.d, K):
        if freq._in_lattice(k):
            continue
        val = abs(sum(ki * wi for ki, wi in zip(k, omega_f))) * l1(k) ** float(tau)
        if best is None or val < best:
            best = val
    if best is None:
        raise DegenerateFrequencyError(
            f"no non-resonant mode with |k|_1 <= {K}; frequency is degenerate"
        )
    return best
