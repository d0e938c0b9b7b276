"""Letters, words, eigenvalue arithmetic and shuffle combinatorics.

A letter is an integer mode vector ``k`` in Z^d, a tuple of ints; its
scalar eigenvalue ``i<k, omega>`` is derived from a :class:`Frequency`.
A word is the tuple of its letters: ``()`` is the empty word, ``len``
its length, slices and ``+`` its splits and concatenations.  The solver
and the growth fit key nothing by word: the solver walks a trie of word
nodes letter by letter, and the fit carries letter sums as the ints of a
:class:`~mouldnf.classical.VectorCodes` codec.  Letters are checked to be
integral once, where they enter from outside the program
(:func:`words_over` checks its alphabet, the codec the fit's letters,
:func:`~mouldnf.mould.read_table` table keys, the public
:class:`~mouldnf.observables.Observable` constructor its modes); inside,
words are trusted.

Resonance (a vanishing eigenvalue sum) is always decided exactly on the
integer lattice spanned by the declared resonance basis, never by
comparing a floating-point inner product against zero; small divisors
would otherwise be misclassified.  A pairing is compared with zero only
to refuse a resonant sum that the declared lattice leaves out.
Throughout this package ``|k|`` means the l1 norm (the weights it
induces are sub-multiplicative under mode addition, which the norm
estimates rely on).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from .exact import QI

_EXACT_TYPES = (int, Fraction)
_QI_ONE = QI.coerce(1)


def l1(vec):
    return sum(abs(c) for c in vec)


def _as_int_vector(vec):
    vec = tuple(vec)
    out = tuple(map(int, vec))
    if out != vec:
        raise ValueError(f"mode vector must be integral, got {vec!r}")
    return out


class DegenerateFrequencyError(ValueError):
    """Raised when a frequency box contains no non-resonant modes."""


class UndeclaredResonanceError(ValueError):
    """Raised when a letter sum off the declared lattice is resonant: the
    declared basis leaves it out."""


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


def _lattice_index(hnf):
    """The gcd of the maximal minors of the Hermite normal form rows
    ``hnf``, 1 for none: the index of their lattice in the integer vectors
    of its real span.  Unimodular row and column operations keep the gcd,
    so it is the product of the pivots of the HNF of the transpose."""
    return math.prod(next(c for c in row if c) for row in _hermite_normal_form(zip(*hnf)))


class _Lookup(dict):
    """A dict that forms a missing value by ``fill(key)`` and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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
        the trivial lattice ``{0}`` (non-resonant frequency).  A basis
        whose span is a proper sublattice of the integer vectors in its
        real span (the gcd of its maximal minors is not 1) is refused
        with ``ValueError``: it leaves resonances undeclared.  One of
        lower rank than the resonances does too: a resonant sum off its
        lattice raises :class:`UndeclaredResonanceError` when decided.
    dioph_tau : float, optional
        Diophantine exponent ``tau >= 1`` of the small-divisor weights
        ``|<k, omega>|^(-1/tau)``.

    Attributes
    ----------
    divisors : dict
        The one resonance decision per letter sum, made on first lookup
        and kept: ``divisors[k]`` is ``None`` on the lattice, else the
        eigenvalue ``i<k, omega>``.  Every resonance question of the
        package is a lookup here.
    """

    def __init__(self, omega, resonance_basis=(), dioph_tau=1.0):
        omega = tuple(omega)
        if not omega:
            raise ValueError("omega must be non-empty")
        self.exact = all(isinstance(c, _EXACT_TYPES) for c in omega)
        if self.exact:
            self.omega = tuple(Fraction(c) for c in omega)
            # <k, omega> = sum(k_i num_i) / den: integer numerators over
            # one common denominator, so a pairing builds no Fraction
            self._den = math.lcm(*(c.denominator for c in self.omega))
            self._num = tuple(c.numerator * (self._den // c.denominator) for c in self.omega)
        else:
            self.omega = tuple(float(c) for c in omega)
            if not all(math.isfinite(c) for c in self.omega):
                raise ValueError(f"omega must be finite, got {self.omega!r}")
        self.d = len(omega)
        self.dioph_tau = float(dioph_tau)
        if not (math.isfinite(self.dioph_tau) and self.dioph_tau >= 1.0):
            raise ValueError(f"dioph_tau must be finite and >= 1, got {self.dioph_tau!r}")

        basis = tuple(_as_int_vector(b) for b in resonance_basis)
        for b in basis:
            if len(b) != self.d:
                raise ValueError("resonance basis dimension mismatch")
            if not self._resonant(b):
                raise ValueError(f"declared resonance {b} does not pair with omega to zero")
        self.resonance_basis = basis
        self._hnf = _hermite_normal_form(basis)
        self._pivots = []
        for row in self._hnf:
            col = next(i for i, c in enumerate(row) if c != 0)
            self._pivots.append((col, row))
        index = _lattice_index(self._hnf)
        if index != 1:
            # refused up front, not only when a resonant k off the lattice is decided
            raise ValueError(f"resonance basis {basis} spans a sublattice of index {index} of the "
                             "resonances it implies; declare a basis of all of them")
        self.divisors = _Lookup(self._decide)

    def _resonant(self, k):
        """Whether ``<k, omega>`` is zero: exactly, or for a float omega
        within ``1e-12 |k| |omega|``."""
        if self.exact:
            return sum(map(mul, k, self._num)) == 0
        return abs(sum(map(mul, k, self.omega))) <= 1e-12 * l1(k) * l1(self.omega)

    def _decide(self, k):
        """The entry of :attr:`divisors` for a letter sum ``k`` met first:
        ``None`` on the resonance lattice, else the eigenvalue
        ``i<k, omega>``, the divisor of a non-resonant word; a ``k`` of
        another dimension than the frequency's raises ``ValueError``, a
        resonant one off the lattice :class:`UndeclaredResonanceError`."""
        if len(k) != self.d:
            raise ValueError("word dimension does not match frequency")
        if self._in_lattice(k):
            return None
        if self._resonant(k):
            raise UndeclaredResonanceError(f"letter sum {k} is resonant but off the declared "
                                           "lattice; declare a basis of all the resonances")
        return self._eigenvalue(k, exact_zero=False)

    def _in_lattice(self, k):
        """The lattice decision for a tuple of ``d`` ints, made afresh;
        :meth:`_decide` makes it once per letter sum for all readers."""
        for col, row in self._pivots:
            q, rem = divmod(k[col], row[col])
            if rem:
                return False
            k = tuple(a - q * b for a, b in zip(k, row))
        return not any(k)

    def eigenvalue(self, k, exact_zero=True):
        """i<k, omega> for a mode vector ``k``.

        With ``exact_zero`` (the default) the value is read from
        :attr:`divisors`, exactly zero for lattice members; without it
        the raw pairing is formed (diagnostics).
        """
        k = _as_int_vector(k)
        if len(k) != self.d:
            raise ValueError("mode dimension mismatch")
        return self._eigenvalue(k, exact_zero)

    def _eigenvalue(self, k, exact_zero=True):
        """:meth:`eigenvalue` for a tuple of ``d`` ints, trusted unchecked."""
        if exact_zero:
            value = self.divisors[k]
            return self.zero() if value is None else value
        if self.exact:
            return QI._of(0, sum(map(mul, k, self._num)), self._den)
        return complex(0.0, sum(map(mul, k, self.omega)))

    def zero(self):
        """The scalar zero of the eigenvalue field: ``int`` 0 in exact
        mode, where it is the only exact zero, else ``0j``."""
        return 0 if self.exact else 0j

    def one(self):
        return _QI_ONE if self.exact else complex(1.0)

    def __repr__(self):
        return (
            f"Frequency(omega={self.omega!r}, resonance_basis={self.resonance_basis!r},"
            f" exact={self.exact})"
        )


def words_over(alphabet, max_r):
    """All words of length ``1..max_r`` over ``alphabet``: by length,
    then lexicographically in the sorted letters, which must be integral."""
    letters = sorted(_as_int_vector(k) for k in alphabet)
    for r in range(1, max_r + 1):
        yield from itertools.product(letters, repeat=r)


def grow_subset_sums(counts, letter):
    """The subset-sum counts of a word with ``letter`` appended, from the
    counts ``{k_sigma: n}`` of the word: the number ``n`` of non-empty
    letter subsets ``sigma`` whose mode sum has the
    :class:`~mouldnf.classical.VectorCodes` code ``k_sigma``, as exact
    integers; ``letter`` is a code too, and the codes' reach holds every
    sum, so a sum of codes is the code of the letter sum.  Each
    new subset is an old one (or none) plus ``letter``, so the cost is
    the number of distinct sums, and a word's counts, folded from ``{}``
    one letter at a time, cost its length times that rather than
    ``2^r``.
    """
    step = dict(counts)
    step[letter] = step.get(letter, 0) + 1
    for k, n in counts.items():
        k += letter
        step[k] = step.get(k, 0) + n
    return step


def beta(counts, weights):
    """Sum of |lambda_sigma|^(-1/tau) over the non-resonant letter subsets
    of the word whose :func:`grow_subset_sums` counts are ``counts``.

    ``lambda_sigma`` is the eigenvalue of the subset sum of letters, so
    the sum runs over the distinct sums, each weighted by its weight in
    ``weights``, keyed by :class:`~mouldnf.classical.VectorCodes` code
    as the growth fit keeps them, times its count, with
    ``math.fsum``: the result depends neither on the order of the sums
    nor on the exact zeros of resonant ones.  0.0 for ``counts = {}``.
    """
    return math.fsum(n * weights[k] for k, n in counts.items())


@functools.cache
def _shuffle_patterns(ra, rb):
    """The interleavings of words of lengths ``ra`` and ``rb``, each as
    the indices of its letters in their concatenation, in the order of
    the first word's positions in ``itertools.combinations``."""
    total = ra + rb
    patterns = []
    for positions in itertools.combinations(range(total), ra):
        pos_set = set(positions)
        ia, ib = iter(range(ra)), iter(range(ra, total))
        patterns.append(tuple(next(ia) if p in pos_set else next(ib) for p in range(total)))
    return tuple(patterns)


def shuffles(a, b):
    """Multiset of interleavings of ``a`` and ``b`` as ``{word: count}``."""
    letter = (*a, *b).__getitem__
    counts = {}
    for pattern in _shuffle_patterns(len(a), len(b)):
        w = tuple(map(letter, pattern))
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
    with ``0 < |k|_1 <= K``, read from ``Frequency.divisors``; ``tau``
    is the frequency's.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    tau = freq.dioph_tau
    best = None
    for k in iter_modes(freq.d, K):
        divisor = freq.divisors[k]
        if divisor is None:
            continue
        val = abs(divisor) * l1(k) ** float(tau)
        if best is None or val < best:
            best = val
    if best is None:
        raise DegenerateFrequencyError(
            f"no non-resonant mode with |k|_1 <= {K}; frequency is degenerate"
        )
    return best
