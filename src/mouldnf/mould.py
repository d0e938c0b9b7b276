"""Moulds: exp/log, the alternality check and tables of values.

A mould is a scalar-valued function on words (tuples of letters),
represented here as a lazily evaluated, memoized callable.  Moulds are
total functions and are never materialized as tables; evaluation of the
same word twice returns bit-identical values.  All operations work
uniformly over complex floats and exact Q(i) scalars.  The mould product
and derivations that the mould equation is written in are evaluated word
by word where the equation is checked (``solver.verify_equation``).
"""

from __future__ import annotations

import math

from .alphabet import shuffles, words_over
from .exact import QI, scalar_abs
from .observables import _walk


class Mould:
    """A memoized map from a letter tuple to a scalar.

    Evaluation is pure given a frozen memo table: concurrent reads are
    safe, and recomputing a word concurrently yields identical values,
    so memo insertion only needs to be atomic-or-serialized.
    """

    def __init__(self, fn, name="M"):
        self._fn = fn
        self._memo = {}
        self.name = name

    def __call__(self, word):
        value = self._memo.get(word)
        if value is None:
            value = self._memo[word] = self._fn(word)
        return value

    def __repr__(self):
        return f"Mould({self.name})"


def _series(M, empty_value, divisor, name):
    """The mould ``w -> sum_k c_k sum_{w = w_1...w_k} M(w_1)...M(w_k)``
    over compositions into non-empty blocks, with ``divisor(k)`` giving
    the signed int ``1 / c_k``.

    The inner sums are the power moulds ``P_k`` on the prefixes of the
    word, by the induction ``P_1(i) = M(w[:i])`` and
    ``P_k(i) = sum_{j=k-1}^{i-1} P_{k-1}(j) M(w[j:i])``, a left fold.
    ``P_k(i)`` depends only on ``M`` and the prefix ``w[:i]``, so every
    series over ``M`` shares one memo, kept with ``M``, from each prefix
    met to the columns ``[P_1, ..., P_j]`` of its prefixes ``w[:j]``,
    itself last; a new column reads its parent's entry and ``M`` on its
    ``i`` suffixes, O(i^2) products.  A word whose ``w[:-1]`` was met
    costs O(r^2) and two lookups (itself, as a longer word's prefix,
    then its parent), and every value is the same sum in the same order
    however the words arrive.  Only values of ``M`` on non-empty words
    enter, so ``k`` stops at ``r``.

    Each fold starts from int 0 and skips a product with an exactly
    zero factor, and the final sum divides no exactly zero power: one
    with ``k >= 2`` is skipped, and that with ``k = 1`` is added as it
    is, so a zero sum has the type of ``M`` and an int 0 is never
    divided into a float.  For finite values these change only the sign
    of a zero part of a column, and the final sum, from int 0, never
    holds a -0.0, so values are bit for bit those of summing every term;
    a fold with every product skipped leaves int 0 in its column.
    """
    memo = vars(M).setdefault("_power_columns", {(): []})

    def value(word):
        r = len(word)
        if r == 0:
            return empty_value
        known = r
        while (cols := memo.get(word[:known])) is None:
            known -= 1
        for i in range(known + 1, r + 1):
            cols = cols + [power_column(cols, [M(word[j:i]) for j in range(i)])]
            memo[word[:i]] = cols
        return series_sum(cols[-1], divisor)

    return Mould(value, name=name)


def power_column(cols, tails):
    """The column ``[P_1, ..., P_i]`` of the power moulds of ``M`` at a
    prefix ``w[:i]``, from the columns ``cols`` of its prefixes
    ``w[:1], ..., w[:i-1]`` and ``tails``, ``M`` on its ``i`` suffixes,
    longest first; see :func:`_series` for the fold and its skipped
    products."""
    i = len(tails)
    # P_k at w[:j] times M(w[j:i]) is added to P_(k+1), in order of j
    col = [tails[0]] + [0] * (i - 1)
    for j in range(1, i):
        b = tails[j]
        if b:
            for k, a in enumerate(cols[j - 1], 1):
                if a:
                    col[k] = col[k] + a * b
    return col


def series_sum(col, divisor):
    """``sum_k P_k / divisor(k)`` over a word's own column ``col``, from
    int 0; see :func:`_series` for the skipped terms."""
    total = 0
    for k, power in enumerate(col, 1):
        if power:
            total = total + power / divisor(k)
        elif k == 1:  # the first term gives a zero sum its type, undivided
            total = total + power
    return total


def log_divisor(k):
    """The signed int ``1 / c_k`` of the log series, ``(-1)^(k-1) k``."""
    return (-1) ** (k - 1) * k


def mexp(G, sign=1):
    """Mould exponential ``sum_k (sign G)^(x k) / k!`` of an alternal-type
    mould, for ``sign`` 1 or -1; ``exp(-G)`` reads the power columns of
    ``exp(G)``, since ``P_k[-G] = (-1)^k P_k[G]``.

    Requires ``G`` to vanish on the empty word.
    """
    if G(()):
        raise ValueError("mexp requires a mould vanishing on the empty word")
    minus = "-" if sign < 0 else ""
    return _series(G, 1, lambda k: sign ** k * math.factorial(k), f"exp({minus}{G.name})")


def mlog(S):
    """Mould logarithm of a group-like mould (``S`` equal to 1 on the
    empty word): alternating sum over block decompositions.
    """
    s_empty = S(())
    if s_empty != 1:
        raise ValueError("mlog requires a mould equal to 1 on the empty word")
    return _series(S, 0, log_divisor, f"log({S.name})")


class AlternalityReport:
    """Result of an exhaustive shuffle-relation check."""

    def __init__(self, pairs_checked, violations, max_ratio, tol):
        self.pairs_checked = pairs_checked
        self.violations = violations
        self.max_ratio = max_ratio
        self.tol = tol

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return (
            f"AlternalityReport(pairs={self.pairs_checked}, "
            f"violations={len(self.violations)}, max_ratio={self.max_ratio:.3e})"
        )


def check_alternal(moulds, max_r, alphabet, tol=1e-10):
    """Check the shuffle relations for all word pairs up to ``max_r``.

    ``moulds`` is a list of moulds, and one report is returned for each,
    in order.  Each pair's shuffles are built and sorted once and serve
    every mould.
    ``sh(a, b)`` and ``sh(b, a)`` are one multiset, so the sums of a
    pair, met first as ``(a, b)``, are kept for its mirror ``(b, a)``,
    whose sorted terms, and so its residual and mass, are the same bits.
    ``pairs_checked`` counts ordered pairs, and a violation is listed
    under both orders.

    For every pair of non-empty words ``a, b`` over ``alphabet`` with
    ``r(a) + r(b) <= max_r``, the shuffle sum of ``M`` must vanish below
    ``tol`` relative to an accumulated magnitude scale: the largest of
    the pair's own term mass, the largest term mass seen anywhere in
    the run and the largest ``|M(w)|`` over the words of length
    ``1..max_r`` (degenerate pairs whose every term is rounding dust
    would otherwise self-normalize to ratio one; on a one-letter
    alphabet every pair is such dust for an alternal mould, and only
    the one-letter words carry its size).  A longer word ``w`` is a
    term of the pair ``(w[:1], w[1:])``, so the term masses already
    bound its ``|M(w)|`` and only the one-letter words are read for
    it.  A shuffle term whose value is exactly zero is skipped: the
    sum starts at int 0, so this changes at most the sign of a zero
    part, which ``scalar_abs`` does not see.
    """
    for M in moulds:
        if M(()):
            raise ValueError("an alternal-type mould must vanish on the empty word")
    checked = [[] for _ in moulds]
    mirrored = {}
    pairs = 0
    for a in words_over(alphabet, max_r - 1):
        for b in words_over(alphabet, max_r - len(a)):
            pairs += 1
            sums = mirrored.pop((a, b), None)
            if sums is None:
                terms = sorted(shuffles(a, b).items())
                sums = []
                for M in moulds:
                    total = 0
                    scale = 0.0
                    for lam, mult in terms:
                        v = M(lam)
                        if v:
                            total = total + mult * v
                            scale += mult * scalar_abs(v)
                    sums.append((scalar_abs(total), scale))
                if a != b:
                    mirrored[b, a] = sums
            for rows, (resid, scale) in zip(checked, sums):
                rows.append((a, b, resid, scale))
    letters = list(words_over(alphabet, 1))
    return [
        _alternality_report(rows, pairs, max((scalar_abs(M(w)) for w in letters), default=0.0), tol)
        for M, rows in zip(moulds, checked)
    ]


def _alternality_report(checked, pairs, letter_scale, tol):
    """The report on one mould's ``(a, b, residual, term mass)`` rows,
    each measured against the largest of its own mass, every row's and
    ``letter_scale``."""
    global_scale = max([letter_scale, *(scale for _, _, _, scale in checked)])
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


# a mould table as ``dump-moulds`` writes it, walked by ``observables._walk``
_TABLE = {
    "F": ("object", ...), "S": ("object", ...), "G": ("object", ...),
    "alphabet": ([["integer"]], None), "max_r": ("integer", None), "exact": ("boolean", None),
}


def _key(word):
    """The table key ``"k1,k2|k1,k2"`` of ``word``."""
    return "|".join(",".join(map(str, k)) for k in word)


def write_table(moulds, alphabet, max_r, exact=False):
    """The ``moulds.json`` payload of ``moulds``, a map from each of F, S
    and G to its mould, on the words of length 1 to ``max_r`` over
    ``alphabet`` (keyed ``"k1,k2|k1,k2"`` by length, then word order).

    Values are ``[re, im]`` float pairs, or exact fraction strings when
    ``exact`` is set.
    """
    keys = {w: _key(w) for w in words_over(alphabet, max_r)}
    payload = {"alphabet": [list(k) for k in alphabet], "max_r": max_r, "exact": exact}
    for name in "FSG":
        table = payload[name] = {}
        for w, key in keys.items():
            v = moulds[name](w)
            if exact:
                table[key] = QI.coerce(v).as_strings() if v else ["0", "0"]
            else:
                table[key] = [complex(v).real, complex(v).imag]
    return payload


def unique_keys(pairs):
    """``json``'s ``object_pairs_hook`` refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def read_table(data, d, exact=False):
    """The ``{word: value}`` tables of F, S and G in ``data``, a loaded
    :func:`write_table` payload, keyed by name; each key becomes a word
    of letters of ``d`` integers and each value a scalar (a ``QI`` or int
    0 when ``exact``), both read once.

    A section missing, a key other than the one :func:`write_table`
    writes for its word or a value not an ``[re, im]`` pair of numbers
    (of fraction strings when ``exact``) raises ``ValueError`` naming
    the section or key.
    """
    data = _walk(data, _TABLE, "mould_table")
    tables = {}
    for name in "FSG":
        table = tables[name] = {}
        for key, pair in data[name].items():
            try:
                w = tuple(tuple(map(int, k.split(","))) for k in key.split("|")) if key else ()
                if _key(w) != key:  # int reads " 1", "+1", "01" and "1_0" too
                    raise ValueError
            except ValueError:
                raise ValueError(f"mould table key {key!r} is not a word of integer letters") from None
            if any(len(k) != d for k in w):
                raise ValueError(f"a key in {name} has a letter not of dimension {d}")
            try:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise TypeError
                table[w] = QI.from_strings(pair) if exact else complex(pair[0], pair[1])
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"mould table value at {key!r} is not an [re, im] pair: {pair!r}"
                ) from None
    return tables
