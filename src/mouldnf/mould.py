"""Moulds: power series, the alternality check and tables of values.

A mould is a scalar-valued function on words (tuples of letters).  The
solver's moulds are not objects of their own: F and S live on its trie
of word nodes, and G = log S and exp(+-G) in memos keyed by node
(``solver.MouldSolver``).  This module holds the two steps that exp and
log are formed by, :func:`power_column` and :func:`series_sum`, over
complex floats and exact Q(i) scalars alike, and the shuffle check and
the ``moulds.json`` table, which take one callable on words per mould.
"""

from __future__ import annotations

from fractions import Fraction

from .alphabet import shuffles, words_over
from .exact import QI, scalar_abs
from .observables import _walk


def power_column(cols, tails):
    """The column ``[P_1, ..., P_i]`` of the power moulds of ``M`` at a
    prefix ``w[:i]``, from the columns ``cols`` of ``w[:1], ...,
    w[:i-1]`` and ``tails``, ``M`` on its ``i`` suffixes, longest first:
    ``P_1 = M(w[:i])`` and ``P_k = sum_j P_(k-1)(w[:j]) M(w[j:i])``, a
    left fold from int 0 that skips a product with an exactly zero
    factor.  In floats this changes only the sign of a zero part of a
    column, which :func:`series_sum` never carries into a value, so
    values are bit for bit those of summing every term.
    """
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
    """The series value ``sum_k P_k / divisor(k)`` over a word's own
    column ``col``, from int 0: an exactly zero power is skipped, but the
    first is added undivided, so a zero sum has the type of ``M``."""
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


def _table_key(word):
    """The table key ``"k1,k2|k1,k2"`` of ``word``."""
    return "|".join(",".join(map(str, k)) for k in word)


def write_table(moulds, alphabet, max_r, exact=False):
    """The ``moulds.json`` payload of ``moulds``, a map from each of F, S
    and G to its mould, on the words of length 1 to ``max_r`` over
    ``alphabet`` (keyed ``"k1,k2|k1,k2"`` by length, then word order).

    Values are ``[re, im]`` float pairs, or exact fraction strings when
    ``exact`` is set.
    """
    keys = {w: _table_key(w) for w in words_over(alphabet, max_r)}
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
    writes for its word or a value not an ``[re, im]`` pair of finite
    numbers raises ``ValueError`` naming the section or key.  Each part
    is read through ``Fraction``, which takes fraction strings and JSON
    numbers alike, so either mode reads a table of either kind; a float
    part reads back as itself.
    """
    data = _walk(data, _TABLE, "mould_table")
    tables = {}
    for name in "FSG":
        table = tables[name] = {}
        for key, pair in data[name].items():
            try:
                w = tuple(tuple(map(int, k.split(","))) for k in key.split("|")) if key else ()
                if _table_key(w) != key:  # int reads " 1", "+1", "01" and "1_0" too
                    raise ValueError
            except ValueError:
                raise ValueError(f"mould table key {key!r} is not a word of integer letters") from None
            if any(len(k) != d for k in w):
                raise ValueError(f"a key in {name} has a letter not of dimension {d}")
            try:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise TypeError
                real, imag = map(Fraction, pair)  # NaN and infinities are refused here
                table[w] = QI(real, imag) if exact else complex(float(real), float(imag))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(
                    f"mould table value at {key!r} is not an [re, im] pair of finite numbers: {pair!r}"
                ) from None
    return tables
