"""The mould algebra: product, derivations, exp/log, alternality.

A mould is a scalar-valued function on words (tuples of letters),
represented here as a lazily evaluated, memoized callable.  Moulds are
total functions and are never materialized as tables; evaluation of the
same word twice returns bit-identical values.  All operations work uniformly over complex
floats and exact Q(i) scalars.
"""

from __future__ import annotations

import functools
import math
import operator

from .alphabet import is_resonant, shuffles, sigma, words_over
from .exact import QI, scalar_abs, scalar_is_zero


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
        try:
            return self._memo[word]
        except KeyError:
            value = self._fn(word)
            self._memo[word] = value
            return value

    def __repr__(self):
        return f"Mould({self.name})"


def ident_mould():
    """The mould that is 1 exactly on one-letter words."""
    return Mould(lambda w: 1 if len(w) == 1 else 0, name="I")


def from_table(table, default=0, name="table"):
    table = dict(table)
    return Mould(lambda w: table.get(w, default), name=name)


def madd(M, N):
    return Mould(lambda w: M(w) + N(w), name=f"({M.name}+{N.name})")


def msub(M, N):
    return Mould(lambda w: M(w) - N(w), name=f"({M.name}-{N.name})")


def mneg(M):
    return Mould(lambda w: -M(w), name=f"-{M.name}")


def times(M, N):
    """Mould product: sum of ``M(a) N(b)`` over the r+1 splittings.

    Splittings include the empty factors, so the unit mould is a
    two-sided identity.
    """

    def value(word):
        total = 0
        for i in range(len(word) + 1):
            total = total + M(word[:i]) * N(word[i:])
        return total

    return Mould(value, name=f"({M.name}x{N.name})")


def nabla(M, freq):
    """Multiply the value on each word by its eigenvalue sum.

    The factor is exactly zero on resonant words (integer-lattice
    decision), never a tiny float.
    """

    def value(word):
        if is_resonant(word, freq):
            return freq.zero()
        return sigma(word, freq) * M(word)

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


def _series(M, empty_value, coefficient, name):
    """The mould ``w -> sum_k c_k sum_{w = w_1...w_k} M(w_1)...M(w_k)``
    over compositions into non-empty blocks, with ``coefficient(k)``
    giving ``c_k`` as a ``(sign, divisor)`` pair.

    The inner sums are the power moulds ``P_k`` on the prefixes of the
    word, by the induction ``P_1(i) = M(w[:i])`` and
    ``P_k(i) = sum_{j=k-1}^{i-1} P_{k-1}(j) M(w[j:i])``: ``M`` is evaluated
    once on each of the ``r(r+1)/2`` non-empty subwords, and the sums take
    O(r^3) products.  Only values of ``M`` on non-empty words enter, so
    ``k`` stops at ``r``.
    """

    def value(word):
        r = len(word)
        if r == 0:
            return empty_value
        block = {(j, i): M(word[j:i]) for i in range(1, r + 1) for j in range(i)}
        power = {i: block[0, i] for i in range(1, r + 1)}
        total = 0
        for k in range(1, r + 1):
            if k > 1:
                power = {
                    i: functools.reduce(
                        operator.add, (power[j] * block[j, i] for j in range(k - 1, i))
                    )
                    for i in range(k, r + 1)
                }
            sign, divisor = coefficient(k)
            total = total + (sign * power[r]) / divisor
        return total

    return Mould(value, name=name)


def mexp(G):
    """Mould exponential ``sum_k G^(x k) / k!`` of an alternal-type mould.

    Requires ``G`` to vanish on the empty word.
    """
    if not scalar_is_zero(G(())):
        raise ValueError("mexp requires a mould vanishing on the empty word")
    return _series(G, 1, lambda k: (1, math.factorial(k)), f"exp({G.name})")


def mlog(S):
    """Mould logarithm of a group-like mould (``S`` equal to 1 on the
    empty word): alternating sum over block decompositions.
    """
    s_empty = S(())
    if not (s_empty == 1 or s_empty == QI(1, 0)):
        raise ValueError("mlog requires a mould equal to 1 on the empty word")
    return _series(S, 0, lambda k: ((-1) ** (k - 1), k), f"log({S.name})")


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


def check_alternal(M, max_r, alphabet, tol=1e-10):
    """Check the shuffle relations for all word pairs up to ``max_r``.

    For every pair of non-empty words ``a, b`` over ``alphabet`` with
    ``r(a) + r(b) <= max_r``, the shuffle sum of ``M`` must vanish below
    ``tol`` relative to an accumulated magnitude scale: the larger of
    the pair's own term mass and the largest term mass seen anywhere in
    the run (degenerate pairs whose every term is rounding dust would
    otherwise self-normalize to ratio one).
    """
    if not scalar_is_zero(M(())):
        raise ValueError("an alternal-type mould must vanish on the empty word")
    checked = []
    pairs = 0
    global_scale = 0.0
    for a in words_over(alphabet, max_r - 1):
        for b in words_over(alphabet, max_r - len(a)):
            pairs += 1
            total = 0
            scale = 0.0
            for lam, mult in sorted(shuffles(a, b).items()):
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


def _serialize_word(word):
    return "|".join(",".join(str(c) for c in k) for k in word)


def _parse_word(text):
    """The word a table key names; its letters must be integers."""
    if text == "":
        return ()
    try:
        return tuple(tuple(int(c) for c in part.split(",")) for part in text.split("|"))
    except ValueError:
        raise ValueError(f"mould table key {text!r} is not a word of integer letters") from None


def dump_table(M, words, exact=False):
    """Materialize mould values on given words as a JSON-ready dict.

    Values are ``[re, im]`` float pairs, or exact fraction strings when
    ``exact`` is set.
    """
    out = {}
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        v = M(w)
        if exact:
            out[_serialize_word(w)] = QI.coerce(v).as_strings()
        else:
            c = complex(v)
            out[_serialize_word(w)] = [c.real, c.imag]
    return out


def load_table(table, exact=False):
    """Inverse of :func:`dump_table`, returning a table-backed mould.

    A value that is not an ``[re, im]`` pair of numbers (of fraction
    strings when ``exact``) raises ``ValueError`` naming its key.
    """
    data = {}
    for key, pair in table.items():
        w = _parse_word(key)
        try:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise TypeError
            data[w] = QI.from_strings(pair) if exact else complex(pair[0], pair[1])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(
                f"mould table value at {key!r} is not an [re, im] pair: {pair!r}"
            ) from None
    return from_table(data, name="golden")
