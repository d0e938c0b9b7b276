"""Moyal-bracket backend and Weyl-matrix cross-validation on L2(T^d).

The deformed bracket is implemented at the level of structure
constants only: on a pair of modes the classical constant
``s = k.m' - m.k'`` is replaced by ``(2/hbar) sin(hbar s / 2)``.

Convention note.  The half-angle form, together with the midpoint
quantization phase ``exp(-i hbar m.(n + k/2))`` below, is the unique
combination under which the symbol bracket reproduces the matrix
commutator ``(1/(i hbar))[Op F, Op G]`` exactly (any projective
representation of the mode group has half-angle sine commutators), and
it reduces to the Poisson constant as hbar -> 0.  The sign is pinned by
``validate_moyal``, which checks the identity entrywise to rounding;
see tests/test_quantum.py::test_moyal_matches_weyl_commutator.
"""

from __future__ import annotations

import itertools
import math
import numbers

from .classical import ClassicalBackend, mode_bracket


def check_hbar(hbar):
    """Refuse any ``hbar`` but a finite positive number (not a bool)."""
    if isinstance(hbar, bool) or not (
        isinstance(hbar, numbers.Real) and math.isfinite(hbar) and hbar > 0
    ):
        raise ValueError(f"hbar must be finite and positive, got {hbar!r}")


def sine_coupling(hbar):
    """The Moyal structure constant as a function of the Poisson one."""
    return lambda s: 2.0 / hbar * math.sin(hbar * s / 2.0)


def moyal_bracket(F, G, hbar):
    """Deformed bracket of two symbols: the Poisson mode kernel with
    sine-deformed structure constants."""
    check_hbar(hbar)
    return mode_bracket(F, G, sine_coupling(hbar))


def _inside(n, bound):
    return all(abs(c) <= bound for c in n)


def _kmax(obs):
    return max((max(abs(c) for c in k) for (k, _), _ in obs.items_sorted()), default=0)


def weyl_matrix(F, cutoff, hbar):
    """Weyl quantization of a symbol as a sparse matrix ``{(row, col): entry}``
    on the Fourier basis e^{i n.x}, |n|_inf <= cutoff, keyed by basis tuples.

    Mode ``(k, m)`` maps ``e^{i n.x}`` to
    ``exp(-i hbar m.(n + k/2)) e^{i (n+k).x}``, i.e. the entry at row
    ``n+k``, column ``n`` is ``b_km exp(-i hbar m.(n + k/2))`` (midpoint
    rule; convention validated against the bracket identity, see module
    docstring).  Rows falling outside the basis box are the inherent
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


class MoyalReport:
    """Entrywise comparison of the symbol bracket against the matrix
    commutator on the interior of the basis box."""

    def __init__(self, max_deviation, interior_margin, interior_count, tol):
        self.max_deviation = max_deviation
        self.interior_margin = interior_margin
        self.interior_count = interior_count
        self.tol = tol

    @property
    def ok(self):
        return self.max_deviation <= self.tol

    def __repr__(self):
        return (
            f"MoyalReport(max_dev={self.max_deviation:.3e}, margin={self.interior_margin}, "
            f"interior={self.interior_count})"
        )


def validate_moyal(F, G, cutoff, hbar, tol=1e-10):
    """Compare ``Op(moyal(F,G))`` with ``(1/(i hbar))[Op F, Op G]``.

    Edge rows and columns that truncation can corrupt are excluded; on
    the interior the identity is exact, so deviations are rounding
    only.
    """
    margin = _kmax(F) + _kmax(G)
    wf = weyl_matrix(F, cutoff, hbar)
    wg = weyl_matrix(G, cutoff, hbar)
    wb = weyl_matrix(moyal_bracket(F, G, hbar), cutoff, hbar)
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


class QuantumBackend(ClassicalBackend):
    """Bracket backend for the Weyl-symbol picture at fixed hbar; only
    the coupling differs from :class:`ClassicalBackend`."""

    def __init__(self, freq, hbar):
        check_hbar(hbar)
        super().__init__(freq)
        self.hbar = float(hbar)
        self.coupling = sine_coupling(self.hbar)

    @property
    def name(self):
        return f"quantum(hbar={self.hbar})"
