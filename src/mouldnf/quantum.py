"""Weyl-operator cross-validation of the Moyal bracket on L2(T^d).

The deformed bracket is implemented at the level of structure
constants only (:class:`mouldnf.classical.Backend` with ``hbar``): on a
pair of modes the classical constant ``s = k.m' - m.k'`` is replaced by
``(2/hbar) sin(hbar s / 2)``.

Convention note.  The half-angle form, together with the midpoint
quantization phase ``exp(-i hbar m.(n + k/2))`` below, is the unique
combination under which the symbol bracket reproduces the operator
commutator ``(1/(i hbar))[Op F, Op G]`` exactly (any projective
representation of the mode group has half-angle sine commutators), and
it reduces to the Poisson constant as hbar -> 0.  The sign is pinned by
``validate_moyal``, which checks the identity entrywise to rounding;
see tests/test_quantum.py::test_moyal_matches_weyl_commutator.
"""

from __future__ import annotations

import itertools
import math

from .classical import Backend, check_hbar


def _inside(n, bound):
    return all(abs(c) <= bound for c in n)


def _kmax(obs):
    return max((max(abs(c) for c in k) for k, _ in obs.coeffs), default=0)


def weyl_operator(F, hbar):
    """Weyl quantization of a symbol: ``Op(F)`` as a map on sparse vectors
    ``{n: amplitude}`` over the Fourier basis e^{i n.x}, untruncated.

    Mode ``(k, m)`` maps ``e^{i n.x}`` to ``exp(-i hbar m.(n + k/2))
    e^{i (n+k).x}`` (midpoint rule; see module docstring).  The entry at
    row ``n+k`` sums the modes of one ``k`` in sorted order, and the
    ``k`` are applied in sorted order.
    """
    check_hbar(hbar)
    by_k = {}
    for (k, m), c in F.items_sorted():
        by_k.setdefault(k, []).append((m, c))

    def apply(vec):
        out = {}
        for k, modes in by_k.items():
            for n, amp in vec.items():
                entry = 0j
                for m, c in modes:
                    phase = sum(mi * (ni + ki / 2.0) for mi, ni, ki in zip(m, n, k))
                    entry = entry + c * complex(math.cos(hbar * phase), -math.sin(hbar * phase))
                row = tuple(a + b for a, b in zip(n, k))
                out[row] = out.get(row, 0j) + entry * amp
        return out

    return apply


class MoyalReport:
    """Entrywise comparison of the symbol bracket against the operator
    commutator on the interior basis vectors."""

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
    """Compare ``Op(moyal(F,G))`` with ``(1/(i hbar))[Op F, Op G]`` on
    each basis vector ``e_n`` of the interior ``|n|_inf <= cutoff -
    margin``, margin the largest ``|k|_inf`` of ``F`` plus that of ``G``.
    On the interior rows no truncation enters, so deviations are
    rounding only.  The call refuses only when no interior is left; an
    interior of one column is checked even where the bracket's modes
    reach the edge of the ``cutoff`` box.
    """
    moyal = Backend(hbar)  # refuses a bad hbar before any work
    margin = _kmax(F) + _kmax(G)
    inner = cutoff - margin
    if inner < 0:
        raise ValueError("cutoff too small: no interior left after margin")
    op_f, op_g, op_b = (weyl_operator(X, hbar) for X in (F, G, moyal.bracket(F, G)))

    def deviations(n):
        e_n = {n: 1.0}
        b, fg, gf = op_b(e_n), op_f(op_g(e_n)), op_g(op_f(e_n))
        for row in b.keys() | fg.keys() | gf.keys():
            if _inside(row, inner):
                yield abs(b.get(row, 0j) - (fg.get(row, 0j) - gf.get(row, 0j)) / (1j * hbar))

    interior = itertools.product(range(-inner, inner + 1), repeat=F.d)
    dev = max((x for n in interior for x in deviations(n)), default=0.0)
    return MoyalReport(dev, margin, (2 * inner + 1) ** F.d, tol)
