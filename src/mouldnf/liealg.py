"""Comould contraction and the normal-form driver.

``contract`` pairs a list of moulds with one comould, the iterated
brackets of a perturbation's Fourier slices; ``normalize`` assembles the
order-N normal form and the generator from one such walk, and measures
the remainder of the truncated exponential conjugation.

Words (tuples of letters) are enumerated over the perturbation's own
support letters in sorted order (deterministic floating accumulation),
each extended one letter at a time from its prefix, pruning subtrees
whose iterated bracket has already vanished.  Each mould drops the words
whose value is negligible against its own accumulated scale.

Both bracket walkers, the word-tree walk of ``contract`` and the
exponential chain of ``apply_exp_ad``, run on mode codes: each fixes a
:class:`~mouldnf.classical.ModeCodes` space that holds every mode it can
reach, encodes its operands once, brackets with
:func:`~mouldnf.classical.code_bracket` at every step, with the rows of
its fixed left operands decoded once, and decodes its result once.
"""

from __future__ import annotations

import math

from .classical import ModeCodes, code_bracket, top
from .observables import PRUNE_REL, Observable, norm_rho, slices
from .solver import MouldSolver


class OutOfDomainError(RuntimeError):
    """Generator or perturbation too large for the exponential series domain."""

    def __init__(self, ratio, name="gamma*||Y||_rho/(rho-rho')^2"):
        super().__init__(f"{name} = {ratio:.6g} >= 1: outside the domain of the exponential bound")
        self.ratio = ratio


def chi(delta):
    """The x0 loss ``1/(e delta)`` of both backends, whose brackets have
    the constant ``gamma = 1``."""
    return 1.0 / (math.e * delta)


class ScaleParams:
    """Radii of the analyticity scale; ``gamma`` and :func:`chi` are fixed."""

    def __init__(self, rho, rho_prime):
        if not 0 < rho_prime < rho:
            raise ValueError("need 0 < rho_prime < rho")
        self.rho = float(rho)
        self.rho_prime = float(rho_prime)

    @property
    def delta(self):
        return self.rho - self.rho_prime

    def __repr__(self):
        return f"ScaleParams(rho={self.rho}, rho_prime={self.rho_prime})"


def finite_norm(B, rho):
    """``||B||_rho``; :class:`OutOfDomainError` when it is beyond float range."""
    norm = norm_rho(B, rho)
    if not math.isfinite(norm):
        raise OutOfDomainError(norm, "||B||_rho")
    return norm


def contract(moulds, B, r_max, backend, r_min=1):
    """One contraction per mould of ``moulds``: the sum of
    ``(1/r) M(word)`` times the right-nested bracket
    ``[B_(k_r), ..., [B_(k_2), B_(k_1)]]`` of the Fourier slices of ``B``
    over the words ``k_1...k_r`` of length ``r_min..r_max`` drawn from
    its support letters.

    One descent takes each bracket once for every mould.  Each mould
    keeps its own pruning scale, so its sum is the one its walk alone
    would give.
    """
    parts = slices(B)
    letters = sorted(parts)
    totals = [Observable.zero(B.d) for _ in moulds]
    if not letters:
        return totals
    # a bracket of r slices has coordinates within r top(B)
    codes = ModeCodes(B.d, r_max * top(B))
    scales = [0.0] * len(moulds)
    parts = {letter: codes.encode(part) for letter, part in parts.items()}
    lefts = {letter: codes.rows(part) for letter, part in parts.items()}
    coupling = backend.coupling

    def descend(word, nested):
        r = len(word)
        if r >= r_min:
            peak = nested.max_abs()
            for i, M in enumerate(moulds):
                value = complex(M(word))
                weight = abs(value) * peak
                if value != 0 and weight > PRUNE_REL * scales[i]:
                    totals[i] = totals[i] + (value / r) * nested
                    scales[i] = max(scales[i], weight)
        if r == r_max:
            return
        for letter in letters:
            extended = code_bracket(lefts[letter], nested, coupling, codes)
            if extended:
                descend(word + (letter,), extended)

    for letter in letters:
        descend((letter,), parts[letter])
    return [Observable._of(B.d, codes.decode(total), False) for total in totals]


def ad_x0(freq, G, exact_zero=True):
    """[x0, G] for ``x0 = omega . xi``: each mode times its eigenvalue
    ``i<k, omega>``.

    The generator is linear in xi, so this action is the same under
    every bracket.  With ``exact_zero`` resonant modes are annihilated
    exactly, consistent with the resonance decisions elsewhere; without
    it the raw floating inner product is used (diagnostics).
    """
    data = {}
    for (k, m), c in G.items_sorted():
        lam = complex(freq.eigenvalue(k, exact_zero=exact_zero))
        if lam != 0:
            data[(k, m)] = lam * c
    return Observable(G.d, data, _prune=False)


def exp_ad_tail_bound(norm_y, norm_x, order, params):
    """Geometric tail at ``order`` of the truncated exponential of
    ``x0 + X``, with ``norm_x = ||X||_rho``.

    Returns the bound and the contraction ratio; raises
    :class:`OutOfDomainError` when the ratio reaches 1.
    """
    q = norm_y / params.delta ** 2
    if q >= 1.0:
        raise OutOfDomainError(q)
    head = norm_x + params.delta ** 2 / chi(params.delta)
    return head * q ** (order + 1) / (1.0 - q), q


def apply_exp_ad(Y, X, order, params, freq, backend):
    """Truncated exponential adjoint ``sum_{d<=order} ad_Y^d (x0 + X) / d!``,
    with ``x0`` the generator of ``freq`` and ``ad`` the bracket of ``backend``.

    The returned observable omits the (non-representable) x0 itself.  Since
    ``ad_Y x0 = -[x0, Y]`` is mode-diagonal, one chain of ``order``
    brackets carries both parts: ``term_1 = [Y, X] - [x0, Y]`` and
    ``term_d = [Y, term_{d-1}] / d``.  Returns the observable and the
    geometric tail bound of the dropped orders; the bound is checked
    before any bracket is taken.  The chain runs on mode codes of reach
    ``top(X) + order top(Y)``, which holds every term.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    norm_y = norm_rho(Y, params.rho)
    norm_x = norm_rho(X, params.rho)
    tail, ratio = exp_ad_tail_bound(norm_y, norm_x, order, params)
    if order == 0:
        return X, tail, ratio
    if Y.d != X.d:
        raise ValueError("dimension mismatch")
    codes = ModeCodes(X.d, top(X) + order * top(Y))
    y, x = codes.rows(codes.encode(Y)), codes.encode(X)
    coupling = backend.coupling
    term = code_bracket(y, x, coupling, codes, Y.real and X.real) - codes.encode(ad_x0(freq, Y))
    total = x + term
    for d in range(2, order + 1):
        term = code_bracket(y, term, coupling, codes) * (1.0 / d)
        total = total + term
    return Observable._of(X.d, codes.decode(total), False), tail, ratio


class NormalFormResult:
    """Output of :func:`normalize`.

    Attributes
    ----------
    Z, Y, E : Observable
        Normal form, generator, and measured remainder.
    G : Mould
        The generator mould contracted into ``Y``, for the growth fit.
    norms : dict
        ``||Z||, ||Y||, ||E||`` at the target radius.
    commutation_residual : float
        Norm of ``[x0, Z]`` with raw floating eigenvalues: how exactly
        the normal form commutes.
    exp_tail_bound : float
        Geometric bound on the exponential truncation actually dropped.
    """

    def __init__(self, Z, Y, E, G, norms, commutation_residual, exp_tail_bound, exp_order, ratio):
        self.Z = Z
        self.Y = Y
        self.E = E
        self.G = G
        self.norms = norms
        self.commutation_residual = commutation_residual
        self.exp_tail_bound = exp_tail_bound
        self.exp_order = exp_order
        self.ratio = ratio

    def __repr__(self):
        return (
            f"NormalFormResult(|Z|={self.norms['Z']:.3e}, |Y|={self.norms['Y']:.3e}, "
            f"|E|={self.norms['E']:.3e}, [x0,Z] residual={self.commutation_residual:.3e})"
        )


def default_exp_order(N):
    return max(2 * N, 12)


def normalize(B, N, params, freq, backend, exp_order=None):
    """Order-N normal form of ``x0 + B`` for the given bracket backend,
    with ``x0`` the generator of ``freq``: the solver's resonance
    decisions and the x0 action both read it.

    Computes ``Z_N`` and ``Y_N`` by contracting the solver's moulds
    against ``B``, then measures the remainder
    ``E_N = e^{ad_{Y_N}}(x0 + B) - x0 - Z_N`` with the exponential
    truncated at ``exp_order`` (default ``max(2N, 12)``); the dropped
    tail is bounded and reported.  A ``B`` with ``||B||_rho`` beyond
    float range is out of the domain.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if B.d != freq.d:
        raise ValueError("observable and frequency dimensions differ")
    norm_b = finite_norm(B, params.rho)
    solver = MouldSolver(freq)
    Z, Y = contract([solver.F_mould, solver.G_mould], B, N, backend)
    order = exp_order if exp_order is not None else default_exp_order(N)
    conjugated, tail, ratio = apply_exp_ad(Y, B, order, params, freq, backend)
    E = conjugated - Z
    rp = params.rho_prime
    norms = {
        "Z": norm_rho(Z, rp) if Z else 0.0,
        "Y": norm_rho(Y, rp) if Y else 0.0,
        "E": norm_rho(E, rp) if E else 0.0,
        "B": norm_b,
    }
    raw = ad_x0(freq, Z, exact_zero=False)
    residual = norm_rho(raw, rp) if raw else 0.0
    return NormalFormResult(Z, Y, E, solver.G_mould, norms, residual, tail, order, ratio)
