"""Comould contraction and the normal-form driver.

``contract`` pairs a mould with the iterated brackets of a
perturbation's Fourier slices; ``normalize`` assembles the order-N
normal form, the generator, and the measured remainder of the truncated
exponential conjugation.

Words (tuples of letters) are enumerated over the perturbation's own
support letters in sorted order (deterministic floating accumulation),
each extended one letter at a time from its prefix, pruning subtrees
whose iterated bracket has already vanished and words whose mould value
is negligible against the accumulated scale.
"""

from __future__ import annotations

import math

from .observables import Observable, norm_rho, slices
from .solver import MouldSolver

PRUNE_REL = 1e-16


class OutOfDomainError(RuntimeError):
    """Generator too large for the exponential series domain."""

    def __init__(self, ratio):
        super().__init__(
            f"gamma*||Y||_rho/(rho-rho')^2 = {ratio:.6g} >= 1: outside the "
            "domain of the exponential bound"
        )
        self.ratio = ratio


class ScaleParams:
    """Geometry of the analyticity scale: radii, bracket constant, x0 loss.

    Both backends satisfy the bracket axiom with ``gamma = 1`` and the
    x0 axiom with ``chi(delta) = 1/(e delta)``; those are the defaults.
    """

    def __init__(self, rho, rho_prime, gamma=1.0, chi=None):
        if not 0 < rho_prime < rho:
            raise ValueError("need 0 < rho_prime < rho")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.rho = float(rho)
        self.rho_prime = float(rho_prime)
        self.gamma = float(gamma)
        self.chi = chi if chi is not None else (lambda delta: 1.0 / (math.e * delta))

    @property
    def delta(self):
        return self.rho - self.rho_prime

    def __repr__(self):
        return f"ScaleParams(rho={self.rho}, rho_prime={self.rho_prime}, gamma={self.gamma})"


def comould(word, parts, backend):
    """Right-nested iterated bracket of the slices along a word, a
    tuple of letters.

    ``parts`` maps each letter (k-vector) to its homogeneous slice.
    The empty word gives the zero observable by convention.
    """
    d = next(iter(parts.values())).d if parts else 1
    if not word:
        return Observable.zero(d)
    acc = parts[word[0]]
    for letter in word[1:]:
        acc = backend.bracket(parts[letter], acc)
    return acc


def _contract_range(M, B, r_min, r_max, backend, prune_rel=PRUNE_REL):
    parts = slices(B)
    letters = sorted(parts)
    total = Observable.zero(B.d)
    if not letters:
        return total
    scale = 0.0

    def descend(word, nested):
        nonlocal total, scale
        r = len(word)
        if r >= r_min:
            value = complex(M(word))
            weight = abs(value) * nested.max_abs()
            if value != 0 and weight > prune_rel * scale:
                total = total + (value / r) * nested
                scale = max(scale, weight)
        if r == r_max:
            return
        for letter in letters:
            extended = backend.bracket(parts[letter], nested)
            if extended:
                descend(word + (letter,), extended)

    for letter in letters:
        descend((letter,), parts[letter])
    return total


def contract(M, B, max_r, backend):
    """Sum of ``(1/r) M(word) * comould(word)`` over words of length
    1..max_r drawn from the support letters of ``B``."""
    return _contract_range(M, B, 1, max_r, backend)


def order_increment(M, B, r, backend):
    """The length-``r`` stratum of :func:`contract` alone."""
    return _contract_range(M, B, r, r, backend)


def exp_ad_tail_bound(norm_y, norm_x, order, params, x0_term=False):
    """Geometric tail of the truncated exponential at ``order``.

    Returns the bound and the contraction ratio; raises
    :class:`OutOfDomainError` when the ratio reaches 1.
    """
    q = params.gamma * norm_y / params.delta ** 2
    if q >= 1.0:
        raise OutOfDomainError(q)
    head = norm_x
    if x0_term:
        head = head + params.delta ** 2 / params.chi(params.delta)
    return head * q ** (order + 1) / (1.0 - q), q


def apply_exp_ad(Y, X, order, params, backend, with_x0=False):
    """Truncated exponential adjoint ``sum_{d<=order} ad_Y^d X / d!``.

    With ``with_x0`` the conjugated element is ``x0 + X`` and the
    returned observable omits the (non-representable) x0 itself.  Since
    ``ad_Y x0 = -[x0, Y]`` is mode-diagonal, one chain of ``order``
    brackets carries both parts: ``term_1 = [Y, X] - [x0, Y]`` and
    ``term_d = [Y, term_{d-1}] / d``.  Returns the observable and the
    geometric tail bound of the dropped orders; the bound is checked
    before any bracket is taken.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    norm_y = norm_rho(Y, params.rho)
    norm_x = norm_rho(X, params.rho)
    tail, ratio = exp_ad_tail_bound(norm_y, norm_x, order, params, x0_term=with_x0)
    total = X
    if order >= 1:
        term = backend.bracket(Y, X)
        if with_x0:
            term = term - backend.ad_x0(Y)
        total = total + term
    for d in range(2, order + 1):
        term = backend.bracket(Y, term) * (1.0 / d)
        total = total + term
    return total, tail, ratio


class NormalFormResult:
    """Output of :func:`normalize`.

    Attributes
    ----------
    Z, Y, E : Observable
        Normal form, generator, and measured remainder.
    norms : dict
        ``||Z||, ||Y||, ||E||`` at the target radius.
    commutation_residual : float
        Norm of ``[x0, Z]`` with raw floating eigenvalues: how exactly
        the normal form commutes.
    exp_tail_bound : float
        Geometric bound on the exponential truncation actually dropped.
    """

    def __init__(self, Z, Y, E, norms, commutation_residual, exp_tail_bound, exp_order, ratio):
        self.Z = Z
        self.Y = Y
        self.E = E
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


def normalize(B, N, params, freq, backend, exp_order=None, solver=None):
    """Order-N normal form of ``x0 + B`` for the given bracket backend.

    Computes ``Z_N`` and ``Y_N`` by contracting the solver's moulds
    against ``B``, then measures the remainder
    ``E_N = e^{ad_{Y_N}}(x0 + B) - x0 - Z_N`` with the exponential
    truncated at ``exp_order`` (default ``max(2N, 12)``); the dropped
    tail is bounded and reported.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if B.d != freq.d:
        raise ValueError("observable and frequency dimensions differ")
    solver = solver or MouldSolver(freq)
    Z = contract(solver.F_mould, B, N, backend)
    Y = contract(solver.G_mould, B, N, backend)
    order = exp_order if exp_order is not None else default_exp_order(N)
    conjugated, tail, ratio = apply_exp_ad(Y, B, order, params, backend, with_x0=True)
    E = conjugated - Z
    rp = params.rho_prime
    norms = {
        "Z": norm_rho(Z, rp) if Z else 0.0,
        "Y": norm_rho(Y, rp) if Y else 0.0,
        "E": norm_rho(E, rp) if E else 0.0,
        "B": norm_rho(B, params.rho) if B else 0.0,
    }
    raw = backend.ad_x0(Z, exact_zero=False)
    residual = norm_rho(raw, rp) if raw else 0.0
    return NormalFormResult(Z, Y, E, norms, residual, tail, order, ratio)
