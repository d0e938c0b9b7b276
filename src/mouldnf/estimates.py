"""Explicit constants and bound verification.

Every check is reported as a :class:`BoundReport`; constants are
evaluated in double precision with a 1e-12 relative slack, which is a
desk-scale verification, not certified arithmetic.

The growth constants of the coefficient moulds have no computable
closed form, so ``fit_growth_constants`` records the observed suprema
over enumerated or sampled words.  They are estimates and are only used
inside upper-bound constants, never as certified values.
"""

from __future__ import annotations

import math
import random
import statistics

from .alphabet import _as_int_vector, beta, diophantine_alpha, words_over
from .liealg import ScaleParams, order_increment
from .observables import norm_rho
from .classical import ClassicalBackend
from .quantum import QuantumBackend
from .solver import MouldSolver

SLACK = 1e-12


class BoundReport:
    """One verified inequality: name, both sides, inputs."""

    def __init__(self, name, lhs, rhs, inputs=None):
        self.name = name
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.inputs = dict(inputs or {})

    @property
    def holds(self):
        return self.lhs <= self.rhs * (1.0 + SLACK)

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "inputs": self.inputs,
        }

    def __repr__(self):
        mark = "ok" if self.holds else "VIOLATED"
        return f"BoundReport({self.name}: {self.lhs:.6e} <= {self.rhs:.6e} [{mark}])"


def power_exponential_bound(x, tau, eta):
    """``x <= (tau/(e eta))^tau exp(eta x^(1/tau))``; equality exactly at
    the maximizer ``x = (tau/eta)^tau``."""
    if min(x, tau, eta) <= 0:
        raise ValueError("x, tau, eta must be positive")
    rhs = (tau / (math.e * eta)) ** tau * math.exp(eta * x ** (1.0 / tau))
    return BoundReport("power_exponential", x, rhs, {"x": x, "tau": tau, "eta": eta})


def growth_prefactors(r, tau_r, eta_r, F_r, G_r):
    """Prefactors of the coefficient-mould growth bounds at length r."""
    base = (tau_r / (math.e * eta_r)) ** tau_r
    return F_r * base ** (r - 1), G_r * base ** r


def default_eta(rho, alpha, tau, r):
    """The geometric eta ladder ``rho alpha^(1/tau) 2^(-r)``."""
    return rho * alpha ** (1.0 / tau) * 2.0 ** (-r)


def generator_majorant(N, delta, gamma, tau_list, eta_list, G_list, eps_list):
    """Generator-norm majorant: sum over r of
    ``((r-1)!/r)(gamma/delta^2)^(r-1) G_r (tau_r/(e eta_r))^(tau_r r) eps_r``
    with the supplied per-length growth constants and tuple sums."""
    if min(len(tau_list), len(eta_list), len(G_list), len(eps_list)) < N:
        raise ValueError("need lists of length >= N")
    total = 0.0
    for r in range(1, N + 1):
        tau_r, eta_r, g_r, eps_r = tau_list[r - 1], eta_list[r - 1], G_list[r - 1], eps_list[r - 1]
        total += (
            math.factorial(r - 1)
            / r
            * (gamma / delta ** 2) ** (r - 1)
            * g_r
            * (tau_r / (math.e * eta_r)) ** (tau_r * r)
            * eps_r
        )
    return total


def exp_tail_constant(N, rho, rho_prime, gamma, chi, normB):
    """Geometric-series constant of the exponential truncation tail."""
    delta = rho - rho_prime
    return 2.0 * (delta ** 2 / (4.0 * chi(delta / 2.0)) + normB) * (4.0 * gamma / delta ** 2) ** (N + 1)


def smallness_and_remainder_constants(N, rho, rho_prime, gamma, tau, eta_inf_1N, eta_inf_NN2, normB):
    """Smallness threshold and remainder constant in closed form.

    Direct evaluation of the two displayed formulas with a constant tau
    ladder (the only case exercised; the per-length tau is a documented
    simplification).  ``eta_inf_1N`` and ``eta_inf_NN2`` are the minima
    of the eta ladder over lengths 1..N and N+1..N^2.
    """
    delta = rho - rho_prime
    head = (
        math.factorial(N - 1)
        / N
        * (gamma / delta ** 2) ** (N - 1)
        * (2.0 ** N * tau / (math.e * eta_inf_1N)) ** N
    )
    eps_star = delta ** 2 / (32.0 * gamma * head)
    n2 = N * N
    tail = (
        math.factorial(n2 - 1)
        / n2
        * (gamma / delta ** 2) ** (n2 - 1)
        * (2.0 ** n2 * tau / (math.e * eta_inf_NN2)) ** n2
    )
    D = (
        exp_tail_constant(N, rho, rho_prime, gamma, ScaleParams.chi, normB) * (4.0 * head) ** (N + 1)
        + N ** N * tail
    )
    return eps_star, D


def norm_power_constants(N, rho, rho_prime, gamma, tau, alpha, G_list):
    """Norm-based remainder constant and threshold (torus variant).

    Returns ``(D, eps, Gamma_N, Gamma_N2N)`` where
    ``D = C'_{N+1} Gamma_N^{N+1} + 2 N^N Gamma_{N^2,N}`` and the
    Gammas sum the generator majorant with unit eps factors; needs the
    fitted growth constants up to length N^2.
    """
    if len(G_list) < N * N:
        raise ValueError(f"need growth constants up to length {N * N}")
    delta = rho - rho_prime

    def gamma_sum(r_lo, r_hi):
        total = 0.0
        for r in range(r_lo, r_hi + 1):
            eta_r = default_eta(rho, alpha, tau, r)
            total += (
                math.factorial(r - 1)
                / r
                * (gamma / delta ** 2) ** (r - 1)
                * G_list[r - 1]
                * (tau / (math.e * eta_r)) ** (tau * r)
            )
        return total

    gamma_n = gamma_sum(1, N)
    gamma_n2 = gamma_sum(N + 1, N * N)
    c_prime = exp_tail_constant(N, rho, rho_prime, gamma, ScaleParams.chi, 1.0)
    D = c_prime * gamma_n ** (N + 1) + 2.0 * N ** N * gamma_n2
    eps = 1.0 if gamma_n == 0.0 else min(1.0, delta / (8.0 * gamma * gamma_n))
    return D, eps, gamma_n, gamma_n2


def _sample_words(alphabet, r, rng, limit):
    letters = sorted(_as_int_vector(k) for k in alphabet)
    if len(letters) ** r <= limit:
        return list(words_over(letters, r, min_r=r))
    return [tuple(rng.choice(letters) for _ in range(r)) for _ in range(limit)]


def fit_growth_constants(freq, alphabet, r_max, rho, alpha, tau, limit=600, seed=7):
    """Observed suprema of the coefficient-mould ratios per word length.

    For each length r, the ratio of ``|F|`` (resp. ``|G|``) to its
    growth-bound shape with unit constant is maximized over all words
    when the alphabet is small enough, else over a seeded sample.
    Returns ``(F_list, G_list)`` of length ``r_max``.  Estimates only.
    """
    rng = random.Random(seed)
    solver = MouldSolver(freq)
    F = solver.F_mould
    G = solver.G_mould
    f_list, g_list = [], []
    for r in range(1, r_max + 1):
        eta_r = default_eta(rho, alpha, tau, r)
        f_shape, g_shape = growth_prefactors(r, tau, eta_r, 1.0, 1.0)
        f_best, g_best = 0.0, 0.0
        for w in _sample_words(alphabet, r, rng, limit):
            shape = math.exp(eta_r * beta(w, tau, freq))
            fv = abs(complex(F(w)))
            gv = abs(complex(G(w)))
            if fv:
                f_best = max(f_best, fv / (f_shape * shape))
            if gv:
                g_best = max(g_best, gv / (g_shape * shape))
        f_list.append(f_best)
        g_list.append(g_best)
    return f_list, g_list


def verify_remainder_bound(result, N, params, freq, G_list, tau=None, alpha=None, K=5):
    """Measured remainder against the explicit norm-power bound.

    The report's inputs record the smallness threshold and whether the
    perturbation satisfies it (the hypothesis of the bound).
    """
    tau = freq.dioph_tau if tau is None else tau
    alpha = alpha if alpha is not None else diophantine_alpha(freq, tau, K)
    D, eps, gamma_n, gamma_n2 = norm_power_constants(
        N, params.rho, params.rho_prime, params.gamma, tau, alpha, G_list
    )
    norm_b = result.norms["B"]
    lhs = result.norms["E"]
    rhs = D * norm_b ** (N + 1)
    return BoundReport(
        f"remainder_order_{N}",
        lhs,
        rhs,
        {
            "normB": norm_b,
            "D": D,
            "eps_threshold": eps,
            "precondition_holds": norm_b <= eps,
            "Gamma_N": gamma_n,
            "Gamma_N2N": gamma_n2,
        },
    )


def gap_constant(N, rho, rho_prime, tau, alpha, F_N):
    """Quantum-classical gap constant at order N (empirical F_N)."""
    return (
        F_N
        / (6.0 * N)
        * (2.0 ** N * tau / (math.e * rho * alpha ** (1.0 / tau))) ** ((N - 1) * tau)
        * ((N + 2) / (math.e * (rho - rho_prime))) ** (N + 2)
    )


class SemiclassicalReport:
    """Gap sizes g(hbar), fitted slope, and per-hbar bound reports."""

    def __init__(self, N, hbars, g_values, slope, c_n, bounds):
        self.N = N
        self.hbars = hbars
        self.g_values = g_values
        self.slope = slope
        self.c_n = c_n
        self.bounds = bounds

    @property
    def ok(self):
        return all(b.holds for b in self.bounds)

    def __repr__(self):
        s = "none" if self.slope is None else f"{self.slope:.3f}"
        return f"SemiclassicalReport(N={self.N}, slope={s}, ok={self.ok})"


def verify_semiclassical(B, N, rho, rho_prime, freq, hbar_list, F_N=None, K=5):
    """Quantum-minus-classical order-N increment across an hbar sweep.

    For each hbar, ``g(hbar)`` is the norm at the target radius of the
    difference between the quantum and classical length-N strata of the
    normal form (the coefficient mould is shared; only the comould
    differs).  Fits the log-log slope when every g is positive and at
    least two hbar values differ, and checks ``g <= hbar^2 C_N ||B||_rho^N``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    tau = freq.dioph_tau
    alpha = diophantine_alpha(freq, tau, K)
    solver = MouldSolver(freq)
    F = solver.F_mould
    classical = order_increment(F, B, N, ClassicalBackend(freq))
    if F_N is None:
        letters = sorted({k for k, _ in B.coeffs})
        f_list, _ = fit_growth_constants(freq, letters, N, rho, alpha, tau)
        F_N = f_list[N - 1]
    c_n = gap_constant(N, rho, rho_prime, tau, alpha, F_N)
    norm_b = norm_rho(B, rho)
    hbars, g_values, bounds = [], [], []
    for hbar in hbar_list:
        quantum = order_increment(F, B, N, QuantumBackend(freq, hbar))
        diff = quantum - classical
        g = norm_rho(diff, rho_prime) if diff else 0.0
        hbars.append(float(hbar))
        g_values.append(g)
        bounds.append(
            BoundReport(
                f"semiclassical_gap_N{N}_hbar{hbar}",
                g,
                hbar ** 2 * c_n * norm_b ** N,
                {"hbar": float(hbar), "C_N": c_n, "normB": norm_b, "F_N": F_N},
            )
        )
    slope = None
    if len(set(hbars)) >= 2 and all(g > 0.0 for g in g_values):
        slope = statistics.linear_regression(
            [math.log(h) for h in hbars], [math.log(g) for g in g_values]
        ).slope
    return SemiclassicalReport(N, hbars, g_values, slope, c_n, bounds)
