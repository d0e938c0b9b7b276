"""Explicit constants and bound verification.

Every check is reported as a :class:`BoundReport`; constants are
evaluated in double precision with a 1e-12 relative slack, which is a
desk-scale verification, not certified arithmetic, and a ``B`` or a
right-hand side beyond float range is refused as out of the domain.

The growth constants of the coefficient moulds have no computable
closed form, so ``fit_growth_constants`` records the observed suprema
over enumerated or sampled words.  They are estimates and are only used
inside upper-bound constants, never as certified values.  The bracket
constant ``gamma = 1`` and the x0 loss :func:`liealg.chi` are fixed.
"""

from __future__ import annotations

import math
import random
import statistics

from .alphabet import _as_int_vector, _Lookup, beta, grow_subset_sums
from .classical import Backend, VectorCodes
from .liealg import OutOfDomainError, chi, contract, finite_norm
from .mould import log_divisor, series_sum
from .observables import norm_rho
from .solver import MouldSolver, log_column, step

SLACK = 1e-12
# words per length of the growth fit; more are sampled down to this many
SAMPLE_LIMIT = 200


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


def power_exponential_bound(x, tau):
    """``x <= (tau/e)^tau exp(x^(1/tau))``, the ``eta = 1`` case of
    ``x <= (tau/(e eta))^tau exp(eta x^(1/tau))``; equality exactly at
    the maximizer ``x = tau^tau``."""
    if min(x, tau) <= 0:
        raise ValueError("x, tau must be positive")
    rhs = (tau / math.e) ** tau * math.exp(x ** (1.0 / tau))
    return BoundReport("power_exponential", x, rhs, {"x": x, "tau": tau, "eta": 1.0})


def _finite(name, compute):
    """``compute()``; :class:`OutOfDomainError` naming ``name`` when the
    value is beyond float range, where a bound would hold vacuously."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OutOfDomainError(value, name)
    return value


def default_eta(rho, alpha, tau, r):
    """The geometric eta ladder ``rho alpha^(1/tau) 2^(-r)``."""
    return rho * alpha ** (1.0 / tau) * 2.0 ** (-r)


def exp_tail_constant(N, delta):
    """Geometric-series constant of the exponential truncation tail, at
    the unit ``||B||`` of the norm-power constant."""
    return 2.0 * (delta ** 2 / (4.0 * chi(delta / 2.0)) + 1.0) * (4.0 / delta ** 2) ** (N + 1)


def norm_power_constants(N, rho, rho_prime, G_list):
    """Norm-based remainder constant and threshold (torus variant).

    Returns ``(D, eps, Gamma_N, Gamma_N2N)`` where
    ``D = C'_{N+1} Gamma_N^{N+1} + 2 N^N Gamma_{N^2,N}`` and the
    Gammas sum ``(r-1)!/r delta^(-2(r-1)) G_r``, the generator majorant
    with unit eps factors; needs the fitted growth constants up to
    length N^2.  A term or constant beyond float range is refused by
    name as out of the domain.
    """
    if len(G_list) < N * N:
        raise ValueError(f"need growth constants up to length {N * N}")
    delta = rho - rho_prime

    def gamma_sum(r_lo, r_hi):
        total = 0.0
        for r in range(r_lo, r_hi + 1):
            total += _finite(
                f"Gamma term at word length {r}",
                lambda: math.factorial(r - 1) / r * (1.0 / delta ** 2) ** (r - 1) * G_list[r - 1],
            )
        return total

    gamma_n = gamma_sum(1, N)
    gamma_n2 = gamma_sum(N + 1, N * N)
    D = _finite(
        f"D at N = {N}",
        lambda: exp_tail_constant(N, delta) * gamma_n ** (N + 1) + 2.0 * N ** N * gamma_n2,
    )
    eps = 1.0 if gamma_n == 0.0 else min(1.0, delta / (8.0 * gamma_n))
    return D, eps, gamma_n, gamma_n2


def _sample_words(letters, previous, rng):
    """The fit's words one letter longer than those of ``previous``, each
    as the pair of its parent in ``previous`` and its last letter: all of
    them while there are at most ``SAMPLE_LIMIT``, else ``SAMPLE_LIMIT``
    parents (``previous``, or that many drawn from it when it holds
    fewer) each followed by one letter drawn with ``rng``."""
    if len(previous) * len(letters) <= SAMPLE_LIMIT:
        return [(w, k) for w in previous for k in letters]
    if len(previous) < SAMPLE_LIMIT:
        previous = [rng.choice(previous) for _ in range(SAMPLE_LIMIT)]
    return [(w, rng.choice(letters)) for w in previous]


def letter_sums(freq, alphabet, r_max):
    """``(codes, divisors, weights)`` of the sums of up to ``r_max``
    integral letters of ``alphabet``: their :class:`classical.VectorCodes`
    (reach ``r_max`` times the letters' largest ``|coordinate|``) and,
    by code, ``freq.divisors`` of the decoded sum and its small-divisor
    weight ``|lambda_k|^(-1/tau)``, 0.0 on the resonance lattice; each
    formed on first lookup and kept, so a distinct sum is decided once.
    """
    alphabet = [_as_int_vector(k) for k in alphabet]
    codes = VectorCodes(freq.d, r_max * max((abs(c) for k in alphabet for c in k), default=0))
    divisors = _Lookup(lambda code: freq.divisors[codes.decode(code)])

    def weight(code):
        divisor = divisors[code]
        return 0.0 if divisor is None else abs(divisor) ** (-1.0 / freq.dioph_tau)

    return codes, divisors, _Lookup(weight)


def _grow(state, letter, divisors, zero):
    """The frontier state of a word with ``letter``, a code, appended.

    A state of a word ``w`` is ``(node, cols, counts)``: ``node`` its
    word node (:func:`solver.step`), with letter sums as codes, the
    empty word's 0; ``cols`` the log-S power columns of the prefixes of
    ``w``; ``counts`` its subset-sum counts.  The r + 1 new suffixes
    ``w[j:] + letter`` are built shortest first by :func:`solver.step`,
    each from its parent ``w[j:]`` on the shift chain of ``w`` and the
    suffix just built, and the new column is :func:`solver.log_column`
    of the last.  So the values are bit for bit those of
    ``MouldSolver`` and ``mlog``, and no table of words is kept.
    """
    node, cols, counts = state
    chain = [node]
    while node[3] is not None:
        node = node[3]
        chain.append(node)
    for parent in reversed(chain):  # node is the empty word's, the first shift
        k = parent[2] + letter
        node = step(parent, node, k, divisors[k], zero, zero)
    return node, cols + [log_column(cols, node)], grow_subset_sums(counts, letter)


def fit_growth_constants(freq, alphabet, r_max, rho, alpha, seed):
    """Observed suprema of the coefficient moulds' ratios per word length.

    For each length r, ``|M(w)| / exp(eta_r beta(w))`` is maximized over
    all words when there are at most ``SAMPLE_LIMIT``, else over a seeded
    prefix walk: each sampled word is a word of the previous length's
    list followed by one letter drawn with ``seed``.  ``M`` is
    the normal-form mould F and the generator mould G = log S, both
    scored on the one walk.  The growth shape of the paper's bound is
    left out: the constants that use these suprema would multiply it
    back in.  The walk keeps one length's frontier of word states
    (:func:`_grow`): each distinct sampled word is one step from its
    parent's state, O(r^2) in the solve, in ``log S`` and in its
    subset-sum counts, and each distinct subset sum is weighed once per
    fit.  Letter sums are the codes of :func:`letter_sums`.  ``tau`` is
    the frequency's.  Returns the F and G lists, each of length
    ``r_max``.  Estimates only.
    """
    tau = freq.dioph_tau
    rng = random.Random(seed)
    codes, divisors, weights = letter_sums(freq, alphabet, r_max)
    letters = sorted(map(codes.encode, alphabet))  # codes sort as the letters do
    zero, one = freq.zero(), freq.one()
    frontier = [(((zero, one, zero), [one], 0, None), [], {})]
    f_sup, g_sup = [], []
    for r in range(1, r_max + 1):
        eta_r = default_eta(rho, alpha, tau, r)
        name = f"exp(eta_r beta) at word length {r}"
        best_f = best_g = 0.0
        # each distinct word of the previous length is one state, so a
        # sampled word is named by its parent's id and its letter
        states = {}
        sampled = _sample_words(letters, frontier, rng)
        frontier = []
        for parent, letter in sampled:
            key = id(parent), letter
            state = states.get(key)
            if state is None:
                state = states[key] = _grow(parent, letter, divisors, zero)
                node, cols, counts = state
                scale = _finite(name, lambda: math.exp(eta_r * beta(counts, weights)))
                f, g = abs(complex(node[0][0])), abs(complex(series_sum(cols[-1], log_divisor)))
                if f:
                    best_f = max(best_f, f / scale)
                if g:
                    best_g = max(best_g, g / scale)
            frontier.append(state)
        f_sup.append(best_f)
        g_sup.append(best_g)
    return f_sup, g_sup


def verify_remainder_bound(result, N, params, G_list):
    """Measured remainder against the explicit norm-power bound.

    The report's inputs record the smallness threshold and whether the
    perturbation satisfies it (the hypothesis of the bound).
    """
    D, eps, gamma_n, gamma_n2 = norm_power_constants(N, params.rho, params.rho_prime, G_list)
    norm_b = result.norms["B"]
    rhs = _finite(f"D*||B||_rho^{N + 1}", lambda: D * norm_b ** (N + 1))
    return BoundReport(
        f"remainder_order_{N}",
        result.norms["E"],
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


def gap_constant(N, rho, rho_prime, F_sup):
    """Quantum-classical gap constant at order N from the fitted F
    supremum at length N; beyond float range it is refused as out of the
    domain."""
    return _finite(
        f"C_N at word length {N}",
        lambda: F_sup / (6.0 * N) * ((N + 2) / (math.e * (rho - rho_prime))) ** (N + 2),
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


def verify_semiclassical(B, N, rho, rho_prime, freq, hbar_list, alpha, seed):
    """Quantum-minus-classical order-N increment across an hbar sweep.

    For each hbar, ``g(hbar)`` is the norm at the target radius of the
    difference between the quantum and classical length-N strata of the
    normal form: ``F`` contracted over the words of length N alone
    (``r_min = N``), so its pruning scale is that of the stratum.  The
    coefficient mould is shared; only the comould differs.  Fits the
    log-log slope when every g is positive and at least two hbar values
    differ, and checks ``g <= hbar^2 C_N ||B||_rho^N``
    with ``C_N`` from the F supremum fitted on ``B``'s letters with ``seed``
    at the Diophantine ``alpha``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    norm_b = finite_norm(B, rho)
    solver = MouldSolver(freq)
    classical = contract(solver, B, N, Backend(), N)[0]
    letters = sorted({k for k, _ in B.coeffs})
    F_sup = fit_growth_constants(freq, letters, N, rho, alpha, seed)[0][N - 1]
    c_n = gap_constant(N, rho, rho_prime, F_sup)
    # the reported F_N is F_sup over the length-N growth shape
    # (tau/(e eta_N))^(tau (N - 1)); a resonant word is not divided by its
    # own letter sum, so F lags G by one power
    tau, eta_n = freq.dioph_tau, default_eta(rho, alpha, freq.dioph_tau, N)
    F_N = _finite(
        f"F_N at word length {N}", lambda: F_sup / ((tau / (math.e * eta_n)) ** tau) ** (N - 1)
    )
    hbars, g_values, bounds = [], [], []
    for hbar in hbar_list:
        quantum = contract(solver, B, N, Backend(hbar), N)[0]
        diff = quantum - classical
        g = norm_rho(diff, rho_prime) if diff else 0.0
        hbars.append(float(hbar))
        g_values.append(g)
        rhs = _finite(f"hbar^2*C_N*||B||_rho^{N}", lambda: hbar ** 2 * c_n * norm_b ** N)
        inputs = {"hbar": float(hbar), "C_N": c_n, "normB": norm_b, "F_N": F_N}
        bounds.append(BoundReport(f"semiclassical_gap_N{N}_hbar{hbar}", g, rhs, inputs))
    slope = None
    if len(set(hbars)) >= 2 and all(g > 0.0 for g in g_values):
        slope = statistics.linear_regression(
            [math.log(h) for h in hbars], [math.log(g) for g in g_values]
        ).slope
    return SemiclassicalReport(N, hbars, g_values, slope, c_n, bounds)
