"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or
``-v`` to see them live).  Runtime budgets are asserted where the
criterion states one.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mouldnf import Backend, Frequency, ScaleParams, normalize
from mouldnf.alphabet import diophantine_alpha
from mouldnf.estimates import (
    fit_growth_constants,
    verify_remainder_bound,
    verify_semiclassical,
)
from mouldnf.exact import QI
from mouldnf.liealg import ad_x0
from mouldnf.mould import check_alternal
from mouldnf.observables import norm_rho
from mouldnf.quantum import validate_moyal
from mouldnf.solver import MouldSolver, verify_equation

from conftest import random_observable
from oracles import dense, solver_moulds, spectral_norm, weyl_matrix

EXACT_ALPHABET = ((1, 0), (1, -1), (2, -1))
FLOAT_ALPHABET = ((1, 0), (0, 1), (-1, 0))


def _report(num, label, ok):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def toy_setup(golden_freq, toy_B):
    params = ScaleParams(1.0, 0.5)
    return golden_freq, toy_B, params, Backend()


class TestAcceptance:
    def test_01_mould_equation_residual(self, golden_freq):
        t0 = time.time()
        exact_freq = Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])
        rep_exact = verify_equation(MouldSolver(exact_freq), 4, EXACT_ALPHABET)
        ok = rep_exact.exact and rep_exact.max_residual == 0.0 and rep_exact.max_nabla_f == 0.0
        rep_float = verify_equation(MouldSolver(golden_freq), 5, FLOAT_ALPHABET, tol=1e-9)
        ok = ok and rep_float.max_residual <= 1e-9 * rep_float.scale
        elapsed = time.time() - t0
        ok = ok and elapsed < 10.0
        _report(1, f"mould equation residual ({elapsed:.1f}s)", ok)

    def test_02_alternality(self, golden_freq):
        t0 = time.time()
        moulds = solver_moulds(MouldSolver(golden_freq))
        ok = True
        for mould in (moulds["F"], moulds["G"]):
            (rep,) = check_alternal([mould], 4, FLOAT_ALPHABET, tol=1e-10)
            ok = ok and rep.ok
        elapsed = time.time() - t0
        ok = ok and elapsed < 10.0
        _report(2, f"alternality of F and G ({elapsed:.1f}s)", ok)

    def test_03_closed_form_fixtures(self):
        exact_freq = Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])
        solver = MouldSolver(exact_freq)
        ok = solver.values(((2, -1),)) == (QI(1), QI(0), QI(0))
        # lambda = i for the letter (1,0): 1/lambda = -i
        f1, s1, n1 = solver.values(((1, 0),))
        ok = ok and (f1, s1, n1) == (QI(0), QI(0, -1), QI(0, -1))
        # cancelling pair: F = -1/lambda = i, S = -1/(2 lambda^2) = 1/2, G = 0
        f2, s2, n2 = solver.values(((1, 0), (-1, 0)))
        ok = ok and (f2, s2, n2) == (QI(0, 1), QI(Fraction(1, 2)), QI(0))
        ok = ok and solver.G(((1, 0), (-1, 0))) == QI(0)
        _report(3, "closed-form solver fixtures", ok)

    def test_04_normal_form_commutation(self, toy_setup):
        freq, B, params, backend = toy_setup
        ok = abs(norm_rho(B, 1.0) - 0.01) < 1e-12
        for N in (1, 2, 3):
            res = normalize(B, N, params, freq, backend)
            ok = ok and all(k == (0, 0) for k, _ in res.Z.coeffs)
            ok = ok and res.commutation_residual == 0.0
        _report(4, "normal form commutes with x0", ok)

    def test_05_remainder_order_and_bound(self, toy_setup):
        t0 = time.time()
        freq, B, params, backend = toy_setup
        alpha = diophantine_alpha(freq, 5)
        letters = sorted({k for k, _ in B.coeffs})
        _, g_list = fit_growth_constants(freq, letters, 9, 1.0, alpha, seed=7)
        eps_values = [10 ** -1, 10 ** -1.5, 10 ** -2]
        ok = True
        for N in (1, 2, 3):
            norms = []
            qualifying = 0
            for eps in eps_values:
                res = normalize(eps * B, N, params, freq, backend)
                norms.append(res.norms["E"])
                rep = verify_remainder_bound(res, N, params, g_list)
                if rep.inputs["precondition_holds"]:
                    qualifying += 1
                    ok = ok and rep.holds
            slope = float(np.polyfit(np.log(eps_values), np.log(norms), 1)[0])
            ok = ok and abs(slope - (N + 1)) <= 0.2
            ok = ok and qualifying >= 1
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        _report(5, f"remainder order N+1 and explicit bound ({elapsed:.1f}s)", ok)

    def test_06_moyal_validity(self):
        t0 = time.time()
        rng = random.Random(7)
        ok = True
        for i in range(20):
            d = 1 if i % 2 == 0 else 2
            F = random_observable(rng, d, n_modes=1, kmax=3, mmax=3)
            G = random_observable(rng, d, n_modes=1, kmax=3, mmax=3)
            for hbar in (0.5, 0.1):
                rep = validate_moyal(F, G, cutoff=12, hbar=hbar, tol=1e-10)
                ok = ok and rep.max_deviation <= 1e-10
        elapsed = time.time() - t0
        ok = ok and elapsed < 30.0
        _report(6, f"moyal bracket vs weyl commutator ({elapsed:.1f}s)", ok)

    def test_07_semiclassical_gap(self, toy_setup):
        t0 = time.time()
        freq, B, params, _ = toy_setup
        hbars = [10 ** -1, 10 ** -1.5, 10 ** -2]
        rep1 = verify_semiclassical(B, 1, 1.0, 0.5, freq, hbars, diophantine_alpha(freq, 5), seed=7)
        ok = rep1.g_values == [0.0, 0.0, 0.0]
        for N in (2, 3):
            rep = verify_semiclassical(B, N, 1.0, 0.5, freq, hbars, diophantine_alpha(freq, 5), seed=7)
            ok = ok and rep.slope is not None and abs(rep.slope - 2.0) <= 0.1
            ok = ok and all(b.holds for b in rep.bounds)
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        _report(7, f"hbar^2 quantum-classical gap ({elapsed:.1f}s)", ok)

    def test_08_banach_scale_axioms(self, golden_freq):
        t0 = time.time()
        rng = random.Random(11)
        poisson = Backend().bracket
        violations = 0
        tol = 1 + 1e-12

        for _ in range(500):  # bracket axiom, classical
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
            rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
            F = random_observable(rng, 2, n_modes=3)
            G = random_observable(rng, 2, n_modes=3)
            rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
                math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
            )
            if norm_rho(poisson(F, G), rho_p) > rhs * tol:
                violations += 1

        for _ in range(500):  # x0 axiom
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.9 * rho)
            G = random_observable(rng, 2, n_modes=3)
            lhs = norm_rho(ad_x0(golden_freq, G, exact_zero=False), rho_p)
            if lhs > norm_rho(G, rho) / (math.e * (rho - rho_p)) * tol:
                violations += 1

        for _ in range(500):  # bracket axiom, quantum
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
            rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
            hbar = rng.choice([0.5, 0.1])
            F = random_observable(rng, 2, n_modes=3)
            G = random_observable(rng, 2, n_modes=3)
            rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
                math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
            )
            if norm_rho(Backend(hbar).bracket(F, G), rho_p) > rhs * tol:
                violations += 1

        for _ in range(500):  # iterated bracket bound, nesting <= 4
            depth = rng.randint(1, 4)
            rho = rng.uniform(0.8, 1.2)
            rho_p = rng.uniform(0.3 * rho, 0.8 * rho)
            Y = random_observable(rng, 1, n_modes=2)
            Xs = [random_observable(rng, 1, n_modes=2) for _ in range(depth)]
            acc = Y
            for Xi in Xs:
                acc = poisson(Xi, acc)
            lhs = norm_rho(acc, rho_p) / math.factorial(depth)
            rhs = (1.0 / (rho - rho_p) ** 2) ** depth * norm_rho(Y, rho)
            for Xi in Xs:
                rhs *= norm_rho(Xi, rho)
            if lhs > rhs * tol:
                violations += 1

        elapsed = time.time() - t0
        ok = violations == 0 and elapsed < 30.0
        _report(8, f"banach-scale axiom samples, {violations} violations ({elapsed:.1f}s)", ok)

    def test_09_nested_bracket_defect_bound(self):
        rng = random.Random(13)
        rho, rho_p = 1.0, 0.5
        violations = 0
        for _ in range(100):
            depth = rng.choice([2, 3])
            hbar = rng.choice([0.5, 0.1])
            mods = [random_observable(rng, 1, n_modes=2, kmax=1, mmax=1) for _ in range(depth)]
            classical = mods[0]
            quantum = mods[0]
            for nxt in mods[1:]:
                classical = Backend().bracket(nxt, classical)
                quantum = Backend(hbar).bracket(nxt, quantum)
            diff = quantum - classical
            defect = norm_rho(diff, rho_p) if diff else 0.0
            bound = hbar ** 2 / 6 * ((depth + 2) / (math.e * (rho - rho_p))) ** (depth + 2)
            for mod in mods:
                bound *= norm_rho(mod, rho)
            if defect > bound * (1 + 1e-12):
                violations += 1
        _report(9, f"nested moyal-poisson defect bound, {violations} violations", violations == 0)

    def test_10_operator_norm_domination(self):
        rng = random.Random(17)
        ok = True
        for _ in range(50):
            d = rng.choice([1, 2])
            B = random_observable(rng, d, n_modes=4, kmax=2, mmax=2)
            W = weyl_matrix(B, cutoff=4, hbar=rng.choice([0.5, 0.1]))
            ok = ok and spectral_norm(dense(W, d, 4)) <= norm_rho(B, 0.1) * (1 + 1e-12)
        _report(10, "weyl operator norm below symbol norm", ok)
