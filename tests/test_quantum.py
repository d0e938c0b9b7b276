import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Backend, Observable
from mouldnf.observables import norm_rho
from mouldnf.quantum import _inside, _kmax, validate_moyal, weyl_operator

from conftest import random_observable
from oracles import (
    dense,
    hermiticity_defect,
    matrix_validate_moyal,
    moyal_structure_constant,
    spectral_norm,
    weyl_matrix,
)


class TestModeRule:
    def test_classical_limit_of_constant(self):
        # one unit of symplectic pairing: constant -> 1 as hbar -> 0
        for hbar in (0.5, 0.1, 0.01):
            c = moyal_structure_constant((1,), (0,), (0,), (1,), hbar)
            assert abs(c - 1.0) <= hbar ** 2 / 6

    def test_self_bracket_vanishes(self, rng):
        F = random_observable(rng, 2)
        assert not Backend(0.3).bracket(F, F)

    def test_deformation_defect_bound(self):
        # |s - (2/hbar) sin(hbar s / 2)| <= hbar^2 |s|^3 / 6
        for hbar in (0.5, 0.1, 0.01):
            for s in range(-8, 9):
                if s == 0:
                    continue
                deformed = 2.0 / hbar * math.sin(hbar * s / 2.0)
                assert abs(s - deformed) <= hbar ** 2 * abs(s) ** 3 / 6 + 1e-15

    def test_jacobi_identity(self, rng):
        moyal = Backend(0.4).bracket
        for _ in range(25):
            A = random_observable(rng, 2, n_modes=2)
            B = random_observable(rng, 2, n_modes=2)
            C = random_observable(rng, 2, n_modes=2)
            total = moyal(A, moyal(B, C)) + moyal(B, moyal(C, A)) + moyal(C, moyal(A, B))
            assert total.max_abs() <= 1e-12 * max(norm_rho(moyal(B, C), 0.1), 1.0)


class TestWeylMatrix:
    def test_pure_x_mode_is_shift_of_ones(self):
        W = weyl_matrix(Observable(1, {((1,), (0,)): 1.0}), cutoff=3, hbar=0.5)
        for n in range(-3, 3):
            assert W[(n + 1,), (n,)] == 1.0
        assert sum(1 for v in W.values() if v != 0) == 6

    def test_pure_xi_mode_is_diagonal_phase(self):
        # validated convention: exp(-i hbar n) on basis vector n
        W = weyl_matrix(Observable(1, {((0,), (1,)): 1.0}), cutoff=3, hbar=0.5)
        expected = [cmath.exp(-0.5j * n) for n in range(-3, 4)]
        assert np.allclose([W[(n,), (n,)] for n in range(-3, 4)], expected)
        assert sum(1 for v in W.values() if v != 0) == 7

    def test_real_symbol_gives_hermitian_matrix(self):
        R = Observable(
            1, {((1,), (2,)): 0.5 + 0.25j, ((-1,), (-2,)): 0.5 - 0.25j}, real=True
        )
        assert hermiticity_defect(dense(weyl_matrix(R, cutoff=4, hbar=0.3), 1, 4)) == 0.0

    def test_cutoff_too_small_raises(self):
        with pytest.raises(ValueError):
            weyl_matrix(Observable(1, {((3,), (0,)): 1.0}), cutoff=3, hbar=0.5)

    def test_operator_norm_dominated_by_symbol_norm(self, rng):
        for _ in range(10):
            B = random_observable(rng, 1, n_modes=4, kmax=2, mmax=2)
            W = weyl_matrix(B, cutoff=4, hbar=0.7)
            assert spectral_norm(dense(W, 1, 4)) <= norm_rho(B, 0.1) * (1 + 1e-12)

    def test_entry_follows_midpoint_rule(self):
        # mode (k, m) = (1, 1) maps basis vector n = 0 to row n + k = 1
        # with factor b exp(-i hbar m (n + k/2))
        W = weyl_matrix(Observable(1, {((1,), (1,)): 0.5j}), cutoff=2, hbar=0.3)
        expected = 0.5j * cmath.exp(-1j * 0.3 * 1 * (0 + 1 / 2))
        assert abs(W[(1,), (0,)] - expected) <= 1e-15


def _neg(v):
    return tuple(-a for a in v)


def _real_observable(rng, d, n_modes=3):
    coeffs = {}
    for _ in range(n_modes):
        k = tuple(rng.randint(-2, 2) for _ in range(d))
        m = tuple(rng.randint(-2, 2) for _ in range(d))
        c = complex(rng.uniform(-1, 1), 0.0 if not any(k + m) else rng.uniform(-1, 1))
        coeffs[(k, m)] = c
        coeffs[(_neg(k), _neg(m))] = c.conjugate()
    return Observable(d, coeffs, real=True)


def _dense_defect(obs, hbar):
    kmax = max(max(abs(c) for c in k) for k, _ in obs.coeffs)
    W = weyl_matrix(obs, cutoff=kmax + 1, hbar=hbar)
    return hermiticity_defect(dense(W, obs.d, kmax + 1))


def _mirror_sum_bound(obs):
    """``max_k sum_m |b(k,m) - conj b(-k,-m)|`` over the modes and their mirrors."""
    modes = set(obs.coeffs) | {(_neg(k), _neg(m)) for k, m in obs.coeffs}
    sums = {}
    for k, m in modes:
        mirror = obs.coeffs.get((_neg(k), _neg(m)), 0j)
        sums[k] = sums.get(k, 0.0) + abs(obs.coeffs.get((k, m), 0j) - mirror.conjugate())
    return max(sums.values())


class TestSymbolHermiticity:
    """The symbol-level reality defect against the dense Weyl-matrix
    Hermiticity defect it replaces in the CLI diagnostics."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_both_zero_on_real_symbols(self, rng, d):
        for hbar in (0.3, 1.0):
            for _ in range(5):
                R = _real_observable(rng, d)
                mass = sum(abs(c) for c in R.coeffs.values())
                assert R.reality_defect() == 0.0
                assert _dense_defect(R, hbar) <= 1e-14 * mass

    @pytest.mark.parametrize("d", [1, 2])
    def test_both_nonzero_without_mirror_modes(self, rng, d):
        for hbar in (0.3, 1.0):
            for _ in range(5):
                R = _real_observable(rng, d)
                # keep one mode of every mirror pair, drop the other
                half = {}
                for (k, m), c in R.items_sorted():
                    if (_neg(k), _neg(m)) not in half and any(k + m):
                        half[(k, m)] = c
                B = Observable(d, half)
                assert B.reality_defect() > 0.0
                assert _dense_defect(B, hbar) > 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_dense_defect_bounded_by_symbol_defects(self, rng, d):
        for hbar in (0.3, 1.0):
            for _ in range(10):
                B = random_observable(rng, d, n_modes=4)
                assert _dense_defect(B, hbar) <= _mirror_sum_bound(B) * (1 + 1e-12)
                assert B.reality_defect() <= _mirror_sum_bound(B)


class TestHbarCheck:
    F = Observable(1, {((1,), (0,)): 1.0})
    G = Observable(1, {((0,), (1,)): 1.0})

    @pytest.mark.parametrize(
        "hbar", [float("nan"), float("inf"), float("-inf"), 0.0, 0, -0.1, True, "0.1"]
    )
    def test_moyal_bracket_refuses(self, hbar):
        with pytest.raises(ValueError, match="finite and positive"):
            Backend(hbar)

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf")])
    def test_backend_and_weyl_matrix_refuse(self, hbar):
        with pytest.raises(ValueError, match="finite and positive"):
            Backend(hbar)
        with pytest.raises(ValueError, match="finite and positive"):
            weyl_matrix(self.F, cutoff=2, hbar=hbar)
        # refused before the interior is sized: cutoff -1 leaves none
        with pytest.raises(ValueError, match="finite and positive"):
            validate_moyal(self.F, self.G, cutoff=-1, hbar=hbar)


class TestMoyalWeylConsistency:
    def test_moyal_matches_weyl_commutator(self):
        # the identity that pins both the quantization phase sign and
        # the half-angle structure constant
        F = Observable(1, {((1,), (0,)): 1.0})
        G = Observable(1, {((0,), (1,)): 1.0})
        rep = validate_moyal(F, G, cutoff=8, hbar=0.5)
        assert rep.max_deviation <= 1e-12

    def test_random_pairs_d2(self, rng):
        for _ in range(5):
            F = random_observable(rng, 2, n_modes=3, kmax=1, mmax=2)
            G = random_observable(rng, 2, n_modes=3, kmax=1, mmax=2)
            rep = validate_moyal(F, G, cutoff=6, hbar=0.3)
            assert rep.max_deviation <= 1e-10

    def test_random_pairs_d3(self, rng):
        # (2 * 8 + 1)^3 = 4913 basis vectors: sparse entries only
        for _ in range(2):
            F = random_observable(rng, 3, n_modes=3)
            G = random_observable(rng, 3, n_modes=3)
            rep = validate_moyal(F, G, cutoff=8, hbar=0.3, tol=1e-10)
            assert rep.ok, rep

    def test_identical_inputs_both_sides_zero(self):
        F = Observable(1, {((1,), (1,)): 1.0})
        rep = validate_moyal(F, F, cutoff=6, hbar=0.5)
        assert rep.max_deviation <= 1e-14

    def test_single_interior_column(self):
        # margin 2 at cutoff 2: the bracket's modes reach |k| = 2, the
        # box edge, where the matrix oracle refuses
        F = Observable(1, {((1,), (0,)): 1.0, ((-1,), (1,)): 0.5})
        G = Observable(1, {((-1,), (1,)): 1.0, ((1,), (2,)): 0.3j})
        rep = validate_moyal(F, G, cutoff=2, hbar=0.5)
        assert (rep.interior_margin, rep.interior_count) == (2, 1)
        assert rep.max_deviation <= 1e-12
        with pytest.raises(ValueError, match="too small"):
            matrix_validate_moyal(F, G, cutoff=2, hbar=0.5)
        with pytest.raises(ValueError, match="no interior"):
            validate_moyal(F, G, cutoff=1, hbar=0.5)


@st.composite
def symbols(draw, d):
    """A symbol with one to three x-modes ``k``, each carrying one to
    four xi-modes ``m``, so that several modes share a row shift."""
    vec = lambda bound: st.tuples(*[st.integers(-bound, bound)] * d)
    coeff = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    ks = draw(st.lists(vec(2 if d < 3 else 1), min_size=1, max_size=3, unique=True))
    return Observable(d, {
        (k, m): c for k in ks
        for m, c in draw(st.dictionaries(vec(2), coeff, min_size=1, max_size=4)).items()
    })


HBARS = st.sampled_from([0.05, 0.3, 0.5, 1.0])


class TestWeylOperatorAgainstMatrixOracle:
    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(symbols(d), HBARS, st.integers(1, 2))))
    def test_columns_equal_oracle_columns(self, case):
        F, hbar, extra = case
        cutoff = _kmax(F) + extra
        columns = {}
        for (row, col), entry in weyl_matrix(F, cutoff, hbar).items():
            columns.setdefault(col, {})[row] = entry
        op = weyl_operator(F, hbar)
        for n in itertools.product(range(-cutoff, cutoff + 1), repeat=F.d):
            image = op({n: 1.0})
            assert {row: v for row, v in image.items() if _inside(row, cutoff)} == columns.get(n, {})

    @settings(max_examples=40)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(symbols(d), symbols(d), HBARS, st.integers(1, 2))))
    def test_validate_moyal_equals_matrix_oracle(self, case):
        F, G, hbar, extra = case
        cutoff = _kmax(F) + _kmax(G) + extra
        new = validate_moyal(F, G, cutoff, hbar)
        old = matrix_validate_moyal(F, G, cutoff, hbar)
        assert (new.max_deviation, new.interior_margin, new.interior_count) == (
            old.max_deviation, old.interior_margin, old.interior_count)


class TestSemiclassicalDefect:
    def test_nested_bracket_defect_bound(self, rng):
        # nested quantum-minus-classical bracket against the explicit
        # hbar^2/6 constant, depths 2 and 3
        rho, rho_p = 1.0, 0.5
        for depth in (2, 3):
            for _ in range(20):
                hbar = rng.choice([0.5, 0.1])
                mods = [random_observable(rng, 1, n_modes=2, kmax=1, mmax=1) for _ in range(depth)]
                classical = mods[0]
                quantum = mods[0]
                for nxt in mods[1:]:
                    classical = Backend().bracket(nxt, classical)
                    quantum = Backend(hbar).bracket(nxt, quantum)
                defect = norm_rho(quantum - classical, rho_p) if (quantum - classical) else 0.0
                bound = hbar ** 2 / 6 * ((depth + 2) / (math.e * (rho - rho_p))) ** (depth + 2)
                for mod in mods:
                    bound *= norm_rho(mod, rho)
                assert defect <= bound * (1 + 1e-12)


class TestBackendAxioms:
    def test_bracket_norm_axiom_quantum(self, rng):
        hbar = 0.3
        for _ in range(100):
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
            rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
            F = random_observable(rng, 2, n_modes=4)
            G = random_observable(rng, 2, n_modes=4)
            lhs = norm_rho(Backend(hbar).bracket(F, G), rho_p)
            rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
                math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
            )
            assert lhs <= rhs * (1 + 1e-12)
