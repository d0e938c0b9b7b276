import math

import pytest

from mouldnf import (
    ClassicalBackend,
    Frequency,
    Observable,
    OutOfDomainError,
    QuantumBackend,
    ScaleParams,
    normalize,
)
from mouldnf.liealg import apply_exp_ad, chi, contract, default_exp_order, order_increment
from mouldnf.mould import from_table, ident_mould, nabla
from mouldnf.observables import slices
from mouldnf.solver import MouldSolver

from oracles import comould, evaluate, hamiltonian_flow, mbracket, two_chain_exp_ad, zero_mould


class CountingBackend(ClassicalBackend):
    """Classical backend that counts its bracket calls."""

    calls = 0

    def bracket(self, F, G):
        self.calls += 1
        return super().bracket(F, G)


class TestComould:
    def test_single_letter_is_slice(self, toy_B, classical_backend):
        parts = slices(toy_B)
        k = (1, 0)
        out = comould((k,), parts, classical_backend)
        assert out.coeffs == parts[k].coeffs

    def test_two_letters_bracket_order(self, toy_B, classical_backend):
        parts = slices(toy_B)
        k1, k2 = (1, 0), (-1, 0)
        out = comould((k1, k2), parts, classical_backend)
        expected = classical_backend.bracket(parts[k2], parts[k1])
        assert out.coeffs == expected.coeffs

    def test_repeated_letter_single_mode_vanishes(self, toy_B, classical_backend):
        parts = slices(toy_B)
        assert not comould(((1, 0), (1, 0)), parts, classical_backend)

    def test_empty_word_is_zero(self, toy_B, classical_backend):
        assert not comould((), slices(toy_B), classical_backend)


class TestContract:
    def test_ident_mould_reassembles_B(self, toy_B, classical_backend):
        out = contract(ident_mould(), toy_B, 3, classical_backend)
        assert out.coeffs == pytest.approx(toy_B.coeffs)

    def test_zero_mould_gives_zero(self, toy_B, classical_backend):
        assert not contract(zero_mould(), toy_B, 3, classical_backend)

    def test_order2_on_two_mode_toy_matches_hand_value(self, golden_freq):
        # modes on k and -k with non-conjugate m content so the pair
        # bracket survives; the only resonant 2-words are (k,-k) and
        # (-k,k), with coefficient mould values -1/lambda and +1/lambda.
        backend = ClassicalBackend(golden_freq)
        B = Observable(2, {((1, 0), (1, 1)): 0.02, ((-1, 0), (1, 0)): 0.03})
        parts = slices(B)
        lam = 1j
        solver = MouldSolver(golden_freq)
        Z2 = order_increment(solver.F_mould, B, 2, backend)
        expected = (-1 / lam) * backend.bracket(parts[(-1, 0)], parts[(1, 0)])
        assert Z2.coeffs == pytest.approx(expected.coeffs)

    def test_deterministic_accumulation(self, toy_B, golden_freq, classical_backend):
        solver = MouldSolver(golden_freq)
        a = contract(solver.F_mould, toy_B, 3, classical_backend)
        b = contract(MouldSolver(golden_freq).F_mould, toy_B, 3, classical_backend)
        assert a.coeffs == b.coeffs


class TestMouldComouldIdentities:
    def _alternal_pair(self):
        x, y = (1, 0), (-1, 0)
        M = from_table(
            {
                (x,): 0.7 + 0.1j,
                (y,): -0.3 + 0.2j,
                (x, y): 0.25j,
                (y, x): -0.25j,
            }
        )
        N = from_table(
            {
                (x,): -0.4 + 0.5j,
                (y,): 0.9j,
                (x, y): 0.1 + 0.05j,
                (y, x): -0.1 - 0.05j,
            }
        )
        return M, N

    def test_bracket_contraction_identity(self, toy_B, classical_backend):
        # contractions of alternal moulds are Lie elements: the mould
        # commutator contracts to the swapped bracket of contractions
        M, N = self._alternal_pair()
        Bs = Observable(2, {km: c for km, c in toy_B.coeffs.items() if km[0] in ((1, 0), (-1, 0))})
        lhs = contract(mbracket(M, N), Bs, 4, classical_backend)
        rhs = classical_backend.bracket(
            contract(N, Bs, 2, classical_backend), contract(M, Bs, 2, classical_backend)
        )
        diff = lhs - rhs
        assert diff.max_abs() <= 1e-9 * max(lhs.max_abs(), 1e-30)

    def test_x0_contraction_identity(self, toy_B, golden_freq, classical_backend):
        M, N = self._alternal_pair()
        Bs = Observable(2, {km: c for km, c in toy_B.coeffs.items() if km[0] in ((1, 0), (-1, 0))})
        lhs = classical_backend.ad_x0(contract(M, Bs, 2, classical_backend))
        rhs = contract(nabla(M, golden_freq), Bs, 2, classical_backend)
        diff = lhs - rhs
        assert diff.max_abs() <= 1e-12 * max(lhs.max_abs(), 1e-30)


class TestApplyExpAd:
    def test_order_zero_returns_input(self, toy_B, scale_params, classical_backend):
        out, tail, ratio = apply_exp_ad(0.0001 * toy_B, toy_B, 0, scale_params, classical_backend)
        assert out.coeffs == toy_B.coeffs
        assert tail > 0.0

    def test_one_bracket_per_order(self, toy_B, golden_freq, scale_params):
        backend = CountingBackend(golden_freq)
        Y = 0.01 * toy_B
        for order in range(6):
            backend.calls = 0
            apply_exp_ad(Y, toy_B, order, scale_params, backend)
            assert backend.calls == order
        # out of the domain: refused before any bracket is taken
        backend.calls = 0
        with pytest.raises(OutOfDomainError):
            apply_exp_ad(1e4 * toy_B, toy_B, 6, scale_params, backend)
        assert backend.calls == 0

    @pytest.mark.parametrize("hbar", [None, 0.1])
    def test_fused_chain_matches_two_chains(self, toy_B, golden_freq, scale_params, hbar):
        backend = ClassicalBackend(golden_freq) if hbar is None else QuantumBackend(golden_freq, hbar)
        Y = contract(MouldSolver(golden_freq).G_mould, toy_B, 3, backend)
        order = default_exp_order(3)
        fused, _, _ = apply_exp_ad(Y, toy_B, order, scale_params, backend)
        reference = two_chain_exp_ad(Y, toy_B, order, backend)
        assert (fused - reference).max_abs() <= 1e-13 * reference.max_abs()

    def test_single_mode_generator_on_x0(self, golden_freq, scale_params):
        backend = ClassicalBackend(golden_freq)
        Y = Observable(2, {((1, 0), (0, 1)): 0.001})
        out, _, _ = apply_exp_ad(Y, Observable.zero(2), 10, scale_params, backend)
        lam = complex(golden_freq.eigenvalue((1, 0)))
        expected = -lam * Y
        assert out.coeffs == pytest.approx(expected.coeffs)

    def test_out_of_domain_raises_with_ratio(self, golden_freq, scale_params):
        backend = ClassicalBackend(golden_freq)
        Y = Observable(2, {((1, 0), (0, 1)): 10.0})
        with pytest.raises(OutOfDomainError) as err:
            apply_exp_ad(Y, Y, 4, scale_params, backend)
        assert err.value.ratio >= 1.0

    def test_matches_hamiltonian_flow_oracle(self, rng):
        # independent check of the whole Lie-series machinery against
        # RK4 integration of the generator's Hamiltonian flow: the series
        # is (x0 + X) after the flow minus x0 before it, x0 = xi here
        freq = Frequency((1.0,))
        params = ScaleParams(1.0, 0.5)
        backend = ClassicalBackend(freq)
        y = {((1,), (1,)): 0.0004 + 0.0002j, ((2,), (-1,)): 0.0003 - 0.0001j}
        y[((-1,), (-1,))] = y[((1,), (1,))].conjugate()
        y[((-2,), (1,))] = y[((2,), (-1,))].conjugate()
        Y = Observable(1, y, real=True)
        X = Observable(
            1,
            {((1,), (0,)): 0.5, ((-1,), (0,)): 0.5, ((0,), (1,)): 0.3, ((0,), (-1,)): 0.3},
            real=True,
        )
        series, _, _ = apply_exp_ad(Y, X, 24, params, backend)
        for _ in range(4):
            x0 = [rng.uniform(0, 2 * math.pi)]
            xi0 = [rng.uniform(-1, 1)]
            xf, xif = hamiltonian_flow(Y, x0, xi0)
            expected = evaluate(X, xf, xif) + xif[0] - xi0[0]
            assert abs(evaluate(series, x0, xi0) - expected) <= 1e-6


class TestNormalize:
    def test_zero_perturbation(self, golden_freq, scale_params, classical_backend):
        res = normalize(Observable.zero(2), 2, scale_params, golden_freq, classical_backend)
        assert not res.Z and not res.Y and not res.E
        assert res.norms["Z"] == res.norms["Y"] == res.norms["E"] == 0.0

    def test_resonant_only_perturbation(self, golden_freq, scale_params, classical_backend):
        B = Observable(2, {((0, 0), (1, 0)): 0.004, ((0, 0), (2, 1)): 0.002})
        res = normalize(B, 1, scale_params, golden_freq, classical_backend)
        assert res.Z.coeffs == pytest.approx(B.coeffs)
        assert not res.Y

    def test_normal_form_supported_on_lattice(self, toy_B, golden_freq, scale_params, classical_backend):
        for N in (1, 2, 3):
            res = normalize(toy_B, N, scale_params, golden_freq, classical_backend)
            assert all(k == (0, 0) for k, _ in res.Z.coeffs)
            assert res.commutation_residual == 0.0

    def test_normal_form_on_declared_lattice(self, rational_freq_float, scale_params):
        # two non-resonant letters whose sum lies on the resonance
        # lattice: the order-2 normal form lives at k = (2,-1)
        backend = ClassicalBackend(rational_freq_float)
        B = Observable(2, {((1, 0), (0, 1)): 0.0002, ((1, -1), (1, 0)): 0.0003})
        res = normalize(B, 2, scale_params, rational_freq_float, backend)
        assert res.Z
        assert all(rational_freq_float.in_lattice(k) for k, _ in res.Z.coeffs)
        assert (2, -1) in {k for k, _ in res.Z.coeffs}
        assert res.commutation_residual == 0.0

    def test_exp_tail_far_below_remainder(self, toy_B, golden_freq, scale_params, classical_backend):
        res = normalize(toy_B, 2, scale_params, golden_freq, classical_backend)
        assert res.exp_tail_bound <= 1e-3 * res.norms["E"]

    def test_quantum_backend_runs(self, toy_B, golden_freq, scale_params):
        res = normalize(toy_B, 2, scale_params, golden_freq, QuantumBackend(golden_freq, 0.1))
        assert all(k == (0, 0) for k, _ in res.Z.coeffs)
        assert res.norms["E"] > 0.0

    def test_determinism_bitwise(self, toy_B, golden_freq, scale_params, classical_backend):
        a = normalize(toy_B, 2, scale_params, golden_freq, classical_backend)
        b = normalize(toy_B, 2, scale_params, golden_freq, classical_backend)
        assert a.Z.coeffs == b.Z.coeffs
        assert a.E.coeffs == b.E.coeffs
        assert a.norms == b.norms


class TestScaleParams:
    def test_radius_ordering_enforced(self):
        with pytest.raises(ValueError):
            ScaleParams(0.5, 1.0)

    def test_default_chi(self):
        assert chi(0.5) == pytest.approx(1.0 / (math.e * 0.5))
