import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldnf import Backend, Frequency, Observable, OutOfDomainError, ScaleParams, normalize
from mouldnf import liealg
from mouldnf.classical import code_bracket
from mouldnf.liealg import ad_x0, apply_exp_ad, chi, contract, default_exp_order
from mouldnf.observables import norm_rho, slices
from mouldnf.solver import MouldSolver

from conftest import PHI, TOY_MODES, observable_strategy
from oracles import (
    comould,
    evaluate,
    hamiltonian_flow,
    ident_mould,
    mbracket,
    nabla,
    table_mould,
    tuple_contract_range,
    tuple_exp_ad,
    two_chain_exp_ad,
    zero_mould,
)


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
        out = tuple_contract_range(ident_mould(), toy_B, 1, 3, classical_backend)
        assert out.coeffs == pytest.approx(toy_B.coeffs)

    def test_zero_mould_gives_zero(self, toy_B, classical_backend):
        assert not tuple_contract_range(zero_mould(), toy_B, 1, 3, classical_backend)

    def test_order2_on_two_mode_toy_matches_hand_value(self, golden_freq):
        # modes on k and -k with non-conjugate m content so the pair
        # bracket survives; the only resonant 2-words are (k,-k) and
        # (-k,k), with coefficient mould values -1/lambda and +1/lambda.
        backend = Backend()
        B = Observable(2, {((1, 0), (1, 1)): 0.02, ((-1, 0), (1, 0)): 0.03})
        parts = slices(B)
        lam = 1j
        Z2, _ = contract(MouldSolver(golden_freq), B, 2, backend, r_min=2)
        expected = (-1 / lam) * backend.bracket(parts[(-1, 0)], parts[(1, 0)])
        assert Z2.coeffs == pytest.approx(expected.coeffs)

    def test_deterministic_accumulation(self, toy_B, golden_freq, classical_backend):
        a = contract(MouldSolver(golden_freq), toy_B, 3, classical_backend)
        b = contract(MouldSolver(golden_freq), toy_B, 3, classical_backend)
        assert [x.coeffs for x in a] == [x.coeffs for x in b]


class TestMouldComouldIdentities:
    def _alternal_pair(self):
        x, y = (1, 0), (-1, 0)
        M = table_mould(
            {
                (x,): 0.7 + 0.1j,
                (y,): -0.3 + 0.2j,
                (x, y): 0.25j,
                (y, x): -0.25j,
            },
            0,
        )
        N = table_mould(
            {
                (x,): -0.4 + 0.5j,
                (y,): 0.9j,
                (x, y): 0.1 + 0.05j,
                (y, x): -0.1 - 0.05j,
            },
            0,
        )
        return M, N

    def test_bracket_contraction_identity(self, toy_B, classical_backend):
        # contractions of alternal moulds are Lie elements: the mould
        # commutator contracts to the swapped bracket of contractions
        M, N = self._alternal_pair()
        Bs = Observable(2, {km: c for km, c in toy_B.coeffs.items() if km[0] in ((1, 0), (-1, 0))})
        lhs = tuple_contract_range(mbracket(M, N), Bs, 1, 4, classical_backend)
        rhs = classical_backend.bracket(
            *(tuple_contract_range(X, Bs, 1, 2, classical_backend) for X in (N, M))
        )
        diff = lhs - rhs
        assert diff.max_abs() <= 1e-9 * max(lhs.max_abs(), 1e-30)

    def test_x0_contraction_identity(self, toy_B, golden_freq, classical_backend):
        M, N = self._alternal_pair()
        Bs = Observable(2, {km: c for km, c in toy_B.coeffs.items() if km[0] in ((1, 0), (-1, 0))})
        lhs = ad_x0(golden_freq, tuple_contract_range(M, Bs, 1, 2, classical_backend))
        rhs = tuple_contract_range(nabla(M, golden_freq), Bs, 1, 2, classical_backend)
        diff = lhs - rhs
        assert diff.max_abs() <= 1e-12 * max(lhs.max_abs(), 1e-30)


class TestApplyExpAd:
    def test_order_zero_returns_input(self, toy_B, golden_freq, scale_params, classical_backend):
        out, tail, ratio = apply_exp_ad(
            0.0001 * toy_B, toy_B, 0, scale_params, golden_freq, classical_backend
        )
        assert out.coeffs == toy_B.coeffs
        assert tail > 0.0

    def test_one_bracket_per_order(self, toy_B, golden_freq, scale_params, monkeypatch):
        # the chain calls the code kernel by its name in liealg
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return code_bracket(*args, **kwargs)

        monkeypatch.setattr(liealg, "code_bracket", counting)
        backend = Backend()
        Y = 0.01 * toy_B
        for order in range(6):
            calls.clear()
            apply_exp_ad(Y, toy_B, order, scale_params, golden_freq, backend)
            assert len(calls) == order
        # out of the domain: refused before any bracket is taken
        calls.clear()
        with pytest.raises(OutOfDomainError):
            apply_exp_ad(1e4 * toy_B, toy_B, 6, scale_params, golden_freq, backend)
        assert calls == []

    @pytest.mark.parametrize("hbar", [None, 0.1])
    def test_fused_chain_matches_two_chains(self, toy_B, golden_freq, scale_params, hbar):
        backend = Backend(hbar)
        _, Y = contract(MouldSolver(golden_freq), toy_B, 3, backend)
        order = default_exp_order(3)
        fused, _, _ = apply_exp_ad(Y, toy_B, order, scale_params, golden_freq, backend)
        reference = two_chain_exp_ad(Y, toy_B, order, golden_freq, backend)
        assert (fused - reference).max_abs() <= 1e-13 * reference.max_abs()

    def test_single_mode_generator_on_x0(self, golden_freq, scale_params):
        backend = Backend()
        Y = Observable(2, {((1, 0), (0, 1)): 0.001})
        out, _, _ = apply_exp_ad(Y, Observable.zero(2), 10, scale_params, golden_freq, backend)
        lam = complex(golden_freq.eigenvalue((1, 0)))
        expected = -lam * Y
        assert out.coeffs == pytest.approx(expected.coeffs)

    def test_out_of_domain_raises_with_ratio(self, golden_freq, scale_params):
        backend = Backend()
        Y = Observable(2, {((1, 0), (0, 1)): 10.0})
        with pytest.raises(OutOfDomainError) as err:
            apply_exp_ad(Y, Y, 4, scale_params, golden_freq, backend)
        assert err.value.ratio >= 1.0

    def test_matches_hamiltonian_flow_oracle(self, rng):
        # independent check of the whole Lie-series machinery against
        # RK4 integration of the generator's Hamiltonian flow: the series
        # is (x0 + X) after the flow minus x0 before it, x0 = xi here
        freq = Frequency((1.0,))
        params = ScaleParams(1.0, 0.5)
        backend = Backend()
        y = {((1,), (1,)): 0.0004 + 0.0002j, ((2,), (-1,)): 0.0003 - 0.0001j}
        y[((-1,), (-1,))] = y[((1,), (1,))].conjugate()
        y[((-2,), (1,))] = y[((2,), (-1,))].conjugate()
        Y = Observable(1, y, real=True)
        X = Observable(
            1,
            {((1,), (0,)): 0.5, ((-1,), (0,)): 0.5, ((0,), (1,)): 0.3, ((0,), (-1,)): 0.3},
            real=True,
        )
        series, _, _ = apply_exp_ad(Y, X, 24, params, freq, backend)
        for _ in range(4):
            x0 = [rng.uniform(0, 2 * math.pi)]
            xi0 = [rng.uniform(-1, 1)]
            xf, xif = hamiltonian_flow(Y, x0, xi0)
            expected = evaluate(X, xf, xif) + xif[0] - xi0[0]
            assert abs(evaluate(series, x0, xi0) - expected) <= 1e-6


def _outcome(walk, *args):
    """What a walker gives: its results with every observable as the
    repr of its items in order and its reality flag, or the error."""
    try:
        result = walk(*args)
    except ValueError as err:
        return "ValueError", str(err)
    parts = result if isinstance(result, (tuple, list)) else (result,)
    return [
        (repr(list(part.coeffs.items())), part.real) if isinstance(part, Observable) else part
        for part in parts
    ]


def _realified(obs):
    """``obs`` plus its conjugate mirror, flagged real."""
    data = {}
    for (k, m) in obs.coeffs:
        mirror = (tuple(-a for a in k), tuple(-a for a in m))
        data[(k, m)] = obs.coeffs[(k, m)] + obs.coeffs.get(mirror, 0j).conjugate()
        data[mirror] = data[(k, m)].conjugate()
    return Observable(obs.d, data, real=True)


GOLDEN = Frequency((1.0, PHI), dioph_tau=1.0)
# None is the classical backend; a float is the quantum backend's hbar
HBARS = st.one_of(st.none(), st.floats(0.01, 2.0))
OPERANDS = st.one_of(
    st.just(Observable(2, {})),
    observable_strategy(2, 4),
    observable_strategy(2, 4).map(_realified),
)
TOY = Observable(2, TOY_MODES)
# the toy_B fixture: the B of configs/toy_normalize.json
TOY_B = (0.01 / norm_rho(TOY, 1.0)) * TOY


class TestWalkersOnCodes:
    """The walkers on mode codes against their tuple-keyed forms on the
    backend's bracket: the same modes in the same order, the same
    floats, signs of zero and reality flags, the same tails."""

    @settings(max_examples=60)
    @given(OPERANDS, OPERANDS, st.integers(0, 12), HBARS, st.booleans())
    @example(Observable(2, {}), Observable(2, {}), 12, None, False)
    @example(Observable(2, {((1, 0), (0, 1)): 1.0}), Observable(2, {}), 12, 0.1, False)
    @example(Observable(2, {((1, 0), (0, 1)): 1.0}), Observable(2, {}), 12, None, True)
    @example(_realified(TOY), _realified(TOY), 12, None, False)
    @example(TOY, TOY, 12, 0.1, True)
    def test_exp_chain_matches_tuple_chain(self, Y, X, order, hbar, same):
        params = ScaleParams(1.0, 0.5)
        # ||Y|| at 0.4 delta^2 keeps the chain inside its domain
        norm = norm_rho(Y, params.rho)
        if norm:
            Y = (0.4 * params.delta ** 2 / norm) * Y
        if same:
            X = Y
        backend = Backend(hbar)
        fast = _outcome(apply_exp_ad, Y, X, order, params, GOLDEN, backend)
        assert fast == _outcome(tuple_exp_ad, Y, X, order, params, GOLDEN, backend)

    @settings(max_examples=60)
    @given(
        B=OPERANDS,
        r_range=st.integers(1, 3).flatmap(lambda r: st.tuples(st.integers(0, r), st.just(r))),
        hbar=HBARS,
    )
    @example(B=TOY, r_range=(1, 3), hbar=None)
    @example(B=TOY, r_range=(1, 3), hbar=0.1)
    @example(B=_realified(TOY), r_range=(3, 3), hbar=None)
    # each mould keeps its own pruning scale: on this operand one scale
    # shared by G and F changes the sums
    @example(B=_realified(TOY), r_range=(1, 3), hbar=None)
    @example(B=TOY, r_range=(2, 3), hbar=0.1)
    # the empty word, the walk's root, has no term
    @example(B=TOY, r_range=(0, 2), hbar=None)
    # a stratum keeps its own pruning scale: on this operand the length-6
    # part of a 1..6 walk differs from the walk of length 6 alone
    @example(B=TOY_B, r_range=(6, 6), hbar=None)
    def test_contraction_matches_tuple_walk(self, golden_freq, golden_solver, B, r_range, hbar):
        # one trie walk gives each of F and G the walk of its mould alone
        r_min, r_max = r_range
        backend = Backend(hbar)
        fast = _outcome(contract, MouldSolver(golden_freq), B, r_max, backend, r_min)
        assert fast == _outcome(lambda: [
            tuple_contract_range(M, B, r_min, r_max, backend)
            for M in (golden_solver.F_mould, golden_solver.G_mould)
        ])


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
        backend = Backend()
        B = Observable(2, {((1, 0), (0, 1)): 0.0002, ((1, -1), (1, 0)): 0.0003})
        res = normalize(B, 2, scale_params, rational_freq_float, backend)
        assert res.Z
        assert all(rational_freq_float.divisors[k] is None for k, _ in res.Z.coeffs)
        assert (2, -1) in {k for k, _ in res.Z.coeffs}
        assert res.commutation_residual == 0.0

    def test_exp_tail_far_below_remainder(self, toy_B, golden_freq, scale_params, classical_backend):
        res = normalize(toy_B, 2, scale_params, golden_freq, classical_backend)
        assert res.exp_tail_bound <= 1e-3 * res.norms["E"]

    def test_quantum_backend_runs(self, toy_B, golden_freq, scale_params):
        res = normalize(toy_B, 2, scale_params, golden_freq, Backend(0.1))
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
