import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldnf import Observable
from mouldnf.alphabet import diophantine_alpha
from mouldnf.classical import mode_bracket
from mouldnf.estimates import default_eta
from mouldnf.observables import from_json_dict, norm_rho, slices, to_json_dict

from conftest import observable_strategy, random_observable
from oracles import evaluate, homogeneous_parts, norm_rho_stripped, prune_at, weighted_tuple_sum


def roundtrip(B):
    """``B`` through its JSON text and back."""
    return from_json_dict(json.loads(json.dumps(to_json_dict(B), sort_keys=True)))


class TestNorm:
    def test_single_mode_value(self):
        G = Observable(1, {((1,), (0,)): 2.0})
        assert norm_rho(G, 0.5) == pytest.approx(2 * math.e)

    def test_zero(self):
        assert norm_rho(Observable.zero(2), 1.0) == 0.0

    def test_monotone_in_rho(self, rng):
        G = random_observable(rng, 2)
        assert norm_rho(G, 0.4) <= norm_rho(G, 0.9)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            norm_rho(Observable.zero(1), 0.0)

    def test_stripped_weight_smaller(self, rng):
        G = random_observable(rng, 2)
        assert norm_rho_stripped(G, 1.0) <= norm_rho(G, 1.0)


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        A = Observable(1, {((1,), (0,)): 1.0})
        assert not (A - A)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Observable(1, {((1,), (0,)): 1.0}) + Observable(2, {((1, 0), (0, 0)): 1.0})

    def test_construction_prunes_relative_dust(self):
        G = Observable(1, {((1,), (0,)): 1.0, ((2,), (0,)): 1e-18})
        assert ((2,), (0,)) not in G.coeffs

    def test_reality_flag_validated(self):
        Observable(1, {((1,), (2,)): 1 + 1j, ((-1,), (-2,)): 1 - 1j}, real=True)
        with pytest.raises(ValueError):
            Observable(1, {((1,), (2,)): 1 + 1j}, real=True)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match=r"mode \(\(1,\),\(0,\)\) is not finite"):
            Observable(1, {((1,), (0,)): bad})

    def test_from_json_dict_rejects_non_finite(self):
        data = {"d": 1, "coeffs": [{"k": [1], "m": [0], "re": math.nan, "im": 0.0}]}
        with pytest.raises(ValueError, match=r"mode \(\(1,\),\(0,\)\) is not finite"):
            from_json_dict(data)

    @settings(max_examples=60)
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.tuples(observable_strategy(d), observable_strategy(d))
        ),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    @example((Observable(1, {((1,), (0,)): 1j}), Observable(1, {((0,), (1,)): -1.0})), -1.0)
    def test_results_stored_as_public_constructor_stores_them(self, pair, scalar):
        # no zero and no negative-zero part survives in sums, scalar
        # multiples, pruned copies and brackets
        F, G = pair
        for result in (F + G, F - G, scalar * F, prune_at(F + G, 1e-3), mode_bracket(F, G)):
            public = Observable(result.d, result.coeffs, real=result.real, _prune=False)
            assert repr(list(result.coeffs.items())) == repr(list(public.coeffs.items()))

    def test_scalar_multiply_keeps_reality_for_real_scalars(self):
        G = Observable(1, {((1,), (0,)): 1.0, ((-1,), (0,)): 1.0}, real=True)
        assert (2.0 * G).real
        assert not ((1j) * G).real


class TestDecompositions:
    def test_single_mode_single_class(self, golden_freq):
        B = Observable(2, {((1, 0), (0, 0)): 1.0})
        parts = homogeneous_parts(B, golden_freq)
        assert list(parts) == [(1, 0)]

    def test_opposite_modes_two_classes(self, golden_freq):
        B = Observable(2, {((1, 0), (0, 0)): 1.0, ((-1, 0), (0, 0)): 1.0})
        assert len(homogeneous_parts(B, golden_freq)) == 2

    def test_lattice_members_share_class(self, rational_freq_float):
        B = Observable(2, {((2, -1), (0, 0)): 1.0, ((4, -2), (1, 0)): 1.0})
        parts = homogeneous_parts(B, rational_freq_float)
        assert len(parts) == 1
        assert list(parts) == [(0, 0)]

    def test_reassembly_is_bitwise(self, rng, golden_freq):
        B = random_observable(rng, 2, n_modes=8)
        parts = homogeneous_parts(B, golden_freq)
        total = Observable.zero(2)
        for part in parts.values():
            total = total + part
        assert total.coeffs == B.coeffs

    def test_slices_group_by_exact_k(self, toy_B):
        parts = slices(toy_B)
        assert set(parts) == {k for k, _ in toy_B.coeffs}
        for k, part in parts.items():
            assert all(km[0] == k for km in part.coeffs)


class TestWeightedTupleSum:
    def test_single_class_closed_form(self, golden_freq):
        B = Observable(2, {((1, 0), (0, 1)): 0.25})
        eta, tau, rho = 0.3, 1.0, 1.0
        expected = norm_rho(B, rho) * math.exp(eta * 1.0)  # |lambda| = 1
        assert weighted_tuple_sum(B, 1, eta, tau, golden_freq, rho) == pytest.approx(expected)

    def test_zero_observable(self, golden_freq):
        assert weighted_tuple_sum(Observable.zero(2), 2, 0.3, 1.0, golden_freq, 1.0) == 0.0

    def test_norm_power_bound_with_geometric_eta(self, toy_B, golden_freq):
        alpha = diophantine_alpha(golden_freq, 5)
        nb = norm_rho(toy_B, 1.0)
        for r in (1, 2, 3):
            eta_r = default_eta(1.0, alpha, 1.0, r)
            er = weighted_tuple_sum(toy_B, r, eta_r, 1.0, golden_freq, 1.0, strip_letter_weight=True)
            assert er <= nb ** r * (1 + 1e-12)


class TestJson:
    def test_roundtrip(self, rng):
        B = random_observable(rng, 2)
        assert roundtrip(B).coeffs == B.coeffs

    def test_schema_fields(self):
        B = Observable(1, {((1,), (-2,)): 0.5 + 0.25j})
        data = to_json_dict(B)
        assert data["d"] == 1
        assert data["coeffs"] == [{"k": [1], "m": [-2], "re": 0.5, "im": 0.25}]

    def test_real_flag_persisted(self):
        B = Observable(1, {((1,), (0,)): 1.0, ((-1,), (0,)): 1.0}, real=True)
        assert roundtrip(B).real

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"d": 1, "coeffs": [], "extra": 1})

    def test_serialization_deterministic(self, rng):
        B = random_observable(rng, 2, n_modes=6)
        shuffled = Observable(B.d, dict(reversed(list(B.coeffs.items()))))
        assert json.dumps(to_json_dict(B), sort_keys=True) == json.dumps(
            to_json_dict(shuffled), sort_keys=True
        )


class TestEvaluate:
    def test_plane_wave_value(self):
        B = Observable(1, {((1,), (0,)): 1.0})
        x, xi = [0.3], [0.0]
        assert evaluate(B, x, xi) == pytest.approx(complex(math.cos(0.3), math.sin(0.3)))
