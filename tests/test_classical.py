import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldnf import ClassicalBackend, Observable
from mouldnf.classical import mode_bracket, poisson_bracket
from mouldnf.observables import norm_rho
from mouldnf.quantum import moyal_bracket, sine_coupling

from conftest import observable_strategy, random_observable
from oracles import (
    evaluate,
    mode_bracket_double_loop,
    numeric_poisson,
    poisson_structure_constant,
)

PHI = (1 + 5 ** 0.5) / 2


class TestModeRule:
    def test_canonical_pair_coefficient(self):
        F = Observable(1, {((1,), (0,)): 1.0})
        G = Observable(1, {((0,), (1,)): 1.0})
        br = poisson_bracket(F, G)
        assert br.coeffs == {((1,), (1,)): 1 + 0j}

    def test_antisymmetry_self_bracket(self, rng):
        F = random_observable(rng, 2)
        assert not poisson_bracket(F, F)

    def test_x_only_modes_commute(self):
        F = Observable(1, {((1,), (0,)): 1.0})
        G = Observable(1, {((2,), (0,)): 1.0})
        assert not poisson_bracket(F, G)

    def test_matches_numeric_derivative_oracle(self, rng):
        for _ in range(5):
            F = random_observable(rng, 2, n_modes=3)
            G = random_observable(rng, 2, n_modes=3)
            br = poisson_bracket(F, G)
            x = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
            xi = [rng.uniform(-1, 1) for _ in range(2)]
            assert complex(evaluate(br, x, xi)) == pytest.approx(
                numeric_poisson(F, G, x, xi), abs=1e-5
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poisson_bracket(
                Observable(1, {((1,), (0,)): 1.0}), Observable(2, {((1, 0), (0, 0)): 1.0})
            )

    def test_reality_preserved(self):
        F = Observable(1, {((1,), (1,)): 1 + 1j, ((-1,), (-1,)): 1 - 1j}, real=True)
        G = Observable(1, {((2,), (-1,)): 0.5j, ((-2,), (1,)): -0.5j}, real=True)
        assert poisson_bracket(F, G).real


class TestBackend:
    def test_eigenvalue_diagonal(self, golden_freq):
        assert complex(golden_freq.eigenvalue((1, 0))) == pytest.approx(1j)
        assert complex(golden_freq.eigenvalue((0, 1))) == pytest.approx(1j * PHI)

    def test_ad_x0_matches_bracket_rule(self, golden_freq, rng):
        back = ClassicalBackend(golden_freq)
        G = random_observable(rng, 2)
        out = back.ad_x0(G)
        for (k, m), c in G.items_sorted():
            lam = complex(golden_freq.eigenvalue(k))
            assert out.coeffs.get((k, m), 0j) == pytest.approx(lam * c)

    def test_exact_zero_on_lattice(self, rational_freq_float):
        back = ClassicalBackend(rational_freq_float)
        G = Observable(2, {((2, -1), (0, 0)): 1.0})
        assert not back.ad_x0(G)


class TestAxioms:
    """Sampled Banach-scale inequalities with gamma=1, chi(d)=1/(e d)."""

    def test_bracket_norm_axiom(self, rng):
        for _ in range(100):
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
            rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
            F = random_observable(rng, 2, n_modes=4)
            G = random_observable(rng, 2, n_modes=4)
            lhs = norm_rho(poisson_bracket(F, G), rho_p)
            rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
                math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_x0_norm_axiom(self, golden_freq, rng):
        back = ClassicalBackend(golden_freq)
        for _ in range(100):
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.9 * rho)
            G = random_observable(rng, 2, n_modes=4)
            lhs = norm_rho(back.ad_x0(G, exact_zero=False), rho_p)
            rhs = norm_rho(G, rho) / (math.e * (rho - rho_p))
            assert lhs <= rhs * (1 + 1e-12)

    def test_iterated_bracket_bound(self, rng):
        # (1/d!) ||[X_d, ... [X_1, Y]]||_rho' <= (gamma/(rho-rho')^2)^d prod ||X_i|| ||Y||
        for _ in range(30):
            d = rng.randint(1, 4)
            rho = rng.uniform(0.8, 1.2)
            rho_p = rng.uniform(0.3 * rho, 0.8 * rho)
            Y = random_observable(rng, 1, n_modes=3)
            Xs = [random_observable(rng, 1, n_modes=3) for _ in range(d)]
            acc = Y
            for Xi in Xs:
                acc = poisson_bracket(Xi, acc)
            lhs = norm_rho(acc, rho_p) / math.factorial(d)
            rhs = (1.0 / (rho - rho_p) ** 2) ** d * norm_rho(Y, rho)
            for Xi in Xs:
                rhs *= norm_rho(Xi, rho)
            assert lhs <= rhs * (1 + 1e-12)

    def test_jacobi_identity(self, rng):
        for _ in range(25):
            A = random_observable(rng, 2, n_modes=2)
            B = random_observable(rng, 2, n_modes=2)
            C = random_observable(rng, 2, n_modes=2)
            total = (
                poisson_bracket(A, poisson_bracket(B, C))
                + poisson_bracket(B, poisson_bracket(C, A))
                + poisson_bracket(C, poisson_bracket(A, B))
            )
            scale = max(
                norm_rho(poisson_bracket(B, C), 0.1),
                norm_rho(poisson_bracket(C, A), 0.1),
                1.0,
            )
            assert total.max_abs() <= 1e-12 * scale


def _mass(F):
    return sum(abs(c) for c in F.coeffs.values())


def _max_s(F, G):
    return max(
        (abs(poisson_structure_constant(k, m, kp, mp)) for k, m in F.coeffs for kp, mp in G.coeffs),
        default=0,
    )


# None is the Poisson (integer) constant; the others are Moyal constants
COUPLINGS = st.one_of(st.none(), st.floats(0.01, 2.0).map(sine_coupling))
PROPERTY_SETTINGS = settings(max_examples=60)
PAIRS = st.integers(1, 2).flatmap(
    lambda d: st.tuples(observable_strategy(d), observable_strategy(d))
)


class TestKernelProperties:
    """Lie-algebra identities of the shared mode kernel, with both
    the Poisson and the sine-deformed structure constants."""

    @PROPERTY_SETTINGS
    @given(PAIRS, COUPLINGS)
    def test_antisymmetry(self, pair, coupling):
        F, G = pair
        total = mode_bracket(F, G, coupling) + mode_bracket(G, F, coupling)
        assert total.max_abs() <= 1e-14 * _max_s(F, G) * _mass(F) * _mass(G)

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.tuples(*[observable_strategy(d, 3)] * 3)
        ),
        COUPLINGS,
    )
    def test_jacobi_identity(self, triple, coupling):
        A, B, C = triple

        def br(F, G):
            return mode_bracket(F, G, coupling)

        cyclic = ((A, B, C), (B, C, A), (C, A, B))
        total = Observable.zero(A.d)
        scale = 0.0
        for X, Y, Z in cyclic:
            inner = br(Y, Z)
            total = total + br(X, inner)
            # |coupling(s)| <= |s|: a bound on the mass of the double bracket
            scale += _max_s(X, inner) * _max_s(Y, Z)
        scale *= _mass(A) * _mass(B) * _mass(C)
        assert total.max_abs() <= 1e-14 * scale

    @PROPERTY_SETTINGS
    @given(PAIRS, st.floats(1e-3, 0.5))
    def test_classical_limit(self, pair, hbar):
        # |s - (2/hbar) sin(hbar s/2)| <= hbar^2 |s|^3 / 6 on every mode
        # pair, and the weighted norm is sub-multiplicative over pairs
        F, G = pair
        defect = moyal_bracket(F, G, hbar) - poisson_bracket(F, G)
        rho = 0.5
        bound = hbar ** 2 * _max_s(F, G) ** 3 / 6 * norm_rho(F, rho) * norm_rho(G, rho)
        assert norm_rho(defect, rho) <= bound * (1 + 1e-9)


def _wide_observables(d):
    """Observables with 0..6 modes whose coordinates mix small values
    with values up to +-2^20, coefficients of modulus at most 1."""
    coord = st.one_of(
        st.integers(-2, 2),
        st.sampled_from([-(2 ** 20), 2 ** 20]),
        st.integers(-(2 ** 20), 2 ** 20),
    )
    mode = st.tuples(st.tuples(*[coord] * d), st.tuples(*[coord] * d))
    coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return st.dictionaries(mode, coeff, max_size=6).map(lambda coeffs: Observable(d, coeffs))


# For every shift S < 72, the sum modes (2^S, 0) and (0, 1) both occur
# with nonzero s, and a packing with S bits per coordinate maps both to
# 2^S: a kernel with any fixed shift in that range merges them.
_FIXED_SHIFT_COLLIDERS = (
    Observable(1, {**{((2 ** j,), (-1,)): 1.0 for j in range(72)}, ((-1,), (0,)): 1.0}),
    Observable(1, {((0,), (1,)): 1.0, ((1,), (1,)): 1.0}),
)
# The widest case for a shift sized from the largest coordinate 2^20:
# the sum modes (2^21, 0) and (-2^21, 1) differ by 2^22 in k, so a
# packing with 22 bits per coordinate merges them.
_TIGHT_SHIFT_COLLIDERS = (
    Observable(1, {((2 ** 20,), (1,)): 1.0, ((-(2 ** 20),), (1,)): 1.0}),
    Observable(1, {((2 ** 20,), (-1,)): 1.0, ((-(2 ** 20),), (0,)): 1.0}),
)


def _field_width_pairs():
    """For d = 1, 2, 3 and each boundary 2^b (b = 7, 15, 31, 63) of the
    kernel's s fields (1, 2, 4, 8 bytes), operands whose largest
    coordinate t puts 2d t^2 just below 2^b and then just above it, with
    mode pairs whose s is +2d t^2, -2d t^2, 0 and +-t."""
    for d in (1, 2, 3):
        for b in (7, 15, 31, 63):
            below = math.isqrt((2 ** b - 1) // (2 * d))
            for t in (below, below + 1):
                up, down, zero = (t,) * d, (-t,) * d, (0,) * d
                unit = (1,) + (0,) * (d - 1)
                F = Observable(d, {(up, up): 1.0, (unit, zero): 0.5 - 0.25j})
                G = Observable(
                    d, {(down, up): 1.0, (up, down): -0.25, (up, up): 0.75j, (zero, unit): -1.0}
                )
                yield F, G


def _with_field_width_examples(test):
    for pair in _field_width_pairs():
        for coupling in (None, sine_coupling(0.1)):
            test = example(pair, coupling)(test)
    return test


class TestKernelBitIdentity:
    """The inlined kernel against the earlier double loop: the same
    modes in the same order, the same floats, the same signs of zero."""

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.tuples(observable_strategy(d, 8, 3), observable_strategy(d, 8, 3))
        ),
        COUPLINGS,
    )
    def test_matches_double_loop(self, pair, coupling):
        F, G = pair
        fast = mode_bracket(F, G, coupling)
        slow = mode_bracket_double_loop(F, G, coupling)
        assert repr(list(fast.coeffs.items())) == repr(list(slow.coeffs.items()))
        assert fast.real == slow.real

    @PROPERTY_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(*[_wide_observables(d)] * 2)), COUPLINGS)
    @example((Observable(1, {}), Observable(1, {((1,), (1,)): 1.0})), None)
    @example((Observable(2, {((1, 0), (0, 2)): 1.0}), Observable(2, {})), None)
    @example((Observable(3, {}), Observable(3, {})), None)
    @example(_FIXED_SHIFT_COLLIDERS, None)
    @example(_FIXED_SHIFT_COLLIDERS, sine_coupling(0.1))
    @example(_TIGHT_SHIFT_COLLIDERS, None)
    @_with_field_width_examples
    def test_wide_coordinates_and_empty_operands(self, pair, coupling):
        F, G = pair
        fast = mode_bracket(F, G, coupling)
        slow = mode_bracket_double_loop(F, G, coupling)
        assert repr(list(fast.coeffs.items())) == repr(list(slow.coeffs.items()))
        assert fast.real == slow.real

    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 2).flatmap(
            lambda d: st.tuples(observable_strategy(d, 8, 3), observable_strategy(d, 8, 3))
        ),
    )
    def test_one_coupling_call_per_distinct_s(self, pair):
        F, G = pair
        calls = []
        sine = sine_coupling(0.3)

        def counting(s):
            calls.append(s)
            return sine(s)

        fast = mode_bracket(F, G, counting)
        distinct = {
            poisson_structure_constant(k, m, kp, mp) for k, m in F.coeffs for kp, mp in G.coeffs
        }
        assert sorted(calls) == ([] if F == G else sorted(distinct - {0}))
        slow = mode_bracket_double_loop(F, G, sine)
        assert repr(list(fast.coeffs.items())) == repr(list(slow.coeffs.items()))
