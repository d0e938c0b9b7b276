import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mouldnf import Backend, Observable
from mouldnf.classical import ModeCodes, code_bracket, mode_bracket, sine_coupling, top
from mouldnf.liealg import ad_x0
from mouldnf.observables import norm_rho

from conftest import observable_strategy, random_observable
from oracles import (
    evaluate,
    mode_bracket_double_loop,
    numeric_poisson,
    poisson_structure_constant,
)

PHI = (1 + 5 ** 0.5) / 2
poisson = Backend().bracket


class TestModeRule:
    def test_canonical_pair_coefficient(self):
        F = Observable(1, {((1,), (0,)): 1.0})
        G = Observable(1, {((0,), (1,)): 1.0})
        br = poisson(F, G)
        assert br.coeffs == {((1,), (1,)): 1 + 0j}

    def test_antisymmetry_self_bracket(self, rng):
        F = random_observable(rng, 2)
        assert not poisson(F, F)

    def test_x_only_modes_commute(self):
        F = Observable(1, {((1,), (0,)): 1.0})
        G = Observable(1, {((2,), (0,)): 1.0})
        assert not poisson(F, G)

    def test_matches_numeric_derivative_oracle(self, rng):
        for _ in range(5):
            F = random_observable(rng, 2, n_modes=3)
            G = random_observable(rng, 2, n_modes=3)
            br = poisson(F, G)
            x = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
            xi = [rng.uniform(-1, 1) for _ in range(2)]
            assert complex(evaluate(br, x, xi)) == pytest.approx(
                numeric_poisson(F, G, x, xi), abs=1e-5
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poisson(
                Observable(1, {((1,), (0,)): 1.0}), Observable(2, {((1, 0), (0, 0)): 1.0})
            )

    def test_reality_preserved(self):
        F = Observable(1, {((1,), (1,)): 1 + 1j, ((-1,), (-1,)): 1 - 1j}, real=True)
        G = Observable(1, {((2,), (-1,)): 0.5j, ((-2,), (1,)): -0.5j}, real=True)
        assert poisson(F, G).real


class TestBackend:
    def test_names_and_couplings(self):
        # the backend strings of normalize_result.json and summary.csv
        assert Backend().name == "classical"
        assert Backend().coupling is None
        assert Backend(0.1).name == "quantum(hbar=0.1)"

    def test_eigenvalue_diagonal(self, golden_freq):
        assert complex(golden_freq.eigenvalue((1, 0))) == pytest.approx(1j)
        assert complex(golden_freq.eigenvalue((0, 1))) == pytest.approx(1j * PHI)

    def test_ad_x0_matches_bracket_rule(self, golden_freq, rng):
        G = random_observable(rng, 2)
        out = ad_x0(golden_freq, G)
        for (k, m), c in G.items_sorted():
            lam = complex(golden_freq.eigenvalue(k))
            assert out.coeffs.get((k, m), 0j) == pytest.approx(lam * c)

    def test_exact_zero_on_lattice(self, rational_freq_float):
        G = Observable(2, {((2, -1), (0, 0)): 1.0})
        assert not ad_x0(rational_freq_float, G)


class TestAxioms:
    """Sampled Banach-scale inequalities with gamma=1, chi(d)=1/(e d)."""

    def test_bracket_norm_axiom(self, rng):
        for _ in range(100):
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
            rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
            F = random_observable(rng, 2, n_modes=4)
            G = random_observable(rng, 2, n_modes=4)
            lhs = norm_rho(poisson(F, G), rho_p)
            rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
                math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_x0_norm_axiom(self, golden_freq, rng):
        for _ in range(100):
            rho = rng.uniform(0.6, 1.4)
            rho_p = rng.uniform(0.15 * rho, 0.9 * rho)
            G = random_observable(rng, 2, n_modes=4)
            lhs = norm_rho(ad_x0(golden_freq, G, exact_zero=False), rho_p)
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
                acc = poisson(Xi, acc)
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
                poisson(A, poisson(B, C))
                + poisson(B, poisson(C, A))
                + poisson(C, poisson(A, B))
            )
            scale = max(
                norm_rho(poisson(B, C), 0.1),
                norm_rho(poisson(C, A), 0.1),
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
        defect = Backend(hbar).bracket(F, G) - poisson(F, G)
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


def _code(codes, k, m):
    (code,) = codes.encode(Observable(len(k), {(k, m): 1.0})).coeffs
    return code


@st.composite
def _code_spaces(draw):
    """A dimension, a reach of any field width, and modes within it."""
    d = draw(st.integers(1, 3))
    reach = draw(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 80)))
    coord = st.one_of(st.integers(-reach, reach), st.sampled_from([-reach, reach]))
    mode = st.tuples(st.tuples(*[coord] * d), st.tuples(*[coord] * d))
    return d, reach, draw(st.lists(mode, min_size=1, max_size=6, unique=True))


def _with_code_space_examples(test):
    """The operands of the field-width and collider pairs, at the reach
    of their largest coordinate: every field width, 1, 2, 4, 8 bytes and
    wider, each just below and above its boundary."""
    for F, G in (*_field_width_pairs(), _FIXED_SHIFT_COLLIDERS):
        test = example((F.d, top(F, G), list({**F.coeffs, **G.coeffs})))(test)
    return test


class TestModeCodes:
    """The laws of the code space that the kernel and the walkers rely on."""

    @PROPERTY_SETTINGS
    @given(_code_spaces())
    @_with_code_space_examples
    def test_code_laws(self, space):
        d, reach, modes = space
        codes = ModeCodes(d, reach)
        obs = Observable(d, {km: 1.0 for km in modes})
        encoded = codes.encode(obs)
        # decoding gives the modes back, in their order
        assert list(codes.decode(encoded)) == list(obs.coeffs)
        # codes sort as the (k, m) tuples do
        by_code = Observable._of(d, {code: 1.0 for code in sorted(encoded.coeffs)}, False)
        assert list(codes.decode(by_code)) == sorted(obs.coeffs)
        zero = (0,) * d
        assert _code(codes, zero, zero) == codes.bias
        for k, m in modes:
            code = _code(codes, k, m)
            minus_k, minus_m = tuple(-x for x in k), tuple(-x for x in m)
            # the mirror (-k, -m)
            assert _code(codes, minus_k, minus_m) == 2 * codes.bias - code
            # the sum of two modes within reach
            for kp, mp in [*modes, (minus_k, minus_m), (zero, zero)]:
                ks, ms = tuple(map(sum, zip(k, kp))), tuple(map(sum, zip(m, mp)))
                if all(abs(x) <= reach for x in ks + ms):
                    assert _code(codes, ks, ms) == code + _code(codes, kp, mp) - codes.bias

    @PROPERTY_SETTINGS
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(*[_wide_observables(d)] * 2)), COUPLINGS)
    @example(_FIXED_SHIFT_COLLIDERS, None)
    @example(_FIXED_SHIFT_COLLIDERS, sine_coupling(0.1))
    @_with_field_width_examples
    def test_kernel_is_independent_of_reach(self, pair, coupling):
        # the walkers' reaches exceed the one of mode_bracket, so their
        # fields are wider; the bracket must not see the difference
        F, G = pair
        expected = repr(list(mode_bracket(F, G, coupling).coeffs.items()))
        t = top(F, G)
        for reach in (2 * t, 2 * t + 100, 2 ** 20 * (t + 1), 2 ** 70 * (t + 1)):
            codes = ModeCodes(F.d, reach)
            out = code_bracket(codes.rows(codes.encode(F)), codes.encode(G), coupling, codes)
            assert repr(list(codes.decode(out).items())) == expected

    @pytest.mark.parametrize(
        "tiny",
        [
            # kept at (2, 1) while its mirror, within 1e-12 of its
            # conjugate, is pruned: refused after the prune only
            {((2,), (0,)): 5.0000005e-11, ((-2,), (-2,)): -0.49995e-10},
            # pruned at (3, 1), with no mirror: refused before the prune only
            {((3,), (0,)): 1e-11},
        ],
    )
    def test_reality_checked_before_and_after_the_prune(self, tiny):
        F = Observable(1, {((1,), (0,)): 1e6, ((-1,), (-2,)): -1e6, **tiny}, _prune=False)
        G = Observable(1, {((0,), (1,)): 1.0})
        # flagged real unchecked, so that the bracket's own checks refuse
        F.real = G.real = True
        with pytest.raises(ValueError) as oracle:
            mode_bracket_double_loop(F, G)
        codes = ModeCodes(1, 2 * top(F, G))
        with pytest.raises(ValueError) as coded:
            code_bracket(codes.rows(codes.encode(F)), codes.encode(G), None, codes, real=True)
        assert str(coded.value) == str(oracle.value)

    @pytest.mark.parametrize("reach", [2, 2 ** 40])
    def test_reality_check_on_codes(self, reach):
        # a mode without its conjugate mirror is refused as the
        # public constructor refuses it, naming the same mode
        data = {((1, -2), (0, 1)): 1.0 + 0.5j, ((-1, 2), (0, -1)): 1.0 - 0.5j, ((2, 0), (1, 1)): 0.25}
        with pytest.raises(ValueError) as public:
            Observable(2, data, real=True)
        codes = ModeCodes(2, reach)
        with pytest.raises(ValueError) as coded:
            codes.check_real(codes.encode(Observable(2, data)))
        assert str(coded.value) == str(public.value)
        del data[((2, 0), (1, 1))]
        codes.check_real(codes.encode(Observable(2, data)))
