import math
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.alphabet import (
    DegenerateFrequencyError,
    beta,
    diophantine_alpha,
    iter_modes,
    l1,
    shuffles,
    words_over,
)
from mouldnf.estimates import SAMPLE_LIMIT, fit_growth_constants, letter_sums
from mouldnf.mould import Mould, read_table

from oracles import (
    beta_per_word,
    beta_subset_bound,
    combination_shuffles,
    enumerate_interleavings,
    is_resonant,
    ksum,
    lattice_class,
    nabla,
    shuffle_coefficient,
    subset_eigenvalues_by_mask,
    subset_sum_counts,
    subset_sums_by_mask,
    word_codes,
)

PHI = (1 + 5 ** 0.5) / 2


def with_tau(freq, tau):
    return Frequency(freq.omega, freq.resonance_basis, dioph_tau=tau)


def beta_of(word, tau, freq):
    """``beta`` of one word at ``tau``, on weights formed for it alone."""
    codes, _, weights = word_codes(with_tau(freq, tau), word)
    return beta(subset_sum_counts(word, codes), weights)


def sigma(word, freq):
    """The eigenvalue sum of ``word`` as the derivation ``nabla`` applies
    it: ``nabla`` of the mould that is 1 on every word."""
    return nabla(Mould(lambda w: 1), freq)(word)


class TestSigma:
    def test_empty_word_is_zero(self, golden_freq):
        assert sigma((), golden_freq) == 0

    def test_single_letter_dot_product(self):
        freq = Frequency((1.0, 2 ** 0.5))
        assert sigma(((1, 0),), freq) == pytest.approx(1j)

    def test_cancellation(self, golden_freq):
        assert sigma(((1, 0), (-1, 0)), golden_freq) == 0

    def test_dimension_mismatch(self, golden_freq):
        with pytest.raises(ValueError):
            sigma(((1,),), golden_freq)


class TestResonance:
    def test_zero_sum_is_resonant(self, golden_freq):
        assert is_resonant(((1, 1), (-1, -1)), golden_freq)

    def test_nonzero_mode_not_resonant(self, golden_freq):
        assert not is_resonant(((1, 0),), golden_freq)

    def test_declared_lattice_member(self, rational_freq_float):
        assert is_resonant(((2, -1),), rational_freq_float)
        assert is_resonant(((4, -2),), rational_freq_float)
        assert not is_resonant(((1, 0),), rational_freq_float)

    def test_resonant_implies_small_sigma(self, rational_freq_float, golden_freq):
        words = [
            ((2, -1),),
            ((1, 0), (1, -1)),
            ((4, -2), (2, -1)),
        ]
        for w in words:
            if is_resonant(w, rational_freq_float):
                assert abs(rational_freq_float.eigenvalue(ksum(w), exact_zero=False)) < 1e-8
                assert sigma(w, rational_freq_float) == 0
        assert abs(golden_freq.eigenvalue(ksum(((1, 0), (-1, 0))), exact_zero=False)) < 1e-8

    def test_lattice_class_representatives(self, rational_freq_float):
        f = rational_freq_float
        assert lattice_class(f, (2, -1)) == lattice_class(f, (4, -2))
        assert lattice_class(f, (1, 0)) != lattice_class(f, (2, -1))
        assert lattice_class(f, (0, 0)) == (0, 0)


class TestFrequencyValidation:
    def test_inconsistent_basis_rejected(self):
        with pytest.raises(ValueError):
            Frequency((1.0, PHI), resonance_basis=[(1, 0)])

    def test_exact_basis_must_be_orthogonal(self):
        with pytest.raises(ValueError):
            Frequency((Fraction(1), Fraction(2)), resonance_basis=[(1, -1)])

    @pytest.mark.parametrize(
        "omega, basis, index",
        [((1.0, 1.0), [(2, -2)], 2),
         ((Fraction(1), Fraction(1)), [(3, -3)], 3),
         ((1.0, 1.0, 1.0), [(2, -2, 0), (0, 1, -1)], 2),
         ((1.0, 1.0, 1.0), [(1, -1, 0), (1, 2, -3)], 3)],
        ids=["float-d2", "exact-d2", "d3-scaled-row", "d3-index-3"],
    )
    def test_unsaturated_basis_rejected(self, omega, basis, index):
        # the basis spans a proper sublattice of the resonances it implies
        # (its maximal minors share the factor index), so a resonant sum
        # off it, such as (1, -1) in d = 2, would get the divisor 0
        with pytest.raises(ValueError, match=f"sublattice of index {index} "):
            Frequency(omega, resonance_basis=basis)

    @pytest.mark.parametrize(
        "basis",
        [[(1, -1)], [(2, -2), (3, -3)], [(1, -1), (2, -2)]],
        ids=["primitive", "coprime-multiples", "dependent"],
    )
    def test_saturated_basis_accepted(self, basis):
        freq = Frequency((1.0, 1.0), resonance_basis=basis)
        assert freq.divisors[(1, -1)] is None and freq.divisors[(1, 0)] == 1j

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            Frequency((1.0,), dioph_tau=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "dioph_tau"])
    def test_non_finite_parameters_rejected(self, field, bad):
        kwargs = {"omega": (1.0, PHI)}
        if field == "omega":
            kwargs["omega"] = (1.0, bad)
        else:
            kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            Frequency(**kwargs)


class TestBeta:
    def test_single_unit_eigenvalue(self):
        freq = Frequency((1.0,))
        assert beta_of(((1,),), 1.0, freq) == pytest.approx(1.0)

    def test_two_letters_enumerated(self):
        # eigenvalues i and 2i: subsets give 1 + 1/2 + 1/3
        freq = Frequency((1.0,))
        w = ((1,), (2,))
        assert beta_of(w, 1.0, freq) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)

    def test_cancelling_pair_subset_excluded(self, golden_freq):
        w = ((1, 0), (-1, 0))
        assert beta_of(w, 1.0, golden_freq) == pytest.approx(2.0)

    def test_empty_word_convention(self, golden_freq):
        assert beta_of((), 1.0, golden_freq) == 0.0

    def test_monotone_in_appended_letters(self, golden_freq):
        w = ((1, 0),)
        w2 = ((1, 0), (0, 1))
        assert beta_of(w2, 1.0, golden_freq) >= beta_of(w, 1.0, golden_freq)

    def test_crude_upper_bound(self, golden_freq):
        for w in (((1, 0),), ((1, 0), (0, 1)), ((1, 0), (-1, 0), (0, 1))):
            assert beta_of(w, 1.0, golden_freq) <= beta_subset_bound(w, 1.0, golden_freq) + 1e-12


# words of length 1..14 over a pool of at most four letters, so that
# letters repeat and subset sums coincide or cancel
REPEATING_WORDS = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4, unique=True
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=14)).map(tuple)
# non-resonant, float resonant, exact resonant
BETA_FREQUENCIES = [
    Frequency((1.0, PHI)),
    Frequency((1.0, 2.0), resonance_basis=[(2, -1)]),
    Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)]),
]


class TestBetaOracle:
    """The subset-sum count table and ``beta`` against the per-mask walk."""

    @settings(max_examples=60)
    @given(REPEATING_WORDS)
    def test_counts_match_mask_walk(self, word):
        codes, _, _ = word_codes(BETA_FREQUENCIES[0], word)
        counts = subset_sum_counts(word, codes)
        assert {codes.decode(k): n for k, n in counts.items()} == Counter(subset_sums_by_mask(word))

    @settings(max_examples=80)
    @given(REPEATING_WORDS, st.sampled_from(BETA_FREQUENCIES), st.sampled_from([1.0, 1.5, 3.0]))
    def test_matches_fsum_over_masks(self, word, freq, tau):
        reference = list(subset_eigenvalues_by_mask(word, freq))
        expected = math.fsum(lam ** (-1.0 / tau) for lam in reference)
        assert beta_of(word, tau, freq) == pytest.approx(expected, rel=1e-13, abs=0.0)
        bound = 2 ** len(word) * max((lam ** (-1.0 / tau) for lam in reference), default=0.0)
        assert beta_subset_bound(word, tau, freq) == bound

    @settings(max_examples=60)
    @given(
        st.lists(REPEATING_WORDS, min_size=1, max_size=5),
        st.sampled_from(BETA_FREQUENCIES),
        st.sampled_from([1.0, 1.5, 3.0]),
    )
    def test_weights_kept_across_words_match_per_word(self, words, freq, tau):
        # one set of weights serves every word, as in a growth fit; each
        # word ends on the mirror of its first letter, so its counts hold
        # the lattice sum 0 (and, at the resonant frequencies, often more)
        freq = with_tau(freq, tau)
        words = [word + (tuple(-c for c in word[0]),) for word in words]
        codes, _, weights = letter_sums(freq, [k for word in words for k in word], max(map(len, words)))
        met = set()
        for word in words:
            coded = subset_sum_counts(word, codes)
            counts = {codes.decode(k): n for k, n in coded.items()}
            assert any(freq.divisors[k] is None for k in counts)
            assert repr(beta(coded, weights)) == repr(beta_per_word(counts, tau, freq))
            met.update(coded)
        assert weights.keys() == met

    @pytest.mark.parametrize("r", [40, 60])
    def test_single_repeated_letter_closed_form(self, r):
        # subsets of c copies of the letter (1,) have eigenvalue c, so
        # beta = sum_c C(r, c) / c; 2^60 masks, 60 distinct sums
        expected = math.fsum(math.comb(r, c) / c for c in range(1, r + 1))
        assert beta_of(((1,),) * r, 1.0, Frequency((1.0,))) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestTrustedLattice:
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5),
        st.sampled_from(BETA_FREQUENCIES),
    )
    def test_trusted_path_matches_public(self, vectors, freq):
        for k in vectors:
            assert freq._in_lattice(k) == (freq.divisors[k] is None)
            assert freq._eigenvalue(k) == freq.eigenvalue(k) == freq.eigenvalue(list(k))

    def test_public_path_refuses_non_integral(self):
        for freq in BETA_FREQUENCIES:
            with pytest.raises(ValueError, match="integral"):
                freq.eigenvalue((1.5, 0))

    @pytest.mark.parametrize(
        "freq, k",
        [(Frequency((1.0, 2.0), resonance_basis=[(2, -1)]), (2,)),
         (Frequency((1.0, 2.0), resonance_basis=[(2, -1)]), (2, -1, 5)),
         (Frequency((1.0, 1.618)), (0,))],
        ids=["short", "long", "short-zero"],
    )
    def test_public_path_refuses_wrong_dimension(self, freq, k):
        with pytest.raises(ValueError, match="dimension"):
            freq.eigenvalue(k)


@st.composite
def saturated_lattices(draw):
    """A frequency whose declared basis (one or two vectors, d = 2 or 3)
    spans exactly ``{k : <k, normal> = 0}`` for an integer ``normal``,
    with ``omega`` a multiple of ``normal``, exact or float, so that the
    pairing with ``normal`` decides resonance independently of the
    lattice reduction."""
    small = st.integers(-4, 4)
    if draw(st.booleans()):
        # d = 2: a primitive u, given alone or as two coprime multiples
        u = draw(st.tuples(small, small).filter(lambda v: math.gcd(*v) == 1))
        normal = (-u[1], u[0])
        basis = [u]
        if draw(st.booleans()):
            a, b = draw(st.tuples(small, small).filter(lambda v: math.gcd(*v) == 1 and all(v)))
            basis = [tuple(a * c for c in u), tuple(b * c for c in u)]
    else:
        # d = 3: u, v with coprime cross product, whose entries are the
        # 2x2 minors of [u; v], so that u and v span its whole kernel
        u, v = draw(st.tuples(small, small, small)), draw(st.tuples(small, small, small))
        normal = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        assume(math.gcd(*normal) == 1)
        basis = [u, v]
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 2)]))
    omega = [scale * c for c in normal]
    if draw(st.booleans()):
        omega = [float(c) for c in omega]
    tau = draw(st.sampled_from([1.0, 2.5]))
    return Frequency(omega, resonance_basis=basis, dioph_tau=tau), normal


class TestOneDecisionPerSum:
    @given(saturated_lattices(), st.data())
    def test_readers_agree_with_the_table(self, lattice, data):
        freq, normal = lattice
        codes, divisors, weights = letter_sums(freq, [(9,) * freq.d], 1)
        for k in data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * freq.d), min_size=1, max_size=6)):
            divisor = freq.divisors[k]
            code = codes.encode(k)
            assert (divisor is None) == (sum(map(mul, k, normal)) == 0)
            assert divisors[code] is divisor
            if divisor is None:
                assert freq.eigenvalue(k) == freq.zero() and weights[code] == 0.0
            else:
                assert freq.eigenvalue(k) == divisor == freq.eigenvalue(k, exact_zero=False)
                assert weights[code] == abs(divisor) ** (-1.0 / freq.dioph_tau) > 0.0


class TestSumCodes:
    """The growth fit's letter-sum codes, ``estimates.letter_sums``: the
    codec's laws are those of ``TestVectorCodes``; here its reach holds
    every sum the fit forms and it checks the fit's letters."""

    @settings(max_examples=80)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 8), st.data())
    def test_sum_of_codes_is_the_code_of_the_sum(self, d, top, r_max, data):
        freq = Frequency((1.0, PHI, 2.0 ** 0.5)[:d])
        letter = st.tuples(*[st.integers(-top, top)] * d)
        letters = data.draw(st.lists(letter, min_size=1, max_size=4))
        codes, _, _ = letter_sums(freq, letters, r_max)
        word = data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=r_max))
        assert codes.decode(sum(map(codes.encode, word))) == ksum(word)

    @pytest.mark.parametrize("k", [(1,), (1, 0, 0), (11, 0), (0, -11), (0.5, 0)],
                             ids=["short", "long", "beyond", "beyond-negative", "non-integral"])
    def test_letter_refused(self, golden_freq, k):
        # a vector beyond the reach 10 of the sums of 5 letters with top
        # coordinate 2 would carry into the next coordinate's field
        codes, _, _ = letter_sums(golden_freq, [(2, -1), (-1, 0)], 5)
        with pytest.raises(ValueError):
            codes.encode(k)
        if len(k) != 2 or k == (0.5, 0):
            with pytest.raises(ValueError):
                fit_growth_constants(golden_freq, [(2, -1), k], 5, 1.0, 0.5, 0)


class TestShuffle:
    X, Y, Z = (1, 0), (0, 1), (-1, 0)

    def test_distinct_letters(self):
        assert shuffle_coefficient((self.X,), (self.Y,), (self.X, self.Y)) == 1

    def test_equal_letters_double(self):
        assert shuffle_coefficient((self.X,), (self.X,), (self.X, self.X)) == 2

    def test_three_interleavings(self):
        a, b = (self.X, self.Y), (self.Z,)
        assert shuffle_coefficient(a, b, (self.X, self.Z, self.Y)) == 1

    def test_length_mismatch_is_zero(self):
        assert shuffle_coefficient((self.X,), (self.Y,), (self.X,)) == 0

    def _all_words(self, letters, r):
        import itertools

        for combo in itertools.product(letters, repeat=r):
            yield combo

    def test_symmetry_and_binomial_exhaustive(self):
        # two-letter alphabet up to total length 6, three-letter up to 4
        for letters, max_total in (((self.X, self.Y), 6), ((self.X, self.Y, self.Z), 4)):
            for ra in range(1, max_total):
                for rb in range(1, max_total - ra + 1):
                    for a in self._all_words(letters, ra):
                        for b in self._all_words(letters, rb):
                            counts = shuffles(a, b)
                            assert counts == shuffles(b, a)
                            assert sum(counts.values()) == math.comb(ra + rb, ra)

    def test_dp_matches_enumeration_oracle(self, rng):
        letters = (self.X, self.Y, self.Z)
        for _ in range(200):
            ra, rb = rng.randint(1, 3), rng.randint(1, 3)
            a = tuple(rng.choice(letters) for _ in range(ra))
            b = tuple(rng.choice(letters) for _ in range(rb))
            counts = {}
            for lam in enumerate_interleavings(a, b):
                counts[lam] = counts.get(lam, 0) + 1
            assert shuffles(a, b) == counts
            for lam, expected in counts.items():
                assert shuffle_coefficient(a, b, lam) == expected

    @settings(max_examples=200)
    @given(
        st.lists(st.sampled_from(((1, 0), (0, 1), (-1, 0))), max_size=4),
        st.lists(st.sampled_from(((1, 0), (0, 1), (-1, 0))), max_size=4),
    )
    def test_cached_patterns_match_combinations_body(self, a, b):
        # the same interleavings, counts and insertion order as rebuilding
        # them from itertools.combinations, whichever length pair came first
        a, b = tuple(a), tuple(b)
        assert list(shuffles(a, b).items()) == list(combination_shuffles(a, b).items())


class TestDiophantineAlpha:
    def test_one_dimensional_unit(self):
        freq = Frequency((1.0,))
        assert diophantine_alpha(freq, 5) == pytest.approx(1.0)

    def test_golden_brute_force(self, golden_freq):
        # independent enumeration over the K=3 box
        best = min(
            abs(k[0] + PHI * k[1]) * l1(k) ** 1.0
            for k in iter_modes(2, 3)
        )
        assert diophantine_alpha(golden_freq, 3) == pytest.approx(best)
        assert diophantine_alpha(golden_freq, 5) == pytest.approx(1.0)

    def test_resonant_lattice_excluded(self, rational_freq_float):
        best = min(
            abs(k[0] + 2.0 * k[1]) * l1(k)
            for k in iter_modes(2, 2)
            if rational_freq_float.divisors[k] is not None
        )
        assert diophantine_alpha(rational_freq_float, 2) == pytest.approx(best)

    def test_degenerate_frequency_raises(self):
        freq = Frequency((0.0,), resonance_basis=[(1,)])
        with pytest.raises(DegenerateFrequencyError):
            diophantine_alpha(freq, 3)


class TestWord:
    """A word is the tuple of its letters."""

    def test_ksum(self):
        assert ksum(()) == ()
        assert ksum(((1, 0), (2, -1), (0, 3))) == (3, 2)

    def test_words_over_by_length_then_sorted_letters(self):
        words = list(words_over([(1, 0), (0, 1)], 2))
        assert words == [
            ((0, 1),),
            ((1, 0),),
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (1, 0)),
        ]

    def test_non_integer_letter_rejected(self, golden_freq):
        # letters are checked where they enter: an enumerated alphabet,
        # a mould-table key, and a sampled growth-fit alphabet
        with pytest.raises(ValueError):
            list(words_over([(0.5, 0)], 1))
        with pytest.raises(ValueError):
            read_table({"F": {"1.5,0": [0.0, 0.0]}, "S": {}, "G": {}}, 2)
        with pytest.raises(ValueError):
            # more letters than SAMPLE_LIMIT words of length 1: the sampled branch
            letters = [(j, 0) for j in range(1, SAMPLE_LIMIT + 1)] + [(0.5, 0)]
            fit_growth_constants(golden_freq, letters, 1, 1.0, 1.0, seed=7)
