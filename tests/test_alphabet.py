import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.alphabet import (
    DegenerateFrequencyError,
    beta,
    diophantine_alpha,
    is_resonant,
    iter_modes,
    ksum,
    l1,
    shuffles,
    sigma,
    subset_sum_counts,
    words_over,
)
from mouldnf.estimates import SAMPLE_LIMIT, fit_growth_constants
from mouldnf.mould import _parse_word

from oracles import (
    beta_subset_bound,
    enumerate_interleavings,
    lattice_class,
    shuffle_coefficient,
    subset_eigenvalues_by_mask,
    subset_sums_by_mask,
)

PHI = (1 + 5 ** 0.5) / 2


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
                assert abs(sigma(w, rational_freq_float)) < 1e-8
        assert abs(sigma(((1, 0), (-1, 0)), golden_freq)) < 1e-8

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

    def test_diophantine_witness_check(self):
        Frequency((1.0, PHI), dioph_alpha=0.9, dioph_tau=1.0)
        with pytest.raises(ValueError):
            Frequency((1.0, PHI), dioph_alpha=50.0, dioph_tau=1.0)

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            Frequency((1.0,), dioph_tau=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["omega", "dioph_tau", "dioph_alpha"])
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
        assert beta(((1,),), 1.0, freq) == pytest.approx(1.0)

    def test_two_letters_enumerated(self):
        # eigenvalues i and 2i: subsets give 1 + 1/2 + 1/3
        freq = Frequency((1.0,))
        w = ((1,), (2,))
        assert beta(w, 1.0, freq) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)

    def test_cancelling_pair_subset_excluded(self, golden_freq):
        w = ((1, 0), (-1, 0))
        assert beta(w, 1.0, golden_freq) == pytest.approx(2.0)

    def test_empty_word_convention(self, golden_freq):
        assert beta((), 1.0, golden_freq) == 0.0

    def test_monotone_in_appended_letters(self, golden_freq):
        w = ((1, 0),)
        w2 = ((1, 0), (0, 1))
        assert beta(w2, 1.0, golden_freq) >= beta(w, 1.0, golden_freq)

    def test_crude_upper_bound(self, golden_freq):
        for w in (((1, 0),), ((1, 0), (0, 1)), ((1, 0), (-1, 0), (0, 1))):
            assert beta(w, 1.0, golden_freq) <= beta_subset_bound(w, 1.0, golden_freq) + 1e-12


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
        assert subset_sum_counts(word) == Counter(subset_sums_by_mask(word))

    @settings(max_examples=80)
    @given(REPEATING_WORDS, st.sampled_from(BETA_FREQUENCIES), st.sampled_from([1.0, 1.5, 3.0]))
    def test_matches_fsum_over_masks(self, word, freq, tau):
        reference = list(subset_eigenvalues_by_mask(word, freq))
        expected = math.fsum(lam ** (-1.0 / tau) for lam in reference)
        assert beta(word, tau, freq) == pytest.approx(expected, rel=1e-13, abs=0.0)
        bound = 2 ** len(word) * max((lam ** (-1.0 / tau) for lam in reference), default=0.0)
        assert beta_subset_bound(word, tau, freq) == bound

    @pytest.mark.parametrize("r", [40, 60])
    def test_single_repeated_letter_closed_form(self, r):
        # subsets of c copies of the letter (1,) have eigenvalue c, so
        # beta = sum_c C(r, c) / c; 2^60 masks, 60 distinct sums
        expected = math.fsum(math.comb(r, c) / c for c in range(1, r + 1))
        assert beta(((1,),) * r, 1.0, Frequency((1.0,))) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestTrustedLattice:
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5),
        st.sampled_from(BETA_FREQUENCIES),
    )
    def test_trusted_path_matches_public(self, vectors, freq):
        for k in vectors:
            assert freq._in_lattice(k) == freq.in_lattice(k) == freq.in_lattice(list(k))
            assert freq._eigenvalue(k) == freq.eigenvalue(k)

    def test_public_path_refuses_non_integral(self):
        for freq in BETA_FREQUENCIES:
            with pytest.raises(ValueError, match="integral"):
                freq.in_lattice((1.5, 0))
            with pytest.raises(ValueError, match="integral"):
                freq.eigenvalue((1.5, 0))


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
            if not rational_freq_float.in_lattice(k)
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

    def test_words_over_min_length(self):
        words = list(words_over([(1,), (2,), (3,)], 3, min_r=3))
        assert len(words) == 27 and all(len(w) == 3 for w in words)
        assert list(words_over([(1,)], 2, min_r=3)) == []

    def test_non_integer_letter_rejected(self, golden_freq):
        # letters are checked where they enter: an enumerated alphabet,
        # a mould-table key, and a sampled growth-fit alphabet
        with pytest.raises(ValueError):
            list(words_over([(0.5, 0)], 1))
        with pytest.raises(ValueError):
            _parse_word("1.5,0")
        with pytest.raises(ValueError):
            # more letters than SAMPLE_LIMIT words of length 1: the sampled branch
            letters = [(j, 0) for j in range(1, SAMPLE_LIMIT + 1)] + [(0.5, 0)]
            fit_growth_constants(golden_freq, letters, 1, 1.0, 1.0, seed=7)
