import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Frequency
from mouldnf.alphabet import (
    DegenerateFrequencyError,
    _subset_eigenvalues,
    beta,
    diophantine_alpha,
    is_resonant,
    iter_modes,
    ksum,
    l1,
    shuffles,
    sigma,
    words_over,
)
from mouldnf.estimates import fit_growth_constants
from mouldnf.mould import _parse_word

from oracles import (
    beta_subset_bound,
    enumerate_interleavings,
    shuffle_coefficient,
    subset_eigenvalues_by_mask,
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
        assert f.lattice_class((2, -1)) == f.lattice_class((4, -2))
        assert f.lattice_class((1, 0)) != f.lattice_class((2, -1))
        assert f.lattice_class((0, 0)) == (0, 0)


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


# words of length 1..10 over a pool of at most four letters, so that
# letters repeat and subset sums coincide or cancel
REPEATING_WORDS = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4, unique=True
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)).map(tuple)
BETA_FREQUENCIES = [
    Frequency((1.0, PHI)),
    Frequency((1.0, 2.0), resonance_basis=[(2, -1)]),
    Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)]),
]


class TestBetaBitIdentity:
    """The incremental subset walk against the per-mask walk: the same
    eigenvalues in the same order, so the same floats."""

    @settings(max_examples=80)
    @given(REPEATING_WORDS, st.sampled_from(BETA_FREQUENCIES), st.sampled_from([1.0, 1.5, 3.0]))
    def test_matches_per_mask_walk(self, word, freq, tau):
        reference = list(subset_eigenvalues_by_mask(word, freq))
        assert list(_subset_eigenvalues(word, freq)) == reference
        total = 0.0
        for lam in reference:
            total += lam ** (-1.0 / tau)
        assert beta(word, tau, freq) == total
        bound = 2 ** len(word) * max((lam ** (-1.0 / tau) for lam in reference), default=0.0)
        assert beta_subset_bound(word, tau, freq) == bound


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
        assert diophantine_alpha(freq, 1.0, 5) == pytest.approx(1.0)

    def test_golden_brute_force(self, golden_freq):
        # independent enumeration over the K=3 box
        best = min(
            abs(k[0] + PHI * k[1]) * l1(k) ** 1.0
            for k in iter_modes(2, 3)
        )
        assert diophantine_alpha(golden_freq, 1.0, 3) == pytest.approx(best)
        assert diophantine_alpha(golden_freq, 1.0, 5) == pytest.approx(1.0)

    def test_resonant_lattice_excluded(self, rational_freq_float):
        best = min(
            abs(k[0] + 2.0 * k[1]) * l1(k)
            for k in iter_modes(2, 2)
            if not rational_freq_float.in_lattice(k)
        )
        assert diophantine_alpha(rational_freq_float, 1.0, 2) == pytest.approx(best)

    def test_degenerate_frequency_raises(self):
        freq = Frequency((0.0,), resonance_basis=[(1,)])
        with pytest.raises(DegenerateFrequencyError):
            diophantine_alpha(freq, 1.0, 3)


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
            # two letters, one word per length: the sampled branch
            fit_growth_constants(golden_freq, [(1, 0), (0.5, 0)], 1, 1.0, 1.0, 1.0, limit=1)
