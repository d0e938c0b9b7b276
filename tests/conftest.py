import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from mouldnf import (
    ClassicalBackend,
    Frequency,
    MouldSolver,
    Observable,
    ScaleParams,
    norm_rho,
)

PHI = (1 + 5 ** 0.5) / 2

# Every property test is deterministic and free of wall-clock deadlines;
# each test keeps its own max_examples.
settings.register_profile("mouldnf", derandomize=True, deadline=None, database=None)
settings.load_profile("mouldnf")

# Fixed toy perturbation: 4 modes in d=2 whose x-modes admit both
# two-letter and three-letter resonant words ((1,0)+(-1,0) = 0 and
# (1,0)+(1,0)+(-2,0) = 0), normalized to ||B||_1 = 0.01.
TOY_MODES = {
    ((1, 0), (1, 1)): 3.0,
    ((-1, 0), (1, 0)): 2.0,
    ((-2, 0), (0, 1)): 2.0,
    ((2, 0), (-1, 1)): 1.5,
}


@pytest.fixture(scope="session")
def golden_freq():
    return Frequency((1.0, PHI), dioph_tau=1.0)


@pytest.fixture(scope="session")
def rational_freq():
    return Frequency((Fraction(1), Fraction(2)), resonance_basis=[(2, -1)])


@pytest.fixture(scope="session")
def rational_freq_float():
    return Frequency((1.0, 2.0), resonance_basis=[(2, -1)])


@pytest.fixture(scope="session")
def toy_B(golden_freq):
    base = Observable(2, TOY_MODES)
    return (0.01 / norm_rho(base, 1.0)) * base


@pytest.fixture(scope="session")
def scale_params():
    return ScaleParams(1.0, 0.5)


@pytest.fixture(scope="session")
def golden_solver(golden_freq):
    return MouldSolver(golden_freq)


@pytest.fixture(scope="session")
def classical_backend(golden_freq):
    return ClassicalBackend(golden_freq)


@pytest.fixture
def rng():
    return random.Random(20240917)


def random_observable(rng, d, n_modes=4, kmax=2, mmax=2, scale=1.0):
    coeffs = {}
    for _ in range(n_modes):
        k = tuple(rng.randint(-kmax, kmax) for _ in range(d))
        m = tuple(rng.randint(-mmax, mmax) for _ in range(d))
        coeffs[(k, m)] = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return Observable(d, coeffs)


def observable_strategy(d, max_modes=4, kmax=2):
    """Hypothesis strategy: observables with 1..max_modes modes in
    [-kmax, kmax]^2d and coefficients of modulus at most 1."""
    mode = st.tuples(
        st.tuples(*[st.integers(-kmax, kmax)] * d),
        st.tuples(*[st.integers(-kmax, kmax)] * d),
    )
    coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    return st.dictionaries(mode, coeff, min_size=1, max_size=max_modes).map(
        lambda coeffs: Observable(d, coeffs)
    )
