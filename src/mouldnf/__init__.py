"""Perturbative normal forms via mould calculus.

A library and CLI computing order-N normal forms of ``x0 + B`` with
interchangeable Poisson and Moyal bracket backends on sparse Fourier
modes, together with the explicit constants that bound the remainder
and the hbar-squared gap between the quantum and classical forms.
"""

from .alphabet import (
    DegenerateFrequencyError,
    Frequency,
    beta,
    diophantine_alpha,
    is_resonant,
    shuffle_coefficient,
    sigma,
)
from .classical import ClassicalBackend, poisson_bracket
from .exact import QI
from .liealg import (
    NormalFormResult,
    OutOfDomainError,
    ScaleParams,
    apply_exp_ad,
    comould,
    contract,
    normalize,
    order_increment,
)
from .mould import (
    Mould,
    check_alternal,
    ident_mould,
    mexp,
    mlog,
    nabla,
    nabla1,
    resonant_part,
    times,
    unit_mould,
    zero_mould,
)
from .observables import (
    Observable,
    weighted_tuple_sum,
    homogeneous_parts,
    norm_rho,
    slices,
)
from .quantum import (
    QuantumBackend,
    WeylMatrix,
    moyal_bracket,
    validate_moyal,
    weyl_matrix,
)
from .solver import MouldSolver, verify_equation

__version__ = "0.1.0"

__all__ = [
    "ClassicalBackend",
    "DegenerateFrequencyError",
    "Frequency",
    "Mould",
    "MouldSolver",
    "NormalFormResult",
    "Observable",
    "OutOfDomainError",
    "QI",
    "QuantumBackend",
    "ScaleParams",
    "WeylMatrix",
    "apply_exp_ad",
    "beta",
    "check_alternal",
    "comould",
    "contract",
    "diophantine_alpha",
    "weighted_tuple_sum",
    "homogeneous_parts",
    "ident_mould",
    "is_resonant",
    "mexp",
    "mlog",
    "moyal_bracket",
    "nabla",
    "nabla1",
    "normalize",
    "norm_rho",
    "order_increment",
    "poisson_bracket",
    "resonant_part",
    "shuffle_coefficient",
    "sigma",
    "slices",
    "times",
    "unit_mould",
    "validate_moyal",
    "verify_equation",
    "weyl_matrix",
    "zero_mould",
]
