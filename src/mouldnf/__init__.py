"""Perturbative normal forms via mould calculus.

A library and CLI computing order-N normal forms of ``x0 + B`` with
interchangeable Poisson and Moyal bracket backends on sparse Fourier
modes, together with the explicit constants that bound the remainder
and the hbar-squared gap between the quantum and classical forms.

The package exports what a normal-form run needs; everything else lives
in its submodules (``mouldnf.mould``, ``mouldnf.estimates``, ...).
"""

from .alphabet import Frequency
from .classical import Backend
from .liealg import OutOfDomainError, ScaleParams, normalize
from .observables import Observable

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "Frequency",
    "Observable",
    "OutOfDomainError",
    "ScaleParams",
    "normalize",
]
