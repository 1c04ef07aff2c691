"""Differential invariants of linear symplectic group actions.

Evaluate, differentiate and cross-check the invariants of Sp(2n, R) and its
conformal/affine/contact extensions on functions, curves, hypersurfaces and
surfaces, and solve the equivalence problem through signature clouds.
"""

from .geometry import CHARTS, Derivation, JetPoint, pushforward
from .jets import (MultiJet, TaylorJet, compose, compose_many, compose_multi, invert_series,
                   total_derivative)
from .kernels import backend_name
from .signature import SignatureCloud, equivalent, signature_of
from .symplectic import ContactSpace, GroupElement, SymplecticSpace

__version__ = "0.1.0"

__all__ = [
    "CHARTS",
    "ContactSpace",
    "Derivation",
    "GroupElement",
    "JetPoint",
    "MultiJet",
    "SignatureCloud",
    "SymplecticSpace",
    "TaylorJet",
    "backend_name",
    "compose",
    "compose_many",
    "compose_multi",
    "equivalent",
    "invert_series",
    "pushforward",
    "signature_of",
    "total_derivative",
    "__version__",
]
