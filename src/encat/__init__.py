"""Finite monoidal and enriched category tables with exhaustive law checking."""

from .core import (
    AmbiguousInverseError,
    CapabilityError,
    CheckReport,
    EncatError,
    EngineBugError,
    FinCategory,
    FunctorData,
    LawFailureError,
    MalformedReferenceError,
    MissingTableError,
    NonComposablePathError,
    ParameterError,
    WitnessError,
    canonical,
    canonical_diff,
    compose_path,
    morphism_inverse,
    opposite_category,
    product_category,
    structural_equal,
    validate_category,
    validate_functor,
)
from .monoidal import ClosedData, MonoidalData, SymmetryData

__all__ = [name for name in dir() if not name.startswith("_")]
