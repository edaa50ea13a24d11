"""Exact-rational filtered nilmanifolds and their polynomial calculus."""

from .characters import (
    FactorizationError,
    LevelCharacter,
    annihilator_lattice,
    element_irrational,
    enumerate_characters,
    factor_coefficient,
    is_irrational,
)
from .matrices import frac, mat
from .model import (
    FilteredNilmanifoldModel,
    OutsideGroupError,
    UnitriangularElement,
    heisenberg_deg3,
    heisenberg_lcs,
    model_by_name,
    torus,
)
from .poly import (
    PolynomialSequence,
    TaylorLevelError,
    binomial,
    taylor_eval,
    taylor_expand,
)

__all__ = [
    "FactorizationError",
    "FilteredNilmanifoldModel",
    "LevelCharacter",
    "OutsideGroupError",
    "PolynomialSequence",
    "TaylorLevelError",
    "UnitriangularElement",
    "annihilator_lattice",
    "binomial",
    "element_irrational",
    "enumerate_characters",
    "factor_coefficient",
    "frac",
    "heisenberg_deg3",
    "heisenberg_lcs",
    "is_irrational",
    "mat",
    "model_by_name",
    "taylor_eval",
    "taylor_expand",
    "torus",
]
