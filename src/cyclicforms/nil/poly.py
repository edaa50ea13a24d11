"""Polynomial sequences on a filtered model and their Taylor calculus.

A polynomial sequence is stored by its Taylor coefficients g_0..g_s with
g_i in G_i; evaluation is the exact product g_0 g_1^C(n,1) ... g_s^C(n,s)
with integer binomial exponents (negative n included).  Expansion inverts
that triangular product from the values g(0..s) and verifies the level
membership of every coefficient, which is what certifies that the input
values really were a polynomial for the model's (pre)filtration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import FilteredNilmanifoldModel, UnitriangularElement


class TaylorLevelError(ValueError):
    """Expansion produced a coefficient outside its required level subgroup."""


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n >= 0:
        return math.comb(n, k)
    # C(n, k) = (-1)^k C(k - n - 1, k)
    return (-1) ** k * math.comb(k - n - 1, k)


@dataclass(frozen=True)
class PolynomialSequence:
    model: FilteredNilmanifoldModel
    coefficients: tuple[UnitriangularElement, ...]

    def __post_init__(self) -> None:
        s = self.model.degree
        coeffs = tuple(self.coefficients)
        if len(coeffs) != s + 1:
            raise ValueError(f"need coefficients g_0..g_{s}")
        for i, g in enumerate(coeffs):
            if not self.model.in_level(g, i):
                raise TaylorLevelError(f"coefficient g_{i} is not in G_{i}")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def identity(cls, model: FilteredNilmanifoldModel) -> "PolynomialSequence":
        return cls(model, tuple(model.identity() for _ in range(model.degree + 1)))

    def defect(self, q: int) -> "PolynomialSequence":
        """The polynomial n -> g(n+q)^{-1} g(n)."""
        s = self.model.degree
        values = [taylor_eval(self, n + q).inverse() * taylor_eval(self, n) for n in range(s + 1)]
        return taylor_expand(self.model, values)

    def pointwise_product(self, other: "PolynomialSequence") -> "PolynomialSequence":
        """n -> g(n) h(n); stays polynomial by the closure of poly under products."""
        if self.model is not other.model and self.model != other.model:
            raise ValueError("polynomials live on different models")
        s = self.model.degree
        values = [taylor_eval(self, n) * taylor_eval(other, n) for n in range(s + 1)]
        return taylor_expand(self.model, values)


def taylor_eval(p: PolynomialSequence, n: int) -> UnitriangularElement:
    """g(n) = g_0 g_1^n g_2^C(n,2) ... g_s^C(n,s), exactly."""
    out = p.coefficients[0]
    for j in range(1, len(p.coefficients)):
        e = binomial(n, j)
        if e != 0:
            out = out * p.coefficients[j] ** e
    return out


def taylor_expand(
    model: FilteredNilmanifoldModel,
    values: Sequence[UnitriangularElement],
) -> PolynomialSequence:
    """Recover Taylor coefficients from the values g(0), ..., g(s).

    Uses the inductive inversion g_0 = g(0), g_j = (g_0 g_1^C(j,1) ...
    g_{j-1}^C(j,j-1))^{-1} g(j); raises TaylorLevelError if some g_j fails
    its level membership, meaning the values were not a polynomial for
    this (pre)filtration.
    """
    s = model.degree
    if len(values) != s + 1:
        raise ValueError(f"need the values g(0)..g({s})")
    coeffs: list[UnitriangularElement] = []
    for j, target in enumerate(values):
        partial = model.identity()
        for i, g in enumerate(coeffs):
            e = binomial(j, i)
            if e != 0:
                partial = partial * g**e
        coeffs.append(partial.inverse() * target)
    poly = PolynomialSequence(model, tuple(coeffs))
    for j, target in enumerate(values):
        if taylor_eval(poly, j).entries != target.entries:
            raise AssertionError("expansion failed to reproduce its input values")
    return poly

