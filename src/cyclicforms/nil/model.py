"""Exact-rational models of filtered nilmanifolds.

A model is a unitriangular rational matrix group with a fixed adapted
basis X_1..X_m of its Lie algebra and level dimensions m_0 >= m_1 >= ...
Coordinates of the second kind (peel off exp(t_1 X_1), then exp(t_2 X_2),
...) identify the lattice with the integer-coordinate elements and each
level subgroup with a coordinate tail.  All arithmetic is Fractions; no
floating point ever touches a group element.

Every coordinate is read by one sweep, ``malcev_sweep``: ``malcev_coords``,
``head_coords`` and the level tests are the plain sweep, and
``frac_int_parts`` is the same sweep splitting off integer parts as it goes.

Exponentials are polynomials with precomputed terms (``exp_terms``): the
model keeps the terms of each basis matrix and an element keeps its log
and that log's terms, so ``basis_element(a, t)`` and every power, root
and inverse of g (``g ** k``, ``g.root(q)`` and ``g.inverse()``, each
exp(k log g) with k an integer, 1/q or -1) are a few scalar
multiply-adds, with no matrix product.  The coordinate sweep reads the
same cached log.  The built-in models use matrix units, for which
``basis_element(a, t)`` is I + t X_a.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..forms import RationalSpan
from .matrices import (
    Matrix,
    exp_poly,
    exp_terms,
    frac,
    is_strictly_upper,
    is_unitriangular,
    mat,
    mat_commutator,
    mat_identity,
    mat_mul,
    nilpotent_log,
    upper_entries,
)


class OutsideGroupError(ValueError):
    """Element is not in the modeled group."""


@dataclass(frozen=True)
class UnitriangularElement:
    """A unitriangular rational matrix, immutable and exact."""

    entries: Matrix

    def __post_init__(self) -> None:
        rows = mat(self.entries)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        if not is_unitriangular(rows):
            raise ValueError("matrix must be unitriangular")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, dim: int) -> "UnitriangularElement":
        return cls(mat_identity(dim))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "UnitriangularElement") -> "UnitriangularElement":
        return UnitriangularElement(mat_mul(self.entries, other.entries))

    def inverse(self) -> "UnitriangularElement":
        return self**-1

    def __pow__(self, k: int) -> "UnitriangularElement":
        if k == 0:
            return UnitriangularElement.identity(self.dim)
        # g^k = exp(k log g), a polynomial in k whatever the size of k
        return UnitriangularElement(exp_poly(self._log_terms(), self.dim, k))

    def log(self) -> Matrix:
        cached = self.__dict__.get("_log")
        if cached is None:
            cached = nilpotent_log(self.entries)
            object.__setattr__(self, "_log", cached)
        return cached

    def _log_terms(self):
        cached = self.__dict__.get("_log_exp_terms")
        if cached is None:
            cached = exp_terms(self.log())
            object.__setattr__(self, "_log_exp_terms", cached)
        return cached

    def root(self, q: int) -> "UnitriangularElement":
        """The exact q-th root exp(log(g)/q)."""
        if q == 0:
            raise ValueError("zeroth root")
        return UnitriangularElement(exp_poly(self._log_terms(), self.dim, Fraction(1, q)))

    def is_identity(self) -> bool:
        return self.entries == mat_identity(self.dim)

    def __repr__(self) -> str:
        rows = ["[" + ", ".join(str(x) for x in r) + "]" for r in self.entries]
        return "UnitriangularElement(" + "; ".join(rows) + ")"


def _validate_level_dims(level_dims: Sequence[int], m: int, prefiltration: bool) -> tuple[int, ...]:
    dims = tuple(int(x) for x in level_dims)
    if len(dims) < 2:
        raise ValueError("need level dimensions m_0, m_1, ..., m_s")
    if dims[0] != m:
        raise ValueError("m_0 must equal the basis size")
    if not prefiltration and dims[1] != m:
        raise ValueError("a filtration has G_0 = G_1 = G; pass prefiltration=True otherwise")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise ValueError("level dimensions must be non-increasing")
    if dims[-1] <= 0:
        raise ValueError("G_s must be nontrivial (drop empty levels)")
    return dims


@dataclass(frozen=True)
class FilteredNilmanifoldModel:
    """(G/Gamma, G_bullet, X) realized by unitriangular rational matrices.

    ``basis`` lists the adapted basis X_1..X_m as strictly upper-triangular
    matrices; ``level_dims`` is (m_0, m_1, ..., m_s) with m_{s+1} = 0
    implicit, so G_i is spanned by the last m_i basis vectors.
    """

    kappa: int
    basis: tuple[Matrix, ...]
    level_dims: tuple[int, ...]
    prefiltration: bool = False
    name: str | None = None

    def __post_init__(self) -> None:
        basis = tuple(mat(b) for b in self.basis)
        for b in basis:
            if len(b) != self.kappa or any(len(r) != self.kappa for r in b):
                raise ValueError("basis matrices must be kappa x kappa")
            if not is_strictly_upper(b):
                raise ValueError("basis matrices must be strictly upper-triangular")
        object.__setattr__(self, "basis", basis)
        dims = _validate_level_dims(self.level_dims, len(basis), self.prefiltration)
        object.__setattr__(self, "level_dims", dims)
        self._validate_structure()

    # -- shape helpers ------------------------------------------------------

    @property
    def dim(self) -> int:
        """m, the dimension of the group."""
        return len(self.basis)

    @property
    def degree(self) -> int:
        return len(self.level_dims) - 1

    def level_dim(self, i: int) -> int:
        """m_i, with m_i = 0 beyond the degree."""
        if i < 0:
            raise ValueError("levels start at 0")
        return self.level_dims[i] if i <= self.degree else 0

    def block(self, i: int) -> range:
        """0-based basis indices of the level-i block: [m - m_i, m - m_{i+1})."""
        return range(self.dim - self.level_dim(i), self.dim - self.level_dim(i + 1))

    def block_rank(self, i: int) -> int:
        """r_i = m_i - m_{i+1}."""
        return self.level_dim(i) - self.level_dim(i + 1)

    def level_of_index(self, a: int) -> int:
        """Deepest level i with basis index a (0-based) inside G_i."""
        lvl = 0
        for i in range(len(self.level_dims)):
            if a >= self.dim - self.level_dims[i]:
                lvl = i
        return lvl

    # -- validation ---------------------------------------------------------

    def _span(self) -> RationalSpan:
        return RationalSpan([upper_entries(b) for b in self.basis])

    def _validate_structure(self) -> None:
        span = self._span()
        if span.rank != self.dim:
            raise ValueError("basis matrices must be linearly independent")
        object.__setattr__(self, "_coord_span", span)
        # one bracket per pair a < b; bracket_coords(b, a) is its negation
        brackets: dict[tuple[int, int], list[Fraction]] = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                w = mat_commutator(self.basis[a], self.basis[b])
                coords = span.coordinates(upper_entries(w))
                if coords is None:
                    raise ValueError("basis is not bracket-closed")
                # each tail span(X_{j+1}..X_m) is an ideal: [X_a, X_b] stays in span(X_{b+1}..)
                j = next((c for c in range(b) if coords[c] != 0), None)
                if j is not None:
                    raise ValueError(f"span(X_{j + 2}..X_{self.dim}) is not an ideal")
                # [G_la, G_lb] inside G_{la+lb}; past the degree G_{la+lb} is trivial
                la, lb = self.level_of_index(a), self.level_of_index(b)
                cutoff = self.dim - self.level_dim(la + lb)
                if any(coords[:cutoff]):
                    raise ValueError(
                        f"[G_{la}, G_{lb}] escapes G_{la + lb}: bracket of X_{a+1}, X_{b+1}"
                    )
                brackets[(a, b)] = coords
        object.__setattr__(self, "_bracket_coords", brackets)
        # lattice closure spot check on products (each inverse exp(-X_a) has coordinates -e_a)
        gens = [self.basis_element(a, 1) for a in range(self.dim)]
        for x in gens:
            for y in gens:
                if not self.in_lattice(x * y):
                    raise ValueError("lattice is not closed under products")

    # -- elements and coordinates -------------------------------------------

    def identity(self) -> UnitriangularElement:
        return UnitriangularElement.identity(self.kappa)

    def basis_element(self, index: int, t) -> UnitriangularElement:
        """exp(t X_{index+1}), a polynomial in t."""
        terms = self.__dict__.get("_basis_terms")
        if terms is None:
            terms = tuple(exp_terms(b) for b in self.basis)
            object.__setattr__(self, "_basis_terms", terms)
        return UnitriangularElement(exp_poly(terms[index], self.kappa, t))

    def from_coords(self, coords: Sequence) -> UnitriangularElement:
        """exp(t_1 X_1) exp(t_2 X_2) ... exp(t_m X_m)."""
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates")
        out = self.identity()
        for a, t in enumerate(map(frac, coords)):  # a float zero is refused too
            if t:
                out = out * self.basis_element(a, t)
        return out

    def _coord_at(self, g: UnitriangularElement, j: int) -> Fraction:
        """Mal'cev coordinate j of g, read from log g: g's coordinates before j vanish."""
        if g.dim != self.kappa:
            raise OutsideGroupError("wrong matrix dimension")
        span: RationalSpan = self._coord_span  # type: ignore[attr-defined]
        c = span.coordinates(upper_entries(g.log()))
        if c is None:
            raise OutsideGroupError("element leaves the basis span")
        if any(c[a] != 0 for a in range(j)):
            raise OutsideGroupError("residual has support below the peel index")
        return c[j]

    def malcev_sweep(
        self, g: UnitriangularElement, count: int, split: bool = False
    ) -> tuple[list[Fraction], list[int]]:
        """(t_1..t_count, a_1..a_count): one left-to-right sweep, one log per index.

        Step j reads t_j off the residual, whose coordinates before j
        vanish, right-multiplies it by exp(-a_j X_j), which lowers t_j by
        a_j and fixes the earlier coordinates, and peels exp((t_j - a_j) X_j)
        from the left.  Unsplit, a_j = 0 and t = psi(g).  Split,
        a_j = floor(t_j), psi({g}) = t - a and [g] = exp(a_m X_m) ...
        exp(a_1 X_1).  A full sweep raises OutsideGroupError unless the
        residual ends at the identity, that is unless g = {g}[g].
        """
        residual = g
        coords: list[Fraction] = []
        int_parts: list[int] = []
        for j in range(count):
            t = self._coord_at(residual, j)
            a = math.floor(t) if split else 0
            if a != 0:
                residual = residual * self.basis_element(j, -a)
            if t != a:
                residual = self.basis_element(j, a - t) * residual
            coords.append(t)
            int_parts.append(a)
        if count == self.dim and not residual.is_identity():
            raise OutsideGroupError("peeling left a nontrivial residual")
        return coords, int_parts

    def malcev_coords(self, g: UnitriangularElement) -> tuple[Fraction, ...]:
        """psi(g): the unsplit sweep over every index."""
        return tuple(self.malcev_sweep(g, self.dim)[0])

    def head_coords(self, g: UnitriangularElement, count: int) -> tuple[Fraction, ...]:
        """The first ``count`` Mal'cev coordinates, without peeling the rest.

        Exact for any g in the modeled group; cheaper than the full map
        when only a leading block is needed.
        """
        return tuple(self.malcev_sweep(g, count)[0])

    def _level_coords(self, g: UnitriangularElement, i: int) -> tuple[Fraction, ...] | None:
        """psi(g) when g is in G_i (its first m - m_i coordinates vanish), else None."""
        coords = self.malcev_coords(g)
        return None if any(coords[: self.dim - self.level_dim(i)]) else coords

    def in_lattice(self, g: UnitriangularElement) -> bool:
        try:
            return self.in_lattice_level(g, 0)
        except OutsideGroupError:
            return False

    def in_level(self, g: UnitriangularElement, i: int) -> bool:
        """g in G_i: the first m - m_i coordinates vanish."""
        return self._level_coords(g, i) is not None

    def in_lattice_level(self, g: UnitriangularElement, i: int) -> bool:
        coords = self._level_coords(g, i)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def psi_level(self, i: int, g: UnitriangularElement) -> tuple[Fraction, ...]:
        """psi_i(g): the level-i coordinate block, for g in G_i."""
        coords = self._level_coords(g, i)
        if coords is None:
            raise ValueError(f"element is not in G_{i}")
        blk = self.block(i)
        return coords[blk.start : blk.stop]

    def from_level_coords(self, i: int, block_coords: Sequence) -> UnitriangularElement:
        """psi_i^{-1}: the element of G_i with the given block and zero tail."""
        blk = self.block(i)
        if len(block_coords) != len(blk):
            raise ValueError(f"level {i} block has rank {len(blk)}")
        return self.from_coords([0] * blk.start + list(block_coords) + [0] * (self.dim - blk.stop))

    def frac_int_parts(
        self, g: UnitriangularElement
    ) -> tuple[UnitriangularElement, UnitriangularElement]:
        """({g}, [g]) with g = {g}[g], psi({g}) in [0,1)^m, [g] in Gamma: the split sweep."""
        coords, int_parts = self.malcev_sweep(g, self.dim, split=True)
        fractional = self.from_coords([t - a for t, a in zip(coords, int_parts)])
        lattice = self.identity()
        for j in reversed(range(self.dim)):
            if int_parts[j] != 0:
                lattice = lattice * self.basis_element(j, int_parts[j])
        if (fractional * lattice).entries != g.entries:
            raise AssertionError("fractional/integral split failed to reconstruct")
        return fractional, lattice

    def bracket_coords(self, a: int, b: int) -> list[Fraction]:
        """Coordinates of [X_{a+1}, X_{b+1}] in the basis; antisymmetric in a, b."""
        if a == b:
            return [Fraction(0)] * self.dim
        if a > b:
            return [-c for c in self._bracket_coords[(b, a)]]  # type: ignore[attr-defined]
        return self._bracket_coords[(a, b)]  # type: ignore[attr-defined]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "kappa": self.kappa,
            "basis": [[[str(x) for x in row] for row in b] for b in self.basis],
            "levelDims": list(self.level_dims),
            "degree": self.degree,
            "prefiltration": self.prefiltration,
        }
        if self.name:
            obj["name"] = self.name
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FilteredNilmanifoldModel":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("expected a model object with kappa, basis and levelDims")
        try:  # frac refuses floats, so a float basis entry lands here too
            kappa = _json_int(obj["kappa"], "kappa")
            basis = tuple(mat(b) for b in obj["basis"])
            dims = tuple(_json_int(x, "levelDims entry") for x in obj["levelDims"])
        except TypeError as exc:
            raise ValueError(f"malformed model field: {exc}") from None
        if "degree" in obj and obj["degree"] != len(dims) - 1:
            raise ValueError("degree must match levelDims length minus one")
        prefiltration = obj.get("prefiltration", False)
        if not isinstance(prefiltration, bool):
            raise ValueError('"prefiltration" must be a JSON boolean')
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError('"name" must be a string')
        return cls(
            kappa=kappa,
            basis=basis,
            level_dims=dims,
            prefiltration=prefiltration,
            name=name,
        )

    @classmethod
    def load(cls, path) -> "FilteredNilmanifoldModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _json_int(value, what: str) -> int:
    """A JSON integer as is; floats, strings and booleans are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"non-integer {what} {value!r}")
    return value


# ---------------------------------------------------------------------------
# built-in models


def _entry_matrix(kappa: int, i: int, j: int) -> Matrix:
    rows = [[Fraction(0)] * kappa for _ in range(kappa)]
    rows[i][j] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def heisenberg_lcs() -> FilteredNilmanifoldModel:
    """3x3 Heisenberg group with its lower central series; degree 2."""
    x = _entry_matrix(3, 0, 1)
    y = _entry_matrix(3, 1, 2)
    z = _entry_matrix(3, 0, 2)
    return FilteredNilmanifoldModel(
        kappa=3,
        basis=(x, y, z),
        level_dims=(3, 3, 1),
        name="heisenberg-lcs",
    )


def heisenberg_deg3() -> FilteredNilmanifoldModel:
    """Heisenberg group refiltered to degree 3 with G_2 = G_3 = center."""
    x = _entry_matrix(3, 0, 1)
    y = _entry_matrix(3, 1, 2)
    z = _entry_matrix(3, 0, 2)
    return FilteredNilmanifoldModel(
        kappa=3,
        basis=(x, y, z),
        level_dims=(3, 3, 1, 1),
        name="heisenberg-deg3",
    )


def torus(
    m: int,
    s: int,
    level_dims: Sequence[int] | None = None,
    prefiltration: bool = False,
) -> FilteredNilmanifoldModel:
    """Abelian R^m/Z^m with a coordinate filtration of degree s.

    Default level dimensions taper one coordinate per level and stay at
    least 1: m_i = max(m - i + 1, 1) for i >= 1, so torus(2, 2) has
    G_1 = R^2 and G_2 the last coordinate line.
    """
    if m < 1 or s < 1:
        raise ValueError("need m >= 1 and s >= 1")
    basis = tuple(_entry_matrix(m + 1, 0, j + 1) for j in range(m))
    if level_dims is None:
        dims = (m,) + tuple(max(m - i + 1, 1) for i in range(1, s + 1))
    else:
        dims = tuple(int(x) for x in level_dims)
        if len(dims) != s + 1:
            raise ValueError("level_dims must list m_0..m_s")
    return FilteredNilmanifoldModel(
        kappa=m + 1,
        basis=basis,
        level_dims=dims,
        prefiltration=prefiltration,
        name=f"torus:m={m},s={s}",
    )


_TORUS_RE = re.compile(r"^torus:m=(\d+),s=(\d+)$")


def model_by_name(name: str) -> FilteredNilmanifoldModel:
    """Resolve built-in model names: heisenberg-lcs, heisenberg-deg3, torus:m=..,s=.."""
    if name == "heisenberg-lcs":
        return heisenberg_lcs()
    if name == "heisenberg-deg3":
        return heisenberg_deg3()
    match = _TORUS_RE.match(name)
    if match:
        return torus(int(match.group(1)), int(match.group(2)))
    raise ValueError(
        f"unknown model {name!r}; use heisenberg-lcs, heisenberg-deg3, "
        "torus:m=<m>,s=<s>, or load a JSON model file"
    )
