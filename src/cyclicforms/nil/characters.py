"""Level characters, irrationality testing, and coefficient factorization.

An i-th-level character is an integer frequency vector k acting on the
level-i coordinate block; it must kill the subgroup generated by G_{i+1}
and the commutators [G_j, G_{i-j}].  In the rational matrix models that
subgroup is the exponential of an exact rational span, so the constraint
on k is a finite exact orthogonality condition and everything here is
decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .model import FilteredNilmanifoldModel, UnitriangularElement
from .poly import PolynomialSequence


@dataclass(frozen=True)
class LevelCharacter:
    level: int
    frequency: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequency", tuple(int(k) for k in self.frequency))

    @property
    def complexity(self) -> int:
        return sum(abs(k) for k in self.frequency)

    def value(self, model: FilteredNilmanifoldModel, g: UnitriangularElement) -> Fraction:
        """xi(g) = k . psi_i(g) for g in G_i."""
        return _dot(self.frequency, model.psi_level(self.level, g))


def _dot(k: Sequence[int], coords: Sequence[Fraction]) -> Fraction:
    """k . coords, exactly."""
    return sum((ki * t for ki, t in zip(k, coords)), Fraction(0))


def _level_brackets(model: FilteredNilmanifoldModel, i: int) -> Iterator[tuple[int, int]]:
    """Index pairs a != b with X_a in G_j and X_b in G_{i-j} for some 0 <= j <= i."""
    for j in range(i + 1):
        for a in range(model.dim - model.level_dim(j), model.dim):
            for b in range(model.dim - model.level_dim(i - j), model.dim):
                if a != b:
                    yield a, b


def _annihilator_rows(model: FilteredNilmanifoldModel, i: int) -> list[tuple[Fraction, ...]]:
    """Level-i block components of the span that characters must kill.

    Generators: logs of the G_{i+1} basis (block components all zero, so
    they impose nothing) and the brackets [X_a, X_b] with X_a in G_j,
    X_b in G_{i-j}.  Corrections from iterated commutators land in
    G_{i+1}, whose block-i components vanish, so this plain span already
    is the Lie algebra of the generated subgroup.
    """
    blk = model.block(i)
    rows = {tuple(model.bracket_coords(a, b)[blk.start : blk.stop])
            for a, b in _level_brackets(model, i)}
    return sorted(row for row in rows if any(row))


def _is_character(k: Sequence[int], rows: Sequence[Sequence[Fraction]]) -> bool:
    """k kills every row of ``_annihilator_rows``: it is a character's frequency."""
    return not any(_dot(k, row) for row in rows)


def _l1_ball(rank: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero integer vectors with |k|_1 <= bound, in lexicographic order."""
    for k in product(range(-bound, bound + 1), repeat=rank):
        if any(k) and sum(abs(x) for x in k) <= bound:
            yield k


def annihilator_lattice(model: FilteredNilmanifoldModel, i: int) -> list[tuple[int, ...]]:
    """A saturated integer basis of the frequency vectors at level i.

    Every i-th-level character has its frequency in the lattice spanned
    by these vectors, so checking a value on the basis checks it on all
    characters at once, regardless of complexity.
    """
    if not 1 <= i <= model.degree:
        raise ValueError(f"level must be in [1, {model.degree}]")
    rank = model.block_rank(i)
    if rank == 0:
        return []
    rows = _annihilator_rows(model, i)
    if not rows:
        return [tuple(int(a == b) for b in range(rank)) for a in range(rank)]
    from ..forms import smith_normal_form

    int_rows = []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        int_rows.append([int(x * scale) for x in row])
    s, _u, v = smith_normal_form(int_rows)
    diag = [s[j][j] for j in range(min(len(s), len(s[0])))]
    r = sum(1 for d in diag if d != 0)
    # kernel columns of V are a saturated basis of {k : rows . k = 0}
    return [tuple(v[a][j] for a in range(rank)) for j in range(r, rank)]


def enumerate_characters(
    model: FilteredNilmanifoldModel, i: int, complexity_bound
) -> list[LevelCharacter]:
    """All nontrivial i-th-level characters of complexity at most the bound."""
    if not 1 <= i <= model.degree:
        raise ValueError(f"level must be in [1, {model.degree}]")
    bound = math.floor(complexity_bound)
    rank = model.block_rank(i)
    if rank == 0 or bound < 1:
        return []
    rows = _annihilator_rows(model, i)
    return [
        LevelCharacter(level=i, frequency=k) for k in _l1_ball(rank, bound) if _is_character(k, rows)
    ]


def is_irrational(p: PolynomialSequence, complexity_bound):
    """Exact test: no nontrivial level character of bounded complexity maps
    the matching Taylor coefficient into Z.  Returns (flag, witness);
    the witness on failure is the violating (level, character, value).
    """
    for i in range(1, p.model.degree + 1):
        ok, witness = element_irrational(p.model, i, p.coefficients[i], complexity_bound)
        if not ok:
            return False, witness
    return True, None


def element_irrational(
    model: FilteredNilmanifoldModel, i: int, g: UnitriangularElement, complexity_bound
):
    """A-irrationality of a single element of G_i; same witness contract."""
    characters = enumerate_characters(model, i, complexity_bound)
    block = model.psi_level(i, g) if characters else ()
    for xi in characters:
        v = _dot(xi.frequency, block)
        if v.denominator == 1:
            return False, (i, xi, v)
    return True, None


def _solve_dot(k: Sequence[int], target: int):
    """Integer t with k . t = target, or None if gcd(k) does not divide it; k is nonzero."""
    if target % math.gcd(*k) != 0:
        return None
    # accumulate gcds left to right, tracking Bezout coefficients
    acc = 0
    acc_expr = [0] * len(k)
    for idx, x in enumerate(k):
        if x == 0:
            continue
        if acc == 0:
            acc = abs(x)
            acc_expr[idx] = 1 if x > 0 else -1
            continue
        g2, u, v = _egcd(acc, x)
        acc_expr = [u * c for c in acc_expr]
        acc_expr[idx] += v
        acc = g2
    scale = target // acc
    return [c * scale for c in acc_expr]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


class FactorizationError(ValueError):
    """Hypotheses of the coefficient factorization were violated."""


def factor_coefficient(
    model: FilteredNilmanifoldModel,
    i: int,
    g_i: UnitriangularElement,
    complexity_bound,
    q: int | None = None,
):
    """Split a non-irrational coefficient as g_i = g_i' gamma_i.

    Picks the first violated character xi (so the caller usually runs the
    irrationality test first), solves k . t = xi(g_i) over the integers,
    and returns (g_i', gamma_i, xi) with gamma_i = psi_i^{-1}(t) in the
    level-i lattice and xi(g_i') = 0 exactly.  The divisibility
    hcf(k) | xi(g_i) is guaranteed when the caller's hypotheses
    (g comes from a sequence with g(qZ) in Gamma and p_1(q) > bound)
    hold; a failure raises FactorizationError.
    """
    if q is not None:
        from ..primes import smallest_prime_factor

        if smallest_prime_factor(q) <= complexity_bound:
            raise FactorizationError(
                f"need p_1({q}) > complexity bound {complexity_bound}"
            )
    flag, witness = element_irrational(model, i, g_i, complexity_bound)
    if flag:
        raise FactorizationError("coefficient is already irrational at this bound")
    _, xi, value = witness
    target = int(value)
    t = _solve_dot(xi.frequency, target)
    if t is None:
        raise FactorizationError(
            f"hcf{xi.frequency} does not divide xi(g_i) = {target}; "
            "caller hypotheses violated"
        )
    gamma = model.from_level_coords(i, t)
    g_prime = g_i * gamma.inverse()
    if not model.in_lattice_level(gamma, i):
        raise AssertionError("gamma left the level lattice")
    if xi.value(model, g_prime) != 0:
        raise AssertionError("g_i' escaped the character kernel")
    if (g_prime * gamma).entries != g_i.entries:
        raise AssertionError("factorization does not multiply back")
    return g_prime, gamma, xi
