"""Constructive synthesis of q-periodic, A-irrational polynomial sequences.

The construction walks the filtration one level at a time.  Entering
stage i the sequence g satisfies g(n+q)^{-1} g(n) in Gamma . G_i; the
stage splits that defect into a lattice polynomial and a G_i-valued
remainder, cancels the remainder with a G_i-valued antiderivative whose
coefficients solve an explicit triangular system by exact nilpotent q-th
roots, and then tops up the i-th coefficient with a q-th root mod the
level lattice chosen so the coefficient is irrational at the requested
complexity bound.  Each stage proves its invariant once, exactly, and
the next stage relies on it; a failure is a bug, never an expected
outcome.  Stage s proves q-periodicity mod the lattice.

``is_periodic`` is that proof as a predicate: the defect's Taylor
coefficients have integral coordinates.  ``verify_periodicity`` is the
independent sampled reference.  ``character_sum`` and ``vertical_sum``
read one orbit g(0), ..., g(q-1) per q, split into fractional and
integer parts and cached on the sequence once ``is_periodic`` holds and
the level-1 block is proven linear in n for every level-1 character at
once; a character sum is then its closed form in the level-1 blocks of
g_0 and g_1, which the proof reads and the cache keeps.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from .counting import as_fraction
from .nil.characters import LevelCharacter, _annihilator_rows, _dot, _is_character, _l1_ball
from .nil.characters import annihilator_lattice, element_irrational
from .nil.model import FilteredNilmanifoldModel, UnitriangularElement
from .nil.poly import PolynomialSequence, binomial, taylor_eval, taylor_expand
from .primes import smallest_prime_factor


class ConstructionError(ValueError):
    """Preconditions of a constructive routine were violated."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


def _nonnegative_bound(bound) -> Fraction:
    bound_f = as_fraction(bound)
    _require(bound_f >= 0, f"the irrationality bound must be nonnegative, got {bound}")
    return bound_f


def irrational_qth_root(
    model: FilteredNilmanifoldModel,
    i: int,
    h: UnitriangularElement,
    q: int,
    bound,
    rng: np.random.Generator | int | None = 0,
) -> UnitriangularElement:
    """A q-th root w mod the level-i lattice such that h w is irrational.

    Needs q >= (2A)^{r_i} and p_1(q) >= A; under those the set of good
    integer coordinate vectors t has density at least 1 - (A+1)^r / q, so
    seeded random probing finds one almost immediately.  After
    10 (A+1)^r rejections we fall back to a lexicographic sweep, which
    the counting bound guarantees will succeed.

    The rejection test is exact: t is good when k . t != a_k mod q for
    every integer vector 0 < |k|_1 <= A, where a_k = -k . psi_i(h^q)
    reduced mod q and non-integral a_k impose no constraint.  This runs
    over all small k, not only genuine characters, so the product h w is
    irrational in the stronger sense as well.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    bound_f = _nonnegative_bound(bound)
    r = model.block_rank(i)
    if r == 0:
        return model.identity()
    _require(q >= (2 * bound_f) ** r, f"need q >= (2A)^r_i = {(2 * bound_f) ** r}")
    _require(smallest_prime_factor(q) >= bound_f, f"need p_1({q}) >= {bound}")
    a_int = int(bound_f)  # |k|_1 <= A has integer solutions only up to floor(A)

    psi_hq = model.psi_level(i, h**q)
    constraints: list[tuple[tuple[int, ...], int]] = []
    for k in _l1_ball(r, a_int):
        a_k = -_dot(k, psi_hq)
        if a_k.denominator == 1:
            constraints.append((k, int(a_k) % q))

    def good(t) -> bool:
        return all(
            sum(ki * ti for ki, ti in zip(k, t)) % q != a_k for k, a_k in constraints
        )

    chosen = None
    max_rejects = 10 * (a_int + 1) ** r
    for _ in range(max_rejects):
        t = tuple(int(x) for x in rng.integers(0, q, size=r))
        if good(t):
            chosen = t
            break
    if chosen is None:
        for t in iter_product(range(q), repeat=r):
            if good(t):
                chosen = t
                break
    if chosen is None:
        raise AssertionError(
            "no admissible root coordinates exist; the counting bound rules this out "
            "under the stated preconditions"
        )
    gamma = model.from_level_coords(i, chosen)
    w = gamma.root(q)
    if not model.in_lattice_level(w**q, i):
        raise AssertionError("w^q left the level lattice")
    ok, witness = element_irrational(model, i, h * w, bound)
    if not ok:
        raise AssertionError(f"constructed product failed irrationality: {witness}")
    return w


def _lattice_head_split(g: PolynomialSequence, i: int) -> PolynomialSequence:
    """h_tilde in h = gamma . h_tilde, with gamma a lattice polynomial and h_tilde G_i-valued."""
    model = g.model
    s = model.degree
    cutoff = model.dim - model.level_dim(i)
    gamma_coeffs = []
    for h_j in g.coefficients:
        # integral: the previous stage proved _integral_above_level(g, i), and at
        # stage 1 the head is empty
        head = list(model.head_coords(h_j, cutoff))
        gamma_coeffs.append(model.from_coords(head + [Fraction(0)] * (model.dim - cutoff)))
    gamma = PolynomialSequence(model, tuple(gamma_coeffs))
    tilde_values = [
        taylor_eval(gamma, n).inverse() * taylor_eval(g, n) for n in range(s + 1)
    ]
    h_tilde = taylor_expand(model, tilde_values)
    for j, c in enumerate(h_tilde.coefficients):
        if not model.in_level(c, i):
            raise AssertionError(f"remainder coefficient {j} escaped G_{i}")
    return h_tilde


def _antiderivative(
    model: FilteredNilmanifoldModel, h_tilde: PolynomialSequence, i: int, q: int
) -> tuple[PolynomialSequence, UnitriangularElement]:
    """Solve ell_j^q ell_{j+1}^C(q,2) ... ell_i^C(q,i-j+1) = h~_{j-1} downward.

    Returns the polynomial with coefficients ell_1..ell_i (identity
    elsewhere) and the top coefficient ell_i.
    """
    ell: dict[int, UnitriangularElement] = {}
    for j in range(i, 0, -1):
        tail = model.identity()
        for u in range(j + 1, i + 1):
            tail = tail * ell[u] ** binomial(q, u - j + 1)
        rhs = h_tilde.coefficients[j - 1] * tail.inverse()
        ell[j] = rhs.root(q)
    coeffs = [model.identity()]
    for j in range(1, model.degree + 1):
        coeffs.append(ell.get(j, model.identity()))
    return PolynomialSequence(model, tuple(coeffs)), ell.get(i, model.identity())


def _integral_above_level(defect: PolynomialSequence, i: int) -> bool:
    """Exact test that the defect n -> g(n+q)^{-1} g(n) lies in Gamma . G_i for every n.

    Equivalent to every Taylor coefficient of the defect having integral
    coordinates above level i, by the subgroup-valued Taylor lemma.  At
    i = s + 1 the level is trivial and the test is q-periodicity mod Gamma.
    """
    model = defect.model
    cutoff = model.dim - model.level_dim(i)
    return all(
        c.denominator == 1 for g in defect.coefficients for c in model.head_coords(g, cutoff)
    )


def build_periodic_irrational(
    model: FilteredNilmanifoldModel,
    q: int,
    bound,
    seed: int = 0,
) -> PolynomialSequence:
    """A q-periodic (mod the lattice), A-irrational polynomial sequence.

    Requires q >= (2A)^m, p_1(q) >= A and p_1(q) > s, the degree; q may
    be composite.  Periodicity and irrationality are verified exactly
    before the sequence is returned.
    """
    _require(not model.prefiltration, "construction needs a genuine filtration")
    bound_f = _nonnegative_bound(bound)
    m = model.dim
    s = model.degree
    _require(q >= (2 * bound_f) ** m, f"need q >= (2A)^m = {(2 * bound_f) ** m}")
    _require(smallest_prime_factor(q) >= bound_f, f"need p_1({q}) >= {bound}")
    # q | C(q, j) for j <= s makes the appended root's contribution periodic;
    # that needs every prime factor of q to exceed the degree, prime q included
    _require(smallest_prime_factor(q) > s, f"need p_1({q}) > degree {s}")
    rng = np.random.default_rng(seed)
    g = PolynomialSequence.identity(model)
    defect = g.defect(q)
    for i in range(1, s + 1):
        h_tilde = _lattice_head_split(defect, i)
        ell_poly, ell_top = _antiderivative(model, h_tilde, i, q)
        w = irrational_qth_root(model, i, ell_top, q, bound_f, rng)
        values = [
            taylor_eval(g, n) * taylor_eval(ell_poly, n) * w ** binomial(n, i)
            for n in range(s + 1)
        ]
        g = taylor_expand(model, values)
        defect = g.defect(q)
        if not _integral_above_level(defect, i + 1):
            raise AssertionError(f"stage {i} failed its defect invariant")
        for j in range(1, i + 1):
            ok, witness = element_irrational(model, j, g.coefficients[j], bound_f)
            if not ok:
                raise AssertionError(f"stage {i} lost irrationality at level {j}: {witness}")
    # stage s checked q-periodicity mod the lattice (level s + 1) and every level's irrationality
    return g


def is_periodic(p: PolynomialSequence, q: int) -> bool:
    """Exact proof that g(n+q)^{-1} g(n) lies in Gamma for every integer n."""
    return _integral_above_level(p.defect(q), p.model.degree + 1)


def verify_periodicity(p: PolynomialSequence, q: int, sample_range: int) -> bool:
    """Check g(n+q)^{-1} g(n) in Gamma for n in [-sample_range, sample_range]."""
    model = p.model
    for n in range(-sample_range, sample_range + 1):
        d = taylor_eval(p, n + q).inverse() * taylor_eval(p, n)
        if not model.in_lattice(d):
            return False
    return True


def _level1_taylor(p: PolynomialSequence) -> list[tuple[Fraction, ...]]:
    """The level-1 blocks of psi(g_0) and psi(g_1): the orbit's start and step."""
    model = p.model
    blk = model.block(1)
    return [model.head_coords(g, blk.stop)[blk.start :] for g in p.coefficients[:2]]


def _orbit(
    p: PolynomialSequence, q: int
) -> tuple[list[tuple[list[Fraction], list[int]]], list[tuple[Fraction, ...]]]:
    """(split sweeps (t, a) of g(0), ..., g(q-1), ``_level1_taylor(p)``), cached per q once proven.

    The proof is ``is_periodic`` plus level-1 linearity: each vector of
    the saturated frequency basis ``annihilator_lattice(model, 1)`` is
    integral on the level-1 drift t(n) - psi(g_0) - n psi(g_1), so, as
    psi({g(n)}) = t(n) - a(n) with a(n) integral, every level-1
    character phase of {g(n)} is theta0 + n theta1 mod 1.
    """
    cache = p.__dict__.setdefault("_orbit", {})
    if q not in cache:
        _require(is_periodic(p, q), "sequence is not q-periodic mod the lattice")
        model = p.model
        blk = model.block(1)
        start, step = _level1_taylor(p)
        basis = annihilator_lattice(model, 1)
        orbit = [model.malcev_sweep(taylor_eval(p, n), model.dim, split=True) for n in range(q)]
        for n, (coords, _int_parts) in enumerate(orbit):
            drift = [t - a - n * b for t, a, b in zip(coords[blk.start : blk.stop], start, step)]
            if any(_dot(k, drift).denominator != 1 for k in basis):
                raise AssertionError("level-1 phase is not linear in n; orbit is inconsistent")
        cache[q] = orbit, [start, step]
    return cache[q]


def character_sum(p: PolynomialSequence, xi: LevelCharacter, q: int) -> complex:
    """E_{n in [q]} e(xi-phase of the level-1 coordinates of {g(n)}).

    ``_orbit`` proves the phase is theta0 + n theta1 mod 1, with theta0
    and theta1 read off the Taylor coefficients g_0 and g_1, so the sum is
    a full-period geometric sum: exactly 0 unless q theta1 vanishes mod q,
    in which case it is a single rounded root of unity.
    """
    if xi.level != 1:
        raise ValueError("character sums are taken against level-1 characters")
    model = p.model
    k = xi.frequency
    if len(k) != model.block_rank(1):
        raise ValueError("frequency length does not match the level-1 block")
    if not _is_character(k, _annihilator_rows(model, 1)):
        raise ValueError(f"frequency {k} is not a level-1 character of the model")
    theta0, theta1 = (_dot(k, block) for block in _orbit(p, q)[1])
    step = theta1 * q
    if step.denominator != 1:
        raise AssertionError("periodic orbit must have q * theta1 integral")
    if int(step) % q != 0:
        return 0j
    angle = theta0 % 1  # one final rounding below
    return cmath.exp(2j * cmath.pi * float(angle))


def vertical_sum(p: PolynomialSequence, q: int) -> float:
    """|E_{n in [q]} e(central coordinate of {g(n)})|.

    The central coordinate is the last Mal'cev coordinate; on the
    Heisenberg models this probes the equidistribution of the vertical
    circle, at Gauss-sum scale for a generic irrational orbit.
    """
    total = 0j
    for coords, int_parts in _orbit(p, q)[0]:
        # psi({g})_m = t_m - a_m, from the sweep that splits g = {g}[g]
        total += cmath.exp(2j * cmath.pi * float(coords[-1] - int_parts[-1]))
    return abs(total) / q
