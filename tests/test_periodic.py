import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicforms import periodic
from cyclicforms.nil import (
    FilteredNilmanifoldModel,
    LevelCharacter,
    PolynomialSequence,
    UnitriangularElement,
    element_irrational,
    enumerate_characters,
    heisenberg_deg3,
    heisenberg_lcs,
    is_irrational,
    model_by_name,
    torus,
)
from cyclicforms.periodic import (
    ConstructionError,
    build_periodic_irrational,
    character_sum,
    irrational_qth_root,
    is_periodic,
    verify_periodicity,
    vertical_sum,
)

_MODELS = ["heisenberg-lcs", "heisenberg-deg3", "torus:m=2,s=2"]
_TINY_BUILDS = [("torus:m=2,s=2", 5, 1), ("heisenberg-deg3", 11, 1), ("heisenberg-lcs", 11, 1)]


@functools.lru_cache(maxsize=None)
def _built(name, q, bound):
    return build_periodic_irrational(model_by_name(name), q, bound, seed=1)


def test_qth_root_abelian_example():
    t = torus(1, 1)
    w = irrational_qth_root(t, 1, t.identity(), 37, 2, rng=0)
    coords = t.malcev_coords(w)
    assert coords[0].denominator == 37 or coords[0].denominator == 1
    assert t.in_lattice(w**37)
    num = coords[0] * 37
    assert num.denominator == 1
    for k in (1, 2, -1, -2):
        assert (k * int(num)) % 37 != 0


def test_qth_root_precondition_bound():
    # r = 2, A = 3 requires q >= 36
    m = heisenberg_lcs()
    with pytest.raises(ConstructionError):
        irrational_qth_root(m, 1, m.identity(), 35, 3, rng=0)
    with pytest.raises(ConstructionError, match="nonnegative"):
        irrational_qth_root(m, 1, m.identity(), 37, -1, rng=0)
    w = irrational_qth_root(m, 1, m.identity(), 37, 3, rng=0)
    assert m.in_lattice(w**37)


class _ZeroProbes:
    """A stand-in rng whose every probe is t = 0, which k . t = 0 = a_k rejects when h = 1."""

    def __init__(self):
        self.probes = 0

    def integers(self, low, high, size):
        self.probes += 1
        return np.zeros(size, dtype=np.int64)


def test_qth_root_falls_back_to_the_sweep(monkeypatch):
    probes = _ZeroProbes()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: probes)
    m = heisenberg_lcs()
    w = irrational_qth_root(m, 1, m.identity(), 37, 3, rng=0)
    assert probes.probes == 10 * (3 + 1) ** 2  # every rejection-sampling probe was spent
    assert m.in_lattice(w**37)
    ok, _ = element_irrational(m, 1, w, 3)
    assert ok


def test_qth_root_heisenberg_with_offset():
    m = heisenberg_lcs()
    h = m.from_coords([Fraction(1, 2), 0, 0])
    w = irrational_qth_root(m, 1, h, 41, 2, rng=5)
    ok, _ = element_irrational(m, 1, h * w, 2)
    assert ok
    assert m.in_lattice((w**41))


def test_qth_root_trivial_block():
    m = heisenberg_lcs()
    # level 2 of the lower central series has rank r_2 = 1; level with rank 0
    # only exists on the degree-3 variant
    from cyclicforms.nil import heisenberg_deg3

    d3 = heisenberg_deg3()
    w = irrational_qth_root(d3, 2, d3.identity(), 1000003, 3, rng=0)
    assert w.is_identity()


def test_build_abelian_degree_one():
    t = torus(1, 1)
    g = build_periodic_irrational(t, 37, 2, seed=1)
    assert verify_periodicity(g, 37, 40)
    coeff = t.malcev_coords(g.coefficients[1])[0]
    assert coeff.denominator == 37
    flag, _ = is_irrational(g, 2)
    assert flag


def test_build_preconditions():
    m = heisenberg_lcs()
    with pytest.raises(ConstructionError):
        build_periodic_irrational(m, 199, 3)  # 199 < (2*3)^3 = 216
    t = torus(2, 2)
    with pytest.raises(ConstructionError):
        build_periodic_irrational(t, 15, 2)  # 15 < 16 and p_1 = 3 > A fails too
    with pytest.raises(ConstructionError, match="nonnegative"):
        build_periodic_irrational(t, 11, -1)  # passes every other precondition
    # a prime q at or below the degree: q no longer divides C(q, q) = 1
    for model, q in ((m, 2), (heisenberg_deg3(), 2), (heisenberg_deg3(), 3), (torus(1, 3), 3)):
        with pytest.raises(ConstructionError, match="degree"):
            build_periodic_irrational(model, q, 0)
    assert is_periodic(build_periodic_irrational(torus(1, 3), 5, 0), 5)


def test_build_heisenberg_small():
    m = heisenberg_lcs()
    g = build_periodic_irrational(m, 223, 3, seed=2)
    assert verify_periodicity(g, 223, 30)
    flag, _ = is_irrational(g, 3)
    assert flag


def test_build_is_seed_deterministic():
    t = torus(2, 2)
    a = build_periodic_irrational(t, 37, 2, seed=5)
    b = build_periodic_irrational(t, 37, 2, seed=5)
    assert [c.entries for c in a.coefficients] == [c.entries for c in b.coefficients]


def test_verify_periodicity_examples():
    t = torus(1, 1)
    constant = PolynomialSequence(
        t, (t.from_coords([Fraction(2, 3)]), t.identity())
    )
    assert verify_periodicity(constant, 5, 10)
    linear = PolynomialSequence(
        t, (t.identity(), t.from_coords([Fraction(1, 7)]))
    )
    assert verify_periodicity(linear, 7, 15)
    assert not verify_periodicity(linear, 5, 15)


def test_character_sum_trivial_and_geometric():
    t = torus(1, 1)
    linear = PolynomialSequence(
        t, (t.from_coords([Fraction(1, 3)]), t.from_coords([Fraction(2, 7)]))
    )
    trivial = LevelCharacter(level=1, frequency=(0,))
    assert character_sum(linear, trivial, 7) == 1
    xi = LevelCharacter(level=1, frequency=(1,))
    assert character_sum(linear, xi, 7) == 0
    assert character_sum(linear, LevelCharacter(level=1, frequency=(7,)), 7) != 0
    with pytest.raises(ConstructionError):
        character_sum(linear, xi, 5)


@pytest.mark.parametrize(
    "xi, message",
    [
        (LevelCharacter(level=2, frequency=(1,)), "taken against level-1 characters"),
        (LevelCharacter(level=1, frequency=(1, 0)), "does not match the level-1 block"),
    ],
    ids=["level-2", "frequency-length"],
)
def test_character_sum_input_error_messages(xi, message):
    t = torus(1, 1)
    linear = PolynomialSequence(t, (t.identity(), t.from_coords([Fraction(2, 7)])))
    with pytest.raises(ValueError, match=message):
        character_sum(linear, xi, 7)


def test_vertical_sum_constant_orbit():
    m = heisenberg_lcs()
    constant = PolynomialSequence(m, (m.identity(), m.identity(), m.identity()))
    assert vertical_sum(constant, 7) == 1.0


def test_vertical_sum_abelianized_motion():
    m = heisenberg_lcs()
    # x-coordinate moves, center coordinate of the fractional part stays 0
    p = PolynomialSequence(
        m, (m.identity(), m.from_coords([Fraction(1, 5), 0, 0]), m.identity())
    )
    assert abs(vertical_sum(p, 5) - 1.0) < 1e-12


def test_full_period_cancellation_on_construction():
    t = torus(2, 2)
    g = build_periodic_irrational(t, 37, 2, seed=3)
    for xi in enumerate_characters(t, 1, 2):
        assert character_sum(g, xi, 37) == 0


def test_stage_invariant_monotone_irrationality():
    # coefficients below the active stage stay put mod the deeper level
    m = heisenberg_lcs()
    g = build_periodic_irrational(m, 227, 3, seed=11)
    head = m.head_coords(g.coefficients[1], 2)
    assert all((c * 227).denominator == 1 for c in head)
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            if (k1, k2) == (0, 0) or abs(k1) + abs(k2) > 3:
                continue
            val = k1 * head[0] + k2 * head[1]
            assert val.denominator != 1


@st.composite
def _sequences_and_periods(draw):
    """A level-respecting sequence and a period: built, lattice or random rational."""
    if draw(st.booleans()):
        name, q, bound = draw(st.sampled_from(_TINY_BUILDS))
        return _built(name, q, bound), draw(st.sampled_from([q, 2 * q, q + 1, q + 2]))
    model = model_by_name(draw(st.sampled_from(_MODELS)))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    denominators = [1] if draw(st.booleans()) else [1, 2, q, q * q]
    coeffs = []
    for i in range(model.degree + 1):
        cutoff = model.dim - model.level_dim(i)
        tail = [
            Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(denominators)))
            for _ in range(model.dim - cutoff)
        ]
        coeffs.append(model.from_coords([Fraction(0)] * cutoff + tail))
    return PolynomialSequence(model, tuple(coeffs)), q


@given(_sequences_and_periods())
@settings(max_examples=100, deadline=None)
def test_is_periodic_matches_the_sampled_reference(case):
    # the defect has degree s, so 2s + 1 consecutive samples decide it
    p, q = case
    assert is_periodic(p, q) == verify_periodicity(p, q, p.model.degree)


def test_is_periodic_both_outcomes():
    for name, q, bound in _TINY_BUILDS:
        g = _built(name, q, bound)
        assert is_periodic(g, q) and is_periodic(g, 2 * q)
        assert not is_periodic(g, q + 1)
    m = heisenberg_lcs()
    lattice = PolynomialSequence(m, (m.from_coords([1, -2, 3]), m.from_coords([2, 1, 0]),
                                     m.from_coords([0, 0, 5])))
    assert all(is_periodic(lattice, q) for q in (1, 2, 3, 10))


def _sums(p, q, characters_first):
    characters = enumerate_characters(p.model, 1, 1)
    if characters_first:
        chars = [character_sum(p, xi, q) for xi in characters]
        return chars, vertical_sum(p, q)
    vert = vertical_sum(p, q)
    return [character_sum(p, xi, q) for xi in characters], vert


def test_orbit_sums_do_not_depend_on_call_order_or_earlier_periods():
    m = heisenberg_lcs()
    fresh = [build_periodic_irrational(m, 11, 1, seed=1) for _ in range(3)]
    chars, vert = _sums(fresh[0], 11, True)
    assert _sums(fresh[1], 11, False) == (chars, vert)
    # 2q on a sequence that has already cached its orbit at q, against a fresh one
    chars2, vert2 = _sums(fresh[0], 22, False)
    assert _sums(fresh[2], 22, True) == (chars2, vert2)
    assert _sums(fresh[0], 11, False) == (chars, vert)
    assert chars2 == chars
    assert vert2 == pytest.approx(vert, abs=1e-12)


def test_vertical_sum_rejects_a_non_period():
    t = torus(1, 1)
    linear = PolynomialSequence(t, (t.identity(), t.from_coords([Fraction(1, 7)])))
    with pytest.raises(ConstructionError, match="not q-periodic"):
        vertical_sum(linear, 5)
    m = heisenberg_lcs()
    g = build_periodic_irrational(m, 11, 1, seed=1)
    with pytest.raises(ConstructionError, match="not q-periodic"):
        vertical_sum(g, 12)


def test_character_sums_on_a_prefiltration_use_only_character_directions():
    # G_1 = span(y, z) and only k = (k_y, 0) is a character; the split sweep's
    # z coordinate drifts by 2n/7, which no character sees
    h = heisenberg_lcs()
    m = FilteredNilmanifoldModel(kappa=3, basis=h.basis, level_dims=(3, 2), prefiltration=True)
    p = PolynomialSequence(m, (m.from_coords([Fraction(3, 2), 0, 0]),
                               m.from_coords([0, Fraction(2, 7), Fraction(3, 7)])))
    characters = enumerate_characters(m, 1, 2)
    assert [xi.frequency for xi in characters] == [(-2, 0), (-1, 0), (1, 0), (2, 0)]
    assert [character_sum(p, xi, 7) for xi in characters] == [0j] * 4
    with pytest.raises(ValueError, match="not a level-1 character"):
        character_sum(p, LevelCharacter(level=1, frequency=(0, 1)), 7)


def test_a_perturbed_orbit_point_fails_the_linearity_proof(monkeypatch):
    m = heisenberg_lcs()
    g = build_periodic_irrational(m, 11, 1, seed=1)
    shift = m.from_level_coords(1, [Fraction(1, 3), 0])  # moves the character (1, 0)
    exact = periodic.taylor_eval

    def perturbed(p, n):
        return exact(p, n) * shift if n == 3 else exact(p, n)

    monkeypatch.setattr(periodic, "taylor_eval", perturbed)
    assert is_periodic(g, 11)  # reads the defect through nil.poly, not the orbit
    for xi in enumerate_characters(m, 1, 1):
        with pytest.raises(AssertionError, match="not linear in n"):
            character_sum(g, xi, 11)
    with pytest.raises(AssertionError, match="not linear in n"):
        vertical_sum(g, 11)
    monkeypatch.undo()
    assert all(character_sum(g, xi, 11) == 0 for xi in enumerate_characters(m, 1, 1))


# Each stage invariant of the build is a self-check that must fire when a
# step it relies on is wrong.


def test_qth_root_check_fires_when_no_coordinates_are_admissible(monkeypatch):
    # the zero frequency turns every t into a rejected one, in the probes and the sweep
    monkeypatch.setattr(periodic, "_l1_ball", lambda r, bound: [(0,) * r])
    m = heisenberg_lcs()
    with pytest.raises(AssertionError, match="no admissible root coordinates"):
        irrational_qth_root(m, 1, m.identity(), 37, 3, rng=0)


def test_qth_root_check_fires_on_a_wrong_root(monkeypatch):
    # a (q+1)-th root: its q-th power has level-1 coordinates t q / (q+1), t != 0
    root = UnitriangularElement.root
    monkeypatch.setattr(UnitriangularElement, "root", lambda self, q: root(self, q + 1))
    m = heisenberg_lcs()
    with pytest.raises(AssertionError, match="w\\^q left the level lattice"):
        irrational_qth_root(m, 1, m.identity(), 37, 3, rng=0)


def test_qth_root_check_fires_on_a_failed_irrationality(monkeypatch):
    monkeypatch.setattr(periodic, "element_irrational", lambda *args: (False, "planted"))
    m = heisenberg_lcs()
    with pytest.raises(AssertionError, match="failed irrationality: planted"):
        irrational_qth_root(m, 1, m.identity(), 37, 3, rng=0)


def test_head_split_check_fires_when_the_remainder_leaves_the_level(monkeypatch):
    def level_one_expansion(model, values):  # a valid sequence, but g_0 is not in G_2
        rest = (model.identity(),) * (len(values) - 1)
        return PolynomialSequence(model, (model.from_level_coords(1, [1, 0]), *rest))

    monkeypatch.setattr(periodic, "taylor_expand", level_one_expansion)
    m = heisenberg_lcs()
    with pytest.raises(AssertionError, match="remainder coefficient 0 escaped G_2"):
        periodic._lattice_head_split(PolynomialSequence.identity(m), 2)


def test_stage_defect_check_fires_on_a_non_periodic_top_up(monkeypatch):
    # w^q has level-1 coordinate 1/2, so the stage-1 defect is not integral above level 2
    def half_root(model, i, h, q, bound, rng):
        return model.from_level_coords(i, [Fraction(1, 2 * q)] + [0] * (model.block_rank(i) - 1))

    monkeypatch.setattr(periodic, "irrational_qth_root", half_root)
    with pytest.raises(AssertionError, match="stage 1 failed its defect invariant"):
        build_periodic_irrational(heisenberg_lcs(), 11, 1, seed=1)


def test_stage_irrationality_check_fires_without_the_top_up(monkeypatch):
    monkeypatch.setattr(periodic, "irrational_qth_root", lambda model, *args: model.identity())
    with pytest.raises(AssertionError, match="stage 1 lost irrationality at level 1"):
        build_periodic_irrational(heisenberg_lcs(), 11, 1, seed=1)


def test_character_sum_check_fires_on_a_fractional_step(monkeypatch):
    q = 11
    start, step = (Fraction(0), Fraction(0)), (Fraction(1, 2 * q), Fraction(0))
    monkeypatch.setattr(periodic, "_orbit", lambda p, q: ([], [start, step]))
    m = heisenberg_lcs()
    with pytest.raises(AssertionError, match="q \\* theta1 integral"):
        character_sum(PolynomialSequence.identity(m), LevelCharacter(level=1, frequency=(1, 0)), q)
