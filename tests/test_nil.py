import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclicforms.forms import RationalSpan
from cyclicforms.nil import (
    FilteredNilmanifoldModel,
    LevelCharacter,
    OutsideGroupError,
    PolynomialSequence,
    TaylorLevelError,
    UnitriangularElement,
    annihilator_lattice,
    binomial,
    element_irrational,
    enumerate_characters,
    factor_coefficient,
    heisenberg_deg3,
    heisenberg_lcs,
    is_irrational,
    mat,
    model_by_name,
    taylor_eval,
    taylor_expand,
    torus,
)
from cyclicforms.nil import characters
from cyclicforms.nil import poly as nil_poly
from cyclicforms.nil.characters import _solve_dot
from cyclicforms.nil.matrices import (
    exp_poly,
    exp_terms,
    frac,
    mat_add,
    mat_identity,
    mat_mul,
    mat_sub,
    nilpotent_exp,
    nilpotent_log,
    upper_entries,
)

rationals = st.fractions(
    max_denominator=6, min_value=Fraction(-5), max_value=Fraction(5)
)


def _random_element(model, rng):
    coords = [
        Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
        for _ in range(model.dim)
    ]
    return model.from_coords(coords), tuple(coords)


# ---------------------------------------------------------------------------
# exp/log and coordinates


def test_log_exp_identity_and_heisenberg_generator():
    ident = UnitriangularElement.identity(3)
    assert all(x == 0 for row in ident.log() for x in row)
    e12 = UnitriangularElement(mat([[1, Fraction(7, 2), 0], [0, 1, 0], [0, 0, 1]]))
    lg = e12.log()
    assert lg[0][1] == Fraction(7, 2) and lg[0][2] == 0


def test_unitriangular_repr_lists_the_rows():
    g = UnitriangularElement(mat([[1, Fraction(7, 2), -2], [0, 1, 0], [0, 0, 1]]))
    assert repr(g) == "UnitriangularElement([1, 7/2, -2]; [0, 1, 0]; [0, 0, 1])"


@given(st.lists(rationals, min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_log_exp_round_trip_4x4(vals):
    x = [
        [0, vals[0], vals[1], vals[2]],
        [0, 0, vals[3], vals[4]],
        [0, 0, 0, vals[5]],
        [0, 0, 0, 0],
    ]
    x = mat(x)
    g = nilpotent_exp(x)
    assert nilpotent_log(g) == x
    back = nilpotent_exp(nilpotent_log(g))
    assert back == g


def test_numpy_integers_are_exact_rationals():
    assert frac(np.int64(-3)) == Fraction(-3) and type(frac(np.int32(2))) is Fraction
    m = heisenberg_lcs()
    g = m.from_coords([np.int64(1), 0, np.int64(2)])
    assert g.entries == m.from_coords([1, 0, 2]).entries
    assert (g ** np.int64(2)).entries == (g * g).entries
    for bad in (np.float64(1.0), 1.0):
        with pytest.raises(TypeError):
            frac(bad)
        with pytest.raises(TypeError):
            m.from_coords([bad, 0, 0])
        with pytest.raises(TypeError):
            g ** (2 * bad)


# ---------------------------------------------------------------------------
# sparse kernels against the dense formulas they replace


def _mat_mul_reference(a, b):
    """The dense product: every entry is a full row-by-column sum."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _nilpotent_exp_reference(x):
    """The dense series I + sum_{k < n} X^k/k!, one product per term."""
    n = len(x)
    out = term = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for k in range(1, n):
        term = tuple(tuple(v / k for v in row) for row in _mat_mul_reference(term, x))
        out = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(out, term))
    return out


def _dense_power(base, k):
    out = mat_identity(len(base))
    for _ in range(k):
        out = _mat_mul_reference(out, base)
    return out


# zeros and ones are a third of the entries each, as in unitriangular products
sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), rationals)


@st.composite
def _sparse_matrix_pairs(draw):
    n, k, w = (draw(st.integers(1, 5)) for _ in range(3))
    a = tuple(tuple(draw(sparse_entries) for _ in range(k)) for _ in range(n))
    b = tuple(tuple(draw(sparse_entries) for _ in range(w)) for _ in range(k))
    return a, b


@st.composite
def _strictly_upper(draw, sizes=(4, 5)):
    n = draw(st.sampled_from(sizes))
    return tuple(
        tuple(draw(sparse_entries) if j > i else Fraction(0) for j in range(n))
        for i in range(n)
    )


@st.composite
def _unitriangular(draw):
    x = draw(_strictly_upper(sizes=(3, 4, 5)))
    return UnitriangularElement(
        tuple(tuple(Fraction(1) if i == j else v for j, v in enumerate(row))
              for i, row in enumerate(x))
    )


@given(_sparse_matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_sparse_product_matches_dense(pair):
    a, b = pair
    prod = mat_mul(a, b)
    assert prod == _mat_mul_reference(a, b)
    assert all(type(v) is Fraction for row in prod for v in row)
    if len(a[0]) == len(b[0]) and len(a) == len(b):
        assert mat_add(a, b) == tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )


@given(_strictly_upper(), rationals)
@settings(max_examples=200, deadline=None)
def test_polynomial_exp_matches_series(x, t):
    assume(any(v for row in _mat_mul_reference(x, x) for v in row))  # X^2 != 0
    assert len(exp_terms(x)) >= 2
    assert nilpotent_exp(x) == _nilpotent_exp_reference(x)
    tx = tuple(tuple(t * v for v in row) for row in x)
    assert exp_poly(exp_terms(x), len(x), t) == _nilpotent_exp_reference(tx)


@given(_unitriangular(), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_power_matches_repeated_products(g, k):
    inv = g.inverse()
    assert _mat_mul_reference(g.entries, inv.entries) == mat_identity(g.dim)
    base = g.entries if k >= 0 else inv.entries
    assert (g**k).entries == _dense_power(base, abs(k))


@given(_unitriangular(), st.integers(-6, 6).filter(bool))
@settings(max_examples=200, deadline=None)
def test_root_power_round_trip(g, q):
    root = g.root(q)
    assert root**q == g
    base = root.entries if q > 0 else root.inverse().entries
    assert _dense_power(base, abs(q)) == g.entries


def test_malcev_coords_examples():
    m = heisenberg_lcs()
    assert m.malcev_coords(m.identity()) == (0, 0, 0)
    gamma = m.from_coords([2, -3, 5])
    assert m.malcev_coords(gamma) == (2, -3, 5)
    assert m.in_lattice(gamma)
    g = m.from_coords([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    assert m.malcev_coords(g) == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))


def test_malcev_round_trip_random():
    rng = np.random.default_rng(0)
    for model in (heisenberg_lcs(), torus(2, 2), heisenberg_deg3()):
        for _ in range(100):
            g, coords = _random_element(model, rng)
            assert model.malcev_coords(g) == coords
            assert model.from_coords(model.malcev_coords(g)).entries == g.entries


def test_head_and_level_reads_agree_with_malcev_coords():
    rng = np.random.default_rng(12)
    for model in (heisenberg_lcs(), heisenberg_deg3(), torus(2, 2), torus(3, 3)):
        for _ in range(40):
            zeros = int(rng.integers(0, model.dim + 1))
            integral = rng.random() < 0.5
            coords = tuple(
                Fraction(0) if a < zeros
                else Fraction(int(rng.integers(-8, 9)), 1 if integral else int(rng.integers(1, 6)))
                for a in range(model.dim)
            )
            g = model.from_coords(coords)
            assert model.malcev_coords(g) == coords
            for k in range(model.dim + 1):
                assert model.head_coords(g, k) == coords[:k]
            for i in range(model.degree + 2):
                cutoff = model.dim - model.level_dim(i)
                inside = all(c == 0 for c in coords[:cutoff])
                assert model.in_level(g, i) == inside
                assert model.in_lattice_level(g, i) == (
                    inside and all(c.denominator == 1 for c in coords)
                )
                blk = model.block(i)
                if inside:
                    assert model.psi_level(i, g) == coords[blk.start : blk.stop]
                else:
                    with pytest.raises(ValueError):
                        model.psi_level(i, g)


def test_outside_group_detection():
    m = torus(2, 1)  # 3x3 matrices with zero (1,2) slot unreachable
    bad = UnitriangularElement(mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]]))
    with pytest.raises(OutsideGroupError):
        m.malcev_coords(bad)
    assert not m.in_lattice(bad)


def _frac_int_parts_reference(model, g):
    """The sweep re-peeling coordinates 1..j of the residual for each j."""
    residual, int_parts = g, []
    for j in range(model.dim):
        a = math.floor(model.head_coords(residual, j + 1)[j])
        int_parts.append(a)
        residual = residual * model.basis_element(j, -a)
    lattice = model.identity()
    for j in reversed(range(model.dim)):
        lattice = lattice * model.basis_element(j, int_parts[j])
    return residual, lattice


def test_frac_int_parts_contract():
    rng = np.random.default_rng(4)
    for model in (heisenberg_lcs(), heisenberg_deg3(), torus(3, 2)):
        for _ in range(60):
            g, _ = _random_element(model, rng)
            frac_part, int_part = model.frac_int_parts(g)
            ref_frac, ref_int = _frac_int_parts_reference(model, g)
            assert (frac_part.entries, int_part.entries) == (ref_frac.entries, ref_int.entries)
            coords = model.malcev_coords(frac_part)
            assert all(0 <= c < 1 for c in coords)
            assert model.in_lattice(int_part)
            assert (frac_part * int_part).entries == g.entries


def test_frac_int_parts_fixed_points():
    m = heisenberg_lcs()
    gamma = m.from_coords([3, -2, 7])
    frac_part, int_part = m.frac_int_parts(gamma)
    assert frac_part.is_identity()
    assert int_part.entries == gamma.entries
    inside = m.from_coords([Fraction(1, 2), Fraction(3, 4), Fraction(1, 7)])
    frac_part, int_part = m.frac_int_parts(inside)
    assert int_part.is_identity()
    spec_case = m.from_coords([Fraction(3, 2), Fraction(-1, 4), Fraction(7, 3)])
    frac_part, int_part = m.frac_int_parts(spec_case)
    assert all(0 <= c < 1 for c in m.malcev_coords(frac_part))
    assert (frac_part * int_part).entries == spec_case.entries


def test_frac_int_parts_reconstruction_check_fires(monkeypatch):
    # a split sweep that drops its integer parts builds [g] = identity
    m = heisenberg_lcs()
    sweep = FilteredNilmanifoldModel.malcev_sweep

    def without_int_parts(self, g, count, split=False):
        coords, int_parts = sweep(self, g, count, split)
        return coords, [0] * len(int_parts)

    monkeypatch.setattr(FilteredNilmanifoldModel, "malcev_sweep", without_int_parts)
    with pytest.raises(AssertionError, match="fractional/integral split failed to reconstruct"):
        m.frac_int_parts(m.from_coords([Fraction(3, 2), Fraction(-1, 4), Fraction(7, 3)]))


# ---------------------------------------------------------------------------
# model validation


def test_model_validation_rejects_bad_filtration():
    x = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    y = [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    z = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    # ordering y before z would place the commutator at the wrong level
    with pytest.raises(ValueError):
        FilteredNilmanifoldModel(kappa=3, basis=(z, x, y), level_dims=(3, 3, 1))
    # degree 1 cannot hold the Heisenberg bracket
    with pytest.raises(ValueError):
        FilteredNilmanifoldModel(kappa=3, basis=(x, y, z), level_dims=(3, 3))


def _unit(kappa, i, j):
    return [[int((r, c) == (i, j)) for c in range(kappa)] for r in range(kappa)]


_X, _Y, _Z = _unit(3, 0, 1), _unit(3, 1, 2), _unit(3, 0, 2)


@pytest.mark.parametrize(
    "kappa, basis, level_dims, message",
    [
        (3, (_X, _Y, [[0, 2, 0], [0, 0, 0], [0, 0, 0]]), (3, 3, 1), "linearly independent"),
        (3, (_X, _Y), (2, 2), "not bracket-closed"),
        # [X_2, X_3] = X_1 leaves the tail span(X_2, X_3)
        (3, (_Z, _X, _Y), (3, 3, 1), r"span\(X_2..X_3\) is not an ideal"),
        # Heisenberg plus a central X_4 = E_03: [X_1, X_2] = X_3 misses G_2 = span(X_4)
        (
            4,
            (_unit(4, 0, 1), _unit(4, 1, 2), _unit(4, 0, 2), _unit(4, 0, 3)),
            (4, 4, 1),
            r"\[G_1, G_1\] escapes G_2: bracket of X_1, X_2",
        ),
        # degree 1: the nonzero bracket lies past the degree, where G_2 is trivial
        (3, (_X, _Y, _Z), (3, 3), r"\[G_1, G_1\] escapes G_2"),
        # exp(X_2) exp(X_1) = exp(X_1) exp(X_2) exp(-Z) has third coordinate -1/2
        (3, (_X, _Y, [[0, 0, 2], [0, 0, 0], [0, 0, 0]]), (3, 3, 1), "not closed under products"),
    ],
    ids=["dependent", "not-closed", "tail-not-ideal", "escapes", "past-degree", "lattice"],
)
def test_model_validation_messages(kappa, basis, level_dims, message):
    with pytest.raises(ValueError, match=message):
        FilteredNilmanifoldModel(kappa=kappa, basis=basis, level_dims=level_dims)


def test_bracket_coords_match_commutators_in_both_orders():
    for model in (heisenberg_lcs(), heisenberg_deg3(), torus(2, 2)):
        span = RationalSpan([upper_entries(b) for b in model.basis])
        for a in range(model.dim):
            for b in range(model.dim):
                x, y = model.basis[a], model.basis[b]
                w = mat_sub(mat_mul(x, y), mat_mul(y, x))
                assert model.bracket_coords(a, b) == span.coordinates(upper_entries(w))


def test_model_json_round_trip():
    m = heisenberg_deg3()
    again = FilteredNilmanifoldModel.from_json(m.to_json())
    assert again.level_dims == m.level_dims
    assert again.basis == m.basis
    assert again.name == m.name and again.prefiltration is False
    obj = json.loads(m.to_json())
    for bad in ("false", 0):  # bool("false") would silently build a prefiltration
        with pytest.raises(ValueError, match="prefiltration"):
            FilteredNilmanifoldModel.from_json(json.dumps({**obj, "prefiltration": bad}))


def test_model_by_name():
    assert model_by_name("heisenberg-lcs").degree == 2
    assert model_by_name("heisenberg-deg3").degree == 3
    assert model_by_name("torus:m=2,s=2").level_dims == (2, 2, 1)
    with pytest.raises(ValueError):
        model_by_name("nonsense")


# ---------------------------------------------------------------------------
# Taylor calculus


def test_binomial_negative_arguments():
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1


def test_taylor_eval_examples():
    m = heisenberg_lcs()
    e12 = m.from_coords([1, 0, 0])
    e13 = m.from_coords([0, 0, 1])
    p = PolynomialSequence(m, (m.identity(), e12, e13))
    g2 = taylor_eval(p, 2)
    expected = (e12**2) * e13
    assert g2.entries == expected.entries
    assert taylor_eval(p, 0).entries == m.identity().entries


def test_taylor_expand_abelian_example():
    m = torus(1, 2)
    a, b = Fraction(2, 7), Fraction(3, 5)
    values = [
        m.from_coords([0]),
        m.from_coords([a]),
        m.from_coords([2 * a + b]),
    ]
    p = taylor_expand(m, values)
    coeffs = [m.malcev_coords(c)[0] for c in p.coefficients]
    assert coeffs == [0, a, b]


def test_taylor_round_trip_random():
    rng = np.random.default_rng(99)
    for model in (heisenberg_lcs(), heisenberg_deg3(), torus(2, 2)):
        for _ in range(100):
            coeffs = []
            for i in range(model.degree + 1):
                cutoff = model.dim - model.level_dim(i)
                coords = [
                    Fraction(0)
                    if a < cutoff
                    else Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    for a in range(model.dim)
                ]
                coeffs.append(model.from_coords(coords))
            p = PolynomialSequence(model, tuple(coeffs))
            values = [taylor_eval(p, n) for n in range(model.degree + 1)]
            back = taylor_expand(model, values)
            assert all(
                x.entries == y.entries
                for x, y in zip(back.coefficients, p.coefficients)
            )


@st.composite
def _level_polynomials(draw):
    name = draw(st.sampled_from(["heisenberg-lcs", "heisenberg-deg3", "torus:m=2,s=2"]))
    model = model_by_name(name)
    coeffs = []
    for i in range(model.degree + 1):
        cutoff = model.dim - model.level_dim(i)
        tail = draw(st.lists(rationals, min_size=model.dim - cutoff, max_size=model.dim - cutoff))
        coeffs.append(model.from_coords([Fraction(0)] * cutoff + tail))
    return PolynomialSequence(model, tuple(coeffs))


@given(_level_polynomials())
@settings(max_examples=100, deadline=None)
def test_taylor_expand_inverts_taylor_eval(p):
    model = p.model
    back = taylor_expand(model, [taylor_eval(p, n) for n in range(model.degree + 1)])
    assert back.coefficients == p.coefficients


def test_taylor_expand_rejects_non_polynomial_values():
    m = heisenberg_lcs()
    center_escape = m.from_coords([0, Fraction(1, 2), 0])
    values = [m.identity(), m.identity(), center_escape]
    # g(0)=g(1)=id forces g_2 = g(2) which must land in G_2 = center
    with pytest.raises(TaylorLevelError):
        taylor_expand(m, values)


def test_taylor_expand_round_trip_check_fires(monkeypatch):
    m = heisenberg_lcs()
    h = m.from_coords([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)])
    monkeypatch.setattr(nil_poly, "taylor_eval", lambda poly, n: poly.model.identity())
    with pytest.raises(AssertionError, match="expansion failed to reproduce its input values"):
        taylor_expand(m, [h, h, h])


def test_constant_sequence_expansion():
    m = heisenberg_lcs()
    h = m.from_coords([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)])
    p = taylor_expand(m, [h, h, h])
    assert p.coefficients[0].entries == h.entries
    assert p.coefficients[1].is_identity()
    assert p.coefficients[2].is_identity()


def test_negative_argument_evaluation():
    m = torus(1, 2)
    p = PolynomialSequence(
        m, (m.from_coords([Fraction(1, 3)]), m.from_coords([Fraction(1, 2)]), m.from_coords([Fraction(1, 7)]))
    )
    val = m.malcev_coords(taylor_eval(p, -3))[0]
    assert val == Fraction(1, 3) + (-3) * Fraction(1, 2) + binomial(-3, 2) * Fraction(1, 7)


def test_pointwise_product_stays_polynomial():
    rng = np.random.default_rng(123)
    model = heisenberg_lcs()
    for _ in range(100):
        def random_poly():
            coeffs = []
            for i in range(model.degree + 1):
                cutoff = model.dim - model.level_dim(i)
                coords = [
                    Fraction(0)
                    if a < cutoff
                    else Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                    for a in range(model.dim)
                ]
                coeffs.append(model.from_coords(coords))
            return PolynomialSequence(model, tuple(coeffs))

        p, q = random_poly(), random_poly()
        product = p.pointwise_product(q)  # expansion validates level membership
        for n in (-2, 3, 5):
            lhs = taylor_eval(product, n)
            rhs = taylor_eval(p, n) * taylor_eval(q, n)
            assert lhs.entries == rhs.entries


def test_prefiltration_taylor_expansion():
    # G_0 = R^2 but G_1 = G_2 = the last coordinate line
    t = torus(2, 2, level_dims=(2, 1, 1), prefiltration=True)
    g0 = t.from_coords([Fraction(1, 3), Fraction(1, 5)])
    g1 = t.from_coords([0, Fraction(1, 2)])
    g2 = t.from_coords([0, Fraction(2, 7)])
    p = PolynomialSequence(t, (g0, g1, g2))
    values = [taylor_eval(p, n) for n in range(3)]
    back = taylor_expand(t, values)
    assert all(
        a.entries == b.entries for a, b in zip(back.coefficients, p.coefficients)
    )


def test_prefiltration_rejects_level_escape():
    t = torus(2, 2, level_dims=(2, 1, 1), prefiltration=True)
    # a linear part moving the first coordinate is not G_1-valued
    values = [
        t.identity(),
        t.from_coords([Fraction(1, 2), 0]),
        t.from_coords([1, 0]),
    ]
    with pytest.raises(TaylorLevelError):
        taylor_expand(t, values)


def test_prefiltration_flag_is_required():
    with pytest.raises(ValueError):
        torus(2, 2, level_dims=(2, 1, 1))


_LCS = heisenberg_lcs()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: binomial(5, -1), "k must be nonnegative"),
        (lambda: PolynomialSequence(_LCS, (_LCS.identity(),) * 2), "need coefficients g_0..g_2"),
        (
            lambda: PolynomialSequence.identity(_LCS).pointwise_product(
                PolynomialSequence.identity(torus(2, 2))
            ),
            "polynomials live on different models",
        ),
        (lambda: taylor_expand(_LCS, [_LCS.identity()] * 4), "need the values g(0)..g(2)"),
    ],
    ids=["binomial-negative-k", "coefficient-count", "different-models", "value-count"],
)
def test_poly_input_error_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# characters


def test_character_enumeration_examples():
    m = heisenberg_lcs()
    assert enumerate_characters(m, 2, 10) == []
    level1 = enumerate_characters(m, 1, 1)
    assert {c.frequency for c in level1} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    t = torus(1, 1)
    assert {c.frequency for c in enumerate_characters(t, 1, 2)} == {
        (-2,),
        (-1,),
        (1,),
        (2,),
    }
    d3 = heisenberg_deg3()
    assert {c.frequency for c in enumerate_characters(d3, 3, 2)} == {
        (-2,),
        (-1,),
        (1,),
        (2,),
    }


def test_character_complexity_and_value():
    m = heisenberg_lcs()
    xi = LevelCharacter(level=1, frequency=(2, -1))
    assert xi.complexity == 3
    g = m.from_coords([Fraction(1, 3), Fraction(1, 6), 0])
    assert xi.value(m, g) == Fraction(2, 3) - Fraction(1, 6)


@pytest.mark.parametrize(
    "call",
    [lambda: annihilator_lattice(_LCS, 3), lambda: enumerate_characters(_LCS, 0, 5)],
    ids=["annihilator-level", "enumerate-level"],
)
def test_character_level_range_messages(call):
    with pytest.raises(ValueError, match=re.escape("level must be in [1, 2]")):
        call()


def test_annihilator_lattice():
    m = heisenberg_lcs()
    assert annihilator_lattice(m, 2) == []  # G_2^v is everything at level 2
    basis = annihilator_lattice(m, 1)
    assert len(basis) == 2
    d3 = heisenberg_deg3()
    assert len(annihilator_lattice(d3, 3)) == 1


def test_is_irrational_examples():
    m = heisenberg_lcs()
    lattice_poly = PolynomialSequence(
        m, (m.identity(), m.from_coords([1, 2, 0]), m.from_coords([0, 0, 3]))
    )
    flag, witness = is_irrational(lattice_poly, 1)
    assert not flag
    level, xi, value = witness
    assert level == 1 and value.denominator == 1

    q = 103
    good = PolynomialSequence(
        m,
        (
            m.identity(),
            m.from_coords([Fraction(1, q), Fraction(5, q), 0]),
            m.from_coords([0, 0, Fraction(1, q)]),
        ),
    )
    flag, _ = is_irrational(good, 3)
    assert flag


def test_irrational_element_prime_denominator():
    m = heisenberg_lcs()
    q = 11  # prime > 2A for A = 2
    for t in range(2, q - 1):
        g = m.from_coords([Fraction(1, q), Fraction(t, q), 0])
        ok, _ = element_irrational(m, 1, g, 2)
        assert ok
    # t = +-1 mod q is killed by the complexity-2 character (1, -+1)
    for t in (1, q - 1):
        g = m.from_coords([Fraction(1, q), Fraction(t, q), 0])
        ok, witness = element_irrational(m, 1, g, 2)
        assert not ok and witness[2].denominator == 1


def test_abelian_half_is_not_2_irrational():
    t = torus(1, 1)
    g1 = t.from_coords([Fraction(1, 2)])
    ok, witness = element_irrational(t, 1, g1, 2)
    assert not ok
    assert abs(witness[1].frequency[0]) == 2


def test_factor_coefficient_lattice_element():
    m = heisenberg_lcs()
    gamma = m.from_coords([3, -1, 0])
    g_prime, out_gamma, xi = factor_coefficient(m, 1, gamma, 2)
    assert m.in_lattice_level(out_gamma, 1)
    assert xi.value(m, g_prime) == 0
    assert (g_prime * out_gamma).entries == gamma.entries


def test_factor_coefficient_abelian_integer():
    t = torus(1, 1)
    g = t.from_coords([3])
    g_prime, gamma, xi = factor_coefficient(t, 1, g, 1)
    assert t.malcev_coords(gamma) == (3,)
    assert t.malcev_coords(g_prime) == (0,)
    assert xi.frequency in ((1,), (-1,))


def test_factor_coefficient_planted_heisenberg():
    m = heisenberg_lcs()
    q = 997
    g = m.from_coords([2, Fraction(1, q), 0])
    g_prime, gamma, xi = factor_coefficient(m, 1, g, 2, q=q)
    assert m.in_lattice_level(gamma, 1)
    assert xi.value(m, g_prime) == 0
    assert (g_prime * gamma).entries == g.entries


def _factor_planted_heisenberg():
    m = heisenberg_lcs()
    return factor_coefficient(m, 1, m.from_coords([2, Fraction(1, 997), 0]), 2, q=997)


def test_factorization_lattice_check_fires(monkeypatch):
    # a half-integral solution of k . t = xi(g_i) puts gamma outside the lattice
    solve = characters._solve_dot
    monkeypatch.setattr(
        characters, "_solve_dot", lambda k, target: [x + Fraction(1, 2) for x in solve(k, target)]
    )
    with pytest.raises(AssertionError, match="gamma left the level lattice"):
        _factor_planted_heisenberg()


def test_factorization_kernel_check_fires(monkeypatch):
    # solving k . t = xi(g_i) + hcf(k) leaves xi(g_i') = -hcf(k) != 0
    solve = characters._solve_dot
    monkeypatch.setattr(
        characters, "_solve_dot", lambda k, target: solve(k, target + math.gcd(*k))
    )
    with pytest.raises(AssertionError, match="g_i' escaped the character kernel"):
        _factor_planted_heisenberg()


def test_factorization_multiply_back_check_fires(monkeypatch):
    # an inverse off by a central lattice element keeps xi(g_i') = 0 but
    # makes g_i' gamma = g_i z
    z = heisenberg_lcs().from_coords([0, 0, 1])
    inverse = UnitriangularElement.inverse
    monkeypatch.setattr(UnitriangularElement, "inverse", lambda self: inverse(self) * z)
    with pytest.raises(AssertionError, match="factorization does not multiply back"):
        _factor_planted_heisenberg()


def test_solve_dot_bezout_path():
    for k, target in (((2, 3), 7), ((4, 0, -6), 10), ((6, 10, 15), -1), ((0, -3, 5), 4)):
        t = _solve_dot(k, target)
        assert sum(a * b for a, b in zip(k, t)) == target
    assert _solve_dot((4, -6), 3) is None  # gcd 2 does not divide 3


def test_factor_coefficient_errors():
    m = heisenberg_lcs()
    q = 997
    irr = m.from_coords([Fraction(1, q), Fraction(3, q), 0])
    from cyclicforms.nil import FactorizationError

    with pytest.raises(FactorizationError):
        factor_coefficient(m, 1, irr, 2, q=q)
    with pytest.raises(FactorizationError):
        factor_coefficient(m, 1, m.from_coords([2, 0, 0]), 2, q=4)  # p_1(q) too small


# ---------------------------------------------------------------------------
# scaling lemma: coefficients of n -> g(qn) against powers, mod the
# vanishing subgroup


def test_scaling_lemma_invariant():
    rng = np.random.default_rng(52)
    for model in (heisenberg_lcs(), heisenberg_deg3(), torus(2, 2)):
        for _ in range(30):
            coeffs = []
            for i in range(model.degree + 1):
                cutoff = model.dim - model.level_dim(i)
                coords = [
                    Fraction(0)
                    if a < cutoff
                    else Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                    for a in range(model.dim)
                ]
                coeffs.append(model.from_coords(coords))
            p = PolynomialSequence(model, tuple(coeffs))
            q = int(rng.integers(2, 7))
            scaled_values = [taylor_eval(p, q * n) for n in range(model.degree + 1)]
            h = taylor_expand(model, scaled_values)
            for i in range(1, model.degree + 1):
                power = p.coefficients[i] ** (q**i)
                ratio = h.coefficients[i] * power.inverse()
                # every i-th-level character kills the ratio: it lies in G_i, and
                # psi_i is the block of log g there since [G_i, G_i] lies in G_{i+1}
                assert model.in_level(ratio, i)
                for k in annihilator_lattice(model, i):
                    assert LevelCharacter(i, k).value(model, ratio) == 0
