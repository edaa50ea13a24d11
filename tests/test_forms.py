import math
import re
import tracemalloc
from itertools import islice, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclicforms import counting, forms
from cyclicforms.counting import CyclicFunction, sol_brute
from cyclicforms.forms import (
    BudgetExceeded,
    LinearFormSystem,
    as_dependent_pair,
    configurations,
    default_degree,
    dilate_pair,
    four_ap,
    image_mod_n,
    is_invariant,
    kernel_system,
    kernelize,
    pairwise_independent,
    progression_system,
    size,
    smith_normal_form,
    three_ap,
)


def test_size_examples():
    assert size(three_ap()) == 3
    assert size(LinearFormSystem(((1,),))) == 1
    assert size(LinearFormSystem(((1, 0), (7, 1)))) == 7


def test_pairwise_independent_examples():
    assert pairwise_independent(three_ap())
    assert not pairwise_independent(dilate_pair(2))
    assert not pairwise_independent(LinearFormSystem(((1, 1), (2, 2), (1, 0))))


def test_invariance_examples():
    assert is_invariant(three_ap())
    assert is_invariant(LinearFormSystem(((1, 0), (2, 1))))
    assert not is_invariant(LinearFormSystem(((1, 0), (0, 1), (-1, -1))))
    assert not is_invariant(kernel_system((1, 1, -3)))


def test_default_degree():
    assert default_degree(three_ap()) == 1
    assert default_degree(four_ap()) == 2
    assert default_degree(LinearFormSystem(((1, 0), (0, 1)))) == 1
    with pytest.raises(ValueError):
        default_degree(dilate_pair(2))


def test_permutation_invariance():
    base = kernel_system((1, 1, -3))
    for perm in permutations(base.forms):
        shuffled = LinearFormSystem(tuple(perm))
        assert size(shuffled) == size(base)
        assert pairwise_independent(shuffled) == pairwise_independent(base)
        assert is_invariant(shuffled) == is_invariant(base)


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearFormSystem(())
    with pytest.raises(ValueError):
        LinearFormSystem(((1, 0), (1,)))
    with pytest.raises(ValueError):
        LinearFormSystem(((0, 0),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinearFormSystem(((),)), "forms need at least one variable"),
        (lambda: LinearFormSystem.from_json("[[1, 0]]"), 'expected an object with a "forms" key'),
        (lambda: LinearFormSystem.from_json('{"forms": [[]]}'), "each form must be a non-empty list"),
        (lambda: LinearFormSystem.from_json('{"forms": [[1]], "name": 3}'), '"name" must be a string'),
        (
            lambda: forms.KernelPresentation(matrix=(), bad_modulus=1).kernel_mod_n(5),
            "k = 0 presentation: the kernel is all of (Z/n)^t",
        ),
        (lambda: progression_system(0), "k must be positive"),
        (lambda: kernel_system((1,)), "need at least two coefficients"),
        (
            lambda: kernel_system((2, 3)),
            "need a coefficient of magnitude 1 for an exact parametrization",
        ),
    ],
    ids=["no-variable", "not-object", "empty-form", "name", "k0-kernel", "progression",
         "one-coefficient", "no-unit"],
)
def test_input_error_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_json_round_trip_and_strictness():
    system = three_ap()
    again = LinearFormSystem.from_json(system.to_json())
    assert again.forms == system.forms
    with pytest.raises(ValueError):
        LinearFormSystem.from_json('{"forms": [[1, 0], [1]]}')
    with pytest.raises(ValueError):
        LinearFormSystem.from_json('{"forms": [[1, 0.5]]}')
    with pytest.raises(ValueError):
        LinearFormSystem.from_json('{"forms": []}')


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    )
)
@example([[2, 0], [0, 3]])  # 2 does not divide 3: the divisibility fix-up always runs
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_properties(rows):
    width = len(rows[0])
    rows = [r[:width] + [0] * (width - len(r)) for r in rows]
    s, u, v = smith_normal_form(rows)
    m = np.array(rows, dtype=object)
    s_np = np.array(s, dtype=object)
    u_np = np.array(u, dtype=object)
    v_np = np.array(v, dtype=object)
    assert np.array_equal(u_np @ m @ v_np, s_np)
    # diagonal, nonnegative, divisibility chain
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0 and b != 0:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # unimodularity via integer determinant
    def det(mat):
        mat = [row[:] for row in mat]
        n = len(mat)
        sign = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if mat[r][c] != 0), None)
            if piv is None:
                return 0
            if piv != c:
                mat[c], mat[piv] = mat[piv], mat[c]
                sign = -sign
            for r in range(c + 1, n):
                while mat[r][c] != 0:
                    q = mat[c][c] // mat[r][c]
                    mat[c] = [x - q * y for x, y in zip(mat[c], mat[r])]
                    mat[c], mat[r] = mat[r], mat[c]
                    sign = -sign
        out = sign
        for i in range(n):
            out *= mat[i][i]
        return out

    assert abs(det(u)) == 1
    assert abs(det(v)) == 1


def test_kernelize_3ap():
    kp = kernelize(three_ap())
    assert kp.bad_modulus == 1
    assert kp.k == 1
    # row-equivalence over Z to (1, -2, 1): same rational line
    (row,) = kp.matrix
    target = np.array([1, -2, 1])
    got = np.array(row)
    assert got[0] * target[1] == got[1] * target[0]
    assert got[1] * target[2] == got[2] * target[1]
    assert math.gcd(*[int(x) for x in row]) == 1


def test_kernelize_skew_pair():
    kp = kernelize(LinearFormSystem(((1, 0), (1, 2))))
    assert kp.k == 0
    assert kp.matrix == ()
    assert kp.bad_modulus == 2


def test_kernelize_sum_system():
    kp = kernelize(LinearFormSystem(((1, 0), (0, 1), (1, 1))))
    assert kp.bad_modulus == 1
    assert kp.k == 1
    for n in (2, 3, 5, 7):
        assert kp.kernel_mod_n(n) == image_mod_n(LinearFormSystem(((1, 0), (0, 1), (1, 1))), n)


@pytest.mark.parametrize(
    "system",
    [three_ap(), four_ap(), dilate_pair(2), dilate_pair(-3), kernel_system((1, 1, -3))],
    ids=lambda s: s.name,
)
def test_kernel_matches_image(system):
    kp = kernelize(system)
    for n in range(2, 16):
        if math.gcd(n, kp.bad_modulus) != 1:
            continue
        image = image_mod_n(system, n)
        if kp.k == 0:
            assert len(image) == n**system.t
        else:
            assert kp.kernel_mod_n(n) == image


def test_duplicated_rows_do_not_change_kernel():
    base = three_ap()
    doubled = LinearFormSystem(base.forms + base.forms[:1])
    kp = kernelize(doubled)
    for n in (5, 7, 11):
        image = image_mod_n(doubled, n)
        assert kp.kernel_mod_n(n) == image


def test_image_mod_n_examples():
    assert len(image_mod_n(three_ap(), 3)) == 9
    assert image_mod_n(LinearFormSystem(((1,),)), 5) == {(x,) for x in range(5)}
    assert image_mod_n(dilate_pair(2), 5) == {(a, 2 * a % 5) for a in range(5)}
    with pytest.raises(BudgetExceeded):
        image_mod_n(four_ap(), 1001)  # 1001^2 points exceed IMAGE_CAP


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d).filter(any),
            min_size=1,
            max_size=4,
        )
    ),
    st.integers(1, 9),
    st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_configurations_walk_the_grid_in_product_order(rows, n, chunk):
    system = LinearFormSystem(tuple(tuple(r) for r in rows))
    d = system.num_variables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "_CHUNK", chunk)
        chunks = list(configurations(system, n, n**d))
    assert len(chunks) == -(-(n**d) // chunk)
    got = [tuple(int(v) for v in col) for phis in chunks for col in zip(*phis)]
    assert got == [system.evaluate(p, n) for p in product(range(n), repeat=d)]


def _reference_walk(rows, d, n, chunk):
    """The arithmetic walk: every digit by // and %, every form reduced by %."""
    total = n**d
    powers = [n ** (d - 1 - j) for j in range(d)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = [(idx // p) % n for p in powers]
        phis = []
        for row in rows:
            acc = None
            for c, dig in zip(row, digits):
                if c % n == 0:
                    continue
                term = (c % n) * dig
                acc = term if acc is None else acc + term
            phis.append(np.zeros_like(idx) if acc is None else acc % n)
        yield phis


@given(
    st.integers(0, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-40, 40), min_size=d, max_size=d), min_size=1, max_size=4
        ).map(lambda rows: (d, rows))
    ),
    st.integers(1, 12),
    st.one_of(st.integers(1, 40), st.integers(1729, 3000)),
)
@example((2, [[0, 0], [1, 1]]), 5, 40)  # an all-zero row; one chunk past n^d
@example((0, [[]]), 3, 1)  # d = 0: a single point
@settings(max_examples=300, deadline=None)
def test_walk_matches_the_arithmetic_walk(d_rows, n, chunk):
    d, rows = d_rows
    got = list(forms._walk(rows, d, n, chunk))
    want = list(_reference_walk(rows, d, n, chunk))
    assert len(got) == len(want)
    for i, (phis, ref) in enumerate(zip(got, want)):
        assert len(phis) == len(rows)
        size = min(chunk, n**d - i * chunk)
        for phi, ref_phi in zip(phis, ref):
            assert phi.dtype == np.int64 and phi.shape == (size,)
            assert np.array_equal(phi, ref_phi)


@given(
    st.integers(2, 3),
    st.integers(2, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.lists(st.integers(-700, 700), min_size=4, max_size=4),
)
@example(3, (17, 5), [1, -2, 5, 17])  # all 983 chunks: every first-digit change
@example(2, (600, 1), [3, 0, 599, 1])  # one point per chunk
@settings(max_examples=50, deadline=None)
def test_walk_with_chunks_shorter_than_a_grid_row_matches_the_arithmetic_walk(d, n_chunk, coeffs):
    # a chunk inside one grid row fills only its own points; the first 1,000
    # chunks cover row boundaries and, for the longer chunks, the whole grid
    n, chunk = n_chunk
    rows = [coeffs[:d], coeffs[-d:]]
    got = islice(forms._walk(rows, d, n, chunk), 1000)
    want = islice(_reference_walk(rows, d, n, chunk), 1000)
    for phis, ref in zip(got, want, strict=True):
        for phi, ref_phi in zip(phis, ref):
            assert phi.dtype == np.int64 and np.array_equal(phi, ref_phi)


def test_sol_brute_sums_the_same_chunks_as_the_arithmetic_walk(monkeypatch):
    # float sums depend on the chunk boundaries, so the value must be equal, not close;
    # the float path walks its prefixes through the name imported into counting
    n = 1009  # 1,009 prefix rows: 32 chunks, where a boundary moved by one changes the sum
    f = CyclicFunction(n, np.random.default_rng(7).random(n))
    fast = sol_brute([f] * 3, three_ap()).value
    monkeypatch.setattr(forms, "_walk", _reference_walk)
    monkeypatch.setattr(counting, "_walk", _reference_walk)
    assert fast == sol_brute([f] * 3, three_ap()).value


def test_configurations_reject_before_walking():
    with pytest.raises(ValueError, match="positive"):
        next(configurations(three_ap(), 0, 10))
    with pytest.raises(BudgetExceeded, match="enumeration of 4"):
        next(configurations(three_ap(), 4, 15))


def test_kernel_mod_n_cap_checked_before_allocating():
    kp = kernelize(four_ap())  # t = 4: 60^4 = 1.3e7 points, over the 10^7 cap
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="enumeration of 60"):
            kp.kernel_mod_n(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_as_dependent_pair():
    assert as_dependent_pair(dilate_pair(2)) == 2
    assert as_dependent_pair(dilate_pair(-7)) == -7
    assert as_dependent_pair(three_ap()) is None
    assert as_dependent_pair(LinearFormSystem(((1, 0), (0, 1)))) is None
    assert as_dependent_pair(LinearFormSystem(((2,), (3,)))) is None  # k = 3/2
    assert as_dependent_pair(LinearFormSystem(((2, 0), (-4, 0)))) == -2


def test_progression_system_shape():
    s = progression_system(5)
    assert s.t == 5 and s.num_variables == 2
    assert s.forms[4] == (1, 4)
