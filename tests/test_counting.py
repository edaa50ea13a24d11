import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclicforms import counting
from cyclicforms.counting import (
    CyclicFunction,
    CyclicSubset,
    SolutionMeasure,
    as_fraction,
    complement_sol,
    has_configuration,
    sol_brute,
    sol_count,
    sol_fast,
)
from cyclicforms.extremal import min_sol_exact
from cyclicforms.forms import (
    BudgetExceeded,
    LinearFormSystem,
    dilate_pair,
    four_ap,
    is_invariant,
    kernel_system,
    kernelize,
    size,
    three_ap,
)


def test_as_fraction_decimal_semantics():
    assert as_fraction(0.4) == Fraction(2, 5)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(1) == 1


def test_as_fraction_accepts_numpy_scalars():
    assert as_fraction(np.int64(3)) == 3 and isinstance(as_fraction(np.int64(3)), Fraction)
    assert as_fraction(np.float64(0.4)) == Fraction(2, 5)
    assert min_sol_exact(three_ap(), np.int64(0), 5).value == 0
    assert min_sol_exact(three_ap(), np.float64(0.4), 5).value == Fraction(2, 25)


def test_cyclic_function_validation():
    with pytest.raises(ValueError):
        CyclicFunction(4, np.ones(3))
    with pytest.raises(ValueError):
        CyclicFunction(3, np.array([1.0, 2.0, 0.0]))
    for bad in (np.nan, complex(np.nan, 0), complex(0, np.nan), np.inf):
        with pytest.raises(ValueError, match="unit disc"):
            CyclicFunction(3, np.array([0.5, bad, 0.0]))


_HALF5 = CyclicFunction.constant(0.5, 5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: as_fraction(1j), TypeError, "cannot interpret 1j as a rational"),
        (lambda: CyclicFunction(0, np.ones(0)), ValueError, "modulus must be positive"),
        (lambda: CyclicSubset(0, ()), ValueError, "modulus must be positive"),
        (lambda: CyclicSubset(5, (1, 5)), ValueError, "members must lie in [0, N)"),
        (lambda: CyclicSubset(5, (2, 2)), ValueError, "members must be strictly increasing"),
        (
            lambda: sol_brute([_HALF5] * 3, three_ap()).fraction,
            ValueError,
            "no exact count: inputs were not indicators",
        ),
        (
            lambda: sol_brute([_HALF5] * 2, three_ap()),
            ValueError,
            "system has 3 forms but got 2 inputs",
        ),
        (
            lambda: sol_count([CyclicSubset(5, ()), CyclicSubset(7, ())], dilate_pair(2)),
            ValueError,
            "all inputs must share one modulus",
        ),
    ],
    ids=["not-rational", "function-modulus", "subset-modulus", "member-range",
         "not-increasing", "not-indicator", "slot-count", "mixed-moduli"],
)
def test_input_error_messages(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def _subset_outcome(modulus, members):
    try:
        subset = CyclicSubset(modulus, members)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert all(type(x) is int for x in subset.members)
    return subset.members


@pytest.mark.parametrize(
    "tail, modulus",
    [
        ([200, 201], 300),  # valid
        ([np.int64(200), np.uint8(201)], 300),  # numpy ints are stored as Python ints
        ([200.5, 201.7], 300),  # int() truncates
        ([201, 200], 300),  # not increasing
        ([200, 300], 300),  # out of range
        ([-1, 200], 300),  # out of range before not increasing
        ([300, 200], 300),  # out of range before not increasing
        ([2**70, 2**70 + 1], 2**71),  # beyond int64 and valid
        ([2**70, 2**70], 2**71),  # beyond int64 and not increasing
        ([200, 2**70], 300),  # beyond int64 and out of range
        ([200, None], 300),  # not an integer
        ([200, "x"], 300),  # not an integer
    ],
)
def test_long_member_lists_are_checked_like_short_ones(tail, modulus):
    # from 64 members the checks run in one numpy pass: the stored ints, the
    # errors and their order match the per-member checks of a short list
    assert counting._BULK_MEMBERS == 64
    short = _subset_outcome(modulus, [0, 1, *tail])
    long = _subset_outcome(modulus, [*range(64), *tail])
    if isinstance(short, tuple) and isinstance(short[0], type):
        assert long == short
    else:
        assert long == tuple(range(64)) + short[2:]


def test_subset_file_round_trip(tmp_path):
    a = CyclicSubset(11, (0, 3, 7))
    path = tmp_path / "a.txt"
    a.save(path)
    assert CyclicSubset.load(path) == a
    with pytest.raises(ValueError):
        CyclicSubset.from_text("3\n1\n2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n1\n2\n", 'set files start with a line "N <modulus>"'),
        ("N five\n1\n", "set file line 1: expected an integer, got 'five'"),
        ("N 5\n1\n\n2.0\n", "set file line 4: expected an integer, got '2.0'"),
        ("N 5\n3\n1\n3\n", "set file repeats member 3"),
        ("N 5\n1\n6\n", "members must lie in [0, N)"),
        ("N 0\n", "modulus must be positive"),
    ],
    ids=["no-header", "bad-modulus", "non-integer-member", "repeated-member", "outside", "zero"],
)
def test_bad_set_file_messages(text, message):
    with pytest.raises(ValueError) as exc:
        CyclicSubset.from_text(text)
    assert str(exc.value) == message


def test_set_file_members_need_not_be_sorted():
    assert CyclicSubset.from_text("N 7\n\n5\n0\n 3 \n") == CyclicSubset(7, (0, 3, 5))


def test_subset_membership_wraps_like_modular_lookup():
    for a in (
        CyclicSubset(11, (0, 3, 7, 10)),
        CyclicSubset(11, (4,)),
        CyclicSubset.empty(5),
        CyclicSubset.full(6),
        CyclicSubset(1, (0,)),
    ):
        n = a.modulus
        for x in range(-3 * n, 3 * n):
            assert (x in a) == (x % n in a.members), (a, x)


def test_sol_brute_full_and_small_sets():
    system = three_ap()
    full = CyclicSubset.full(7)
    assert sol_count(full, system).fraction == 1
    a = CyclicSubset(5, (0, 1))
    assert sol_count(a, system).fraction == Fraction(2, 25)
    b = CyclicSubset(5, (2, 3, 4))
    assert sol_count(b, system).fraction == Fraction(5, 25)


def test_sol_brute_constant_function():
    system = three_ap()
    f = CyclicFunction.constant(0.5, 7)
    value = complex(sol_brute([f] * 3, system))
    assert abs(value - 0.125) < 1e-12


@pytest.mark.parametrize("complex_inputs", [False, True])
@pytest.mark.parametrize("system", [three_ap(), kernel_system((1, 1, -3)), four_ap()])
def test_sol_brute_matches_the_definition(system, complex_inputs):
    # Real inputs take a float64 path, complex ones complex128; both must
    # agree with the defining average to float64 rounding.
    rng = np.random.default_rng(7)
    n = 9
    fs = []
    for _ in range(system.t):
        values = rng.uniform(-1, 1, n)
        if complex_inputs:
            values = values * np.exp(2j * np.pi * rng.random(n))
        fs.append(CyclicFunction(n, values))
    want = 0j
    for point in np.ndindex(*(n,) * system.num_variables):
        term = 1 + 0j
        for f, y in zip(fs, system.evaluate(point, n)):
            term *= f.values[y]
        want += term
    want /= n**system.num_variables
    got = sol_brute(fs, system).value
    assert isinstance(got, complex)
    assert abs(got - want) < 1e-12
    if not complex_inputs:
        assert got.imag == 0.0


def test_sol_multilinearity():
    rng = np.random.default_rng(5)
    system = three_ap()
    n = 11
    f1 = CyclicFunction(n, rng.random(n) * 0.5)
    f2 = CyclicFunction(n, rng.random(n) * 0.5)
    g = CyclicFunction(n, rng.random(n))
    h = CyclicFunction(n, rng.random(n))
    lam = 0.37
    combo = CyclicFunction(n, lam * f1.values + (1 - lam) * f2.values)
    lhs = complex(sol_brute([combo, g, h], system))
    rhs = lam * complex(sol_brute([f1, g, h], system)) + (1 - lam) * complex(
        sol_brute([f2, g, h], system)
    )
    assert abs(lhs - rhs) < 1e-12


def test_translation_invariance_for_invariant_systems():
    system = three_ap()
    a = CyclicSubset(13, (0, 1, 3, 9))
    base = sol_count(a, system).fraction
    for c in range(13):
        shifted = CyclicSubset.from_iterable(13, ((x + c) % 13 for x in a.members))
        assert sol_count(shifted, system).fraction == base


def test_sol_fast_matches_brute_on_examples():
    rng = np.random.default_rng(11)
    # ((1, 0), (0, 1)) has image all of (Z/N)^2: k = 0, Sol is the product of the means
    full = LinearFormSystem(((1, 0), (0, 1)))
    for system in (three_ap(), dilate_pair(2), kernel_system((1, 1, -3)), full):
        kp = kernelize(system)
        n = 53
        fs = [
            CyclicFunction(n, rng.random(n) * np.exp(2j * np.pi * rng.random(n)))
            for _ in range(system.t)
        ]
        assert abs(sol_fast(fs, system, kp) - complex(sol_brute(fs, system))) < 1e-9


def test_sol_fast_indicator_is_tight():
    rng = np.random.default_rng(3)
    system = three_ap()
    kp = kernelize(system)
    members = tuple(int(x) for x in np.nonzero(rng.random(53) < 0.4)[0])
    a = CyclicSubset(53, members)
    brute = sol_count(a, system).fraction
    fast = sol_fast([a.indicator()] * 3, system, kp)
    assert abs(fast - float(brute)) < 1e-12


def test_sol_fast_rejects_bad_modulus():
    system = LinearFormSystem(((1, 0), (1, 2)))
    kp = kernelize(system)
    f = CyclicFunction.constant(1.0, 4)
    with pytest.raises(ValueError):
        sol_fast([f, f], system, kp)


def test_sol_fast_constant_power():
    system = three_ap()
    kp = kernelize(system)
    f = CyclicFunction.constant(0.3, 31)
    assert abs(sol_fast([f] * 3, system, kp) - 0.3**3) < 1e-12


def test_complement_identity_examples():
    assert complement_sol(CyclicSubset(5, (0, 1))) == (Fraction(2, 25), Fraction(1, 5))
    assert complement_sol(CyclicSubset.empty(5)) == (Fraction(0), Fraction(1))
    assert complement_sol(CyclicSubset.full(7)) == (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        complement_sol(CyclicSubset(4, (0,)))


def test_complement_identity_check_fires_on_a_wrong_count(monkeypatch):
    # a counter that misses one configuration breaks 1 - 3 alpha + 3 alpha^2
    def short_by_one(a, system):
        measure = sol_count(a, system)
        return SolutionMeasure(measure.value, measure.points, count=measure.count - 1)

    monkeypatch.setattr(counting, "sol_count", short_by_one)
    with pytest.raises(AssertionError, match="complement identity violated"):
        complement_sol(CyclicSubset(5, (0, 1)))


def l1_deviation(f: CyclicFunction, g: CyclicFunction) -> float:
    """E_x |f(x) - g(x)| of two functions on one Z/N."""
    return float(np.mean(np.abs(f.values - g.values)))


def test_l1_examples():
    f = CyclicFunction.constant(1.0, 4)
    g = CyclicFunction.constant(0.0, 4)
    assert l1_deviation(f, f) == 0
    assert l1_deviation(f, g) == 1
    h = CyclicSubset(4, (0,)).indicator()
    assert l1_deviation(h, g) == 0.25


def test_l1_controls_sol_difference():
    rng = np.random.default_rng(17)
    system = three_ap()
    l = size(system)
    n = 53  # prime, larger than every coefficient
    for _ in range(20):
        f = CyclicFunction(n, rng.random(n))
        g = CyclicFunction(n, rng.random(n))
        gap = abs(complex(sol_brute([f] * 3, system)) - complex(sol_brute([g] * 3, system)))
        assert gap <= l * l1_deviation(f, g) + 1e-12


def test_has_configuration_on_small_sets():
    system = dilate_pair(2)
    assert not has_configuration(CyclicSubset(7, (1,)), system)
    assert has_configuration(CyclicSubset(7, (1, 2)), system)


def test_brute_cap():
    system = three_ap()
    f = CyclicFunction.constant(1.0, 40000)  # 40000^2 points exceed DEFAULT_BRUTE_CAP
    with pytest.raises(BudgetExceeded):
        sol_brute([f] * 3, system)


def _random_subset(rng, n: int) -> CyclicSubset:
    members = np.nonzero(rng.random(n) < rng.random())[0]
    return CyclicSubset(n, tuple(int(x) for x in members))


def _brute_count(sets, system) -> int:
    return sol_brute([s.indicator() for s in sets], system).count


@st.composite
def _systems(draw):
    d = draw(st.integers(1, 3))
    t = draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=d, max_size=d).filter(any)
    return LinearFormSystem(tuple(tuple(r) for r in draw(st.lists(row, min_size=t, max_size=t))))


@given(_systems(), st.integers(1, 40), st.integers(1, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_sol_count_matches_grid_walk(system, n, block, seed):
    # coefficients up to 9 in size give zero, non-unit and all-zero columns
    # mod n; a small row block splits the prefix walk mid-grid
    rng = np.random.default_rng(seed)
    sets = [_random_subset(rng, n) for _ in range(system.t)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_ROW_BLOCK", block)
        measure = sol_count(sets, system)
    brute = sol_brute([s.indicator() for s in sets], system)
    assert (measure.count, measure.points, measure.value) == (brute.count, brute.points, brute.value)


_D3 = LinearFormSystem(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))  # x_1 eliminated


@pytest.mark.parametrize(
    "system, n, empty_slot",
    [
        (three_ap(), 100, None),  # the coefficient 2 is not a unit at even N
        (kernel_system((1, 1, -3)), 2049, None),  # 3 divides N
        (dilate_pair(2), 99991, None),  # D = 1: one row per slot
        (three_ap(), 63, None),
        (three_ap(), 64, None),
        (three_ap(), 65, None),
        (LinearFormSystem(((2, 0), (0, 2), (2, 2))), 64, None),  # no unit column
        (LinearFormSystem(((0, 2), (0, 2))), 256, None),  # every slot constant; N above uint8
        (_D3, 30, None),  # two constant slots
        (_D3, 30, 2),  # an empty constant slot: no prefix survives
        (kernel_system((1, 1, -3)), 99, 2),
    ],
    ids=["3ap-100", "k113-2049", "x2x-99991", "3ap-63", "3ap-64", "3ap-65", "no-unit-64", "masks-256",
         "d3-30", "d3-30-no-prefix", "k113-99-no-prefix"],
)
def test_sol_count_pinned_cases(system, n, empty_slot):
    rng = np.random.default_rng(n)
    single = _random_subset(rng, n)
    per_slot = [_random_subset(rng, n) for _ in range(system.t)]
    if empty_slot is not None:
        per_slot[empty_slot] = CyclicSubset.empty(n)
    assert sol_count(single, system).count == _brute_count([single] * system.t, system)
    assert sol_count(per_slot, system).count == _brute_count(per_slot, system)


def test_sol_count_gathers_rows_only_where_the_constant_slots_hit(monkeypatch):
    # a prefix (x_2, x_3) of _D3 counts nothing unless x_2 is in A_2 and x_3
    # in A_3, so only those prefixes gather rows, once per row slot
    rng = np.random.default_rng(7)
    sets = [_random_subset(rng, 30) for _ in range(_D3.t)]
    assert 0 < len(sets[1]) * len(sets[2]) < 30**2
    gathered = []
    row_source = counting._row_source

    def counted_source(table, c, n):
        source = row_source(table, c, n)

        def rows(base):
            gathered.append(len(base))
            return source(base)

        return rows

    monkeypatch.setattr(counting, "_row_source", counted_source)
    assert sol_count(sets, _D3).count == _brute_count(sets, _D3)
    assert sum(gathered) == 2 * len(sets[1]) * len(sets[2])


def _random_function(rng, n: int, complex_values: bool) -> CyclicFunction:
    values = rng.uniform(-1, 1, n)
    if complex_values:
        values = values * np.exp(2j * np.pi * rng.random(n))
    return CyclicFunction(n, values)


def _defining_average(fs, system) -> complex:
    """E_n prod_i f_i(psi_i(n)), one grid point at a time."""
    n = fs[0].modulus
    total = 0j
    for point in np.ndindex(*(n,) * system.num_variables):
        term = 1 + 0j
        for f, y in zip(fs, system.evaluate(point, n)):
            term *= f.values[y]
        total += term
    return total / n**system.num_variables


@given(_systems(), st.integers(1, 30), st.booleans(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_float_rows_match_the_defining_average(system, n, complex_values, block, seed):
    # coefficients up to 9 in size give zero, non-unit and all-zero columns
    # mod n; a small row block splits the prefix walk mid-grid
    rng = np.random.default_rng(seed)
    fs = [_random_function(rng, n, complex_values) for _ in range(system.t)]
    if rng.random() < 0.5:  # one function in every slot shares its tables
        fs = [fs[0]] * system.t
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_ROW_BLOCK", block)
        got = sol_brute(fs, system)
    assert got.count is None and got.points == n**system.num_variables
    assert abs(got.value - _defining_average(fs, system)) < 1e-12
    if not complex_values:
        assert got.value.imag == 0.0


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize(
    "system, n",
    [
        (three_ap(), 100),  # the coefficient 2 is not a unit at even N
        (kernel_system((1, 1, -3)), 99),  # 3 divides N
        (dilate_pair(2), 1000),  # D = 1: one row per slot
    ],
    ids=["3ap-100", "k113-99", "x2x-1000"],
)
def test_float_rows_pinned_cases(system, n, complex_values):
    rng = np.random.default_rng(n)
    single = _random_function(rng, n, complex_values)
    per_slot = [_random_function(rng, n, complex_values) for _ in range(system.t)]
    for fs in ([single] * system.t, per_slot):
        want = _defining_average(fs, system)
        for block in (counting._ROW_BLOCK, 3 * n * 16 + 5):  # shipped chunks; 3 or 6 rows
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_ROW_BLOCK", block)
                assert abs(sol_brute(fs, system).value - want) < 1e-12


_STOCK = [three_ap(), four_ap(), kernel_system((1, 1, -3)), dilate_pair(2), dilate_pair(3)]


@given(st.sampled_from(_STOCK), st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_sol_is_monotone_under_inclusion(system, n, seed):
    rng = np.random.default_rng(seed)
    a = _random_subset(rng, n)
    b = CyclicSubset.from_iterable(n, a.members + _random_subset(rng, n).members)
    assert sol_count(a, system).count <= sol_count(b, system).count


@given(st.sampled_from(_STOCK), st.integers(1, 60), st.integers(1, 10**6), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_sol_is_invariant_under_unit_dilation(system, n, k, seed):
    assume(math.gcd(k, n) == 1)
    a = _random_subset(np.random.default_rng(seed), n)
    dilate = CyclicSubset.from_iterable(n, (k * x for x in a.members))
    assert sol_count(dilate, system).count == sol_count(a, system).count


# each has an integral preimage of the all-ones vector, so translation is a
# bijection of configurations at every N
_INVARIANT = [three_ap(), four_ap(), kernel_system((1, 1, -2)), kernel_system((1, 2, -3))]


@given(st.sampled_from(_INVARIANT), st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_sol_is_translation_invariant_for_invariant_systems(system, n, c, seed):
    assert is_invariant(system)
    a = _random_subset(np.random.default_rng(seed), n)
    shifted = CyclicSubset.from_iterable(n, (x + c for x in a.members))
    assert sol_count(shifted, system).count == sol_count(a, system).count


@given(st.integers(0, 150), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_complement_identity_random(half, seed):
    a = _random_subset(np.random.default_rng(seed), 2 * half + 1)
    sol_a, sol_c = complement_sol(a)
    alpha = a.density
    assert sol_a + sol_c == 1 - 3 * alpha + 3 * alpha**2


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sol_count_memory_is_bounded_by_the_row_block():
    a = _random_subset(np.random.default_rng(4093), 4093)
    assert _peak_bytes(lambda: sol_count(a, three_ap())) < 2 * 2**20


def test_sol_count_cap_is_checked_before_allocation():
    a = CyclicSubset.full(40000)  # 40000^2 points exceed DEFAULT_BRUTE_CAP

    def over_cap():
        with pytest.raises(BudgetExceeded, match="enumeration of 40000"):
            sol_count(a, three_ap())

    assert _peak_bytes(over_cap) < 2**20
