import multiprocessing
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicforms import gowers
from cyclicforms.counting import CyclicFunction, CyclicSubset
from cyclicforms.forms import BudgetExceeded, four_ap, three_ap, dilate_pair
from cyclicforms.gowers import (
    gowers_norm,
    gowers_norm_definitional,
    gvn_check,
    random_round,
)


def _random_complex(rng, n):
    return CyclicFunction(n, rng.random(n) * np.exp(2j * np.pi * rng.random(n)))


def test_constant_norms():
    f = CyclicFunction.constant(0.6, 12)
    for d in (1, 2, 3, 4):
        assert abs(gowers_norm(f, d) - 0.6) < 1e-12


def test_u1_is_mean_magnitude():
    f = CyclicSubset(8, (0,)).indicator()
    assert abs(gowers_norm(f, 1) - 1 / 8) < 1e-15


def test_exponential_phase_has_unit_norm():
    n = 20
    for r in (1, 3, 7):
        f = CyclicFunction(n, np.exp(2j * np.pi * r * np.arange(n) / n))
        for d in (2, 3, 4):
            assert abs(gowers_norm(f, d) - 1) < 1e-9
            if n ** (d + 1) <= 10**7:
                assert abs(gowers_norm_definitional(f, d) - 1) < 1e-9


def test_zero_and_full():
    z = CyclicFunction.constant(0.0, 5)
    assert gowers_norm_definitional(z, 3) == 0
    full = CyclicSubset.full(5).indicator()
    assert abs(gowers_norm_definitional(full, 2) - 1) < 1e-12


def test_oracle_agreement_random():
    rng = np.random.default_rng(2)
    for n in (9, 16):
        for d in (2, 3, 4):
            f = _random_complex(rng, n)
            assert abs(gowers_norm(f, d) - gowers_norm_definitional(f, d)) < 1e-9


def _drawn_function(n, is_complex, seed):
    rng = np.random.default_rng(seed)
    return _random_complex(rng, n) if is_complex else CyclicFunction(n, rng.random(n))


@given(
    st.integers(1, 14),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
)
@settings(max_examples=120, deadline=None)
def test_half_range_blocked_norm_matches_definition(n, is_complex, seed, rows):
    # rows per U^3 block: blocks split mid-range, and for even N the
    # self-paired shift N/2 lands on a block edge for some draws
    f = _drawn_function(n, is_complex, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gowers, "_BLOCK", rows * n)
        for d in (2, 3, 4):
            assert abs(gowers_norm(f, d) - gowers_norm_definitional(f, d)) < 1e-9


@given(st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_nesting(n, is_complex, seed):
    f = _drawn_function(n, is_complex, seed)
    norms = [gowers_norm(f, d) for d in (1, 2, 3, 4)]
    for a, b in zip(norms, norms[1:]):
        assert a <= b + 1e-12


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_u3_memory_is_bounded_by_the_block(is_complex):
    # one N x N complex shift matrix alone would be 256 MiB here
    f = _drawn_function(4093, is_complex, 5)
    assert _peak_bytes(lambda: gowers_norm(f, 3)) < 16 << 20


def test_rows_pack_at_primes_from_89_and_above_a_largest_prime_factor_of_191():
    packs = [n for n in (2, 83, 89, 97, 362, 382, 398, 764, 4094, 4093, 4106) if gowers._packs(n)]
    assert packs == [89, 97, 382, 398, 764, 4093, 4106]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 83, 89, 362, 382, 764, 4093])
def test_packed_rows_match_the_plain_rows(n):
    # seven rows in four pairs: the last pair's imaginary part is zero
    rows = np.random.default_rng(n).random((7, n))
    pairs = np.zeros((4, n), dtype=complex)
    pairs.real = rows[0::2]
    pairs.imag[:3] = rows[1::2]
    work = np.empty((4, n // 2 + 1), dtype=complex)
    got = gowers._u2_fourth_pairs(pairs, np.empty_like(pairs), work)
    np.testing.assert_allclose(got[:7], gowers._u2_fourth_rows(rows), rtol=1e-13, atol=0)
    assert abs(got[7]) < 1e-13 * got[:7].min()


@pytest.mark.parametrize(
    "n, rows",
    [(89, 1), (89, 4), (89, 5), (89, None), (764, 1), (764, 5), (764, None), (4093, None)],
)
def test_packed_u3_matches_the_plain_u3(n, rows):
    # rows = 1, 4 and 5 make blocks of 2, 4 and 6 rows, so the 45 shifts of N = 89
    # end in a block of 1, 1 and 3 rows and the 383 of N = 764 in one of 1 and 5 rows;
    # the default blocks end in 45, 39 and 63 rows
    values = np.random.default_rng(n).random(n)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(gowers, "_BLOCK", rows * n)
        got = gowers._power_mean(values, 3)
        mp.setattr(gowers, "_packs", lambda n: False)
        want = gowers._power_mean(values, 3)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [89, 97])
def test_packed_u3_matches_the_definition(n):
    assert gowers._packs(n) and n**4 <= gowers.DEFINITIONAL_CAP
    f = _drawn_function(n, False, n)
    want = gowers_norm_definitional(f, 3)
    assert abs(gowers_norm(f, 3) - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 64, 89, 257, 382, 1061])
def test_norm_bits_do_not_depend_on_the_worker_count(n):
    # each row's U^2 value and each h term is computed alone and summed in a
    # fixed order, so the float is the same for every split; real rows pack in
    # pairs at N = 89, 257, 382 and 1061; U^4 runs up to N = 257
    cases = [(d, is_complex) for d in (3, 4) for is_complex in (False, True) if n <= 257 or d == 3]
    fs = {is_complex: _drawn_function(n, is_complex, n) for is_complex in (False, True)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gowers, "_cpu_count", lambda: 1)
        serial = [gowers_norm(fs[c], d).hex() for d, c in cases]
    for workers in (2, 3, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gowers, "_cpu_count", lambda: workers)
            mp.setattr(gowers, "_SPLIT_POINTS", 0)  # split every level, down to N = 1
            mp.setattr(gowers, "_SPLIT_N", 0)
            assert [gowers_norm(fs[c], d).hex() for d, c in cases] == serial, workers


def test_cpu_count_falls_back_where_there_is_no_affinity_mask(monkeypatch):
    monkeypatch.delattr(gowers.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(gowers.os, "cpu_count", lambda: None)
    assert gowers._cpu_count() == 1
    monkeypatch.setattr(gowers.os, "cpu_count", lambda: 3)
    assert gowers._cpu_count() == 3


def _u3_in_child(f, results):
    results.put(gowers_norm(f, 3).hex())


def test_forked_child_makes_its_own_pool():
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("fork is unavailable on this platform")
    f = _drawn_function(401, False, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gowers, "_cpu_count", lambda: 2)
        want = gowers_norm(f, 3).hex()  # the parent's pool now exists
        assert gowers._pool is not None
        results = ctx.Queue()
        child = ctx.Process(target=_u3_in_child, args=(f, results))
        with warnings.catch_warnings():
            # Python 3.12 warns about forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        try:
            got = results.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
    assert got == want
    assert child.exitcode == 0


def test_concurrent_callers_get_the_serial_answers():
    fs = [_drawn_function(n, is_complex, n) for n in (401, 173) for is_complex in (False, True)]
    calls = [(f, d) for f in fs for d in ((3, 4) if f.modulus < 200 else (3,))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gowers, "_cpu_count", lambda: 1)
        want = [gowers_norm(f, d).hex() for f, d in calls]
    results = {}

    def caller(i):
        results[i] = [gowers_norm(f, d).hex() for f, d in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gowers, "_cpu_count", lambda: 3)
            mp.setattr(gowers, "_pool", None)  # callers race to make the pool
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == {i: want for i in range(4)}


def test_budget_checked_before_allocating():
    f = CyclicFunction.constant(0.5, 1001)  # 1001^3 points exceed DEFAULT_BUDGET

    def over_budget():
        with pytest.raises(BudgetExceeded, match="U\\^4"):
            gowers_norm(f, 4)

    assert _peak_bytes(over_budget) < 1 << 20


def test_modulation_and_translation_invariance():
    rng = np.random.default_rng(13)
    f = _random_complex(rng, 30)
    for r in (1, 5, 11):
        assert abs(gowers_norm(f.modulate(r), 2) - gowers_norm(f, 2)) < 1e-9
    for c in (1, 7, 13):
        for d in (1, 2, 3):
            assert abs(gowers_norm(f.translate(c), d) - gowers_norm(f, d)) < 1e-9


def test_budget_guards():
    f = CyclicFunction.constant(0.5, 101)
    with pytest.raises(BudgetExceeded):
        gowers_norm(CyclicFunction.constant(0.5, 1001), 4)  # 1001^3 > DEFAULT_BUDGET
    with pytest.raises(BudgetExceeded):
        gowers_norm_definitional(f, 3)  # 101^4 > DEFINITIONAL_CAP
    with pytest.raises(ValueError):
        gowers_norm(f, 0)


def test_gvn_trivial_and_random():
    rng = np.random.default_rng(100)
    n = 53
    f = CyclicFunction(n, rng.random(n))
    rep = gvn_check(f, f, three_ap(), 1)
    assert rep.passed and rep.lhs == 0
    for _ in range(5):
        g = CyclicFunction(n, rng.random(n))
        h = CyclicFunction(n, rng.random(n))
        assert gvn_check(g, h, three_ap(), 1).passed


def test_gvn_4ap():
    rng = np.random.default_rng(44)
    n = 31
    for _ in range(3):
        g = CyclicFunction(n, rng.random(n))
        h = CyclicFunction(n, rng.random(n))
        assert gvn_check(g, h, four_ap(), 2).passed


def test_gvn_preconditions():
    n = 10
    f = CyclicFunction(n, np.full(n, 0.5))
    with pytest.raises(ValueError):
        gvn_check(f, f, three_ap(), 1)  # composite modulus
    assert gvn_check(f, f, three_ap(), 1, min_prime_factor=2).passed
    fc = CyclicFunction(13, np.full(13, 0.5) * 1j)
    with pytest.raises(ValueError):
        gvn_check(fc, fc, three_ap(), 1)
    g = CyclicFunction(13, np.full(13, 0.5))
    with pytest.raises(ValueError):
        gvn_check(g, g, dilate_pair(2), 1)  # not pairwise independent


_HALF = CyclicFunction.constant(0.5, 13)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gowers_norm(_HALF, 0), "d must be at least 1"),
        (lambda: gowers_norm_definitional(_HALF, 0), "d must be at least 1"),
        (lambda: gvn_check(_HALF, _HALF, three_ap(), 0), "s must be positive"),
        (
            lambda: gvn_check(_HALF, CyclicFunction.constant(0.5, 11), three_ap(), 1),
            "moduli differ",
        ),
        (
            lambda: gvn_check(*[CyclicFunction.constant(0.5, 15)] * 2, three_ap(), 1, 5),
            "smallest prime factor of 15 is below 5",
        ),
        (
            lambda: random_round(CyclicFunction.constant(-0.5, 13), seed=0),
            "random rounding needs real values in [0, 1]",
        ),
    ],
    ids=["norm-d", "definitional-d", "gvn-s", "gvn-moduli", "gvn-prime-floor", "round-range"],
)
def test_input_errors_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_definitional_realness_check_fires(monkeypatch):
    # shifted values times i break the conjugate pairing, so the average is not real
    roll = np.roll
    monkeypatch.setattr(np, "roll", lambda values, shift: 1j * roll(values, shift))
    f = CyclicFunction(7, np.full(7, 0.5 + 0.5j))
    with pytest.raises(AssertionError, match="definitional average should be real"):
        gowers_norm_definitional(f, 1)


def test_random_round_edges_and_determinism():
    n = 50
    ones = CyclicFunction.constant(1.0, n)
    zeros = CyclicFunction.constant(0.0, n)
    assert random_round(ones, seed=1) == CyclicSubset.full(n)
    assert random_round(zeros, seed=1) == CyclicSubset.empty(n)
    half = CyclicFunction.constant(0.5, n)
    a = random_round(half, seed=9)
    b = random_round(half, seed=9)
    c = random_round(half, seed=10)
    assert a == b
    assert a != c


def test_random_round_tracks_density():
    n = 4093
    f = CyclicFunction.constant(0.5, n)
    a = random_round(f, seed=0)
    assert abs(len(a) / n - 0.5) < 0.05
    diff = CyclicFunction(n, a.indicator_array().astype(np.complex128) - 0.5)
    assert gowers_norm(diff, 2) <= 5 * n**-0.25
