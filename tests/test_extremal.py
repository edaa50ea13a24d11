import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicforms import extremal
from cyclicforms.counting import CyclicSubset, SolutionMeasure, has_configuration, sol_count
from cyclicforms.extremal import (
    _anneal,
    _anneal_setup,
    _bitsets,
    _config_table,
    _forbidden_edges,
    _interval_candidates,
    _max_independent_bb,
    dependent_pair_exact,
    interval_free_set,
    max_free_density_exact,
    max_free_density_heuristic,
    max_sol_exact,
    max_sol_heuristic,
    min_sol_exact,
    min_sol_heuristic,
    multiplicative_free_set,
    weyl_set,
    weyl_target_density,
)
from cyclicforms.forms import (
    BudgetExceeded,
    LinearFormSystem,
    dilate_pair,
    four_ap,
    image_mod_n,
    kernel_system,
    progression_system,
    three_ap,
)
from cyclicforms.primes import is_prime, multiplicative_order


def test_min_sol_edges():
    system = three_ap()
    r0 = min_sol_exact(system, 0, 6)
    assert r0.value == 0 and len(r0.certificate) == 0
    r1 = min_sol_exact(system, 1, 6)
    assert r1.value == 1 and len(r1.certificate) == 6


def test_min_sol_pinned_value():
    r = min_sol_exact(three_ap(), Fraction(2, 5), 5)
    assert r.value == Fraction(2, 25)
    assert r.bound_kind == "equals"
    assert sol_count(r.certificate, three_ap()).fraction == r.value


def test_max_sol_edges():
    system = three_ap()
    assert max_sol_exact(system, 1, 6).value == 1
    assert max_sol_exact(system, 0, 6).value == 0


def _count_for_mask(masks, mult, subset_mask):
    """Reference recount: configurations of the table inside a subset bitmask."""
    ok = (masks & ~np.int64(subset_mask)) == 0
    return int(mult[ok].sum())


def _per_mask_exact(system, alpha, n, minimize):
    """Reference scan: one table lookup per bitmask, first strict improvement wins."""
    masks, mult = _config_table(system, n)
    if minimize:
        sign, bound = 1, max(0, math.ceil(alpha * n))
    else:
        sign, bound = -1, min(n, math.floor(alpha * n))
    best_count = best_mask = None
    for mask in range(1 << n):
        if sign * (bin(mask).count("1") - bound) < 0:
            continue
        c = _count_for_mask(masks, mult, mask)
        if best_count is None or sign * c < sign * best_count:
            best_count, best_mask = c, mask
    members = tuple(x for x in range(n) if (best_mask >> x) & 1)
    return Fraction(best_count, n**system.num_variables), members


SCAN_SYSTEMS = [
    three_ap(),
    kernel_system((1, 1, -3)),
    four_ap(),
    dilate_pair(2),
    LinearFormSystem(((1, 0), (0, 1), (1, 1))),
]


@given(
    st.sampled_from(SCAN_SYSTEMS),
    st.integers(1, 12),
    st.integers(0, 10).map(lambda k: Fraction(k, 10)),
)
@settings(max_examples=60, deadline=None)
def test_exact_scans_match_per_mask_reference(system, n, alpha):
    for fn, minimize in ((min_sol_exact, True), (max_sol_exact, False)):
        got = fn(system, alpha, n)
        value, members = _per_mask_exact(system, alpha, n, minimize)
        assert got.value == value, (fn.__name__, system.forms, n, alpha)
        assert got.certificate.members == members, (fn.__name__, system.forms, n, alpha)


def test_exact_budget_checked_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("configuration table built past the subset budget")

    monkeypatch.setattr(extremal, "_config_table", no_table)
    with pytest.raises(BudgetExceeded, match="2\\^23 subsets"):
        min_sol_exact(three_ap(), Fraction(2, 5), 23)
    with pytest.raises(BudgetExceeded, match="2\\^23 subsets"):
        max_sol_exact(three_ap(), Fraction(2, 5), 23)


def test_max_sol_exact_rejects_negative_alpha():
    with pytest.raises(ValueError):
        max_sol_exact(three_ap(), Fraction(-1, 5), 6)
    assert max_sol_exact(three_ap(), Fraction(1, 7), 6).value == 0


@pytest.mark.parametrize("solver", [min_sol_exact, max_sol_exact, min_sol_heuristic, max_sol_heuristic])
def test_size_bound_rejects_nonpositive_modulus_first(solver):
    for n in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            solver(three_ap(), Fraction(1, 2), n)
        with pytest.raises(ValueError, match="modulus must be positive"):
            solver(three_ap(), Fraction(-1, 2), n)  # before the alpha check


@pytest.mark.parametrize("solver", [min_sol_exact, max_sol_exact, min_sol_heuristic, max_sol_heuristic])
def test_size_bound_rejects_alpha_outside_the_unit_interval(solver):
    for alpha in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="alpha must lie between 0 and 1"):
            solver(three_ap(), alpha, 7)
    for alpha in (Fraction(0), Fraction(1)):  # both ends are allowed
        assert len(solver(three_ap(), alpha, 7).certificate) == 7 * alpha


def test_heuristics_reject_a_negative_move_budget():
    for solver in (min_sol_heuristic, max_sol_heuristic):
        with pytest.raises(ValueError, match="move budget"):
            solver(three_ap(), Fraction(1, 2), 11, seed=0, budget=-1)
        assert solver(three_ap(), Fraction(1, 2), 11, seed=0, budget=0).detail["moves"] == 0


def test_complement_duality_bridge():
    # the complement of a minimizer at density a is a feasible maximizer
    # candidate at density 1 - a
    system = three_ap()
    n = 9
    alpha = Fraction(4, 9)
    min_result = min_sol_exact(system, alpha, n)
    comp = min_result.certificate.complement()
    comp_value = sol_count(comp, system).fraction
    max_result = max_sol_exact(system, 1 - alpha, n)
    assert max_result.value >= comp_value


def test_heuristics_bound_exact():
    system = three_ap()
    for n in (7, 9, 11):
        for alpha in (Fraction(1, 3), Fraction(1, 2)):
            exact = min_sol_exact(system, alpha, n)
            heur = min_sol_heuristic(system, alpha, n, seed=2, budget=3000)
            assert heur.value >= exact.value
            assert heur.bound_kind == "upperBound"
            exact_max = max_sol_exact(system, alpha, n)
            heur_max = max_sol_heuristic(system, alpha, n, seed=2, budget=3000)
            assert heur_max.value <= exact_max.value


def test_heuristic_finds_exact_minimum_at_desk_scale():
    system = three_ap()
    for n in range(3, 14):
        for alpha in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)):
            exact = min_sol_exact(system, alpha, n).value
            heur = min_sol_heuristic(system, alpha, n, seed=0, budget=4000).value
            assert heur == exact, (n, alpha)


def test_heuristic_budget_monotone_same_seed():
    system = three_ap()
    v1 = min_sol_heuristic(system, Fraction(1, 2), 11, seed=4, budget=500).value
    v2 = min_sol_heuristic(system, Fraction(1, 2), 11, seed=4, budget=1000).value
    v3 = min_sol_heuristic(system, Fraction(1, 2), 11, seed=4, budget=2000).value
    assert v2 <= v1
    assert v3 <= v2


def test_heuristic_alpha_one():
    assert min_sol_heuristic(three_ap(), 1, 9, seed=0).value == 1
    assert max_sol_heuristic(three_ap(), 1, 9, seed=0).value == 1


def test_heuristics_alpha_outside_unit_interval_match_exact():
    system = three_ap()
    for alpha in (Fraction(-1, 5), Fraction(6, 5)):
        for exact, heuristic in ((min_sol_exact, min_sol_heuristic), (max_sol_exact, max_sol_heuristic)):
            try:
                want = exact(system, alpha, 10)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    heuristic(system, alpha, 10, seed=0, budget=50)
            else:
                got = heuristic(system, alpha, 10, seed=0, budget=50)
                assert got.certificate == want.certificate and got.value == want.value


@pytest.mark.parametrize("system", SCAN_SYSTEMS, ids=lambda s: str(s.forms))
def test_anneal_tracked_energy_matches_recount(system):
    for n, seed, minimize in ((13, 0, True), (23, 1, False), (31, 2, True), (40, 3, False)):
        masks, mult = _config_table(system, n)
        mask, count = _anneal(system, n, (2 * n) // 5, seed, 700, minimize)
        assert bin(mask).count("1") == (2 * n) // 5
        assert count == _count_for_mask(masks, mult, mask), (system.forms, n, seed)


def _replay_draws(rng, block=1024):
    """Scalar ``rng.integers(k)`` and ``rng.random()`` replayed in Python.

    Returns ``(integers, random)``: ``integers(k)`` for 1 <= k <= 2^32 and
    ``random()`` give the values the scalar Generator calls would give
    from rng's current state.  They replay numpy's own algorithms on raw
    PCG64 words: ``next_uint32`` with its half-word buffer (taken from
    ``rng.bit_generator.state``), Lemire's bounded draw with its rejection
    loop (``integers(1)`` draws nothing), and ``next_double`` =
    (w >> 11) * 2^-53.  Words are pulled ``block`` at a time through
    ``random_raw``, so rng itself runs ahead of the replay and must not be
    drawn from afterwards.  The reference for the draws ``_anneal`` reads
    from word blocks.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    half = state["uinteger"] if state["has_uint32"] else None

    def words():
        while True:
            yield from bitgen.random_raw(block).tolist()

    word = words().__next__

    def uint32():
        nonlocal half
        if half is None:
            w = word()
            half = w >> 32
            return w & 0xFFFFFFFF
        h, half = half, None
        return h

    def integers(k):
        if k == 1:
            return 0
        m = uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (1 << 32) % k  # numpy's (UINT32_MAX - (k - 1)) % k
            while m & 0xFFFFFFFF < threshold:
                m = uint32() * k
        return m >> 32

    def random():
        return (word() >> 11) * 2.0**-53

    return integers, random


def _one_hot_anneal(system, n, size, seed, moves, minimize):
    """Reference annealer: one bitset per outside-count level, every level updated per move."""
    rng = np.random.default_rng(seed)
    masks, mult = _config_table(system, n)
    total = n**system.num_variables
    sign = 1 if minimize else -1
    members = [int(x) for x in rng.permutation(n)[:size]]
    mask = 0
    for x in members:
        mask |= 1 << x
    outside = [x for x in range(n) if not (mask >> x) & 1]
    grid = np.repeat(masks, mult)
    uses = _bitsets(((grid[None, :] >> np.arange(n)[:, None]) & 1).astype(bool))
    top = int(np.bitwise_count(masks).max())
    outside_count = np.bitwise_count(grid & ~np.int64(mask))
    level = _bitsets(outside_count == np.arange(top + 1)[:, None])
    energy = sign * level[0].bit_count()
    best_energy, best_mask = energy, mask
    if not members or not outside:
        return best_mask, sign * best_energy
    integers, random = _replay_draws(rng)
    n_in, n_out = len(members), len(outside)
    t0, cooling, t_floor = 0.08, 0.999, 1e-6
    for step in range(moves):
        i = integers(n_in)
        j = integers(n_out)
        x_out, x_in = members[i], outside[j]
        z_out, z_in = uses[x_out], uses[x_in]
        through_in = level[1] & z_in
        gained = (through_in ^ (through_in & z_out)).bit_count()
        lost = (level[0] & z_out).bit_count()
        change = sign * (gained - lost)
        delta = change / total
        if delta <= 0 or random() < math.exp(-delta / max(t0 * cooling**step, t_floor)):
            members[i], outside[j] = x_in, x_out
            mask ^= (1 << x_out) | (1 << x_in)
            energy += change
            moved = 0  # x_in joins the set: configurations through it drop one level
            for c in range(top, -1, -1):
                here = level[c] & z_in
                level[c] ^= here ^ moved
                moved = here
            moved = 0  # x_out leaves: configurations through it climb one level
            for c in range(top + 1):
                here = level[c] & z_out
                level[c] ^= here ^ moved
                moved = here
            if energy < best_energy:
                best_energy, best_mask = energy, mask
    return best_mask, sign * best_energy


@pytest.mark.parametrize("k", [5, 8, 9])
def test_anneal_matches_one_hot_reference_on_wide_configurations(k):
    # k distinct vertices take ceil(log2(k + 1)) digits: 3 for 5AP, 4 for 8AP and 9AP
    system = progression_system(k)
    for n in (31, 61):
        for seed, minimize in ((0, True), (1, False)):
            size = (2 * n) // 5
            got = _anneal(system, n, size, seed, 700, minimize)
            assert got == _one_hot_anneal(system, n, size, seed, 700, minimize), (k, n, minimize)


@pytest.mark.parametrize(
    "system, n",
    [
        (LinearFormSystem(((1, 0), (0, 1), (1, 1), (1, 0))), 30),  # a repeated form
        (LinearFormSystem(((1, 0), (0, 1), (1, 1), (1, 0))), 60),
        (three_ap(), 60),
    ],
    ids=["x,y,x+y,x-30", "x,y,x+y,x-60", "3AP-60"],
)
def test_anneal_matches_one_hot_reference_over_several_multiplicities(system, n):
    # _anneal weights each distinct mask by its multiplicity where the
    # reference repeats it; here the masks come in three or more multiplicities
    _, mult = _config_table(system, n)
    assert len(set(mult.tolist())) >= 3
    for size in (n // 5, n // 2):
        for seed, minimize in ((0, True), (1, False), (2, True), (3, False)):
            got = _anneal(system, n, size, seed, 1500, minimize)
            assert got == _one_hot_anneal(system, n, size, seed, 1500, minimize), (size, seed)


class _CraftedBits:
    """Raw PCG64(seed) words with the low half of every third word zeroed.

    A zero half word makes Lemire's draw reject for every k that is not a
    power of two.  For seeds below 100 the state holds a buffered half
    word, zero for odd seeds, so the first draw of a run may reject too.
    From seed 100 on nothing is buffered, so the run starts on word 0,
    whose low half is zero.
    """

    def __init__(self, seed):
        self._pcg = np.random.PCG64(seed)
        self._served = 0
        self.state = {"has_uint32": int(seed < 100), "uinteger": 0 if seed % 2 else 0x9E3779B9}

    def random_raw(self, size):
        words = self._pcg.random_raw(size)
        words[np.arange(self._served, self._served + size) % 3 == 0] &= np.uint64(0xFFFFFFFF << 32)
        self._served += size
        return words


class _CraftedRng:
    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.bit_generator = _CraftedBits(seed)

    def permutation(self, n):
        return self._rng.permutation(n)


@pytest.mark.parametrize("system", [three_ap(), kernel_system((1, 1, -3))], ids=["3AP", "kernel"])
def test_anneal_matches_reference_on_crafted_draws(monkeypatch, system):
    monkeypatch.setattr(np.random, "default_rng", _CraftedRng)
    # Sizes 1 and N - 1 draw integers(1), which takes no word.  Seed 16 starts
    # size 1 at {0}, the one singleton holding a kernel configuration, so the
    # first move of a minimizing run depends on where the next draw starts.
    # Seeds 100 and 101 start with no half word buffered.  At N = 61 the best
    # set still improves after step 11,285, where the temperature reaches its
    # floor; at N = 5 and 12 it is found long before.
    for n, sizes, moves in ((5, (1, 2, 3, 4), 3000), (12, (1, 5, 7, 11), 3000), (61, (24,), 16_000)):
        for size in sizes:
            for seed in (0, 1, 2, 3, 16, 100, 101):
                for minimize in (True, False):
                    got = _anneal(system, n, size, seed, moves, minimize)
                    want = _one_hot_anneal(system, n, size, seed, moves, minimize)
                    assert got == want, (n, size, seed, minimize)


@pytest.mark.parametrize("minimize", [True, False], ids=["min", "max"])
def test_anneal_matches_reference_over_many_word_blocks(minimize):
    # 50,000 moves read nearly 100,000 words here, in about ninety blocks of draws
    system, n = three_ap(), 61
    size = (2 * n) // 5
    got = _anneal(system, n, size, 5, 50_000, minimize)
    assert got == _one_hot_anneal(system, n, size, 5, 50_000, minimize)


def test_anneal_memory_does_not_grow_with_the_budget():
    # the draws live one block at a time; a list with one entry per move
    # would add 800 KB at 10^5 moves.  (x, 2x) at N = 5 keeps the traced
    # moves cheap: tracemalloc slows each move about twentyfold.
    system = dilate_pair(2)
    _anneal(system, 5, 2, 0, 10, True)  # the set-up and temperature caches

    def peak(moves):
        tracemalloc.start()
        try:
            _anneal(system, 5, 2, 0, moves, True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**3), peak(10**5)
    assert large <= small + 32 * 1024, (small, large)


def test_temperature_table_stops_at_the_floor():
    table = extremal._temperatures()
    schedule = [max(0.08 * 0.999**step, 1e-6) for step in range(len(table) + 5000)]
    assert len(table) == 11_285 and list(table) == schedule[: len(table)]
    assert set(schedule[len(table) :]) == {1e-6}

def test_anneal_setup_cache_is_never_mutated():
    systems = (three_ap(), kernel_system((1, 1, -3)))
    calls = [(s, n, seed, minimize) for seed, minimize in ((0, True), (1, False))
             for n in (13, 31, 61) for s in systems]

    def run(order):
        return {c: _anneal(c[0], c[1], (2 * c[1]) // 5, c[2], 400, c[3]) for c in order}

    _anneal_setup.cache_clear()
    first = run(calls)
    grid, uses, degree, *_ = _anneal_setup(three_ap(), 31)
    assert not grid.flags.writeable and isinstance(uses, tuple) and isinstance(degree, tuple)
    _anneal_setup.cache_clear()
    assert run(calls[::-1]) == first


def _draws_match(seed, prefix, block, ks):
    """Replayed and scalar Generator draws agree over a random interleaving."""
    reference = np.random.default_rng(seed)
    replayed = np.random.default_rng(seed)
    reference.permutation(prefix)
    replayed.permutation(prefix)
    has_half = reference.bit_generator.state["has_uint32"]
    integers, random = _replay_draws(replayed, block)
    schedule = np.random.default_rng(seed + 1000)
    for step in range(400):
        if schedule.random() < 0.3:
            want, got, call = reference.random(), random(), "random()"
        else:
            k = ks[int(schedule.integers(len(ks)))]
            want, got, call = int(reference.integers(k)), integers(k), f"integers({k})"
        assert got == want, (
            f"numpy {np.__version__}: draw {step} ({call}) replayed as {got!r}, Generator "
            f"gave {want!r}; numpy's scalar draw algorithms changed, so _replay_draws "
            "and the pinned annealing certificates need review"
        )
    return has_half


def test_replay_draws_match_scalar_generator():
    rng = np.random.default_rng(7)
    small = [1] + [int(k) for k in rng.integers(2, 63, 20)] + [2, 62]
    # for 2^31 < k < 2^32 Lemire's method rejects a draw with probability
    # (2^32 - k) / 2^32, up to 30% here, so its rejection loop runs
    large = [int(k) for k in rng.integers(3 * 10**9, 2**32, 20)] + [3 * 10**9, 2**32 - 1]
    halves = set()
    for seed in range(6):
        for prefix in (9, 10, 31, 62):
            for block in (3, 1024):
                halves.add(_draws_match(seed, prefix, block, small))
                halves.add(_draws_match(seed, prefix, block, large + [1]))
    assert halves == {0, 1}


def test_max_free_density_examples():
    pair = dilate_pair(2)
    assert max_free_density_exact([pair], 5).value == Fraction(2, 5)
    assert max_free_density_exact([pair], 7).value == Fraction(2, 7)
    for solver in (max_free_density_exact, max_free_density_heuristic):
        empty = solver([], 9)
        assert empty.value == 1 and len(empty.certificate) == 9


def test_max_free_density_matches_dependent_pair():
    for k in (2, 3):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            if p == k:
                continue
            bb = max_free_density_exact([dilate_pair(k)], p)
            cycles = dependent_pair_exact(k, p)[0]
            assert bb.value == cycles.value, (k, p)


def test_max_free_density_strict_vs_weakened():
    system = three_ap()
    strict = max_free_density_exact([system], 7)
    assert strict.value == 0
    weak = max_free_density_exact([system], 7, ignore_constant_configs=True)
    assert weak.value > 0
    # the weakened certificate holds no nontrivial progression
    for a in weak.certificate.members:
        for d in range(1, 7):
            trip = {a, (a + d) % 7, (a + 2 * d) % 7}
            assert not trip <= set(weak.certificate.members) or len(trip) == 1


def test_max_free_density_heuristic_is_lower_bound():
    pair = dilate_pair(2)
    for n in (11, 17, 23):
        exact = max_free_density_exact([pair], n)
        heur = max_free_density_heuristic([pair], n, seed=1)
        assert heur.value <= exact.value
        assert sol_count(heur.certificate, pair).count == 0


def test_max_free_density_certificates_pinned():
    # The branch-and-bound edge order follows image_mod_n's insertion order,
    # so a change of that order shows up here as a different certificate.
    pair = max_free_density_exact([dilate_pair(2)], 21)
    assert pair.value == Fraction(3, 7)
    assert pair.certificate.members == (1, 4, 10, 12, 13, 14, 16, 18, 19)
    assert pair.detail == {"edges": 20}
    weak = max_free_density_exact([three_ap()], 13, ignore_constant_configs=True)
    assert weak.value == Fraction(4, 13)
    assert weak.certificate.members == (6, 7, 11, 12)
    assert weak.detail == {"edges": 78}
    # Larger cases, recorded under the plain |avail| bound (x2x at N=37
    # took 649k nodes there); the disjoint-edge bound must keep them.
    pair = max_free_density_exact([dilate_pair(2)], 37)
    assert pair.value == Fraction(18, 37)
    assert pair.certificate.members == (
        2, 5, 6, 8, 13, 14, 15, 17, 18, 19, 20, 22, 23, 24, 29, 31, 32, 35,
    )
    weak = max_free_density_exact([three_ap()], 20, ignore_constant_configs=True)
    assert weak.value == Fraction(1, 4)
    assert weak.certificate.members == (11, 12, 16, 18, 19)
    assert weak.detail == {"edges": 170}


def _max_independent_bb_reference(n, edges, node_budget=2_000_000):
    """Reference branch and bound: bound by |avail| alone, scan every edge per node."""
    edge_masks = [0 for _ in edges]
    for idx, e in enumerate(edges):
        m = 0
        for v in e:
            m |= 1 << v
        edge_masks[idx] = m
    full = (1 << n) - 1
    best = {"mask": 0, "size": -1, "nodes": 0}

    def popcount(x: int) -> int:
        return bin(x).count("1")

    def recurse(avail: int) -> None:
        best["nodes"] += 1
        if best["nodes"] > node_budget:
            raise ValueError("branch-and-bound node budget exceeded")
        if popcount(avail) <= best["size"]:
            return
        live = next((m for m in edge_masks if m & avail == m), None)
        if live is None:
            size = popcount(avail)
            if size > best["size"]:
                best["size"], best["mask"] = size, avail
            return
        v = live & avail
        while v:
            bit = v & -v
            recurse(avail & ~bit)
            v &= v - 1

    recurse(full)
    return best["mask"], best["size"]


FREE_SYSTEMS = [
    dilate_pair(2),
    dilate_pair(3),
    three_ap(),
    kernel_system((1, 1, -3)),
    LinearFormSystem(((1, 0), (0, 1), (1, 1))),
]


@given(
    st.lists(st.sampled_from(range(len(FREE_SYSTEMS))), min_size=1, max_size=3, unique=True),
    st.integers(1, 16),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_branch_and_bound_matches_reference(picks, n, ignore_constant_configs, data):
    # The disjoint-edge bound and the kept vertices skip only subtrees
    # without a strict improvement, so the first maximum set in DFS order
    # is unchanged, in _forbidden_edges' order and in any other.
    edges = _forbidden_edges([FREE_SYSTEMS[i] for i in picks], n, ignore_constant_configs)
    assert _max_independent_bb(n, edges) == _max_independent_bb_reference(n, edges)
    shuffled = data.draw(st.permutations(edges))
    assert _max_independent_bb(n, shuffled) == _max_independent_bb_reference(n, shuffled)


def _forbidden_edges_reference(family, n, ignore_constant_configs):
    """The edge filter before the vertex index: each edge against every minimal edge so far."""
    edges = set()
    for system in family:
        for config in image_mod_n(system, n):
            if ignore_constant_configs and len(set(config)) == 1:
                continue
            edges.add(frozenset(config))
    minimal = []
    for e in sorted(edges, key=len):
        if not any(f <= e for f in minimal):
            minimal.append(e)
    return minimal


def _greedy_reference(family, n, seed, ignore_constant_configs):
    """The greedy before the vertex index: every edge tested for every added vertex."""
    rng = np.random.default_rng(seed)
    edges = _forbidden_edges_reference(family, n, ignore_constant_configs)
    best = set()
    for _ in range(8):
        chosen = set()
        for v in rng.permutation(n):
            trial = chosen | {int(v)}
            if not any(e <= trial for e in edges):
                chosen = trial
        if len(chosen) > len(best):
            best = chosen
    return tuple(sorted(best))


_small_forms = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), min_size=1, max_size=4
)


@given(
    st.lists(st.sampled_from(range(len(FREE_SYSTEMS))), max_size=2, unique=True),
    st.lists(_small_forms.map(lambda forms: LinearFormSystem(tuple(forms))), max_size=2),
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_vertex_index_keeps_edges_and_greedy_certificates(picks, extra, n, ignore, seed):
    # same edges in the same order, and the same greedy certificate
    family = [FREE_SYSTEMS[i] for i in picks] + extra
    if not family:
        family = [three_ap()]
    assert _forbidden_edges(family, n, ignore) == _forbidden_edges_reference(family, n, ignore)
    got = max_free_density_heuristic(family, n, seed=seed, ignore_constant_configs=ignore)
    assert got.certificate.members == _greedy_reference(family, n, seed, ignore)


def _unit_dilation_free_density(k, n):
    """d_(x, kx)(Z/N) for gcd(k, N) = 1: x -> kx permutes Z/N into cycles, a
    fixed point is a forbidden singleton, and a cycle of length L >= 2 holds
    at most floor(L / 2) elements of a free set."""
    seen, size = set(), 0
    for x in range(n):
        length = 0
        while x not in seen:
            seen.add(x)
            x = k * x % n
            length += 1
        size += length // 2
    return Fraction(size, n)


def test_branch_and_bound_reaches_past_the_old_node_budget():
    # Both cases exceed the default node budget under the |avail| bound alone.
    pair = max_free_density_exact([dilate_pair(2)], 45)
    assert pair.value == _unit_dilation_free_density(2, 45) == Fraction(22, 45)
    assert sol_count(pair.certificate, dilate_pair(2)).count == 0
    weak = max_free_density_exact([three_ap()], 19, ignore_constant_configs=True)
    assert weak.value == Fraction(6, 19)
    # At odd N a set holds only its |A| constant 3APs when it is free, so no
    # free 7-set exists iff every set of at least 7 elements holds more.
    assert sol_count(weak.certificate, three_ap()).count == 6
    assert min_sol_exact(three_ap(), Fraction(7, 19), 19).value > Fraction(7, 19**2)


def test_branch_and_bound_settles_odd_n_past_20():
    # Non-constant 3APs at odd N = 21..27 finish within the node budget
    # only because finished siblings' vertices are kept.
    weak = max_free_density_exact([three_ap()], 21, ignore_constant_configs=True)
    assert weak.value == Fraction(2, 7)
    assert sol_count(weak.certificate, three_ap()).count == 6
    assert min_sol_exact(three_ap(), Fraction(7, 21), 21).value > Fraction(7, 21**2)
    for n, value in ((23, Fraction(6, 23)), (25, Fraction(7, 25)), (27, Fraction(8, 27))):
        weak = max_free_density_exact([three_ap()], n, ignore_constant_configs=True)
        assert weak.value == value
        assert sol_count(weak.certificate, three_ap()).count == len(weak.certificate)


def test_kept_vertices_cut_the_node_count(monkeypatch):
    # 74,431 nodes without kept vertices; a timing-free guard on the rule.
    monkeypatch.setattr(extremal, "NODE_BUDGET", 5_000)
    weak = max_free_density_exact([three_ap()], 15, ignore_constant_configs=True)
    assert weak.value == Fraction(4, 15)


def test_branch_and_bound_node_budget_still_raises(monkeypatch):
    monkeypatch.setattr(extremal, "NODE_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="branch-and-bound node count"):
        max_free_density_exact([three_ap()], 20, ignore_constant_configs=True)


@pytest.mark.parametrize("solver", [max_free_density_exact, max_free_density_heuristic])
@pytest.mark.parametrize("ignore_constant_configs", [False, True])
def test_free_certificates_are_recounted(monkeypatch, solver, ignore_constant_configs):
    # With no forbidden edges both searches return the full set, which holds
    # non-constant progressions; only the recount can catch that.
    monkeypatch.setattr(extremal, "_forbidden_edges", lambda *args: [])
    with pytest.raises(AssertionError, match="forbidden configuration"):
        solver([three_ap()], 20, ignore_constant_configs=ignore_constant_configs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dependent_pair_exact(7, 7), "k must be a unit mod p"),
        (lambda: weyl_set(1001, 2, 2), "p must be prime"),
        (lambda: multiplicative_free_set(2, 1001), "p must be prime"),
    ],
    ids=["pair-non-unit-k", "weyl-composite-p", "multiplicative-composite-p"],
)
def test_input_error_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _recount_finding(count):
    """A stand-in for ``sol_count`` that always reports ``count`` configurations."""
    return lambda *args: SolutionMeasure(0j, 10**6, count=count)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: min_sol_exact(three_ap(), Fraction(2, 5), 5), "certificate re-verification failed"),
        (lambda: dependent_pair_exact(2, 13), "free certificate contains a configuration"),
        (lambda: weyl_set(1009, 2, 2), "power-residue interval set is not dilation-free"),
        (lambda: multiplicative_free_set(2, 7), "multiplicative construction is not dilation-free"),
        (
            lambda: interval_free_set(kernel_system((1, 1, -3)), 101),
            "freeness table and recount disagree",
        ),
    ],
    ids=["verify-exact", "dependent-pair-free", "weyl", "multiplicative", "interval"],
)
def test_certificate_self_checks_fire_on_a_wrong_recount(monkeypatch, call, message):
    monkeypatch.setattr(extremal, "sol_count", _recount_finding(1))
    with pytest.raises(AssertionError, match=re.escape(message)):
        call()


def test_cycle_placement_check_fires_on_a_wrong_recount(monkeypatch):
    # a recount of 0 passes the free-certificate check, then contradicts the convex cost
    monkeypatch.setattr(extremal, "sol_count", _recount_finding(0))
    with pytest.raises(AssertionError, match="cycle placement cost 0 != convex optimum"):
        dependent_pair_exact(2, 13, Fraction(3, 4))


def test_dependent_pair_exact_values():
    d5, _ = dependent_pair_exact(2, 5)
    assert d5.value == Fraction(2, 5)
    d7, _ = dependent_pair_exact(2, 7)
    assert d7.value == Fraction(2, 7)
    d101, _ = dependent_pair_exact(2, 101)
    assert d101.value == Fraction(50, 101)


def test_dependent_pair_pigeonhole_floor():
    for p in (13, 29, 101):
        _, m = dependent_pair_exact(2, p, Fraction(3, 4))
        size = math.ceil(Fraction(3, 4) * p)
        assert m.value >= Fraction(2 * size - p, p)
        assert m.value >= Fraction(1, 2)


def test_dependent_pair_min_zero_below_half():
    _, m = dependent_pair_exact(2, 29, Fraction(1, 3))
    assert m.value == 0
    assert len(m.certificate) == math.ceil(Fraction(1, 3) * 29)


def test_dependent_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        dependent_pair_exact(1, 7)
    with pytest.raises(ValueError):
        dependent_pair_exact(2, 9)
    for alpha in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="alpha must lie between 0 and 1"):
            dependent_pair_exact(2, 7, alpha)
    assert len(dependent_pair_exact(2, 7, Fraction(1))[1].certificate) == 7


def test_dependent_pair_certificates_pinned():
    # Every prime p <= 61, k in {2, 3, -2, -3, 5} plus k = 1 and k = -1 mod p
    # (cycle orders 1 and 2), every size 0..p+1; the last size is an alpha > 1 error.
    # The digest covers both certificates and the minimum of each case.
    digest = hashlib.sha256()
    cases = 0
    for p in filter(is_prime, range(62)):
        for k in (2, 3, -2, -3, 5, p + 1, 2 * p - 1):
            if k % p == 0:
                continue
            for size in range(p + 2):
                try:
                    density, low = dependent_pair_exact(k, p, Fraction(size, p))
                    line = (
                        f"{p} {k} {size} {density.certificate.members} "
                        f"{low.certificate.members} {low.value}"
                    )
                except ValueError as exc:
                    line = f"{p} {k} {size} ValueError {exc}"
                digest.update(line.encode() + b"\n")
                cases += 1
    assert cases == 3734
    assert digest.hexdigest() == "d0f89d83168419aa253f2d0193b79dc5b37d86632b0ff6ee12c84f3d105b43a8"


def test_weyl_set_contract():
    a = weyl_set(1009, 2, 2)
    assert sol_count(a, dilate_pair(2)).count == 0
    assert weyl_target_density(2, 2) == Fraction(1, 32)
    assert abs(float(a.density) - 1 / 32) < 0.02
    with pytest.raises(ValueError):
        weyl_set(1009, 2, 1)
    with pytest.raises(ValueError):
        weyl_set(13, 2, 4)  # interval degenerates


@pytest.mark.parametrize("p, k, d", [(1009, 2, 2), (10007, 2, 3), (2003, 3, 2), (100003, 2, 4)])
def test_weyl_set_members_match_the_definition(p, k, d):
    delta = Fraction(1, 4 * k ** (2 * d))
    lo, hi = p // k**d - delta * p, p // k**d + delta * p
    want = tuple(x for x in range(p) if lo <= pow(x, d, p) <= hi)
    assert weyl_set(p, k, d).members == want


def test_multiplicative_free_set_examples():
    a7 = multiplicative_free_set(2, 7)
    assert a7.density == Fraction(2, 7)
    a5 = multiplicative_free_set(2, 5)
    assert a5.density == Fraction(2, 5)
    neg = multiplicative_free_set(-1, 11)
    assert neg.members == tuple(range(1, 6))
    order = multiplicative_order(2, 101)
    a101 = multiplicative_free_set(2, 101)
    assert a101.density == Fraction((order // 2) * (100 // order), 101)
    with pytest.raises(ValueError):
        multiplicative_free_set(1, 7)


def _dilation_cycles_by_walk(k, p):
    """Reference: x = 1, 2, ... each start the next unseen orbit of x -> kx on the units."""
    seen = [False] * p
    cycles = []
    for x in range(1, p):
        cycle = []
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = x * k % p
        if cycle:
            cycles.append(cycle)
    return cycles


def _multiplicative_members_by_cycle_walk(k, p):
    """Reference: each dilation cycle keeps the members at its even exponents 2j mod ord(k)."""
    k_mod = k % p
    if k_mod == p - 1:
        return tuple(range(1, (p - 1) // 2 + 1))
    cycles = _dilation_cycles_by_walk(k_mod, p)
    order = len(cycles[0])
    exponents = {2 * j % order for j in range(1, order // 2 + 1)}
    return tuple(sorted(cycle[e] for cycle in cycles for e in exponents))


def test_dilation_cycles_match_the_walk():
    # orbits in the order of their least members, each starting there
    for p in filter(is_prime, range(3000)):
        for k in (2, 3, 5, -2, p - 2):
            if k % p:
                want = _dilation_cycles_by_walk(k % p, p)
                assert extremal._dilation_cycles(k, p).tolist() == want, (k, p)


def test_multiplicative_free_set_matches_the_cycle_walk():
    cases = [
        (k, p)
        for p in range(2, 3000)
        if is_prime(p)
        for k in (2, 3, 5, -2, p - 2)
        if k % p not in (0, 1)
    ]
    cases += [(k, p) for p in (10007, 50021, 99991) for k in (2, 3)]
    for k, p in cases:
        want = _multiplicative_members_by_cycle_walk(k, p)
        assert multiplicative_free_set(k, p).members == want, (k, p)


def test_interval_free_set():
    system = kernel_system((1, 1, -3))
    result = interval_free_set(system, 101)
    assert result is not None
    assert sol_count(result.certificate, system).count == 0
    pair_result = interval_free_set(dilate_pair(2), 101)
    assert pair_result is not None
    assert pair_result.value >= Fraction(1, 4)
    mult = multiplicative_free_set(2, 101)
    assert mult.density > pair_result.value
    with pytest.raises(ValueError):
        interval_free_set(three_ap(), 11)


def _per_candidate_interval(system, n, max_denominator=64):
    """Reference walk: one has_configuration probe per candidate interval."""
    candidates = set()
    for d0 in range(1, max_denominator + 1):
        for a in range(d0):
            for b in range(a + 1, d0 + 1):
                lo, hi = -((-a * n) // d0), -((-b * n) // d0)
                if 0 < hi - lo < n:
                    candidates.add((lo, hi))
    for lo, hi in sorted(candidates, key=lambda c: (c[0] - c[1], c[0])):
        if not has_configuration(CyclicSubset(n, tuple(range(lo, hi))), system):
            return tuple(range(lo, hi))
    return None


def _interval_candidate_loop(n, max_denominator):
    """Reference: the candidate loop with a seen set, then the sort."""
    seen = set()
    candidates = []
    for d0 in range(1, max_denominator + 1):
        for a in range(d0):
            for b in range(a + 1, d0 + 1):
                lo = -((-a * n) // d0)
                hi = -((-b * n) // d0)
                if hi - lo <= 0 or hi - lo >= n:
                    continue
                if (lo, hi) in seen:
                    continue
                seen.add((lo, hi))
                candidates.append((lo, hi))
    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0]))
    return candidates


def test_interval_candidates_match_the_loop():
    for max_denominator in (3, 64):
        for n in range(3, 128):
            los, his = _interval_candidates(n, max_denominator)
            got = list(zip(los.tolist(), his.tolist()))
            assert got == _interval_candidate_loop(n, max_denominator), (max_denominator, n)
    assert _interval_candidates(5, 0)[0].size == 0


def test_interval_candidates_are_read_only():
    los, his = _interval_candidates(61, 8)
    for arr in (los, his):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert _interval_candidates(61, 8)[0] is los


@pytest.mark.parametrize(
    "system",
    [
        kernel_system((1, 1, -3)),
        dilate_pair(2),
        LinearFormSystem(((1, 0), (0, 1), (1, 1))),
        LinearFormSystem(((1, 0), (0, 1), (1, 2))),
    ],
    ids=lambda s: str(s.forms),
)
def test_interval_free_set_matches_per_candidate_walk(monkeypatch, system):
    # a denominator budget of 3 leaves several of these systems with no
    # free candidate, which exercises the None return
    for max_denominator in (3, 64):
        monkeypatch.setattr(extremal, "MAX_DENOMINATOR", max_denominator)
        for n in range(3, 41):
            got = interval_free_set(system, n)
            expected = _per_candidate_interval(system, n, max_denominator)
            if expected is None:
                assert got is None, (max_denominator, n)
            else:
                assert got is not None, (max_denominator, n)
                assert got.certificate.members == expected, (max_denominator, n)
                assert got.value == Fraction(len(expected), n)
