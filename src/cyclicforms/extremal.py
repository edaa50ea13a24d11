"""Extremal solution counts, free densities, and explicit free sets.

Exact solvers enumerate subsets (or run branch and bound on the
forbidden-configuration hypergraph) and always re-verify the certificate
through the exact counter ``sol_count`` before returning; heuristic
solvers anneal from a seed, tracking bit-sliced counts, one bit per
distinct configuration weighted by its multiplicity, over a set-up cached
per (system, N), and re-verify their certificate-backed bounds too.
The annealing move loop reads numpy's scalar draws from lists computed
in numpy for a block of raw PCG64 words at a time, and one cached
temperature table.

The branch and bound behind ``max_free_density_exact`` bounds a candidate
set by its size minus a greedy count of pairwise vertex-disjoint forbidden
configurations inside it, and never again excludes a vertex once the
sibling that excluded it has finished.  Neither rule skips a subtree that
holds a strict improvement, so the certificate is the one a bound by size
alone returns: the first maximum free set in depth-first order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from .counting import (
    DEFAULT_BRUTE_CAP,
    CyclicSubset,
    as_fraction,
    sol_count,
)
from .forms import (
    LinearFormSystem,
    check_budget,
    configurations,
    dilate_pair,
    image_mod_n,
    is_invariant,
)
from .primes import is_prime, primitive_root


@dataclass(frozen=True)
class ExtremalResult:
    value: Fraction | float
    certificate: CyclicSubset | None
    method: str  # "exact" | "heuristic" | "construction"
    bound_kind: str  # "equals" | "upperBound" | "lowerBound"
    detail: dict = field(default_factory=dict)

    def as_json_dict(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = {"modulus": self.certificate.modulus, "members": list(self.certificate.members)}
        value = self.value
        return {
            "value": str(value) if isinstance(value, Fraction) else value,
            "valueFloat": float(value),
            "certificate": cert,
            "method": self.method,
            "boundKind": self.bound_kind,
            "verification": {k: str(v) for k, v in self.detail.items()},
        }


DEFAULT_SUBSET_BUDGET = 1 << 22  # 2^N subsets in the exact scan
NODE_BUDGET = 2_000_000  # branch-and-bound nodes in ``max_free_density_exact``
MAX_DENOMINATOR = 64  # largest denominator D0 of an ``interval_free_set`` endpoint
MAX_BITMASK_N = 62  # largest N whose subsets and configurations are int64 bitmasks
_CONFIG_CAP = 10**7  # grid points walked to build a configuration table
_GREEDY_RESTARTS = 8
_CACHE_SIZE = 16  # entries kept by each cache: annealer set-ups, interval candidates


# ---------------------------------------------------------------------------
# configuration tables


def _config_table(system: LinearFormSystem, n: int):
    """Distinct configurations as needed-bitmasks with multiplicities.

    A subset given as bitmask B contains a configuration y iff
    needed(y) & ~B == 0 where needed(y) = OR of 1 << y_i.
    """
    check_budget(f"bitmask modulus {n}", n, MAX_BITMASK_N)
    needed = []
    for phis in configurations(system, n, _CONFIG_CAP):
        chunk = np.zeros(len(phis[0]), dtype=np.int64)
        for phi in phis:
            chunk |= np.int64(1) << phi
        needed.append(chunk)
    masks, mult = np.unique(np.concatenate(needed), return_counts=True)
    return masks, mult.astype(np.int64)


def _verify_exact(system: LinearFormSystem, subset: CyclicSubset, value: Fraction) -> None:
    check = sol_count(subset, system).fraction
    if check != value:
        raise AssertionError(f"certificate re-verification failed: {check} != {value}")


def _mask_to_subset(n: int, mask: int) -> CyclicSubset:
    return CyclicSubset(n, tuple(x for x in range(n) if (mask >> x) & 1))


def check_alpha(alpha) -> Fraction:
    """alpha as a Fraction; ValueError unless 0 <= alpha <= 1."""
    alpha = as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie between 0 and 1, got {alpha}")
    return alpha


def _size_bound(alpha, n: int, minimize: bool) -> int:
    """The subset size bound: ceil(alpha N) (minimize) or floor(alpha N), for 0 <= alpha <= 1."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    alpha = check_alpha(alpha)
    return math.ceil(alpha * n) if minimize else math.floor(alpha * n)


def _exact_scan(
    system: LinearFormSystem, n: int, size_bound: int, minimize: bool
) -> ExtremalResult:
    """Best Sol over all subsets of size >= (minimize) or <= (maximize) the bound.

    The configuration count of every subset B at once is the subset-sum
    (zeta) transform sum_{m subset of B} w(m) of the configuration table w,
    computed in N in-place passes over a 2^N table.  Counts are at most
    N^D, which the table cap keeps inside int32.  argmin/argmax return
    the first index, so the certificate is the numerically first bitmask
    among the optimal ones.
    """
    check_budget(f"exact scan over 2^{n} subsets", 1 << n, DEFAULT_SUBSET_BUDGET)
    masks, mult = _config_table(system, n)
    counts = np.zeros(1 << n, dtype=np.int32)
    counts[masks] = mult
    for i in range(n):
        v = counts.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    popcount = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    if minimize:
        counts[popcount < size_bound] = np.iinfo(np.int32).max
        best_mask = int(np.argmin(counts))
    else:
        counts[popcount > size_bound] = -1
        best_mask = int(np.argmax(counts))
    best_count = int(counts[best_mask])
    value = Fraction(best_count, n**system.num_variables)
    cert = _mask_to_subset(n, best_mask)
    _verify_exact(system, cert, value)
    return ExtremalResult(value, cert, "exact", "equals", {"count": best_count})


def min_sol_exact(system: LinearFormSystem, alpha, n: int) -> ExtremalResult:
    """Exact m(alpha, N): minimum Sol over subsets of size >= ceil(alpha N).

    Evaluates all 2^N subsets at once, every size >= the floor included,
    rather than assuming the minimum sits at the smallest size.  Ties go
    to the numerically first bitmask among the optimal subsets.
    O(N 2^N) time, O(2^N) memory; BudgetExceeded when 2^N exceeds
    ``DEFAULT_SUBSET_BUDGET``.
    """
    return _exact_scan(system, n, _size_bound(alpha, n, True), True)


def max_sol_exact(system: LinearFormSystem, alpha, n: int) -> ExtremalResult:
    """Exact M(alpha, N): maximum Sol over subsets of size <= floor(alpha N).

    Same scan and tie-break as ``min_sol_exact``: O(N 2^N) time, O(2^N) memory.
    """
    return _exact_scan(system, n, _size_bound(alpha, n, False), False)


# ---------------------------------------------------------------------------
# annealing


_RAW_BLOCK = 1024  # PCG64 words drawn, and their draws computed, per block
_T0, _COOLING, _T_FLOOR = 0.08, 0.999, 1e-6  # temperature max(T0 * COOLING**step, T_FLOOR)


@functools.cache
def _temperatures() -> tuple[float, ...]:
    """``max(_T0 * _COOLING**step, _T_FLOOR)`` for each step before the floor (step 11,285)."""
    table = []
    while (t := _T0 * _COOLING ** len(table)) > _T_FLOOR:
        table.append(t)
    return tuple(table)


def _lemire(halves: np.ndarray, k: int) -> list[int]:
    """Lemire's ``integers(k)`` on each uint32 of halves, -1 where it rejects, then one -1.

    ``integers(1)`` draws no word, so for k = 1 every entry is -1.
    """
    if k == 1:
        return [-1] * (len(halves) + 1)
    m = halves * np.uint64(k)
    draws = (m >> 32).astype(np.int64)
    draws[m & 0xFFFFFFFF < (1 << 32) % k] = -1  # 2^32 mod k is numpy's (2^32 - k) % k
    draws = draws.tolist()
    draws.append(-1)
    return draws


def _draw_block(bitgen, carry, moves: int, n_in: int, n_out: int):
    """The raw words ``[carry]`` + fresh PCG64 words, and what each one draws.

    The fresh words are ``_RAW_BLOCK``, or fewer when ``moves`` moves
    without a rejection read no more.  Returns ``(raw, i_low, j_high,
    i_high, j_low, doubles)``, indexed by word.  Word w read with no half
    word buffered gives i = i_low[w] from its low half and j = j_high[w]
    from its high half.  Read with a half buffered, it gives j = j_low[w]
    and buffers its high half, from which the next move takes
    i = i_high[w].  doubles[w] is ``next_double``.  Each draw list ends
    with a -1 one past the last word.
    """
    size = min(_RAW_BLOCK, 2 * moves + 1)
    raw = np.empty(size + 1, dtype=np.uint64)
    raw[0] = carry
    raw[1:] = bitgen.random_raw(size)
    low, high = raw & 0xFFFFFFFF, raw >> 32
    return (
        raw,
        _lemire(low, n_in),
        _lemire(high, n_out),
        _lemire(high, n_in),
        _lemire(low, n_out),
        ((raw >> 11) * 2.0**-53).tolist(),
    )


def _bitsets(flags: np.ndarray) -> list[int]:
    """One Python-int bitset per row of flags, bit p set where flags[row, p] != 0."""
    packed = np.packbits(np.ascontiguousarray(flags), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _weight(bits: int, w_max: int, runs) -> int:
    """The grid points of the masks in a bitset of ``_anneal_setup``."""
    return w_max * bits.bit_count() - sum(dw * (bits & run).bit_count() for dw, run in runs)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _anneal_setup(system: LinearFormSystem, n: int):
    """``(masks, uses, degree, top, weights)`` for ``_anneal``, built once per (system, N).

    masks: the table's distinct configuration masks, read-only, ordered by
    multiplicity (stably, so by value within a multiplicity), the lowest
    first; uses[v]: the bitset of masks through vertex v; top: the most
    distinct vertices of one configuration.  Bit i of a bitset stands for
    the mult[i] grid points of masks[i], so a bitset T holds
    weight(T) = w_max * popcount(T) - sum_c (w_max - w_c) * popcount(T & R_c)
    grid points (``_weight``), where R_c is the run of bits of the masks of
    multiplicity w_c < w_max.  weights = (w_max, ((w_max - w_c, R_c), ...)),
    and degree[v] = weight(uses[v]), the grid points through v.
    """
    masks, mult = _config_table(system, n)
    order = np.argsort(mult, kind="stable")
    masks, mult = masks[order], mult[order]
    masks.flags.writeable = False
    mask_bytes = masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    uses = []
    for b in range((n + 7) // 8):  # a byte column at a time: 16 temporary bytes per mask
        uses += _bitsets(np.unpackbits(mask_bytes[:, b : b + 1], axis=1, bitorder="little").T)
    uses = tuple(uses[:n])
    values, starts = np.unique(mult, return_index=True)
    bounds = [1 << int(b) for b in starts] + [1 << len(mult)]
    w_max = int(values[-1])
    runs = tuple(
        (w_max - int(w), bounds[c + 1] - bounds[c]) for c, w in enumerate(values[:-1])
    )
    degree = tuple(_weight(u, w_max, runs) for u in uses)
    return masks, uses, degree, int(np.bitwise_count(masks).max()), (w_max, runs)


def _anneal(
    system: LinearFormSystem,
    n: int,
    size: int,
    seed: int,
    moves: int,
    minimize: bool,
) -> tuple[int, int]:
    """Swap-neighborhood annealing at fixed subset size.

    Returns the best subset bitmask seen and its configuration count.

    The energy is exact and incremental.  Each distinct configuration mask
    of ``_anneal_setup`` has an outside count (its vertices outside the
    set) kept bit-sliced: ``digit[k]`` is the bitset of masks whose count
    has bit k set.  The energy counts grid points at 0; with ``occupied``
    (count >= 1) and ``single`` (count 1) a swap x_out -> x_in changes it
    by weight((uses[x_out] & occupied) | (uses[x_in] & single)) -
    degree[x_out], the gain at 1 through x_in alone minus the loss at 0
    through x_out.  Every grid point of one mask has the mask's outside
    count, so weighting each mask by its multiplicity (``_anneal_setup``'s
    weight) gives the integer a recount over the repeated grid gives, on
    about half as many bits for 3AP.  On accept a borrow (x_in) and a carry
    (x_out) ripple up the digits until they die.

    Draws replay what scalar ``rng.integers(k)`` and ``rng.random()``
    would give: numpy's ``next_uint32`` with its half-word buffer,
    Lemire's bounded draw (``integers(1)`` draws nothing) and
    ``next_double``, drawn only uphill.  Without a rejection a move's i and
    j take one raw PCG64 word between them, and leave the buffer as it was:
    empty, the word's low half gives i and its high half j; holding a half,
    that half gives i, the word's low half j, and its high half stays.  So
    ``_draw_block`` computes, in numpy, each word's draws for both cases
    and its ``next_double`` for blocks of ``_RAW_BLOCK`` words, and a move
    reads them from lists by word index.  A draw Lemire would reject, and
    ``integers(1)``, read -1; that move replays the scalar draws word by
    word, which may also fill or empty the buffer.  The lists hold one
    block at a time, whatever the budget.  Temperatures come from
    ``_temperatures()``.  The schedule depends only on the move index, so
    doubling the budget extends the same trajectory: best-so-far is
    monotone in the budget at fixed seed.
    """
    if moves < 0:
        raise ValueError(f"the move budget must be non-negative, got {moves}")
    rng = np.random.default_rng(seed)
    masks, uses, degree, top, (w_max, runs) = _anneal_setup(system, n)
    total = n**system.num_variables
    sign = 1 if minimize else -1

    members = [int(x) for x in rng.permutation(n)[:size]]
    mask = 0
    for x in members:
        mask |= 1 << x
    outside = [x for x in range(n) if not (mask >> x) & 1]

    outside_count = np.bitwise_count(masks & ~np.int64(mask))
    digit = _bitsets((outside_count >> np.arange(top.bit_length(), dtype=np.uint8)[:, None]) & 1)
    occupied, single = _bitsets(np.stack([outside_count >= 1, outside_count == 1]))
    energy = sign * (total - _weight(occupied, w_max, runs))
    best_energy, best_mask = energy, mask
    if not members or not outside:
        return best_mask, sign * best_energy

    bitgen = rng.bit_generator
    state = bitgen.state
    buffered = bool(state["has_uint32"])
    n_in, n_out = len(members), len(outside)
    # Lemire's integers(k) keeps m = uint32 * k once m's low word is >= 2^32 mod k
    low_in, low_out = (1 << 32) % n_in, (1 << 32) % n_out
    # p is the next word to read and q the last one a move's i and j read,
    # whose high half is the buffered half word if there is one.  Word 0 of
    # a block carries the last block's word q, or the state's buffered half.
    raw, i_low, j_high, i_high, j_low, doubles = _draw_block(
        bitgen, np.uint64(state["uinteger"] << 32 if buffered else 0), moves, n_in, n_out
    )
    p, q, end = 1, 0, len(raw)
    temperatures = _temperatures()
    cooled, t_floor, exp = len(temperatures), _T_FLOOR, math.exp
    degree = [sign * d for d in degree]  # sign folded in: change below is sign * Δ(count)
    w_max, runs = sign * w_max, [(sign * dw, run) for dw, run in runs]
    n_digits = len(digit)
    for step in range(moves):
        if buffered:
            i, j = i_high[q], j_low[p]
        else:
            i, j = i_low[p], j_high[p]
        if (i | j) >= 0:
            q = p
            p += 1
        else:  # a rejection, integers(1) or the block's end: replay the scalar draws
            half = int(raw[q]) >> 32 if buffered else -1
            drawn = []
            for k, low in ((n_in, low_in), (n_out, low_out)):
                draw = 0
                while k > 1:
                    if half < 0:
                        if p == end:
                            raw, i_low, j_high, i_high, j_low, doubles = _draw_block(
                                bitgen, raw[q], moves - step, n_in, n_out
                            )
                            p, end = 1, len(raw)
                        w, q = int(raw[p]), p
                        p += 1
                        m, half = (w & 0xFFFFFFFF) * k, w >> 32
                    else:
                        m, half = half * k, -1
                    if m & 0xFFFFFFFF >= low:
                        draw = m >> 32
                        break
                drawn.append(draw)
            i, j = drawn
            buffered = half >= 0
        x_out, x_in = members[i], outside[j]
        z_out, z_in = uses[x_out], uses[x_in]
        moved = (z_out & occupied) | (z_in & single)
        change = w_max * moved.bit_count() - degree[x_out]
        for dw, run in runs:
            change -= dw * (moved & run).bit_count()
        if change > 0:
            if p == end:
                raw, i_low, j_high, i_high, j_low, doubles = _draw_block(
                    bitgen, raw[q], moves - step, n_in, n_out
                )
                p, q, end = 1, 0, len(raw)
            u = doubles[p]
            p += 1
            t = temperatures[step] if step < cooled else t_floor
            if u >= exp(-(change / total) / t):
                continue
        members[i], outside[j] = x_in, x_out
        mask ^= (1 << x_out) | (1 << x_in)
        energy += change
        borrow, k = z_in, 0  # x_in joins the set: the counts through it drop by one
        while borrow:
            digit[k] = d = digit[k] ^ borrow
            borrow &= d
            k += 1
        carry, k = z_out, 0  # x_out leaves: the counts through it rise by one
        while carry:
            d = digit[k]
            digit[k] = d ^ carry
            carry &= d
            k += 1
        if n_digits == 2:
            high = digit[1]
        else:
            high, k = 0, 1
            while k < n_digits:
                high |= digit[k]
                k += 1
        occupied = digit[0] | high
        single = occupied ^ high
        if energy < best_energy:
            best_energy, best_mask = energy, mask
    return best_mask, sign * best_energy


def _heuristic(
    system: LinearFormSystem, alpha, n: int, seed: int, budget: int, minimize: bool
) -> ExtremalResult:
    mask, count = _anneal(system, n, _size_bound(alpha, n, minimize), seed, budget, minimize)
    cert = _mask_to_subset(n, mask)
    value = Fraction(count, n**system.num_variables)
    _verify_exact(system, cert, value)
    kind = "upperBound" if minimize else "lowerBound"
    return ExtremalResult(value, cert, "heuristic", kind, {"seed": seed, "moves": budget})


def min_sol_heuristic(
    system: LinearFormSystem,
    alpha,
    n: int,
    seed: int = 0,
    budget: int = 4000,
) -> ExtremalResult:
    """Certificate-backed upper bound on m(alpha, N) by seeded annealing."""
    return _heuristic(system, alpha, n, seed, budget, minimize=True)


def max_sol_heuristic(
    system: LinearFormSystem,
    alpha,
    n: int,
    seed: int = 0,
    budget: int = 4000,
) -> ExtremalResult:
    """Certificate-backed lower bound on M(alpha, N) by seeded annealing."""
    return _heuristic(system, alpha, n, seed, budget, minimize=False)


# ---------------------------------------------------------------------------
# maximum free density


def _forbidden_edges(
    family: Sequence[LinearFormSystem],
    n: int,
    ignore_constant_configs: bool,
) -> list[frozenset[int]]:
    """The inclusion-minimal vertex sets of the family's configurations mod N.

    Order contract: by size, and within one size in the iteration order of
    the Python ``set`` that collects them, so it follows CPython's set
    layout; the branch and bound's certificate follows this order.  An
    edge is dropped when a minimal edge of smaller size lies inside it;
    distinct edges of one size never contain one another, so each edge is
    tested only against the smaller minimal edges through its own
    vertices: O(E * degree), not O(E * |minimal|).
    """
    edges = {
        e
        for system in family
        for e in map(frozenset, image_mod_n(system, n))
        if len(e) > 1 or not ignore_constant_configs
    }
    # drop supersets: avoiding the smaller edge already avoids the bigger
    minimal: list[frozenset[int]] = []
    smaller: list[list[frozenset[int]]] = [[] for _ in range(n)]  # per vertex, of earlier sizes
    for _, same_size in groupby(sorted(edges, key=len), key=len):
        kept = [e for e in same_size if not any(f <= e for v in e for f in smaller[v])]
        for e in kept:
            for v in e:
                smaller[v].append(e)
        minimal += kept
    return minimal


def _verify_free(
    family: Sequence[LinearFormSystem],
    cert: CyclicSubset,
    ignore_constant_configs: bool,
) -> None:
    """Recount every configuration of the family against the certificate."""
    inside = cert.indicator_array().astype(bool)
    for system in family:
        for phis in configurations(system, cert.modulus, DEFAULT_BRUTE_CAP):
            hit = np.logical_and.reduce([inside[phi] for phi in phis])
            if ignore_constant_configs:
                hit &= np.logical_or.reduce([phi != phis[0] for phi in phis])
            if hit.any():
                raise AssertionError("certificate contains a forbidden configuration")


def _max_independent_bb(n: int, edges: list[frozenset[int]]):
    """Exact maximum subset of [0, n) containing no edge entirely.

    A node is a candidate set ``avail``, ``live``, the bitset (bit i for
    ``edges[i]``) of edges lying entirely inside it, and ``kept``, the
    vertices no descendant may exclude.  The node branches on the first
    live edge in list order, excluding each of its vertices outside
    ``kept`` in increasing order; excluding v leaves ``live &
    ~incident[v]``, and once that child returns v joins ``kept``, so an
    edge wholly inside ``kept`` gives no child.  A node with no live edge
    is a free set, and it replaces the best set found so far only if it is
    strictly larger.

    Bound: greedily pick ν pairwise vertex-disjoint live edges (take the
    first live edge, drop every edge sharing a vertex with it, repeat).
    A free subset of ``avail`` leaves out a distinct vertex of each, so it
    has at most |avail| − ν elements, and the node is pruned when that is
    no more than the best size.  A child skipped for a kept vertex u has
    its candidate set inside that of u's finished sibling, and a finished
    subtree leaves the best size at least its largest free subset.  So
    neither a pruned nor a skipped subtree holds a strict improvement: the
    search meets the same improving sets in the same DFS order as under
    the plain |avail| bound, and returns the same one, the first maximum
    free set in DFS order.  Skipped children are never visited or
    counted; every visited node, pruned or not, counts against
    ``NODE_BUDGET``.
    """
    edge_masks = [sum(1 << v for v in e) for e in edges]
    incident = [0] * n  # incident[v]: the edges through v
    for idx, e in enumerate(edges):
        for v in e:
            incident[v] |= 1 << idx
    block = [0] * len(edges)  # block[i]: the edges sharing a vertex with edges[i]
    for idx, e in enumerate(edges):
        for v in e:
            block[idx] |= incident[v]
    best_mask, best_size, nodes = 0, -1, 0

    def recurse(avail: int, live: int, kept: int) -> None:
        nonlocal best_mask, best_size, nodes
        nodes += 1
        if nodes > NODE_BUDGET:  # tested inline: this runs at every node
            check_budget("branch-and-bound node count", nodes, NODE_BUDGET)
        size = avail.bit_count()
        rest = live
        while rest and size > best_size:
            size -= 1
            rest &= ~block[(rest & -rest).bit_length() - 1]
        if size <= best_size:
            return
        if not live:
            best_mask, best_size = avail, size
            return
        v = edge_masks[(live & -live).bit_length() - 1] & ~kept
        while v:
            bit = v & -v
            recurse(avail & ~bit, live & ~incident[bit.bit_length() - 1], kept)
            kept |= bit
            v &= v - 1

    recurse((1 << n) - 1, (1 << len(edges)) - 1, 0)
    return best_mask, best_size


def max_free_density_exact(
    family: Sequence[LinearFormSystem],
    n: int,
    ignore_constant_configs: bool = False,
) -> ExtremalResult:
    """Exact d_F(Z/N) with a verified-free certificate.

    Free means no configuration of any system of the family lands in the
    set, including diagonal ones; ``ignore_constant_configs`` weakens
    this to permit configurations whose coordinates all coincide.
    BudgetExceeded when N exceeds ``MAX_BITMASK_N`` or the search visits
    more than ``NODE_BUDGET`` nodes.
    """
    family = list(family)
    check_budget(f"bitmask modulus {n}", n, MAX_BITMASK_N)
    if not family:
        cert = CyclicSubset.full(n)
        return ExtremalResult(Fraction(1), cert, "exact", "equals", {})
    edges = _forbidden_edges(family, n, ignore_constant_configs)
    mask, size = _max_independent_bb(n, edges)
    cert = _mask_to_subset(n, mask)
    _verify_free(family, cert, ignore_constant_configs)
    return ExtremalResult(
        Fraction(size, n), cert, "exact", "equals", {"edges": len(edges)}
    )


def max_free_density_heuristic(
    family: Sequence[LinearFormSystem],
    n: int,
    seed: int = 0,
    ignore_constant_configs: bool = False,
) -> ExtremalResult:
    """Greedy randomized lower bound for d_F with a verified-free certificate.

    Each restart adds the vertices in a seeded random order, keeping one
    when no forbidden edge through it lies inside the set so far.
    """
    family = list(family)
    if not family:
        return ExtremalResult(Fraction(1), CyclicSubset.full(n), "heuristic", "lowerBound", {})
    rng = np.random.default_rng(seed)
    through: list[list[frozenset[int]]] = [[] for _ in range(n)]
    for e in _forbidden_edges(family, n, ignore_constant_configs):
        for v in e:
            through[v].append(e)
    best: set[int] = set()
    for _ in range(_GREEDY_RESTARTS):
        chosen: set[int] = set()
        for v in rng.permutation(n):
            v = int(v)
            trial = chosen | {v}
            # chosen is free, so an edge inside trial passes through v
            if any(e <= trial for e in through[v]):
                continue
            chosen = trial
        if len(chosen) > len(best):
            best = chosen
    cert = CyclicSubset.from_iterable(n, best)
    _verify_free(family, cert, ignore_constant_configs)
    return ExtremalResult(
        Fraction(len(best), n), cert, "heuristic", "lowerBound", {"seed": seed}
    )


# ---------------------------------------------------------------------------
# the dependent pair (x, kx)


def _discrete_logs(p: int) -> np.ndarray:
    """logs[x - 1] = log x to the least primitive root of the prime p, for x = 1..p-1.

    p <= 10^9 keeps every product below exact in int64.
    """
    check_budget(f"discrete-log table mod {p}", p, DEFAULT_BRUTE_CAP)
    g = primitive_root(p)
    powers = np.ones(1, dtype=np.int64)  # g^i mod p, i < p - 1
    while len(powers) < p - 1:
        powers = np.concatenate([powers, powers * pow(g, len(powers), p) % p])
    logs = np.empty(p - 1, dtype=np.int64)
    logs[powers[: p - 1] - 1] = np.arange(p - 1)
    return logs


def _dilation_cycles(k: int, p: int) -> np.ndarray:
    """Orbits of x -> kx on (Z/p)^x, one row each, all of length ord_p(k).

    Row i is c_i k^e for e = 0, 1, ..., where c_0 < c_1 < ... are the
    orbits' least members.  With m = (p - 1) / ord(k) orbits (the cosets
    of <k>), x lies in orbit log x mod m and is c k^e for
    e = (log x - log c) / m * (log k / m)^{-1} mod ord(k).
    """
    logs = _discrete_logs(p)
    log_k = int(logs[k % p - 1])
    m = math.gcd(log_k, p - 1)
    order = (p - 1) // m
    classes = logs % m
    first = np.full(m, p - 1)  # index of c, per class
    np.minimum.at(first, classes, np.arange(p - 1))
    exps = logs  # reused in place for e, so the table costs no further p-sized array
    exps -= exps[first][classes]
    exps %= p - 1
    exps //= m
    exps *= pow(log_k // m, -1, order)
    exps %= order
    rank = np.empty(m, dtype=np.int64)  # orbits by least member
    rank[np.argsort(first)] = np.arange(m)
    cycles = np.empty((m, order), dtype=np.int64)
    cycles[rank[classes], exps] = np.arange(1, p)
    return cycles


def _cycle_members(cycle: list[int], count: int, order: int) -> list[int]:
    """Pick ``count`` members of a dilation cycle with minimal solution cost.

    Cost max(0, 2j - n): alternate while possible, then pack the excess
    into one run.
    """
    n = order
    j = count
    if j == 0:
        return []
    if j <= n // 2:
        return [cycle[2 * u] for u in range(j)]
    if j == n:
        return list(cycle)
    runs = n - j  # number of gaps, each of length 1
    first_run = j - (runs - 1)
    picked = []
    pos = 0
    picked.extend(cycle[pos : pos + first_run])
    pos += first_run + 1
    for _ in range(runs - 1):
        picked.append(cycle[pos])
        pos += 2
    return picked


def dependent_pair_exact(k: int, p: int, alpha=None):
    """Exact free density, and minimum solution measure, for (x, kx) mod p.

    The units decompose into cycles of length ord_p(k) under dilation by
    k; the free density is floor(n/2) per cycle (0 itself is never free:
    it forms the configuration (0, 0)).  The minimum at density alpha
    distributes the required size across cycles by the convex per-cycle
    cost max(0, 2j - n), plus cost 1 if 0 is used.

    Returns (density_result, min_result_or_None).
    """
    if abs(k) < 2:
        raise ValueError("need |k| >= 2")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k % p == 0:
        raise ValueError("k must be a unit mod p")
    system = dilate_pair(k)
    cycles = _dilation_cycles(k, p).tolist()
    order = len(cycles[0])
    per_cycle = order // 2
    members: list[int] = []
    for cyc in cycles:
        members.extend(_cycle_members(cyc, per_cycle, order))
    cert = CyclicSubset.from_iterable(p, members)
    measured = sol_count(cert, system)
    if measured.count != 0:
        raise AssertionError("free certificate contains a configuration")
    density = ExtremalResult(
        Fraction(len(cert), p),
        cert,
        "exact",
        "equals",
        {"order": order, "cycles": len(cycles)},
    )
    if alpha is None:
        return density, None

    size_min = _size_bound(alpha, p, True)
    num_cycles = len(cycles)
    # Fill slots in marginal-cost order.  Cost 0: round-robin up to
    # floor(n/2) per cycle.  Cost 1: one extra per cycle when n is odd, in
    # cycle order, then the element 0.  Cost 2: the remaining capacity,
    # cycle by cycle.
    left = size_min
    base, extra = divmod(min(left, num_cycles * per_cycle), num_cycles)
    counts = [base + (c < extra) for c in range(num_cycles)]
    left -= sum(counts)
    extras = min(left, num_cycles) if order % 2 == 1 else 0
    for c in range(extras):
        counts[c] += 1
    left -= extras
    use_zero = left > 0
    left -= use_zero
    for c in range(num_cycles):
        more = min(left, order - counts[c])
        counts[c] += more
        left -= more

    chosen: list[int] = []
    for cyc, j in zip(cycles, counts):
        chosen.extend(_cycle_members(cyc, j, order))
    if use_zero:
        chosen.append(0)
    min_cert = CyclicSubset.from_iterable(p, chosen)
    assert len(min_cert) == size_min
    measured = sol_count(min_cert, system)
    expected = sum(max(0, 2 * j - order) for j in counts) + use_zero
    if measured.count != expected:
        raise AssertionError(
            f"cycle placement cost {measured.count} != convex optimum {expected}"
        )
    min_result = ExtremalResult(
        Fraction(measured.count, p),
        min_cert,
        "exact",
        "equals",
        {"order": order, "size": size_min},
    )
    return density, min_result


# ---------------------------------------------------------------------------
# explicit constructions


def weyl_set(p: int, k: int, d: int) -> CyclicSubset:
    """The power-residue interval set {x : x^d mod p in I}.

    I is the interval of half-width delta p around floor(p / k^d) with
    delta = 1 / (4 k^{2d}); k-dilates of the set have d-th powers in the
    disjoint dilated interval, so the set is verified free of (x, kx)
    configurations before it is returned.  Its density approaches
    2 delta = 1 / (2 k^{2d}).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 2 or d < 2:
        raise ValueError("need k >= 2 and d > 1")
    delta = Fraction(1, 4 * k ** (2 * d))
    center = p // k**d
    lo = center - delta * p
    hi = center + delta * p
    if lo <= 0 or hi >= p:
        raise ValueError("interval is degenerate at these parameters")
    # the recount below walks p points anyway; p <= 10^9 keeps x^d mod p exact in int64
    check_budget(f"power-residue table mod {p}", p, DEFAULT_BRUTE_CAP)
    x = np.arange(p, dtype=np.int64)
    power = x
    for _ in range(d - 1):
        power = power * x % p
    inside = (power >= math.ceil(lo)) & (power <= math.floor(hi))
    subset = CyclicSubset(p, tuple(np.flatnonzero(inside).tolist()))
    if sol_count(subset, dilate_pair(k)).count != 0:
        raise AssertionError("power-residue interval set is not dilation-free")
    return subset


def weyl_target_density(k: int, d: int) -> Fraction:
    return Fraction(1, 2 * k ** (2 * d))


def multiplicative_free_set(k: int, p: int) -> CyclicSubset:
    """A dilation-free set of density about 1/2 from multiplicative cosets.

    For k = -1 the first half interval works; otherwise take the even
    powers E = {k^2, k^4, ...} inside the subgroup generated by k and
    spread E across all cosets.  A cap kA = empty is verified exactly.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    k_mod = k % p
    if k_mod in (0, 1):
        raise ValueError("k must not be 0 or 1 mod p")
    if k_mod == p - 1:
        members = range(1, (p - 1) // 2 + 1)
    else:
        # keep each dilation cycle's members at the even exponents 2j mod ord(k)
        cycles = _dilation_cycles(k, p)
        order = cycles.shape[1]
        even = np.zeros(order, dtype=bool)
        even[2 * np.arange(1, order // 2 + 1) % order] = True
        keep = np.zeros(p, dtype=bool)
        keep[cycles[:, even]] = True
        members = np.flatnonzero(keep).tolist()
    subset = CyclicSubset(p, tuple(members))
    if sol_count(subset, dilate_pair(k)).count != 0:
        raise AssertionError("multiplicative construction is not dilation-free")
    return subset


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _interval_candidates(n: int, max_denominator: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct [lo, hi) = [ceil(aN/D0), ceil(bN/D0)) over 0 <= a < b <= D0 <= max_denominator.

    Only proper nonempty intervals (0 < hi - lo < N) are kept.  They come
    sorted densest first, then leftmost; that key is unique per pair, so
    the set of pairs alone fixes the order.  Cached: the arrays are read-only.
    """
    keys = [np.zeros(0, dtype=np.int64)]
    for d0 in range(1, max_denominator + 1):
        ends = -((-np.arange(d0 + 1, dtype=np.int64) * n) // d0)  # ceil(jN/D0)
        a, b = np.triu_indices(d0 + 1, 1)
        lo, hi = ends[a], ends[b]
        keep = (hi > lo) & (hi - lo < n)
        keys.append(lo[keep] * (n + 1) + hi[keep])
    lo, hi = np.divmod(np.unique(np.concatenate(keys)), n + 1)
    both = np.stack((lo, hi))[:, np.lexsort((lo, lo - hi))]
    both.flags.writeable = False
    return tuple(both)


def interval_free_set(system: LinearFormSystem, n: int) -> ExtremalResult | None:
    """Densest rational-endpoint interval that is verified free for the system.

    Candidate intervals [a N / D0, b N / D0) run over denominators
    D0 <= ``MAX_DENOMINATOR``; every returned set is re-verified free by an
    exact configuration scan.  Returns None when nothing free turns up
    within the denominator budget; invariant systems are rejected
    outright since only non-invariant systems admit free intervals.
    One pass over the N^D grid builds a freeness table that answers all
    candidates at once: O(t N^D + D0^3) time.
    """
    if is_invariant(system):
        raise ValueError("invariant systems admit no free sets; need a non-invariant system")
    los, his = _interval_candidates(n, MAX_DENOMINATOR)
    # A configuration lies in [lo, hi) iff its smallest coordinate is >= lo
    # and its largest is < hi, so [lo, hi) is free iff hi <= reach[lo] with
    # reach[lo] = min{largest coordinate : smallest coordinate >= lo}.
    reach = np.full(n + 1, n, dtype=np.int64)
    for phis in configurations(system, n, DEFAULT_BRUTE_CAP):
        vals = np.stack(phis)
        np.minimum.at(reach, vals.min(axis=0), vals.max(axis=0))
    reach = np.minimum.accumulate(reach[::-1])[::-1]
    free = np.flatnonzero(his <= reach[los])
    if free.size == 0:
        return None
    lo, hi = int(los[free[0]]), int(his[free[0]])
    subset = CyclicSubset(n, tuple(range(lo, hi)))
    if sol_count(subset, system).count != 0:
        raise AssertionError("freeness table and recount disagree")
    return ExtremalResult(
        subset.density,
        subset,
        "construction",
        "lowerBound",
        {"interval": f"[{lo}, {hi})"},
    )
