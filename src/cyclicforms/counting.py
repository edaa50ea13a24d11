"""Solution measures of linear-form systems over Z/N.

There are three counting paths, and each is checked against another:

- ``sol_brute``.  Indicator inputs take the definitional grid walk: it
  visits (Z/N)^D through ``forms.configurations``, the one chunked
  enumerator of a system's configurations, multiplies the t values at
  each point and returns the exact integer count.  It shares no row code
  with ``sol_count`` and is its oracle.  Any other input gets a float
  average from the rows of ``sol_count`` below, multiplied and summed;
  its oracle is the defining average over every point, in the tests.
- ``sol_count``, the exact count for indicator sets: it eliminates one
  variable, drops each prefix of the other variables whose constant
  slots miss their sets, multiplies the remaining slots' 0/1 byte rows
  along the eliminated variable and counts the nonzero bytes.  Every
  grid point is still tested, so the count is exact.  Exact solvers,
  certificate checks and ``has_configuration`` use it.
- ``sol_fast``, the float dual sum over the kernel presentation with one
  DFT per slot; it has a documented 1e-9 tolerance, is checked against
  the float ``sol_brute``, and is never used inside exact solvers.

DFT convention, used everywhere in this package:
    fhat(r) = E_x f(x) e(-r x / N)
which is ``numpy.fft.fft(values) / N``.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .forms import (
    KernelPresentation,
    LinearFormSystem,
    _walk,
    check_budget,
    check_grid,
    configurations,
)

MAGNITUDE_SLACK = 1e-12


def as_fraction(x) -> Fraction:
    """Coerce to an exact Fraction; floats go through their decimal literal.

    ``as_fraction(0.4) == Fraction(2, 5)``: densities written as short
    decimals mean the decimal, not the nearest binary double.  Integers
    may be any ``numbers.Integral``, numpy ones included.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class CyclicFunction:
    """A function Z/N -> complex unit disc."""

    modulus: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.modulus,):
            raise ValueError(f"need exactly {self.modulus} values")
        if not np.all(np.abs(vals) <= 1 + MAGNITUDE_SLACK):  # NaN fails this too
            raise ValueError("values must lie in the unit disc")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, c, modulus: int) -> "CyclicFunction":
        return cls(modulus, np.full(modulus, c, dtype=np.complex128))

    @property
    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def is_indicator(self) -> bool:
        v = self.values
        return bool(np.all((v == 0) | (v == 1)))

    def is_real_unit_interval(self) -> bool:
        v = self.values
        return bool(np.all(v.imag == 0) and np.all(v.real >= 0) and np.all(v.real <= 1))

    def translate(self, c: int) -> "CyclicFunction":
        """x -> f(x + c)."""
        return CyclicFunction(self.modulus, np.roll(self.values, -c))

    def modulate(self, r: int) -> "CyclicFunction":
        """x -> f(x) e(r x / N)."""
        n = self.modulus
        phase = np.exp(2j * np.pi * r * np.arange(n) / n)
        return CyclicFunction(n, self.values * phase)

    def dft(self) -> np.ndarray:
        """fhat(r) = E_x f(x) e(-rx/N)."""
        return np.fft.fft(self.values) / self.modulus


_BULK_MEMBERS = 64  # member lists from this length are checked in one numpy pass


@dataclass(frozen=True)
class CyclicSubset:
    """A subset of Z/N as a strictly increasing member list."""

    modulus: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        mem = tuple(self.members)
        values = None
        if len(mem) >= _BULK_MEMBERS:
            try:
                values = np.fromiter(mem, dtype=np.int64, count=len(mem))
            except (TypeError, ValueError, OverflowError):
                pass  # not int64: the per-member checks below raise, or pass, as they always did
        if values is None:
            mem = tuple(map(int, mem))
            outside = bool(mem) and (min(mem) < 0 or max(mem) >= self.modulus)
            increasing = all(map(operator.lt, mem, mem[1:]))
        else:
            if set(map(type, mem)) != {int}:
                mem = tuple(values.tolist())  # what int() makes of numpy ints, bools, ...
            outside = int(values.min()) < 0 or int(values.max()) >= self.modulus
            increasing = bool((values[1:] > values[:-1]).all())
        if outside:
            raise ValueError("members must lie in [0, N)")
        if not increasing:
            raise ValueError("members must be strictly increasing")
        object.__setattr__(self, "members", mem)

    @classmethod
    def from_iterable(cls, modulus: int, items) -> "CyclicSubset":
        return cls(modulus, tuple(sorted({int(x) % modulus for x in items})))

    @classmethod
    def full(cls, modulus: int) -> "CyclicSubset":
        return cls(modulus, tuple(range(modulus)))

    @classmethod
    def empty(cls, modulus: int) -> "CyclicSubset":
        return cls(modulus, ())

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        x = x % self.modulus
        i = bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.members), self.modulus)

    def indicator_array(self) -> np.ndarray:
        arr = np.zeros(self.modulus, dtype=np.uint8)
        if self.members:
            arr[np.fromiter(self.members, dtype=np.intp, count=len(self.members))] = 1
        return arr

    def indicator(self) -> CyclicFunction:
        return CyclicFunction(self.modulus, self.indicator_array().astype(np.complex128))

    def complement(self) -> "CyclicSubset":
        inside = set(self.members)
        return CyclicSubset(self.modulus, tuple(x for x in range(self.modulus) if x not in inside))

    def to_text(self) -> str:
        lines = [f"N {self.modulus}"]
        lines.extend(str(x) for x in self.members)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CyclicSubset":
        """The set of a set file: a line "N <modulus>", then one member a line, in any order.

        Blank lines are skipped.  A line that is not an integer is named by
        its 1-based number; a repeated member is named by its value.
        """
        rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not rows or not rows[0].startswith("N "):
            raise ValueError('set files start with a line "N <modulus>"')
        try:
            modulus = int(rows[0][2:])
            members = [int(ln) for ln in rows[1:]]
        except ValueError:
            numbered = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
            for k, line in [(numbered[0][0], numbered[0][1][2:].strip()), *numbered[1:]]:
                try:
                    int(line)
                except ValueError:
                    raise ValueError(f"set file line {k}: expected an integer, got {line!r}") from None
            raise
        unique = set(members)
        if len(unique) < len(members):
            seen = set()
            for x in members:
                if x in seen:
                    raise ValueError(f"set file repeats member {x}")
                seen.add(x)
        return cls(modulus, tuple(sorted(unique)))

    @classmethod
    def load(cls, path) -> "CyclicSubset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


@dataclass(frozen=True)
class SolutionMeasure:
    """Value of Sol across a system; exact count attached for indicators."""

    value: complex
    points: int
    count: int | None = None

    def __complex__(self) -> complex:
        return complex(self.value)

    @property
    def fraction(self) -> Fraction:
        if self.count is None:
            raise ValueError("no exact count: inputs were not indicators")
        return Fraction(self.count, self.points)


DEFAULT_BRUTE_CAP = 10**9
DUAL_BUDGET = 10**8  # N^k t points in the dual sum of ``sol_fast``
_ROW_BLOCK = 1 << 18  # row bytes per slot per prefix chunk: 64 uint8 rows at N = 4093


def _check_slots(fs: Sequence[CyclicFunction | CyclicSubset], system: LinearFormSystem) -> int:
    if len(fs) != system.t:
        raise ValueError(f"system has {system.t} forms but got {len(fs)} inputs")
    moduli = {f.modulus for f in fs}
    if len(moduli) != 1:
        raise ValueError("all inputs must share one modulus")
    return moduli.pop()


def sol_brute(fs: Sequence[CyclicFunction], system: LinearFormSystem) -> SolutionMeasure:
    """Sol(f_1, ..., f_t) = E_{n in (Z/N)^D} prod_i f_i(psi_i(n)).

    Indicator inputs take the definitional grid walk and carry the exact
    configuration count in the result; it is the oracle of ``sol_count``.
    Any other input takes the rows of ``sol_count``: per prefix of the
    walked variables, slot i contributes y -> f_i(base_i + c_i y), the t
    rows are multiplied and summed, so every grid point is still visited.
    Real inputs stay float64, complex ones complex128; the defining
    average is the oracle of this path in the tests.  BudgetExceeded when
    N^D exceeds ``DEFAULT_BRUTE_CAP``.
    """
    n = _check_slots(fs, system)
    total = n**system.num_variables
    if all(f.is_indicator() for f in fs):
        inds = [f.values.real.astype(np.uint8) for f in fs]
        count = 0
        for phis in configurations(system, n, DEFAULT_BRUTE_CAP):
            prod = inds[0][phis[0]]
            for ind, phi in zip(inds[1:], phis[1:]):
                prod *= ind[phi]
            count += int(prod.sum())
        return SolutionMeasure(value=complex(Fraction(count, total)), points=total, count=count)
    real = not any(f.values.imag.any() for f in fs)
    slots, chunk, walk = _row_scheme(fs, lambda f: f.values.real if real else f.values, system, n)
    buffer = np.empty((chunk, n), dtype=slots[0][0].dtype)
    acc = 0.0 + 0.0j
    for bases in walk:
        prod = _row_product(slots, bases, buffer)
        sums = np.full(len(bases[0]), float(n)) if prod is None else prod.sum(axis=1)
        scale = None
        for (table, source), base in zip(slots, bases):
            if source is None:
                scale = table[base] if scale is None else scale * table[base]
        if scale is not None:
            sums = sums * scale
        acc += complex(sums.sum())
    return SolutionMeasure(value=acc / total, points=total, count=None)


def _eliminated_column(system: LinearFormSystem, n: int) -> int:
    """The variable with the most unit coefficients mod n; the first on a tie."""
    def units(j: int) -> int:
        return sum(math.gcd(row[j] % n, n) == 1 for row in system.forms)

    return max(range(system.num_variables), key=units)


def _row_source(table: np.ndarray, c: int, n: int):
    """base -> the rows y -> table[(base + c y) % n], y < n, for 0 < c < n.

    With g = gcd(c, n), m = n / g and c' = c / g, a unit mod m:
    base + c y = r + g (u + c' y) for r = base % g and u = base // g, so the
    row has period m and its first m entries are row r of the table
    T[r, z] = table[r + g (c' z % m)] read cyclically from (c'^-1 u) % m.
    Rows come out as windows of T, doubled, repeated g times when g > 1.
    """
    g = math.gcd(c, n)
    m = n // g
    unit = c // g
    cycles = np.ascontiguousarray(table.reshape(m, g).T)  # cycles[r, z] = table[r + g z]
    if unit != 1:  # c' = 1 needs no permutation of the columns
        cycles = cycles[:, unit * np.arange(m) % m]
    doubled = np.concatenate([cycles, cycles[:, :-1]], axis=1)
    # windows[r, s] is the view doubled[r, s : s + m]; nothing is copied
    row_stride, step = doubled.strides
    windows = np.ndarray((g, m, m), doubled.dtype, doubled, 0, (row_stride, step, step))
    inv = pow(unit, -1, m)
    if g == 1:  # the common case: one window, no repetition to build
        return lambda base: windows[0, inv * base % m]

    def rows(base: np.ndarray) -> np.ndarray:
        period = windows[base % g, inv * (base // g) % m]
        return np.broadcast_to(period[:, None], (len(base), g, m)).reshape(len(base), n)

    return rows


def _row_scheme(inputs: Sequence, table_of, system: LinearFormSystem, n: int):
    """The set-up of the row paths: (slots, chunk, walk).

    One variable x_j is eliminated and the other D - 1 are walked.  Slot i
    is (table, source): ``source(base)`` gives the rows
    y -> table[(base + c_i y) % n] for a chunk of prefix bases, or is None
    when c_i = 0 mod n and the slot is the one value table[base] per
    prefix.  ``walk`` yields per chunk of ``chunk`` prefixes the slots'
    bases, so a chunk holds ``_ROW_BLOCK`` bytes of rows per slot.  There
    is one table per distinct input, ``table_of(input)``, and one source
    per distinct (input, c_i).  ``DEFAULT_BRUTE_CAP`` applies to the full
    N^D grid and is checked before anything is allocated.
    """
    d = system.num_variables
    check_grid(n, d, DEFAULT_BRUTE_CAP)
    j = _eliminated_column(system, n)
    tables, sources, slots = {}, {}, []
    for x, row in zip(inputs, system.forms):
        c = row[j] % n
        if id(x) not in tables:
            tables[id(x)] = table_of(x)
        if c and (id(x), c) not in sources:
            sources[id(x), c] = _row_source(tables[id(x)], c, n)
        slots.append((tables[id(x)], sources.get((id(x), c))))
    prefix_forms = [row[:j] + row[j + 1 :] for row in system.forms]
    chunk = max(1, _ROW_BLOCK // (n * slots[0][0].itemsize))
    return slots, chunk, _walk(prefix_forms, d - 1, n, chunk)


def _row_product(slots, bases: Sequence[np.ndarray], buffer: np.ndarray) -> np.ndarray | None:
    """The product of the row slots' rows over a chunk of prefix bases, or None.

    Slots with a source contribute their rows; constant slots (no source)
    are left to the caller.  The product fills ``buffer``, made once per call,
    so one gathered row is alive at a time: with two fresh chunk-sized
    arrays alive, glibc trimmed and re-faulted the heap top on every chunk
    (3x slower at N = 4093 in a fresh process).
    """
    prod = None
    for (_, source), base in zip(slots, bases):
        if source is None:
            continue
        if prod is None:
            prod = buffer[: len(base)]
            np.copyto(prod, source(base))
        else:
            np.multiply(prod, source(base), out=prod)
    return prod


def sol_count(
    sets: Sequence[CyclicSubset] | CyclicSubset,
    system: LinearFormSystem,
) -> SolutionMeasure:
    """Exact configuration count for indicator sets (one set, or one per slot).

    On the rows of ``_row_scheme``: a prefix p counts no configuration
    unless every constant slot (c_i = 0 mod N) has base_i(p) in A_i, so the
    other prefixes are dropped before any row is gathered.  Per remaining prefix
    slot i's membership is a 0/1 byte row y -> 1_{A_i}(base_i(p) + c_i y);
    the rows are multiplied and the count is the number of nonzero bytes.
    Every grid point is still tested, so the count is exact.
    ``DEFAULT_BRUTE_CAP`` applies to the full N^D grid and is checked
    before anything is allocated.
    """
    if isinstance(sets, CyclicSubset):
        sets = [sets] * system.t
    n = _check_slots(sets, system)
    slots, chunk, walk = _row_scheme(sets, CyclicSubset.indicator_array, system, n)
    buffer = np.empty((chunk, n), dtype=np.uint8)
    count = 0
    for bases in walk:
        live = None
        for (ind, source), base in zip(slots, bases):
            if source is None:
                live = ind[base] if live is None else live & ind[base]
        if live is not None:
            keep = np.flatnonzero(live)
            bases = [base[keep] for base in bases]
        prod = _row_product(slots, bases, buffer)
        count += n * len(bases[0]) if prod is None else int(np.count_nonzero(prod))
    total = n**system.num_variables
    return SolutionMeasure(value=complex(Fraction(count, total)), points=total, count=count)


def has_configuration(
    sets: Sequence[CyclicSubset] | CyclicSubset,
    system: LinearFormSystem,
) -> bool:
    """True iff some configuration of the system lands in the given sets.

    The count of ``sol_count`` is positive.  BudgetExceeded when N^D
    exceeds ``DEFAULT_BRUTE_CAP``.
    """
    return sol_count(sets, system).count > 0


def sol_fast(
    fs: Sequence[CyclicFunction],
    system: LinearFormSystem,
    kp: KernelPresentation,
) -> complex:
    """Sol via the dual sum  sum_{u in (Z/N)^k}  prod_i  fhat_i((B^T u)_i).

    Requires gcd(N, bad modulus) = 1 so the kernel presentation matches the
    image.  Matches ``sol_brute`` to 1e-9; cost O(t N log N + N^k t), and
    BudgetExceeded is raised when N^k t exceeds ``DUAL_BUDGET``.
    """
    n = _check_slots(fs, system)
    if math.gcd(n, kp.bad_modulus) != 1:
        raise ValueError(f"modulus {n} shares a factor with bad modulus {kp.bad_modulus}")
    k = kp.k
    if k == 0:
        out = 1.0 + 0.0j
        for f in fs:
            out *= f.mean
        return out
    check_budget(f"dual sum of {system.t} slots over {n}^{k} points", n**k * system.t, DUAL_BUDGET)
    hats = [f.dft() for f in fs]
    rows = np.array(kp.matrix, dtype=np.int64)  # k x t
    grid = np.indices((n,) * k).reshape(k, -1)  # k x n^k
    prod = np.ones(grid.shape[1], dtype=np.complex128)
    for i in range(system.t):
        freq = (rows[:, i] @ grid) % n
        prod *= hats[i][freq]
    return complex(prod.sum())


def complement_sol(a: CyclicSubset) -> tuple[Fraction, Fraction]:
    """(Sol_3AP(A), Sol_3AP(A^c)) as exact rationals; N must be odd.

    Their sum is exactly 1 - 3 alpha + 3 alpha^2 with alpha = |A|/N; this
    is asserted before returning.
    """
    from .forms import three_ap

    if a.modulus % 2 == 0:
        raise ValueError("complement identity needs odd N")
    system = three_ap()
    sol_a = sol_count(a, system).fraction
    sol_c = sol_count(a.complement(), system).fraction
    alpha = a.density
    expected = 1 - 3 * alpha + 3 * alpha**2
    if sol_a + sol_c != expected:
        raise AssertionError(
            f"complement identity violated: {sol_a} + {sol_c} != {expected}"
        )
    return sol_a, sol_c

