"""Systems of integer linear forms and their kernel presentations.

A system is a tuple of t integer linear forms Z^D -> Z, stored as the rows
of its t x D coefficient matrix.  The classification predicates here are
all exact: rank and solvability questions are settled with rational
Gaussian elimination, and the kernel presentation comes from an integer
Smith normal form, never from floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFormSystem:
    """t integer linear forms in D variables, as rows of a coefficient matrix."""

    forms: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.forms:
            raise ValueError("a system needs at least one form")
        rows = tuple(tuple(int(c) for c in row) for row in self.forms)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("ragged coefficient rows")
        if 0 in widths:
            raise ValueError("forms need at least one variable")
        for r in rows:
            if all(c == 0 for c in r):
                raise ValueError("every form must have a nonzero coefficient")
        object.__setattr__(self, "forms", rows)

    @property
    def t(self) -> int:
        return len(self.forms)

    @property
    def num_variables(self) -> int:
        return len(self.forms[0])

    def evaluate(self, point: Sequence[int], modulus: int) -> tuple[int, ...]:
        return tuple(sum(c * x for c, x in zip(row, point)) % modulus for row in self.forms)

    def to_json(self) -> str:
        obj = {"forms": [list(r) for r in self.forms]}
        if self.name is not None:
            obj = {"name": self.name, **obj}
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "LinearFormSystem":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "forms" not in obj:
            raise ValueError('expected an object with a "forms" key')
        forms = obj["forms"]
        if not isinstance(forms, list) or not forms:
            raise ValueError('"forms" must be a non-empty list of rows')
        for row in forms:
            if not isinstance(row, list) or not row:
                raise ValueError("each form must be a non-empty list")
            for c in row:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise ValueError(f"non-integer coefficient {c!r}")
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError('"name" must be a string')
        return cls(forms=tuple(tuple(r) for r in forms), name=name)

    @classmethod
    def load(cls, path) -> "LinearFormSystem":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class KernelPresentation:
    """Integer matrix whose mod-N kernel equals the image of the system.

    ``matrix`` is k x t with rows forming a saturated basis of the
    homomorphisms Z^t -> Z vanishing on the image of the system, and
    ``bad_modulus`` is the product of the nontrivial invariant factors:
    for every N coprime to it, {y : matrix . y = 0 mod N} equals the
    image of the system in (Z/N)^t.
    """

    matrix: tuple[tuple[int, ...], ...]
    bad_modulus: int
    invariant_factors: tuple[int, ...] = field(default=())

    @property
    def k(self) -> int:
        return len(self.matrix)

    def kernel_mod_n(self, n: int) -> set[tuple[int, ...]]:
        """Enumerate {y in (Z/n)^t : matrix . y = 0 mod n}, for n^t <= ``KERNEL_CAP``."""
        if not self.matrix:
            raise ValueError("k = 0 presentation: the kernel is all of (Z/n)^t")
        t = len(self.matrix[0])
        identity = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
        stacked = LinearFormSystem(identity + self.matrix)
        kernel: set[tuple[int, ...]] = set()
        for phis in configurations(stacked, n, KERNEL_CAP):
            ys, rows = phis[:t], phis[t:]
            ok = np.logical_and.reduce([row == 0 for row in rows])
            kernel.update(zip(*(y[ok].tolist() for y in ys)))
        return kernel


# ---------------------------------------------------------------------------
# classification


def size(system: LinearFormSystem) -> int:
    """Size of the system: max(D, t, max |coefficient|)."""
    coeff = max(abs(c) for row in system.forms for c in row)
    return max(system.num_variables, system.t, coeff)


def _proportional(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u and v are linearly dependent over Q: every 2x2 minor vanishes."""
    d = len(u)
    return all(u[a] * v[b] == u[b] * v[a] for a in range(d) for b in range(a + 1, d))


def pairwise_independent(system: LinearFormSystem) -> bool:
    """True iff every pair of forms is linearly independent over Q."""
    return not any(_proportional(u, v) for u, v in combinations(system.forms, 2))


class RationalSpan:
    """Exact span membership / coordinate solving for a fixed vector list.

    Row-reduces the generating vectors once; ``coordinates`` then answers
    whether a target is in the span and, when the generators are
    independent, with which coefficients.
    """

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        self.vectors = [list(v) for v in vectors]
        # reduced rows carry their expression in terms of the generators
        self._rows: list[tuple[list[Fraction], list[Fraction]]] = []
        self._pivots: list[int] = []
        for gen_index, v in enumerate(self.vectors):
            coeffs = [Fraction(int(i == gen_index)) for i in range(len(self.vectors))]
            self._insert(list(v), coeffs)
        self.rank = len(self._rows)

    def _reduce(self, vec: list[Fraction], coeffs: list[Fraction]):
        for (row, rc), p in zip(self._rows, self._pivots):
            if vec[p]:
                f = vec[p] / row[p]
                vec = [x - f * y if y else x for x, y in zip(vec, row)]
                coeffs = [x - f * y if y else x for x, y in zip(coeffs, rc)]
        return vec, coeffs

    def _insert(self, vec: list[Fraction], coeffs: list[Fraction]) -> None:
        vec, coeffs = self._reduce(vec, coeffs)
        pivot = next((i for i, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return
        self._rows.append((vec, coeffs))
        self._pivots.append(pivot)

    def contains(self, target: Sequence[Fraction]) -> bool:
        return self.coordinates(target) is not None

    def coordinates(self, target: Sequence[Fraction]):
        """Coefficients expressing target over the generators, or None.

        Requires independent generators for the coefficients to be unique;
        membership testing works regardless.
        """
        vec, coeffs = self._reduce(list(target), [Fraction(0)] * len(self.vectors))
        if any(x != 0 for x in vec):
            return None
        return [-c for c in coeffs]


def is_invariant(system: LinearFormSystem) -> bool:
    """True iff the rational image is closed under adding the all-ones vector."""
    columns = [[Fraction(c) for c in col] for col in zip(*system.forms)]
    return RationalSpan(columns).contains([Fraction(1)] * system.t)


def default_degree(system: LinearFormSystem) -> int:
    """Degree for which U^{degree+1} control suffices; t - 2 clamped at 1.

    The singleton-class Cauchy-Schwarz partition makes U^{t-1} enough for
    any pairwise-independent system, so degree t - 2 is always safe.  The
    true complexity can be lower; callers may override.
    """
    if not pairwise_independent(system):
        raise ValueError("default degree is defined for pairwise-independent systems only")
    return max(1, system.t - 2)


# ---------------------------------------------------------------------------
# Smith normal form and kernelization


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Return (S, U, V) with S = U @ matrix @ V, U,V unimodular, S diagonal.

    The diagonal satisfies the divisibility chain d_1 | d_2 | ... and all
    d_i >= 0.  Plain integer arithmetic throughout.
    """
    a = [[int(x) for x in row] for row in matrix]
    n_rows = len(a)
    n_cols = len(a[0])
    u = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    v = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    p = 0
    while p < min(n_rows, n_cols):
        # locate a nonzero entry of minimal magnitude in the trailing block
        best = None
        for i in range(p, n_rows):
            for j in range(p, n_cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(p, best[0])
        swap_cols(p, best[1])
        while True:
            # clear column p
            dirty = False
            for i in range(p + 1, n_rows):
                if a[i][p] != 0:
                    q = a[i][p] // a[p][p]
                    add_row(p, i, -q)
                    if a[i][p] != 0:  # remainder became the new, smaller pivot
                        swap_rows(p, i)
                        dirty = True
            for j in range(p + 1, n_cols):
                if a[p][j] != 0:
                    q = a[p][j] // a[p][p]
                    add_col(p, j, -q)
                    if a[p][j] != 0:
                        swap_cols(p, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block
            culprit = None
            for i in range(p + 1, n_rows):
                for j in range(p + 1, n_cols):
                    if a[i][j] % a[p][p] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, p, 1)
        if a[p][p] < 0:
            negate_row(p)
        p += 1

    # a is diagonal now; S is its diagonal, zero elsewhere
    s = [[a[i][j] if i == j else 0 for j in range(n_cols)] for i in range(n_rows)]
    return s, u, v


def kernelize(system: LinearFormSystem) -> KernelPresentation:
    """Kernel presentation of the image of the system, via Smith normal form.

    Writes the t x D coefficient matrix M as U^-1 S V^-1; the rows of U
    beyond the rank annihilate the image and form a saturated basis of the
    cokernel's free part, so for any N coprime to the product K of the
    nontrivial invariant factors, {y : rows . y = 0 mod N} is exactly the
    image of (Z/N)^D.
    """
    m = [list(row) for row in system.forms]
    s, u, _v = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    rank = sum(1 for d in diag if d != 0)
    nontrivial = tuple(d for d in diag if d > 1)
    bad = 1
    for d in nontrivial:
        bad *= d
    rows = tuple(tuple(u[i]) for i in range(rank, system.t))
    return KernelPresentation(matrix=rows, bad_modulus=bad, invariant_factors=nontrivial)


# 2^15 points keep a chunk's arrays in a 2 MiB L2 cache; on a 2-vCPU Xeon,
# chunks of 2^18 ran integer counts 3-5% and complex sums 24% slower.
_CHUNK = 1 << 15
IMAGE_CAP = 10**6  # grid points walked by ``image_mod_n``, which keeps one tuple per point
KERNEL_CAP = 10**7  # grid points walked by ``KernelPresentation.kernel_mod_n``


def configurations(system: LinearFormSystem, n: int, cap: int):
    """Walk (Z/n)^D and yield, per chunk of points, the t arrays psi_i mod n.

    Points run in row-major order, first variable most significant, so the
    concatenated output is ``system.evaluate(p, n)`` for p in
    ``itertools.product(range(n), repeat=D)``.  Raises before allocating:
    ValueError when n <= 0, BudgetExceeded when n^D exceeds ``cap``.
    """
    check_grid(n, system.num_variables, cap)
    return _walk(system.forms, system.num_variables, n, _CHUNK)


class BudgetExceeded(RuntimeError):
    """Work refused as over a cap.  Not a ValueError: the input itself is fine."""


def check_budget(work: str, size: int, limit: int) -> None:
    """The one cap check: BudgetExceeded when ``size`` units of ``work`` exceed ``limit``."""
    if size > limit:
        raise BudgetExceeded(f"{work} exceeds the cap of {limit}")


def check_grid(n: int, d: int, cap: int) -> None:
    """Raise ValueError unless 0 < n, BudgetExceeded unless n^d <= ``cap``."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    check_budget(f"enumeration of {n}^{d} points", n**d, cap)


def _walk(rows: Sequence[Sequence[int]], d: int, n: int, chunk: int):
    """Row-major walk of (Z/n)^d yielding, per chunk of points, each row's form mod n.

    Rows may be all zero and d may be 0 (a single point, the empty tuple).
    Chunks start at multiples of ``chunk``; each yields one int64 array per
    row.  For d >= 2 no per-point division is left: a grid row (the first
    d - 1 coordinates fixed) has form values base + tail mod n, where
    tail[y] = c_last y mod n is a table built once and base is one value
    per grid row, so a chunk costs one broadcast add and one conditional
    subtract of n in int32, over the <= chunk/n + 2 grid rows it touches,
    or over its own points when it lies inside one grid row.
    Memory is O(t (chunk + n)) values.  d <= 1 builds no table of size n.
    """
    total = n**d
    if d < 2:
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            yield [idx * (row[0] % n) % n if d else np.zeros_like(idx) for row in rows]
        return
    t = len(rows)
    coeffs = np.array([[c % n for c in row] for row in rows], dtype=np.int64)
    heads = coeffs[:, :-1]
    # tail - n, so s = base + tail - n lies in [-n, n) and s mod n = s + (n if s < 0);
    # int32 holds [-n, n) for every n whose n^2 grid points can be walked
    tails = (coeffs[:, -1:] * np.arange(n, dtype=np.int64) % n - n).astype(np.int32)
    powers = np.array([n ** (d - 2 - j) for j in range(d - 1)], dtype=np.int64)[:, None]
    most = min((chunk - 1) // n + 2, n ** (d - 1))  # grid rows one chunk can touch
    block = np.empty((t, most, n), dtype=np.int32)
    wrap = np.empty_like(block)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        first, lo = divmod(start, n)
        prefix = np.arange(first, (stop - 1) // n + 1, dtype=np.int64)
        bases = (heads @ (prefix // powers % n) % n).astype(np.int32)
        if len(prefix) == 1:  # inside one grid row: fill only the chunk's points
            sums = block.reshape(t, -1)[:, : stop - start]
            np.add(bases, tails[:, lo : lo + stop - start], out=sums)
            cut = slice(0, stop - start)
        else:
            sums = block[:, : len(prefix)]
            np.add(bases[:, :, None], tails[:, None, :], out=sums)
            sums = sums.reshape(t, -1)
            cut = slice(lo, lo + stop - start)
        wraps = wrap.reshape(t, -1)[:, : sums.shape[1]]
        np.right_shift(sums, 31, out=wraps)
        np.bitwise_and(wraps, n, out=wraps)
        phis = np.empty((t, stop - start), dtype=np.int64)
        np.add(sums[:, cut], wraps[:, cut], out=phis)
        yield list(phis)


def image_mod_n(system: LinearFormSystem, n: int) -> set[tuple[int, ...]]:
    """Exact enumeration of the image of (Z/n)^D in (Z/n)^t.

    BudgetExceeded when n^D exceeds ``IMAGE_CAP``.
    """
    image: set[tuple[int, ...]] = set()
    for phis in configurations(system, n, IMAGE_CAP):
        image.update(zip(*(phi.tolist() for phi in phis)))
    return image


# ---------------------------------------------------------------------------
# stock systems


def progression_system(k: int, name: str | None = None) -> LinearFormSystem:
    """The k-term progression system (n1, n1+n2, ..., n1+(k-1) n2)."""
    if k < 1:
        raise ValueError("k must be positive")
    return LinearFormSystem(
        forms=tuple((1, j) for j in range(k)),
        name=name or f"{k}AP",
    )


def three_ap() -> LinearFormSystem:
    return progression_system(3)


def four_ap() -> LinearFormSystem:
    return progression_system(4)


def dilate_pair(k: int) -> LinearFormSystem:
    """The dependent pair (n1, k n1)."""
    return LinearFormSystem(forms=((1,), (k,)), name=f"pair-x-{k}x")


def kernel_system(coefficients: Iterable[int], name: str | None = None) -> LinearFormSystem:
    """Forms whose image is exactly the integer kernel of sum c_i y_i = 0.

    Requires some coefficient of magnitude 1 so the solution set has an
    integral parametrization: solve for that slot in terms of the others.
    """
    c = [int(x) for x in coefficients]
    t = len(c)
    if t < 2:
        raise ValueError("need at least two coefficients")
    pivot = next((i for i, x in enumerate(c) if abs(x) == 1), None)
    if pivot is None:
        raise ValueError("need a coefficient of magnitude 1 for an exact parametrization")
    rows = []
    free = [i for i in range(t) if i != pivot]
    for i in range(t):
        if i == pivot:
            # y_pivot = -(sum over free slots) / c_pivot
            rows.append(tuple(-c[j] * c[pivot] for j in free))
        else:
            rows.append(tuple(int(i == j) for j in free))
    if name is None:
        name = "kernel-" + "_".join(str(x) for x in c)
    return LinearFormSystem(forms=tuple(rows), name=name)


def as_dependent_pair(system: LinearFormSystem) -> int | None:
    """If the system is two proportional forms (f, k f), return k; else None."""
    if system.t != 2:
        return None
    u, v = system.forms
    if not _proportional(u, v):
        return None
    # v = k u with k = v_a / u_a at any nonzero u_a: an integer iff u_a divides v_a
    ua, va = next((ua, va) for ua, va in zip(u, v) if ua != 0)
    return va // ua if va % ua == 0 else None
