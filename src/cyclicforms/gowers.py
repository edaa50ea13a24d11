"""Gowers uniformity norms on Z/N, the von Neumann test harness, rounding.

U^d is computed by exact recursion over difference tuples down to the U^2
base case, where ||f||_{U^2}^4 = sum_r |fhat(r)|^4 under the package DFT
convention.  The definitional evaluator sums the full (d+1)-dimensional
grid and exists only as a test oracle; it shares no code with the fast
path beyond the input type.

Every recursion level visits only the shifts h = 0..N/2.  Since
Delta_{-h} f(x + h) = conj(Delta_h f(x)), the difference at -h is a
translate of the conjugate of the difference at h, and U^k norms do not
change under either; so h and N - h contribute equally (weight 2), while
h = 0 and, for even N, h = N/2 pair with themselves (weight 1).  This
holds for complex f too.  At U^3 the shifted rows f(. + h) conj(f) are
formed in blocks of about ``_BLOCK`` elements, so memory is O(block + N)
and no N x N array is ever built.

Packed rows: at lengths where numpy's real FFT costs as much as its
complex FFT (both take Bluestein's chirp-z detour, or the real one a slow
prime radix), real f has the rows h = 2i and 2i + 1 of a block share one
complex FFT, as the real and imaginary parts of one row; a block with an
odd row count pairs its last row with zeros.  The spectra separate as
u = Z(xi) + conj Z(-xi) and v = Z(xi) - conj Z(-xi) on xi = 0..N/2.
Rows pack at prime N >= 89 and at composite N whose largest prime factor
is at least 191 (``_packs``).  On one thread, packed over plain U^3 time
measured 0.41-1.00x at 33 primes from 89 to 4099 and 0.48-0.98x at 42
such composites from 382 to 4220; primes from 53 to 83 ran 0.99-1.22x,
and composites with a smaller largest prime factor 0.73-1.41x (1.25x at
2 * 23 * 89, whose real FFT takes no detour).  Complex f and other
lengths take one real (or complex) FFT per row.

Threading contract: ``gowers_norm`` runs the outermost level of the
recursion on every CPU of the process's affinity mask (``taskset``
restricts it), through one thread pool per process, made on first use.
At U^3 the threads split each block's rows, by pairs where rows pack,
and fill their slices of one block of buffers, so one block is in
flight; at U^4 and above each thread takes a run of shifts h and
recurses serially in a block of its own.
Every row and every h term is computed alone and the sums run in a fixed
order, so the result is the same float for any number of CPUs.  Small
levels (N^{d-1} < ``_SPLIT_POINTS`` or N < ``_SPLIT_N``) stay on the
calling thread.

Randomness contract: every seeded operation uses numpy's PCG64 generator
(``numpy.random.default_rng(seed)``), so results replay across platforms.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .counting import CyclicFunction, CyclicSubset, sol_brute
from .forms import LinearFormSystem, check_budget, pairwise_independent, size
from .primes import is_prime, smallest_prime_factor

DEFAULT_BUDGET = 5 * 10**8  # N^{d-1} points for U^d, d >= 3, in ``gowers_norm``
DEFINITIONAL_CAP = 10**8  # N^{d+1} grid points in ``gowers_norm_definitional``
_BLOCK = 1 << 18  # elements of shifted rows per U^3 block: 64 rows at N = 4093
# a level splits across threads only at N^{d-1} >= _SPLIT_POINTS and N >= _SPLIT_N:
# below, the thread hand-off and the interpreter lock cost more than a core saves
_SPLIT_POINTS = 1 << 17
_SPLIT_N = 170


def _half_spectrum_sums(mags: np.ndarray, n: int) -> np.ndarray:
    """Sums over all n frequencies of real rows' spectra, given on the last axis for xi <= n//2."""
    totals = mags[..., 0].copy()
    if n % 2 == 0:
        totals += mags[..., -1]
        totals += 2 * mags[..., 1:-1].sum(axis=-1)
    else:
        totals += 2 * mags[..., 1:].sum(axis=-1)
    return totals


def _u2_fourth_rows(rows: np.ndarray, spec=None, mags=None) -> np.ndarray:
    """Row-wise ||.||_{U^2}^4 for a matrix of functions.

    ``spec`` and ``mags``, when given, receive the row spectra and their
    magnitudes, so a caller can hand each worker its slice of one buffer.
    """
    n = rows.shape[1]
    fft = np.fft.rfft if np.isrealobj(rows) else np.fft.fft
    spec = fft(rows, axis=1, out=spec)
    mags = np.abs(spec, out=mags)
    mags **= 2
    mags **= 2
    totals = _half_spectrum_sums(mags, n) if np.isrealobj(rows) else mags.sum(axis=1)
    return totals / n**4


def _u2_fourth_pairs(z: np.ndarray, spec: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Row-wise ||.||_{U^2}^4 of real rows a_i, b_i of length n, as rows 2i and 2i + 1.

    Row i of z holds a_i + i b_i.  One complex FFT Z of it, into ``spec``,
    gives both real spectra on xi = 0..n//2: u = Z(xi) + conj Z(-xi) is
    twice that of a_i, and v = Z(xi) - conj Z(-xi) is 2i times that of
    b_i.  ``work`` (pairs x (n//2 + 1)) receives conj Z(-xi), then v.  The
    spent z takes Z(xi) for xi <= n//2, then the magnitudes, and the spent
    ``spec`` takes u, each packed as one contiguous array: a block of pairs
    takes no more memory than the same rows unpacked, and no ufunc reads
    or writes a strided operand, for which numpy allocates its iteration
    buffers on every call.  z and ``spec`` must be C-contiguous.
    """
    n = z.shape[1]
    half = n // 2 + 1
    size = len(z) * half
    np.fft.fft(z, axis=1, out=spec)
    np.take(spec, np.arange(0, -half, -1) % n, axis=1, out=work, mode="wrap")
    np.conjugate(work, out=work)
    front = z.reshape(-1)[:size].reshape(-1, half)
    np.copyto(front, spec[:, :half])
    u = spec.reshape(-1)[:size].reshape(-1, half)
    np.add(front, work, out=u)
    np.subtract(front, work, out=work)
    mags = z.view(float).reshape(-1)[: 2 * size].reshape(2, -1, half)  # |u| rows, |v| rows
    np.abs(u, out=mags[0])
    np.abs(work, out=mags[1])
    mags **= 2
    mags **= 2
    return _half_spectrum_sums(mags, n).T.ravel() / (16 * n**4)


def _half_shift_weights(n: int) -> np.ndarray:
    """Weights of the shifts h = 0..n//2 that stand in for all n shifts."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return weights


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool = None  # (pid, ThreadPoolExecutor), made on the first parallel call


def _map(fn, items: list) -> list:
    """[fn(item) for item in items], on the module's thread pool when there are several.

    The pool belongs to the process that made it: a forked child, which has
    none of its parent's threads, makes its own.
    """
    if len(items) == 1:
        return [fn(items[0])]
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(len(items), thread_name_prefix="gowers"))
        pool = _pool[1]
    return list(pool.map(fn, items))


def _split(count: int, workers: int) -> list[slice]:
    """At most ``workers`` runs of near-equal length that cover 0..count-1 in order."""
    parts = min(workers, count)
    edges = [count * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _packs(n: int) -> bool:
    """Whether real U^3 rows of length n go two to one complex FFT (see the module docstring)."""
    p, rest = 1, n  # p ends as the largest prime factor of n
    while rest > 1:
        p = smallest_prime_factor(rest)
        rest //= p
    return p >= (89 if p == n else 191)


def _u3_buffers(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Products, spectra and spectral magnitudes for one U^3 block of shifted rows.

    Where real rows pack, the products are complex, one pair of rows each,
    and the last buffer is the work space of ``_u2_fourth_pairs``.
    """
    rows = min(max(1, _BLOCK // n), n // 2 + 1)
    if np.dtype(dtype).kind == "f" and _packs(n):
        pairs = np.empty(((rows + 1) // 2, n), dtype=complex)
        return pairs, np.empty_like(pairs), np.empty((len(pairs), n // 2 + 1), dtype=complex)
    prod = np.empty((rows, n), dtype=dtype)
    spec = np.empty((rows, n // 2 + 1 if np.isrealobj(prod) else n), dtype=complex)
    return prod, spec, np.empty(spec.shape)


def _power_mean(values: np.ndarray, d: int, workers: int = 1, buffers=None) -> float:
    """E_{h tuples} ||Delta_{h_1..h_{d-2}} f||_{U^2}^4  =  ||f||_{U^d}^{2^d}.

    ``values`` is a real array when f is real-valued, complex otherwise.
    The outermost level runs on up to ``workers`` threads; ``buffers`` is
    a caller's ``_u3_buffers`` block for the U^3 level to reuse.
    """
    n = len(values)
    if d == 2:
        return float(_u2_fourth_rows(values[None, :])[0])
    check_budget(f"U^{d} at N={n} ({n}^{d - 1} points)", n ** (d - 1), DEFAULT_BUDGET)
    if n ** (d - 1) < _SPLIT_POINTS or n < _SPLIT_N:
        workers = 1
    weights = _half_shift_weights(n)
    conj = np.conj(values)
    total = 0.0
    if d == 3:
        prod, spec, mags = buffers or _u3_buffers(n, conj.dtype)
        # row h of the view is x -> f(x + h), for h = 0..n//2
        shifts = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([values, values[: n // 2]]), n
        )
        # a buffer row holds one shifted row, or rows 2i and 2i + 1 of the block when they pack
        width = 2 if prod.dtype != conj.dtype else 1

        def rows(part: tuple[np.ndarray, slice]) -> np.ndarray:
            shifted, cut = part
            if width == 1:
                np.multiply(shifted, conj, out=prod[cut])
                return _u2_fourth_rows(prod[cut], spec[cut], mags[cut])
            pairs = prod[cut]
            np.multiply(shifted[0::2], conj, out=pairs.real)
            odd = len(shifted) // 2
            np.multiply(shifted[1::2], conj, out=pairs.imag[:odd])
            pairs.imag[odd:] = 0  # an odd row count pairs the last row with zeros
            return _u2_fourth_pairs(pairs, spec[cut], mags[cut])[: len(shifted)]

        step = width * len(prod)
        for start in range(0, len(weights), step):
            block = shifts[start : start + step]
            cuts = _split(-(-len(block) // width), workers)
            parts = [(block[width * cut.start : width * cut.stop], cut) for cut in cuts]
            totals = np.concatenate(_map(rows, parts))
            total += float(weights[start : start + step] @ totals)
        return total / n

    # each worker takes a run of h terms and recurses serially in its own
    # block of buffers, so no task waits on the pool; terms add in h order
    def terms(cut: slice) -> list[float]:
        own = buffers or _u3_buffers(n, conj.dtype)
        return [
            _power_mean(np.roll(values, -h) * conj, d - 1, buffers=own)
            for h in range(cut.start, cut.stop)
        ]

    runs = _map(terms, _split(len(weights), workers))
    for weight, term in zip(weights.tolist(), [term for run in runs for term in run]):
        total += weight * term
    return total / n


def gowers_norm(f: CyclicFunction, d: int) -> float:
    """||f||_{U^d}; nonnegative, nested in d.

    BudgetExceeded when d >= 3 and the N^{d-1} work exceeds ``DEFAULT_BUDGET``.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d == 1:
        return abs(f.mean)
    values = np.asarray(f.values)
    if not values.imag.any():
        values = values.real
    power = _power_mean(values, d, _cpu_count())
    return max(power, 0.0) ** (1.0 / (1 << d))


def gowers_norm_definitional(f: CyclicFunction, d: int) -> float:
    """Direct evaluation of the defining (d+1)-fold average.  Test oracle only.

    BudgetExceeded when the N^{d+1} grid exceeds ``DEFINITIONAL_CAP``.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    n = f.modulus
    check_budget(f"definitional U^{d} over {n}^{d + 1} points", n ** (d + 1), DEFINITIONAL_CAP)
    values = np.asarray(f.values)
    real = bool(np.all(values.imag == 0))
    if real:
        values = values.real
    # axes: x, h_1, ..., h_{d-1}; h_d is looped over to bound memory
    axes = [np.arange(n, dtype=np.int64).reshape([-1] + [1] * d)]
    for j in range(1, d):
        shape = [1] * (d + 1)
        shape[j] = -1
        axes.append(np.arange(n, dtype=np.int64).reshape(shape))
    # sign patterns eps in [0, 2^d): bit j < d-1 adds h_{j+1}, bit d-1 adds h_d.
    # x + eps.h (mod n) over h_1..h_{d-1} is reduced once per call; the h_d
    # term is read from the rolled values, f(i + h_d) = roll(f, -h_d)[i].
    half = 1 << (d - 1)
    patterns = []
    for eps in range(half):
        idx = axes[0]
        for j in range(d - 1):
            if (eps >> j) & 1:
                idx = idx + axes[j + 1]
        patterns.append(np.mod(idx, n))

    def factor(source: np.ndarray, eps: int) -> np.ndarray:
        gathered = source[patterns[eps % half]]
        if not real and bin(eps).count("1") % 2 == 1:
            gathered = np.conj(gathered)
        return gathered

    # the product over the patterns without h_d does not depend on h_d
    fixed = factor(values, 0)
    for eps in range(1, half):
        fixed = fixed * factor(values, eps)
    total = 0.0 if real else 0.0 + 0.0j
    for hd in range(n):
        shifted = np.roll(values, -hd)
        prod = fixed
        for eps in range(half, 1 << d):
            prod = prod * factor(shifted, eps)
        total += prod.sum()
    power = total / n ** (d + 1)
    if not real:
        if abs(power.imag) > 1e-9:
            raise AssertionError("definitional average should be real")
        power = power.real
    return max(float(power), 0.0) ** (1.0 / (1 << d))


@dataclass(frozen=True)
class GvnReport:
    """Both sides of |Sol(f) - Sol(g)| <= L ||f-g||_{U^{s+1}}, with verdict."""

    sol_f: float
    sol_g: float
    lhs: float
    norm: float
    size: int
    rhs: float
    passed: bool
    degree: int


def gvn_check(
    f: CyclicFunction,
    g: CyclicFunction,
    system: LinearFormSystem,
    s: int,
    min_prime_factor: int | None = None,
) -> GvnReport:
    """Check the generalized von Neumann inequality on one (f, g) pair.

    Preconditions: [0,1]-valued inputs, pairwise-independent system, and a
    prime modulus (or, with ``min_prime_factor``, a modulus whose smallest
    prime factor clears a caller-chosen floor standing in for the paper's
    uncomputed constant).  A failed inequality is reported, not raised.
    """
    if not (f.is_real_unit_interval() and g.is_real_unit_interval()):
        raise ValueError("f and g must take values in [0, 1]")
    if f.modulus != g.modulus:
        raise ValueError("moduli differ")
    if not pairwise_independent(system):
        raise ValueError("system must be pairwise independent")
    n = f.modulus
    if min_prime_factor is None:
        if not is_prime(n):
            raise ValueError("modulus must be prime (or pass min_prime_factor)")
    elif smallest_prime_factor(n) < min_prime_factor:
        raise ValueError(f"smallest prime factor of {n} is below {min_prime_factor}")
    if s < 1:
        raise ValueError("s must be positive")
    sol_f = complex(sol_brute([f] * system.t, system)).real
    sol_g = complex(sol_brute([g] * system.t, system)).real
    delta = np.asarray(f.values) - np.asarray(g.values)
    norm = gowers_norm(CyclicFunction(n, delta), s + 1)
    lhs = abs(sol_f - sol_g)
    l = size(system)
    rhs = l * norm
    return GvnReport(
        sol_f=sol_f,
        sol_g=sol_g,
        lhs=lhs,
        norm=norm,
        size=l,
        rhs=rhs,
        passed=lhs <= rhs + 1e-12,
        degree=s,
    )


def random_round(f: CyclicFunction, seed: int) -> CyclicSubset:
    """Round a [0,1]-valued f to a set: x kept with probability f(x).

    Seeded PCG64; f = 1 gives the full set and f = 0 the empty one exactly,
    because uniforms live in [0, 1).
    """
    if not f.is_real_unit_interval():
        raise ValueError("random rounding needs real values in [0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.random(f.modulus)
    members = np.nonzero(u < f.values.real)[0]
    return CyclicSubset(f.modulus, tuple(int(x) for x in members))
