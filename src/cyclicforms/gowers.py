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

Randomness contract: every seeded operation uses numpy's PCG64 generator
(``numpy.random.default_rng(seed)``), so results replay across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import CyclicFunction, CyclicSubset, sol_brute
from .forms import LinearFormSystem, check_budget, pairwise_independent, size
from .primes import is_prime, smallest_prime_factor

DEFAULT_BUDGET = 5 * 10**8  # N^{d-1} points for U^d, d >= 3, in ``gowers_norm``
DEFINITIONAL_CAP = 10**8  # N^{d+1} grid points in ``gowers_norm_definitional``
_BLOCK = 1 << 18  # elements of shifted rows per U^3 block: 64 rows at N = 4093


def _u2_fourth_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise ||.||_{U^2}^4 for a matrix of functions."""
    n = rows.shape[1]
    if np.isrealobj(rows):
        spec = np.fft.rfft(rows, axis=1)
        mags = np.abs(spec)
        mags **= 2
        mags **= 2
        totals = mags[:, 0].copy()
        if n % 2 == 0:
            totals += mags[:, -1]
            totals += 2 * mags[:, 1:-1].sum(axis=1)
        else:
            totals += 2 * mags[:, 1:].sum(axis=1)
    else:
        spec = np.fft.fft(rows, axis=1)
        mags = np.abs(spec)
        mags **= 2
        mags **= 2
        totals = mags.sum(axis=1)
    return totals / n**4


def _half_shift_weights(n: int) -> np.ndarray:
    """Weights of the shifts h = 0..n//2 that stand in for all n shifts."""
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return weights


def _power_mean(values: np.ndarray, d: int) -> float:
    """E_{h tuples} ||Delta_{h_1..h_{d-2}} f||_{U^2}^4  =  ||f||_{U^d}^{2^d}.

    ``values`` is a real array when f is real-valued, complex otherwise.
    """
    n = len(values)
    if d == 2:
        return float(_u2_fourth_rows(values[None, :])[0])
    check_budget(f"U^{d} at N={n} ({n}^{d - 1} points)", n ** (d - 1), DEFAULT_BUDGET)
    weights = _half_shift_weights(n)
    conj = np.conj(values)
    total = 0.0
    if d == 3:
        # row h of the view is x -> f(x + h), for h = 0..n//2
        shifts = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([values, values[: n // 2]]), n
        )
        step = max(1, _BLOCK // n)
        for start in range(0, len(weights), step):
            block = shifts[start : start + step] * conj
            total += float(weights[start : start + step] @ _u2_fourth_rows(block))
        return total / n
    for h, weight in enumerate(weights.tolist()):
        total += weight * _power_mean(np.roll(values, -h) * conj, d - 1)
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
    power = _power_mean(values, d)
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
