"""Convergence-scan experiments and their CSV/SVG artifacts.

A scan runs one extremal quantity per modulus and writes a CSV plus a
self-contained SVG line plot with prime moduli drawn as filled markers
and composite ones hollow.  Identical command and seed give a
byte-identical CSV apart from the elapsed-milliseconds column, which is
excluded from the determinism hash.
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .extremal import (
    check_alpha,
    dependent_pair_exact,
    max_free_density_exact,
    max_free_density_heuristic,
    max_sol_exact,
    max_sol_heuristic,
    min_sol_exact,
    min_sol_heuristic,
)
from .forms import BudgetExceeded, LinearFormSystem, as_dependent_pair
from .primes import is_prime, smallest_prime_factor

CSV_HEADER = "N,isPrime,p1,quantity,value,method,seed,elapsedMs"


@dataclass(frozen=True)
class ScanRecord:
    n: int
    is_prime: bool
    smallest_prime_factor: int
    quantity: str  # "m" | "M" | "d"
    value: float | None
    method: str
    seed: int | None  # None, written empty, in exact mode, which reads no seed
    elapsed_ms: float
    reason: str | None = None  # why a row was skipped: "prime-floor", "time" or "budget"

    def csv_row(self) -> str:
        value = "" if self.value is None else repr(float(self.value))
        seed = "" if self.seed is None else self.seed
        return (
            f"{self.n},{int(self.is_prime)},{self.smallest_prime_factor},"
            f"{self.quantity},{value},{self.method},{seed},{self.elapsed_ms:.3f}"
        )


def _run_quantity(
    system: LinearFormSystem,
    quantity: str,
    alpha,
    n: int,
    mode: str,
    seed: int,
    ignore_constant: bool,
):
    if quantity in ("m", "M"):
        if mode == "heuristic":
            solver = min_sol_heuristic if quantity == "m" else max_sol_heuristic
            return solver(system, alpha, n, seed=seed)
        return (min_sol_exact if quantity == "m" else max_sol_exact)(system, alpha, n)
    k = as_dependent_pair(system)
    # dependent_pair_exact counts (0, 0) as a configuration, so 0 is never free there
    if not ignore_constant and k is not None and abs(k) >= 2 and is_prime(n) and n > abs(k):
        density, _ = dependent_pair_exact(k, n)
        return density
    if mode == "heuristic":
        return max_free_density_heuristic(
            [system], n, seed=seed, ignore_constant_configs=ignore_constant
        )
    return max_free_density_exact([system], n, ignore_constant_configs=ignore_constant)


def scan_convergence(
    system: LinearFormSystem,
    quantity: str,
    alpha,
    moduli: Sequence[int],
    mode: str = "exact",
    seed: int = 0,
    out_dir: str | Path | None = None,
    min_prime_factor: int = 1,
    budget_ms: int | None = None,
    ignore_constant: bool = False,
) -> tuple[list[ScanRecord], str]:
    """Run the quantity over the moduli; returns (records, csv_text).

    A modulus yields a row marked skipped, and the scan continues, when
    it is below the requested smallest-prime-factor floor (reason
    "prime-floor"), when the cumulative wall time has passed
    ``budget_ms`` (reason "time"), or when its computation raises
    BudgetExceeded (reason "budget").  Any other error propagates.  An
    unknown quantity or mode, an alpha outside [0, 1] for m or M,
    ``ignore_constant`` with m or M, or a negative ``budget_ms``, raises
    ValueError before the first modulus is run.  ``ignore_constant`` makes
    d the density free of every configuration whose coordinates are not
    all equal, as in ``max_free_density_exact``; without it a
    translation-invariant system has d = 0, since each point is a
    constant configuration.  The seed column
    is empty in exact mode, which reads no seed.  With ``out_dir`` the CSV
    and SVG artifacts are written there.
    """
    if quantity not in ("m", "M", "d"):
        raise ValueError(f"unknown quantity {quantity!r}; use m, M, or d")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}; use exact or heuristic")
    if quantity in ("m", "M"):
        check_alpha(alpha)
        if ignore_constant:
            raise ValueError("ignore_constant applies only to the quantity d")
    if budget_ms is not None and budget_ms < 0:
        raise ValueError(f"budget_ms must be non-negative, got {budget_ms}")
    records: list[ScanRecord] = []
    row_seed = seed if mode == "heuristic" else None
    scan_start = time.perf_counter()
    for n in sorted(moduli):
        t0 = time.perf_counter()
        p1 = smallest_prime_factor(n)
        result, reason, elapsed = None, None, 0.0
        if p1 < min_prime_factor:
            reason = "prime-floor"
        elif budget_ms is not None and (t0 - scan_start) * 1000 > budget_ms:
            reason = "time"
        else:
            try:
                result = _run_quantity(system, quantity, alpha, n, mode, seed, ignore_constant)
            except BudgetExceeded:
                reason = "budget"
            elapsed = (time.perf_counter() - t0) * 1000
        if result is None:
            value, method = None, "skipped"
        else:
            value, method = float(result.value), result.method
        records.append(
            ScanRecord(n, is_prime(n), p1, quantity, value, method, row_seed, elapsed, reason)
        )
    csv_text = "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        label = f"scan_{quantity}_{system.name or 'system'}"
        (out / f"{label}.csv").write_text(csv_text, encoding="utf-8")
        (out / f"{label}.svg").write_text(render_svg(records), encoding="utf-8")
    return records, csv_text


def determinism_digest(csv_text: str) -> str:
    """Hash of a scan CSV with the elapsed-milliseconds column dropped."""
    rows = []
    for line in csv_text.strip().splitlines():
        rows.append(",".join(line.split(",")[:-1]))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def render_svg(records: Sequence[ScanRecord]) -> str:
    """A dependency-free line plot; prime moduli filled, composite hollow."""
    width, height = 640, 400
    pts = [(r.n, r.value, r.is_prime) for r in records if r.value is not None]
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    buf.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    margin = 50
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi += 1
        if y_hi == y_lo:
            y_hi += 1e-9

        def sx(x):
            return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

        def sy(y):
            return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ in pts)
        buf.write(f'<polyline points="{path}" fill="none" stroke="#345" stroke-width="1.5"/>\n')
        for x, y, prime in pts:
            fill = "#345" if prime else "white"
            buf.write(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                f'stroke="#345" fill="{fill}"/>\n'
            )
        buf.write(
            f'<text x="{margin}" y="{height - 12}" font-size="12">'
            f"N from {x_lo} to {x_hi}; filled = prime</text>\n"
        )
        quantity = records[0].quantity if records else "?"
        buf.write(
            f'<text x="{margin}" y="20" font-size="12">quantity {quantity}: '
            f"{y_lo:.6g} to {y_hi:.6g}</text>\n"
        )
    else:
        buf.write(f'<text x="{margin}" y="{height // 2}" font-size="12">no data</text>\n')
    buf.write("</svg>\n")
    return buf.getvalue()
