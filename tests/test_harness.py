import itertools
import re
from fractions import Fraction

import pytest

from cyclicforms import harness
from cyclicforms.forms import LinearFormSystem, dilate_pair, three_ap
from cyclicforms.harness import (
    CSV_HEADER,
    ScanRecord,
    determinism_digest,
    render_svg,
    scan_convergence,
)
from cyclicforms.primes import (
    is_prime,
    multiplicative_order,
    primitive_root,
    smallest_prime_factor,
)


def test_primes_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(1009) and is_prime(10007) and is_prime(227)
    assert not is_prime(1) and not is_prime(0)
    assert smallest_prime_factor(1) == 1
    assert smallest_prime_factor(91) == 7
    assert smallest_prime_factor(1009) == 1009
    # past the small-prime table, trial division from 49 on
    assert smallest_prime_factor(2809) == 53  # 53^2
    assert smallest_prime_factor(3127) == 53  # 53 * 59
    assert multiplicative_order(2, 101) == 100
    assert multiplicative_order(2, 1) == multiplicative_order(0, 1) == 1  # the trivial group
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplicative_order(2, 0), "n must be positive"),
        (lambda: multiplicative_order(2, -5), "n must be positive"),
        (lambda: is_prime(2**64 + 1), "primality test is deterministic only below 2**64"),
        (lambda: smallest_prime_factor(0), "n must be positive"),
    ],
    ids=["order-zero-modulus", "order-negative-modulus", "prime-past-2^64", "spf-zero"],
)
def test_primes_input_error_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_primitive_root_is_the_least_generator():
    for p in filter(is_prime, range(2, 600)):
        g = primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert all(multiplicative_order(h, p) < p - 1 for h in range(1, g))
    assert primitive_root(99991) == 6
    with pytest.raises(ValueError, match="91 is not prime"):
        primitive_root(91)


def test_scan_exact_min_sol(tmp_path):
    records, csv_text = scan_convergence(
        three_ap(), "m", Fraction(2, 5), [5, 7, 11, 13], mode="exact", out_dir=tmp_path
    )
    assert len(records) == 4
    assert all(r.method == "exact" for r in records)
    assert records[0].value == 2 / 25
    assert (tmp_path / "scan_m_3AP.csv").exists()
    svg = (tmp_path / "scan_m_3AP.svg").read_text()
    assert svg.startswith("<svg")
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5


def test_scan_dependent_pair_density_path():
    records, _ = scan_convergence(dilate_pair(2), "d", None, [5, 7, 101], mode="exact")
    values = {r.n: r.value for r in records}
    assert abs(values[5] - 0.4) < 1e-12
    assert abs(values[101] - 50 / 101) < 1e-12


def test_scan_ignore_constant_admits_zero_for_a_dependent_pair():
    # (0, 0) is the one constant configuration of (x, 2x) at prime N, so the
    # flag adds 0 to the cycle construction's floor(ord/2) members per cycle
    for mode in ("exact", "heuristic"):
        records, _ = scan_convergence(
            dilate_pair(2), "d", None, [5, 7], mode=mode, ignore_constant=True
        )
        assert [r.value for r in records] == [3 / 5, 3 / 7]


def test_scan_free_density_path_without_a_dependent_pair():
    # Schur triples (x, y, x + y) are not invariant and not a dependent pair, so
    # the scan runs the free-density solvers; the exact values are the largest
    # sum-free densities of Z/N (Diananda and Yap)
    schur = LinearFormSystem(((1, 0), (0, 1), (1, 1)))
    exact, _ = scan_convergence(schur, "d", None, [5, 6, 7, 9], mode="exact")
    assert [(r.method, r.value) for r in exact] == [
        ("exact", 2 / 5), ("exact", 1 / 2), ("exact", 2 / 7), ("exact", 1 / 3)
    ]
    heuristic, _ = scan_convergence(schur, "d", None, [5, 6, 7, 9], mode="heuristic", seed=1)
    assert all(r.method == "heuristic" for r in heuristic)
    assert all(0 < h.value <= e.value for h, e in zip(heuristic, exact))

def test_scan_determinism_excluding_elapsed():
    _, a = scan_convergence(three_ap(), "m", Fraction(2, 5), [5, 7], mode="heuristic", seed=3)
    _, b = scan_convergence(three_ap(), "m", Fraction(2, 5), [5, 7], mode="heuristic", seed=3)
    assert determinism_digest(a) == determinism_digest(b)


def test_scan_empty_moduli():
    records, csv_text = scan_convergence(three_ap(), "m", Fraction(1, 2), [])
    assert records == []
    assert csv_text.strip() == CSV_HEADER


def test_scan_skips_below_prime_floor():
    records, _ = scan_convergence(
        three_ap(), "m", Fraction(2, 5), [5, 6, 7], min_prime_factor=3
    )
    methods = {r.n: (r.method, r.reason) for r in records}
    assert methods[6] == ("skipped", "prime-floor")
    assert methods[5] == ("exact", None)


def test_scan_marks_oversized_rows_skipped():
    records, _ = scan_convergence(three_ap(), "m", Fraction(2, 5), [5, 10**6])
    methods = {r.n: (r.method, r.reason) for r in records}
    assert methods[10**6] == ("skipped", "budget")
    assert methods[5] == ("exact", None)


def test_scan_marks_rows_past_the_time_budget_skipped(monkeypatch):
    # a clock that advances a second on every read puts each modulus past a zero budget
    clock = itertools.count()
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    records, _ = scan_convergence(three_ap(), "m", Fraction(2, 5), [5, 7], budget_ms=0)
    assert [(r.method, r.reason, r.elapsed_ms) for r in records] == [("skipped", "time", 0.0)] * 2


def test_scan_propagates_errors_that_are_not_budget_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a budget")

    monkeypatch.setattr(harness, "_run_quantity", broken)
    with pytest.raises(ValueError, match="a bug"):
        scan_convergence(three_ap(), "m", Fraction(2, 5), [5])


@pytest.mark.parametrize(
    "quantity, alpha, mode, budget_ms",
    [
        ("x", Fraction(1, 2), "exact", None),
        ("m", Fraction(7, 5), "exact", None),
        ("M", Fraction(-1, 5), "heuristic", None),
        ("M", 2, "exact", None),
        ("d", None, "fast", None),
        ("m", Fraction(2, 5), "exact", -1),
    ],
    ids=["x-alpha0-exact", "m-alpha1-exact", "M-alpha2-heuristic", "M-2-exact", "d-None-fast",
         "negative-budget-ms"],
)
def test_scan_input_errors_raise_before_the_first_modulus(
    monkeypatch, quantity, alpha, mode, budget_ms
):
    def not_reached(*args, **kwargs):
        raise AssertionError("a modulus was run")

    monkeypatch.setattr(harness, "_run_quantity", not_reached)
    with pytest.raises(ValueError):
        scan_convergence(three_ap(), quantity, alpha, [5, 7], mode=mode, budget_ms=budget_ms)


def test_scan_alpha_bounds_are_inclusive_and_ignored_for_density():
    for alpha in (0, 1):
        for quantity in ("m", "M"):
            records, _ = scan_convergence(three_ap(), quantity, alpha, [5])
            assert records[0].method == "exact"
    records, _ = scan_convergence(dilate_pair(2), "d", Fraction(7, 5), [7])
    assert records[0].value is not None


def test_render_svg_no_data():
    assert "no data" in render_svg([])


def test_render_svg_single_point_widens_both_ranges():
    svg = render_svg([ScanRecord(7, True, 7, "m", 0.5, "exact", 0, 1.0)])
    assert '<circle cx="50.00" cy="350.00" r="4" stroke="#345" fill="#345"/>' in svg
    assert "N from 7 to 8; filled = prime" in svg
    assert "quantity m: 0.5 to 0.5</text>" in svg
