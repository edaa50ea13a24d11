"""Scripted acceptance experiments with pinned tolerances.

Each criterion is a check registered under its id in ``CRITERIA``, as a
callable returning a CriterionReport; the test suite asserts the reports
and the ``reproduce`` entry point replays any one of them by id.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .counting import (
    CyclicFunction,
    CyclicSubset,
    complement_sol,
    sol_brute,
    sol_fast,
)
from .extremal import (
    dependent_pair_exact,
    max_free_density_exact,
    min_sol_exact,
    weyl_set,
    weyl_target_density,
)
from .forms import (
    LinearFormSystem,
    dilate_pair,
    four_ap,
    image_mod_n,
    kernel_system,
    kernelize,
    three_ap,
)
from .gowers import gowers_norm, gowers_norm_definitional, gvn_check, random_round
from .nil import (
    LevelCharacter,
    PolynomialSequence,
    annihilator_lattice,
    enumerate_characters,
    factor_coefficient,
    element_irrational,
    heisenberg_deg3,
    heisenberg_lcs,
    is_irrational,
    taylor_eval,
    taylor_expand,
    torus,
)
from .periodic import (
    build_periodic_irrational,
    character_sum,
    is_periodic,
    vertical_sum,
    verify_periodicity,
)
from .primes import multiplicative_order


@dataclass
class CriterionReport:
    criterion: str
    passed: bool
    elapsed_s: float
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.criterion} ({self.elapsed_s:.1f}s)"


CRITERIA: dict = {}


def _criterion(criterion: str):
    """Register ``check(failures) -> details`` as the criterion's zero-argument ``run()``.

    ``run()`` times the check and reports it passed when the check appended
    no failure; ``CRITERIA`` keeps the criteria in definition order.
    """

    def register(check):
        def run() -> CriterionReport:
            t0 = time.perf_counter()
            failures: list = []
            details = check(failures)
            return CriterionReport(
                criterion, not failures, time.perf_counter() - t0, details, failures
            )

        run.__name__ = run.__qualname__ = check.__name__
        run.__doc__ = check.__doc__
        CRITERIA[criterion] = run
        return run

    return register


def _random_function(rng: np.random.Generator, n: int) -> CyclicFunction:
    mags = rng.random(n)
    phases = rng.random(n) * 2 * np.pi
    return CyclicFunction(n, mags * np.exp(1j * phases))


def _random_unit_function(rng: np.random.Generator, n: int) -> CyclicFunction:
    return CyclicFunction(n, rng.random(n).astype(np.complex128))


def _random_subset(rng: np.random.Generator, n: int) -> CyclicSubset:
    mask = rng.random(n) < rng.random()
    return CyclicSubset(n, tuple(int(x) for x in np.nonzero(mask)[0]))


# ---------------------------------------------------------------------------


@_criterion("sol-oracle")
def run_sol_oracle(failures: list) -> dict:
    """Fast-path counting matches the brute-force oracle to 1e-9."""
    systems = [
        three_ap(),
        four_ap(),
        kernel_system((1, 1, -3)),
        dilate_pair(2),
    ]
    rng = np.random.default_rng(20240)
    instances = 0
    worst = 0.0
    for n in (53, 101):
        for system in systems:
            kp = kernelize(system)
            for trial in range(25):
                if trial % 2 == 0:
                    fs = [_random_function(rng, n) for _ in range(system.t)]
                else:
                    fs = [_random_subset(rng, n).indicator() for _ in range(system.t)]
                brute = complex(sol_brute(fs, system))
                fast = sol_fast(fs, system, kp)
                err = abs(brute - fast)
                worst = max(worst, err)
                instances += 1
                if err > 1e-9:
                    failures.append(f"{system.name} N={n} trial={trial}: err={err:.3e}")
    return dict(instances=instances, worst_error=worst)


@_criterion("complement-identity")
def run_complement_identity(failures: list) -> dict:
    """Sol_3AP(A) + Sol_3AP(A^c) = 1 - 3a + 3a^2 exactly, for odd N."""
    rng = np.random.default_rng(7)
    checked = 0
    for n in range(5, 102, 2):
        for _ in range(50):
            a = _random_subset(rng, n)
            try:
                complement_sol(a)  # raises if the identity fails
            except AssertionError as exc:
                failures.append(f"N={n}: {exc}")
            checked += 1
    return dict(checked=checked)


def _run_gvn(system: LinearFormSystem, s: int, n: int, failures: list) -> dict:
    rng = np.random.default_rng(101)
    for trial in range(100):
        f = _random_unit_function(rng, n)
        g = _random_unit_function(rng, n)
        rep = gvn_check(f, g, system, s)
        if not rep.passed:
            failures.append(
                f"trial {trial}: |dSol|={rep.lhs:.6f} > L*norm={rep.rhs:.6f}"
            )
    return dict(trials=100, modulus=n, degree=s)


@_criterion("gvn-3ap")
def run_gvn_3ap(failures: list) -> dict:
    """|Sol(f) - Sol(g)| <= L ||f-g||_{U^2} over 100 random pairs on Z/53."""
    return _run_gvn(three_ap(), 1, 53, failures)


@_criterion("gvn-4ap")
def run_gvn_4ap(failures: list) -> dict:
    """|Sol(f) - Sol(g)| <= L ||f-g||_{U^3} over 100 random pairs on Z/31."""
    return _run_gvn(four_ap(), 2, 31, failures)


@_criterion("gowers-oracle")
def run_gowers_oracle(failures: list) -> dict:
    """Recursive U^d equals the definitional grid sum to 1e-9, N <= 20, d <= 4."""
    rng = np.random.default_rng(33)
    worst = 0.0
    for n in range(1, 21):
        for d in range(1, 5):
            for trial in range(20):
                f = _random_function(rng, n)
                fast = gowers_norm(f, d)
                slow = gowers_norm_definitional(f, d)
                err = abs(fast - slow)
                worst = max(worst, err)
                if err > 1e-9:
                    failures.append(f"N={n} d={d} trial={trial}: err={err:.2e}")
    return dict(worst_error=worst)


def _min_sol_oracle(system: LinearFormSystem, alpha: Fraction, n: int) -> Fraction:
    """Independent exhaustive oracle: combinations per size, direct counting."""
    d = system.num_variables
    points = [tuple(p) for p in np.indices((n,) * d).reshape(d, -1).T]
    configs = [system.evaluate(p, n) for p in points]
    size_min = math.ceil(alpha * n)
    best = None
    for size in range(size_min, n + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            count = sum(1 for c in configs if all(y in inside for y in c))
            if best is None or count < best:
                best = count
    return Fraction(best, n**d)


def _free_density_oracle(system: LinearFormSystem, n: int) -> Fraction:
    d = system.num_variables
    points = np.indices((n,) * d).reshape(d, -1).T
    configs = {tuple(system.evaluate(tuple(p), n)) for p in points}
    best = 0
    for mask in range(1 << n):
        inside = {x for x in range(n) if (mask >> x) & 1}
        if len(inside) <= best:
            continue
        if all(not all(y in inside for y in c) for c in configs):
            best = len(inside)
    return Fraction(best, n)


@_criterion("extremal-exact")
def run_extremal_exact(failures: list) -> dict:
    """Exact extremal solvers agree with independent exhaustive oracles."""
    system = three_ap()
    pinned = min_sol_exact(system, Fraction(2, 5), 5)
    if pinned.value != Fraction(2, 25):
        failures.append(f"m_3AP(2/5, 5) = {pinned.value} != 2/25")
    for n in range(3, 14):
        for alpha in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)):
            got = min_sol_exact(system, alpha, n).value
            want = _min_sol_oracle(system, alpha, n)
            if got != want:
                failures.append(f"minSol(3AP, {alpha}, {n}) = {got} != oracle {want}")
    pair = dilate_pair(2)
    for n, want in ((5, Fraction(2, 5)), (7, Fraction(2, 7))):
        got = max_free_density_exact([pair], n).value
        if got != want:
            failures.append(f"d(pair, {n}) = {got} != {want}")
        oracle = _free_density_oracle(pair, n)
        if got != oracle:
            failures.append(f"d(pair, {n}) = {got} != 2^N oracle {oracle}")
    return {}


def _weyl_once(p: int) -> tuple[Fraction, float]:
    subset = weyl_set(p, 2, 2)  # raises unless the set is free of (x, 2x)
    density = subset.density
    alpha = float(density)
    diff = CyclicFunction(p, subset.indicator_array().astype(np.complex128) - alpha)
    return density, gowers_norm(diff, 2)


@_criterion("weyl-1009")
def run_weyl_1009(failures: list) -> dict:
    """p=1009, k=2, d=2: free, density near 1/32, U^2 deviation <= 0.3."""
    density, u2 = _weyl_once(1009)
    target = weyl_target_density(2, 2)
    if abs(float(density) - float(target)) > 0.02:
        failures.append(f"density {float(density):.4f} not within 0.02 of {float(target):.4f}")
    if u2 > 0.3:
        failures.append(f"U^2 deviation {u2:.4f} > 0.3")
    return dict(density=float(density), u2=u2)


@_criterion("weyl-10007")
def run_weyl_10007(failures: list) -> dict:
    """p=10007: tighter U^2 bound and strict decrease from p=1009."""
    density_small, u2_small = _weyl_once(1009)
    density, u2 = _weyl_once(10007)
    target = weyl_target_density(2, 2)
    if abs(float(density) - float(target)) > 0.02:
        failures.append(f"density {float(density):.4f} not within 0.02 of {float(target):.4f}")
    if u2 > 0.2:
        failures.append(f"U^2 deviation {u2:.4f} > 0.2")
    if not u2 < u2_small:
        failures.append(f"U^2 deviation did not decrease: {u2:.4f} vs {u2_small:.4f}")
    return dict(u2_1009=u2_small, u2_10007=u2)


@_criterion("dependent-pair")
def run_dependent_pair(failures: list) -> dict:
    """Cycle-decomposition exact values for the dependent pair (x, 2x)."""
    for p, want in ((5, Fraction(2, 5)), (7, Fraction(2, 7))):
        got = dependent_pair_exact(2, p)[0].value
        oracle = _free_density_oracle(dilate_pair(2), p)
        if got != want or got != oracle:
            failures.append(f"d(p={p}) = {got}, want {want}, oracle {oracle}")
    density, _ = dependent_pair_exact(2, 101)
    order = multiplicative_order(2, 101)
    if density.value != Fraction(50, 101):
        failures.append(f"d(101) = {density.value} != 50/101")
    if abs(float(density.value) - 0.5) > 1 / order + 1 / 101:
        failures.append(f"|d - 1/2| too large at p=101 (order {order})")
    order_1009 = multiplicative_order(2, 1009)
    _, min_result = dependent_pair_exact(2, 1009, Fraction(3, 4))
    lo = Fraction(1, 2)
    hi = Fraction(1, 2) + Fraction(2, order_1009) + Fraction(2, 1009)
    if not (lo <= min_result.value <= hi):
        failures.append(f"m(3/4, 1009) = {min_result.value} outside [{lo}, {hi}]")
    return dict(order_101=order, order_1009=order_1009, m_3_4_1009=str(min_result.value))


def _run_rounding(d: int, failures: list) -> dict:
    n = 4093
    bound = 5 * n ** (-1.0 / (1 << d))
    rng = np.random.default_rng(4093)
    functions = [CyclicFunction.constant(0.5, n)]
    for _ in range(10):
        functions.append(CyclicFunction(n, rng.random(n).astype(np.complex128)))
    medians = []
    for idx, f in enumerate(functions):
        norms = []
        for seed in range(11):
            a = random_round(f, seed=seed * 7919 + idx)
            diff = CyclicFunction(n, a.indicator_array().astype(np.complex128) - f.values)
            norms.append(gowers_norm(diff, d))
        med = statistics.median(norms)
        medians.append(med)
        if med > bound:
            failures.append(f"function {idx}: median {med:.4f} > {bound:.4f}")
    return dict(bound=bound, worst_median=max(medians), d=d)


@_criterion("rounding-u2")
def run_rounding_u2(failures: list) -> dict:
    """Random rounding stays within 5 N^{-1/4} of f in U^2 (median of 11 seeds)."""
    return _run_rounding(2, failures)


@_criterion("rounding-u3")
def run_rounding_u3(failures: list) -> dict:
    """Random rounding stays within 5 N^{-1/8} of f in U^3 (median of 11 seeds)."""
    return _run_rounding(3, failures)


def _run_periodic(model, q: int, bound: int, failures: list) -> dict:
    vertical_tol = 2 / math.sqrt(q)
    poly = build_periodic_irrational(model, q, bound, seed=7)
    if not is_periodic(poly, q):
        failures.append("is_periodic rejected the sequence")
    if not verify_periodicity(poly, q, q):
        failures.append("verify_periodicity rejected the sequence")
    ok, witness = is_irrational(poly, bound)
    if not ok:
        failures.append(f"not irrational: {witness}")
    characters = enumerate_characters(model, 1, bound)
    for xi in characters:
        value = character_sum(poly, xi, q)
        if value != 0:
            failures.append(f"character sum for k={xi.frequency} is {value}, not 0")
    vert = vertical_sum(poly, q)
    if vert > vertical_tol:
        failures.append(f"vertical sum {vert:.4f} > {vertical_tol:.4f}")
    return dict(q=q, bound=bound, vertical=vert, characters=len(characters))


@_criterion("periodic-heisenberg")
def run_periodic_heisenberg(failures: list) -> dict:
    """Heisenberg build at q=227, A=3: exact periodicity, irrationality, sums."""
    return _run_periodic(heisenberg_lcs(), 227, 3, failures)


@_criterion("periodic-torus")
def run_periodic_torus(failures: list) -> dict:
    """Torus m=2, s=2 build at q=37, A=2 with the same exact checks."""
    return _run_periodic(torus(2, 2), 37, 2, failures)


@_criterion("taylor-factorization")
def run_taylor_factorization(failures: list) -> dict:
    """Planted non-irrational coefficients factor exactly as g_i' gamma_i."""
    rng = np.random.default_rng(55)
    models = [heisenberg_lcs(), heisenberg_deg3(), torus(2, 2)]
    big_prime = 997
    for model in models:
        levels = [i for i in range(1, model.degree + 1) if model.block_rank(i) > 0]
        planted = 0
        while planted < 20:
            i = levels[int(rng.integers(len(levels)))]
            r = model.block_rank(i)
            coords = [Fraction(int(rng.integers(-5, 6))) for _ in range(r)]
            if r >= 2 and rng.random() < 0.5:
                coords[0] += Fraction(1, big_prime)
            g_i = model.from_level_coords(i, coords)
            ok, _ = element_irrational(model, i, g_i, 3)
            if ok:
                continue
            planted += 1
            try:
                g_prime, gamma, xi = factor_coefficient(model, i, g_i, 3, q=big_prime)
            except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
                failures.append(f"{model.name} level {i}: {exc}")
                continue
            if not model.in_lattice_level(gamma, i):
                failures.append(f"{model.name} level {i}: gamma not in lattice")
            if xi.value(model, g_prime) != 0:
                failures.append(f"{model.name} level {i}: xi(g') != 0")
            if (g_prime * gamma).entries != g_i.entries:
                failures.append(f"{model.name} level {i}: product mismatch")
    return {}


@_criterion("kernelize-roundtrip")
def run_kernelize_roundtrip(failures: list) -> dict:
    """Kernel presentations match exact image enumeration for coprime N <= 30."""
    systems = [
        three_ap(),
        four_ap(),
        LinearFormSystem(((1, 0), (1, 2)), name="skew-pair"),
        kernel_system((1, 1, -3)),
        dilate_pair(2),
    ]
    expected_bad = {"3AP": 1, "skew-pair": 2}
    for system in systems:
        kp = kernelize(system)
        if system.name in expected_bad and kp.bad_modulus != expected_bad[system.name]:
            failures.append(
                f"{system.name}: bad modulus {kp.bad_modulus} != {expected_bad[system.name]}"
            )
        for n in range(2, 31):
            if math.gcd(n, kp.bad_modulus) != 1:
                continue
            image = image_mod_n(system, n)
            if kp.k == 0:
                kernel = {
                    tuple(p)
                    for p in np.indices((n,) * system.t).reshape(system.t, -1).T
                }
            else:
                kernel = kp.kernel_mod_n(n)
            if image != kernel:
                failures.append(f"{system.name} N={n}: image != kernel")
    return {}


def _random_poly(model, draw) -> PolynomialSequence:
    """A sequence whose i-th coefficient draws its G_i coordinates from ``draw()``, others 0."""
    coefficients = []
    for i in range(model.degree + 1):
        cutoff = model.dim - model.level_dim(i)
        coefficients.append(
            model.from_coords([Fraction(0) if a < cutoff else draw() for a in range(model.dim)])
        )
    return PolynomialSequence(model, tuple(coefficients))


@_criterion("taylor-calculus")
def run_taylor_calculus(failures: list) -> dict:
    """Expansion/evaluation identities plus the shifted and lattice-root suites."""
    rng = np.random.default_rng(808)

    def rational() -> Fraction:
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    models = [heisenberg_lcs(), heisenberg_deg3(), torus(2, 2)]
    for model in models:
        s = model.degree
        for trial in range(100):
            poly = _random_poly(model, rational)
            values = [taylor_eval(poly, n) for n in range(s + 1)]
            back = taylor_expand(model, values)
            if any(
                a.entries != b.entries
                for a, b in zip(back.coefficients, poly.coefficients)
            ):
                failures.append(f"{model.name} trial {trial}: expand(eval) != id")
                break
    # differenced polynomials drop one level: defect coefficients g_j in G_{j+1}
    for trial in range(50):
        model = models[trial % len(models)]
        poly = _random_poly(model, rational)
        q = int(rng.integers(1, 12))
        defect = poly.defect(q)
        for j, c in enumerate(defect.coefficients):
            target_level = j + 1
            if target_level > model.degree:
                if not c.is_identity():
                    failures.append(f"shifted: {model.name} coefficient {j} not trivial")
            elif not model.in_level(c, target_level):
                failures.append(f"shifted: {model.name} coefficient {j} not in G_{j + 1}")
    # lattice-on-qZ polynomials: g_i^{q^i} is integral through every character
    prebuilt = [
        (227, build_periodic_irrational(heisenberg_lcs(), 227, 3, seed=3)),
        (37, build_periodic_irrational(torus(2, 2), 37, 2, seed=3)),
    ]
    for trial in range(50):
        q, base = prebuilt[trial % 2]
        model = base.model
        lattice_poly = _random_poly(model, lambda: Fraction(int(rng.integers(-4, 5))))
        poly = base.pointwise_product(lattice_poly)
        if not model.in_lattice(taylor_eval(poly, q)):
            failures.append(f"newton setup: {model.name} g(q) not in lattice")
            continue
        for i in range(1, model.degree + 1):
            power = poly.coefficients[i] ** (q**i)
            for k in annihilator_lattice(model, i):
                value = LevelCharacter(level=i, frequency=k).value(model, power)
                if value.denominator != 1:
                    failures.append(
                        f"newton: {model.name} level {i} frequency {k} gives {value}"
                    )
    return {}


def reproduce(criterion_id: str) -> CriterionReport:
    """Re-run one acceptance experiment by id."""
    if criterion_id not in CRITERIA:
        known = ", ".join(sorted(CRITERIA))
        raise KeyError(f"unknown criterion {criterion_id!r}; valid ids: {known}")
    return CRITERIA[criterion_id]()
