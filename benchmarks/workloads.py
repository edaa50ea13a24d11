"""The benchmark's two workloads: seeded job streams with checked answers.

A workload is an endless stream of rounds; round ``r`` is a fixed list of
job slots.  Sizes that set a job's cost class (N, alpha, q, min or max, the
seed of a nil build) follow a schedule indexed by ``r``, so two seeds cost
alike round by round; the seed draws everything else: the random sets and
functions, densities, annealing seeds and heuristic sizes, dependent-pair
primes, scan alphas, Taylor and factorization inputs.  The same seed always
yields the same jobs.

Every job calls the library (or ``cli.main`` in-process for the north-star
CLI runs), checks its answer with cheap invariants and an independent
configuration counter, and returns ``(exact, floats)``: the exact part is
compared against the recorded digest, the floats at 1e-9.  A failed check
raises ``CheckError``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import cyclicforms as cf
from cyclicforms import cli, nil
from cyclicforms.primes import is_prime

FLOAT_TOL = 1e-9


class CheckError(AssertionError):
    """A job's answer failed one of the benchmark's checks."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Job:
    kind: str
    params: dict
    run: Callable[[], tuple[object, list[float]]] = field(repr=False)

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.params], sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# independent checks and input generation


def count_configs(members, n: int, forms, skip_constant: bool = False) -> int:
    """Points of (Z/n)^D whose every form value lies in the set (a second counter)."""
    ind = np.zeros(n, dtype=bool)
    ind[np.asarray(list(members), dtype=np.int64)] = True
    d = len(forms[0])
    grid = np.indices((n,) * d).reshape(d, -1)
    vals = np.asarray(forms, dtype=np.int64) @ grid % n
    hit = np.all(ind[vals], axis=0)
    if skip_constant:
        hit &= ~np.all(vals == vals[0], axis=0)
    return int(hit.sum())


def prime_in(rng: np.random.Generator, lo: int, hi: int) -> int:
    while True:
        p = int(rng.integers(lo, hi + 1))
        if is_prime(p):
            return p


def random_set(n: int, density: float, seed: int) -> cf.CyclicSubset:
    u = np.random.default_rng(seed).random(n)
    return cf.CyclicSubset(n, tuple(int(x) for x in np.nonzero(u < density)[0]))


def random_function(n: int, seed: int) -> cf.CyclicFunction:
    return cf.CyclicFunction(n, np.random.default_rng(seed).random(n).astype(np.complex128))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def cli_json(argv: list[str]) -> dict:
    """Run ``cli.main`` in-process and parse the JSON it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"cli {' '.join(argv[:3])} exited {code}")
    return json.loads(buf.getvalue())


def members_of(cert: dict) -> list[int]:
    """Members of a certificate as the CLI prints it."""
    return list(cert["members"])


# ---------------------------------------------------------------------------
# set-up shared by the workloads


SYSTEMS = {
    "3ap": cf.three_ap,
    "k113": lambda: cf.kernel_system((1, 1, -3)),
    "4ap": cf.four_ap,
    "noninv": lambda: cf.LinearFormSystem(((1, 0), (0, 1), (1, 1)), name="non-invariant"),
}
NIL_MODELS = ("heisenberg-lcs", "heisenberg-deg3", "torus:m=2,s=2")


@dataclass
class Context:
    """What set-up builds once per process: files, presentations, models."""

    work: Path
    seed: int
    systems: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    kps: dict = field(default_factory=dict)
    pools: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)

    def write_system(self, name: str) -> None:
        system = self.systems[name] = SYSTEMS[name]()
        path = self.work / f"{name}.json"
        path.write_text(system.to_json(), encoding="utf-8")
        self.files[name] = str(path)

    def write_family(self, name: str, systems) -> None:
        path = self.work / f"family-{name}.json"
        path.write_text(json.dumps({"systems": [json.loads(s.to_json()) for s in systems]}),
                        encoding="utf-8")
        self.files[f"family-{name}"] = str(path)

    def write_set_pool(self, name: str, n: int, size: int) -> None:
        """Random sets mod n, saved as set files for the CLI jobs."""
        rng = np.random.default_rng([self.seed, len(self.pools)])
        pool = []
        for i in range(size):
            spec = {"n": n, "density": round(float(rng.uniform(0.2, 0.5)), 3),
                    "set_seed": int(rng.integers(2**31))}
            subset = random_set(spec["n"], spec["density"], spec["set_seed"])
            path = self.work / f"{name}-{i}.txt"
            subset.save(path)
            pool.append((spec, subset, str(path)))
        self.pools[name] = pool


# ---------------------------------------------------------------------------
# fourier-nil: counting and Fourier jobs


def _sol_job(kind, ctx, system_name, n, density, set_seed):
    system = ctx.systems[system_name]
    kp = ctx.kps[system_name]

    def run():
        subset = random_set(n, density, set_seed)
        measure = cf.sol_count(subset, system)
        fast = cf.sol_fast([subset.indicator()] * system.t, system, kp)
        check(0 <= measure.count <= measure.points == n**system.num_variables, "count out of range")
        check(close(fast.real, measure.count / measure.points), "sol_fast disagrees with brute")
        return {"count": measure.count}, [fast.real]

    return Job(kind, {"system": system_name, "n": n, "density": density, "set_seed": set_seed}, run)


def _nested(norms: list[float]) -> None:
    for lo, hi in zip(norms, norms[1:]):
        check(lo <= hi + 1e-12, f"U^d norms not nested: {norms}")


# Size schedules, cycled by round.  Cost tracks N closely but not smoothly
# (prime-length FFTs take Bluestein's detour, U^4 grows as N^3), so each
# window is visited at fixed primes rather than at seed-drawn ones.
CF_SIZES = {
    "full": {"large": [3989, 4049, 4093], "mid": [1999, 2053, 2099], "small": [1009, 1061, 1109],
             "u4": [173, 191, 211], "ap4": [199, 211, 223], "weyl": [10007, 50021, 99991]},
    "tiny": {"large": [131, 151], "mid": [101, 113], "small": [53, 61],
             "u4": [23, 31], "ap4": [29, 37], "weyl": [1009, 2003]},
}


def count_fourier_round(ctx: Context, rng: np.random.Generator, r: int, tiny: bool) -> list[Job]:
    sizes = CF_SIZES["tiny" if tiny else "full"]
    large, mid, small, u4, ap4, weyl = (
        sizes[k][r % len(sizes[k])] for k in ("large", "mid", "small", "u4", "ap4", "weyl"))
    jobs: list[Job] = []

    def seed() -> int:
        return int(rng.integers(2**31))

    def dens() -> float:
        return round(float(rng.uniform(0.2, 0.5)), 3)

    jobs.append(_sol_job("sol-3ap", ctx, "3ap", large, dens(), seed()))
    # three kernel-system counts, so that the median job falls inside their cluster
    for _ in range(3):
        jobs.append(_sol_job("sol-kernel", ctx, "k113", mid, dens(), seed()))
    jobs.append(_sol_job("sol-4ap", ctx, "4ap", ap4, dens(), seed()))

    n, fseed = mid, seed()

    def sol_fn(n=n, fseed=fseed):
        f = random_function(n, fseed)
        system = ctx.systems["3ap"]
        brute = cf.sol_brute([f] * 3, system).value
        fast = cf.sol_fast([f] * 3, system, ctx.kps["3ap"])
        check(close(fast.real, brute.real) and close(fast.imag, brute.imag),
              "sol_fast disagrees with sol_brute")
        return None, [brute.real]

    jobs.append(Job("sol-function", {"n": n, "f_seed": fseed}, sol_fn))

    for kind, n, ds in (("gowers-u2u3", large, (2, 3)), ("gowers-u2u3u4", u4, (2, 3, 4))):
        fseed = seed()

        def gowers(n=n, fseed=fseed, ds=ds):
            f = random_function(n, fseed)
            norms = [cf.gowers_norm(f, d) for d in ds]
            _nested(norms)
            return None, norms

        jobs.append(Job(kind, {"n": n, "f_seed": fseed}, gowers))

    for kind, n, ds in (("round-u2", large, (2,)), ("round-u3", small, (2, 3))):
        fseed, rseed = seed(), seed()

        def rounding(n=n, fseed=fseed, rseed=rseed, ds=ds):
            f = random_function(n, fseed)
            a = cf.random_round(f, rseed)
            vals = f.values.real
            check(all(vals[x] > 0 for x in a.members), "rounded set leaves the support of f")
            diff = cf.CyclicFunction(n, a.indicator_array().astype(np.complex128) - f.values)
            norms = [cf.gowers_norm(diff, d) for d in ds]
            _nested(norms)
            return {"members": list(a.members)}, norms

        jobs.append(Job(kind, {"n": n, "f_seed": fseed, "round_seed": rseed}, rounding))

    n, fseed, gseed = small, seed(), seed()

    def gvn(n=n, fseed=fseed, gseed=gseed):
        rep = cf.gvn_check(random_function(n, fseed), random_function(n, gseed),
                           ctx.systems["3ap"], 1)
        check(rep.passed and rep.lhs <= rep.rhs + 1e-12, "von Neumann inequality failed")
        return {"size": rep.size}, [rep.sol_f, rep.sol_g, rep.norm]

    jobs.append(Job("gvn", {"n": n, "f_seed": fseed, "g_seed": gseed}, gvn))

    for kind, k, p in (("weyl", 2, weyl), ("mult", int(rng.choice([2, 3])), weyl)):
        def construct(kind=kind, k=k, p=p):
            subset = cf.weyl_set(p, k, 2) if kind == "weyl" else cf.multiplicative_free_set(k, p)
            check(len(subset) > 0, "empty construction")
            check(count_configs(subset.members, p, ((1,), (k,))) == 0,
                  "construction contains an (x, kx) pair")
            return {"members": list(subset.members)}, []

        jobs.append(Job(kind, {"p": p, "k": k}, construct))

    pool = ctx.pools[f"cli-{mid}"]
    spec, subset, path = pool[int(rng.integers(len(pool)))]

    def cli_sol(spec=spec, path=path):
        brute = cli_json(["sol", "--system", ctx.files["3ap"], "--set", path])
        fast = cli_json(["sol", "--system", ctx.files["3ap"], "--set", path, "--fast"])
        check(Fraction(brute["value"]) == Fraction(brute["count"], brute["points"]),
              "sol value is not count/points")
        check(close(fast["value"], brute["count"] / brute["points"]), "cli fast disagrees with brute")
        return {"count": brute["count"]}, [fast["value"]]

    jobs.append(Job("cli-sol", spec, cli_sol))
    spec, subset, path = pool[int(rng.integers(len(pool)))]

    def cli_gowers(spec=spec, subset=subset, path=path):
        u3 = cli_json(["gowers", "--set", path, "--d", "3"])["norm"]
        _nested([cf.gowers_norm(subset.indicator(), 2), u3])
        return None, [u3]

    jobs.append(Job("cli-gowers-d3", spec, cli_gowers))
    return jobs


def count_fourier_setup(ctx: Context, tiny: bool) -> None:
    for name in ("3ap", "k113", "4ap"):
        ctx.write_system(name)
        ctx.kps[name] = cf.kernelize(ctx.systems[name])
    for n in CF_SIZES["tiny" if tiny else "full"]["mid"]:
        ctx.write_set_pool(f"cli-{n}", n, size=4)


# ---------------------------------------------------------------------------
# exact-search


def _check_extremal(system, n, value, cert_members, *, size_min=None, size_max=None) -> None:
    size = len(cert_members)
    check(size_min is None or size >= size_min, "certificate below the size bound")
    check(size_max is None or size <= size_max, "certificate above the size bound")
    count = count_configs(cert_members, n, system.forms)
    check(Fraction(count, n**system.num_variables) == Fraction(value),
          "value does not match the certificate's recount")


def _check_free(systems, n, value, cert_members, skip_constant=False) -> None:
    for system in systems:
        check(count_configs(cert_members, n, system.forms, skip_constant) == 0,
              "free certificate contains a configuration")
    check(Fraction(value) == Fraction(len(cert_members), n), "density does not match certificate")


def _exact_job(ctx, kind, system_name, alpha, n):
    system = ctx.systems[system_name]

    def run():
        fn = cf.min_sol_exact if kind == "min" else cf.max_sol_exact
        res = fn(system, alpha, n)
        bounds = ({"size_min": math.ceil(alpha * n)} if kind == "min"
                  else {"size_max": math.floor(alpha * n)})
        _check_extremal(system, n, res.value, res.certificate.members, **bounds)
        return {"value": str(res.value), "members": list(res.certificate.members)}, []

    return Job(f"{kind}-exact", {"system": system_name, "alpha": str(alpha), "n": n}, run)


ALPHAS = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))


def exact_search_round(ctx: Context, rng: np.random.Generator, r: int, tiny: bool) -> list[Job]:
    jobs: list[Job] = []

    def seed() -> int:
        return int(rng.integers(2**31))

    # Every schedule below repeats within four rounds, with the costly sizes
    # in different rounds, so that runs of different lengths mix alike.
    def pick(options):
        return options[r % len(options)]

    # exact subset scans: (kind, system, alpha) cycle with the round
    for slot, sizes in enumerate(([12, 14], [15, 16], [17, 18]) if not tiny
                                 else ([7, 8], [8, 9], [9, 10])):
        kind, system_name, alpha = [("min", "3ap", ALPHAS[0]), ("max", "k113", ALPHAS[1]),
                                    ("max", "3ap", ALPHAS[2]),
                                    ("min", "k113", ALPHAS[1])][(r + slot) % 4]
        jobs.append(_exact_job(ctx, kind, system_name, alpha, pick(sizes)))

    for kind, family, sizes, skip in (
        ("free-x2x", "x2x", [37, 21, 29, 33] if not tiny else [9, 10, 11], False),
        ("free-3ap-nonconstant", "3ap", [13, 15, 18, 20] if not tiny else [7, 8], True),
    ):
        n = pick(sizes)

        def free(family=family, n=n, skip=skip):
            systems = [cf.dilate_pair(2)] if family == "x2x" else [ctx.systems["3ap"]]
            res = cf.max_free_density_exact(systems, n, ignore_constant_configs=skip)
            _check_free(systems, n, res.value, res.certificate.members, skip)
            return {"value": str(res.value), "members": list(res.certificate.members)}, []

        jobs.append(Job(kind, {"family": family, "n": n}, free))

    heur_lo, heur_hi = (30, 61) if not tiny else (12, 16)
    heur_sizes = [31, 37, 43, 49, 55, 61] if not tiny else [12, 14, 16]
    # six annealing runs at spread sizes, so that the median job falls inside
    # their cluster rather than at its edge
    for i, (kind, system_name) in enumerate((("min-heuristic", "3ap"),
                                             ("max-heuristic", "k113")) * 3):
        n, alpha, aseed = heur_sizes[i % len(heur_sizes)], ALPHAS[int(rng.integers(3))], seed()

        def heuristic(kind=kind, system_name=system_name, n=n, alpha=alpha, aseed=aseed):
            system = ctx.systems[system_name]
            if kind == "min-heuristic":
                res = cf.min_sol_heuristic(system, alpha, n, seed=aseed)
                bounds = {"size_min": math.ceil(alpha * n), "size_max": math.ceil(alpha * n)}
            else:
                res = cf.max_sol_heuristic(system, alpha, n, seed=aseed)
                bounds = {"size_min": math.floor(alpha * n), "size_max": math.floor(alpha * n)}
            _check_extremal(system, n, res.value, res.certificate.members, **bounds)
            return {"value": str(res.value), "members": list(res.certificate.members)}, []

        jobs.append(Job(kind, {"system": system_name, "n": n, "alpha": str(alpha),
                               "anneal_seed": aseed}, heuristic))

    n, hseed = int(rng.integers(heur_lo, heur_hi + 1)), seed()

    def free_heuristic(n=n, hseed=hseed):
        systems = [ctx.systems["3ap"]]
        res = cf.max_free_density_heuristic(systems, n, seed=hseed)
        _check_free(systems, n, res.value, res.certificate.members)
        return {"value": str(res.value), "members": list(res.certificate.members)}, []

    jobs.append(Job("free-heuristic", {"n": n, "seed": hseed}, free_heuristic))

    n = pick([73, 89, 101, 61] if not tiny else [13, 17])

    def interval(n=n):
        system = ctx.systems["noninv"]
        res = cf.interval_free_set(system, n)
        check(res is not None, "no free interval found")
        members = list(res.certificate.members)
        check(members == list(range(members[0], members[0] + len(members))), "not an interval")
        _check_free([system], n, res.value, members)
        return {"value": str(res.value), "members": members}, []

    jobs.append(Job("interval", {"n": n}, interval))

    k = int(rng.choice([2, 3]))
    p = prime_in(rng, *((1009, 9973) if not tiny else (101, 199)))
    alpha = Fraction(int(rng.integers(1, 10)), 10)

    def dependent(k=k, p=p, alpha=alpha):
        density, low = cf.dependent_pair_exact(k, p, alpha)
        forms = ((1,), (k,))
        check(count_configs(density.certificate.members, p, forms) == 0, "pair certificate not free")
        check(Fraction(density.value) == Fraction(len(density.certificate), p), "density mismatch")
        check(len(low.certificate) == math.ceil(alpha * p), "minimum certificate has wrong size")
        check(Fraction(count_configs(low.certificate.members, p, forms), p) == low.value,
              "minimum value does not match its certificate")
        return {"density": str(density.value), "min": str(low.value)}, []

    jobs.append(Job("dependent-pair", {"k": k, "p": p, "alpha": str(alpha)}, dependent))

    moduli = [5, 7, 11, 13] if not tiny else [5, 7]
    qty_alpha = ALPHAS[int(rng.integers(3))]

    def scan(alpha=qty_alpha):
        records, _csv = cf.scan_convergence(ctx.systems["3ap"], "m", alpha, moduli)
        check(all(rec.method == "exact" for rec in records), "scan skipped a modulus")
        return {"values": [repr(rec.value) for rec in records]}, []

    jobs.append(Job("scan", {"alpha": str(qty_alpha), "moduli": moduli}, scan))

    n, alpha = int(rng.integers(12, 15) if not tiny else 8), ALPHAS[int(rng.integers(3))]

    def cli_min(n=n, alpha=alpha):
        out = cli_json(["min-sol", "--system", ctx.files["3ap"], "--alpha", str(alpha),
                        "--n", str(n), "--exact"])
        _check_extremal(ctx.systems["3ap"], n, out["value"], members_of(out["certificate"]),
                        size_min=math.ceil(alpha * n))
        return {"value": out["value"], "members": members_of(out["certificate"])}, []

    jobs.append(Job("cli-min-sol", {"n": n, "alpha": str(alpha)}, cli_min))

    n = int(rng.integers(21, 29) if not tiny else 9)

    def cli_free(n=n):
        out = cli_json(["max-free", "--family", ctx.files["family-x2x"], "--n", str(n)])
        _check_free([cf.dilate_pair(2)], n, out["value"], members_of(out["certificate"]))
        return {"value": out["value"], "members": members_of(out["certificate"])}, []

    jobs.append(Job("cli-max-free", {"n": n}, cli_free))

    scan_alpha, scan_seed = ALPHAS[int(rng.integers(3))], seed()

    def cli_scan(alpha=scan_alpha, scan_seed=scan_seed):
        out = cli_json(["--seed", str(scan_seed), "scan", "--system", ctx.files["3ap"],
                        "--quantity", "M", "--alpha", str(alpha),
                        "--moduli", ",".join(map(str, moduli))])
        check(not out["skipped"], "scan skipped a modulus")
        return {"values": [row.split(",")[4] for row in out["rows"]]}, []

    jobs.append(Job("cli-scan", {"alpha": str(scan_alpha), "seed": scan_seed}, cli_scan))
    return jobs


def exact_search_setup(ctx: Context, tiny: bool) -> None:
    for name in ("3ap", "k113", "noninv"):
        ctx.write_system(name)
    ctx.write_family("x2x", [cf.dilate_pair(2)])


# ---------------------------------------------------------------------------
# fourier-nil: nil-orbit jobs


def _coords(model, g) -> list[str]:
    return [str(c) for c in model.malcev_coords(g)]


def _random_level_element(model, rng, i: int):
    cutoff = model.dim - model.level_dim(i)
    coords = [Fraction(0) if a < cutoff else
              Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
              for a in range(model.dim)]
    return model.from_coords(coords)


def _planted_coefficient(model, rng, i: int):
    """Integral level-i coordinates, the first nudged off the lattice by 1/997
    half the time: a coefficient the factorization's hypotheses (q = 997) cover."""
    coords = [Fraction(int(rng.integers(-5, 6))) for _ in range(model.block_rank(i))]
    if len(coords) >= 2 and rng.random() < 0.5:
        coords[0] += Fraction(1, 997)
    return model.from_level_coords(i, coords)


def _build_job(model_name: str, q: int, bound: int, build_seed: int) -> Job:
    def run():
        out = cli_json(["nil", "build-periodic", "--model", model_name, "--q", str(q),
                        "--A", str(bound), "--seed", str(build_seed), "--verify", "full"])
        ver = out["verification"]
        check(ver["periodicSample"] is True, "orbit is not q-periodic")
        check(ver["irrational"] is True, "orbit is not irrational")
        check(ver["levelOneCharacterSums"] and all(v == [0.0, 0.0] for v in
                                                    ver["levelOneCharacterSums"].values()),
              "a level-1 character sum does not vanish")
        check(0.0 <= ver["verticalSum"] <= 1.0, "vertical sum out of range")
        coeffs = out["taylorCoefficients"]
        check(all(Fraction(c) == Fraction(c) for row in coeffs for c in row), "bad coordinates")
        return {"taylor": coeffs}, [ver["verticalSum"]]

    return Job(f"cli-build-{model_name.split(':')[0]}",
               {"model": model_name, "q": q, "A": bound, "seed": build_seed}, run)


# One nil build per round, cycled: torus:m=2,s=2 (A=2), heisenberg-deg3
# (A=2) and heisenberg-lcs (A=3, which needs q >= 216).  The build seed
# follows the schedule like q: a seed-drawn one moves a heisenberg-lcs build
# between 5.6 and 9.3 s at q=227.
NIL_BUILDS = {
    "full": [("torus:m=2,s=2", 17, 2), ("heisenberg-lcs", 223, 3), ("torus:m=2,s=2", 29, 2),
             ("heisenberg-deg3", 67, 2), ("torus:m=2,s=2", 37, 2), ("heisenberg-lcs", 227, 3),
             ("torus:m=2,s=2", 41, 2), ("heisenberg-deg3", 71, 2)],
    "tiny": [("torus:m=2,s=2", 5, 1), ("heisenberg-deg3", 11, 1), ("heisenberg-lcs", 11, 1)],
}


def nil_slice(ctx: Context, rng: np.random.Generator, r: int, tiny: bool) -> list[Job]:
    """One build, then four Taylor round trips and two factorizations."""
    def seed() -> int:
        return int(rng.integers(2**31))

    builds = NIL_BUILDS["tiny" if tiny else "full"]
    name, q, bound = builds[r % len(builds)]
    jobs = [_build_job(name, q, bound, r // len(builds) + 1)]
    for j in range(6):
        model_name = NIL_MODELS[j % 3]
        if j < 4:
            tseed, n_far = seed(), int(rng.integers(50, 500))

            def taylor(model_name=model_name, tseed=tseed, n_far=n_far):
                model = ctx.models[model_name]
                trng = np.random.default_rng(tseed)
                poly = nil.PolynomialSequence(model, tuple(
                    _random_level_element(model, trng, i) for i in range(model.degree + 1)))
                values = [nil.taylor_eval(poly, n) for n in range(model.degree + 1)]
                back = nil.taylor_expand(model, values)
                check(all(a.entries == b.entries
                          for a, b in zip(back.coefficients, poly.coefficients)),
                      "taylor_expand(taylor_eval(p)) != p")
                return {"far": _coords(model, nil.taylor_eval(poly, n_far))}, []

            jobs.append(Job("taylor-roundtrip", {"model": model_name, "seed": tseed,
                                                 "n": n_far}, taylor))
        else:
            fseed = seed()

            def factor(model_name=model_name, fseed=fseed):
                model = ctx.models[model_name]
                frng = np.random.default_rng(fseed)
                levels = [i for i in range(1, model.degree + 1) if model.block_rank(i) > 0]
                while True:  # plant a coefficient that some character maps into Z
                    i = levels[int(frng.integers(len(levels)))]
                    g_i = _planted_coefficient(model, frng, i)
                    if not nil.element_irrational(model, i, g_i, 3)[0]:
                        break
                g_prime, gamma, xi = nil.factor_coefficient(model, i, g_i, 3, q=997)
                check(model.in_lattice_level(gamma, i), "gamma left the level lattice")
                check(xi.value(model, g_prime) == 0, "g' escaped the character kernel")
                check((g_prime * gamma).entries == g_i.entries, "factorization does not multiply back")
                return {"level": i, "gamma": _coords(model, gamma)}, []

            jobs.append(Job("factor-coefficient", {"model": model_name, "seed": fseed}, factor))
    return jobs


def fourier_nil_round(ctx: Context, rng: np.random.Generator, r: int, tiny: bool) -> list[Job]:
    """Three count-fourier slices, then one nil slice (about a quarter of the time)."""
    jobs = []
    for k in range(3):
        jobs += count_fourier_round(ctx, rng, 3 * r + k, tiny)
    return jobs + nil_slice(ctx, rng, r, tiny)


def fourier_nil_setup(ctx: Context, tiny: bool) -> None:
    count_fourier_setup(ctx, tiny)
    for name in NIL_MODELS:
        ctx.models[name] = nil.model_by_name(name)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context, bool], None]
    round: Callable[[Context, np.random.Generator, int, bool], list[Job]]


WORKLOADS = {
    "fourier-nil": Workload(fourier_nil_setup, fourier_nil_round),
    "exact-search": Workload(exact_search_setup, exact_search_round),
}
