"""Command-line front end.

Subcommands: sol, gowers, min-sol, max-sol, max-free, construct,
kernelize, nil, scan, reproduce.  Extremal commands emit JSON
{value, certificate, method, boundKind, verification}.  Exit codes:
0 success; 1 an input error, a usage error or a failed ``reproduce``;
2 budget exhaustion: a BudgetExceeded, or a ``scan`` row skipped for its
budget or ``--budget-ms`` (rows below ``--min-p1`` do not count).

A process builds the parser once (``build_parser`` is cached); parsing
leaves it unchanged, so every ``main`` call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import acceptance
from .counting import CyclicFunction, CyclicSubset, sol_count, sol_fast
from .extremal import (
    interval_free_set,
    max_free_density_exact,
    max_free_density_heuristic,
    max_sol_exact,
    max_sol_heuristic,
    min_sol_exact,
    min_sol_heuristic,
    multiplicative_free_set,
    weyl_set,
)
from .forms import BudgetExceeded, LinearFormSystem, kernelize
from .gowers import gowers_norm
from .harness import scan_convergence
from .nil.model import FilteredNilmanifoldModel, model_by_name
from .periodic import build_periodic_irrational, character_sum, is_periodic, vertical_sum
from .nil.characters import enumerate_characters, is_irrational


def _load_family(path: str) -> list[LinearFormSystem]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, dict) and "systems" in obj:
        obj = obj["systems"]
    if not isinstance(obj, list):
        raise ValueError('family files hold a list of systems or {"systems": [...]}')
    return [LinearFormSystem.from_json(json.dumps(item)) for item in obj]


def _load_model(name_or_path: str) -> FilteredNilmanifoldModel:
    if Path(name_or_path).exists():
        return FilteredNilmanifoldModel.load(name_or_path)
    return model_by_name(name_or_path)


def _load_function_csv(path: str) -> CyclicFunction:
    rows = {}
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.lower().startswith("index"):
            continue
        try:
            idx_text, value_text = line.split(",")
            idx, value = int(idx_text), float(value_text)
        except ValueError:
            raise ValueError(
                f"function CSV line {number} is not an integer index and a number: {line!r}"
            ) from None
        if idx in rows:
            raise ValueError(f"function CSV repeats index {idx}")
        rows[idx] = value
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ValueError("function CSV must cover indices 0..N-1 exactly")
    return CyclicFunction(n, np.array([rows[i] for i in range(n)], dtype=np.complex128))


def _emit(args, payload: dict) -> None:
    if getattr(args, "out", None):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{payload.get('command', 'result')}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))


def cmd_sol(args) -> int:
    system = LinearFormSystem.load(args.system)
    subset = CyclicSubset.load(args.set)
    if args.fast:
        kp = kernelize(system)
        value = sol_fast([subset.indicator()] * system.t, system, kp)
        payload = {
            "command": "sol",
            "value": value.real,
            "method": "fast",
            "modulus": subset.modulus,
        }
    else:
        measure = sol_count(subset, system)
        payload = {
            "command": "sol",
            "count": measure.count,
            "points": measure.points,
            "value": str(measure.fraction),
            "valueFloat": float(measure.fraction),
            "method": "brute",
            "modulus": subset.modulus,
        }
    _emit(args, payload)
    return 0


def cmd_gowers(args) -> int:
    if args.set is not None:
        f = CyclicSubset.load(args.set).indicator()
        source = args.set
    else:
        f = _load_function_csv(args.function)
        source = args.function
    value = gowers_norm(f, args.d)
    _emit(
        args,
        {"command": "gowers", "d": args.d, "norm": value, "modulus": f.modulus, "input": source},
    )
    return 0


def _extremal_payload(command: str, result) -> dict:
    payload = result.as_json_dict()
    payload["command"] = command
    return payload


def _heuristic_options(args) -> dict:
    """Solver keywords of a ``--heuristic`` run (a subcommand ``--seed`` beats the global
    one); ``--seed`` or ``--budget`` given without ``--heuristic`` is an input error."""
    given = {"seed": args.run_seed, "budget": getattr(args, "budget", None)}
    given = {name: value for name, value in given.items() if value is not None}
    if given and not args.heuristic:
        raise ValueError(f"--{next(iter(given))} applies only with --heuristic")
    return {"seed": args.seed, **given} if args.heuristic else {}


def cmd_extremal_sol(args) -> int:
    kw = _heuristic_options(args)
    system = LinearFormSystem.load(args.system)
    solver = args.heuristic_solver if args.heuristic else args.exact_solver
    result = solver(system, args.alpha, args.n, **kw)
    _emit(args, _extremal_payload(args.command, result))
    return 0


def cmd_max_free(args) -> int:
    kw = _heuristic_options(args)
    solver = max_free_density_heuristic if args.heuristic else max_free_density_exact
    result = solver(
        _load_family(args.family), args.n, ignore_constant_configs=args.ignore_constant, **kw
    )
    _emit(args, _extremal_payload("max-free", result))
    return 0


def cmd_construct(args) -> int:
    if args.construction in ("weyl", "mult"):
        if args.construction == "weyl":
            subset = weyl_set(args.p, args.k, args.d)
        else:
            subset = multiplicative_free_set(args.k, args.p)
        payload = {
            "command": f"construct-{args.construction}",
            "value": str(subset.density),
            "valueFloat": float(subset.density),
            "certificate": {"modulus": subset.modulus, "members": list(subset.members)},
            "method": "construction",
            "boundKind": "lowerBound",
            "verification": {"solExactlyZero": True},
        }
    else:  # interval
        system = LinearFormSystem.load(args.system)
        result = interval_free_set(system, args.n)
        if result is None:
            payload = {
                "command": "construct-interval",
                "value": None,
                "certificate": None,
                "method": "construction",
                "boundKind": "lowerBound",
                "verification": {"note": "no free interval within the denominator budget"},
            }
        else:
            payload = _extremal_payload("construct-interval", result)
    _emit(args, payload)
    return 0


def cmd_kernelize(args) -> int:
    system = LinearFormSystem.load(args.system)
    kp = kernelize(system)
    _emit(
        args,
        {
            "command": "kernelize",
            "matrix": [list(r) for r in kp.matrix],
            "badModulus": kp.bad_modulus,
            "invariantFactors": list(kp.invariant_factors),
            "k": kp.k,
        },
    )
    return 0


def cmd_nil(args) -> int:
    model = _load_model(args.model)
    poly = build_periodic_irrational(model, args.q, args.A, seed=args.seed)
    coeff_coords = [
        [str(c) for c in model.malcev_coords(g)] for g in poly.coefficients
    ]
    payload = {
        "command": "nil-build-periodic",
        "model": model.name,
        "q": args.q,
        "A": args.A,
        "seed": args.seed,
        "taylorCoefficients": coeff_coords,
    }
    if args.verify in ("basic", "full"):
        ok, witness = is_irrational(poly, args.A)
        verification = {
            "periodicSample": is_periodic(poly, args.q),  # exact; the key name is kept
            "irrational": ok,
        }
        if args.verify == "full":
            sums = {}
            for xi in enumerate_characters(model, 1, args.A):
                value = character_sum(poly, xi, args.q)
                sums[str(list(xi.frequency))] = [value.real, value.imag]
            verification["levelOneCharacterSums"] = sums
            verification["verticalSum"] = vertical_sum(poly, args.q)
            verification["verticalSumCalibration"] = (
                "empirical Gauss-sum scale; 2/sqrt(q) is a calibration choice, "
                "not a derived rate"
            )
        payload["verification"] = verification
    _emit(args, payload)
    return 0


def cmd_scan(args) -> int:
    if args.run_seed is not None and args.mode != "heuristic":
        raise ValueError("--seed applies only with --mode heuristic")
    system = LinearFormSystem.load(args.system)
    moduli = []
    for entry in filter(str.strip, args.moduli.split(",")):
        try:
            moduli.append(int(entry))
        except ValueError:
            raise ValueError(
                f"--moduli takes comma-separated integers, got {entry.strip()!r}"
            ) from None
    records, csv_text = scan_convergence(
        system,
        args.quantity,
        args.alpha,
        moduli,
        mode=args.mode,
        seed=args.seed if args.run_seed is None else args.run_seed,
        out_dir=args.out,
        min_prime_factor=args.min_p1,
        budget_ms=args.budget_ms,
        ignore_constant=args.ignore_constant,
    )
    skipped = [r.n for r in records if r.method == "skipped"]
    if args.format == "csv":
        print(csv_text, end="")
    else:
        _emit(
            args,
            {
                "command": "scan",
                "rows": [r.csv_row() for r in records],
                "skipped": skipped,
            },
        )
    return 2 if any(r.reason in ("budget", "time") for r in records) else 0


def cmd_reproduce(args) -> int:
    try:
        report = acceptance.reproduce(args.id)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payload = {
        "command": "reproduce",
        "criterion": report.criterion,
        "passed": report.passed,
        "elapsedSeconds": report.elapsed_s,
        "details": {k: str(v) for k, v in report.details.items()},
        "failures": report.failures,
    }
    _emit(args, payload)
    print(report.line())
    return 0 if report.passed else 1


def _fraction(text: str) -> Fraction:
    """``--alpha`` parser: a malformed or zero-denominator fraction is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as input errors do."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclicforms",
        description="solution measures, uniformity norms, extremal sets, periodic nil-orbits",
    )
    parser.add_argument("--out", help="directory for JSON/CSV/SVG artifacts")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sol", help="solution measure of a set across a system")
    p.add_argument("--system", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_sol)

    p = sub.add_parser("gowers", help="Gowers uniformity norm of a set or function")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set")
    group.add_argument("--function")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_gowers)

    for name, exact, heuristic in (
        ("min-sol", min_sol_exact, min_sol_heuristic),
        ("max-sol", max_sol_exact, max_sol_heuristic),
    ):
        p = sub.add_parser(name, help=f"{name} extremal value")
        p.add_argument("--system", required=True)
        p.add_argument("--alpha", type=_fraction, required=True)
        p.add_argument("--n", type=int, required=True)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", action="store_true")
        group.add_argument("--heuristic", action="store_true")
        p.add_argument("--budget", type=int)
        p.add_argument("--seed", type=int, dest="run_seed")
        p.set_defaults(func=cmd_extremal_sol, exact_solver=exact, heuristic_solver=heuristic)

    p = sub.add_parser("max-free", help="maximum free density for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--heuristic", action="store_true")
    p.add_argument("--ignore-constant", action="store_true", dest="ignore_constant")
    p.add_argument("--seed", type=int, dest="run_seed")
    p.set_defaults(func=cmd_max_free)

    p = sub.add_parser("construct", help="explicit free-set constructions")
    csub = p.add_subparsers(dest="construction", required=True)
    w = csub.add_parser("weyl")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--k", type=int, required=True)
    w.add_argument("--d", type=int, required=True)
    w.set_defaults(func=cmd_construct)
    m = csub.add_parser("mult")
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--p", type=int, required=True)
    m.set_defaults(func=cmd_construct)
    i = csub.add_parser("interval")
    i.add_argument("--system", required=True)
    i.add_argument("--n", type=int, required=True)
    i.set_defaults(func=cmd_construct)

    p = sub.add_parser("kernelize", help="kernel presentation of a system")
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("nil", help="nilmanifold constructions")
    nsub = p.add_subparsers(dest="nil_command", required=True)
    b = nsub.add_parser("build-periodic")
    b.add_argument("--model", required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--A", type=int, required=True)
    b.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    b.add_argument("--verify", choices=("none", "basic", "full"), default="basic")
    b.set_defaults(func=cmd_nil)

    p = sub.add_parser("scan", help="convergence scan over moduli")
    p.add_argument("--system", required=True)
    p.add_argument("--quantity", choices=("m", "M", "d"), required=True)
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--moduli", required=True, help="comma-separated list")
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--min-p1", type=int, default=1, dest="min_p1")
    p.add_argument("--seed", type=int, dest="run_seed")
    p.add_argument("--budget-ms", type=int, dest="budget_ms")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--ignore-constant", action="store_true", dest="ignore_constant")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("reproduce", help="re-run an acceptance criterion by id")
    p.add_argument("--id", required=True)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
