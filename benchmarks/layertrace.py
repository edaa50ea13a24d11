"""Outside-in tracing of cyclicforms layers, for the benchmark's traced run.

``Tracer.install`` replaces every module-level binding of the functions in
``TARGETS`` (in every loaded ``cyclicforms`` module, so ``extremal.sol_count``
and ``counting.sol_count`` are both caught) and the model methods, with a
wrapper that records one span per call: name, start, end, parent span and
job id.  Hot leaves are aggregated per parent span instead of stored one by
one.  ``uninstall`` restores the original bindings, so untraced phases run
the library exactly as shipped.  Nothing under ``src/`` is edited.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans of a job add up to the job's root
span, and those of all jobs to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction


def _arg(a, k, i, name):
    return a[i] if len(a) > i else k[name]


def _gowers_name(a, k):
    return f"gowers.u{_arg(a, k, 1, 'd')}"


def _gowers_work(a, k):
    if _arg(a, k, 1, "d") == 3:
        return {"fft_points": _arg(a, k, 0, "f").modulus ** 2}
    return None


def _exact_scan_work(minimize):
    def work(a, k):
        n = _arg(a, k, 2, "n")
        alpha = Fraction(_arg(a, k, 1, "alpha"))
        if minimize:
            sizes = range(max(0, math.ceil(alpha * n)), n + 1)
        else:
            sizes = range(0, min(n, math.floor(alpha * n)) + 1)
        return {"subsets": 2**n, "useful": sum(math.comb(n, s) for s in sizes)}

    return work


# (module, attribute, span name, hot, work).  A span name may be a callable
# of the call's (args, kwargs); work returns computed counters or None.
TARGETS = [
    ("forms", "image_mod_n", "forms.image_mod_n", False,
     lambda a, k: {"points": _arg(a, k, 1, "n") ** _arg(a, k, 0, "system").num_variables}),
    ("forms", "kernelize", "forms.kernelize", False, None),
    ("counting", "sol_brute", "counting.sol_brute", True,
     lambda a, k: {"grid_points": _arg(a, k, 0, "fs")[0].modulus
                   ** _arg(a, k, 1, "system").num_variables}),
    ("counting", "sol_count", "counting.sol_count", True, None),
    ("counting", "has_configuration", "counting.has_configuration", True, None),
    ("counting", "sol_fast", "counting.sol_fast", False,
     lambda a, k: {"dual_points": _arg(a, k, 0, "fs")[0].modulus ** _arg(a, k, 2, "kp").k}),
    ("gowers", "gowers_norm", _gowers_name, False, _gowers_work),
    ("gowers", "random_round", "gowers.random_round", False, None),
    ("gowers", "gvn_check", "gowers.gvn_check", False, None),
    ("extremal", "min_sol_exact", "extremal.min_sol_exact", False, _exact_scan_work(True)),
    ("extremal", "max_sol_exact", "extremal.max_sol_exact", False, _exact_scan_work(False)),
    ("extremal", "min_sol_heuristic", "extremal.min_sol_heuristic", False, None),
    ("extremal", "max_sol_heuristic", "extremal.max_sol_heuristic", False, None),
    ("extremal", "_anneal", "extremal.anneal", False,
     lambda a, k: {"moves": _arg(a, k, 4, "moves")}),
    ("extremal", "_forbidden_edges", "extremal.forbidden_edges", False, None),
    ("extremal", "max_free_density_exact", "extremal.max_free_density_exact", False, None),
    ("extremal", "max_free_density_heuristic", "extremal.max_free_density_heuristic", False, None),
    ("extremal", "interval_free_set", "extremal.interval_free_set", False, None),
    ("extremal", "weyl_set", "extremal.weyl_set", False, None),
    ("extremal", "multiplicative_free_set", "extremal.multiplicative_free_set", False, None),
    ("extremal", "dependent_pair_exact", "extremal.dependent_pair_exact", False, None),
    ("harness", "scan_convergence", "harness.scan_convergence", False, None),
    ("nil.matrices", "mat_mul", "nil.matrices.mat_mul", True, None),
    ("nil.matrices", "nilpotent_exp", "nil.matrices.nilpotent_exp", True, None),
    ("nil.matrices", "nilpotent_log", "nil.matrices.nilpotent_log", True, None),
    ("nil.model", "FilteredNilmanifoldModel.malcev_coords", "nil.model.malcev_coords", True, None),
    ("nil.model", "FilteredNilmanifoldModel.frac_int_parts", "nil.model.frac_int_parts", True, None),
    ("nil.model", "FilteredNilmanifoldModel.__post_init__", "nil.model.construct", False, None),
    ("nil.poly", "taylor_eval", "nil.poly.taylor_eval", True, None),
    ("nil.poly", "taylor_expand", "nil.poly.taylor_expand", False, None),
    ("nil.characters", "is_irrational", "nil.characters.is_irrational", False, None),
    ("nil.characters", "element_irrational", "nil.characters.element_irrational", True, None),
    ("nil.characters", "factor_coefficient", "nil.characters.factor_coefficient", False, None),
    ("periodic", "build_periodic_irrational", "periodic.build_periodic_irrational", False, None),
    ("periodic", "irrational_qth_root", "periodic.irrational_qth_root", False, None),
    ("periodic", "verify_periodicity", "periodic.verify_periodicity", False,
     lambda a, k: {"orbit_points": 2 * _arg(a, k, 2, "sample_range") + 1}),
    ("periodic", "character_sum", "periodic.character_sum", False, None),
    ("periodic", "vertical_sum", "periodic.vertical_sum", False,
     lambda a, k: {"orbit_points": _arg(a, k, 1, "q")}),
    ("cli", "main", "cli.main", False, None),
]


class Tracer:
    """Span recorder plus the binding patches that feed it."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [name, span_id, start, child_s]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.job = None
        self.spans: list[tuple] = []  # (id, parent_id, job, name, start, end, self_s)
        self.hot: dict[tuple, list] = {}  # (parent_id, job, name) -> [calls, total_s, self_s]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, total
        self.by_parent: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # calls, total
        self.counters: dict[str, int] = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def _push(self, name: str) -> list:
        frame = [name, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, hot: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span_id, start, child = frame
        dur = end - start
        self_s = dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += self_s
        tot[2] += dur
        rel = self.by_parent[(parent[0] if parent else None, name)]
        rel[0] += 1
        rel[1] += dur
        parent_id = parent[1] if parent else None
        if hot:
            agg = self.hot.get((parent_id, self.job, name))
            if agg is None:
                self.hot[(parent_id, self.job, name)] = [1, dur, self_s]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_s
        else:
            self.spans.append((span_id, parent_id, self.job, name, start, end, self_s))

    @contextmanager
    def root(self, name: str, job):
        """The root span of one job (or of set-up); it owns the benchmark's own time."""
        self.job = job
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame, hot=False)
            self.job = None

    def _wrap(self, fn, name, hot: bool, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **k):
            label = name(a, k) if callable(name) else name
            frame = tracer._push(label)
            try:
                return fn(*a, **k)
            finally:
                tracer._pop(frame, hot)
                if work is not None:
                    for key, value in (work(a, k) or {}).items():
                        tracer.counters[f"{label}.{key}"] += value

        return wrapper

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cyclicforms" or n.startswith("cyclicforms."))]
        for module_name, attr, name, hot, work in TARGETS:
            module = importlib.import_module(f"cyclicforms.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, name, hot, work))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, hot, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the trace -------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def child_total_s(self, parents, name: str) -> float:
        """Inclusive time of ``name`` spans whose direct parent is in ``parents``."""
        return sum(v[1] for (p, n), v in self.by_parent.items() if n == name and p in parents)

    def child_calls(self, parent: str, name: str) -> int:
        rel = self.by_parent.get((parent, name))
        return rel[0] if rel else 0

    def self_sum(self) -> float:
        return sum(v[1] for v in self.totals.values())

    def dump(self) -> dict:
        """Spans as JSON-ready records; hot leaves appear aggregated per parent."""
        return {
            "spans": [
                {"id": s[0], "parent": s[1], "job": s[2], "name": s[3],
                 "start": s[4], "end": s[5], "self_s": s[6]}
                for s in self.spans
            ],
            "aggregated": [
                {"parent": p, "job": j, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (p, j, n), v in self.hot.items()
            ],
        }


# ---------------------------------------------------------------------------
# per-layer metrics

_CALLS_SELF = [
    "counting.sol_count", "counting.has_configuration",
    "gowers.u2", "gowers.u4", "gowers.random_round", "gowers.gvn_check",
    "extremal.min_sol_exact", "extremal.max_sol_exact",
    "extremal.max_free_density_exact", "extremal.max_free_density_heuristic",
    "forms.kernelize", "harness.scan_convergence",
    "nil.matrices.mat_mul", "nil.matrices.nilpotent_exp", "nil.matrices.nilpotent_log",
    "nil.model.malcev_coords", "nil.model.frac_int_parts",
    "nil.poly.taylor_eval", "nil.poly.taylor_expand",
    "nil.characters.is_irrational", "nil.characters.element_irrational",
    "nil.characters.factor_coefficient",
    "periodic.build_periodic_irrational", "periodic.irrational_qth_root",
    "periodic.verify_periodicity", "periodic.character_sum", "periodic.vertical_sum",
    "nil.model.construct", "cli.main",
]
_CONSTRUCTIONS = ["extremal.weyl_set", "extremal.multiplicative_free_set",
                  "extremal.dependent_pair_exact"]
_VERIFIERS = ["counting.sol_count", "forms.image_mod_n"]

# (name, unit, better, note): the per-layer metrics in the order printed.
# A note marks a count computed from the inputs rather than timed.
PER_LAYER: list[tuple[str, str, str, str]] = []


def _add(name, unit, better, note=""):
    PER_LAYER.append((name, unit, better, note))


for _layer in ["counting.sol_brute", "counting.sol_fast", "gowers.u3", "extremal.anneal",
               "extremal.interval_free_set", "forms.image_mod_n"] + _CALLS_SELF:
    _add(f"{_layer}.calls", "count", "lower")
    _add(f"{_layer}.self_s", "s", "lower")
_add("counting.sol_brute.grid_points", "points", "higher", "computed: N^D per call")
_add("counting.grid_points_per_s", "points/s", "higher", "computed points / sol_brute self time")
_add("counting.sol_fast.dual_points", "points", "higher", "computed: N^k per call")
_add("gowers.u3.fft_points", "points", "higher", "computed: N^2 per U^3 call")
_add("extremal.exact_scan.subsets", "count", "higher", "computed: 2^N per exact min/max call")
_add("extremal.exact_scan.useful_ratio", "ratio", "higher",
     "computed: share of subsets meeting the size bound")
_add("extremal.exact_scan.subsets_per_s", "1/s", "higher",
     "computed subsets / exact min+max self time")
_add("extremal.anneal.moves", "count", "higher", "computed: move budget per call")
_add("extremal.anneal.moves_per_s", "1/s", "higher", "computed moves / anneal self time")
_add("extremal.interval_free_set.candidates", "count", "lower",
     "counted: has_configuration probes made by interval_free_set")
_add("extremal.constructions.self_s", "s", "lower",
     "weyl_set + multiplicative_free_set + dependent_pair_exact")
_add("extremal.verify_s", "s", "lower",
     "sol_count/image_mod_n called directly by an extremal function")
_add("extremal.verify_share", "ratio", "lower", "verify_s / time inside extremal functions")
_add("forms.image_mod_n.points", "points", "higher", "computed: N^D per call")
_add("periodic.orbit_points", "points", "higher",
     "computed: 2r+1 per verify_periodicity, q per vertical_sum")
_add("trace_overhead_ratio", "ratio", "lower", "traced / untraced job time at reference speed, same jobs")
_add("ops_failed_ratio", "ratio", "lower", "failed / attempted jobs, both phases")


def _ratio(num: float, den: float, why: str, absent: dict, name: str) -> float:
    if den <= 0:
        absent[name] = why
        return 0.0
    return num / den


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float,
                  failed_ratio: float) -> tuple[dict[str, float], dict[str, str]]:
    """Every PER_LAYER metric from a finished trace, plus reasons for absent ones."""
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for name, _unit, _better, _note in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tr.calls(layer)
        elif stat == "self_s":
            values[name] = tr.self_s(layer)
        if stat in ("calls", "self_s") and not tr.calls(layer):
            absent[name] = "layer not called on this workload"

    c = tr.counters
    values["counting.sol_brute.grid_points"] = c["counting.sol_brute.grid_points"]
    values["counting.grid_points_per_s"] = _ratio(
        c["counting.sol_brute.grid_points"], tr.self_s("counting.sol_brute"),
        "no sol_brute calls", absent, "counting.grid_points_per_s")
    values["counting.sol_fast.dual_points"] = c["counting.sol_fast.dual_points"]
    values["gowers.u3.fft_points"] = c["gowers.u3.fft_points"]
    subsets = c["extremal.min_sol_exact.subsets"] + c["extremal.max_sol_exact.subsets"]
    useful = c["extremal.min_sol_exact.useful"] + c["extremal.max_sol_exact.useful"]
    values["extremal.exact_scan.subsets"] = subsets
    values["extremal.exact_scan.useful_ratio"] = _ratio(
        useful, subsets, "no exact scans", absent, "extremal.exact_scan.useful_ratio")
    values["extremal.exact_scan.subsets_per_s"] = _ratio(
        subsets, tr.self_s("extremal.min_sol_exact") + tr.self_s("extremal.max_sol_exact"),
        "no exact scans", absent, "extremal.exact_scan.subsets_per_s")
    values["extremal.anneal.moves"] = c["extremal.anneal.moves"]
    values["extremal.anneal.moves_per_s"] = _ratio(
        c["extremal.anneal.moves"], tr.self_s("extremal.anneal"),
        "no annealing", absent, "extremal.anneal.moves_per_s")
    values["extremal.interval_free_set.candidates"] = tr.child_calls(
        "extremal.interval_free_set", "counting.has_configuration")
    values["extremal.constructions.self_s"] = sum(tr.self_s(n) for n in _CONSTRUCTIONS)
    extremal = {n for n in tr.totals if n.startswith("extremal.")}
    verify = sum(tr.child_total_s(extremal, n) for n in _VERIFIERS)
    inside = sum(v[1] for (p, n), v in tr.by_parent.items()
                 if n in extremal and p not in extremal)
    values["extremal.verify_s"] = verify
    values["extremal.verify_share"] = _ratio(
        verify, inside, "no extremal calls", absent, "extremal.verify_share")
    values["forms.image_mod_n.points"] = c["forms.image_mod_n.points"]
    values["periodic.orbit_points"] = (c["periodic.verify_periodicity.orbit_points"]
                                       + c["periodic.vertical_sum.orbit_points"])
    values["trace_overhead_ratio"] = _ratio(
        traced_wall, untraced_wall, "no untraced jobs", absent, "trace_overhead_ratio")
    values["ops_failed_ratio"] = failed_ratio
    for name, *_ in PER_LAYER:
        values.setdefault(name, 0.0)
    return values, absent
