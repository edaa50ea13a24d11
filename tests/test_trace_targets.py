"""Every layer the benchmark tracer wraps must exist in the library.

``benchmarks/layertrace.py`` patches library functions by name, so a
rename would otherwise break only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def test_trace_targets_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for module_name, attr, *_ in layertrace.TARGETS:
        obj = importlib.import_module(f"cyclicforms.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert layertrace.TARGETS and not missing
