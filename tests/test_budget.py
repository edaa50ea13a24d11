"""Every cap in the package raises the one BudgetExceeded, before it allocates.

Each row is a small call that trips one cap at its shipped value, with
its inputs built outside the traced call; the branch-and-bound row lowers
``NODE_BUDGET`` instead, because visiting 2M nodes takes seconds.  The
calls marked as allocating would build a large array past the check (a
grid, a 2^N table, an N^k dual grid), so a peak under 1 MiB shows the
check ran first.
"""

import tracemalloc
from fractions import Fraction

import pytest

import cyclicforms
from cyclicforms import extremal
from cyclicforms.counting import (
    CyclicFunction,
    CyclicSubset,
    has_configuration,
    sol_brute,
    sol_count,
    sol_fast,
)
from cyclicforms.extremal import (
    max_free_density_exact,
    max_sol_exact,
    min_sol_exact,
    min_sol_heuristic,
    multiplicative_free_set,
    weyl_set,
)
from cyclicforms.forms import (
    BudgetExceeded,
    LinearFormSystem,
    configurations,
    dilate_pair,
    four_ap,
    image_mod_n,
    kernelize,
    three_ap,
)
from cyclicforms.gowers import gowers_norm, gowers_norm_definitional

D4 = LinearFormSystem(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

HALF_101 = CyclicFunction.constant(0.5, 101)
HALF_200 = CyclicFunction.constant(0.5, 200)
HALF_1001 = CyclicFunction.constant(0.5, 1001)
FULL_200 = CyclicSubset.full(200)


def _patched(module, name, value, call):
    """``call`` run with ``module.name`` set to ``value``, restored afterwards."""

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, value)
            call()

    return run


# (call, allocates past the check), one row per cap and per caller of the grid cap
CAPS = [
    pytest.param(lambda: next(configurations(three_ap(), 1001, 10**6)), True, id="grid-walk"),
    pytest.param(lambda: sol_brute([HALF_200] * 4, D4), True, id="grid-sol_brute"),
    pytest.param(lambda: sol_count(FULL_200, D4), True, id="grid-sol_count"),
    pytest.param(lambda: has_configuration(FULL_200, D4), True, id="grid-has_configuration"),
    pytest.param(lambda: image_mod_n(three_ap(), 1001), True, id="grid-image_mod_n"),
    pytest.param(lambda: kernelize(four_ap()).kernel_mod_n(60), True, id="grid-kernel_mod_n"),
    pytest.param(
        lambda: min_sol_heuristic(D4, Fraction(1, 2), 60, budget=1), True, id="grid-config_table"
    ),
    pytest.param(lambda: min_sol_exact(three_ap(), Fraction(2, 5), 23), True, id="subsets-min"),
    pytest.param(lambda: max_sol_exact(three_ap(), Fraction(2, 5), 23), True, id="subsets-max"),
    pytest.param(lambda: max_free_density_exact([dilate_pair(2)], 63), False, id="bitmask-free"),
    pytest.param(
        lambda: min_sol_heuristic(three_ap(), Fraction(2, 5), 63), False, id="bitmask-config_table"
    ),
    pytest.param(
        _patched(
            extremal,
            "NODE_BUDGET",
            10,
            lambda: max_free_density_exact([three_ap()], 20, ignore_constant_configs=True),
        ),
        False,
        id="nodes",
    ),
    pytest.param(lambda: weyl_set(10**9 + 7, 2, 2), True, id="weyl-residues"),
    pytest.param(lambda: multiplicative_free_set(2, 10**9 + 7), True, id="multiplicative-logs"),
    pytest.param(lambda: gowers_norm(HALF_1001, 4), True, id="gowers-u4"),
    pytest.param(lambda: gowers_norm_definitional(HALF_101, 3), True, id="gowers-definitional"),
    pytest.param(
        lambda: sol_fast([CyclicSubset.full(5003).indicator()] * 4, four_ap(), kernelize(four_ap())),
        True,
        id="dual-sum",
    ),
]


@pytest.mark.parametrize("call, allocates", CAPS)
def test_cap_raises_budget_exceeded(call, allocates):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="exceeds the cap of"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if allocates:
        assert peak < 1 << 20


def test_budget_exceeded_is_one_exported_class_and_not_an_input_error():
    assert cyclicforms.BudgetExceeded is BudgetExceeded
    assert not issubclass(BudgetExceeded, ValueError)

