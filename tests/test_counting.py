from fractions import Fraction

import numpy as np
import pytest

from cyclicforms.counting import (
    CyclicFunction,
    CyclicSubset,
    as_fraction,
    complement_sol,
    has_configuration,
    l1_deviation,
    sol_brute,
    sol_count,
    sol_fast,
)
from cyclicforms.forms import (
    LinearFormSystem,
    dilate_pair,
    kernel_system,
    kernelize,
    size,
    three_ap,
)


def test_as_fraction_decimal_semantics():
    assert as_fraction(0.4) == Fraction(2, 5)
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(1) == 1


def test_cyclic_function_validation():
    with pytest.raises(ValueError):
        CyclicFunction(4, np.ones(3))
    with pytest.raises(ValueError):
        CyclicFunction(3, np.array([1.0, 2.0, 0.0]))


def test_subset_file_round_trip(tmp_path):
    a = CyclicSubset(11, (0, 3, 7))
    path = tmp_path / "a.txt"
    a.save(path)
    assert CyclicSubset.load(path) == a
    with pytest.raises(ValueError):
        CyclicSubset.from_text("3\n1\n2\n")


def test_subset_membership_wraps_like_modular_lookup():
    for a in (
        CyclicSubset(11, (0, 3, 7, 10)),
        CyclicSubset(11, (4,)),
        CyclicSubset.empty(5),
        CyclicSubset.full(6),
        CyclicSubset(1, (0,)),
    ):
        n = a.modulus
        for x in range(-3 * n, 3 * n):
            assert (x in a) == (x % n in a.members), (a, x)


def test_sol_brute_full_and_small_sets():
    system = three_ap()
    full = CyclicSubset.full(7)
    assert sol_count(full, system).fraction == 1
    a = CyclicSubset(5, (0, 1))
    assert sol_count(a, system).fraction == Fraction(2, 25)
    b = CyclicSubset(5, (2, 3, 4))
    assert sol_count(b, system).fraction == Fraction(5, 25)


def test_sol_brute_constant_function():
    system = three_ap()
    f = CyclicFunction.constant(0.5, 7)
    value = complex(sol_brute([f] * 3, system))
    assert abs(value - 0.125) < 1e-12


def test_sol_multilinearity():
    rng = np.random.default_rng(5)
    system = three_ap()
    n = 11
    f1 = CyclicFunction(n, rng.random(n) * 0.5)
    f2 = CyclicFunction(n, rng.random(n) * 0.5)
    g = CyclicFunction(n, rng.random(n))
    h = CyclicFunction(n, rng.random(n))
    lam = 0.37
    combo = CyclicFunction(n, lam * f1.values + (1 - lam) * f2.values)
    lhs = complex(sol_brute([combo, g, h], system))
    rhs = lam * complex(sol_brute([f1, g, h], system)) + (1 - lam) * complex(
        sol_brute([f2, g, h], system)
    )
    assert abs(lhs - rhs) < 1e-12


def test_translation_invariance_for_invariant_systems():
    system = three_ap()
    a = CyclicSubset(13, (0, 1, 3, 9))
    base = sol_count(a, system).fraction
    for c in range(13):
        shifted = CyclicSubset.from_iterable(13, ((x + c) % 13 for x in a.members))
        assert sol_count(shifted, system).fraction == base


def test_sol_fast_matches_brute_on_examples():
    rng = np.random.default_rng(11)
    for system in (three_ap(), dilate_pair(2), kernel_system((1, 1, -3))):
        kp = kernelize(system)
        n = 53
        fs = [
            CyclicFunction(n, rng.random(n) * np.exp(2j * np.pi * rng.random(n)))
            for _ in range(system.t)
        ]
        assert abs(sol_fast(fs, system, kp) - complex(sol_brute(fs, system))) < 1e-9


def test_sol_fast_indicator_is_tight():
    rng = np.random.default_rng(3)
    system = three_ap()
    kp = kernelize(system)
    members = tuple(int(x) for x in np.nonzero(rng.random(53) < 0.4)[0])
    a = CyclicSubset(53, members)
    brute = sol_count(a, system).fraction
    fast = sol_fast([a.indicator()] * 3, system, kp)
    assert abs(fast - float(brute)) < 1e-12


def test_sol_fast_rejects_bad_modulus():
    system = LinearFormSystem(((1, 0), (1, 2)))
    kp = kernelize(system)
    f = CyclicFunction.constant(1.0, 4)
    with pytest.raises(ValueError):
        sol_fast([f, f], system, kp)


def test_sol_fast_constant_power():
    system = three_ap()
    kp = kernelize(system)
    f = CyclicFunction.constant(0.3, 31)
    assert abs(sol_fast([f] * 3, system, kp) - 0.3**3) < 1e-12


def test_complement_identity_examples():
    assert complement_sol(CyclicSubset(5, (0, 1))) == (Fraction(2, 25), Fraction(1, 5))
    assert complement_sol(CyclicSubset.empty(5)) == (Fraction(0), Fraction(1))
    assert complement_sol(CyclicSubset.full(7)) == (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        complement_sol(CyclicSubset(4, (0,)))


def test_l1_examples():
    f = CyclicFunction.constant(1.0, 4)
    g = CyclicFunction.constant(0.0, 4)
    assert l1_deviation(f, f) == 0
    assert l1_deviation(f, g) == 1
    h = CyclicSubset(4, (0,)).indicator()
    assert l1_deviation(h, g) == 0.25


def test_l1_controls_sol_difference():
    rng = np.random.default_rng(17)
    system = three_ap()
    l = size(system)
    n = 53  # prime, larger than every coefficient
    for _ in range(20):
        f = CyclicFunction(n, rng.random(n))
        g = CyclicFunction(n, rng.random(n))
        gap = abs(complex(sol_brute([f] * 3, system)) - complex(sol_brute([g] * 3, system)))
        assert gap <= l * l1_deviation(f, g) + 1e-12


def test_has_configuration_early_exit():
    system = dilate_pair(2)
    assert not has_configuration(CyclicSubset(7, (1,)), system)
    assert has_configuration(CyclicSubset(7, (1, 2)), system)


def test_brute_cap():
    system = three_ap()
    f = CyclicFunction.constant(1.0, 101)
    with pytest.raises(ValueError):
        sol_brute([f] * 3, system, cap=100)
