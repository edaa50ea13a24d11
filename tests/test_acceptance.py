"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
asserts the report; the same experiments are reachable through
``cyclicforms reproduce --id <criterion>``.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cyclicforms import acceptance
from cyclicforms.nil import PolynomialSequence


def _check(report):
    print(report.line())
    assert report.passed, "\n".join(str(f) for f in report.failures)
    return report


def test_criterion_01_sol_oracle():
    report = _check(acceptance.run_sol_oracle())
    assert report.details["instances"] == 200
    assert report.elapsed_s < 30


def test_criterion_02_complement_identity():
    report = _check(acceptance.run_complement_identity())
    assert report.details["checked"] == 50 * len(range(5, 102, 2))
    assert report.elapsed_s < 10


def test_criterion_03a_gvn_3ap():
    report = _check(acceptance.run_gvn_3ap())
    assert report.elapsed_s < 120


def test_criterion_03b_gvn_4ap():
    report = _check(acceptance.run_gvn_4ap())
    assert report.elapsed_s < 120


def test_criterion_04_gowers_oracle():
    report = _check(acceptance.run_gowers_oracle())
    assert report.elapsed_s < 60


def test_criterion_05_extremal_exact():
    report = _check(acceptance.run_extremal_exact())
    assert report.elapsed_s < 300


def test_criterion_06a_weyl_1009():
    _check(acceptance.run_weyl_1009())


def test_criterion_06b_weyl_10007():
    report = _check(acceptance.run_weyl_10007())
    assert report.elapsed_s < 60


def test_criterion_07_dependent_pair():
    report = _check(acceptance.run_dependent_pair())
    assert report.elapsed_s < 60


def test_criterion_08a_rounding_u2():
    report = _check(acceptance.run_rounding_u2())
    assert report.elapsed_s < 300


def test_criterion_08b_rounding_u3():
    report = _check(acceptance.run_rounding_u3())
    assert report.elapsed_s < 300


def test_criterion_09a_periodic_heisenberg():
    report = _check(acceptance.run_periodic_heisenberg())
    assert report.details["characters"] == 24
    assert report.elapsed_s < 30


def test_criterion_09b_periodic_torus():
    _check(acceptance.run_periodic_torus())


def test_criterion_10_taylor_factorization():
    report = _check(acceptance.run_taylor_factorization())
    assert report.elapsed_s < 10


def test_criterion_11_kernelize_roundtrip():
    report = _check(acceptance.run_kernelize_roundtrip())
    assert report.elapsed_s < 30


def test_criterion_12_taylor_calculus():
    report = _check(acceptance.run_taylor_calculus())
    assert report.elapsed_s < 60


def test_reproduce_dispatch():
    report = acceptance.reproduce("periodic-torus")
    assert report.passed
    with pytest.raises(KeyError):
        acceptance.reproduce("unknown-id")


class _SelfDefect(PolynomialSequence):
    """A sequence that is its own defect, so its lower levels and top coefficient show."""

    def defect(self, q):
        return self


def _one_half_poly(model, q, bound, seed):
    """g(n) = g_0 with every coordinate 1/2: no g(q) lies in the lattice."""
    rest = (model.identity(),) * model.degree
    return PolynomialSequence(model, (model.from_coords([Fraction(1, 2)] * model.dim), *rest))


_HALF = SimpleNamespace(value=lambda model, g: Fraction(1, 2))  # a character worth 1/2 anywhere


def _factors_that_fail(model, i, g_i, bound, q):
    """(g', gamma, xi) with gamma off the lattice, xi(g') != 0 and g' gamma != g_i."""
    gamma = model.from_level_coords(i, [Fraction(1, 2)] * model.block_rank(i))
    return g_i, gamma, _HALF


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


_KERNELIZE = acceptance.kernelize
_VALUE = SimpleNamespace(value=Fraction(0))

# (criterion, replacements of names inside acceptance, failure prefixes expected);
# one case per criterion family, with the expensive oracles stubbed out
_WRONG_VALUES = [
    ("sol-oracle", {"sol_brute": lambda fs, system: 0, "sol_fast": lambda fs, system, kp: 1},
     ["3AP N=53 trial=0: err=1.000e+00"]),
    ("complement-identity", {"complement_sol": _raise(AssertionError("planted"))},
     ["N=5: planted"]),
    ("gvn-3ap", {"gvn_check": lambda *args: SimpleNamespace(passed=False, lhs=2.0, rhs=1.0)},
     ["trial 0: |dSol|=2.000000 > L*norm=1.000000"]),
    ("gowers-oracle", {"gowers_norm_definitional": lambda f, d: -1.0},
     ["N=1 d=1 trial=0: err="]),
    ("extremal-exact",
     {"min_sol_exact": lambda *args: _VALUE, "_min_sol_oracle": lambda *args: Fraction(1),
      "max_free_density_exact": lambda *args: _VALUE},
     ["m_3AP(2/5, 5) = 0 != 2/25", "minSol(3AP, 1/5, 3) = 0 != oracle 1",
      "d(pair, 5) = 0 != 2/5", "d(pair, 5) = 0 != 2^N oracle 2/5"]),
    ("weyl-1009", {"weyl_target_density": lambda k, d: Fraction(1, 2),
                   "gowers_norm": lambda f, d: 1.0},
     ["density 0.0297 not within 0.02 of 0.5000", "U^2 deviation 1.0000 > 0.3"]),
    ("weyl-10007", {"weyl_target_density": lambda k, d: Fraction(1, 2),
                    "gowers_norm": lambda f, d: 1.0},
     ["density 0.0308 not within 0.02 of 0.5000", "U^2 deviation 1.0000 > 0.2",
      "U^2 deviation did not decrease: 1.0000 vs 1.0000"]),
    ("dependent-pair", {"dependent_pair_exact": lambda *args: (_VALUE, _VALUE)},
     ["d(p=5) = 0, want 2/5, oracle 2/5", "d(101) = 0 != 50/101",
      "|d - 1/2| too large at p=101", "m(3/4, 1009) = 0 outside"]),
    ("rounding-u3", {"gowers_norm": lambda f, d: 2.0}, ["function 0: median 2.0000 > 1.7679"]),
    ("periodic-torus",
     {"is_periodic": lambda *args: False, "verify_periodicity": lambda *args: False,
      "is_irrational": lambda *args: (False, "planted"), "character_sum": lambda *args: 1,
      "vertical_sum": lambda *args: 1.0},
     ["is_periodic rejected", "verify_periodicity rejected", "not irrational: planted",
      "character sum for k=", "vertical sum 1.0000 > "]),
    ("taylor-factorization", {"factor_coefficient": _raise(ValueError("planted"))},
     ["heisenberg-lcs level "]),
    ("taylor-factorization", {"factor_coefficient": _factors_that_fail},
     ["heisenberg-lcs level 1: gamma not in lattice", "heisenberg-lcs level 1: xi(g') != 0",
      "heisenberg-lcs level 1: product mismatch"]),
    ("kernelize-roundtrip",
     {"kernelize": lambda system: dataclasses.replace(_KERNELIZE(system), bad_modulus=7),
      "image_mod_n": lambda system, n: set()},
     ["3AP: bad modulus 7 != 1", "3AP N=2: image != kernel"]),
    ("taylor-calculus",
     {"taylor_expand": lambda model, values: PolynomialSequence.identity(model),
      "build_periodic_irrational": lambda model, q, bound, seed: PolynomialSequence.identity(model),
      "LevelCharacter": lambda level, frequency: _HALF},
     ["heisenberg-lcs trial 0: expand(eval) != id", "newton: heisenberg-lcs level 1"]),
    ("taylor-calculus",
     {"PolynomialSequence": _SelfDefect, "build_periodic_irrational": _one_half_poly},
     ["shifted: heisenberg-lcs coefficient 1 not in G_2",
      "shifted: heisenberg-lcs coefficient 2 not trivial",
      "newton setup: heisenberg-lcs g(q) not in lattice"]),
]


@pytest.mark.parametrize(
    "criterion,replacements,prefixes",
    _WRONG_VALUES,
    ids=[f"{case[0]}-{n}" for n, case in enumerate(_WRONG_VALUES)],
)
def test_criterion_fails_on_a_wrong_value(monkeypatch, criterion, replacements, prefixes):
    for name, replacement in replacements.items():
        monkeypatch.setattr(acceptance, name, replacement)
    report = acceptance.CRITERIA[criterion]()
    assert report.criterion == criterion and not report.passed
    for prefix in prefixes:
        assert any(f.startswith(prefix) for f in report.failures), (prefix, report.failures[:5])
