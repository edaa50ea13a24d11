"""Pinned annealing trajectories.

``tests/data/anneal_certificates.json`` holds the value and certificate of
every ``min_sol_heuristic``/``max_sol_heuristic`` call on a fixed grid:
four systems, N in {2, 5, 12, 31, 61, 62}, sizes 0, 1, N - 1 and N plus
alpha in {1/5, 2/5, 3/5}, seeds 0-2 and budgets 1, 500 and 4000.  A
change to the annealer's arithmetic or to the order of its seeded draws
moves some certificate, and the file no longer matches byte for byte.

Regenerate the file (only after an intended change of trajectories) with
``PYTHONPATH=src python tests/test_anneal_certificates.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cyclicforms.extremal import max_sol_heuristic, min_sol_heuristic
from cyclicforms.forms import LinearFormSystem, four_ap, kernel_system, three_ap

DATA = Path(__file__).parent / "data" / "anneal_certificates.json"

SYSTEMS = {
    "3ap": three_ap(),
    "kernel(1,1,-3)": kernel_system((1, 1, -3)),
    "4ap": four_ap(),
    "x,y,x+y": LinearFormSystem(((1, 0), (0, 1), (1, 1))),
}
MODULI = (2, 5, 12, 31, 61, 62)
SEEDS = (0, 1, 2)
BUDGETS = (1, 500, 4000)


def _alphas(n):
    sizes = {Fraction(k, n) for k in (0, 1, n - 1, n)}
    return sorted(sizes | {Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)})


def _records(label):
    system = SYSTEMS[label]
    for n in MODULI:
        for alpha in _alphas(n):
            for seed in SEEDS:
                for budget in BUDGETS:
                    for kind, fn in (("min", min_sol_heuristic), ("max", max_sol_heuristic)):
                        r = fn(system, alpha, n, seed=seed, budget=budget)
                        yield json.dumps(
                            [label, n, str(alpha), seed, budget, kind,
                             str(r.value), list(r.certificate.members)],
                            separators=(",", ":"),
                        )


def _render(lines):
    return "[\n" + ",\n".join(lines) + "\n]\n"


@pytest.mark.parametrize("label", list(SYSTEMS))
def test_anneal_certificates_pinned(label):
    pinned = [line.rstrip(",") for line in DATA.read_text().splitlines()[1:-1]]
    expected = [line for line in pinned if json.loads(line)[0] == label]
    assert expected, label
    got = list(_records(label))
    assert len(got) == len(expected)
    for line, want in zip(got, expected):
        assert line == want


def test_anneal_certificate_file_is_canonical():
    pinned = [line.rstrip(",") for line in DATA.read_text().splitlines()[1:-1]]
    assert DATA.read_text() == _render(pinned)
    assert {json.loads(line)[0] for line in pinned} == set(SYSTEMS)


if __name__ == "__main__":
    DATA.write_text(_render([line for label in SYSTEMS for line in _records(label)]))
