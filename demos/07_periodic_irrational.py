"""Synthesizing a q-periodic, A-irrational Heisenberg orbit.

The staged construction cancels the periodicity defect level by level
and tops each level up with an irrational q-th root.  All claims are
re-verified exactly: the defect lands in the lattice, no small character
takes a Taylor coefficient to an integer, and full-period character sums
vanish identically.  The vertical coordinate equidistributes at
Gauss-sum scale.
"""

import math

from cyclicforms.nil import enumerate_characters, heisenberg_lcs, is_irrational
from cyclicforms.periodic import (
    build_periodic_irrational,
    character_sum,
    is_periodic,
    verify_periodicity,
    vertical_sum,
)

model = heisenberg_lcs()
q, bound = 227, 3
print(f"building on {model.name}: q = {q} >= (2A)^m = {(2 * bound) ** model.dim}, A = {bound}")

orbit = build_periodic_irrational(model, q, bound, seed=7)
print("\nTaylor coefficients (Mal'cev coordinates):")
for i, g in enumerate(orbit.coefficients):
    print(f"  g_{i}: {model.malcev_coords(g)}")

print(f"\nq-periodic mod the lattice, proved from the defect's Taylor coefficients: "
      f"{is_periodic(orbit, q)}")
print(f"sampled check, g(n+q)^-1 g(n) in the lattice for n in [-q, q]: "
      f"{verify_periodicity(orbit, q, q)}")
print(f"exactly {bound}-irrational: {is_irrational(orbit, bound)[0]}")

characters = enumerate_characters(model, 1, bound)
sums = [character_sum(orbit, xi, q) for xi in characters]
print(f"\nall {len(characters)} nontrivial level-1 character sums vanish exactly:",
      all(v == 0 for v in sums))

vert = vertical_sum(orbit, q)
print(f"vertical (central-coordinate) sum: {vert:.5f}")
print(f"  Gauss-sum scale 1/sqrt(q) = {1 / math.sqrt(q):.5f}; calibration bound 2/sqrt(q) = {2 / math.sqrt(q):.5f}")
