"""Counting linear configurations in subsets of Z/N.

Walks through solution measures for progressions: the exact brute-force
count, the complement identity for 3-term progressions, and the FFT fast
path checked against the oracle.
"""

import numpy as np

from cyclicforms import (
    CyclicFunction,
    CyclicSubset,
    complement_sol,
    kernelize,
    size,
    sol_brute,
    sol_count,
    sol_fast,
    three_ap,
)

system = three_ap()
print(f"system {system.name}: forms {system.forms}, size {size(system)}")

a = CyclicSubset(5, (0, 1))
measure = sol_count(a, system)
print(f"\nA = {{0, 1}} in Z/5 holds {measure.count} of {measure.points} configurations,")
print(f"so Sol_3AP(A) = {measure.fraction} (the two diagonal triples only).")

sol_a, sol_comp = complement_sol(a)
alpha = a.density
print(f"\ncomplement identity at density alpha = {alpha}:")
print(f"  Sol(A) + Sol(A^c) = {sol_a} + {sol_comp} = {sol_a + sol_comp}")
print(f"  1 - 3a + 3a^2     = {1 - 3 * alpha + 3 * alpha**2}")

# the fast path sums DFT coefficients over the kernel presentation
n = 101
rng = np.random.default_rng(0)
f = CyclicFunction(n, rng.random(n))
kp = kernelize(system)
brute = complex(sol_brute([f] * 3, system))
fast = sol_fast([f] * 3, system, kp)
print(f"\nrandom density function on Z/{n}:")
print(f"  brute force     {brute.real:.12f}")
print(f"  dual (FFT) path {fast.real:.12f}")
print(f"  difference      {abs(brute - fast):.2e}")
