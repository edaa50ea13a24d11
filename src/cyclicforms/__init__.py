"""Linear configurations in cyclic groups, made computable at desk scale.

Solution measures of integer linear-form systems over Z/N (a
definitional grid walk, an exact count on byte rows and an FFT fast path),
Gowers uniformity norms, extremal solution counts and free densities
with verified certificates, explicit free-set
constructions, and an exact-rational engine for polynomial sequences on
filtered nilmanifolds including the constructive synthesis of periodic,
irrational orbits.
"""

from .counting import (
    CyclicFunction,
    CyclicSubset,
    SolutionMeasure,
    as_fraction,
    complement_sol,
    has_configuration,
    sol_brute,
    sol_count,
    sol_fast,
)
from .extremal import (
    ExtremalResult,
    dependent_pair_exact,
    interval_free_set,
    max_free_density_exact,
    max_free_density_heuristic,
    max_sol_exact,
    max_sol_heuristic,
    min_sol_exact,
    min_sol_heuristic,
    multiplicative_free_set,
    weyl_set,
    weyl_target_density,
)
from .forms import (
    BudgetExceeded,
    KernelPresentation,
    LinearFormSystem,
    as_dependent_pair,
    default_degree,
    dilate_pair,
    four_ap,
    image_mod_n,
    is_invariant,
    kernel_system,
    kernelize,
    pairwise_independent,
    progression_system,
    size,
    smith_normal_form,
    three_ap,
)
from .gowers import (
    GvnReport,
    gowers_norm,
    gowers_norm_definitional,
    gvn_check,
    random_round,
)
from .harness import ScanRecord, determinism_digest, render_svg, scan_convergence
from .periodic import (
    ConstructionError,
    build_periodic_irrational,
    character_sum,
    irrational_qth_root,
    is_periodic,
    verify_periodicity,
    vertical_sum,
)
from .primes import is_prime, multiplicative_order, smallest_prime_factor
from . import nil

__version__ = "0.1.0"
