"""Natural exact covering systems: congruence machinery, tree surjection,
exact series, counting tables, enumeration, and certified growth constants."""

from .congruence import (
    CoveringSystem,
    NotExactCoverError,
    ResidueClass,
    canonical_shift,
    contract,
    expand,
    gcd_of,
    is_exact,
    is_natural,
    lcm_of,
    naturality_witness,
    r_split,
    reassemble,
    shift,
    size_of,
    system,
)
from .counting import (
    CountTable,
    LcmCountTable,
    count_size_gcd,
    count_size_gcd_lcm,
    count_size_gcd_period,
    distinct_lcm_values,
    lcm_value_count,
)
from .enumeration import (
    EcsSearchConfig,
    SearchBudgetExceeded,
    count_ecs,
    enumerate_ecs,
    enumerate_necs,
    enumerate_shift_classes,
    shift_class_count,
)
from .series import (
    A_series,
    Am_series,
    IntSeries,
    compose,
    derivative,
    mobius,
    mobius_series,
    mobius_upto,
    mul,
    phi_series,
    power,
    revert,
    schroeder_series,
    x_series,
)
from .trees import Tree, ab_bijection, ab_inverse, chi, enumerate_trees, format_tree, height, leaf_count, parse_tree
from .asymptotics import (
    AsymptoticConstants,
    FixedReal,
    constants,
    eval_M,
    eval_Mdoubleprime,
    eval_Mprime,
    find_alpha,
    find_beta,
    find_tau,
    gcd_ratio_check,
    identity_checks,
    ratio_check,
)
from .polybasis import BinomialPolynomial, backward_difference_check, binomial_coeffs, evaluate_f

__version__ = "0.1.0"
