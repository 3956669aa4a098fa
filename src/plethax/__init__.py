"""Schur expansions of s_mu * (p_r o h_m) through labelled abaci.

The combinatorial route (partitions, abacus, process, expansion) and the
algebraic oracle (polynomials) are kept separate so every answer can be
checked along two independent paths.
"""

from .abacus import (
    Collision,
    LabelledAbacus,
    all_abaci,
    canonical_abacus,
)
from .expansion import (
    ProcessIdentityReport,
    SchurExpansion,
    VerificationReport,
    pmn_expand,
    pmn_expand_iterated,
    verify_against_oracle,
    verify_process_identity,
)
from .partitions import (
    BorderStripChain,
    Partition,
    SkewPartition,
    bead_positions,
    enumerate_supersets,
    partition_from_positions,
    partitions_of,
    r_decompose,
    sgn_r,
)
from .polynomials import (
    DEFAULT_PRIME,
    SparsePolynomial,
    a_beta,
    a_beta_eval,
    compositions,
    h_eval,
    h_poly,
    pair_budget,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    straighten_product,
)
from .process import (
    Composition,
    ProcessStep,
    ProcessTrace,
    Successful,
    Unsuccessful,
    enumerate_pairs,
    epsilon,
    k_set,
    psi,
    run_process,
    weight_with_budget,
)

__version__ = "0.1.0"

__all__ = [
    "BorderStripChain",
    "Collision",
    "Composition",
    "DEFAULT_PRIME",
    "LabelledAbacus",
    "Partition",
    "ProcessIdentityReport",
    "ProcessStep",
    "ProcessTrace",
    "SchurExpansion",
    "SkewPartition",
    "SparsePolynomial",
    "Successful",
    "Unsuccessful",
    "VerificationReport",
    "a_beta",
    "a_beta_eval",
    "all_abaci",
    "bead_positions",
    "canonical_abacus",
    "compositions",
    "enumerate_pairs",
    "enumerate_supersets",
    "epsilon",
    "h_eval",
    "h_poly",
    "k_set",
    "pair_budget",
    "partition_from_positions",
    "partitions_of",
    "plethysm_pr",
    "pmn_expand",
    "pmn_expand_iterated",
    "psi",
    "r_decompose",
    "run_process",
    "seeded_points",
    "sgn_r",
    "shifted_beta",
    "straighten_product",
    "verify_against_oracle",
    "verify_process_identity",
    "weight_with_budget",
]
