"""MPI collective communication patterns as permutation sequences.

The decomposition of section III: a collective algorithm = a
*Collective Permutation Sequence* (who talks to whom, per stage) plus
message content (ignored here).  This package provides the 8 CPS of
Table 2, the classification algebra behind the paper's observations,
the Table 1 usage survey, non-power-of-two proxy stages, the
topology-aware hierarchical recursive doubling of section VI, and the
rank-to-end-port scheduling glue.
"""

from .compose import (
    concatenate,
    rabenseifner_allreduce,
    rabenseifner_reduce,
    scatter_allgather_bcast,
)
from .semantics import (
    run_dataflow,
    verify_allgather,
    verify_allreduce,
    verify_broadcast,
    verify_gather,
    verify_reduce,
)
from .classify import (
    classify,
    has_constant_displacement,
    is_bidirectional,
    is_bidirectional_stage,
    is_shift_subset,
    is_unidirectional,
    stage_displacements,
)
from .cps import (
    CPS,
    CPS_NAMES,
    Stage,
    binomial,
    by_name,
    dissemination,
    pairwise_exchange,
    recursive_doubling,
    recursive_halving,
    ring,
    sampled_shift,
    shift,
    tournament,
)
from .hierarchical import group_stage_plan, hierarchical_recursive_doubling
from .nonpow2 import post_stage, pow2_floor, pre_stage, with_proxy_stages
from .schedule import port_sequences, stage_flows, validate_placement
from .usage import (
    TABLE1,
    AlgorithmUsage,
    collectives_covered,
    distinct_cps,
    render_matrix,
)

__all__ = [
    "CPS",
    "CPS_NAMES",
    "Stage",
    "TABLE1",
    "AlgorithmUsage",
    "binomial",
    "by_name",
    "classify",
    "collectives_covered",
    "concatenate",
    "dissemination",
    "distinct_cps",
    "group_stage_plan",
    "has_constant_displacement",
    "hierarchical_recursive_doubling",
    "is_bidirectional",
    "is_bidirectional_stage",
    "is_shift_subset",
    "is_unidirectional",
    "pairwise_exchange",
    "port_sequences",
    "post_stage",
    "pow2_floor",
    "pre_stage",
    "rabenseifner_allreduce",
    "rabenseifner_reduce",
    "recursive_doubling",
    "recursive_halving",
    "render_matrix",
    "ring",
    "run_dataflow",
    "sampled_shift",
    "scatter_allgather_bcast",
    "shift",
    "stage_displacements",
    "stage_flows",
    "tournament",
    "validate_placement",
    "verify_allgather",
    "verify_allreduce",
    "verify_broadcast",
    "verify_gather",
    "verify_reduce",
    "with_proxy_stages",
]
