"""Exact verification toolkit for the character family mu(Fix(s))^alpha on
the tower of permutation groups of finite binary cubes."""

from . import caps
from .appendix import (
    CyclePair,
    MkGenerators,
    SiFamily,
    SiVerification,
    construct_si,
    lemma_g1,
    minimal_level,
    mk_generators,
    verify_si_properties,
)
from .characters import (
    Alpha,
    BasePower,
    GramReport,
    char_eval,
    char_power,
    gram_matrix,
    psd_check_exact,
    psd_check_float,
    psd_witness,
    quadratic_form,
)
from .certreal import Enclosure, certify_sign
from .cube import NiceSet, nice_intersect, nice_product
from .errors import (
    CapExceededError,
    FalsificationError,
    InternalInconsistencyError,
    LevelMismatchError,
    PreconditionError,
)
from .gnsfinite import (
    matrix_character,
    projection_bases,
    projection_identity_checks,
    rep_matrix,
    scan_is_constant,
    tensor_character,
    weighted_inner,
    xi_vector,
)
from .obstruction import (
    ObstructionReport,
    alt_trace_bruteforce,
    alt_trace_closed_form,
    c_alpha_integer,
    c_alpha_real,
    noninteger_witness,
    noninteger_witness_scan,
    signed_derangement_sum,
    signed_derangement_sum_bruteforce,
    signed_fixcount_distribution,
    stirling2,
    stirling2_recurrence,
)
from .perm import (
    CubePermutation,
    CycleType,
    ProductFormPermutation,
    all_permutations,
    apply_to_nice,
    block_product,
    conjugate,
    cycle_string,
    embed_head,
    fixed_fraction,
    flip_perm,
    from_cycles,
    identity,
    odometer,
    parse_permutation,
    random_permutation,
    transposition,
)

__version__ = "0.1.0"
