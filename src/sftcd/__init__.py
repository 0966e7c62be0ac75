"""Degrees and class degrees of letter-to-letter codes between shifts of
finite type, with routing certificates, magic blocks, bridges, and a
property-check harness over the degree identities."""

from .bridge import (
    BridgeSearch,
    BridgeWitness,
    ClassOracleResult,
    bounded_bridge_exists,
    construct_bridge,
    fixed_point_class_oracle,
    verify_bridge,
)
from .codes import (
    CodeTriple,
    OneBlockCode,
    OntoCheck,
    SlidingBlockCode,
    apply_to_block,
    apply_to_point,
    check_onto,
    compose,
    identity_code,
    is_finite_to_one,
    recode_to_one_block,
    trivial_code,
)
from .core import (
    Alphabet,
    Block,
    PeriodicPoint,
    VertexShift,
    blocks_of_periodic_point,
    count_blocks,
    enumerate_blocks,
    is_irreducible,
    is_point_of,
    parse_block_text,
    parse_point_text,
    periodic_points_of,
    validate_block,
)
from .depth import (
    DegreeEstimate,
    DepthResult,
    RoutingCertificate,
    RoutingRefusal,
    class_degree,
    is_presented,
    periodic_point_relative_degree,
    preimages,
    relative_class_degree,
    relative_depth,
    relative_is_presented,
    verify_certificate,
)
from .errors import (
    AlphabetMismatch,
    EmptyFiber,
    GenerationFailed,
    ImageMismatch,
    InvalidBlock,
    InvariantViolation,
    NoFixedPoint,
    NotFiniteToOne,
    NotRoutable,
    ParseError,
    PreconditionUnmet,
    ResourceLimit,
    SftcdError,
    UnknownSymbol,
)
from .fiber import (
    FiberSlice,
    MagicBlockResult,
    degree_finite_to_one,
    find_magic_block,
    preimage_blocks,
    preimage_symbol_count,
)
from .harness import (
    CheckResult,
    HarnessCase,
    SuiteSummary,
    TheoremReport,
    TripleGenSpec,
    check_chain_identity,
    check_main_identity,
    check_special_cases,
    generate_chain_code,
    generate_triple,
    run_suite,
    spec_for_seed,
    triple_degrees,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
