"""Sparse associative arrays over pluggable value algebras.

Build graph adjacency arrays from incidence arrays by generalized array
multiplication, check whether a value algebra can be trusted for that
construction, and materialize counterexample graphs when it cannot.
"""

from .algebra import (
    Algebra,
    FiniteAlgebraSpec,
    from_finite_spec,
    make_builtin,
)
from .array import (
    AssociativeArray,
    Triple,
    ewise_add,
    ewise_mult,
    from_triples,
    get,
    matmul,
    support,
    transpose,
)
from .criteria import (
    CriteriaReport,
    MismatchReport,
    Verdict,
    WitnessCase,
    check,
    demonstrate,
    validate,
    witness_additive_inverse,
    witness_annihilator,
    witness_zero_product,
)
from .errors import (
    AssocArrayError,
    ConfigurationError,
    DomainError,
    InternalConsistencyError,
    PreconditionError,
    ValidationError,
)
from .fileio import (
    ParseError,
    parse_edge_list,
    parse_finite_algebra,
    parse_set_triples,
    parse_triples,
    serialize_edge_list,
    serialize_triples,
)
from .graph import (
    Graph,
    IncidencePair,
    WordOverlapViolation,
    adjacency,
    adjacency_oracle,
    build_graph,
    check_word_consistency,
    document_adjacency,
    incidence_arrays,
    reverse_adjacency,
    shared_words_array,
)
from .values import Value, decode_any, encode_value

__all__ = [
    "Algebra",
    "AssocArrayError",
    "AssociativeArray",
    "ConfigurationError",
    "CriteriaReport",
    "DomainError",
    "FiniteAlgebraSpec",
    "Graph",
    "IncidencePair",
    "InternalConsistencyError",
    "MismatchReport",
    "ParseError",
    "PreconditionError",
    "Triple",
    "ValidationError",
    "Value",
    "Verdict",
    "WitnessCase",
    "WordOverlapViolation",
    "adjacency",
    "adjacency_oracle",
    "build_graph",
    "check",
    "check_word_consistency",
    "decode_any",
    "demonstrate",
    "document_adjacency",
    "encode_value",
    "ewise_add",
    "ewise_mult",
    "from_finite_spec",
    "from_triples",
    "get",
    "incidence_arrays",
    "make_builtin",
    "matmul",
    "parse_edge_list",
    "parse_finite_algebra",
    "parse_set_triples",
    "parse_triples",
    "reverse_adjacency",
    "serialize_edge_list",
    "serialize_triples",
    "shared_words_array",
    "support",
    "transpose",
    "validate",
    "witness_additive_inverse",
    "witness_annihilator",
    "witness_zero_product",
]

__version__ = "0.1.0"
