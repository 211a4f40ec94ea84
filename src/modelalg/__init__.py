"""Set-valued semantics for a small class-model language and an algebraic
property checker for model composition operators."""

from .algebra import (
    Corpus,
    CorpusBounds,
    DEFAULT_BOUNDS,
    OperatorReport,
    Partition,
    StabilityReport,
    Verdict,
    Witness,
    check_associativity,
    check_commutativity,
    check_cp,
    check_element,
    check_fpp,
    check_pp,
    classify,
    congruence_check,
    default_corpus,
    generate_corpus,
    quotient,
    stability_check,
)
from .operators import (
    OPERATORS,
    get_operator,
    intersect_merge,
    override_merge,
    paranoid_merge,
    strict_merge,
    union_merge,
)
from .semantics import (
    DEFAULT_CAP,
    Denotation,
    System,
    Universe,
    UniverseCapError,
    UniverseError,
    build_universe,
    denotation,
    is_consistent,
    is_uninformative,
    load_universe,
    refines,
    semantically_eq,
    universe_from_spec,
)
from .syntax import (
    AttrComplete,
    AttrTyped,
    ClassExists,
    Constraint,
    Diagnostic,
    Model,
    ParseError,
    mentioned_classes,
    normalize,
    parse,
    parse_strict,
    render,
    syntactic_eq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
