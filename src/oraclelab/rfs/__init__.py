"""Recursive oracle identification: instances, solvers, accounting, referee."""

from .classical import ClassicalSolveResult, classical_solver
from .core import (
    FAIL,
    QueryRecord,
    RecursiveOracleSpec,
    derive_answer_bit,
    load_query_log,
    make_rfs_spec,
    oracle_query,
    save_query_log,
    secret_at,
)
from .find import (
    CoherentReport,
    FindReport,
    LevelStats,
    find_coherent_tiny,
    find_simulate,
    query_count,
    query_count_closed_form,
    repetition_count,
)
from .referee import (
    InternalQueryEvent,
    LowerBoundValue,
    ZTrace,
    bound_trend_table,
    lower_bound,
    z_referee,
    z_weight,
)

__all__ = [
    "FAIL",
    "ClassicalSolveResult",
    "CoherentReport",
    "FindReport",
    "InternalQueryEvent",
    "LevelStats",
    "LowerBoundValue",
    "QueryRecord",
    "RecursiveOracleSpec",
    "ZTrace",
    "bound_trend_table",
    "classical_solver",
    "derive_answer_bit",
    "find_coherent_tiny",
    "find_simulate",
    "load_query_log",
    "lower_bound",
    "make_rfs_spec",
    "oracle_query",
    "query_count",
    "query_count_closed_form",
    "repetition_count",
    "save_query_log",
    "secret_at",
    "z_referee",
    "z_weight",
]
