"""Fuzzy AHP toolkit: preference-programming weights from triangular fuzzy
pairwise judgments, with Delphi screening and reliability utilities."""

__version__ = "0.1.0"

from .composition import (
    GlobalRanking,
    RankingRow,
    compose_global,
    normalize,
    rank,
)
from .documents import (
    ResultsDocument,
    StudyDocument,
    bundled_study_path,
    load_study,
    parse_results,
    parse_study,
    serialize_results,
    solve_study,
)
from .errors import (
    CompositionError,
    DecisionToolError,
    InfeasibleJudgmentsError,
    UndefinedStatisticError,
    UnknownTermError,
    ValidationError,
)
from .fuzzy import (
    DEFAULT_SCALE,
    TFN,
    LinguisticScale,
    TriangularFuzzyNumber,
    aggregate_judgments,
    membership,
    reciprocal,
    scale_lookup,
)
from .hierarchy import (
    ComparisonJudgment,
    ComparisonMatrix,
    Hierarchy,
    Node,
    validate,
    validate_matrix,
)
from .solver import (
    ORACLE_LAMBDA_TOL,
    ORACLE_MAX_ITEMS,
    ORACLE_WEIGHT_TOL,
    SolveResult,
    feasible_at,
    lambda_at,
    oracle_solve,
    solve_fpp,
)

# The survey statistics are loaded on first use (PEP 562), so that the
# commands that never screen a survey do not import them.
_SURVEY_NAMES = frozenset(
    {
        "CaspScore",
        "DelphiRatings",
        "ItemResponses",
        "casp_pass",
        "cronbach_alpha",
        "delphi_round",
        "run_delphi",
    }
)


def __getattr__(name: str):
    if name in _SURVEY_NAMES:
        from . import survey

        return getattr(survey, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CaspScore",
    "ComparisonJudgment",
    "ComparisonMatrix",
    "CompositionError",
    "DecisionToolError",
    "DEFAULT_SCALE",
    "DelphiRatings",
    "GlobalRanking",
    "Hierarchy",
    "InfeasibleJudgmentsError",
    "ItemResponses",
    "LinguisticScale",
    "Node",
    "ORACLE_LAMBDA_TOL",
    "ORACLE_MAX_ITEMS",
    "ORACLE_WEIGHT_TOL",
    "RankingRow",
    "ResultsDocument",
    "SolveResult",
    "StudyDocument",
    "TFN",
    "TriangularFuzzyNumber",
    "UndefinedStatisticError",
    "UnknownTermError",
    "ValidationError",
    "aggregate_judgments",
    "bundled_study_path",
    "casp_pass",
    "compose_global",
    "cronbach_alpha",
    "delphi_round",
    "feasible_at",
    "lambda_at",
    "load_study",
    "membership",
    "normalize",
    "oracle_solve",
    "parse_results",
    "parse_study",
    "rank",
    "reciprocal",
    "run_delphi",
    "scale_lookup",
    "serialize_results",
    "solve_fpp",
    "solve_study",
    "validate",
    "validate_matrix",
]
