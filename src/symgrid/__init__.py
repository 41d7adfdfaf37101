"""Deterministic grid-reasoning engine.

Four stages: grid perception (objects, cavities, background), unit
pattern detection over a 23-operation taxonomy, rule intersection across
train pairs, and a per-pixel voting solver with an optional remote
backend for samples and fallback.
"""

from .config import Config, load_config
from .errors import (
    BackendError,
    BoundsError,
    ConfigError,
    GridValidationError,
    MarkdownError,
    PatternApplicationError,
    PatternContractError,
    SymgridError,
    TaskFormatError,
)
from .grid import (
    Grid,
    Task,
    decode_markdown,
    encode_markdown,
    grids_equal,
    parse_task,
    pixel_distance,
    serialize_task,
)
from .induction import RuleSet, ScoredPattern, TrainPair, induce
from .patterns import (
    KIND_ORDER,
    Scene,
    Selector,
    UnitPattern,
    apply_pattern,
    build_pattern,
    format_pattern,
    make_pattern,
    parse_pattern,
    pattern_key,
)
from .perception import GridObject, Perception, background_color, segment
from .search import SearchProposer, enumerate_candidates
from .solver import (
    Candidate,
    EvalReport,
    Prediction,
    apply_ruleset,
    evaluate,
    solve_task,
)

__all__ = [
    "BackendError",
    "BoundsError",
    "Candidate",
    "Config",
    "ConfigError",
    "EvalReport",
    "Grid",
    "GridObject",
    "GridValidationError",
    "KIND_ORDER",
    "MarkdownError",
    "PatternApplicationError",
    "PatternContractError",
    "Perception",
    "Prediction",
    "RuleSet",
    "Scene",
    "ScoredPattern",
    "SearchProposer",
    "Selector",
    "SymgridError",
    "Task",
    "TaskFormatError",
    "TrainPair",
    "UnitPattern",
    "apply_pattern",
    "apply_ruleset",
    "background_color",
    "build_pattern",
    "decode_markdown",
    "encode_markdown",
    "enumerate_candidates",
    "evaluate",
    "format_pattern",
    "grids_equal",
    "induce",
    "load_config",
    "make_pattern",
    "parse_pattern",
    "parse_task",
    "pattern_key",
    "pixel_distance",
    "segment",
    "serialize_task",
    "solve_task",
]
