"""Change tagging, per-pair pattern detection, and cross-pair intersection.

Objects in an input/output scene pair are tagged added, removed, or
retained by greedy matching. Candidate unit patterns are collected per
train pair by a pluggable proposer, then intersected across pairs into a
confidence-ranked rule set with rendered hint sentences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .errors import PatternApplicationError, PatternContractError
from .grid import Grid, grids_equal, pixel_distance
from .patterns import (
    Scene,
    UnitPattern,
    apply_pattern,
    canonical_key,
    format_pattern,
    parse_pattern,
)
from .perception import Perception

log = logging.getLogger(__name__)

Pair = tuple[Grid, Grid]


@dataclass(frozen=True)
class ChangeTag:
    """One object's fate across an input/output pair."""

    tag: str  # added | removed | retained
    input_id: int | None = None
    output_id: int | None = None

    def __post_init__(self) -> None:
        if self.tag == "added" and (self.input_id is not None or self.output_id is None):
            raise ValueError("added tags carry an output ref only")
        if self.tag == "removed" and (self.input_id is None or self.output_id is not None):
            raise ValueError("removed tags carry an input ref only")
        if self.tag == "retained" and (self.input_id is None or self.output_id is None):
            raise ValueError("retained tags carry both refs")


def match_objects(pin: Perception, pout: Perception) -> list[ChangeTag]:
    """Greedy object correspondence between two perceptions.

    Matching passes, in priority order: identical mask and color; same
    shape translated with the same color; same shape with a different
    color. Each object matches at most once; leftovers become removed
    (input side) or added (output side). Deterministic given scan-order
    ids.
    """
    unmatched_in = list(pin.objects)
    unmatched_out = list(pout.objects)
    pairs: list[tuple[int, int]] = []

    def run_pass(predicate) -> None:
        nonlocal unmatched_in, unmatched_out
        still_in = []
        for obj in unmatched_in:
            hit = None
            for cand in unmatched_out:
                if predicate(obj, cand):
                    hit = cand
                    break
            if hit is not None:
                pairs.append((obj.id, hit.id))
                unmatched_out = [o for o in unmatched_out if o.id != hit.id]
            else:
                still_in.append(obj)
        unmatched_in = still_in

    run_pass(lambda a, b: a.mask == b.mask and a.color == b.color)
    run_pass(lambda a, b: a.shape == b.shape and a.color == b.color)
    run_pass(lambda a, b: a.shape == b.shape)

    tags = [ChangeTag("retained", input_id=i, output_id=o) for i, o in sorted(pairs)]
    tags.extend(ChangeTag("removed", input_id=o.id) for o in unmatched_in)
    tags.extend(ChangeTag("added", output_id=o.id) for o in unmatched_out)
    return tags


@dataclass(frozen=True)
class ScoredPattern:
    """A unit pattern with its cross-pair support."""

    pattern: UnitPattern
    support: int
    confidence: float
    exact: bool


@dataclass(frozen=True)
class RuleSet:
    """Surviving patterns sorted by (confidence desc, exact desc, canonical
    order), with one hint sentence per pattern."""

    patterns: tuple[ScoredPattern, ...]
    hints: tuple[str, ...]


class Proposer(Protocol):
    """Source of candidate patterns for one train pair.

    Implementations may yield UnitPattern values or serialized pattern
    lines; malformed lines are dropped with a warning by the caller.
    """

    def propose(self, pair: Pair, budget: int) -> Iterable[UnitPattern | str]: ...


def detect_unit_patterns(
    pair: Pair,
    proposer: Proposer,
    budget: int,
    connectivity: int = 4,
) -> list[ScoredPattern]:
    """Collect, re-verify, and deduplicate one pair's candidate patterns.

    Every candidate is re-applied to the pair input: exact matches are
    flagged exact, strict reductions of pixel distance are kept as
    partial, everything else is dropped. Proposer ordering is preserved.
    """
    gin, gout = pair
    scene = Scene(gin, connectivity)
    baseline = pixel_distance(gin, gout)
    seen: set[str] = set()
    out: list[ScoredPattern] = []
    for item in proposer.propose(pair, budget):
        if isinstance(item, str):
            try:
                pattern = parse_pattern(item)
            except PatternContractError as e:
                log.warning("dropping malformed pattern line %r: %s", item, e)
                continue
        else:
            pattern = item
        key = format_pattern(pattern)
        if key in seen:
            continue
        seen.add(key)
        try:
            result = apply_pattern(pattern, scene)
        except (PatternApplicationError, PatternContractError):
            continue
        if grids_equal(result, gout):
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=True))
        elif pixel_distance(result, gout) < baseline:
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=False))
    return out


@dataclass
class _Entry:
    pattern: UnitPattern
    pairs: set[int] = field(default_factory=set)
    exact_flags: list[bool] = field(default_factory=list)


def intersect_patterns(
    per_pair: list[list[ScoredPattern]],
    train_pairs: list[Pair],
    threshold: float = 1.0,
    connectivity: int = 4,
) -> RuleSet:
    """Intersect per-pair detections into a ranked rule set.

    Support counts the pairs whose list contains the pattern (duplicates
    within one pair count once). Patterns below the confidence threshold
    are dropped, as is any pattern that was proposed exact somewhere but,
    re-applied to some train pair, runs without error and yields the
    wrong output. Partial patterns are kept only as a backstop: once any
    exact pattern survives, the partials are pruned so they cannot
    outvote a rule that reproduces every training output.
    """
    if not per_pair:
        raise ValueError("intersect_patterns: no per-pair lists")
    if len(per_pair) != len(train_pairs):
        raise ValueError("intersect_patterns: per-pair lists do not match pairs")
    n = len(per_pair)
    entries: dict[str, _Entry] = {}
    for idx, detections in enumerate(per_pair):
        for sp in detections:
            key = format_pattern(sp.pattern)
            entry = entries.setdefault(key, _Entry(pattern=sp.pattern))
            if idx not in entry.pairs:
                entry.pairs.add(idx)
                entry.exact_flags.append(sp.exact)

    scenes = [(Scene(gin, connectivity), gout) for gin, gout in train_pairs]
    survivors: list[ScoredPattern] = []
    for key in sorted(entries, key=lambda k: canonical_key(entries[k].pattern)):
        entry = entries[key]
        support = len(entry.pairs)
        confidence = support / n
        if confidence + 1e-9 < threshold:
            continue
        if any(entry.exact_flags) and _contradicted(entry.pattern, scenes):
            continue
        survivors.append(
            ScoredPattern(
                pattern=entry.pattern,
                support=support,
                confidence=confidence,
                exact=all(entry.exact_flags),
            )
        )

    if any(sp.exact for sp in survivors):
        survivors = [sp for sp in survivors if sp.exact]
    survivors.sort(
        key=lambda sp: (-sp.confidence, not sp.exact, canonical_key(sp.pattern))
    )
    return RuleSet(
        patterns=tuple(survivors),
        hints=tuple(synthesize_hint(sp.pattern) for sp in survivors),
    )


def induce(
    task,
    proposer: Proposer,
    threshold: float = 1.0,
    budget: int = 2000,
    connectivity: int = 4,
) -> RuleSet:
    """Detect unit patterns on every train pair and intersect them."""
    per_pair = [
        detect_unit_patterns(pair, proposer, budget, connectivity)
        for pair in task.train
    ]
    return intersect_patterns(per_pair, list(task.train), threshold, connectivity)


def _contradicted(pattern: UnitPattern, scenes: list[tuple[Scene, Grid]]) -> bool:
    for scene, gout in scenes:
        try:
            result = apply_pattern(pattern, scene)
        except (PatternApplicationError, PatternContractError):
            continue  # inapplicable is not a contradiction
        if not grids_equal(result, gout):
            return True
    return False


_DIR_WORDS = {"up": "upward", "down": "downward", "left": "leftward", "right": "rightward"}
_AXIS_WORDS = {"h": "left-right", "v": "top-bottom"}


def synthesize_hint(p: UnitPattern) -> str:
    """Deterministic template rendering of one pattern as a sentence."""
    sel = p.selector.describe()
    kind = p.kind
    if kind == "rotate90":
        return "rotate the grid 90 degrees clockwise"
    if kind == "rotate180":
        return "rotate the grid 180 degrees"
    if kind == "rotate270":
        return "rotate the grid 270 degrees clockwise"
    if kind == "reflect_h":
        return "reflect the grid left-right"
    if kind == "reflect_v":
        return "reflect the grid top-bottom"
    if kind == "crop_to_content":
        return "crop the grid to its content"
    if kind == "symmetry_complete":
        return f"complete the grid symmetrically {_AXIS_WORDS[p['axis']]}"
    if kind == "scale_up":
        return f"scale the grid up by factor {p['factor']}"
    if kind == "scale_down":
        return f"scale the grid down by factor {p['factor']}"
    if kind == "tile_grid":
        return f"tile the grid {p['rows']} times down and {p['cols']} times across"
    if kind == "overlay_pairs":
        return f"overlay the two halves of the grid split {_AXIS_WORDS[p['axis']]}"
    if kind == "select_largest":
        return "keep only the largest object, cropped to its box"
    if kind == "select_smallest":
        return "keep only the smallest object, cropped to its box"
    if kind == "count_encode":
        return f"emit one color-{p['color']} cell per object among {sel}"
    if kind == "recolor":
        return f"replace color {p['src']} with color {p['dst']}"
    if kind == "palette_swap":
        pairs = ", ".join(f"{a} to {b}" for a, b in p["map"])
        return f"remap colors: {pairs}"
    if kind == "translate":
        return f"move {sel} by {p['dx']} columns and {p['dy']} rows"
    if kind == "delete_object":
        return f"delete {sel}"
    if kind == "duplicate_object":
        return f"duplicate {sel} offset by {p['dx']} columns and {p['dy']} rows"
    if kind == "cavity_fill":
        return f"fill the cavities of {sel} with color {p['color']}"
    if kind == "gravity_shift":
        return f"slide {sel} {_DIR_WORDS[p['dir']]} until blocked"
    if kind == "draw_bbox_border":
        return f"draw the bounding box of {sel} in color {p['color']}"
    if kind == "connect_objects":
        return f"connect aligned pairs of {sel} with color {p['color']}"
    raise PatternContractError(f"no hint template for {kind!r}")  # pragma: no cover


def synthesize_hints(rs: RuleSet) -> list[str]:
    """Hint sentences for a rule set, index-aligned with its patterns."""
    return [synthesize_hint(sp.pattern) for sp in rs.patterns]
