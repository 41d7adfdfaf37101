"""Change tagging, per-pair pattern detection, and cross-pair intersection.

Objects in an input/output scene pair are tagged added, removed, or
retained by greedy matching. Candidate unit patterns come from a
pluggable proposer: every train pair's candidates are collected first,
keyed by value (``patterns.pattern_key``), then each one is applied at
most once to a pair input, and only while the number of pairs that
propose it can still carry it to the confidence threshold. A candidate
becomes a (validated) UnitPattern only there, just before it is
applied, so the many that are never verified are never built. The
verdicts are intersected across pairs into a confidence-ranked rule set
with rendered hint sentences.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from .errors import PatternApplicationError, PatternContractError
from .grid import Grid, grids_equal, pixel_distance
from .patterns import (
    PatternKey,
    Scene,
    UnitPattern,
    apply_pattern,
    as_scene,
    build_pattern,
    canonical_key,
    parse_pattern,
    pattern_key,
    synthesize_hint,
)
from .perception import Perception

log = logging.getLogger(__name__)

# A train pair; the input may be a Scene over the input grid.
Pair = tuple[Grid | Scene, Grid]


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

    ``propose`` gets the pair input as a Scene and the pair output. It
    may yield value keys (``patterns.pattern_key``) or serialized pattern
    lines, and verifies nothing:
    ``collect_candidates`` parses the lines (dropping malformed ones with
    a warning), turns each item into its key, deduplicates on the key and
    stops after ``budget`` distinct candidates; ``detect_unit_patterns``
    builds a pattern from a key only when it verifies it, and applies
    each one at most once.
    """

    def propose(
        self, scene: Scene, output: Grid, budget: int
    ) -> Iterable[PatternKey | str]: ...


def collect_candidates(
    pair: Pair, proposer: Proposer, budget: int, connectivity: int = 4
) -> dict[PatternKey, UnitPattern | None]:
    """One pair's first ``budget`` distinct candidates, by value key.

    The pair input may be a Scene (its own connectivity then applies).
    Lines are parsed, malformed ones dropped with a warning, and
    duplicates skipped; the dict keeps proposer order. A key maps to its
    parsed pattern when the proposer gave a line, else to None: keys are
    built only when verified. Nothing is applied.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    gin, gout = pair
    candidates: dict[PatternKey, UnitPattern | None] = {}
    for item in proposer.propose(as_scene(gin, connectivity), gout, budget):
        if isinstance(item, str):
            try:
                pattern = parse_pattern(item)
            except PatternContractError as e:
                log.warning("dropping malformed pattern line %r: %s", item, e)
                continue
            key = pattern_key(pattern)
        else:
            key, pattern = item, None
        if key in candidates:
            continue
        if len(candidates) == budget:
            break
        candidates[key] = pattern
    return candidates


def detect_unit_patterns(
    pair: Pair, candidates: dict[PatternKey, UnitPattern | None], connectivity: int = 4
) -> list[ScoredPattern]:
    """Verify candidates, as ``collect_candidates`` returns them, on one pair.

    The pair input may be a Scene (its own connectivity then applies).
    A key without a pattern is built here, which validates it (a key
    that names no valid pattern raises PatternContractError). Each
    candidate is applied once to the pair input, in dict order: exact
    matches are flagged exact, strict reductions of pixel distance are
    kept as partial, everything else is dropped.
    """
    gin, gout = pair
    scene = as_scene(gin, connectivity)
    baseline = pixel_distance(scene.grid, gout)
    out: list[ScoredPattern] = []
    for key, pattern in candidates.items():
        if pattern is None:
            pattern = build_pattern(key)
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
    exact_by_pair: dict[int, bool] = field(default_factory=dict)


def intersect_patterns(
    per_pair: list[list[ScoredPattern]],
    train_pairs: list[Pair],
    threshold: float = 1.0,
    connectivity: int = 4,
) -> RuleSet:
    """Intersect per-pair detections into a ranked rule set.

    ``per_pair[i]`` must be the output of ``detect_unit_patterns`` for
    ``train_pairs[i]`` (whose input may be a Scene): its flags are read
    as verdicts on that pair. Support counts the pairs whose list
    contains the pattern (duplicates within one pair count once).
    Patterns below the confidence threshold are dropped, as is any
    pattern that was proposed exact somewhere but runs without error on
    some train pair and yields the wrong output. A partial flag says
    exactly that; only pairs whose list lacks the pattern (possible
    below threshold 1.0) have it applied here. ``induce`` leaves out of
    pair k's list the candidates that could no longer reach the
    threshold (it skips applying them there); this test drops them
    either way, so the lists it builds give the same rule set as lists
    with every candidate verified. Partial patterns are kept
    only as a backstop: once any exact pattern survives, the partials
    are pruned so they cannot outvote a rule that reproduces every
    training output.
    """
    if not per_pair:
        raise ValueError("intersect_patterns: no per-pair lists")
    if len(per_pair) != len(train_pairs):
        raise ValueError("intersect_patterns: per-pair lists do not match pairs")
    n = len(per_pair)
    entries: dict[PatternKey, _Entry] = {}
    for idx, detections in enumerate(per_pair):
        for sp in detections:
            key = pattern_key(sp.pattern)
            entry = entries.setdefault(key, _Entry(pattern=sp.pattern))
            entry.exact_by_pair.setdefault(idx, sp.exact)

    scenes = [(as_scene(gin, connectivity), gout) for gin, gout in train_pairs]
    survivors: list[ScoredPattern] = []
    for key in sorted(entries, key=lambda k: canonical_key(entries[k].pattern)):
        entry = entries[key]
        flags = entry.exact_by_pair
        support = len(flags)
        confidence = support / n
        if confidence + 1e-9 < threshold:
            continue
        if any(flags.values()) and _contradicted(entry.pattern, flags, scenes):
            continue
        survivors.append(
            ScoredPattern(
                pattern=entry.pattern,
                support=support,
                confidence=confidence,
                exact=all(flags.values()),
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
    """Collect candidates on every train pair, verify, and intersect.

    Each train input gets one Scene, shared by collection, verification
    and intersection, so it is segmented at most once. Every pair's
    candidates are collected first, in pair order. A candidate is applied
    on pair k only if it is in pair k's list, so its support can never
    exceed its support on pairs 0..k-1 plus the pairs k..n-1 whose lists
    hold it. Pair k verifies only the candidates for which that bound
    reaches ``threshold`` in ``intersect_patterns``' test; the others
    would be dropped below threshold anyway, so the rule set is the same
    as with every candidate verified.
    """
    pairs = [(Scene(gin, connectivity), gout) for gin, gout in task.train]
    n = len(pairs)
    collected = [collect_candidates(p, proposer, budget, connectivity) for p in pairs]
    support: Counter[PatternKey] = Counter()  # pairs 0..k-1 whose list holds the key
    proposed = Counter(key for candidates in collected for key in candidates)
    per_pair = []
    for pair, candidates in zip(pairs, collected):
        # ``proposed`` counts pairs k..n-1 here, pair k included.
        reachable = {
            key: pattern
            for key, pattern in candidates.items()
            if (support[key] + proposed[key]) / n + 1e-9 >= threshold
        }
        proposed.subtract(candidates.keys())
        detections = detect_unit_patterns(pair, reachable, connectivity)
        support.update(pattern_key(sp.pattern) for sp in detections)
        per_pair.append(detections)
    return intersect_patterns(per_pair, pairs, threshold, connectivity)


def _contradicted(
    pattern: UnitPattern,
    exact_by_pair: dict[int, bool],
    scenes: list[tuple[Scene, Grid]],
) -> bool:
    if not all(exact_by_pair.values()):
        return True  # a partial applied without error and missed the output
    for idx, (scene, gout) in enumerate(scenes):
        if idx in exact_by_pair:
            continue
        try:
            result = apply_pattern(pattern, scene)
        except (PatternApplicationError, PatternContractError):
            continue  # inapplicable is not a contradiction
        if not grids_equal(result, gout):
            return True
    return False
