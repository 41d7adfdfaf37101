"""Change tagging, per-pair pattern detection, and cross-pair intersection.

Objects in an input/output scene pair are tagged added, removed, or
retained by greedy matching. Candidate unit patterns come from a
pluggable proposer: every train pair's candidates are collected first,
keyed by value (``patterns.pattern_key``), then each one is applied at
most once to a pair input, and only while the number of pairs that
propose it can still carry it to the confidence threshold, while the
pair's differing cells leave it a chance to match (``TrainPair.verdict``),
and, once it has been kept as partial or that verdict shows it cannot be
exact, only if no exact rule survives. A candidate becomes a
(validated) UnitPattern only there, just before it is applied, so the
many that are never verified are never built. The verdicts are
intersected across pairs into a confidence-ranked rule set with rendered
hint sentences.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, ne
from typing import Iterable, Protocol

from .errors import PatternApplicationError, PatternContractError
from .grid import Grid, grids_equal, pixel_distance
from .patterns import (
    GROWS,
    PatternKey,
    Scene,
    UnitPattern,
    apply_pattern,
    build_pattern,
    canonical_key,
    may_change,
    parse_pattern,
    pattern_key,
    synthesize_hint,
)
from .perception import GridObject, Perception

log = logging.getLogger(__name__)


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


# The greedy passes' features, in priority order.
_MATCH_FEATURES = (
    attrgetter("mask", "color"),
    attrgetter("shape", "color"),
    attrgetter("shape"),
)


def match_objects(pin: Perception, pout: Perception) -> list[ChangeTag]:
    """Greedy object correspondence between two perceptions.

    Matching passes, in priority order: identical mask and color; same
    shape translated with the same color; same shape with a different
    color. Each object matches at most once; leftovers become removed
    (input side) or added (output side). Deterministic given scan-order
    ids: in each pass an input object, in id order, takes the first
    unmatched output object in id order with its feature, which is the
    head of that feature's queue.
    """
    unmatched_in = list(pin.objects)
    unmatched_out = {o.id: o for o in pout.objects}
    pairs: list[tuple[int, int]] = []
    for feature in _MATCH_FEATURES:
        queues: dict[object, deque[GridObject]] = {}
        for o in unmatched_out.values():
            queues.setdefault(feature(o), deque()).append(o)
        still_in = []
        for obj in unmatched_in:
            queue = queues.get(feature(obj))
            if queue:
                hit = queue.popleft()
                pairs.append((obj.id, hit.id))
                del unmatched_out[hit.id]
            else:
                still_in.append(obj)
        unmatched_in = still_in

    tags = [ChangeTag("retained", input_id=i, output_id=o) for i, o in sorted(pairs)]
    tags.extend(ChangeTag("removed", input_id=o.id) for o in unmatched_in)
    tags.extend(ChangeTag("added", output_id=o.id) for o in unmatched_out.values())
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

    ``propose`` gets the ``TrainPair``. It may yield value keys
    (``patterns.pattern_key``) or serialized pattern lines, and verifies
    nothing:
    ``collect_candidates`` parses the lines (dropping malformed ones with
    a warning), turns each item into its key, deduplicates on the key and
    stops after ``budget`` distinct candidates; ``detect_unit_patterns``
    builds a pattern from a key only when it verifies it, and applies
    each one at most once.
    """

    def propose(self, pair: TrainPair, budget: int) -> Iterable[PatternKey | str]: ...


def collect_candidates(
    pair: TrainPair,
    proposer: Proposer,
    budget: int,
    memo: dict[str, tuple[UnitPattern, PatternKey] | str] | None = None,
) -> dict[PatternKey, UnitPattern | None]:
    """One pair's first ``budget`` distinct candidates, by value key.

    Lines are parsed, malformed ones dropped with a warning, and
    duplicates skipped; the dict keeps proposer order. A key maps to its
    parsed pattern when the proposer gave a line, else to None: keys are
    built only when verified. Nothing is applied.

    ``memo`` maps each line already parsed to its pattern and key, or to
    the error text of a malformed line; a line found there is not parsed
    again, and a malformed one still warns at every occurrence. ``induce``
    shares one memo across the pairs of one task; without one, this call
    keeps its own.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if memo is None:
        memo = {}
    candidates: dict[PatternKey, UnitPattern | None] = {}
    for item in proposer.propose(pair, budget):
        if isinstance(item, str):
            parsed = memo.get(item)
            if parsed is None:
                try:
                    pattern = parse_pattern(item)
                except PatternContractError as e:
                    # The text, not the exception: its traceback would hold
                    # this frame, and so the memo, in a reference cycle.
                    parsed = str(e)
                else:
                    parsed = (pattern, pattern_key(pattern))
                memo[item] = parsed
            if isinstance(parsed, str):
                log.warning("dropping malformed pattern line %r: %s", item, parsed)
                continue
            pattern, key = parsed
        else:
            key, pattern = item, None
        if key in candidates:
            continue
        if len(candidates) == budget:
            break
        candidates[key] = pattern
    return candidates


# ``TrainPair.verdict``'s answers.
_DROP, _HOLD, _APPLY = "drop", "hold", "apply"


class TrainPair:
    """One train pair: the input's Scene, the output grid, and what the
    cells where they differ show, read once for proposal, verification
    and intersection alike.

    Call the input colors of the differing cells *held*, and their output
    colors *wanted* (as lists, one color per differing cell, in row-major
    order); when the shapes differ both are None. ``held_colors`` and
    ``wanted_colors`` are their sets. ``distance`` is the input's
    ``pixel_distance`` from the output: the count of differing cells, or,
    when the shapes differ, that function's shape-mismatch score,
    computed when first read.
    """

    def __init__(self, scene: Scene, output: Grid) -> None:
        self.scene = scene
        self.output = output
        grid = scene.grid
        self.held: list[int] | None = None
        self.wanted: list[int] | None = None
        self.classes = {"any": _APPLY}  # ``by_class``'s verdicts, filled in when first read
        if grid.dims != output.dims:
            return
        # The differing rows, end to end, then their differing cells.
        rows_in: list[int] = []
        rows_out: list[int] = []
        for ra, rb in zip(grid.rows, output.rows):
            if ra != rb:
                rows_in += ra
                rows_out += rb
        differs = list(map(ne, rows_in, rows_out))
        held, wanted = list(compress(rows_in, differs)), list(compress(rows_out, differs))
        self.held, self.wanted = held, wanted
        self.held_colors, self.wanted_colors = set(held), set(wanted)
        self.distance = len(held)

    @cached_property
    def distance(self) -> int:
        return pixel_distance(self.scene.grid, self.output)

    def verdict(self, key: PatternKey) -> str:
        """``_DROP`` if ``key`` can be neither exact nor partial on this
        pair, ``_HOLD`` if it cannot be exact, else ``_APPLY`` (always when
        the input equals the output or the shapes differ): ``by_class``'s
        verdict for its ``GROWS`` class, held when ``patterns.may_change``
        shows that the kind cannot turn the held colors into the wanted
        ones. None of the kinds these facts cover raises
        PatternApplicationError, so a held key applies without error and
        yields a grid that is not the output: where it was exact on other
        pairs, the intersection contradicts it, just as it does a partial.
        """
        if not self.held:
            return _APPLY
        grows = GROWS.get(key[0], "any")
        verdict = _APPLY if grows == "any" else self.by_class(grows)
        if verdict is _APPLY and not may_change(
            key, self.held_colors, self.wanted_colors, self.scene
        ):
            return _HOLD
        return verdict

    def by_class(self, grows: str) -> str:
        """``verdict`` for the keys of ``GROWS`` class ``grows``, before
        ``may_change``; computed once per class. A kind's result holds no
        more cells than the input of a color outside its class, so the
        class is held when the output gained such a color (the cells that
        do not differ cancel out, so the held and wanted colors are
        counted). It is dropped when, besides, no color is both held and
        wanted and the class grows no wanted color (for ``background``,
        the background is not wanted): then the color-count floor (the
        output's cells beyond the input's count, summed over the colors
        the class never grows) reaches the input's distance, so a result
        misses at least that many output cells (or has another shape).
        """
        verdict = self.classes.get(grows)
        if verdict is None:
            verdict = _APPLY
            held, wanted = self.held, self.wanted
            if held:
                gained = {c for c in self.wanted_colors if wanted.count(c) > held.count(c)}
                bg = self.scene.background if gained and grows == "background" else None
                if gained - {bg}:
                    disjoint = self.held_colors.isdisjoint(self.wanted_colors)
                    verdict = _DROP if disjoint and bg not in self.wanted_colors else _HOLD
            self.classes[grows] = verdict
        return verdict


def detect_unit_patterns(
    pair: TrainPair, candidates: dict[PatternKey, UnitPattern | None]
) -> list[ScoredPattern]:
    """Verify candidates, as ``collect_candidates`` returns them, on one pair.

    A key without a pattern is built here before it is applied, which
    validates it (a key that names no valid pattern raises
    PatternContractError). Each candidate is applied at most once to the
    pair input, in dict order: exact matches are flagged exact, strict
    reductions of pixel distance are kept as partial, everything else is
    dropped.

    A candidate whose kind never adds cells of a color (``GROWS``,
    except perhaps the background) is dropped without being built or
    applied when the color counts show it can be neither exact nor
    partial: its class's verdict, ``TrainPair.by_class``, is ``_DROP``.
    """
    scene, gout = pair.scene, pair.output
    baseline = pair.distance
    out: list[ScoredPattern] = []
    for key, pattern in candidates.items():
        grows = GROWS.get(key[0], "any")
        if grows != "any" and pair.by_class(grows) is _DROP:
            continue
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
    train_pairs: list[TrainPair],
    threshold: float = 1.0,
) -> RuleSet:
    """Intersect per-pair detections into a ranked rule set.

    ``per_pair[i]`` must be the output of ``detect_unit_patterns`` for
    ``train_pairs[i]``: its flags are read as verdicts on that pair.
    Support counts the pairs whose list contains the pattern (duplicates
    within one pair count once).
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
    training output. ``induce`` relies on that pruning: it holds back a
    candidate kept as partial on the pairs verified after, and one that a
    pair's differing cells show cannot be exact from that pair on, and
    verifies it there only when the lists without those verdicts give no
    exact rule.
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

    survivors: list[ScoredPattern] = []
    for key in sorted(entries, key=lambda k: canonical_key(entries[k].pattern)):
        entry = entries[key]
        flags = entry.exact_by_pair
        support = len(flags)
        confidence = support / n
        if confidence + 1e-9 < threshold:
            continue
        if any(flags.values()) and _contradicted(entry.pattern, flags, train_pairs):
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

    Each train pair becomes one ``TrainPair``, which proposal, both
    verification rounds below and intersection share: its input has one
    Scene, segmented at most once, and its differing cells are read once.
    Every pair's candidates are collected first, in pair order, through
    one memo of the task's pattern lines, so each distinct line is parsed
    once (the memo lives for this call only). The pairs are then
    verified from the smallest input (fewest cells) up, ties in pair
    order. A candidate is applied on a pair only if it
    is in that pair's list, so its support can never exceed its support
    on the pairs verified so far plus the pairs still to verify whose
    lists hold it. Each pair verifies only the candidates for which that
    bound reaches ``threshold`` in ``intersect_patterns``' test; the
    others would be dropped below threshold anyway, so the rule set is
    the same as with every candidate verified, in any order. Most
    candidates that fail therefore fail on the cheapest grid.

    Exact rules are looked for first. A candidate kept as partial on a
    pair can never be an exact rule, and ``intersect_patterns`` prunes
    every partial once an exact rule survives, so it is held back on the
    later pairs rather than applied. A candidate whose ``TrainPair.verdict``
    on a pair is ``_HOLD`` (it cannot be exact there) is held back from
    that pair on, unapplied: it yields a grid that is not the output
    there, so it is no exact rule either. It is left out of the first
    intersection, where it could only be dropped, below threshold or
    contradicted on that pair. If the rule set of the verdicts so far
    holds an exact rule, it is the answer: the exact candidates were
    verified exactly as without holding back. Otherwise the held-back
    candidates are verified, pair by pair in the same order and under the
    same bound on their real verdicts, and the verdicts intersected
    again. No candidate is verified twice on one pair.
    """
    pairs = [TrainPair(Scene(gin, connectivity), gout) for gin, gout in task.train]
    n = len(pairs)
    memo: dict[str, tuple[UnitPattern, PatternKey] | str] = {}  # this task's lines
    collected = [collect_candidates(p, proposer, budget, memo) for p in pairs]
    cells = [p.scene.grid.height * p.scene.grid.width for p in pairs]
    order = sorted(range(n), key=cells.__getitem__)  # stable: ties keep pair order
    per_pair: list[list[ScoredPattern]] = [[] for _ in pairs]
    support: Counter[PatternKey] = Counter()  # verified pairs whose list holds the key
    held_from: dict[PatternKey, int] = {}  # key -> first position in ``order`` it skips
    untried = _verify(pairs, order, collected, support, per_pair, threshold, held_from)
    first = per_pair
    if untried:
        first = [[sp for sp in sps if pattern_key(sp.pattern) not in untried] for sps in per_pair]
    rules = intersect_patterns(first, pairs, threshold)
    if any(sp.exact for sp in rules.patterns):
        return rules
    held: list[dict[PatternKey, UnitPattern | None]] = [{} for _ in pairs]
    for i, k in enumerate(order):
        held[k] = {key: p for key, p in collected[k].items() if held_from.get(key, n) <= i}
    if not any(held):  # so nothing is untried, and ``rules`` saw every verdict
        return rules
    _verify(pairs, order, held, support, per_pair, threshold, None)
    # The candidates never held back have the same verdicts as above, so
    # they die again; leaving them out spares their contradiction checks.
    per_pair = [[sp for sp in sps if pattern_key(sp.pattern) in held_from] for sps in per_pair]
    return intersect_patterns(per_pair, pairs, threshold)


def _verify(
    pairs: list[TrainPair],
    order: list[int],
    lists: list[dict[PatternKey, UnitPattern | None]],
    support: Counter[PatternKey],
    per_pair: list[list[ScoredPattern]],
    threshold: float,
    held_from: dict[PatternKey, int] | None,
) -> set[PatternKey]:
    """Verify ``lists[k]`` on ``pairs[k]`` for k in ``order``, under
    ``induce``'s reachability bound, adding the verdicts to ``per_pair``
    and ``support``. Given ``held_from``, a candidate kept as partial
    there is skipped from the next position in ``order`` on, and one whose
    ``pairs[k].verdict`` is ``_HOLD`` is skipped from that position on,
    unapplied (and unbuilt, so a key that names no valid pattern raises
    only if it is verified later); the position is recorded, and the keys
    skipped unapplied are returned.

    The bound is kept in integers. ``need`` is the least support m with
    ``m / n + 1e-9 >= threshold``, ``intersect_patterns``' test (n + 1
    when no m up to n passes it, as for a threshold above 1 or NaN).
    ``count[key]`` is the key's support plus the pairs not yet verified
    whose lists hold it; ``alive`` holds the keys whose count reaches
    ``need`` and that are not held back. A count falls only when a pair
    that applied the key did not keep it, and never rises, so a key that
    leaves ``alive`` never returns and its count is no longer kept.
    """
    n = len(pairs)
    need = next((m for m in range(n + 1) if m / n + 1e-9 >= threshold), n + 1)
    count = Counter(chain.from_iterable(lists))
    for key, s in support.items():
        if key in count:
            count[key] += s
    alive = {key for key, c in count.items() if c >= need}
    untried: set[PatternKey] = set()
    for i, k in enumerate(order):
        candidates = lists[k]
        reachable = dict(compress(candidates.items(), map(alive.__contains__, candidates)))
        if not reachable:
            continue
        pair = pairs[k]
        if held_from is not None and pair.held:
            barred = [key for key in reachable if pair.verdict(key) is _HOLD]
            for key in barred:
                del reachable[key]
                held_from[key] = i
            alive.difference_update(barred)
            untried.update(barred)
        if not reachable:
            continue
        detections = detect_unit_patterns(pair, reachable)
        per_pair[k] += detections
        detected = [pattern_key(sp.pattern) for sp in detections]
        support.update(detected)
        for key in reachable.keys() - detected:
            count[key] -= 1
            if count[key] < need:
                alive.discard(key)
        if held_from is not None:
            for key, sp in zip(detected, detections):
                if not sp.exact:
                    held_from[key] = i + 1
                    alive.discard(key)
    return untried


def _contradicted(
    pattern: UnitPattern,
    exact_by_pair: dict[int, bool],
    train_pairs: list[TrainPair],
) -> bool:
    if not all(exact_by_pair.values()):
        return True  # a partial applied without error and missed the output
    for idx, pair in enumerate(train_pairs):
        if idx in exact_by_pair:
            continue
        try:
            result = apply_pattern(pattern, pair.scene)
        except (PatternApplicationError, PatternContractError):
            continue  # inapplicable is not a contradiction
        if not grids_equal(result, pair.output):
            return True
    return False
