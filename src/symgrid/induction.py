"""Object matching, per-pair pattern detection, and cross-pair intersection.

Objects in an input/output scene pair are matched greedily: retained,
removed or added. Candidate unit patterns come from a
pluggable proposer: every train pair's candidates are collected first,
each distinct value key (``patterns.pattern_key``) numbered once in the
task's ``CandidateTable``, then each one is applied at most once to a
pair input, and only while the number of pairs that propose it can still
carry it to the confidence threshold, while the pair's differing cells
leave it a chance to match (``TrainPair.verdict``), if its result can
have the output's dims (``patterns.RESULT_DIMS``), and, once it has been
kept as partial or that verdict shows it cannot be exact, only if no
exact rule survives. A candidate becomes a (validated) UnitPattern only
there, so the many that are never verified are never built. Each
candidate's verdicts, one record by its number, are intersected across
pairs into a confidence-ranked rule set with rendered hint sentences.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter, ne
from typing import Iterable, Protocol

from .errors import PatternApplicationError, PatternContractError
from .grid import Grid, grids_equal, pixel_distance
from .patterns import (
    GROWS,
    RESULT_DIMS,
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
from .perception import GridObject, Perception, lazy

log = logging.getLogger(__name__)


# The greedy passes' features, in priority order.
_MATCH_FEATURES = (
    attrgetter("mask", "color"),
    attrgetter("shape", "color"),
    attrgetter("shape"),
)


def match_objects(
    pin: Perception, pout: Perception
) -> tuple[list[tuple[GridObject, GridObject]], list[GridObject], list[GridObject]]:
    """Greedy object correspondence between two perceptions.

    Matching passes, in priority order: identical mask and color; same
    shape translated with the same color; same shape with a different
    color. Each object matches at most once; leftovers are removed
    (input side) or added (output side). Deterministic given scan-order
    ids: in each pass an input object, in id order, takes the first
    unmatched output object in id order with its feature, which is the
    head of that feature's queue.

    Returns the retained (input, output) object pairs in input id order,
    then the removed input objects and the added output objects, each in
    id order.
    """
    unmatched_in = list(pin.objects)
    unmatched_out = {o.id: o for o in pout.objects}
    retained: list[tuple[GridObject, GridObject]] = []
    for feature in _MATCH_FEATURES:
        queues: dict[object, deque[GridObject]] = {}
        for o in unmatched_out.values():
            queues.setdefault(feature(o), deque()).append(o)
        still_in = []
        for obj in unmatched_in:
            queue = queues.get(feature(obj))
            if queue:
                hit = queue.popleft()
                retained.append((obj, hit))
                del unmatched_out[hit.id]
            else:
                still_in.append(obj)
        unmatched_in = still_in
    retained.sort(key=lambda pair: pair[0].id)
    return retained, unmatched_in, list(unmatched_out.values())


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
    order), with one hint sentence per pattern, and the connectivity their
    train pairs were perceived at, which ``apply_ruleset`` perceives at."""

    patterns: tuple[ScoredPattern, ...]
    hints: tuple[str, ...]
    connectivity: int


class Proposer(Protocol):
    """Source of candidate patterns for one train pair.

    ``propose`` gets the ``TrainPair``. It may yield value keys
    (``patterns.pattern_key``) or serialized pattern lines, and verifies
    nothing: ``collect_candidates`` numbers them, parsing the lines, and
    stops after ``budget`` distinct candidates. Where the pair's
    ``same_dims_reachable`` is False, a proposer may leave out the
    candidates whose result keeps the input's dims, but only at the end
    of its list, so that what it does yield keeps its position.
    """

    def propose(self, pair: TrainPair, budget: int) -> Iterable[PatternKey | str]: ...


class CandidateTable:
    """One task's candidates, numbered once each in the order first
    proposed: candidate ``i`` has the value key ``keys[i]`` and the pattern
    ``patterns[i]``, as parsed from a line, or None until ``pattern``
    builds it. ``ids`` maps a key to its number, and ``lines`` each line
    seen to its candidate's number, or a malformed line to its error text.
    """

    __slots__ = ("keys", "patterns", "ids", "lines")

    def __init__(self) -> None:
        self.keys: list[PatternKey] = []
        self.patterns: list[UnitPattern | None] = []
        self.ids: dict[PatternKey, int] = {}
        self.lines: dict[str, int | str] = {}

    def number(self, key: PatternKey, pattern: UnitPattern | None = None) -> int:
        """``key``'s number, the next one when it is new."""
        cid = self.ids.setdefault(key, len(self.keys))
        if cid == len(self.keys):
            self.keys.append(key)
            self.patterns.append(pattern)
        return cid

    def pattern(self, cid: int) -> UnitPattern:
        """Candidate ``cid``'s pattern, built (and so validated) on first
        use: a key that names no valid pattern raises PatternContractError."""
        pattern = self.patterns[cid]
        if pattern is None:
            pattern = self.patterns[cid] = build_pattern(self.keys[cid])
        return pattern


def collect_candidates(
    pair: TrainPair, proposer: Proposer, budget: int, table: CandidateTable
) -> list[int]:
    """The numbers in ``table`` of one pair's first ``budget`` distinct
    candidates, in proposer order.

    Lines are parsed, malformed ones dropped with a warning, and
    duplicates skipped. A line found in ``table.lines`` is not parsed
    again, and a malformed one still warns at every occurrence. Nothing
    is built or applied.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    lines = table.lines
    ids: dict[int, None] = {}
    for item in proposer.propose(pair, budget):
        if isinstance(item, str):
            cid = lines.get(item)
            if cid is None:
                try:
                    pattern = parse_pattern(item)
                except PatternContractError as e:
                    # The text, not the exception: its traceback would hold
                    # this frame, and so the table, in a reference cycle.
                    cid = str(e)
                else:
                    cid = table.number(pattern_key(pattern), pattern)
                lines[item] = cid
            if isinstance(cid, str):
                log.warning("dropping malformed pattern line %r: %s", item, cid)
                continue
        else:
            cid = table.number(item)
        if cid in ids:
            continue
        if len(ids) == budget:
            break
        ids[cid] = None
    return list(ids)


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

    ``same_dims_reachable`` says whether a candidate whose result keeps
    the input's dims can still reach the support that ``induce`` needs:
    such a candidate can be kept only on the pairs whose shapes match.
    It is True here; ``induce`` sets it for its pairs, and a proposer may
    then leave out every such candidate where it is False.
    """

    def __init__(self, scene: Scene, output: Grid) -> None:
        self.scene = scene
        self.output = output
        self.same_dims_reachable = True
        # The candidate numbers ``detect_unit_patterns`` applied here without
        # error and dropped: their results are not the output.
        self.missed: set[int] = set()
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

    @lazy
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
    pair: TrainPair, table: CandidateTable, ids: list[int]
) -> dict[int, bool]:
    """Verify the candidates ``ids`` of ``table`` on one pair, each built
    (``CandidateTable.pattern``) and applied at most once, in list order;
    returns the kept ones' verdicts by number: exact matches True, strict
    reductions of pixel distance (partial) False, everything else dropped
    (the number of one that applied without error into ``pair.missed``).

    A candidate whose kind never adds cells of a color (``GROWS``,
    except perhaps the background) is dropped without being built or
    applied when the color counts show it can be neither exact nor
    partial: its class's verdict, ``TrainPair.by_class``, is ``_DROP``.
    A candidate whose result dims (``RESULT_DIMS``, read off its
    parameter values and the input's dims) differ from the output's is
    dropped once built, unapplied: ``pixel_distance`` scores a result of
    another shape above any baseline, so it could only be dropped. A key
    that names no valid pattern still raises when it is built.
    """
    scene, gout = pair.scene, pair.output
    baseline = pair.distance
    height, width = scene.grid.dims
    out_dims = gout.dims
    keys = table.keys
    found: dict[int, bool] = {}
    for cid in ids:
        key = keys[cid]
        grows = GROWS.get(key[0], "any")
        if grows != "any" and pair.by_class(grows) is _DROP:
            continue
        pattern = table.pattern(cid)
        dims = RESULT_DIMS[key[0]]
        if dims is not None and dims(key[1], height, width) != out_dims:
            continue
        try:
            result = apply_pattern(pattern, scene)
        except PatternApplicationError:
            continue
        if grids_equal(result, gout):
            found[cid] = True
        elif pixel_distance(result, gout) < baseline:
            found[cid] = False
        else:
            pair.missed.add(cid)
    return found


def _need(n: int, threshold: float) -> int:
    """The least support m that passes ``m / n + 1e-9 >= threshold`` over
    ``n`` pairs; n + 1 when none up to n does (a threshold above 1, NaN)."""
    return next((m for m in range(n + 1) if m / n + 1e-9 >= threshold), n + 1)


def intersect_patterns(
    table: CandidateTable,
    flags: dict[int, dict[int, bool]],
    train_pairs: list[TrainPair],
    threshold: float = 1.0,
) -> RuleSet:
    """Intersect per-candidate verdicts into a ranked rule set.

    ``flags[cid]`` maps the index in ``train_pairs`` of each pair where
    ``detect_unit_patterns`` kept candidate ``cid`` of ``table`` to whether
    it was exact there; the candidate's support is the number of those
    pairs. A candidate whose support is below ``_need`` is dropped, as is
    any pattern that was proposed exact somewhere but runs without error
    on some train pair and yields the wrong output. A partial flag says
    exactly that; only pairs without a verdict on the pattern (possible
    below threshold 1.0) are checked, the patterns in canonical order. A
    pair where verification applied it without error and dropped it
    (``TrainPair.missed``) contradicts it unapplied; the others have it
    applied here. ``induce`` leaves out of pair k's verdicts the
    candidates that could no longer reach ``_need``; this test drops them
    either way.
    Partial patterns are kept only as a backstop: once any exact pattern
    survives, the partials are pruned so they cannot outvote a rule that
    reproduces every training output, which ``induce``'s held-back
    candidates rely on.
    """
    n = len(train_pairs)
    if not n:
        raise ValueError("intersect_patterns: no train pairs")
    need = _need(n, threshold)
    ranked = [cid for cid, by_pair in flags.items() if len(by_pair) >= need]
    ranked.sort(key=lambda cid: canonical_key(table.pattern(cid)))  # distinct candidates never tie
    survivors: list[ScoredPattern] = []
    for cid in ranked:
        by_pair = flags[cid]
        exact = all(by_pair.values())
        # A partial flag: the pattern applied without error and missed the output.
        if any(by_pair.values()) and (not exact or _contradicted(table, cid, by_pair, train_pairs)):
            continue
        survivors.append(ScoredPattern(table.pattern(cid), len(by_pair), len(by_pair) / n, exact))

    if any(sp.exact for sp in survivors):
        survivors = [sp for sp in survivors if sp.exact]
    survivors.sort(key=lambda sp: (-sp.confidence, not sp.exact))  # stable: ties stay canonical
    return RuleSet(
        patterns=tuple(survivors),
        hints=tuple(synthesize_hint(sp.pattern) for sp in survivors),
        connectivity=train_pairs[0].scene.connectivity,
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
    Every pair's candidates are collected first, in pair order, into one
    ``CandidateTable`` for this call, so each distinct key is numbered
    once and each distinct line parsed once, and every later stage works
    on the numbers: each candidate's verdicts are one record,
    ``flags[cid]`` (pair index to exactness), that both verification
    rounds fill in and ``intersect_patterns`` reads. The pairs are then
    verified from the smallest input (fewest cells) up, ties in pair
    order. A candidate is applied on a pair only if it
    is in that pair's list, so its support can never exceed its support
    on the pairs verified so far plus the pairs still to verify whose
    lists hold it. Each pair verifies only the candidates for which that
    bound reaches ``_need``, the support ``intersect_patterns`` requires;
    the others would be dropped below threshold anyway, so the rule set is
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

    A candidate whose result keeps the input's dims can be kept only on
    the pairs whose shapes match, so when fewer than ``_need`` of them
    do, no such candidate can become a rule: every pair's
    ``same_dims_reachable`` is set False before collection, and the
    search leaves those candidates out (``search._proposals``).
    """
    pairs = [TrainPair(Scene(gin, connectivity), gout) for gin, gout in task.train]
    n = len(pairs)
    need = _need(n, threshold)
    if sum(p.held is not None for p in pairs) < need:
        for p in pairs:
            p.same_dims_reachable = False
    table = CandidateTable()
    lists = [collect_candidates(p, proposer, budget, table) for p in pairs]
    cells = [p.scene.grid.height * p.scene.grid.width for p in pairs]
    order = sorted(range(n), key=cells.__getitem__)  # stable: ties keep pair order
    flags: dict[int, dict[int, bool]] = {}
    # The first position in ``order`` a candidate skips; one kept as partial
    # on the last pair skips from n, no pair. n + 1: never held back.
    held_from = [n + 1] * len(table.keys)
    untried = _verify(pairs, order, table, lists, flags, need, held_from)
    first = {c: by_pair for c, by_pair in flags.items() if c not in untried}
    rules = intersect_patterns(table, first, pairs, threshold)
    if any(sp.exact for sp in rules.patterns):
        return rules
    held: list[list[int]] = [[] for _ in pairs]
    for i, k in enumerate(order):
        held[k] = [cid for cid in lists[k] if held_from[cid] <= i]
    if not any(held):  # so nothing is untried, and ``rules`` saw every verdict
        return rules
    _verify(pairs, order, table, held, flags, need, None)
    # The candidates never held back have the same verdicts as above, so
    # they die again; leaving them out spares their contradiction checks.
    final = {c: by_pair for c, by_pair in flags.items() if held_from[c] <= n}
    return intersect_patterns(table, final, pairs, threshold)


def _verify(
    pairs: list[TrainPair],
    order: list[int],
    table: CandidateTable,
    lists: list[list[int]],
    flags: dict[int, dict[int, bool]],
    need: int,
    held_from: list[int] | None,
) -> set[int]:
    """Verify the candidates ``lists[k]`` of ``table`` on ``pairs[k]`` for
    k in ``order``, under ``induce``'s reachability bound, recording each
    kept candidate's verdict on pair k as ``flags[cid][k]``.
    Given ``held_from``, a candidate kept as partial there is skipped from
    the next position in ``order`` on, and one whose ``pairs[k].verdict``
    is ``_HOLD`` is skipped from that position on, unapplied (and unbuilt,
    so a key that names no valid pattern raises only if it is verified
    later); the position is recorded, and the candidates skipped
    unapplied are returned.

    The bound is kept in integers, against ``induce``'s ``need``.
    ``count[cid]`` is the candidate's support (the pairs in ``flags[cid]``)
    plus the pairs not yet verified whose lists hold it; ``alive[cid]``
    says whether that count reaches ``need`` and the candidate is not held
    back (it is read only for candidates in ``lists``). A count falls only
    when a pair that applied the candidate did not keep it, and never
    rises, so a candidate that leaves ``alive`` never returns.
    """
    count = [len(flags.get(cid, ())) for cid in range(len(table.keys))]
    for cid in chain.from_iterable(lists):
        count[cid] += 1
    alive = [c >= need for c in count]
    untried: set[int] = set()
    for i, k in enumerate(order):
        pair = pairs[k]
        reachable = list(compress(lists[k], map(alive.__getitem__, lists[k])))
        if held_from is not None and pair.held:
            for cid in reachable:
                if pair.verdict(table.keys[cid]) is _HOLD:
                    held_from[cid] = i
                    alive[cid] = False
                    untried.add(cid)
            reachable = [cid for cid in reachable if alive[cid]]
        if not reachable:
            continue
        found = detect_unit_patterns(pair, table, reachable)
        for cid in reachable:
            exact = found.get(cid)
            if exact is None:
                count[cid] -= 1
                if count[cid] < need:
                    alive[cid] = False
            else:
                flags.setdefault(cid, {})[k] = exact
                if held_from is not None and not exact:
                    held_from[cid] = i + 1
                    alive[cid] = False
    return untried


def _contradicted(
    table: CandidateTable, cid: int, by_pair: dict[int, bool], train_pairs: list[TrainPair]
) -> bool:
    """Whether candidate ``cid`` of ``table`` runs without error on a pair
    it has no verdict on and misses that pair's output; not applied again
    where verification already saw it do so (``TrainPair.missed``)."""
    pattern = table.pattern(cid)
    for idx, pair in enumerate(train_pairs):
        if idx in by_pair:
            continue
        if cid in pair.missed:
            return True
        try:
            result = apply_pattern(pattern, pair.scene)
        except PatternApplicationError:
            continue  # inapplicable is not a contradiction
        if not grids_equal(result, pair.output):
            return True
    return False
