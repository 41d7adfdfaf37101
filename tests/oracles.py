"""Independent reference implementations used to check the engine.

These deliberately use different algorithms from the package: union-find
instead of a flood fill for segmentation and for labelling cavities, and
explicit 0..9 scans for voting. They must
stay free of package internals beyond public value types.

The exception is the references kept for fast paths (``fraction_vote``,
``str_encode_markdown``, ``bfs_segment``, ``reference_pattern``,
``genexpr_pixel_distance``, ``render_reference``, ``scan_match_objects``,
``reference_detect_unit_patterns``, ``reference_induce``, the
per-pair dict pipeline (``dict_collect_candidates``,
``dict_detect_unit_patterns``, ``dict_intersect_patterns``,
``dict_induce``),
``two_flood_cavity_regions``, ``cell_scale_down``,
``cell_crop_to_content``, ``whole_text_transcript``): each is the
code a fast path replaced, kept so differential tests can require the
same results from both.
"""

import json
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, compress
from pathlib import Path

from symgrid import (
    Grid,
    RuleSet,
    ScoredPattern,
    Scene,
    TrainPair,
    background_color,
    build_pattern,
    grids_equal,
    parse_pattern,
    patterns,
    pattern_key,
    pixel_distance,
)
from symgrid.errors import BackendError, PatternApplicationError, PatternContractError
from symgrid.induction import _DROP, _HOLD, log
from symgrid.patterns import (
    _KINDS,
    AXES,
    DIRECTIONS,
    SELECT_ALL,
    _bbox_border,
    _gravity_order,
    canonical_key,
    synthesize_hint,
)
from symgrid.perception import GridObject, Perception


class DisjointSet:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def background_oracle(rows):
    """Histogram scan: most frequent color, lowest value on ties."""
    counts = {}
    for row in rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    best_color, best_count = None, -1
    for color in range(10):
        n = counts.get(color, 0)
        if n > best_count:
            best_color, best_count = color, n
    return best_color


def segmentation_oracle(rows, background, connectivity=4):
    """Union-find partition of non-background cells into color components.

    Returns a set of (color, frozenset_of_cells) pairs.
    """
    h, w = len(rows), len(rows[0])
    offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if connectivity == 8:
        offsets += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    dsu = DisjointSet()
    for r in range(h):
        for c in range(w):
            if rows[r][c] == background:
                continue
            dsu.find((r, c))
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and rows[nr][nc] == rows[r][c]:
                    if rows[nr][nc] != background:
                        dsu.union((r, c), (nr, nc))
    groups = {}
    for r in range(h):
        for c in range(w):
            if rows[r][c] != background:
                groups.setdefault(dsu.find((r, c)), []).append((r, c))
    return {
        (rows[cells[0][0]][cells[0][1]], frozenset(cells))
        for cells in groups.values()
    }


def cavity_oracle(mask, bbox):
    """Label every complement region inside bbox, then count the regions
    that never touch the bbox border."""
    top, left, bottom, right = bbox
    dsu = DisjointSet()
    complement = [
        (r, c)
        for r in range(top, bottom + 1)
        for c in range(left, right + 1)
        if (r, c) not in mask
    ]
    comp_set = set(complement)
    for r, c in complement:
        for nr, nc in ((r + 1, c), (r, c + 1)):
            if (nr, nc) in comp_set and top <= nr <= bottom and left <= nc <= right:
                dsu.union((r, c), (nr, nc))
    regions = {}
    for cell in complement:
        regions.setdefault(dsu.find(cell), []).append(cell)
    cavities = 0
    for cells in regions.values():
        touches = any(
            r in (top, bottom) or c in (left, right) for r, c in cells
        )
        if not touches:
            cavities += 1
    return cavities


def vote_oracle(candidates):
    """Brute-force weighted histogram vote; mirrors the published tie rules.

    candidates: sequence of (rows, weight). Returns the winning rows as a
    list of lists.
    """
    dims_weight = {}
    for rows, weight in candidates:
        d = (len(rows), len(rows[0]))
        dims_weight[d] = dims_weight.get(d, Fraction(0)) + Fraction(weight)
    top = max(dims_weight.values())
    tied = [d for d, wt in dims_weight.items() if wt == top]
    win = None
    for rows, _ in candidates:
        d = (len(rows), len(rows[0]))
        if d in tied:
            win = d
            break
    voters = [
        (rows, Fraction(weight))
        for rows, weight in candidates
        if (len(rows), len(rows[0])) == win
    ]
    h, w = win
    out = []
    for r in range(h):
        out_row = []
        for c in range(w):
            totals = [Fraction(0)] * 10
            for rows, weight in voters:
                totals[rows[r][c]] += weight
            best = max(totals)
            tied_colors = {color for color in range(10) if totals[color] == best}
            for rows, _ in voters:
                if rows[r][c] in tied_colors:
                    out_row.append(rows[r][c])
                    break
        out.append(out_row)
    return out


def fraction_vote(cands):
    """The solver's per-pixel vote in ``Fraction`` arithmetic.

    This is ``solver._vote`` as it was before it counted in integers, kept
    as the reference for that fast path. The one change: the result goes
    through the validating ``Grid(...)`` instead of ``Grid._trusted``.
    Returns (grid, ties, dims_excluded).
    """
    if not cands:
        raise ValueError("no candidates to vote on")
    weights = [Fraction(c.weight) for c in cands]

    dim_weight = {}
    for cand, w in zip(cands, weights):
        dim_weight[cand.grid.dims] = dim_weight.get(cand.grid.dims, Fraction(0)) + w
    best = max(dim_weight.values())
    tied_dims = {d for d, w in dim_weight.items() if w == best}
    win = next(c.grid.dims for c in cands if c.grid.dims in tied_dims)
    voters = [(c, w) for c, w in zip(cands, weights) if c.grid.dims == win]
    excluded = len(cands) - len(voters)

    h, w = win
    ties = 0
    rows = []
    for r in range(h):
        row = []
        for c in range(w):
            tally = {}
            for cand, weight in voters:
                color = cand.grid.rows[r][c]
                tally[color] = tally.get(color, Fraction(0)) + weight
            top = max(tally.values())
            tied = {color for color, wt in tally.items() if wt == top}
            if len(tied) > 1:
                ties += 1
                winner = next(
                    cand.grid.rows[r][c]
                    for cand, _ in voters
                    if cand.grid.rows[r][c] in tied
                )
            else:
                winner = tied.pop()
            row.append(winner)
        rows.append(tuple(row))
    return Grid(tuple(rows)), ties, excluded


def str_encode_markdown(g):
    """``grid.encode_markdown`` one cell at a time, with ``str(v)`` per
    cell: the reference for the byte encoder, which translates all rows
    at once and writes them between the `|` of one buffer."""
    return "\n".join("|" + "|".join(str(v) for v in row) + "|" for row in g.rows)


def genexpr_pixel_distance(a, b):
    """``grid.pixel_distance`` as it was before it skipped equal rows, with
    one generator step per cell: the reference for that fast path."""
    if a.dims != b.dims:
        return b.height * b.width + 1
    return sum(
        1 for ra, rb in zip(a.rows, b.rows) for va, vb in zip(ra, rb) if va != vb
    )


_BFS_NEIGHBORS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_BFS_NEIGHBORS_8 = _BFS_NEIGHBORS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def two_flood_cavity_regions(mask, bbox):
    """``perception.cavity_regions`` as it was before the one-pass
    labelling: a flood from every bbox border cell off the mask marks the
    outside, then a second flood groups the cells it never reached into
    regions, in row-major order of their first cell. Kept as the
    reference for that fast path."""
    top, left, bottom, right = bbox
    outside = set()
    queue = deque()
    for r in range(top, bottom + 1):
        for c in (left, right):
            if (r, c) not in mask and (r, c) not in outside:
                outside.add((r, c))
                queue.append((r, c))
    for c in range(left, right + 1):
        for r in (top, bottom):
            if (r, c) not in mask and (r, c) not in outside:
                outside.add((r, c))
                queue.append((r, c))
    while queue:
        r, c = queue.popleft()
        for dr, dc in _BFS_NEIGHBORS_4:
            nr, nc = r + dr, c + dc
            if top <= nr <= bottom and left <= nc <= right:
                if (nr, nc) not in mask and (nr, nc) not in outside:
                    outside.add((nr, nc))
                    queue.append((nr, nc))

    regions = []
    seen = set()
    for r in range(top, bottom + 1):
        for c in range(left, right + 1):
            if (r, c) in mask or (r, c) in outside or (r, c) in seen:
                continue
            cells = [(r, c)]
            seen.add((r, c))
            queue.append((r, c))
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in _BFS_NEIGHBORS_4:
                    nr, nc = cr + dr, cc + dc
                    if top <= nr <= bottom and left <= nc <= right:
                        if (
                            (nr, nc) not in mask
                            and (nr, nc) not in outside
                            and (nr, nc) not in seen
                        ):
                            seen.add((nr, nc))
                            cells.append((nr, nc))
                            queue.append((nr, nc))
            regions.append(frozenset(cells))
    return regions


def _bbox_of(cells):
    rs = [r for r, _ in cells]
    cs = [c for _, c in cells]
    return (min(rs), min(cs), max(rs), max(cs))


def bfs_segment(g, connectivity=4):
    """``perception.segment`` as it was before the flat-index flood fill:
    a breadth-first fill over (row, column) pairs with a visited matrix,
    and the cavity flood run for every object. Kept as the reference for
    that fast path; only the names it imports are qualified."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    offsets = _BFS_NEIGHBORS_4 if connectivity == 4 else _BFS_NEIGHBORS_8
    bg = background_color(g)
    h, w = g.height, g.width
    visited = [[False] * w for _ in range(h)]
    objects = []
    queue = deque()
    for r in range(h):
        for c in range(w):
            if visited[r][c] or g.rows[r][c] == bg:
                continue
            color = g.rows[r][c]
            cells = [(r, c)]
            visited[r][c] = True
            queue.append((r, c))
            while queue:
                cr, cc = queue.popleft()
                for dr, dc in offsets:
                    nr, nc = cr + dr, cc + dc
                    if 0 <= nr < h and 0 <= nc < w and not visited[nr][nc]:
                        if g.rows[nr][nc] == color:
                            visited[nr][nc] = True
                            cells.append((nr, nc))
                            queue.append((nr, nc))
            mask = frozenset(cells)
            bbox = _bbox_of(cells)
            objects.append(
                GridObject(
                    id=len(objects),
                    color=color,
                    mask=mask,
                    bbox=bbox,
                    cavity_count=len(two_flood_cavity_regions(mask, bbox)),
                )
            )
    return Perception(objects=tuple(objects), background=bg)


def _reference_validate_param(kind, name, tag, value):
    where = f"{kind}: parameter {name}"
    if tag == "int":
        if not _is_int(value):
            raise PatternContractError(f"{where} must be an integer, got {value!r}")
    elif tag == "positive":
        if not _is_int(value) or value < 1:
            raise PatternContractError(f"{where} must be a positive integer")
    elif tag == "color":
        if not _is_int(value) or not 0 <= value <= 9:
            raise PatternContractError(f"{where} must be a color 0..9, got {value!r}")
    elif tag == "factor":
        if not _is_int(value) or value < 2:
            raise PatternContractError(f"{where} must be an integer >= 2")
    elif tag == "axis":
        if value not in AXES:
            raise PatternContractError(f"{where} must be one of {AXES}")
    elif tag == "direction":
        if value not in DIRECTIONS:
            raise PatternContractError(f"{where} must be one of {DIRECTIONS}")
    elif tag == "colormap":
        if (
            not isinstance(value, tuple)
            or not value
            or not all(
                isinstance(p, tuple)
                and len(p) == 2
                and all(_is_int(v) and 0 <= v <= 9 for v in p)
                for p in value
            )
        ):
            raise PatternContractError(f"{where} must be a tuple of color pairs")
        srcs = [s for s, _ in value]
        if len(set(srcs)) != len(srcs):
            raise PatternContractError(f"{where} maps a source color twice")
        if tuple(sorted(value)) != value:
            raise PatternContractError(f"{where} pairs must be sorted by source")
    else:
        raise AssertionError(tag)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def reference_pattern_check(kind, params, selector=SELECT_ALL):
    """``UnitPattern.__post_init__`` as it was before validation took one
    pass: names compared as tuples, then each value through the tag chain.
    Raises the PatternContractError the pattern must raise, else None."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise PatternContractError(f"unknown pattern kind {kind!r}")
    sig = spec.signature
    expected = tuple(name for name, _ in sig)
    got = tuple(name for name, _ in params)
    if got != expected:
        raise PatternContractError(f"{kind}: expected parameters {expected}, got {got}")
    for (name, tag), (_, value) in zip(sig, params):
        _reference_validate_param(kind, name, tag, value)
    if not spec.takes_selector and selector != SELECT_ALL:
        raise PatternContractError(f"{kind} is a whole-grid kind; selector must be 'all'")


def reference_pattern(kind, selector=SELECT_ALL, **params):
    """``make_pattern`` as it was before validation took one pass. Returns
    the ``(kind, params, selector)`` fields of the pattern it would build,
    or raises the PatternContractError it must raise."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise PatternContractError(f"unknown pattern kind {kind!r}")
    sig = spec.signature
    missing = [name for name, _ in sig if name not in params]
    extra = [name for name in params if name not in {n for n, _ in sig}]
    if missing or extra:
        raise PatternContractError(f"{kind}: missing={missing} unexpected={extra}")
    ordered = tuple((name, params[name]) for name, _ in sig)
    reference_pattern_check(kind, ordered, selector)
    return kind, ordered, selector


def _render(g, bg, layers):
    """Paint ``layers`` in order onto a background canvas of ``g``'s size."""
    h, w = g.height, g.width
    canvas = [[bg] * w for _ in range(h)]
    for cells, color in layers:
        for r, c in cells:
            if 0 <= r < h and 0 <= c < w:
                canvas[r][c] = color
    return Grid(tuple(tuple(row) for row in canvas))


def _over_objects(g, perception, extra):
    """Every object as perceived, then ``extra`` painted over them."""
    layers = [(obj.mask, obj.color) for obj in perception.objects]
    return _render(g, perception.background, layers + extra)


def _shift(mask, dr, dc):
    return {(r + dr, c + dc) for r, c in mask}


def _render_translate(p, s):
    perception = s.perception
    selected_ids = {o.id for o in p.selector.resolve(perception)}
    dx, dy = p["dx"], p["dy"]
    layers = [
        (_shift(obj.mask, dy, dx) if obj.id in selected_ids else obj.mask, obj.color)
        for obj in perception.objects
    ]
    return _render(s.grid, perception.background, layers)


def _render_delete_object(p, s):
    perception = s.perception
    selected_ids = {o.id for o in p.selector.resolve(perception)}
    layers = [
        (obj.mask, obj.color)
        for obj in perception.objects
        if obj.id not in selected_ids
    ]
    return _render(s.grid, perception.background, layers)


def _render_duplicate_object(p, s):
    perception = s.perception
    dx, dy = p["dx"], p["dy"]
    copies = [(_shift(o.mask, dy, dx), o.color) for o in p.selector.resolve(perception)]
    return _over_objects(s.grid, perception, copies)


def _render_cavity_fill(p, s):
    perception = s.perception
    color = p["color"]
    fills = [
        (region, color)
        for o in p.selector.resolve(perception)
        for region in two_flood_cavity_regions(o.mask, o.bbox)
    ]
    return _over_objects(s.grid, perception, fills)


_GRAVITY_DELTAS = {"up": (-1, 0), "down": (1, 0), "left": (0, -1), "right": (0, 1)}


def _render_gravity_shift(p, s):
    g, perception = s.grid, s.perception
    selected = p.selector.resolve(perception)
    direction = p["dir"]
    h, w = g.height, g.width
    dr, dc = _GRAVITY_DELTAS[direction]
    selected_ids = {o.id for o in selected}
    occupied = set()
    for obj in perception.objects:
        if obj.id not in selected_ids:
            occupied |= obj.mask
    placed = {}
    for obj in _gravity_order(selected, direction):
        steps = 0
        while True:
            trial = _shift(obj.mask, dr * (steps + 1), dc * (steps + 1))
            if any(not (0 <= r < h and 0 <= c < w) for r, c in trial):
                break
            if trial & occupied:
                break
            steps += 1
        final = _shift(obj.mask, dr * steps, dc * steps)
        placed[obj.id] = final
        occupied |= final
    layers = []
    for obj in perception.objects:
        cells = placed.get(obj.id, obj.mask)
        layers.append((cells, obj.color))
    return _render(g, perception.background, layers)


def _render_draw_bbox_border(p, s):
    perception = s.perception
    color = p["color"]
    borders = [(_bbox_border(o), color) for o in p.selector.resolve(perception)]
    return _over_objects(s.grid, perception, borders)


def _render_connect_objects(p, s):
    g, perception = s.grid, s.perception
    bg = perception.background
    h, w = g.height, g.width
    owner = {}
    for obj in p.selector.resolve(perception):
        for cell in obj.mask:
            owner[cell] = obj.id
    fills = set()
    for r in range(h):
        cols = [c for c in range(w) if (r, c) in owner]
        for a, b in zip(cols, cols[1:]):
            if owner[(r, a)] != owner[(r, b)] and b - a > 1:
                gap = [(r, c) for c in range(a + 1, b)]
                if all(g.rows[gr][gc] == bg for gr, gc in gap):
                    fills.update(gap)
    for c in range(w):
        rows_ = [r for r in range(h) if (r, c) in owner]
        for a, b in zip(rows_, rows_[1:]):
            if owner[(a, c)] != owner[(b, c)] and b - a > 1:
                gap = [(r, c) for r in range(a + 1, b)]
                if all(g.rows[gr][gc] == bg for gr, gc in gap):
                    fills.update(gap)
    return _over_objects(g, perception, [(fills, p["color"])])


_RENDER_KINDS = {
    "translate": _render_translate,
    "delete_object": _render_delete_object,
    "duplicate_object": _render_duplicate_object,
    "cavity_fill": _render_cavity_fill,
    "gravity_shift": _render_gravity_shift,
    "draw_bbox_border": _render_draw_bbox_border,
    "connect_objects": _render_connect_objects,
}
RENDER_KINDS = tuple(_RENDER_KINDS)


def render_reference(p, scene):
    """``apply_pattern`` for the seven object kinds that draw a grid, as it
    was before they painted over the input grid: every object re-rendered
    in id order onto a background canvas by ``_render``. Kept as the
    reference for that fast path; ``_gravity_order``, ``_bbox_border``
    and the selectors are unchanged and shared."""
    return _RENDER_KINDS[p.kind](p, scene)


def scan_match_objects(pin, pout):
    """``induction.match_objects`` as it was before it indexed the output
    objects by feature: each greedy pass scans every unmatched input x
    output pair through a predicate. Returns (tag, input_id, output_id)
    triples."""
    unmatched_in = list(pin.objects)
    unmatched_out = list(pout.objects)
    pairs = []

    def run_pass(predicate):
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

    tags = [("retained", i, o) for i, o in sorted(pairs)]
    tags.extend(("removed", o.id, None) for o in unmatched_in)
    tags.extend(("added", None, o.id) for o in unmatched_out)
    return tags


def reference_detect_unit_patterns(pair, candidates):
    """``induction.detect_unit_patterns`` as it was before the color-count
    bound: every candidate is built and applied on the TrainPair ``pair``.
    It applies through the ``patterns`` module attribute, so the
    ``apply_calls`` fixture sees its applications."""
    scene, gout = pair.scene, pair.output
    baseline = pixel_distance(scene.grid, gout)
    out = []
    for key, pattern in candidates.items():
        if pattern is None:
            pattern = build_pattern(key)
        try:
            result = patterns.apply_pattern(pattern, scene)
        except (PatternApplicationError, PatternContractError):
            continue
        if grids_equal(result, gout):
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=True))
        elif pixel_distance(result, gout) < baseline:
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=False))
    return out


def reference_induce(task, proposer, threshold=1.0, budget=2000, connectivity=4):
    """``induction.induce`` as it was before it held back partial
    candidates, verifying through ``reference_detect_unit_patterns``:
    each pair, from the smallest input up, applies every candidate whose
    support so far plus the later pairs proposing it can still reach the
    threshold, and the verdicts are intersected once."""
    pairs = [TrainPair(Scene(gin, connectivity), gout) for gin, gout in task.train]
    n = len(pairs)
    collected = [dict_collect_candidates(p, proposer, budget) for p in pairs]
    support = Counter()
    proposed = Counter(key for candidates in collected for key in candidates)
    per_pair = [[] for _ in pairs]
    cells = [p.scene.grid.height * p.scene.grid.width for p in pairs]
    for k in sorted(range(n), key=cells.__getitem__):
        candidates = collected[k]
        reachable = {
            key: pattern
            for key, pattern in candidates.items()
            if (support[key] + proposed[key]) / n + 1e-9 >= threshold
        }
        proposed.subtract(candidates.keys())
        detections = reference_detect_unit_patterns(pairs[k], reachable)
        support.update(pattern_key(sp.pattern) for sp in detections)
        per_pair[k] = detections
    return dict_intersect_patterns(per_pair, pairs, threshold)


# The per-pair dict pipeline: ``induction``'s collection, verification and
# intersection as they were before one ``CandidateTable`` per task numbered
# the candidates. Each pair's candidates are a dict from value key to the
# parsed pattern (None for a key), and every stage looks keys up again.
# Applications go through the ``patterns`` module attribute and warnings
# through the ``symgrid.induction`` logger, so the ``apply_calls`` fixture
# and ``caplog`` see both pipelines alike.


def dict_collect_candidates(pair, proposer, budget, memo=None):
    """One pair's first ``budget`` distinct candidates, by value key;
    ``memo`` maps each line already parsed to its pattern and key, or to
    the error text of a malformed line."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if memo is None:
        memo = {}
    candidates = {}
    for item in proposer.propose(pair, budget):
        if isinstance(item, str):
            parsed = memo.get(item)
            if parsed is None:
                try:
                    pattern = parse_pattern(item)
                except PatternContractError as e:
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


def dict_detect_unit_patterns(pair, candidates):
    """Verify a dict of candidates on one pair, dropping unapplied those
    whose ``GROWS`` class the pair's color counts rule out and, once
    built, those whose ``RESULT_DIMS`` are not the output's. The key of
    a candidate dropped after applying without error goes into
    ``pair.missed``."""
    scene, gout = pair.scene, pair.output
    baseline = pair.distance
    out = []
    for key, pattern in candidates.items():
        grows = patterns.GROWS.get(key[0], "any")
        if grows != "any" and pair.by_class(grows) is _DROP:
            continue
        if pattern is None:
            pattern = build_pattern(key)
        dims = patterns.RESULT_DIMS[key[0]]
        if dims is not None and dims(key[1], *scene.grid.dims) != gout.dims:
            continue
        try:
            result = patterns.apply_pattern(pattern, scene)
        except (PatternApplicationError, PatternContractError):
            continue
        if grids_equal(result, gout):
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=True))
        elif pixel_distance(result, gout) < baseline:
            out.append(ScoredPattern(pattern, support=1, confidence=1.0, exact=False))
        else:
            pair.missed.add(key)
    return out


def dict_intersect_patterns(per_pair, train_pairs, threshold=1.0):
    """Intersect per-pair ScoredPattern lists into a ranked rule set."""
    if not per_pair:
        raise ValueError("intersect_patterns: no per-pair lists")
    if len(per_pair) != len(train_pairs):
        raise ValueError("intersect_patterns: per-pair lists do not match pairs")
    n = len(per_pair)
    entries = {}  # key -> (first pattern, {pair index: exact})
    for idx, detections in enumerate(per_pair):
        for sp in detections:
            entry = entries.setdefault(pattern_key(sp.pattern), (sp.pattern, {}))
            entry[1].setdefault(idx, sp.exact)

    survivors = []
    for key in sorted(entries, key=lambda k: canonical_key(entries[k][0])):
        pattern, flags = entries[key]
        support = len(flags)
        confidence = support / n
        if confidence + 1e-9 < threshold:
            continue
        if any(flags.values()) and _dict_contradicted(pattern, flags, train_pairs):
            continue
        survivors.append(
            ScoredPattern(
                pattern=pattern,
                support=support,
                confidence=confidence,
                exact=all(flags.values()),
            )
        )

    if any(sp.exact for sp in survivors):
        survivors = [sp for sp in survivors if sp.exact]
    survivors.sort(key=lambda sp: (-sp.confidence, not sp.exact, canonical_key(sp.pattern)))
    return RuleSet(
        patterns=tuple(survivors),
        hints=tuple(synthesize_hint(sp.pattern) for sp in survivors),
        connectivity=train_pairs[0].scene.connectivity,
    )


def _dict_contradicted(pattern, exact_by_pair, train_pairs):
    """Whether ``pattern`` has a partial flag, or misses the output of a
    pair it has no flag on: as ``pair.missed`` says (filled only by
    ``dict_detect_unit_patterns``), else by applying it there."""
    if not all(exact_by_pair.values()):
        return True
    for idx, pair in enumerate(train_pairs):
        if idx in exact_by_pair:
            continue
        if pattern_key(pattern) in pair.missed:
            return True
        try:
            result = patterns.apply_pattern(pattern, pair.scene)
        except (PatternApplicationError, PatternContractError):
            continue
        if not grids_equal(result, pair.output):
            return True
    return False


def dict_induce(task, proposer, threshold=1.0, budget=2000, connectivity=4):
    """``induction.induce`` on per-pair dicts: one line memo per task, the
    reachability bound on key Counters, and both held-back rounds. Its
    pairs carry ``induce``'s same-dims fact, so that a search-based
    proposer yields the same lists to both pipelines."""
    pairs = [TrainPair(Scene(gin, connectivity), gout) for gin, gout in task.train]
    n = len(pairs)
    kept = sum(gin.dims == gout.dims for gin, gout in task.train)
    if not kept / n + 1e-9 >= threshold:  # the threshold test, NaN failing it
        for pair in pairs:
            pair.same_dims_reachable = False
    memo = {}
    collected = [dict_collect_candidates(p, proposer, budget, memo) for p in pairs]
    cells = [p.scene.grid.height * p.scene.grid.width for p in pairs]
    order = sorted(range(n), key=cells.__getitem__)
    per_pair = [[] for _ in pairs]
    support = Counter()
    held_from = {}
    untried = _dict_verify(pairs, order, collected, support, per_pair, threshold, held_from)
    first = per_pair
    if untried:
        first = [[sp for sp in sps if pattern_key(sp.pattern) not in untried] for sps in per_pair]
    rules = dict_intersect_patterns(first, pairs, threshold)
    if any(sp.exact for sp in rules.patterns):
        return rules
    held = [{} for _ in pairs]
    for i, k in enumerate(order):
        held[k] = {key: p for key, p in collected[k].items() if held_from.get(key, n) <= i}
    if not any(held):
        return rules
    _dict_verify(pairs, order, held, support, per_pair, threshold, None)
    per_pair = [[sp for sp in sps if pattern_key(sp.pattern) in held_from] for sps in per_pair]
    return dict_intersect_patterns(per_pair, pairs, threshold)


def _dict_verify(pairs, order, lists, support, per_pair, threshold, held_from):
    n = len(pairs)
    need = next((m for m in range(n + 1) if m / n + 1e-9 >= threshold), n + 1)
    count = Counter(chain.from_iterable(lists))
    for key, s in support.items():
        if key in count:
            count[key] += s
    alive = {key for key, c in count.items() if c >= need}
    untried = set()
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
        detections = dict_detect_unit_patterns(pair, reachable)
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


def cell_scale_down(p, scene):
    """``scale_down`` as it was before it compared whole rows: every block
    gathered cell by cell into a set. Kept as the reference for that fast
    path."""
    g, factor = scene.grid, p["factor"]
    h, w = g.height, g.width
    if h % factor or w % factor:
        raise PatternApplicationError(
            f"scale_down({factor}): dimensions {h}x{w} not divisible"
        )
    rows = []
    for br in range(h // factor):
        out_row = []
        for bc in range(w // factor):
            block = {
                g.rows[br * factor + i][bc * factor + j]
                for i in range(factor)
                for j in range(factor)
            }
            if len(block) != 1:
                raise PatternApplicationError(
                    f"scale_down({factor}): block ({br},{bc}) is not uniform"
                )
            out_row.append(block.pop())
        rows.append(tuple(out_row))
    return Grid(tuple(rows))


def cell_crop_to_content(p, scene):
    """``crop_to_content`` as it was before it took its box from the blank
    rows and columns: every non-background cell listed. Kept as the
    reference for that fast path."""
    g, bg = scene.grid, scene.background
    cells = [(r, c) for r in range(g.height) for c in range(g.width) if g.rows[r][c] != bg]
    if not cells:
        raise PatternApplicationError("crop_to_content: grid has no content")
    top = min(r for r, _ in cells)
    bottom = max(r for r, _ in cells)
    left = min(c for _, c in cells)
    right = max(c for _, c in cells)
    return Grid(tuple(row[left : right + 1] for row in g.rows[top : bottom + 1]))


def whole_text_transcript(path):
    """``RemoteBackend``'s transcript load as it was before it read the
    file a line at a time: the whole text decoded, then split with
    ``str.splitlines``. Returns each request key's responses in file order,
    or raises BackendError with the message the loader gave."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise BackendError(f"cannot read transcript: {e}") from e
    except UnicodeDecodeError as e:
        raise BackendError(f"transcript is not valid UTF-8: {e}") from e
    replay = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            key = json.dumps(entry["request"], sort_keys=True, separators=(",", ":"))
            response = entry["response"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise BackendError(f"bad transcript line {line_no}: {e}") from e
        if not isinstance(response, dict):
            raise BackendError(
                f"bad transcript line {line_no}: response is not a JSON object"
            )
        replay.setdefault(key, []).append(response)
    return replay
