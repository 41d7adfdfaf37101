"""Independent reference implementations used to check the engine.

These deliberately use different algorithms from the package: union-find
instead of BFS for segmentation, label-everything-then-filter instead of
border flood for cavities, and explicit 0..9 scans for voting. They must
stay free of package internals beyond public value types.
"""

from fractions import Fraction

from symgrid import Grid


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
        raise ValueError("vote_pixels: no candidates")
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
    """``grid.encode_markdown`` as it was before it mapped cells through a
    digit table, with ``str(v)`` per cell: the reference for that fast path."""
    return "\n".join("|" + "|".join(str(v) for v in row) + "|" for row in g.rows)
