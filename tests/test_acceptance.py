"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; without -s they still appear in captured output.
"""

import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import symgrid
from symgrid import (
    Candidate,
    Grid,
    GridValidationError,
    KIND_ORDER,
    MarkdownError,
    SearchProposer,
    apply_pattern,
    decode_markdown,
    encode_markdown,
    enumerate_candidates,
    evaluate,
    format_pattern,
    grids_equal,
    make_pattern,
    segment,
    serialize_task,
    vote_pixels,
)
from symgrid.taskgen import generate_planted_task, generate_suite
from conftest import detect, intersect, random_grid, train_pairs
from oracles import cavity_oracle, segmentation_oracle, vote_oracle


@contextmanager
def criterion(num: int, name: str, details: dict):
    passed = False
    try:
        yield
        passed = True
    finally:
        suffix = ", ".join(f"{k}={v}" for k, v in details.items())
        print(
            f"\nACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
            + (f" ({suffix})" if suffix else "")
        )


def test_01_segmentation_matches_union_find_oracle():
    details: dict = {}
    with criterion(1, "segmentation-oracle-equivalence", details):
        rng = random.Random(1001)
        grids = [random_grid(rng, max_side=30) for _ in range(1000)]
        start = time.perf_counter()
        for g in grids:
            p = segment(g)
            got = {(o.color, o.mask) for o in p.objects}
            assert got == segmentation_oracle(g.rows, p.background)
        elapsed = time.perf_counter() - start
        details["grids"] = 1000
        details["seconds"] = f"{elapsed:.2f}"
        assert elapsed < 5.0, f"suite took {elapsed:.2f}s, limit is 5s"


def test_02_cavities_match_region_labeling_oracle():
    details: dict = {}
    with criterion(2, "cavity-oracle-equivalence", details):
        # Pinned shapes first: solid -> 0, single enclosed hole -> 1.
        solid = Grid.from_rows(
            [[0] * 5, [0, 7, 7, 7, 0], [0, 7, 7, 7, 0], [0, 7, 7, 7, 0], [0] * 5]
        )
        assert segment(solid).objects[0].cavity_count == 0
        ring = Grid.from_rows(
            [[0] * 5, [0, 7, 7, 7, 0], [0, 7, 0, 7, 0], [0, 7, 7, 7, 0], [0] * 5]
        )
        assert segment(ring).objects[0].cavity_count == 1

        rng = random.Random(1002)
        masks = 0
        while masks < 500:
            g = random_grid(rng, max_side=12, colors=3, min_side=3)
            for obj in segment(g).objects:
                assert obj.cavity_count == cavity_oracle(obj.mask, obj.bbox)
                masks += 1
        details["masks"] = masks


def test_03_dsl_group_laws():
    details: dict = {}
    with criterion(3, "dsl-group-laws", details):
        rng = random.Random(1003)
        rot = make_pattern("rotate90")
        rot180 = make_pattern("rotate180")
        refl_h = make_pattern("reflect_h")
        refl_v = make_pattern("reflect_v")
        for _ in range(200):
            g = random_grid(rng, max_side=12)
            out = g
            for _ in range(4):
                out = apply_pattern(rot, out)
            assert grids_equal(out, g)
            assert grids_equal(apply_pattern(refl_h, apply_pattern(refl_h, g)), g)
            assert grids_equal(apply_pattern(refl_v, apply_pattern(refl_v, g)), g)
            assert grids_equal(
                apply_pattern(rot180, g), apply_pattern(rot, apply_pattern(rot, g))
            )
        for _ in range(200):
            inner = random_grid(rng, max_side=6, colors=4)
            pad = 3
            rows = [[0] * (inner.width + 2 * pad) for _ in range(pad)]
            rows += [[0] * pad + list(r) + [0] * pad for r in inner.rows]
            rows += [[0] * (inner.width + 2 * pad) for _ in range(pad)]
            g = Grid.from_rows(rows)
            dx, dy = 0, 0
            while (dx, dy) == (0, 0):
                dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
            there = apply_pattern(make_pattern("translate", dx=dx, dy=dy), g)
            back = apply_pattern(make_pattern("translate", dx=-dx, dy=-dy), there)
            assert grids_equal(back, g)
        details["grids_per_law"] = 200


def test_04_plant_and_recover():
    details: dict = {}
    with criterion(4, "plant-and-recover", details):
        rng = random.Random(1004)
        n = 500
        recovered = 0
        rank_one = 0
        proposer = SearchProposer()
        for i in range(n):
            kind = KIND_ORDER[i % len(KIND_ORDER)]
            pt = generate_planted_task(rng, kind=kind, train_pairs=3)
            want = format_pattern(pt.pattern)
            cands = enumerate_candidates(pt.task.train[0], budget=2000)
            hit = any(
                fp.exact and format_pattern(fp.pattern) == want for fp in cands
            )
            if not hit:
                continue
            recovered += 1
            per_pair = [
                detect(pair, proposer, 2000) for pair in pt.task.train
            ]
            rs = intersect(per_pair, train_pairs(pt.task.train))
            if rs.patterns and format_pattern(rs.patterns[0].pattern) == want:
                rank_one += 1
        details["recovered"] = f"{recovered}/{n}"
        details["rank_one"] = f"{rank_one}/{recovered}"
        assert recovered >= 0.95 * n, f"recovery {recovered}/{n} below 95%"
        assert rank_one >= 0.99 * recovered, (
            f"rank-1 {rank_one}/{recovered} below 99% of recovered"
        )


def test_05_spurious_rule_rejection():
    details: dict = {}
    with criterion(5, "spurious-rule-rejection", details):
        rng = random.Random(1005)
        proposer = SearchProposer()
        kinds = ("rotate90", "rotate180", "reflect_h", "reflect_v", "rotate270")
        thresholds = [i / 10 for i in range(11)]
        fixtures = 0
        while fixtures < 50:
            pattern = make_pattern(kinds[fixtures % len(kinds)])
            g1 = random_grid(rng, max_side=8, colors=4, min_side=2)
            g2 = random_grid(rng, max_side=8, colors=4, min_side=2)
            wrong_rows = apply_pattern(pattern, g2).to_lists()
            wrong_rows[0][0] = (wrong_rows[0][0] + 1) % 10
            pair1 = (g1, apply_pattern(pattern, g1))
            pair2 = (g2, Grid.from_rows(wrong_rows))
            key = format_pattern(pattern)
            per_pair = [
                detect(pair1, proposer, 2000),
                detect(pair2, proposer, 2000),
            ]
            if not any(
                sp.exact and format_pattern(sp.pattern) == key for sp in per_pair[0]
            ):
                continue  # the draw was degenerate for this isometry
            fixtures += 1
            for threshold in thresholds:
                rs = intersect(
                    per_pair, train_pairs([pair1, pair2]), threshold=threshold
                )
                assert all(
                    format_pattern(sp.pattern) != key for sp in rs.patterns
                ), f"spurious {key} survived threshold {threshold}"
        details["fixtures"] = fixtures
        details["thresholds"] = len(thresholds)


def test_06_vote_matches_weighted_histogram_oracle():
    details: dict = {}
    with criterion(6, "vote-oracle-equivalence", details):
        rng = random.Random(1006)
        mixed = 0
        for _ in range(200):
            n = rng.randint(1, 7)
            dims_pool = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2)]
            cands = []
            for _ in range(n):
                h, w = rng.choice(dims_pool)
                rows = [[rng.randrange(5) for _ in range(w)] for _ in range(h)]
                cands.append(
                    Candidate(
                        Grid.from_rows(rows),
                        "rule_exec",
                        rng.choice([0.25, 0.5, 1.0, 2.0]),
                    )
                )
            if len({c.grid.dims for c in cands}) > 1:
                mixed += 1
            want = vote_oracle([(c.grid.to_lists(), c.weight) for c in cands])
            assert vote_pixels(cands).to_lists() == want
            # Unanimity: replicating one candidate returns its grid exactly.
            assert vote_pixels([cands[0]] * 3) == cands[0].grid
            # Weight scaling by an exactly-representable factor.
            scaled = [Candidate(c.grid, c.source, c.weight * 8.0) for c in cands]
            assert vote_pixels(scaled) == vote_pixels(cands)
        details["multisets"] = 200
        details["mixed_dims"] = mixed
        assert mixed >= 20


def test_07_end_to_end_synthetic_benchmark():
    details: dict = {}
    with criterion(7, "end-to-end-benchmark", details):
        suite = generate_suite(seed=1007, n_planted=100, n_noise=20)
        planted = [(tid, task) for tid, task, p in suite if p is not None]
        everything = [(tid, task) for tid, task, _ in suite]

        start = time.perf_counter()
        clean = evaluate(planted, passes=1)
        elapsed = time.perf_counter() - start
        details["clean"] = f"{clean.correct}/{clean.scored}"
        details["seconds"] = f"{elapsed:.1f}"
        assert clean.correct == 100 and clean.scored == 100
        assert elapsed < 60.0, f"solved in {elapsed:.1f}s, limit 60s"

        noisy = evaluate(everything, passes=1)
        details["noisy"] = f"{noisy.correct}/{noisy.scored}"
        assert noisy.scored == 120
        assert noisy.correct == 100, "noise tasks must contribute zero hits"


class _RecorderStub(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        if request["mode"] == "propose":
            body = {"patterns": ["rotate90()@all"]}
        else:
            test_input = decode_markdown(request["test_input"])
            answer = apply_pattern(make_pattern("rotate90"), test_input)
            body = {"grids": [encode_markdown(answer)] * max(request["samples"], 1)}
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def test_08_replayed_solve_is_byte_identical(tmp_path):
    details: dict = {}
    with criterion(8, "transcript-determinism", details):
        rng = random.Random(1008)
        pt = generate_planted_task(rng, kind="rotate90")
        task_path = tmp_path / "task.json"
        task_path.write_bytes(serialize_task(pt.task))
        transcript = tmp_path / "transcript.jsonl"

        server = HTTPServer(("127.0.0.1", 0), _RecorderStub)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/"

        # The child runs with cwd=tmp_path, where a relative PYTHONPATH
        # entry such as `src` resolves to nothing. Put the directory this
        # process imported symgrid from first, so the child runs the same
        # code as the suite, installed or not.
        import_root = str(Path(symgrid.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(filter(None, [import_root, inherited]))

        def run(extra_env, *flags):
            env = dict(os.environ, PYTHONPATH=pythonpath, **extra_env)
            return subprocess.run(
                [sys.executable, "-m", "symgrid.cli", "solve", str(task_path), *flags],
                capture_output=True,
                env=env,
                cwd=tmp_path,
                timeout=120,
            )

        try:
            recorded = run(
                {},
                "--backend-url",
                url,
                "--transcript",
                str(transcript),
                "--samples",
                "3",
            )
            assert recorded.returncode == 0, recorded.stderr.decode()
        finally:
            server.shutdown()
            thread.join(timeout=5)

        # Five replays under different hash seeds stand in for separate
        # machines: hash randomization is the usual source of cross-host
        # nondeterminism in pure Python.
        outputs = []
        for i in range(5):
            replayed = run(
                {"PYTHONHASHSEED": str(i)},
                "--transcript",
                str(transcript),
                "--samples",
                "3",
            )
            assert replayed.returncode == 0, replayed.stderr.decode()
            outputs.append(replayed.stdout)
        assert all(out == outputs[0] for out in outputs)
        assert outputs[0] == recorded.stdout
        details["runs"] = 5
        details["bytes"] = len(outputs[0])


def test_09_markdown_round_trip_and_fuzz():
    details: dict = {}
    with criterion(9, "markdown-round-trip", details):
        rng = random.Random(1009)
        for _ in range(10_000):
            g = random_grid(rng)
            assert decode_markdown(encode_markdown(g)) == g

        rejected = 0
        corpus = 0
        for _ in range(500):
            g = random_grid(rng, max_side=6)
            lines = encode_markdown(g).split("\n")
            mutation = rng.randrange(3)
            row = rng.randrange(len(lines))
            if mutation == 0 and g.width > 1:  # drop one cell: ragged width
                cells = lines[row][1:-1].split("|")
                cells.pop(rng.randrange(len(cells)))
                lines[row] = "|" + "|".join(cells) + "|"
                if len(lines) == 1:
                    continue  # a single shortened row is still a valid table
            elif mutation == 1:  # truncate the trailing delimiter
                lines[row] = lines[row][:-1]
                if lines[row].endswith("|"):
                    continue
            else:  # inject a non-digit cell
                lines[row] = lines[row].replace("|" + lines[row][1], "|x", 1)
            corpus += 1
            text = "\n".join(lines)
            try:
                decode_markdown(text)
            except (MarkdownError, GridValidationError):
                rejected += 1
        details["round_trips"] = 10_000
        details["fuzz_corpus"] = corpus
        details["rejected"] = rejected
        assert rejected == corpus, "decoder accepted a malformed table"


def _segment_steps(grids) -> int:
    """The line events ``sys.settrace`` reports inside the functions of
    ``symgrid.perception`` (``segment``, and the ``background_color`` and
    ``cavity_regions`` it calls) while ``segment`` runs on each grid: a
    count of the interpreted steps segmentation takes, the same on every
    run and on any machine load."""
    filename = symgrid.perception.__file__
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for g in grids:
            segment(g)
    finally:
        sys.settrace(previous)
    return steps


def test_10_segmentation_time_is_linear_in_cell_count():
    # The work is counted, not timed: a wall-clock fit failed now and then
    # on a loaded machine with ``segment`` unchanged.
    details: dict = {}
    with criterion(10, "perception-linearity", details):
        rng = random.Random(1010)
        sides = (10, 20, 30)
        reps = 200
        batches = {
            side: [random_grid(rng, max_side=side, min_side=side) for _ in range(reps)]
            for side in sides
        }
        totals = {side: _segment_steps(batches[side]) for side in sides}

        xs = [side * side for side in sides]
        ys = [totals[side] for side in sides]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        intercept = ybar - slope * xbar
        assert slope > 0
        worst = 0.0
        for x, y in zip(xs, ys):
            predicted = intercept + slope * x
            assert predicted > 0, "linear fit collapsed"
            worst = max(worst, predicted / y, y / predicted)
        details["steps"] = totals
        details["max_ratio"] = f"{worst:.4f}"
        assert worst <= 2.0, f"deviation factor {worst:.2f} exceeds 2x"
