"""Spans and counts around symgrid's layers, installed from outside.

The package binds names with ``from .x import y``, so one function is
reachable under several module attributes (``segment`` lives in
``perception``, ``patterns``, ``search``, ``taskgen`` and the package
itself).  ``Tracer.install`` replaces the function at every such binding
site, so no call path escapes; ``Tracer.remove`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, request]`` lists
and written out by ``write_spans``.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from symgrid import backend, grid, induction, patterns, perception, search, solver
from symgrid.errors import MarkdownError, PatternApplicationError, PatternContractError


def _segment_key(g, connectivity=4):
    return g, connectivity


def _apply_key(p, g, connectivity=4):
    return p, g, connectivity


class Tracer:
    """Records spans, counters and distinct-argument sets for one pass."""

    def __init__(self, task_names: dict[int, str]) -> None:
        self.task_names = task_names
        self.spans: list[list] = []
        self.child_s: list[float] = []
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None, failure=()):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.request]
            tracer.spans.append(span)
            tracer.child_s.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except failure:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span[1] = start
                span[2] = end
                if parent >= 0:
                    tracer.child_s[parent] += end - start
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every symgrid module attribute bound to ``original`` at
        ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symgrid" or mod_name.startswith("symgrid.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- hooks -------------------------------------------------------------

    def _on_segment(self, *args, **kwargs):
        key = _segment_key(*args, **kwargs)
        self.distinct["perception.segment"].add(key)
        g = key[0]
        self.counts["perception.segment.cells"] += len(g.rows) * len(g.rows[0])

    def _on_apply(self, *args, **kwargs):
        self.distinct["patterns.apply"].add(_apply_key(*args, **kwargs))

    def _on_task(self, task, *args, **kwargs):
        self.request = self.task_names.get(id(task))

    def _on_enumerated(self, result):
        self.counts["search.kept"] += len(result)

    def _on_induced(self, rs):
        self.counts["induction.rules"] += len(rs.patterns)

    def _on_solved(self, predictions):
        for pred in predictions:
            trace = pred.trace
            self.counts["solver.candidates"] += trace.candidate_count
            self.counts["solver.identity_fallbacks"] += trace.identity_fallback
            self.counts["solver.second_attempts"] += len(pred.attempts) == 2
            self.counts["backend.degraded"] += trace.degraded

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        inapplicable = (PatternApplicationError, PatternContractError)
        functions = [
            (perception.segment, self._span("perception.segment", perception.segment, before=self._on_segment)),
            (patterns.apply_pattern, self._span("patterns.apply", patterns.apply_pattern, before=self._on_apply, failure=inapplicable)),
            (patterns.parse_pattern, self._count("patterns.parse.calls", patterns.parse_pattern)),
            (grid.pixel_distance, self._count("grid.pixel_distance.calls", grid.pixel_distance)),
            (grid.encode_markdown, self._span("grid.markdown", grid.encode_markdown)),
            (grid.decode_markdown, self._span("grid.markdown", grid.decode_markdown, failure=(MarkdownError,))),
            (search.enumerate_candidates, self._span("search.enumerate", search.enumerate_candidates, after=self._on_enumerated)),
            (induction.match_objects, self._count("induction.match_objects.calls", induction.match_objects)),
            (induction.detect_unit_patterns, self._span("induction.detect", induction.detect_unit_patterns)),
            (induction.intersect_patterns, self._span("induction.intersect", induction.intersect_patterns)),
            (induction.induce, self._span("induction.induce", induction.induce, before=self._on_task, after=self._on_induced)),
            (solver.solve_task, self._span("solver.solve", solver.solve_task, before=self._on_task, after=self._on_solved)),
            (solver.apply_ruleset, self._span("solver.apply_ruleset", solver.apply_ruleset)),
            # solve_task votes through the private _vote, not vote_pixels.
            (solver._vote, self._span("solver.vote", solver._vote)),
        ]
        for original, wrapper in functions:
            self._rebind(original, wrapper)
        grid_init = grid.Grid.__post_init__
        self._patch(grid.Grid, "__post_init__", self._count("grid.constructions", grid_init))
        remote = backend.RemoteBackend
        self._patch(remote, "__post_init__", self._span("backend.load", remote.__post_init__))
        self._patch(remote, "propose", self._span("backend.call", remote.propose))
        self._patch(remote, "sample", self._span("backend.call", remote.sample))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (times in seconds)."""
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        under: Counter[tuple[str, str]] = Counter()
        spans = self.spans
        for span, child in zip(spans, self.child_s):
            name, start, end, parent = span[0], span[1], span[2], span[3]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
            if parent >= 0:
                under[(name, spans[parent][0])] += 1
        c = self.counts
        seg_calls = calls["perception.segment"]
        seg_distinct = len(self.distinct["perception.segment"])
        apply_calls = calls["patterns.apply"]
        apply_distinct = len(self.distinct["patterns.apply"])
        tested = under[("patterns.apply", "search.enumerate")]
        return {
            "perception.segment.calls": seg_calls,
            "perception.segment.distinct": seg_distinct,
            "perception.segment.unique_share": seg_distinct / seg_calls if seg_calls else 0.0,
            "perception.segment.self_s": self_s["perception.segment"],
            "perception.segment.cells": c["perception.segment.cells"],
            "patterns.apply.calls": apply_calls,
            "patterns.apply.distinct": apply_distinct,
            "patterns.apply.unique_share": apply_distinct / apply_calls if apply_calls else 0.0,
            "patterns.apply.self_s": self_s["patterns.apply"],
            "patterns.apply.inapplicable": c["patterns.apply.failed"],
            "patterns.parse.calls": c["patterns.parse.calls"],
            "grid.constructions": c["grid.constructions"],
            "grid.pixel_distance.calls": c["grid.pixel_distance.calls"],
            "grid.markdown.s": total["grid.markdown"],
            "grid.markdown.rejects": c["grid.markdown.failed"],
            "search.enumerate.calls": calls["search.enumerate"],
            "search.enumerate.self_s": self_s["search.enumerate"],
            "search.tested": tested,
            "search.kept": c["search.kept"],
            "search.keep_ratio": c["search.kept"] / tested if tested else 0.0,
            "induction.detect.self_s": self_s["induction.detect"],
            "induction.verify_applies": under[("patterns.apply", "induction.detect")],
            "induction.intersect.self_s": self_s["induction.intersect"],
            "induction.contradiction_applies": under[("patterns.apply", "induction.intersect")],
            "induction.rules": c["induction.rules"],
            "induction.match_objects.calls": c["induction.match_objects.calls"],
            "solver.apply_ruleset.s": total["solver.apply_ruleset"],
            "solver.vote.self_s": self_s["solver.vote"],
            "solver.candidates": c["solver.candidates"],
            "solver.identity_fallbacks": c["solver.identity_fallbacks"],
            "solver.second_attempts": c["solver.second_attempts"],
            "backend.calls": calls["backend.call"],
            "backend.call.self_s": self_s["backend.call"],
            "backend.load_s": total["backend.load"],
            "backend.degraded": c["backend.degraded"],
            "trace.spans": len(spans),
        }

    def write_spans(self, path: Path, pass_index: int) -> None:
        """Append the recorded spans as JSON lines."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
