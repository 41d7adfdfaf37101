"""The benchmark's hold on the package: the names ``perfbench/workloads.py``
imports from symgrid resolve (conftest imports it), the calls
``perfbench/run.py`` makes still bind, and the tracer of
``perfbench/tracing.py`` installs against the package and leaves every
binding as it found it, so a change that drops a name the benchmark binds
or a parameter it passes fails here rather than in a benchmark run."""

import inspect
import random
import sys

import symgrid
from symgrid import SearchProposer, induction, perception, search, solver
from symgrid.taskgen import generate_planted_task

import workloads  # noqa: F401  (perfbench/, on sys.path through conftest)
from tracing import Tracer


def _bindings():
    """Every attribute of every loaded symgrid module, and of every class
    those modules define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "symgrid" or name.startswith("symgrid.")):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


def test_tracer_installs_and_restores_every_binding():
    wrapped = [
        (induction, "detect_unit_patterns"),
        (induction, "intersect_patterns"),
        (induction, "match_objects"),
        (search, "enumerate_candidates"),
        (solver, "_vote"),
        (perception, "segment"),
        (induction, "induce"),
    ]
    task = generate_planted_task(random.Random(3), kind="translate").task
    before = _bindings()
    tracer = Tracer({})
    tracer.install()
    try:
        for module, attr in wrapped:
            assert getattr(module, attr) is not before[(module.__name__, attr)], attr
        # Through the module, as evaluate reaches it, so its span runs too.
        induction.induce(task, SearchProposer())
        counts = tracer.metrics()
    finally:
        tracer.remove()
    assert counts["perception.segment.calls"] > 0
    assert counts["induction.match_objects.calls"] > 0
    assert counts["induction.verify_applies"] > 0
    assert counts["induction.rules"] > 0
    # The span that ``induction.intersect.self_s`` times: the wrapper passes
    # the arguments through, whatever ``intersect_patterns`` takes.
    assert any(span[0] == "induction.intersect" for span in tracer.spans)
    assert _bindings() == before


def test_benchmark_call_shapes_bind():
    # ``perfbench/run.py``'s calls, argument for argument; ``bind`` raises
    # TypeError on a call the signature no longer accepts.
    task, rs, backend, proposer, order = object(), object(), None, object(), []
    inspect.signature(symgrid.induce).bind(task, proposer)
    inspect.signature(symgrid.solve_task).bind(task, rs, backend, passes=1)
    inspect.signature(symgrid.evaluate).bind(
        order, passes=1, backend=backend, proposer=proposer
    )
