"""scripts/bench_pairs.py: alternating benchmark pairs between checkouts.

Each checkout here is a stub whose ``perfbench/run.py`` prints canned
output and exits with a canned code, so the script's bookkeeping is
checked without running the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STUB = """\
import json, sys
from pathlib import Path

canned = json.loads((Path(__file__).resolve().parent / "canned.json").read_text())
print(canned["stdout"])
sys.exit(canned["code"])
"""

DIGEST = "sha256:" + "ab" * 32


def _stdout(value=1.0, digest=DIGEST, correct=True, failed=0):
    lines = ["workload closure_suite seed 1: canned"]
    if digest is not None:
        lines.append(f"  answer_digest    {digest}")
    summary = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS},
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def _checkout(path, stdout, code=0):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "perfbench" / "canned.json").write_text(json.dumps({"stdout": stdout, "code": code}))
    return path


def _argv(parent, change, out, pairs=2):
    return [
        str(parent), str(change), "--workload", "closure_suite", "--pairs", str(pairs),
        "--first-seed", "5", "--out", str(out),
    ]


def test_clean_pairs_are_recorded(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", _stdout(1.0))
    change = _checkout(tmp_path / "change", _stdout(2.0))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(_argv(parent, change, out) + ["--claim", "tasks_per_s"]) == 0
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["closure_suite"]
    assert entry["seeds"] == [5, 6]
    assert entry["answer_digests_equal"] is True
    assert entry["correct"] == {"parent": [True, True], "change": [True, True]}
    assert entry["metrics"]["tasks_per_s"]["change_wins"] == 2
    assert entry["metrics"]["task_p90_ms"]["change_losses"] == 2
    assert doc["claim"]["met"] is True
    assert "pair 2 seed 6 change:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "stdout, code, why",
    [
        (_stdout(correct=False), 1, "exited 1"),
        (_stdout(), 3, "exited 3"),
        (_stdout(correct=False), 0, "correct: False"),
        (_stdout(failed=2), 0, "failed: 2"),
        ("", 0, "no output"),
        ("Traceback (most recent call last):", 0, "not a JSON summary"),
    ],
    ids=["exit_1", "exit_3", "incorrect", "failed_tasks", "no_output", "no_summary"],
)
def test_a_bad_run_stops_the_script_naming_pair_and_side(tmp_path, stdout, code, why):
    parent = _checkout(tmp_path / "parent", _stdout())
    change = _checkout(tmp_path / "change", stdout, code)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main(_argv(parent, change, out))
    message = str(stopped.value.code)
    assert message.startswith("pair 1 seed 5 change (")
    assert why in message
    assert not out.exists()


def test_a_bad_run_exits_non_zero(tmp_path):
    parent = _checkout(tmp_path / "parent", _stdout(correct=False), code=1)
    change = _checkout(tmp_path / "change", _stdout())
    out = tmp_path / "BENCH.json"
    result = subprocess.run(
        [sys.executable, str(SCRIPT), *_argv(parent, change, out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("pair 1 seed 5 parent (")
    assert not out.exists()


@pytest.mark.parametrize(
    "parent_digest, change_digest",
    [(None, None), (DIGEST, None), (None, DIGEST), (DIGEST, "sha256:" + "cd" * 32)],
)
def test_a_missing_or_different_digest_is_a_mismatch(
    tmp_path, parent_digest, change_digest
):
    parent = _checkout(tmp_path / "parent", _stdout(digest=parent_digest))
    change = _checkout(tmp_path / "change", _stdout(digest=change_digest))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    assert json.loads(out.read_text())["workloads"]["closure_suite"]["answer_digests_equal"] is False
