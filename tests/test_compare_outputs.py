"""scripts/compare_outputs.py: the byte-identity check between checkouts."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
SMALL = ["--planted", "3", "--noise", "1"]


def _compare(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), *SMALL],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _copy_checkout(dest):
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_checkout_against_itself_is_identical():
    result = _compare(ROOT, ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("identical: 4-task suite")
    assert "eval --passes 1 and 2 (stdout, eval_summary.json and stderr)" in result.stdout
    assert "solve --passes 2 on 4 tasks at connectivity 4 and 8" in result.stdout
    assert (
        "eval --passes 2 with a replayed remote proposer (stdout, eval_summary.json and stderr)"
        in result.stdout
    )
    assert "induce on 4 tasks at thresholds 1.0, 0.67, 0.5, 0.34, 0.0 at connectivity 4 and 8" in (
        result.stdout
    )
    assert "and at budgets 1 and 3 at thresholds 1.0 and 0.5" in result.stdout
    assert "perceive on 4 tasks at connectivity 4 and 8" in result.stdout
    assert "induce on 3 perturbed tasks at thresholds 1.0, 0.5, 0.0" in result.stdout
    assert "generator seeds 1, 2, 3" in result.stdout


@pytest.mark.parametrize(
    "old, new, named",
    [
        # A changed hint: only the induce output prints hints.
        ('"rotate the grid 90 degrees clockwise"', '"turn the grid clockwise"',
         "induce"),
        # A changed solve header: eval does not print it, solve does.
        ('print(f"# test {i} attempt {a}")', 'print(f"# test {i} try {a}")',
         "solve"),
        # A changed cavity report: only perceive prints cavity counts.
        ('f"bbox={obj.bbox} cavities={obj.cavity_count}"',
         'f"bbox={obj.bbox} holes={obj.cavity_count}"', "perceive"),
    ],
)
def test_first_difference_is_named(tmp_path, old, new, named):
    change = _copy_checkout(tmp_path / "change")
    path = change / "src" / "symgrid" / ("patterns.py" if named == "induce" else "cli.py")
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    result = _compare(ROOT, change)
    assert result.returncode == 1
    assert result.stderr.startswith(f"first difference: {named} ")
    assert "Traceback" not in result.stderr


def test_changed_budget_cut_is_named(tmp_path):
    # The default budget of 2000 never binds on the suite, so only the
    # ``--budget`` runs of step 4 see a cut that keeps one candidate more.
    change = _copy_checkout(tmp_path / "change")
    path = change / "src" / "symgrid" / "induction.py"
    text = path.read_text()
    old = "if len(ids) == budget:"
    assert old in text
    path.write_text(text.replace(old, "if len(ids) > budget:"))
    result = _compare(ROOT, change)
    assert result.returncode == 1
    first = result.stderr.splitlines()[0]
    assert first.startswith("first difference: induce ") and " --budget " in first


def test_held_back_round_difference_is_named(tmp_path):
    # Every unperturbed planted task has an exact rule, so ``induce`` verifies
    # its held-back candidates only on the perturbed tasks of step 6; leaving
    # the candidates kept as partial on the last pair out of the final
    # intersection changes no other step's output.
    change = _copy_checkout(tmp_path / "change")
    path = change / "src" / "symgrid" / "induction.py"
    text = path.read_text()
    old = "final = {c: by_pair for c, by_pair in flags.items() if held_from[c] <= n}"
    assert old in text
    path.write_text(text.replace(old, old.replace("<= n}", "< n}")))
    result = _compare(ROOT, change)
    assert result.returncode == 1
    assert result.stderr.startswith("first difference: perturbed induce ")
    assert "Traceback" not in result.stderr


def test_replayed_proposer_difference_is_named(tmp_path):
    # Only a remote proposer yields malformed lines, so only the replayed
    # eval of step 7 warns about them, on stderr.
    change = _copy_checkout(tmp_path / "change")
    path = change / "src" / "symgrid" / "induction.py"
    text = path.read_text()
    old = '"dropping malformed pattern line'
    assert old in text
    path.write_text(text.replace(old, '"skipping malformed pattern line'))
    result = _compare(ROOT, change)
    assert result.returncode == 1
    assert result.stderr.startswith(
        "first difference: eval --passes 2 with a replayed remote proposer stderr: line 1:"
    )
    assert "Traceback" not in result.stderr
