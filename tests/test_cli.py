"""CLI surface: subcommands, config plumbing, exit codes, output formats."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import symgrid
from symgrid import serialize_task
from symgrid.cli import main
from symgrid.config import MAX_SAMPLE_GRIDS, Config, ConfigError, load_config
from symgrid.taskgen import generate_planted_task, generate_suite


@pytest.fixture()
def rotate_task_file(tmp_path):
    rng = random.Random(111)
    pt = generate_planted_task(rng, kind="rotate90")
    path = tmp_path / "task.json"
    path.write_bytes(serialize_task(pt.task))
    return path, pt


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert (cfg.connectivity, cfg.confidence_threshold) == (4, 1.0)
        assert (cfg.search_budget, cfg.passes, cfg.samples) == (2000, 2, 5)
        assert cfg.backend_url is None and cfg.transcript_path is None

    def test_ranges_enforced(self):
        with pytest.raises(ConfigError):
            Config(connectivity=5)
        with pytest.raises(ConfigError):
            Config(confidence_threshold=1.5)
        with pytest.raises(ConfigError):
            Config(passes=3)
        with pytest.raises(ConfigError):
            Config(search_budget=0)
        with pytest.raises(ConfigError):
            Config(samples=-1)

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"passes": 1, "samples": 2}))
        cfg = load_config(str(path), {"samples": 7, "backend_url": None})
        assert cfg.passes == 1
        assert cfg.samples == 7  # flag wins over file

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spice": 1}))
        with pytest.raises(ConfigError, match="spice"):
            load_config(str(path), {})


class TestPerceive:
    def test_reports_objects(self, rotate_task_file, capsys):
        path, _ = rotate_task_file
        assert main(["perceive", str(path)]) == 0
        out = capsys.readouterr().out
        assert "train[0].input" in out
        assert "background=" in out

    def test_corrupt_file_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["perceive", str(bad)]) != 0
        assert "bad.json" in capsys.readouterr().err

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["perceive", str(tmp_path / "nope.json")]) != 0

    def test_object_counts_match_oracle(self, tmp_path, capsys):
        from oracles import segmentation_oracle
        from symgrid import parse_task, background_color

        rng = random.Random(7)
        suite = generate_suite(seed=21, n_planted=6)
        for tid, task, _ in suite:
            path = tmp_path / f"{tid}.json"
            path.write_bytes(serialize_task(task))
            assert main(["perceive", str(path)]) == 0
            out = capsys.readouterr().out
            gin = task.train[0][0]
            want = len(segmentation_oracle(gin.rows, background_color(gin)))
            first = next(l for l in out.splitlines() if l.startswith("train[0].input"))
            assert f"objects={want}" in first


class TestInduce:
    def test_planted_pattern_is_first_line(self, rotate_task_file, capsys):
        path, pt = rotate_task_file
        assert main(["induce", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rotate90()@all"
        assert any(line.startswith("hint: rotate the grid 90") for line in lines)

    def test_empty_ruleset_message(self, tmp_path, capsys):
        from symgrid.taskgen import generate_noise_task

        task = generate_noise_task(random.Random(5))
        path = tmp_path / "noise.json"
        path.write_bytes(serialize_task(task))
        assert main(["induce", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "no surviving patterns"

    def test_byte_identical_across_runs(self, rotate_task_file, capsys):
        path, _ = rotate_task_file
        outputs = []
        for _ in range(3):
            assert main(["induce", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


class TestRemoteProposerConfig:
    def test_induce_with_replayed_remote_proposer(
        self, rotate_task_file, tmp_path, capsys
    ):
        # Record a propose conversation, then drive `induce` through the
        # remote proposer from a config file, replaying the transcript.
        import json as _json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from symgrid.backend import RemoteBackend, RemotePatternProposer
        from symgrid import induce, parse_task

        path, pt = rotate_task_file

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                n = int(self.headers.get("Content-Length", 0))
                _json.loads(self.rfile.read(n))
                payload = _json.dumps({"patterns": ["rotate90()@all"]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        transcript = tmp_path / "remote.jsonl"
        try:
            recorder = RemoteBackend(
                url=f"http://127.0.0.1:{server.server_port}/",
                timeout=5,
                transcript_path=str(transcript),
            )
            induce(parse_task(path.read_bytes()), RemotePatternProposer(recorder))
        finally:
            server.shutdown()
            thread.join(timeout=5)

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            _json.dumps(
                {"proposer": "remote", "transcript_path": str(transcript)}
            )
        )
        assert main(["induce", str(path), "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rotate90()@all"

    def test_remote_proposer_without_backend_is_an_error(self, rotate_task_file, tmp_path, capsys):
        path, _ = rotate_task_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"proposer": "remote"}')
        assert main(["induce", str(path), "--config", str(cfg)]) != 0
        assert "remote" in capsys.readouterr().err


class TestSolve:
    def test_planted_solution_printed(self, rotate_task_file, capsys):
        from symgrid import decode_markdown, grids_equal

        path, pt = rotate_task_file
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        blocks = out.split("# ")
        attempt1 = next(b for b in blocks if b.startswith("test 0 attempt 1"))
        table = "\n".join(attempt1.splitlines()[1:])
        expected = pt.task.test[0][1]
        assert grids_equal(decode_markdown(table), expected)
        assert "# trace test=0" in out

    def test_unreachable_backend_degrades_to_exit_zero(
        self, rotate_task_file, capsys
    ):
        path, pt = rotate_task_file
        code = main(
            ["solve", str(path), "--backend-url", "http://127.0.0.1:1/", "--samples", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded" in captured.err or "degraded=yes" in captured.out

    def test_samples_above_the_response_cap_is_a_config_error(
        self, rotate_task_file, capsys
    ):
        # A sample response longer than the cap is a backend failure, so
        # asking for more would degrade every honest response.
        path, _ = rotate_task_file
        assert main(["solve", str(path), "--samples", str(MAX_SAMPLE_GRIDS)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path), "--samples", str(MAX_SAMPLE_GRIDS + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: samples must be in [0,{MAX_SAMPLE_GRIDS}], got {MAX_SAMPLE_GRIDS + 1}"
        ]

    def test_threshold_flag_accepted(self, rotate_task_file, capsys):
        path, _ = rotate_task_file
        assert main(["solve", str(path), "--threshold", "0.5", "--passes", "1"]) == 0


class TestEval:
    def test_directory_scoring(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "tasks"
        data.mkdir()
        for tid, task, _ in generate_suite(seed=31, n_planted=4, n_noise=1):
            (data / f"{tid}.json").write_bytes(serialize_task(task))
        (data / "broken.json").write_text("{nope")
        assert main(["eval", str(data), "--passes", "1"]) == 0
        out = capsys.readouterr().out
        assert "accuracy: 4/5" in out
        assert "unreadable files: 1" in out
        summary = json.loads((tmp_path / "eval_summary.json").read_text())
        assert summary["correct"] == 4
        assert summary["unreadable_files"] == 1

    def test_rerun_in_task_directory_skips_own_summary(self, tmp_path, capsys, monkeypatch):
        for tid, task, _ in generate_suite(seed=31, n_planted=2, n_noise=1):
            (tmp_path / f"{tid}.json").write_bytes(serialize_task(task))
        monkeypatch.chdir(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["eval", ".", "--passes", "1"]) == 0
            captured = capsys.readouterr()
            assert "eval_summary.json" not in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert "unreadable files" not in outputs[1]
        assert json.loads((tmp_path / "eval_summary.json").read_text())["scored"] == 3

    def test_empty_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "empty"
        data.mkdir()
        assert main(["eval", str(data)]) == 0
        assert "accuracy: 0/0" in capsys.readouterr().out

    def test_not_a_directory(self, tmp_path):
        assert main(["eval", str(tmp_path / "missing")]) != 0

    @pytest.mark.parametrize("knob", ["jobs", "seed"])
    def test_no_jobs_knob(self, tmp_path, capsys, knob):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({knob: 2}))
        with pytest.raises(ConfigError, match=f"unknown keys.*{knob}"):
            load_config(str(cfg), {})
        data = tmp_path / "tasks"
        data.mkdir()
        assert main(["eval", str(data), "--config", str(cfg)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(data), f"--{knob}", "2"])
        assert exc.value.code == 2


_DEEP = "[" * 5000 + "]" * 5000  # json.loads raises RecursionError on this
_NOT_UTF8 = b"\xff\xfe{"


class TestHostileInputs:
    """Each hostile input ends in a clean exit: 2 with ``error: ...`` for
    bad input, 0 when only the backend degrades. Never a traceback."""

    @pytest.mark.parametrize(
        "case, code",
        [
            ("solve_deep_task", 2),
            ("perceive_deep_task", 2),
            ("eval_dir_with_deep_task", 0),
            ("config_not_utf8", 2),
            ("config_deep", 2),
            ("transcript_not_utf8", 2),
            ("transcript_deep_line", 2),
            ("transcript_is_a_directory", 2),
            ("malformed_backend_url", 0),
            ("eval_dead_backend_remote_proposer", 0),
            ("induce_dead_backend_remote_proposer", 0),
        ],
    )
    def test_clean_exit(self, rotate_task_file, tmp_path, case, code):
        task, _ = rotate_task_file
        deep = tmp_path / "deep.json"
        deep.write_text(_DEEP)
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(_NOT_UTF8)
        tasks = tmp_path / "tasks"
        tasks.mkdir()
        (tasks / "deep.json").write_text(_DEEP)
        (tasks / "ok.json").write_bytes(task.read_bytes())
        remote = tmp_path / "remote.json"
        remote.write_text('{"proposer": "remote"}')
        dead = ["--config", str(remote), "--backend-url", "http://127.0.0.1:1/"]
        argv = {
            "solve_deep_task": ["solve", str(deep)],
            "perceive_deep_task": ["perceive", str(deep)],
            "eval_dir_with_deep_task": ["eval", str(tasks), "--passes", "1"],
            "config_not_utf8": ["solve", str(task), "--config", str(not_utf8)],
            "config_deep": ["solve", str(task), "--config", str(deep)],
            "transcript_not_utf8": ["solve", str(task), "--transcript", str(not_utf8)],
            "transcript_deep_line": ["solve", str(task), "--transcript", str(deep)],
            "transcript_is_a_directory": ["solve", str(task), "--transcript", str(tasks)],
            "malformed_backend_url": [
                "solve", str(task), "--backend-url", "http://[::1", "--samples", "1",
            ],
            "eval_dead_backend_remote_proposer": ["eval", str(tasks), "--passes", "1", *dead],
            "induce_dead_backend_remote_proposer": ["induce", str(task), *dead],
        }[case]
        # Run the code this process imported, whatever the child's cwd.
        import_root = str(Path(symgrid.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(filter(None, [import_root, inherited]))
        )
        result = subprocess.run(
            [sys.executable, "-m", "symgrid.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )
        assert "Traceback" not in result.stderr
        assert result.returncode == code, result.stderr
        if code == 2:
            assert result.stderr.startswith("error: ")
        elif case == "eval_dir_with_deep_task":
            assert "skipping deep.json" in result.stderr
            assert "unreadable files: 1" in result.stdout
        elif case == "eval_dead_backend_remote_proposer":
            assert "warning: backend unavailable for induction" in result.stderr
            assert "accuracy: 1/1" in result.stdout
            assert (tmp_path / "eval_summary.json").exists()
        elif case == "induce_dead_backend_remote_proposer":
            assert "warning: backend unavailable for induction" in result.stderr
            assert result.stdout.splitlines()[0] == "rotate90()@all"
        else:
            assert "degraded=yes" in result.stdout
