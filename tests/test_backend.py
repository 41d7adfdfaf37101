"""Remote backend client: wire protocol, record/replay, degradation."""

import hashlib
import http.client
import json
import os
import socketserver
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import symgrid
from symgrid import (
    BackendError,
    Grid,
    SearchProposer,
    apply_pattern,
    decode_markdown,
    encode_markdown,
    grids_equal,
    induce,
    make_pattern,
    serialize_task,
    solve_task,
)
from symgrid import backend as backend_module
from symgrid.backend import RemoteBackend, RemotePatternProposer
from symgrid.cli import main
from symgrid.solver import induce_with_fallback
from symgrid.taskgen import generate_planted_task, generate_suite
from conftest import replay_lines
import random


class _StubHandler(BaseHTTPRequestHandler):
    """Proposes the true pattern and samples the true answer.

    The stub understands enough of the planted task to act like an ideal
    model: propose mode returns a rotate90 line, sample mode returns the
    rotated test input.
    """

    seen_auth: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        type(self).seen_auth.append(self.headers.get("Authorization"))
        if request["mode"] == "propose":
            body = {"patterns": ["rotate90()@all", "not a pattern line"]}
        else:
            from symgrid import decode_markdown

            test_input = decode_markdown(request["test_input"])
            answer = apply_pattern(make_pattern("rotate90"), test_input)
            body = {"grids": [encode_markdown(answer)] * request["samples"]}
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.seen_auth = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    thread.join(timeout=5)


class _RawReplyHandler(socketserver.StreamRequestHandler):
    """Reads one HTTP request, then writes ``reply`` bytes verbatim and hangs up."""

    reply = b""

    def read_request(self):
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"", b"\r\n", b"\n"):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.rfile.read(length)

    def handle(self):
        self.read_request()
        self.wfile.write(self.reply)


class _DripHandler(_RawReplyHandler):
    """Sends the headers of a valid 16-byte body at once, then the body one
    byte per 0.3 s: each read is quick, the whole body takes 4.8 s."""

    body = b'{"patterns": []}'

    def handle(self):
        self.read_request()
        self.wfile.write(b"HTTP/1.0 200 OK\r\nContent-Length: 16\r\n\r\n")
        try:
            for i in range(len(self.body)):
                self.wfile.write(self.body[i : i + 1])
                time.sleep(0.3)
        except OSError:
            pass  # the client hung up


@contextmanager
def raw_reply_server(reply: bytes, handler_class=_RawReplyHandler):
    handler = type("Handler", (handler_class,), {"reply": reply})
    server = socketserver.TCPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


# Replies that make http.client raise an HTTPException rather than an OSError.
MALFORMED_REPLIES = {
    "bad_status_line": (b"garbage\r\n", http.client.BadStatusLine),
    "truncated_body": (
        b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n{\"grids\": [",
        http.client.IncompleteRead,
    ),
}


@pytest.fixture()
def rotate_task():
    rng = random.Random(97)
    return generate_planted_task(rng, kind="rotate90").task


class TestWireProtocol:
    def test_propose(self, stub_server):
        backend = RemoteBackend(url=stub_server, timeout=5)
        lines = backend.propose("|1|", "|1|", budget=10)
        assert lines == ["rotate90()@all", "not a pattern line"]

    def test_sample(self, stub_server):
        backend = RemoteBackend(url=stub_server, timeout=5)
        grids = backend.sample([], encode_markdown(Grid.from_rows([[1, 2]])), [], 2)
        assert len(grids) == 2

    def test_token_sent_in_header(self, stub_server):
        backend = RemoteBackend(url=stub_server, timeout=5, token="hunter2")
        backend.propose("|1|", "|1|", budget=1)
        assert "Bearer hunter2" in _StubHandler.seen_auth

    def test_transport_failure_raises_backend_error(self):
        backend = RemoteBackend(url="http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(BackendError):
            backend.sample([], "|1|", [], 1)

    @pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
    def test_malformed_http_reply_raises_backend_error(self, case):
        reply, cause = MALFORMED_REPLIES[case]
        with raw_reply_server(reply) as url:
            backend = RemoteBackend(url=url, timeout=5)
            with pytest.raises(BackendError, match="transport failure") as info:
                backend.sample([], "|1|", [], 1)
        assert isinstance(info.value.__cause__, cause)


    def test_slow_drip_stops_at_the_deadline(self):
        # The timeout bounds the whole call, not each socket read.
        with raw_reply_server(b"", _DripHandler) as url:
            backend = RemoteBackend(url=url, timeout=0.5)
            start = time.monotonic()
            with pytest.raises(BackendError, match="not complete within 0.5 s"):
                backend.propose("|1|", "|1|", budget=1)
            elapsed = time.monotonic() - start
        assert elapsed < 2.0


class TestRemoteProposer:
    def test_induction_via_remote_proposer(self, stub_task_and_transcript):
        task, transcript = stub_task_and_transcript
        backend = RemoteBackend(transcript_path=str(transcript))
        rs = induce(task, RemotePatternProposer(backend))
        assert rs.patterns
        assert rs.patterns[0].pattern.kind == "rotate90"

    def test_remote_failure_propagates(self, rotate_task):
        backend = RemoteBackend(url="http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(BackendError):
            induce(rotate_task, RemotePatternProposer(backend))


@pytest.fixture()
def stub_task_and_transcript(stub_server, rotate_task, tmp_path):
    """Record a full induce+solve conversation against the stub."""
    transcript = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=stub_server, timeout=5, transcript_path=str(transcript))
    rs = induce(rotate_task, RemotePatternProposer(backend))
    solve_task(rotate_task, rs, backend=backend, passes=2, samples=3)
    return rotate_task, transcript


class TestRecordReplay:
    def test_replay_reproduces_live_predictions(self, stub_task_and_transcript, stub_server):
        task, transcript = stub_task_and_transcript
        live_backend = RemoteBackend(url=stub_server, timeout=5)
        rs_live = induce(task, RemotePatternProposer(live_backend))
        live = solve_task(task, rs_live, backend=live_backend, passes=2, samples=3)

        replay_backend = RemoteBackend(transcript_path=str(transcript))
        rs_replay = induce(task, RemotePatternProposer(replay_backend))
        replayed = solve_task(task, rs_replay, backend=replay_backend, passes=2, samples=3)

        assert [p.attempts for p in live] == [p.attempts for p in replayed]

    def test_transcript_never_contains_the_token(self, stub_server, rotate_task, tmp_path):
        transcript = tmp_path / "t.jsonl"
        backend = RemoteBackend(
            url=stub_server, timeout=5, token="sekrit", transcript_path=str(transcript)
        )
        backend.propose("|1|", "|2|", budget=5)
        assert "sekrit" not in transcript.read_text()

    def test_replay_miss_is_a_backend_error(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            json.dumps({"request": {"mode": "propose", "input": "|1|", "output": "|2|", "budget": 1}, "response": {"patterns": []}})
            + "\n"
        )
        backend = RemoteBackend(transcript_path=str(transcript))
        assert backend.propose("|1|", "|2|", budget=1) == []
        with pytest.raises(BackendError, match="no recorded response"):
            backend.propose("|1|", "|2|", budget=1)

    def test_response_not_an_object_rejected_at_load(self, tmp_path):
        request = {"mode": "propose", "input": "|1|", "output": "|2|", "budget": 1}
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            json.dumps({"request": request, "response": {"patterns": []}})
            + "\n"
            + json.dumps({"request": request, "response": ["rotate90()@all"]})
            + "\n"
        )
        with pytest.raises(
            BackendError, match="bad transcript line 2: response is not a JSON object"
        ):
            RemoteBackend(transcript_path=str(transcript))

    def test_missing_transcript_file(self, tmp_path):
        with pytest.raises(BackendError, match="not found"):
            RemoteBackend(transcript_path=str(tmp_path / "nope.jsonl"))

    def test_url_or_transcript_required(self):
        with pytest.raises(BackendError):
            RemoteBackend()


def _entry(i, text="rotate90()@all"):
    """One transcript line's JSON, before its line ending."""
    request = {"mode": "propose", "input": f"|{i}|", "output": "|2|", "budget": 1}
    return json.dumps(
        {"request": request, "response": {"patterns": [text]}}, ensure_ascii=False
    )


def _replay_or_message(path):
    """The loaded replay table as lists, or the load's error message."""
    try:
        backend = RemoteBackend(transcript_path=str(path))
    except BackendError as e:
        return str(e)
    return {key: list(queue) for key, queue in backend._replay.items()}


def _whole_text_or_message(path):
    from oracles import whole_text_transcript

    try:
        return whole_text_transcript(path)
    except BackendError as e:
        return str(e)


class TestStreamedTranscript:
    """A replay transcript is read a line at a time; lines, line numbers
    and load errors are those of ``read_text().splitlines()``, kept as
    ``oracles.whole_text_transcript``."""

    def test_crlf_and_blank_lines_replay_in_order(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(
            "\r\n".join(["", _entry(1, "a"), "", "  ", _entry(1, "b"), _entry(2, "c"), ""])
            .encode("utf-8")
        )
        backend = RemoteBackend(transcript_path=str(transcript))
        assert backend.propose("|1|", "|2|", budget=1) == ["a"]
        assert backend.propose("|1|", "|2|", budget=1) == ["b"]
        assert backend.propose("|2|", "|2|", budget=1) == ["c"]
        assert _replay_or_message(transcript) == _whole_text_or_message(transcript)

    def test_raw_line_separator_in_a_string_breaks_its_line(self, tmp_path):
        # U+2028 is a line boundary to str.splitlines, though json.dumps
        # leaves it raw in a string: the third line splits there.
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            "\n".join([_entry(1), _entry(2), _entry(3, "a\u2028b"), _entry(4)]) + "\n",
            encoding="utf-8",
        )
        message = _replay_or_message(transcript)
        assert message.startswith("bad transcript line 3: ")
        assert message == _whole_text_or_message(transcript)

    def test_every_separator_matches_the_whole_text_split(self, tmp_path):
        separators = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                      "\x85", "\u2028", "\u2029"]
        rng = random.Random(2403)
        transcript = tmp_path / "t.jsonl"
        outcomes = set()
        for _ in range(120):
            parts = []
            for _ in range(rng.randint(1, 6)):
                text = "p" if rng.random() < 0.8 else f"p{rng.choice(separators)}q"
                parts.append(_entry(rng.randrange(3), text))
                parts.append(rng.choice(separators) * rng.randint(1, 2))
            transcript.write_text("".join(parts), encoding="utf-8", newline="")
            got = _replay_or_message(transcript)
            assert got == _whole_text_or_message(transcript), repr("".join(parts))
            outcomes.add(isinstance(got, str))
        assert outcomes == {True, False}

    def test_bad_byte_after_the_first_read_buffer(self, rotate_task, tmp_path, capsys):
        lines = []
        size = 0
        while size < 120_000:
            lines.append(_entry(len(lines)).encode("utf-8") + b"\n")
            size += len(lines[-1])
        data = bytearray(b"".join(lines))
        at = data.index(b"rotate90", 100_000)
        data[at] = 0xFF
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(bytes(data))
        message = _replay_or_message(transcript)
        assert message.startswith("transcript is not valid UTF-8: ")
        assert message == _whole_text_or_message(transcript)
        task_path = tmp_path / "task.json"
        task_path.write_bytes(serialize_task(rotate_task))
        assert main(["solve", str(task_path), "--transcript", str(transcript)]) == 2
        assert capsys.readouterr().err.startswith("error: transcript is not valid UTF-8")

    def test_directory_is_not_readable(self, tmp_path):
        assert _replay_or_message(tmp_path).startswith("cannot read transcript: ")


# A fresh interpreter: import the package, solve without a backend, then
# replay a transcript, listing after each step the HTTP modules loaded.
_FOOTPRINT = """
import json, sys
HTTP = ("http.client", "urllib.request", "ssl")
def loaded():
    return [m for m in HTTP if m in sys.modules]
seen = {"start": loaded()}
import symgrid, symgrid.cli
seen["import"] = loaded()
task, transcript = sys.argv[1:]
codes = [symgrid.cli.main(["solve", task])]
seen["solve"] = loaded()
codes.append(symgrid.cli.main(["solve", task, "--samples", "3", "--transcript", transcript]))
seen["replay"] = loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


class TestImportFootprint:
    def test_no_http_stack_without_a_live_call(self, stub_task_and_transcript, tmp_path):
        task, transcript = stub_task_and_transcript
        task_path = tmp_path / "task.json"
        task_path.write_bytes(serialize_task(task))
        import_root = str(Path(symgrid.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=import_root)
        result = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT, str(task_path), str(transcript)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0]
        assert "degraded" not in result.stderr
        assert report["seen"] == {"start": [], "import": [], "solve": [], "replay": []}


class TestDegradation:
    def test_solve_task_degrades_without_aborting(self, rotate_task):
        backend = RemoteBackend(url="http://127.0.0.1:1/", timeout=0.2)
        rs = induce(rotate_task, SearchProposer())
        preds = solve_task(rotate_task, rs, backend=backend, passes=2, samples=2)
        assert preds[0].trace.degraded
        test_input, expected = rotate_task.test[0]
        assert grids_equal(preds[0].attempts[0], expected)

    def test_bad_status_line_degrades_with_a_note(self, rotate_task):
        rs = induce(rotate_task, SearchProposer())
        with raw_reply_server(MALFORMED_REPLIES["bad_status_line"][0]) as url:
            backend = RemoteBackend(url=url, timeout=5)
            preds = solve_task(rotate_task, rs, backend=backend, passes=2, samples=2)
        trace = preds[0].trace
        assert trace.degraded
        assert any(
            note.startswith("backend sampling failed: transport failure")
            for note in trace.notes
        )
        test_input, expected = rotate_task.test[0]
        assert grids_equal(preds[0].attempts[0], expected)

    @pytest.mark.parametrize("content_length", [True, False])
    def test_oversized_body_degrades_with_a_note(
        self, rotate_task, monkeypatch, capsys, content_length
    ):
        monkeypatch.setattr(backend_module, "MAX_BODY_BYTES", 16)
        body = json.dumps({"grids": ["|1|2|", "|3|4|"]}).encode()
        head = b"HTTP/1.0 200 OK\r\n"
        if content_length:
            head += b"Content-Length: %d\r\n" % len(body)
        rs = induce(rotate_task, SearchProposer())
        with raw_reply_server(head + b"\r\n" + body) as url:
            backend = RemoteBackend(url=url, timeout=5)
            preds = solve_task(rotate_task, rs, backend=backend, passes=2, samples=2)
        trace = preds[0].trace
        assert trace.degraded
        assert trace.notes == ["backend sampling failed: response body exceeds 16 bytes"]
        test_input, expected = rotate_task.test[0]
        assert grids_equal(preds[0].attempts[0], expected)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, body, reason",
        [
            ("propose", b'{"patterns": "rotate90()@all"}', "response missing 'patterns' list"),
            ("sample", b'{"grids": [1, 2]}', "response missing 'grids' list"),
            ("sample", b"\xff not json", "bad response body"),
            ("sample", b'["|1|2|"]', "response is not a JSON object"),
        ],
        ids=["patterns_missing", "grids_missing", "bad_body", "not_an_object"],
    )
    def test_bad_live_reply_degrades_with_a_note(self, rotate_task, capsys, mode, body, reason):
        reply = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        with raw_reply_server(reply) as url:
            backend = RemoteBackend(url=url, timeout=5)
            if mode == "propose":
                rs, note = induce_with_fallback(rotate_task, RemotePatternProposer(backend))
                notes = [note]
            else:
                rs = induce(rotate_task, SearchProposer())
                preds = solve_task(rotate_task, rs, backend=backend, passes=2, samples=2)
                assert preds[0].trace.degraded
                notes = preds[0].trace.notes
        stage = "induction" if mode == "propose" else "sampling"
        assert len(notes) == 1
        assert notes[0].startswith(f"backend {stage} failed: {reason}")
        assert rs.patterns[0].pattern.kind == "rotate90"  # the search's rule
        assert "Traceback" not in capsys.readouterr().err

    def test_replay_miss_through_solve_degrades_to_exit_zero(self, rotate_task, tmp_path, capsys):
        # The transcript answers one other request, so the sample request misses.
        task_path = tmp_path / "task.json"
        task_path.write_bytes(serialize_task(rotate_task))
        transcript = tmp_path / "t.jsonl"
        request = {"mode": "propose", "input": "|1|", "output": "|2|", "budget": 1}
        transcript.write_text(json.dumps({"request": request, "response": {"patterns": []}}) + "\n")
        code = main(["solve", str(task_path), "--transcript", str(transcript), "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "degraded=yes" in captured.out
        assert "warning: backend degraded, solved without it" in captured.err
        assert "Traceback" not in captured.err
        test_input, expected = rotate_task.test[0]
        attempt = captured.out.split("# test 0 attempt 1\n")[1].split("\n#")[0]
        assert grids_equal(decode_markdown(attempt), expected)

    def test_remote_samples_join_the_vote(self, stub_server, rotate_task):
        backend = RemoteBackend(url=stub_server, timeout=5)
        rs = induce(rotate_task, SearchProposer())
        preds = solve_task(rotate_task, rs, backend=backend, passes=1, samples=3)
        trace = preds[0].trace
        assert trace.candidate_count >= 4  # 1 rule execution + 3 samples
        test_input, expected = rotate_task.test[0]
        assert grids_equal(preds[0].attempts[0], expected)

    def test_bad_sample_grids_skipped(self, tmp_path, rotate_task):
        # A transcript whose sample response holds three bad grids and the answer.
        rs = induce(rotate_task, SearchProposer())
        test_input, expected = rotate_task.test[0]
        # "\u00b2" and "\u0663" pass str.isdigit() but are no ASCII digits.
        bad = ["|not|valid|", "|\u00b2|", "|\u0663|"]
        grids = bad + [encode_markdown(expected)]
        backend = _sample_replay(tmp_path, rotate_task, rs, 2, grids)
        preds = solve_task(rotate_task, rs, backend=backend, passes=1, samples=2)
        assert not preds[0].trace.degraded
        assert grids_equal(preds[0].attempts[0], expected)
        assert preds[0].trace.candidate_count == 2  # 1 rule + 1 usable sample

    def test_too_many_sample_grids_degrades_with_a_note(self, tmp_path, rotate_task):
        # Each grid would become a vote candidate: past the cap the whole
        # response is a backend failure, and the rule's answer stands.
        rs = induce(rotate_task, SearchProposer())
        test_input, expected = rotate_task.test[0]
        n = backend_module.MAX_SAMPLE_GRIDS + 1
        wrong = encode_markdown(test_input)  # the unrotated input: outvotes the rule
        backend = _sample_replay(tmp_path, rotate_task, rs, 2, [wrong] * n)
        preds = solve_task(rotate_task, rs, backend=backend, passes=1, samples=2)
        trace = preds[0].trace
        assert trace.degraded
        assert trace.notes == [
            f"backend sampling failed: response has {n} grids,"
            f" more than {backend_module.MAX_SAMPLE_GRIDS}"
        ]
        assert trace.candidate_count == 1  # the rule alone
        assert grids_equal(preds[0].attempts[0], expected)

    def test_malformed_sample_grids_dropped_with_a_warning(
        self, tmp_path, rotate_task, caplog, capsys
    ):
        rs = induce(rotate_task, SearchProposer())
        _, expected = rotate_task.test[0]
        grids = [encode_markdown(expected), "|x|", "|1|2|\n|3|"]
        backend = _sample_replay(tmp_path, rotate_task, rs, 3, grids)
        with caplog.at_level("WARNING", logger="symgrid.solver"):
            preds = solve_task(rotate_task, rs, backend=backend, passes=1, samples=3)
        assert not preds[0].trace.degraded
        assert preds[0].trace.candidate_count == 2
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("symgrid.solver", "dropping malformed sample grid: row 0 column 0: bad cell 'x'"),
            ("symgrid.solver", "dropping malformed sample grid: row 1: width 1 differs from width 2"),
        ]
        assert capsys.readouterr().out == ""

    def test_sample_grids_up_to_the_cap_are_kept(self, tmp_path, rotate_task):
        rs = induce(rotate_task, SearchProposer())
        test_input, expected = rotate_task.test[0]
        n = backend_module.MAX_SAMPLE_GRIDS
        backend = _sample_replay(tmp_path, rotate_task, rs, 2, [encode_markdown(expected)] * n)
        preds = solve_task(rotate_task, rs, backend=backend, passes=1, samples=2)
        assert not preds[0].trace.degraded
        assert preds[0].trace.candidate_count == 1 + n


class _InProcessBackend(RemoteBackend):
    """Answers in process, recording each request's canonical form (the
    replay key). Propose replies are ``replay_lines`` of the task being
    answered; sample replies are its expected answer and a malformed grid."""

    def __init__(self):
        super().__init__(url="http://127.0.0.1:1/")
        self.requests = []
        self.lines = []
        self.answers = {}

    def _call(self, request):
        self.requests.append(backend_module._canonical(request))
        if request["mode"] == "propose":
            return {"patterns": self.lines}
        return {"grids": [self.answers[request["test_input"]], "|x|"]}


class TestRequestStream:
    def test_suite_requests_are_pinned(self):
        # Live transcripts and replay keys depend on every request byte:
        # any change to what the backend path sends changes this digest.
        backend = _InProcessBackend()
        for _, task, planted in generate_suite(1007, 100, 20):
            backend.lines = replay_lines(planted)
            backend.answers = {
                encode_markdown(gin): encode_markdown(expected)
                for gin, expected in task.test
            }
            rs = induce(task, RemotePatternProposer(backend))
            solve_task(task, rs, backend=backend, passes=2)
        # 3 propose requests and 1 sample request per task, and one
        # fallback sample request per noise task.
        assert len(backend.requests) == 500
        digest = hashlib.sha256("\n".join(backend.requests).encode("utf-8"))
        assert digest.hexdigest() == (
            "f5f1c7275243aa34b0a2651e9c850ffe21e2e0fcf29b29cf08bbe63c14f6fd56"
        )


def _sample_replay(tmp_path, task, rs, samples, grids):
    """A replaying backend whose one recorded sample request for ``task``'s
    first test input answers ``grids``."""
    test_input, _ = task.test[0]
    request = {
        "mode": "sample",
        "train": [
            {"input": encode_markdown(a), "output": encode_markdown(b)}
            for a, b in task.train
        ],
        "test_input": encode_markdown(test_input),
        "hints": list(rs.hints),
        "samples": samples,
    }
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(
        json.dumps({"request": request, "response": {"grids": grids}}) + "\n"
    )
    return RemoteBackend(transcript_path=str(transcript))
