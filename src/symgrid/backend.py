"""Remote proposer/sampler client with transcript record/replay.

One HTTP endpoint, JSON body. Two request modes:

    {"mode": "propose", "input": <md>, "output": <md>, "budget": n}
        -> {"patterns": ["kind(...)@selector", ...]}
    {"mode": "sample", "train": [{"input": <md>, "output": <md>}, ...],
     "test_input": <md>, "hints": [...], "samples": n}
        -> {"grids": [<md>, ...]}

Grids travel in the markdown table encoding. A bearer token, when
provided, is sent in the Authorization header and never written to logs
or transcripts.

Transcripts are JSONL files of {"request": ..., "response": ...} lines.
With a URL and a transcript path the client records; with a transcript
path alone it replays, matching requests by their canonical JSON form
(FIFO among identical requests). A replay miss raises BackendError, which
callers treat like any transport failure; so does a live response body
longer than ``MAX_BODY_BYTES`` and a sample response with more than
``MAX_SAMPLE_GRIDS`` grids.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .config import MAX_SAMPLE_GRIDS
from .errors import BackendError

# The largest response body read: room for thousands of pattern lines or
# 30x30 sample grids. A longer body is a BackendError, like a bad one.
MAX_BODY_BYTES = 4 << 20


def _canonical(request: dict) -> str:
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


@dataclass
class RemoteBackend:
    url: str | None = None
    timeout: float = 30.0
    token: str | None = None
    transcript_path: str | None = None

    def __post_init__(self) -> None:
        if self.url is None and self.transcript_path is None:
            raise BackendError("backend needs a URL, a transcript, or both")
        self._replay: dict[str, deque[dict]] | None = None
        if self.url is None and self.transcript_path is not None:
            self._replay = {}
            path = Path(self.transcript_path)
            if not path.exists():
                raise BackendError(f"transcript not found: {self.transcript_path}")
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as e:
                raise BackendError(f"cannot read transcript: {e}") from e
            except UnicodeDecodeError as e:
                raise BackendError(f"transcript is not valid UTF-8: {e}") from e
            for line_no, line in enumerate(text.splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    key = _canonical(entry["request"])
                    response = entry["response"]
                except (json.JSONDecodeError, KeyError, TypeError) as e:
                    raise BackendError(
                        f"bad transcript line {line_no}: {e}"
                    ) from e
                except RecursionError:
                    raise BackendError(
                        f"bad transcript line {line_no}: nested too deeply"
                    ) from None
                if not isinstance(response, dict):
                    raise BackendError(
                        f"bad transcript line {line_no}: response is not a JSON object"
                    )
                self._replay.setdefault(key, deque()).append(response)

    def _call(self, request: dict) -> dict:
        if self._replay is not None:
            queue = self._replay.get(_canonical(request))
            if not queue:
                raise BackendError("no recorded response for this request")
            return queue.popleft()

        assert self.url is not None
        body = json.dumps(request).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            # A malformed URL raises ValueError here, not in urlopen.
            req = urllib.request.Request(self.url, data=body, headers=headers)
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read(MAX_BODY_BYTES + 1)
                if len(payload) <= MAX_BODY_BYTES and resp.length:
                    # Unlike read(), read(n) does not check Content-Length.
                    raise http.client.IncompleteRead(payload, resp.length)
        except (
            urllib.error.URLError,
            OSError,
            ValueError,
            http.client.HTTPException,  # BadStatusLine, IncompleteRead, ...
        ) as e:
            raise BackendError(f"transport failure: {e}") from e
        if len(payload) > MAX_BODY_BYTES:
            raise BackendError(f"response body exceeds {MAX_BODY_BYTES} bytes")
        try:
            response = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise BackendError(f"bad response body: {e}") from e
        if not isinstance(response, dict):
            raise BackendError("response is not a JSON object")
        if self.transcript_path is not None:
            with open(self.transcript_path, "a") as fh:
                fh.write(
                    json.dumps({"request": request, "response": response}) + "\n"
                )
        return response

    def propose(self, input_md: str, output_md: str, budget: int) -> list[str]:
        """Candidate pattern lines for one train pair."""
        response = self._call(
            {"mode": "propose", "input": input_md, "output": output_md, "budget": budget}
        )
        patterns = response.get("patterns")
        if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
            raise BackendError("response missing 'patterns' list")
        return patterns

    def sample(
        self, train: list[dict], test_input: str, hints: list[str], n: int
    ) -> list[str]:
        """Sampled answer grids (markdown) for one test input."""
        response = self._call(
            {
                "mode": "sample",
                "train": train,
                "test_input": test_input,
                "hints": hints,
                "samples": n,
            }
        )
        grids = response.get("grids")
        if not isinstance(grids, list) or not all(isinstance(g, str) for g in grids):
            raise BackendError("response missing 'grids' list")
        if len(grids) > MAX_SAMPLE_GRIDS:
            raise BackendError(
                f"response has {len(grids)} grids, more than {MAX_SAMPLE_GRIDS}"
            )
        return grids


@dataclass
class RemotePatternProposer:
    """Stage-2 proposer backed by the remote endpoint.

    Returns raw pattern lines; the induction layer parses them, drops
    malformed ones with a warning, and verifies the rest.
    """

    backend: RemoteBackend

    def propose(self, scene, output, budget: int) -> list[str]:
        from .grid import encode_markdown

        return self.backend.propose(
            encode_markdown(scene.grid), encode_markdown(output), budget
        )
