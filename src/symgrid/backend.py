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
longer than ``MAX_BODY_BYTES`` or still arriving when the call's timeout
has passed, and a sample response with more than ``MAX_SAMPLE_GRIDS``
grids. A recorded exchange that cannot be appended to the transcript
raises a plain SymgridError instead, which callers do not degrade on.

The HTTP client modules load on the first live call, and a replayed
transcript is read a line at a time.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .config import MAX_SAMPLE_GRIDS
from .errors import BackendError, SymgridError
from .grid import encode_markdown

if TYPE_CHECKING:
    import http.client

# The largest response body read: room for thousands of pattern lines or
# 30x30 sample grids. A longer body is a BackendError, like a bad one.
MAX_BODY_BYTES = 4 << 20

# A request's replay key; one stateless encoder, not one per json.dumps call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _load_transcript(fh: TextIO) -> dict[str, deque[dict]]:
    """Each transcript line's response, queued under its request's key.

    The file is read a line at a time, never whole. Each line the file
    object yields is split again with ``str.splitlines``, so line numbers
    and the lines themselves are those of ``read_text().splitlines()``,
    U+2028 and the other separators it knows included.
    """
    replay: dict[str, deque[dict]] = {}
    lines = chain.from_iterable(map(str.splitlines, fh))
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            key = _canonical(entry["request"])
            response = entry["response"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise BackendError(f"bad transcript line {line_no}: {e}") from e
        except RecursionError:
            raise BackendError(
                f"bad transcript line {line_no}: nested too deeply"
            ) from None
        if not isinstance(response, dict):
            raise BackendError(
                f"bad transcript line {line_no}: response is not a JSON object"
            )
        replay.setdefault(key, deque()).append(response)
    return replay


def _file_offset(path: Path, error: UnicodeDecodeError) -> UnicodeDecodeError:
    """``error`` with its position counted from the start of the file.

    A streaming decoder counts from the chunk it was decoding; the error
    path alone decodes the whole file again to name the byte's offset.
    """
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        return whole
    except OSError:
        pass
    return error


@dataclass
class RemoteBackend:
    """The HTTP client, or the replay of its transcript.

    ``timeout`` bounds a live call: no socket operation waits longer, and
    no chunk of the response body is read once ``timeout`` seconds have
    passed since the request started.
    """

    url: str | None = None
    timeout: float = 30.0
    token: str | None = None
    transcript_path: str | None = None

    def __post_init__(self) -> None:
        if self.url is None and self.transcript_path is None:
            raise BackendError("backend needs a URL, a transcript, or both")
        self._replay: dict[str, deque[dict]] | None = None
        if self.url is None and self.transcript_path is not None:
            path = Path(self.transcript_path)
            if not path.exists():
                raise BackendError(f"transcript not found: {self.transcript_path}")
            try:
                with path.open(encoding="utf-8") as fh:
                    self._replay = _load_transcript(fh)
            except OSError as e:
                raise BackendError(f"cannot read transcript: {e}") from e
            except UnicodeDecodeError as e:
                raise BackendError(
                    f"transcript is not valid UTF-8: {_file_offset(path, e)}"
                ) from e

    def _call(self, request: dict) -> dict:
        if self._replay is not None:
            queue = self._replay.get(_canonical(request))
            if not queue:
                raise BackendError("no recorded response for this request")
            return queue.popleft()

        # The HTTP stack loads here, on the first live call: a replayed or
        # backend-less run never pays for http.client, ssl and email.
        import http.client
        import urllib.request

        assert self.url is not None
        body = json.dumps(request).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        deadline = time.monotonic() + self.timeout
        try:
            # A malformed URL raises ValueError here, not in urlopen.
            req = urllib.request.Request(self.url, data=body, headers=headers)
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = self._read_body(resp, deadline)
                if len(payload) <= MAX_BODY_BYTES and resp.length:
                    # Unlike read(), read1(n) does not check Content-Length.
                    raise http.client.IncompleteRead(payload, resp.length)
        except (
            OSError,  # URLError and HTTPError among them
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
            # Not a BackendError: the backend answered, and a recording run
            # that cannot record stops with exit 2 instead of degrading.
            try:
                with open(self.transcript_path, "a") as fh:
                    fh.write(
                        json.dumps({"request": request, "response": response}) + "\n"
                    )
            except OSError as e:
                raise SymgridError(f"cannot write transcript: {e}") from e
        return response

    def _read_body(self, resp: http.client.HTTPResponse, deadline: float) -> bytes:
        """The body up to one byte past ``MAX_BODY_BYTES``, read in chunks.

        ``urlopen``'s timeout bounds each socket read, not their sum, so a
        server that drips its body could hold the call for ever; no chunk
        is read once ``deadline`` has passed.
        """
        chunks = []
        size = 0
        while size <= MAX_BODY_BYTES:
            if time.monotonic() > deadline:
                raise BackendError(f"response not complete within {self.timeout} s")
            chunk = resp.read1(MAX_BODY_BYTES + 1 - size)
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
        return b"".join(chunks)

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

    def propose(self, pair, budget: int) -> list[str]:
        return self.backend.propose(
            encode_markdown(pair.scene.grid), encode_markdown(pair.output), budget
        )
