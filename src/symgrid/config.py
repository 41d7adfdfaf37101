"""Run configuration: a dataclass loaded from JSON with flag overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

# The most grids one sample response may carry, and so the most samples a
# run may ask for. Each grid becomes a vote candidate; the solver asks for
# a handful (5 by default), so a longer response is a misbehaving server
# and the backend raises BackendError for it.
MAX_SAMPLE_GRIDS = 64


@dataclass
class Config:
    connectivity: int = 4
    confidence_threshold: float = 1.0
    search_budget: int = 2000
    passes: int = 2
    samples: int = 5
    backend_url: str | None = None
    transcript_path: str | None = None
    timeout: float = 30.0
    proposer: str = "search"  # search | remote; config-file only

    def __post_init__(self) -> None:
        if self.connectivity not in (4, 8):
            raise ConfigError(f"connectivity must be 4 or 8, got {self.connectivity}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError(
                f"confidence_threshold must be in [0,1], got {self.confidence_threshold}"
            )
        if self.search_budget <= 0:
            raise ConfigError(f"search_budget must be positive, got {self.search_budget}")
        if self.passes not in (1, 2):
            raise ConfigError(f"passes must be 1 or 2, got {self.passes}")
        if not 0 <= self.samples <= MAX_SAMPLE_GRIDS:
            raise ConfigError(
                f"samples must be in [0,{MAX_SAMPLE_GRIDS}], got {self.samples}"
            )
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.proposer not in ("search", "remote"):
            raise ConfigError(f"proposer must be 'search' or 'remote', got {self.proposer}")


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional JSON file; overrides win."""
    values: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {path} is not valid UTF-8: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        except RecursionError:
            raise ConfigError(f"config {path} is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path}: expected a JSON object")
        known = {f.name for f in fields(Config)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"config {path}: unknown keys {unknown}")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return Config(**values)
    except TypeError as e:
        raise ConfigError(str(e)) from e
