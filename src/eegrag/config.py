"""Pipeline configuration: defaults, validation, and key=value file parsing.

Secrets never live in config files; remote client authentication names an
environment variable instead (``remote_auth_env``), read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import PreconditionError
from .fusion import AblationFlags
from .hypergraph import LAYERS
from .jsonl import shown


@dataclass
class PipelineConfig:
    """All tunables in one place; defaults are the shipped operating point."""

    embedding_dim: int = 256
    paa_segments: int = 20
    dtw_band: int | None = None
    eeg_top_k: int = 5
    hyperedge_top_k: int = 1
    retrieval_layer: str | None = "knowledge"
    closure_radius: int = 1
    closure_budget: int = 32
    pseudo_tau: float = 0.80
    channel_blocked_dtw: bool = False
    ablation: AblationFlags = field(default_factory=AblationFlags)
    client: str = "mock"  # "mock" | "remote"
    remote_endpoint: str = ""
    remote_model: str = ""
    remote_auth_env: str | None = None
    remote_timeout: float = 30.0
    remote_retries: int = 2
    remote_max_inflight: int = 4
    bootstrap_resamples: int = 1000
    seed: int = 7

    def __post_init__(self):
        for name in (
            "embedding_dim",
            "paa_segments",
            "eeg_top_k",
            "hyperedge_top_k",
            "closure_budget",
            "remote_max_inflight",
        ):
            if getattr(self, name) < 1:
                raise PreconditionError(f"{name} must be >= 1")
        for name in ("closure_radius", "remote_retries", "bootstrap_resamples", "seed"):
            if getattr(self, name) < 0:
                raise PreconditionError(f"{name} must be >= 0")
        if not 0.0 < self.pseudo_tau <= 1.0:
            raise PreconditionError("pseudo_tau must be in (0, 1]")
        if self.dtw_band is not None and self.dtw_band < 0:
            raise PreconditionError("dtw_band must be >= 0")
        if self.retrieval_layer not in (None, *LAYERS):
            raise PreconditionError(
                f"unknown retrieval_layer {shown(self.retrieval_layer)}; "
                f"expected one of {', '.join(LAYERS)} or none"
            )
        if self.client not in ("mock", "remote"):
            raise PreconditionError(f"unknown client {shown(self.client)}")
        if not 0.0 < self.remote_timeout < float("inf"):
            raise PreconditionError("remote_timeout must be > 0 and finite")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "PipelineConfig":
        """Build from flat string key/value pairs (config file or --set overrides)."""
        config = cls()
        config.apply(mapping)
        return config

    def apply(self, mapping: dict[str, str]) -> None:
        """Set each key of ``mapping`` from its string. The whole result is
        checked first, so a refused mapping leaves the config unchanged."""
        own = {f.name: f.type for f in fields(self) if f.name != "ablation"}
        changes, flags = {}, {}
        for key, raw in mapping.items():
            key = key.strip().lower()
            if key in ("cl", "il", "el"):
                flags[key] = _parse_bool(key, raw)
            elif key in own:
                changes[key] = _coerce_field(key, raw, own[key])
            else:
                raise PreconditionError(f"unknown config key {key!r}")
        checked = replace(self, ablation=replace(self.ablation, **flags), **changes)  # runs __post_init__
        vars(self).update(vars(checked))

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Parse a ``key = value`` file; blank lines and ``#`` comments ignored."""
        mapping: dict[str, str] = {}
        try:
            # utf-8-sig drops a leading byte order mark
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"{path}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise PreconditionError(f"{path}: line {lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(key: str, raw: str) -> bool:
    val = raw.strip().lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise PreconditionError(f"config key {key!r}: expected a boolean, got {raw!r}")


def _coerce_field(key: str, raw: str, annotation: str):
    # annotations are strings under `from __future__ import annotations`
    ann = str(annotation)
    if "bool" in ann:
        return _parse_bool(key, raw)
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if "None" not in ann:
            raise PreconditionError(f"config key {key!r} must not be none")
        return None
    target = int if "int" in ann else float if "float" in ann else str
    try:
        return target(raw)
    except ValueError as exc:
        raise PreconditionError(f"config key {key!r}: {exc}") from exc
