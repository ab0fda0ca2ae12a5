"""Runtime configuration for the CLI: caps, samples, seeds, step sizes.

An optional config file holds flat ``key = value`` lines (# comments
allowed); command-line flags override file values.
"""

from __future__ import annotations

from typing import NamedTuple


class Config(NamedTuple):
    enum_cap: int = 42
    mc_samples: int = 1_000_000
    mc_batches: int = 16
    seed: int = 0
    fd_step: float = 1e-4
    format: str = "json"  # json | csv | md

    def validate(self):
        if self.enum_cap <= 0 or self.mc_samples <= 0 or self.mc_batches <= 0:
            raise ValueError("caps and sample counts must be positive")
        if not 0 < self.fd_step < float("inf"):
            raise ValueError(f"fd_step must be finite and > 0: {self.fd_step}")
        if self.format not in ("json", "csv", "md"):
            raise ValueError(f"unknown format {self.format!r}")
        return self


def load_config(path: str) -> dict:
    """Parse ``key = value`` lines; types inferred from Config defaults.
    An unreadable file raises ValueError, as a malformed one does, and a
    line that does not parse is named as path:lineno."""
    types = {name: type(default) for name, default in Config._field_defaults.items()}
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"config file {path}: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = types[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def make_config(file_path=None, **overrides) -> Config:
    kwargs = load_config(file_path) if file_path else {}
    for key, val in overrides.items():
        if val is not None:
            kwargs[key] = val
    return Config(**kwargs).validate()
