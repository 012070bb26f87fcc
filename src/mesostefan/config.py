"""Flat key = value run configuration ('#' comments, one pair per line)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .antisym import DEFAULT_N0
from .errors import DomainError


@dataclass
class RunConfig:
    beta: float = 2.0
    j: float = -0.02
    x0: float = 0.0
    ell: float = 1.0
    eps_list: list = field(default_factory=lambda: [0.1, 0.05, 0.025])
    spacing: float = 0.05
    kernel: str = "cos2"
    n0: int = DEFAULT_N0
    mode: str = "antisym"           # antisym | metastable | asym
    outdir: str = "runs"

    def validate_fields(self):
        floats = [getattr(self, name) for name in _FLOAT_KEYS] + self.eps_list
        if not all(math.isfinite(v) for v in floats):
            raise DomainError("numeric values must be finite")
        if self.beta <= 1.0:
            raise DomainError("beta must exceed 1")
        if not self.eps_list:
            raise DomainError("eps_list must name at least one scale")
        if any(e2 >= e1 for e1, e2 in zip(self.eps_list, self.eps_list[1:])):
            raise DomainError("eps_list must be strictly decreasing")
        if self.mode not in ("antisym", "metastable", "asym"):
            raise DomainError(f"unknown mode {self.mode!r}")
        # the centred modes solve at x0 = 0, the off-center one on [-1, 1]
        if self.mode != "asym" and self.x0 != 0.0:
            raise DomainError(f"x0 = {self.x0:g} is ignored by mode "
                              f"{self.mode}: only asym places the interface "
                              f"off center")
        if self.mode == "asym" and self.ell != 1.0:
            raise DomainError(f"ell = {self.ell:g} is ignored by mode asym: "
                              f"it solves on [-1, 1]")
        return self


_FLOAT_KEYS = {"beta", "j", "x0", "ell", "spacing"}
_INT_KEYS = {"n0"}
_LIST_KEYS = {"eps_list"}
_KEYS = {f.name for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise DomainError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _LIST_KEYS:
                setattr(cfg, key, [float(tok) for tok in value.split(",")
                                   if tok.strip()])
            else:
                setattr(cfg, key, value)
        except ValueError:
            kind = "an integer" if key in _INT_KEYS else "a number"
            raise DomainError(f"line {lineno}: {key} = {value!r} is not "
                              f"{kind}") from None
    return cfg.validate_fields()


def load_config(path) -> RunConfig:
    """The config in the file at ``path``; a file that cannot be read is a
    DomainError, like text that does not parse."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") \
            from None
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot parse {path}: {exc}") from None
    return parse_config(text)
