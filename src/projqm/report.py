"""Deterministic report and CSV artifacts shared by the CLI commands.

Reports are JSON files holding a metadata header and a list of check
entries; an entry passes exactly when its residual is at most its
tolerance and it names no ``failure``.  Determinism is part of the output
contract - identical inputs must produce byte-identical files - so the
writer sorts keys, relies on Python's shortest-roundtrip float repr, and
records no timestamps.  Each entry carries a short digest of the inputs
that produced it (arrays are hashed by their bytes), which identifies
reruns of the same draw without bloating the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReportEntry",
    "Report",
    "digest_inputs",
    "write_csv",
    "format_real",
]


def _canonical(obj):
    """JSON-able, deterministic image of a check's inputs."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            "array_sha": hashlib.sha256(data.tobytes()).hexdigest()[:16],
            "shape": list(data.shape),
            "dtype": str(data.dtype),
        }
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (np.complexfloating, complex)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    raise TypeError(f"cannot digest input of type {type(obj).__name__}")


def digest_inputs(**inputs) -> str:
    """Order-independent 16-hex-char digest of keyword inputs."""
    canon = json.dumps(_canonical(inputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ReportEntry:
    """One verification check: named, digested, and graded.

    ``failure``, when set, says why the check fails whatever its residual -
    a solver that did not converge still records its finite residual.  The
    key is written only when set, so other entries serialize unchanged.
    """

    check_name: str
    inputs_digest: str
    residual: float
    tolerance: float
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None and self.residual <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "check_name": self.check_name,
            "inputs_digest": self.inputs_digest,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }
        if self.failure is not None:
            out["failure"] = self.failure
        return out


@dataclass
class Report:
    """Entry list plus metadata; serialized deterministically."""

    command: str
    metadata: dict = field(default_factory=dict)
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, check_name: str, residual: float, tolerance: float, *,
            failure: str | None = None, **inputs) -> ReportEntry:
        entry = ReportEntry(
            check_name=check_name,
            inputs_digest=digest_inputs(**inputs),
            residual=float(residual),
            tolerance=float(tolerance),
            failure=failure,
        )
        self.entries.append(entry)
        return entry

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "metadata": _canonical(self.metadata),
            "entries": [e.to_dict() for e in self.entries],
            "all_pass": self.all_passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())
        return path


def format_real(x: float) -> str:
    """17-significant-digit decimal form (lossless for binary64)."""
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> str:
    """Write a table of reals as CSV with a header and 17 significant digits.

    ``rows`` is an (n, len(header)) array or a list of equal-length lists;
    each value is written as :func:`format_real` writes it.
    """
    table = np.asarray(rows, dtype=np.float64)
    if table.shape == (0,):
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"expected rows of {len(header)} values, got shape {table.shape}")
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [fmt % tuple(row) for row in table.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
