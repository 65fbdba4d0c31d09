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

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReportEntry",
    "Report",
    "digest_inputs",
    "write_csv",
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


# ---------------------------------------------------------------------------
# CSV: exact ``%.17g`` for a block of values at once
#
# A finite x with 1e-280 < |x| < 1e280 and decimal exponent X prints the
# 17-digit integer D = round(|x| 10**(16 - X)).  10**(16 - X) is held as a
# double-double (hi, lo) built from exact integers; Dekker's TwoProduct splits
# |x| hi exactly into p + e, and since p >= 2**53 is an integer,
# D = p + round(e + |x| lo), with the neglected terms below 1e-14 of a unit.
# A value whose residual lies within 1e-6 of a half (exact ties included) is
# left to CPython's ``%``, and so is every nonzero |x| outside that range
# (subnormals, infinities and NaN included): the vector code never has to
# break a tie.  Each value's bytes are then gathered from a per-block table of
# characters, one row per character, by the index row of the value's layout
# code.

_BLOCK_VALUES = 4096  # values per block of vector arithmetic
_CHUNK_VALUES = 1024  # values per byte gather, which keeps its indices in L2
_NEAR_TIE = 0.5 - 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for binary64
_OFFSET = 300  # decimal exponent e sits in column e + _OFFSET of the tables

# Character-table rows: the 17 digits, the exponent's sign and three digits,
# the separator that follows the value, then constant characters.
_ESIGN, _E100, _E10, _E1, _SEP = 17, 18, 19, 20, 21
_CONST = b"-0.e%17g\0"
_MINUS, _ZERO, _DOT, _E, _PCT, _ONE, _SEVEN, _G, _PAD = range(22, 22 + len(_CONST))
_WIDTH = 25  # the longest value, "-d.dddddddddddddddde-ddd", and its separator

# Layout codes.  A value formatted here has code (layout * 17 + nd - 1) * 2 +
# sign: nd counts its digits up to the last nonzero one, and layout is X + 4
# where %g prints it positionally (-4 <= X <= 16), 21 where it prints a
# two-digit exponent and 22 for a three-digit one.  Zero is _ZEROVAL + sign,
# and _HOLE, a ``%.17g`` for ``%`` to fill, serves the rest.
_ZEROVAL = 23 * 17 * 2
_HOLE = _ZEROVAL + 2


def _layout(code: int) -> list[int]:
    """Character-table rows, in print order, of a value with this code."""
    if code == _HOLE:
        return [_PCT, _DOT, _ONE, _SEVEN, _G, _SEP]
    if code >= _ZEROVAL:
        return [_MINUS] * (code & 1) + [_ZERO, _SEP]
    layout, nd = divmod(code >> 1, 17)
    nd += 1
    if layout < 4:  # 0.000ddd, X = layout - 4
        body = [_ZERO, _DOT] + [_ZERO] * (3 - layout) + list(range(nd))
    elif layout <= 20:  # X + 1 digits before the point
        q = layout - 3
        body = list(range(max(q, nd)))
        if nd > q:
            body.insert(q, _DOT)
    else:
        body = [0] + ([_DOT] + list(range(1, nd)) if nd > 1 else [])
        body += [_E, _ESIGN] + [_E100] * (layout == 22) + [_E10, _E1]
    return [_MINUS] * (code & 1) + body + [_SEP]


def _decade(e: int) -> tuple[float, float, float, float, float]:
    """Exact facts of decimal exponent ``e``, from integer arithmetic.

    The smallest double >= 10**e, then 10**(16 - e) as a double-double
    (hi, lo), then Veltkamp's halves of hi.
    """
    def nearest(num: int, den: int) -> tuple[float, float]:
        """num / den correctly rounded, and the rounded remainder."""
        q = num / den
        a, b = q.as_integer_ratio()
        return q, (num * b - a * den) / (den * b)

    near, below = nearest(10**e, 1) if e >= 0 else nearest(1, 10**-e)
    threshold = near if below <= 0 else math.nextafter(near, math.inf)
    k = 16 - e
    hi, lo = nearest(10**k, 1) if k >= 0 else nearest(1, 10**-k)
    c = hi * _SPLIT
    bh = c - (c - hi)
    return threshold, hi, lo, bh, hi - bh


class _Tables:
    """The lookup tables of the CSV formatter, built at its first use.

    ``layouts`` holds every code's ``_layout`` row.  Per decimal exponent e,
    in column e + _OFFSET: ``facts`` holds ``_decade(e)``, filled on demand
    over one growing interval of columns; ``code_base`` is the layout code
    less 2 nd + sign, and ``exponent`` the exponent's sign and three digits.
    """

    def __init__(self):
        self.layouts = np.array([row + [_PAD] * (_WIDTH - len(row))
                                 for row in map(_layout, range(_HOLE + 1))], dtype=np.intp)
        self.facts = np.full((5, 2 * _OFFSET), np.nan)
        self.lo = self.hi = _OFFSET
        e = np.arange(2 * _OFFSET) - _OFFSET
        mag = np.abs(e)
        layout = np.where((e >= -4) & (e <= 16), e + 4, 21 + (mag >= 100))
        self.code_base = (layout * 17 - 1) * 2
        self.exponent = np.stack([np.where(e < 0, ord("-"), ord("+")), mag // 100 + 48,
                                  mag // 10 % 10 + 48, mag % 10 + 48]).astype(np.uint8)

    def cover(self, lo: int, hi: int) -> np.ndarray:
        """``facts``, with columns lo ... hi - 1 filled."""
        if lo < self.lo or hi > self.hi:
            lo, hi = min(lo, self.lo), max(hi, self.hi)
            for col in [*range(lo, self.lo), *range(self.hi, hi)]:
                self.facts[:, col] = _decade(col - _OFFSET)
            self.lo, self.hi = lo, hi
        return self.facts


@functools.cache
def _tables() -> _Tables:
    return _Tables()


class _BlockFormatter:
    """Formats the row blocks of one table, reusing one set of buffers."""

    def __init__(self, block_rows: int, ncol: int):
        n = block_rows * ncol
        self.src = np.empty((22 + len(_CONST), n), dtype=np.uint8)
        self.src[22:] = np.frombuffer(_CONST, dtype=np.uint8)[:, None]
        self.src[_SEP] = np.tile(
            np.frombuffer(b"," * (ncol - 1) + b"\n", dtype=np.uint8), block_rows)
        # a layout row gathers src[row, value] from flat index row * n + value
        self.tables = _tables()
        self.rows = self.tables.layouts * n
        chunk = min(n, _CHUNK_VALUES)
        self.columns = np.repeat(np.arange(chunk), _WIDTH).reshape(chunk, _WIDTH)
        self.index = np.empty((chunk, _WIDTH), dtype=np.intp)
        self.chars = np.empty((chunk, _WIDTH), dtype=np.uint8)
        self.places = np.arange(1, 18, dtype=np.uint8)[:, None]
        self.row_fmt = (",".join(["%.17g"] * ncol) + "\n").encode("ascii")

    def format(self, block: np.ndarray) -> bytes:
        """The CSV bytes of a block of whole rows."""
        v = block.ravel()
        a = np.abs(v)
        sign = np.signbit(v)
        rest = np.flatnonzero(~((a > 1e-280) & (a < 1e280)))
        zero = a[rest] == 0.0
        if 2 * (rest.size - np.count_nonzero(zero)) > v.size:
            # mostly left to ``%``: all of it is
            return (self.row_fmt * len(block)) % tuple(v.tolist())
        a[rest] = 1.0
        code = self._digits(a, sign)
        code[rest] = np.where(zero, _ZEROVAL + sign[rest], _HOLE)
        text = self._gather(code)
        hole = code == _HOLE
        if hole.any():
            text %= tuple(v[hole].tolist())
        return text

    def _digits(self, x: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """Write the digit and exponent rows of ``src``; return layout codes.

        ``x`` > 0 is rounded to 17 digits; a near-tie gets code ``_HOLE``.
        """
        n = x.size
        tables = self.tables
        col = np.log10(x)
        col = np.floor(col, out=col).astype(np.intp)
        col += _OFFSET
        threshold, hi, lo, bh, bl = tables.cover(int(col.min()) - 1, int(col.max()) + 2)
        col += x >= threshold.take(col + 1)
        col -= x < threshold.take(col)  # now the exact decimal exponent
        hi, lo, bh, bl = hi.take(col), lo.take(col), bh.take(col), bl.take(col)
        p = x * hi
        c = x * _SPLIT
        ah = c - (c - x)
        al = x - ah
        # x hi - p exactly (Dekker), plus x lo: |x| 10**(16 - X) - p
        r = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + x * lo
        rr = np.rint(r)
        tie = np.abs(r - rr) > _NEAR_TIE
        d = p.astype(np.int64)
        d += rr.astype(np.int64)
        carry = d == 10**17  # rounded up into the next decade
        d[carry] = 10**16
        col += carry

        # the 17 digits, through 8- 4- and 2-digit groups in uint32
        src = self.src[:, :n]
        top = d // 10**8
        lead = top // 10**8
        eights = np.empty((2, n), dtype=np.uint32)
        eights[0] = top - lead * 10**8
        eights[1] = d - top * 10**8
        quads = np.empty((4, n), dtype=np.uint32)
        quads[0::2] = eights // 10000
        quads[1::2] = eights - quads[0::2] * 10000
        pairs = np.empty((8, n), dtype=np.uint32)
        pairs[0::2] = quads // 100
        pairs[1::2] = quads - pairs[0::2] * 100
        tens = pairs // 10
        src[0] = lead + 48
        src[1:17:2] = tens + 48
        src[2:17:2] = pairs - tens * 10 + 48
        tables.exponent.take(col, axis=1, out=src[_ESIGN:_E1 + 1])
        nd = ((src[:17] != 48) * self.places).max(axis=0)

        code = tables.code_base.take(col)
        code += nd * 2
        code += sign
        code[tie] = _HOLE
        return code

    def _gather(self, code: np.ndarray) -> bytes:
        """Each value's characters, by its layout row, in chunks."""
        flat = self.src.ravel()
        size = len(self.index)
        parts = []
        for start in range(0, code.size, size):
            part = code[start:start + size]
            m = part.size
            index = self.rows.take(part, axis=0, out=self.index[:m], mode="clip")
            index += self.columns[:m]
            index += start
            chars = flat.take(index, out=self.chars[:m], mode="clip")
            parts.append(chars[chars != 0].tobytes())
        return b"".join(parts)


def write_csv(path: str, header: list[str], rows) -> str:
    """Write a table of reals as CSV with a header and 17 significant digits.

    ``rows`` is an (n, len(header)) array or a list of equal-length lists.
    Every value is written with exactly the bytes of ``'%.17g' % v``, which
    read back as the same binary64 value.  The table is formatted and written
    in blocks of about 4096 values.  In each block numpy computes the 17
    digits exactly for every finite 1e-280 < |x| < 1e280 and lays out those
    values and the zeros; one ``%`` over the block's list of the rest
    formats them: NaN, infinities, subnormals and other |x| outside that
    range, and values within 1e-6 of a tie at the 17th digit.  A block where
    the values outside that range, zeros aside, are the majority goes to
    ``%`` whole.
    """
    table = np.asarray(rows, dtype=np.float64)
    if table.shape == (0,):
        table = table.reshape(0, len(header))
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"expected rows of {len(header)} values, got shape {table.shape}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if table.size == 0:
            fh.write(b"\n" * len(table))
            return path
        block_rows = max(1, _BLOCK_VALUES // table.shape[1])
        blocks = _BlockFormatter(min(block_rows, len(table)), table.shape[1])
        for start in range(0, len(table), block_rows):
            fh.write(blocks.format(table[start:start + block_rows]))
    return path
