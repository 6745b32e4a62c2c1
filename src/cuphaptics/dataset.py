"""Datasets: the ``Samples`` table, CSV persistence and splitting.

A dataset is one ``Samples``: a read-only (n, 7) float64 table whose
columns follow the CSV schema below. ``samples.table`` is that array,
``samples.p_ch``, ``samples.p_atm`` and ``samples.phi_deg`` are column
views, and ``samples[i]`` builds the ``LabeledSample`` (frame and pose) of
row i, so per-row objects exist only where a caller asks for one.
``Samples`` holds only rows that ``_labeled``, the one row rule, accepts
(``read_csv``'s csv pass and the search's rejected step check rows by it
too), with each yaw as ``Angle`` stores it; so the modules that generate,
train on and score a dataset check no row.

The on-disk format is a plain CSV with the exact header

    p_ch1_kpa,p_ch2_kpa,p_ch3_kpa,p_ch4_kpa,p_atm_kpa,delta_mm,phi_deg

comma-separated, '.' decimal point, UTF-8, LF line endings, one row per
sample, numbers printed with 9 significant digits. Round trips are
lossless at that precision. ``read_csv`` parses with numpy's C reader and
builds the ``Samples`` from its table; the csv module's row pass reads what
that cannot vouch for or ``Samples`` refuses, one checked row at a time,
and names the first bad line of a bad file.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Angle, GroundTruthPose, SensorFrame, _wrap_deg, frames_valid
from .errors import (
    ConfigError,
    CsvParseError,
    InvalidInputError,
    _hold,
    require_count,
    require_real,
)
from .rng import SPLIT, substream

CSV_COLUMNS = (
    "p_ch1_kpa",
    "p_ch2_kpa",
    "p_ch3_kpa",
    "p_ch4_kpa",
    "p_atm_kpa",
    "delta_mm",
    "phi_deg",
)


@dataclass(frozen=True, slots=True)
class LabeledSample:
    """One sensor frame paired with the pose that produced it."""

    frame: SensorFrame
    pose: GroundTruthPose


def _labeled(row: Sequence[float]) -> LabeledSample:
    """The ``LabeledSample`` of a CSV_COLUMNS row by the dataset's one row rule:
    ``phi_deg`` in [0, 360], then ``SensorFrame``, then ``GroundTruthPose``. It
    names ``Samples``' first refused row, checks each ``_csv_rows`` row and
    each row of a search step the table path rejects."""
    *p_ch, p_atm, delta, phi = row
    if not (0.0 <= phi <= 360.0):
        raise InvalidInputError(f"phi_deg must be in [0, 360], got {phi}")
    return LabeledSample(
        frame=SensorFrame(p_ch=tuple(p_ch), p_atm=p_atm),
        pose=GroundTruthPose(delta=delta, phi=Angle(phi)),
    )


def _checked_table(table: object) -> np.ndarray:
    """``table`` itself if it is a float64 (n, 7) array; else InvalidInputError."""
    if not isinstance(table, np.ndarray):
        got = type(table).__name__
    elif table.dtype != np.float64 or table.shape[1:] != (len(CSV_COLUMNS),):
        got = f"{table.dtype} of shape {table.shape}"
    else:
        return table
    raise InvalidInputError(
        f"samples table must be a float64 array of shape (n, {len(CSV_COLUMNS)}), got {got}"
    )


def _rows_ok(table: np.ndarray) -> np.ndarray:
    """Per row of an (n, 7) table: whether ``SensorFrame`` accepts its frame,
    delta is in [0, inf) and phi in [0, 360]; false on a non-finite value."""
    p_atm, delta, phi = table[:, 4:5], table[:, 5], table[:, 6]
    ok = frames_valid(table[:, 0:4], p_atm) & (0.0 <= delta) & (delta < np.inf)
    return ok & (0.0 <= phi) & (phi <= 360.0)


@dataclass(frozen=True, eq=False)
class Samples:
    """A dataset as one read-only (n, 7) float64 table in CSV_COLUMNS order.

    A table from outside is checked a column at a time (``_rows_ok``), and
    the first row refused goes through ``_labeled``, raising
    ``InvalidInputError`` as ``row i: <message>``. It checks one C-ordered
    copy, which no later write to the caller's array reaches, and holds
    each yaw as ``Angle`` stores it, through ``_wrap_deg`` (the column form
    of its rule: 360 as 0, -0.0 as +0.0). Indexing with an int
    gives that row's ``LabeledSample``; indexing with a slice, an index
    array or a mask gives another ``Samples``, of rows already checked.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        self._hold(np.array(_checked_table(self.table), order="C"))  # one copy, any layout

    @classmethod
    def _adopt(cls, table: np.ndarray) -> Samples:
        """The ``Samples`` of a table its builder writes no more: not copied
        where it is C-contiguous, writable and owns its data."""
        samples = object.__new__(cls)
        samples._hold(np.require(_checked_table(table), None, "COW"))
        return samples

    def _hold(self, table: np.ndarray) -> None:
        """Check ``table``, which no one else writes, then wrap and freeze it."""
        ok = _rows_ok(table)
        if not ok.all():
            i = int(ok.argmin())
            try:
                _labeled(table[i].tolist())
            except InvalidInputError as exc:
                raise InvalidInputError(f"row {i}: {exc}") from None
            raise AssertionError(f"row {i} is refused by the table check but not by its row")
        _wrap_deg(table[:, 6])  # Angle's rule: 360 and -0.0 read +0.0
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def p_ch(self) -> np.ndarray:
        """Chamber pressures, kPa: an (n, 4) view."""
        return self.table[:, 0:4]

    @property
    def p_atm(self) -> np.ndarray:
        """Ambient pressure, kPa: an (n, 1) view, which broadcasts over ``p_ch``."""
        return self.table[:, 4:5]

    @property
    def phi_deg(self) -> np.ndarray:
        """True yaw, degrees in [0, 360): an (n,) view."""
        return self.table[:, 6]

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, key) -> LabeledSample | Samples:
        if isinstance(key, (bool, np.bool_)):  # neither a row number nor a cut
            raise InvalidInputError(f"samples index must not be a bool, got {type(key).__name__}")
        if isinstance(key, (int, np.integer)):
            return _labeled(self.table[key].tolist())
        cut = object.__new__(Samples)  # rows of a checked table: no second check
        # a new view, or an index result no one else holds
        table = np.ascontiguousarray(_checked_table(self.table[key]))
        table.flags.writeable = False
        object.__setattr__(cut, "table", table)
        return cut

    def __iter__(self) -> Iterator[LabeledSample]:
        return map(_labeled, self.table.tolist())


@dataclass(frozen=True)
class SplitSpec:
    """Shuffle-then-cut split: |train| = round(n * train_fraction)."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        _hold(
            self,
            train_fraction=require_real("train_fraction", self.train_fraction, high=1.0),
            seed=require_count("seed", self.seed),
        )


# Rows per block: one numpy pass or one %-format call. The numpy pass's
# buffers for a 7-column block peak under 1.5 MB.
BLOCK_ROWS = 1024


@cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_format_block``, built on its first call, so a
    process that writes no float block never builds them (they cost about
    800 KB of RSS and 0.5 ms).

    A cell's class is 0 for 0, 1 for 0 < |v| < 1e-5, 7 + x for 10**x <= |v|
    < 10**(x + 1) with x from -5 to 8, and 16 from 1e9 up and for inf and
    NaN; a set sign bit adds 17. No binade (the values of one float64
    exponent) holds two powers of ten, so a cell's class is its binade's,
    plus one from the power of ten in the binade up. Each cell is laid out
    in the 24 bytes ``-0.000d.d.d.d.d.d.d.d.d,``: a word with the sign, the
    ``0.000`` before a small value's digits and the first digit, then two
    ``dotted`` words of 4 digits, each digit followed by a point, the last
    point turned into the separator. The class and the count of trailing
    zero digits pick the bytes kept (``keep``).
    """
    powers = np.array([5e-324] + [float(f"1e{k}") for k in range(-5, 10)])
    lows = (np.arange(2048, dtype=np.int64) << 52).view(np.float64)  # 0, 2**k, inf
    binade = (lows[:, None] >= powers).sum(axis=1)
    binade_class = np.concatenate([binade, binade + 17])  # by sign and exponent bits
    next_power = np.append(powers, np.inf)[binade_class % 17]  # no class above 16
    scale = np.array([float(f"1e{k}") for k in range(15, -2, -1)] * 2)  # 10**(8 - x)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # row q: q's 4 digits
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digits + ord("0")
    trailing_zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    cls, zeros, pos = np.arange(34)[:, None, None], np.arange(9)[:, None], np.arange(24)
    c = cls % 17
    x = (c - 7) * (c > 0)  # 0 prints as its first digit
    n = 9 - zeros  # significant digits
    keep = (
        (pos == 0) & (cls >= 17)
        | (x < 0) & (1 <= pos) & (pos <= 1 - x)  # "0.", "0.0", "0.00" or "0.000"
        | (pos >= 6) & (pos % 2 == 0) & (pos < 6 + 2 * np.maximum(n, (x + 1) * (x >= 0)))
        | (x >= 0) & (n > x + 1) & (pos == 7 + 2 * x)  # the point after digit x
        | (pos == 23)
    )
    percent = ((c == 1) | (c == 2) | (c == 16)).ravel()  # printed with an exponent
    tables = binade_class, next_power, scale, dotted.view("<i8").ravel(), trailing_zeros
    return *tables, keep.reshape(-1, 24).view("<i8"), percent


_LEAD = int.from_bytes(b"-0.0000.", "little")  # the first word, digit 0 added at byte 6


def _format_block(block: np.ndarray) -> bytes | None:
    """The bytes the %.9g rule prints for a float64 block's rows (cells
    joined by ',', each row ended by '\\n'), or None where a cell needs the
    %-format: it is not finite, prints with an exponent, or is within 1e-6
    of a rounding tie, in units of its ninth significant digit."""
    if block.dtype != np.float64 or block.ndim != 2 or not block.size:
        return None
    v = block.ravel()
    a = np.abs(v)
    if not np.isfinite(a).all() or a.max() >= 1e9:
        return None
    binade_class, next_power, scales, dotted, trailing_zeros, keeps, percent = _cell_tables()
    top = v.view(np.int64) >> 52  # sign and exponent bits; negative indexes the upper half
    cls = binade_class[top]
    cls += a >= next_power[top]
    s = np.multiply(a, scales[cls], out=a)  # < 2**30: within 2**-24 of the exact product
    d = np.rint(s)
    if np.abs(s - d).max() > 0.5 - 1e-6:
        return None  # near a tie, where rounding s may not round the exact product
    carry = d == 1e9  # 999.99999996 prints as 1000: 1e8 in the next class
    cls += carry
    d -= 9e8 * carry
    if percent[cls].any():
        return None
    d = d.astype(np.int64)
    low = d - d // 10_000 * 10_000  # digits 5 to 8
    d //= 10_000
    canvas = np.empty((v.size, 3), "<i8")
    canvas[:, 0] = (d // 10_000 << 48) + _LEAD  # digit 0
    d -= d // 10_000 * 10_000  # digits 1 to 4
    canvas[:, 1] = dotted[d]
    canvas[:, 2] = dotted[low] ^ ((ord(".") ^ ord(",")) << 56)  # its last byte: the separator
    canvas.reshape(*block.shape, 3)[:, -1, 2] ^= (ord(",") ^ ord("\n")) << 56
    zeros = trailing_zeros[low] + (low == 0) * trailing_zeros[d]
    keep = keeps.take(cls * 9 + zeros, axis=0)
    return canvas.view(np.uint8).compress(keep.view(bool).ravel()).tobytes()


def write_table(
    path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[float | str]] | np.ndarray
) -> None:
    """Write a header and comma-separated rows, UTF-8 with LF line endings.

    Numbers are printed with 9 significant digits, strings as given. Each
    column holds numbers or strings throughout, as in the first row, and
    every row has its length. An array is written a block of rows at a
    time: ``_format_block`` prints a float64 block's bytes with numpy, and
    a block it leaves (a cell that is not finite, prints with an exponent,
    or is near a rounding tie) and every block of other rows are printed
    with one repeated %-format, which is the rule both follow. Every CSV
    the package writes goes here.
    """
    it = iter(rows)
    blocks = iter(lambda: list(islice(it, BLOCK_ROWS)), [])
    if isinstance(rows, np.ndarray):
        blocks = (rows[i : i + BLOCK_ROWS] for i in range(0, len(rows), BLOCK_ROWS))
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        fmt = ""
        for block in blocks:
            fmt = fmt or ",".join("%s" if isinstance(v, str) else "%.9g" for v in block[0]) + "\n"
            if isinstance(block, np.ndarray):
                data = _format_block(block)
                if data is not None:
                    fh.write(data)
                    continue
                cells = block.ravel().tolist()
            elif {len(row) for row in block} == {fmt.count("%")}:
                cells = [*chain.from_iterable(block)]
            else:
                raise TypeError(f"every row must have {fmt.count('%')} cells, like the first row")
            fh.write(((fmt * len(block)) % tuple(cells)).encode())


def write_csv(samples: Samples, path: str | Path) -> None:
    """Write samples to ``path`` in the package CSV schema."""
    write_table(path, CSV_COLUMNS, samples.table)


def _parse_cell(raw: str, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvParseError(f"expected a number, got {raw!r}", line=line, column=column) from None
    if not math.isfinite(value):
        raise CsvParseError(f"non-finite value {raw!r}", line=line, column=column)
    return value


def _csv_rows(reader: Iterator[list[str]]) -> np.ndarray:
    """The table of the rows after the header, read on from ``reader`` by the
    csv module. Each row but a blank one is checked in turn: its column
    count, each cell, then ``_labeled``'s row rule (a phi error names its
    column). The first bad row raises its error at the file line it starts
    on; a csv module or decoder error raises where it comes."""
    rows, end = [], reader.line_num
    for row in reader:
        line, end = end + 1, reader.line_num  # a quoted cell may span lines
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise CsvParseError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}", line=line)
        values = [_parse_cell(cell, line, col) for cell, col in zip(row, CSV_COLUMNS)]
        try:
            _labeled(values)
        except InvalidInputError as exc:
            column = "phi_deg" if str(exc).startswith("phi_deg") else None
            raise CsvParseError(str(exc), line=line, column=column) from exc
        rows.append(values)
    return np.array(rows or np.empty((0, len(CSV_COLUMNS))), dtype=np.float64)  # owns its data


def _numpy_rows(raw: bytes) -> np.ndarray | None:
    """The rows after the header by numpy's C reader; None where only the csv pass can tell."""
    if re.fullmatch(rb"[^\r\n]*[\r\n]*", raw):
        return np.empty((0, len(CSV_COLUMNS)))  # no row after the header; numpy would warn
    step = max(csv.field_size_limit() // 2, 1)  # a longer line holds a whole step-byte window
    windows = (raw[i : i + step] for i in range(0, len(raw) - step + 1, step))
    if any(b"\n" not in window and b"\r" not in window for window in windows):
        return None  # a window without a line end: the csv pass checks the field size
    if any(sep in raw for sep in b"\x1c\x1d\x1e\x1f"):
        return None  # numpy strips \x1c-\x1f around a number; float() does not
    lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    try:  # float64 cells, each with float()'s bits
        table = np.loadtxt(lines, delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:  # UnicodeDecodeError too: the csv pass raises it at its line
        return None
    if table.shape[1] != len(CSV_COLUMNS):
        return None
    return table


def read_csv(path: str | Path) -> Samples:
    """Read a dataset CSV, validating the header and every cell.

    Its rows must pass ``Samples``' rule, so ``phi_deg`` lies in [0, 360];
    an exact 360 (a 9-significant-digit rounding artifact of values just
    below the wrap) reads back as 0. The file is read from disk once. Where
    the numpy pass cannot vouch for its cells or ``Samples`` refuses its
    table, the csv module reads the rows and checks them one at a time, and
    the first bad row names its line and cell.
    """
    with open(path, "rb") as fh:
        raw = fh.read()  # decoded lazily below, in the lines open(path, newline="") gives
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise CsvParseError("empty file: missing header", line=1)
        if tuple(header) != CSV_COLUMNS:
            raise CsvParseError(
                f"bad header {','.join(header)!r}; expected {','.join(CSV_COLUMNS)!r}",
                line=1,
            )
        table = _numpy_rows(raw)
        if table is not None:
            try:
                return Samples._adopt(table)
            except InvalidInputError:
                pass  # the csv pass names the refused row's file line
        table = _csv_rows(reader)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise CsvParseError(f"unreadable CSV: {exc}", line=reader.line_num) from None
    return Samples._adopt(table)


def split(samples: Samples, spec: SplitSpec) -> tuple[Samples, Samples]:
    """Partition samples into (train, validation) by a seeded shuffle."""
    n = len(samples)
    if n < 2:
        raise ConfigError(f"need at least 2 samples to split, got {n}")
    n_train = round(n * spec.train_fraction)
    perm = substream(spec.seed, SPLIT).permutation(n)
    return samples[perm[:n_train]], samples[perm[n_train:]]
