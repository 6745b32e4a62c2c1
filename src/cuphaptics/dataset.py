"""Datasets: the ``Samples`` table, CSV persistence, splitting, feature stats.

A dataset is one ``Samples``: a read-only (n, 7) float64 table whose
columns follow the CSV schema below. ``samples.table`` is that array,
``samples.p_ch`` and ``samples.phi_deg`` are column views, and
``samples[i]`` builds the ``LabeledSample`` (frame and pose) of row i,
so per-row objects exist only where a caller asks for one.

The on-disk format is a plain CSV with the exact header

    p_ch1_kpa,p_ch2_kpa,p_ch3_kpa,p_ch4_kpa,p_atm_kpa,delta_mm,phi_deg

comma-separated, '.' decimal point, UTF-8, LF line endings, one row per
sample, numbers printed with 9 significant digits. Round trips are
lossless at that precision.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Angle, GroundTruthPose, SensorFrame
from .errors import (
    ConfigError,
    CsvParseError,
    DegenerateChannelError,
    InvalidInputError,
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


@dataclass(frozen=True)
class LabeledSample:
    """One sensor frame paired with the pose that produced it."""

    frame: SensorFrame
    pose: GroundTruthPose


def _labeled(row: Sequence[float]) -> LabeledSample:
    *p_ch, p_atm, delta, phi = row
    return LabeledSample(
        frame=SensorFrame(p_ch=tuple(p_ch), p_atm=p_atm),
        pose=GroundTruthPose(delta=delta, phi=Angle(phi)),
    )


@dataclass(frozen=True, eq=False)
class Samples:
    """A dataset as one read-only (n, 7) float64 table in CSV_COLUMNS order.

    Indexing with an int gives that row's ``LabeledSample``; indexing with a
    slice, an index array or a mask gives another ``Samples``.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        table = self.table
        if not (
            isinstance(table, np.ndarray)
            and table.dtype == np.float64
            and table.shape[1:] == (len(CSV_COLUMNS),)
        ):
            raise InvalidInputError(
                f"samples table must be float64 of shape (n, {len(CSV_COLUMNS)}), "
                f"got {np.asarray(table).dtype} of shape {np.shape(table)}"
            )
        table = np.ascontiguousarray(table).view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def p_ch(self) -> np.ndarray:
        """Chamber pressures, kPa: an (n, 4) view."""
        return self.table[:, 0:4]

    @property
    def phi_deg(self) -> np.ndarray:
        """True yaw, degrees in [0, 360): an (n,) view."""
        return self.table[:, 6]

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, key) -> LabeledSample | Samples:
        if isinstance(key, (int, np.integer)):
            return _labeled(self.table[key].tolist())
        return Samples(self.table[key])

    def __iter__(self) -> Iterator[LabeledSample]:
        return map(_labeled, self.table.tolist())


@dataclass(frozen=True)
class SplitSpec:
    """Shuffle-then-cut split: |train| = round(n * train_fraction)."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        f = self.train_fraction
        if not (isinstance(f, (int, float)) and math.isfinite(f) and 0.0 < f < 1.0):
            raise ConfigError(f"train_fraction must be in (0, 1), got {f!r}")


@dataclass(frozen=True)
class FeatureStats:
    """Per-channel mean and population (divide-by-n) std of the 4 inputs."""

    mean: tuple[float, float, float, float]
    std: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        mean = tuple(float(m) for m in self.mean)
        std = tuple(float(s) for s in self.std)
        if len(mean) != 4 or len(std) != 4:
            raise InvalidInputError("feature stats must cover exactly 4 channels")
        for j, (m, s) in enumerate(zip(mean, std), start=1):
            if not (math.isfinite(m) and math.isfinite(s)):
                raise InvalidInputError(f"non-finite stats for channel {j}")
            if s <= 0.0:
                raise DegenerateChannelError(
                    f"channel {j} has std {s}; a positive spread is required"
                )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def write_table(
    path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[float | str]]
) -> None:
    """Write a header and comma-separated rows, UTF-8 with LF line endings.

    Numbers are printed with 9 significant digits; strings are written as
    given. Rows are written one at a time as they are formatted. Every CSV
    the package writes goes through here.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(
            ",".join(v if isinstance(v, str) else format(float(v), ".9g") for v in row)
            + "\n"
            for row in rows
        )


def write_csv(samples: Samples, path: str | Path) -> None:
    """Write samples to ``path`` in the package CSV schema."""
    write_table(path, CSV_COLUMNS, (row.tolist() for row in samples.table))


def _parse_cell(raw: str, line: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise CsvParseError(
            f"expected a number, got {raw!r}", line=line, column=column
        ) from None
    if not math.isfinite(value):
        raise CsvParseError(f"non-finite value {raw!r}", line=line, column=column)
    return value


def read_csv(path: str | Path) -> Samples:
    """Read a dataset CSV, validating the header and every cell.

    ``phi_deg`` must lie in [0, 360]; an exact 360 (a 9-significant-digit
    rounding artifact of values just below the wrap) reads back as 0.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # Each CSV row takes at least one line, so lines bound the rows.
        n_lines = sum(1 for _ in fh)
        fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvParseError("empty file: missing header", line=1)
        if tuple(header) != CSV_COLUMNS:
            raise CsvParseError(
                f"bad header {','.join(header)!r}; expected {','.join(CSV_COLUMNS)!r}",
                line=1,
            )
        table = np.empty((n_lines - 1, len(CSV_COLUMNS)))
        n = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate a trailing blank line
            if len(row) != len(CSV_COLUMNS):
                raise CsvParseError(
                    f"expected {len(CSV_COLUMNS)} columns, got {len(row)}", line=line_no
                )
            values = [
                _parse_cell(cell, line_no, col) for cell, col in zip(row, CSV_COLUMNS)
            ]
            phi = values[6]
            if not (0.0 <= phi <= 360.0):
                raise CsvParseError(
                    f"phi_deg must be in [0, 360], got {phi}", line=line_no, column="phi_deg"
                )
            try:
                frame = SensorFrame(p_ch=tuple(values[0:4]), p_atm=values[4])
                pose = GroundTruthPose(delta=values[5], phi=Angle(phi))
            except InvalidInputError as exc:
                raise CsvParseError(str(exc), line=line_no) from exc
            table[n] = (*values[:6], pose.phi.degrees)  # an exact 360 stored as 0
            n += 1
    return Samples(table[:n])


def split(samples: Samples, spec: SplitSpec) -> tuple[Samples, Samples]:
    """Partition samples into (train, validation) by a seeded shuffle."""
    n = len(samples)
    if n < 2:
        raise ConfigError(f"need at least 2 samples to split, got {n}")
    n_train = round(n * spec.train_fraction)
    perm = substream(spec.seed, SPLIT).permutation(n)
    return samples[perm[:n_train]], samples[perm[n_train:]]


def feature_stats(train: Samples) -> FeatureStats:
    """Per-channel mean/std of chamber pressures. Training set only."""
    if not len(train):
        raise ConfigError("cannot compute feature stats of an empty set")
    x = train.p_ch
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population convention (divide by n)
    for j, s in enumerate(std, start=1):
        if not s > 0.0:
            raise DegenerateChannelError(
                f"channel {j} is constant in the training set (std = {s})"
            )
    return FeatureStats(mean=tuple(mean), std=tuple(std))
