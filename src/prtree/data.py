"""Dataset ingestion, standard scaling, and seeded random streams."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with an aligned target vector.

    Immutable after construction; safe to share across workers.
    """

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.target, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("target length must match the number of rows")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("dataset needs at least one row and one column")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match the number of columns")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.intp)
        return Dataset(self.features[rows], self.target[rows], self.feature_names)


@dataclass(frozen=True)
class RngSpec:
    """Names one reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draws; distinct
    stream_ids give statistically independent streams for parallel fits.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def stream(self, stream_id: int) -> "RngSpec":
        return RngSpec(self.seed, stream_id)


def check_features(X, p: int) -> np.ndarray:
    """X as a 2-d float array of p columns for prediction; raises ValueError
    on a wrong column count or any non-finite value, which the soft and hard
    memberships would otherwise turn into a silent nan or 0."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != p:
        raise ValueError(f"expected {p} features, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    return X


class CsvFormatError(ValueError):
    """Raised when a CSV file violates the expected numeric layout."""


def read_csv(path, target_column: str | None = None) -> tuple[list[str], np.ndarray]:
    """The header and the numeric table of a headed, comma-separated file.

    Row order is preserved. A repeated column name, or a target_column
    missing from the header, is reported first; malformed cells (blank,
    non-numeric or non-finite) and ragged rows are reported with their
    1-based row number and column name.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise CsvFormatError(f"file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise CsvFormatError(f"duplicate column names in {path}: {header}")
        if target_column is not None and target_column not in header:
            raise CsvFormatError(f"target column not found: {target_column!r}")
        rows = []
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvFormatError(
                    f"row {rownum}: expected {len(header)} cells, got {len(record)}"
                )
            values = []
            for col, cell in zip(header, record):
                cell = cell.strip()
                if cell == "":
                    raise CsvFormatError(f"row {rownum}, column {col!r}: blank cell")
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"row {rownum}, column {col!r}: non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(f"row {rownum}, column {col!r}: non-finite value {cell!r}")
                values.append(value)
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"no data rows in {path}")
    return header, np.array(rows, dtype=float)


def load_csv(path, target_column: str) -> Dataset:
    """Read a headed, comma-separated numeric file (see read_csv) into a
    Dataset of target_column and the other columns as features."""
    header, table = read_csv(path, target_column)
    tgt = header.index(target_column)
    feature_names = [h for i, h in enumerate(header) if i != tgt]
    return Dataset(np.delete(table, tgt, axis=1), table[:, tgt], feature_names)


@dataclass
class StandardScaler:
    """Per-column (x - mean) / std transform.

    Uses the sample standard deviation (divisor n - 1). Zero-variance
    columns are centered only (divisor forced to 1) so the column count
    is preserved without dividing by zero.
    """

    mean: np.ndarray = field(default=None)
    std: np.ndarray = field(default=None)

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=float)
        if X.shape[0] < 2:
            raise ValueError("scaling needs at least 2 rows")
        self.mean = X.mean(axis=0)
        std = X.std(axis=0, ddof=1)
        self.std = np.where(std > 0.0, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.std


def standard_scale(d: Dataset) -> tuple[Dataset, StandardScaler]:
    """Scale every feature column of `d`; the returned scaler lets the same
    training-fold statistics be applied to held-out rows."""
    scaler = StandardScaler().fit(d.features)
    return Dataset(scaler.transform(d.features), d.target, d.feature_names), scaler
