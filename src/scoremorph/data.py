"""Dataset container, CSV ingestion, column normalization, seeded splitting."""

from __future__ import annotations

from array import array
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

FRACTIONS = (0.4, 0.4, 0.1, 0.1)  # one per field of Split, in order
Split = namedtuple("Split", "proper cp_train validation test")

# below this (relative) spread a column is treated as constant
_ZERO_VAR_TOL = 1e-15


class IngestionError(ValueError):
    """A CSV file could not be parsed into a numeric dataset."""


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column mean and population sd; last entry is the label column.

    At least two columns (an attribute and the label), every mean and sd
    finite and every sd >= 0. A column whose sd is at most ``_ZERO_VAR_TOL``
    of max(1, |mean|) is flagged in the derived ``zero_variance`` and
    centered only (its sd is treated as 1 when scaling), so scaling never
    flips a column or divides by zero.
    """

    mean: np.ndarray
    sd: np.ndarray
    zero_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        sd = np.asarray(self.sd, dtype=float)
        if mean.ndim != 1 or mean.shape != sd.shape:
            raise ValueError("normalization stats column counts disagree")
        if mean.shape[0] < 2:
            raise ValueError(f"normalization stats have {mean.shape[0]} "
                             "columns, need an attribute and the label")
        if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
            raise ValueError("normalization stats hold a non-finite value")
        if (sd < 0).any():
            raise ValueError("normalization stats hold a negative sd")
        zero_variance = sd <= _ZERO_VAR_TOL * np.maximum(1.0, np.abs(mean))
        for name, arr in (("mean", mean), ("sd", sd),
                          ("zero_variance", zero_variance)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def effective_sd(self) -> np.ndarray:
        return np.where(self.zero_variance, 1.0, self.sd)


@dataclass(frozen=True)
class Dataset:
    """Immutable (n, d) attribute matrix with scalar labels.

    ``stats`` records the normalization applied to produce this dataset;
    None means the values are raw.
    """

    x: np.ndarray
    y: np.ndarray
    stats: NormalizationStats | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("y must be 1-D with one label per row of x")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains NaN or infinite values")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.x[idx], self.y[idx], self.stats)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read a numeric CSV (last column = label) into a raw Dataset.

    Lines starting with '#' are ignored. Raises IngestionError naming the
    offending 1-based line on malformed input; when several lines are
    malformed, the first one is named. The parsed values go into one flat
    buffer, which the returned arrays share, so no Python object is kept
    per row or per value.
    """
    values, linenos = array("d"), array("q")
    ncols = None
    problem = None
    with open(path, "r", encoding="utf-8") as fh:
        header_pending = has_header
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if header_pending:
                header_pending = False
                continue
            cells = text.split(",")
            if ncols is None:
                ncols = len(cells)
                if ncols < 2:
                    problem = (f"row {lineno}: need at least 2 columns, "
                               f"got {ncols}")
                    break
            elif len(cells) != ncols:
                problem = (f"row {lineno}: expected {ncols} columns, "
                           f"got {len(cells)}")
                break
            try:
                # parsed whole first, so a bad cell appends none of its row
                values.extend([float(c) for c in cells])
            except ValueError:
                problem = f"row {lineno}: non-numeric cell in {cells!r}"
                break
            linenos.append(lineno)
    if not linenos:
        raise IngestionError(problem or "no rows")
    # one finiteness check over every row parsed, before any later problem
    arr = np.frombuffer(values).reshape(len(linenos), ncols)
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        problem = f"row {linenos[int(np.argmax(bad))]}: non-finite value"
    if problem is not None:
        raise IngestionError(problem)
    return Dataset(arr[:, :-1], arr[:, -1])


def _columns(ds: Dataset) -> np.ndarray:
    return np.column_stack([ds.x, ds.y])


def compute_stats(ds: Dataset) -> NormalizationStats:
    """Per-column mean and population sd over attributes plus label.

    A column whose plain stats overflow (``std`` squares the values, so
    past about 1e154) gets them from the column divided by its largest
    magnitude, scaled back; every other column keeps the plain ones.
    """
    cols = _columns(ds)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = cols.mean(axis=0)
        sd = cols.std(axis=0)  # population convention (divide by n)
    huge = ~(np.isfinite(mean) & np.isfinite(sd))
    if huge.any():
        scale = np.abs(cols[:, huge]).max(axis=0)
        unit = cols[:, huge] / scale
        mean[huge] = unit.mean(axis=0) * scale
        sd[huge] = unit.std(axis=0) * scale
    return NormalizationStats(mean, sd)


def apply_normalization(ds: Dataset, stats: NormalizationStats) -> Dataset:
    """Center and scale every column by ``stats``.

    A column whose plain result overflows (values near the float64 limit)
    is centred and scaled on the column divided by its largest magnitude,
    as ``compute_stats`` does; every other column keeps the plain result.
    """
    if stats.mean.shape[0] != ds.d + 1:
        raise ValueError(
            f"stats have {stats.mean.shape[0]} columns, dataset needs {ds.d + 1}")
    raw = _columns(ds)
    sd = stats.effective_sd()
    with np.errstate(over="ignore", invalid="ignore"):
        cols = (raw - stats.mean) / sd
    huge = ~np.isfinite(cols).all(axis=0)
    if huge.any():
        scale = np.abs(raw[:, huge]).max(axis=0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cols[:, huge] = ((raw[:, huge] / scale - stats.mean[huge] / scale)
                             / (sd[huge] / scale))
    return Dataset(cols[:, :-1], cols[:, -1], stats)


def normalize(ds: Dataset) -> Dataset:
    """Center and scale every column (label included) to mean 0, sd 1.

    Zero-variance columns are centered only and flagged in the stats.
    """
    if ds.n < 2:
        raise ValueError("normalization needs at least 2 samples")
    return apply_normalization(ds, compute_stats(ds))


def checked_seed(seed) -> int:
    """seed, refused unless >= 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def split_indices(n: int, seed: int) -> Split:
    """Shuffled ``Split`` of the row indices in ``FRACTIONS``,
    deterministic in the seed."""
    perm = np.random.default_rng(checked_seed(seed)).permutation(n)
    # the last part ends at n, whatever the rounding of the others
    parts = np.split(perm, [int(np.floor(c * n + 1e-9))
                            for c in np.cumsum(FRACTIONS)[:-1]])
    for fraction, p in zip(FRACTIONS, parts):
        if p.size == 0:
            raise ValueError(
                f"fraction {fraction} yields an empty part for n={n}")
    return Split(*parts)


def split(ds: Dataset, seed: int) -> Split:
    """Partition into a ``Split`` of Datasets: ``proper`` (the point
    model's rows), ``cp_train``, ``validation`` and ``test``."""
    return Split(*(ds.subset(p) for p in split_indices(ds.n, seed)))
