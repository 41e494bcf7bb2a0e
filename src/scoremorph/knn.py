"""K-nearest-neighbor regression with cross-validated K.

Exhaustive Euclidean scan in query chunks of bounded size; distance ties
broken toward the lower stored index so predictions are reproducible. Each
chunk selects its k nearest rows from a small candidate set (every row at or
below the k-th distance) instead of sorting all stored rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

DEFAULT_K_GRID = (1, 2, 3, 5, 8, 13, 21, 34, 50)

# (query, stored row, dimension) difference cells one scan chunk may hold
_CHUNK_CELLS = 1 << 21


def grid_for(n: int, folds: int, k_grid=DEFAULT_K_GRID) -> list:
    """The candidate k values that ``fit`` with ``folds`` folds accepts on n
    rows: none above the smallest CV training part, n - ceil(n / folds)."""
    return [k for k in k_grid if k <= n - (n + folds - 1) // folds]


@dataclass(frozen=True)
class KnnModel:
    x: np.ndarray
    y: np.ndarray
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.x.shape[0]:
            raise ValueError(f"k={self.k} outside [1, {self.x.shape[0]}]")

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.x.shape[1],):
            raise ValueError(
                f"query has shape {x.shape}, stored dimension is {self.x.shape[1]}")
        return float(self.predict_batch(x[None])[0])

    def predict_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.x.shape[1]:
            raise ValueError(
                f"queries have shape {xs.shape}, stored dimension is {self.x.shape[1]}")
        return self.y[_nearest(self.x, xs, self.k)].mean(axis=1)


def _nearest(train_x, queries, k):
    """Indices of the k nearest stored rows per query, nearest first."""
    n, d = train_x.shape
    rows = max(1, _CHUNK_CELLS // (n * d))
    out = np.empty((queries.shape[0], k), dtype=np.intp)
    for start in range(0, queries.shape[0], rows):
        d2 = _sq_distances(queries[start:start + rows], train_x)
        out[start:start + rows] = _k_smallest(d2, k)
    return out


def _sq_distances(q, train_x):
    """(queries, stored rows) squared Euclidean distances.

    Below 8 dimensions numpy sums a row's squared differences one after the
    other, so accumulating them one dimension at a time gives the same bits
    without the (queries, rows, d) difference tensor. From 8 on its pairwise
    summation reorders the adds, so the tensor path stays there.
    """
    if train_x.shape[1] >= 8:
        return ((q[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    d2 = np.subtract.outer(q[:, 0], train_x[:, 0])
    d2 *= d2
    for j in range(1, train_x.shape[1]):
        diff = np.subtract.outer(q[:, j], train_x[:, j])
        diff *= diff
        d2 += diff
    return d2


def _k_smallest(d2, k):
    """Per row, the columns of the k smallest entries, ties to the lower column.

    This is ``np.argsort(d2, kind="stable")[:, :k]`` without the full sort.
    One ``argpartition`` gives each row's k-th smallest distance; ``c`` is
    the largest count of entries at or below it over the rows. The ``c``
    smallest entries of a row then hold every entry at or below its k-th
    distance, ties included, so a stable sort of those candidates, taken in
    ascending column order, ranks them as the full stable sort would. The
    order past an ``argpartition``'s split point is unspecified, so when
    some row ties at its k-th distance (``c > k``) a second partition at
    ``c`` collects the candidates.
    """
    n = d2.shape[1]
    if k < n:
        part = np.argpartition(d2, k - 1, axis=1)
        kth = np.take_along_axis(d2, part[:, k - 1:k], axis=1)
        c = int(np.count_nonzero(d2 <= kth, axis=1).max())
        if c < n:
            if c > k:
                part = np.argpartition(d2, c - 1, axis=1)
            cand = np.sort(part[:, :c], axis=1)
            order = np.argsort(np.take_along_axis(d2, cand, axis=1), axis=1,
                               kind="stable")[:, :k]
            return np.take_along_axis(cand, order, axis=1)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def fit(proper_train: Dataset, k_grid=DEFAULT_K_GRID, folds: int = 5,
        seed: int = 0) -> KnnModel:
    """Select k by K-fold cross-validation (MSE), ties toward smaller k."""
    n = proper_train.n
    if folds < 2 or n < folds:
        raise ValueError(f"need n >= folds >= 2, got n={n}, folds={folds}")
    grid = sorted(set(int(k) for k in k_grid))
    if not grid:
        raise ValueError("empty k grid")
    if grid[0] < 1:
        raise ValueError(f"k must be positive, got {grid[0]}")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_ids = np.arange(n) % folds  # applied to the permuted order
    min_train = min(int((fold_ids != f).sum()) for f in range(folds))
    if grid[-1] > min_train:
        raise ValueError(
            f"grid k={grid[-1]} exceeds the smallest CV training part ({min_train})")

    if len(grid) == 1:
        return KnnModel(proper_train.x, proper_train.y, grid[0])

    sq_errors = {k: [] for k in grid}
    for f in range(folds):
        val_idx = perm[fold_ids == f]
        tr_idx = perm[fold_ids != f]
        near = _nearest(proper_train.x[tr_idx], proper_train.x[val_idx],
                        grid[-1])
        cum = np.cumsum(proper_train.y[tr_idx][near], axis=1)
        for k in grid:
            pred = cum[:, k - 1] / k
            sq_errors[k].append((pred - proper_train.y[val_idx]) ** 2)
    mse = {k: float(np.concatenate(sq_errors[k]).mean()) for k in grid}
    best_k = min(grid, key=lambda k: (mse[k], k))
    return KnnModel(proper_train.x, proper_train.y, best_k)
