"""K-nearest-neighbor regression with cross-validated K.

Exact Euclidean neighbours; distance ties broken toward the lower stored
index so predictions are reproducible. The stored rows are sorted on their
widest-spread column (Friedman, Baskett & Shustek, "An Algorithm for
Finding Nearest Neighbors", IEEE Trans. Computers, 1975), and each chunk of
at most ``_CHUNK_QUERIES`` queries computes distances only to the window of
rows whose projection can still hold a k-th neighbour, with no more
queries than keep (queries, window rows, dimension) within ``_CHUNK_CELLS``.
Each chunk selects its k nearest rows from a small candidate set (every row
at or below the k-th distance) instead of sorting all the rows it scanned,
and is reduced at once to what its caller needs (label means for a
prediction, their prefix means for the cross-validation), so no
(queries, k) array outlives its chunk.

The budget bounds a chunk's scratch memory. Per (query, row) pair a chunk
holds at most:

- d = 1: its distance (8 B), the argpartition index (8 B) and the mask of
  distances at or below the k-th (1 B), 17 B, so 4.25 MiB at 2^18 pairs;
- d = 2-7: the same plus an 8 B per-column difference temporary, at most
  2^18 / d pairs, so 3.1 MiB at d = 2;
- d >= 8: the (queries, rows, d) difference tensor and its square, 16 B a
  cell, 4 MiB, plus the distances and the index of d = 1 per pair.

So a chunk holds about 4.5 MiB at most for any number of columns, as long
as one query's scan fits the budget (window rows * d <= 2^18); past that a
chunk holds one query. Smaller terms come on top: the candidate set takes
24 B for each of its c rows per query (c >= k, more where distances tie at
the k-th), and ``_window``'s ring (queries, k) arrays, both small next to a
chunk's rows at the grid's k <= 50.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

DEFAULT_K_GRID = (1, 2, 3, 5, 8, 13, 21, 34, 50)
# cross-validation folds ``fit`` selects k with unless told otherwise
FOLDS = 5

# (query, stored row, dimension) difference cells one scan chunk may hold:
# about 4.5 MiB of scratch at most, whatever the dimension (module doc)
_CHUNK_CELLS = 1 << 18
# queries one windowed scan chunk may hold, and stored rows their spread
# may span on average: a chunk costs a few dozen numpy calls whatever its
# size, and its window widens with its queries' spread
_CHUNK_QUERIES = 128


def grid_for(n: int, folds: int = FOLDS, k_grid=DEFAULT_K_GRID) -> list:
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

    def predict_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.x.shape[1]:
            raise ValueError(
                f"queries have shape {xs.shape}, stored dimension is {self.x.shape[1]}")
        return _nearest(self.x, xs, self.k,
                        lambda near: self.y[near].mean(axis=1))


def _nearest(train_x, queries, k, reduce=lambda near: near):
    """Per query, ``reduce`` of its k nearest stored rows, nearest first.

    ``reduce`` maps each chunk's (queries, k) array of stored-row indices
    to one row per query; by default the indices themselves. A reduce to
    label means keeps no (n_query, k) array: only a chunk's is ever held.
    """
    out = None
    for rows, near in _chunks(train_x, queries, k):
        part = reduce(near)
        if out is None:
            out = np.empty((queries.shape[0],) + part.shape[1:], part.dtype)
        out[rows] = part
    return out


def _chunks(train_x, queries, k):
    """(query rows, their k nearest stored rows, nearest first), by chunks.

    The stored rows are sorted on their widest-spread column and the
    queries are visited in that column's order, at most ``_CHUNK_QUERIES``
    a chunk, and where the queries are sparser than the stored rows at
    most as many as there are, on average, within ``_CHUNK_QUERIES`` stored
    rows, so that a chunk's spread adds at most about that many rows to
    its window. Each chunk scans only the contiguous window of sorted rows
    that ``_window`` finds, which holds every row whose distance can reach
    some chunk query's k-th distance, and takes no more queries than keep
    (queries, window rows, dimension) within ``_CHUNK_CELLS``. The window's
    rows are scanned in ascending stored index, and each distance comes
    from the same per-pair arithmetic as a scan of all rows, so ties still
    go to the lower index and the result is bit-for-bit that of a stable
    argsort of all distances. Neither sort needs to be stable: the window
    is a range of projected values, whatever the order of equal ones, and
    each query's result depends only on its window.

    A window that holds more than three quarters of the rows is not worth
    its index sort and row copy (at 1e5 rows of two columns they cost about
    a fifth of scanning the rows they hold), so the chunk scans every row
    in place, as many queries as the budget allows for all n rows; when
    the projection cannot prune at all, as on columns of similar spread,
    that is every chunk. A call whose queries all fit in one such full scan
    (n_queries * n * d <= ``_CHUNK_CELLS``, e.g. 100 queries against 400
    stored rows of 3 columns) scans every row without sorting. That saves
    the sorts and the bound, about a tenth of such a call where the window
    prunes nothing (uniform data, d = 2 or 8); where it prunes (synth cos,
    or uniform data with d = 1) windowing is as fast at about 10^5 cells
    and faster above.
    """
    n, d = train_x.shape
    n_queries = queries.shape[0]
    full = max(1, _CHUNK_CELLS // (n * d))  # queries per scan of every row
    if n_queries <= full:
        yield slice(None), (_k_smallest(_sq_distances(queries, train_x), k)
                            if n_queries else np.empty((0, k), dtype=np.intp))
        return
    j = int(np.argmax(train_x.max(axis=0) - train_x.min(axis=0)))
    order = np.argsort(train_x[:, j])
    sorted_x = train_x[order]
    visit = np.argsort(queries[:, j])
    cap = max(1, min(_CHUNK_QUERIES, _CHUNK_QUERIES * n_queries // n))
    start, size = 0, cap
    while start < n_queries:
        idx = visit[start:start + size]
        left, right = _window(sorted_x, queries[idx], j, k)
        if 4 * (right - left) > 3 * n:
            # a scan of every row needs no window: take a full chunk
            size = full
            idx = visit[start:start + size]
            yield idx, _k_smallest(_sq_distances(queries[idx], train_x), k)
        else:
            # the window of a chunk's queries holds that of any of them
            size = min(cap, max(1, _CHUNK_CELLS // ((right - left) * d)))
            idx = idx[:size]
            cols = np.sort(order[left:right])
            yield idx, cols[_k_smallest(
                _sq_distances(queries[idx], train_x[cols]), k)]
        start += idx.size


def _window(sorted_x, q, j, k):
    """Sorted positions ``[left, right)`` of every stored row whose squared
    distance to some query of the chunk ``q`` is at most that query's k-th
    smallest. ``sorted_x`` holds the stored rows and ``q`` the queries, both
    ascending in column ``j``.

    Per query, the largest squared distance to the k stored rows next to it
    in column ``j`` (its ring) bounds its k-th distance from above. A float
    sum of non-negative terms is at least each term, so a row within that
    bound has ``fl(q_j - x_j)^2`` within it too, and so a gap in column
    ``j`` of at most the bound's square root, up to the roundings of the
    subtraction, the square and the root, and of summing the squares in
    another order than ``_sq_distances``. A relative slack of ``4(d + 2)``
    ulps on the bound covers those, and the smallest subnormal added to it
    covers squares that underflow, so the half-width ``w``, the root, is at
    least the exact column-``j`` gap of every row the query can need.
    Rounding is monotone and stored coordinates are floats, so such a row
    also lies inside ``[q_j - w, q_j + w]`` as computed.
    """
    n, d = sorted_x.shape
    proj = sorted_x[:, j]
    ring = (np.clip(np.searchsorted(proj, q[:, j]) - k // 2, 0, n - k)[:, None]
            + np.arange(k))
    r = np.zeros(ring.shape)
    for c in range(d):
        diff = q[:, c, None] - sorted_x[ring, c]
        diff *= diff
        r += diff
    slack = 1.0 + 4 * (d + 2) * np.finfo(float).eps
    w = np.sqrt(r.max(axis=1) * slack + np.finfo(float).smallest_subnormal)
    return (int(np.searchsorted(proj, (q[:, j] - w).min(), side="left")),
            int(np.searchsorted(proj, (q[:, j] + w).max(), side="right")))


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
    ``c`` collects the candidates. The first partition is released before
    the second partition or the full sort, so that only one (rows,
    columns) index array is held at a time.
    """
    n = d2.shape[1]
    if k < n:
        part = np.argpartition(d2, k - 1, axis=1)
        kth = np.take_along_axis(d2, part[:, k - 1:k], axis=1)
        c = int(np.count_nonzero(d2 <= kth, axis=1).max())
        if c < n:
            if c > k:
                del part
                part = np.argpartition(d2, c - 1, axis=1)
            cand = np.sort(part[:, :c], axis=1)
            order = np.argsort(np.take_along_axis(d2, cand, axis=1), axis=1,
                               kind="stable")[:, :k]
            return np.take_along_axis(cand, order, axis=1)
        del part
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def fit(proper_train: Dataset, k_grid=DEFAULT_K_GRID, folds: int = FOLDS,
        seed: int = 0) -> KnnModel:
    """Select k by ``folds``-fold cross-validation (MSE), ties toward
    smaller k. ``train`` and the protocol use the defaults: ``FOLDS``
    folds over the k values of ``grid_for`` that the smallest fold allows."""
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

    ks = np.array(grid)
    sq_errors = {k: [] for k in grid}
    for f in range(folds):
        val_idx = perm[fold_ids == f]
        tr_idx = perm[fold_ids != f]
        tr_y = proper_train.y[tr_idx]
        # per validation row, the mean of its k nearest labels for each k
        pred = _nearest(
            proper_train.x[tr_idx], proper_train.x[val_idx], grid[-1],
            lambda near: np.cumsum(tr_y[near], axis=1)[:, ks - 1] / ks)
        for i, k in enumerate(grid):
            sq_errors[k].append((pred[:, i] - proper_train.y[val_idx]) ** 2)
    mse = {k: float(np.concatenate(sq_errors[k]).mean()) for k in grid}
    best_k = min(grid, key=lambda k: (mse[k], k))
    return KnnModel(proper_train.x, proper_train.y, best_k)
