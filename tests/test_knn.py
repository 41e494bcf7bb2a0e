import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremorph.data import Dataset
from scoremorph import knn, synthetic


def make_ds(x, y):
    return Dataset(np.asarray(x, dtype=float).reshape(len(y), -1),
                   np.asarray(y, dtype=float))


def brute_predict(train_x, train_y, q, k):
    """Independent oracle: full sort with index tie-break."""
    d = np.sqrt(((train_x - q) ** 2).sum(axis=1))
    order = sorted(range(len(d)), key=lambda i: (d[i], i))
    return float(np.mean([train_y[i] for i in order[:k]]))


def test_predict_exact_hit_k1():
    ds = make_ds([[0.0], [1.0], [2.0]], [5.0, 7.0, 9.0])
    m = knn.KnnModel(ds.x, ds.y, 1)
    assert m.predict_batch(np.array([[1.0]]))[0] == 7.0


def test_predict_full_average():
    ds = make_ds([[0.0], [1.0], [2.0]], [5.0, 7.0, 9.0])
    m = knn.KnnModel(ds.x, ds.y, 3)
    assert m.predict_batch(np.array([[0.3]]))[0] == pytest.approx(7.0)


def test_predict_two_neighbors_worked_example():
    # neighbors of 0.9 are x=1 (d=0.1) and x=0 (d=0.9)
    ds = make_ds([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    m = knn.KnnModel(ds.x, ds.y, 2)
    assert m.predict_batch(np.array([[0.9]]))[0] == pytest.approx(0.5)


def test_predict_matches_brute_force():
    rng = np.random.default_rng(4)
    tx = rng.normal(size=(60, 3))
    ty = rng.normal(size=60)
    m = knn.KnnModel(tx, ty, 7)
    for q in rng.normal(size=(20, 3)):
        assert m.predict_batch(q[None])[0] == pytest.approx(
            brute_predict(tx, ty, q, 7), abs=1e-12)


def test_predict_tie_break_lower_index():
    ds = make_ds([[1.0], [-1.0], [1.0]], [10.0, 20.0, 30.0])
    m = knn.KnnModel(ds.x, ds.y, 2)
    # x=0: all three are at distance 1; indices 0 and 1 win
    assert m.predict_batch(np.array([[0.0]]))[0] == pytest.approx(15.0)


def test_predict_dimension_mismatch():
    ds = make_ds([[0.0, 1.0]], [1.0])
    m = knn.KnnModel(ds.x, ds.y, 1)
    with pytest.raises(ValueError):
        m.predict_batch(np.array([[1.0]]))


def test_predict_within_label_range():
    rng = np.random.default_rng(5)
    tx = rng.normal(size=(40, 2))
    ty = rng.normal(size=40)
    m = knn.KnnModel(tx, ty, 5)
    preds = m.predict_batch(rng.normal(size=(30, 2)))
    assert preds.min() >= ty.min() - 1e-12
    assert preds.max() <= ty.max() + 1e-12


def test_fit_constant_labels_picks_smallest_k():
    rng = np.random.default_rng(6)
    ds = make_ds(rng.normal(size=(30, 1)), np.full(30, 3.0))
    m = knn.fit(ds, k_grid=(1, 3, 5), folds=5, seed=0)
    assert m.k == 1


def test_fit_singleton_grid():
    rng = np.random.default_rng(7)
    ds = make_ds(rng.normal(size=(10, 1)), rng.normal(size=10))
    assert knn.fit(ds, k_grid=(4,), folds=2, seed=0).k == 4


def test_fit_rejects_bad_grid():
    rng = np.random.default_rng(8)
    ds = make_ds(rng.normal(size=(10, 1)), rng.normal(size=10))
    with pytest.raises(ValueError, match="empty"):
        knn.fit(ds, k_grid=(), folds=2, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        knn.fit(ds, k_grid=(9,), folds=2, seed=0)


def cv_oracle(ds, k_grid, folds, seed):
    """Independent cross-validation oracle built on the brute predictor."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    fold_ids = np.arange(ds.n) % folds
    errors = {k: [] for k in k_grid}
    for f in range(folds):
        val = perm[fold_ids == f]
        tr = perm[fold_ids != f]
        for k in k_grid:
            for i in val:
                pred = brute_predict(ds.x[tr], ds.y[tr], ds.x[i], k)
                errors[k].append((pred - ds.y[i]) ** 2)
    mse = {k: float(np.mean(errors[k])) for k in k_grid}
    return min(k_grid, key=lambda k: (mse[k], k))


def test_fit_linear_grid_selects_small_k():
    # y = x on a fine grid: near neighbors are nearly exact, so CV favors
    # small k; oracle run recorded k = 2 for this seed
    x = np.linspace(0.0, 1.0, 80)
    ds = make_ds(x, x)
    grid = (1, 2, 3, 5, 8, 13)
    m = knn.fit(ds, k_grid=grid, folds=5, seed=3)
    assert m.k == cv_oracle(ds, grid, folds=5, seed=3)
    assert m.k <= 5
    assert m.k == 2  # frozen from the oracle run


def test_fit_matches_oracle_on_noisy_data():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=60)
    y = np.sin(3 * x) + 0.3 * rng.normal(size=60)
    ds = make_ds(x, y)
    grid = (1, 2, 3, 5, 8)
    m = knn.fit(ds, grid, folds=4, seed=1)
    assert m.k == cv_oracle(ds, grid, folds=4, seed=1)


def test_predict_permutation_invariant():
    rng = np.random.default_rng(10)
    tx = rng.normal(size=(25, 2))
    ty = rng.normal(size=25)
    perm = rng.permutation(25)
    a = knn.KnnModel(tx, ty, 4)
    b = knn.KnnModel(tx[perm], ty[perm], 4)
    for q in rng.normal(size=(10, 2)):
        assert a.predict_batch(q[None])[0] == pytest.approx(
            b.predict_batch(q[None])[0], abs=1e-12)


def test_chunked_scan_matches_one_chunk(monkeypatch):
    rng = np.random.default_rng(11)
    ds = make_ds(rng.normal(size=(300, 3)), rng.normal(size=300))
    queries = rng.normal(size=(97, 3))
    whole = knn.fit(ds, folds=5, seed=0)
    whole_pred = whole.predict_batch(queries)
    # two validation rows per fit chunk, one query per predict chunk
    monkeypatch.setattr(knn, "_CHUNK_CELLS", 2 * 240 * 3 + 1)
    chunked = knn.fit(ds, folds=5, seed=0)
    assert chunked.k == whole.k
    assert np.array_equal(chunked.predict_batch(queries), whole_pred)


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def synth_cos_model(stored, n_queries):
    ds = synthetic.generate(
        synthetic.SynthSpec("cos", n=stored + n_queries, seed=1)).dataset
    return knn.KnnModel(ds.x[:stored], ds.y[:stored], 50), ds.x[stored:]


def uniform_model(d, stored, n_queries):
    rng = np.random.default_rng(d)
    return (knn.KnnModel(rng.random((stored, d)), rng.normal(size=stored), 50),
            rng.random((n_queries, d)))


@pytest.mark.parametrize("case", [
    lambda: synth_cos_model(800, 800),   # frozen eval of a 2000-row file
    lambda: uniform_model(1, 2000, 1000),
    lambda: uniform_model(8, 3000, 200),
], ids=["synth-cos-800x800", "uniform-d1", "uniform-d8"])
def test_predict_scratch_within_five_mib(case):
    # a chunk holds about 4.5 MiB at most (knn's module doc); a budget of
    # 2^21 cells let these calls peak at 14.8, 32.5 and 18.2 MB
    model, queries = case()
    assert traced_peak(lambda: model.predict_batch(queries)) <= 5 * 2**20


def test_fit_memory_below_one_full_distance_tensor():
    # a single scan per fold would hold an (800, 3200, 3) float64
    # difference tensor, 61 MB, for 4000 rows in 5 folds; a chunk holds
    # about 4.5 MiB at most (knn's module doc), where a budget of 2^21
    # cells let this fit peak at 16.7 MB
    rng = np.random.default_rng(12)
    ds = make_ds(rng.normal(size=(4000, 3)), rng.normal(size=4000))
    assert traced_peak(lambda: knn.fit(ds, folds=5, seed=0)) <= 5 * 2**20


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_matches_stable_argsort_oracle(data):
    # coordinates on a 0.1 grid in [-1, 1], so many distances tie; n runs
    # past 100, where numpy's plain introselect leaves the ties of the k-th
    # distance scattered beyond the partition point. The grid is scaled by
    # 10^e and shifted by up to 1e8, so differences round, underflow or
    # overflow and only the window's slack keeps tied rows in. Some columns
    # are constant, stored rows repeat (a k-th distance of 0) and queries
    # may reach three times past the stored range
    d = data.draw(st.sampled_from([1, 2, 3, 7, 8, 20]))
    n = data.draw(st.integers(1, 300))
    n_queries = data.draw(st.integers(1, 30))
    k = data.draw(st.one_of(st.just(n), st.integers(1, min(n, 8)),
                            st.integers(1, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    distinct = data.draw(st.one_of(st.just(n), st.integers(1, n)))
    x = rng.integers(-10, 11, size=(distinct, d))[rng.integers(0, distinct, n)]
    x[:, data.draw(st.lists(st.integers(0, d - 1), max_size=d))] = 3
    reach = data.draw(st.sampled_from([10, 30]))
    q = rng.integers(-reach, reach + 1, size=(n_queries, d))
    scale = 10.0 ** data.draw(st.one_of(st.just(0), st.integers(-170, 160)))
    shift = data.draw(st.one_of(st.just(0.0), st.floats(-1e8, 1e8)))
    # a jitter of 2^-60 survives only on the grid's zeros, where it makes
    # q - x round: the real gap then exceeds the float one
    jitter = rng.choice([0.0, 2.0**-60, -2.0**-60], size=x.shape)
    x = (x / 10 + jitter) * scale + shift
    q = q / 10 * scale + shift
    rows_per_chunk = data.draw(st.integers(1, n_queries))
    with np.errstate(over="ignore", under="ignore"):
        oracle = np.argsort(((q[:, None] - x[None]) ** 2).sum(2),
                            kind="stable")[:, :k]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knn, "_CHUNK_CELLS", rows_per_chunk * n * d)
            assert np.array_equal(knn._nearest(x, q, k), oracle)


def test_predict_empty_batch():
    rng = np.random.default_rng(13)
    m = knn.KnnModel(rng.normal(size=(20, 3)), rng.normal(size=20), 4)
    assert m.predict_batch(np.empty((0, 3))).shape == (0,)
    assert knn._nearest(m.x, np.empty((0, 3)), 4).shape == (0, 4)


def test_scan_reads_a_window_of_stored_rows(monkeypatch):
    # pins the sorted-projection pruning by the (query, stored row) pairs
    # that reach the distance kernel, not by timing: a full scan compares
    # all 4000 x 8000, the window below 10 % of them, with the same result
    ds = synthetic.generate(synthetic.SynthSpec("cos", n=12000)).dataset
    model = knn.KnnModel(ds.x[:8000], ds.y[:8000], 50)
    queries = ds.x[8000:]
    pairs = []
    sq_distances = knn._sq_distances

    def counted(q, train_x):
        pairs.append(q.shape[0] * train_x.shape[0])
        return sq_distances(q, train_x)

    monkeypatch.setattr(knn, "_sq_distances", counted)
    pruned = model.predict_batch(queries)
    assert sum(pairs) < 0.1 * 4000 * 8000
    monkeypatch.setattr(knn, "_window", lambda x, *_: (0, len(x)))
    assert np.array_equal(model.predict_batch(queries), pruned)
    assert sum(pairs) > 4000 * 8000


def test_scan_without_pruning_reads_stored_rows_in_place(monkeypatch):
    # on uniform 8-column data the ring bound from one column spans the
    # whole range, so every chunk scans the stored array itself, with no
    # index sort and no copy of its rows
    rng = np.random.default_rng(14)
    x = rng.random((3000, 8))
    queries = rng.random((200, 8))
    in_place = []
    sq_distances = knn._sq_distances

    def spy(q, train_x):
        in_place.append(train_x is x)
        return sq_distances(q, train_x)

    monkeypatch.setattr(knn, "_sq_distances", spy)
    monkeypatch.setattr(knn, "_CHUNK_CELLS", 20 * 3000 * 8)
    got = knn._nearest(x, queries, 5)
    assert in_place == [True] * 10
    oracle = np.argsort(((queries[:, None] - x[None]) ** 2).sum(2),
                        kind="stable")[:, :5]
    assert np.array_equal(got, oracle)


def test_predict_memory_grows_by_a_few_words_per_row():
    # predictions reduce each chunk to its label means: the (n, k) index
    # array and its labels were 2k words per row (800 bytes at k = 50).
    # What still grows with n is the sort order and sorted copy of the
    # stored rows, the query visiting order and the result, 4 words per
    # row at d = 1
    rng = np.random.default_rng(15)
    peaks = {}
    for n in (10**4, 10**5):
        model = knn.KnnModel(rng.uniform(-1, 1, (n, 1)), rng.normal(size=n),
                             50)
        queries = rng.uniform(-1, 1, (n, 1))
        tracemalloc.start()
        try:
            model.predict_batch(queries)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[10**5] - peaks[10**4]) / (10**5 - 10**4) <= 6 * 8


def test_scan_work_per_query_is_flat_in_n(monkeypatch):
    # the read path on synth cos: the point model stores 40 % of the rows,
    # and plot queries every row, eval's test split a tenth of them. A chunk
    # holds _CHUNK_QUERIES queries, fewer where the queries are sparser
    # than the stored rows, so the chunk count follows the queries, and the
    # distance cells each query reaches stay the same from 1e4 to 1e5 rows
    cells = []
    sq_distances = knn._sq_distances

    def counted(q, train_x):
        cells.append(q.shape[0] * train_x.shape[0] * train_x.shape[1])
        return sq_distances(q, train_x)

    monkeypatch.setattr(knn, "_sq_distances", counted)
    per_query = {}
    for n in (10**4, 10**5):
        ds = synthetic.generate(synthetic.SynthSpec("cos", n=n, seed=1)).dataset
        stored = int(0.4 * n)
        for share, cap in ((1.0, knn._CHUNK_QUERIES),
                           (0.1, knn._CHUNK_QUERIES // 4)):
            queries = ds.x[n - int(share * n):]
            cells.clear()
            knn._nearest(ds.x[:stored], queries, 50)
            assert len(cells) == -(-len(queries) // cap)
            per_query[n, share] = sum(cells) / len(queries)
    for share in (1.0, 0.1):
        assert per_query[10**5, share] <= 1.25 * per_query[10**4, share]
        assert per_query[10**5, share] < 0.01 * int(0.4 * 10**5) * 3


def test_grid_for_fits_every_size():
    # no k above the smallest CV training part, n - ceil(n / folds): before
    # that bound, 40 or 52 proper rows kept k = 34 and fit refused it
    rng = np.random.default_rng(0)
    for n in range(5, 401):
        ds = make_ds(rng.normal(size=(n, 2)), rng.normal(size=n))
        grid = knn.grid_for(n, 5)
        assert max(grid) <= n - int(np.ceil(n / 5))
        assert knn.fit(ds, grid, folds=5).k in grid
