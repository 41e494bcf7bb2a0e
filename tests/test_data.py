import tracemalloc

import numpy as np
import pytest

from scoremorph.data import (DEFAULT_FRACTIONS, Dataset, IngestionError,
                             SplitSpec, apply_normalization, load_csv,
                             normalize, split, split_indices)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    ds = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
    assert ds.d == 1
    assert ds.n == 3
    assert np.array_equal(ds.x, [[1.0], [3.0], [5.0]])
    assert np.array_equal(ds.y, [2.0, 4.0, 6.0])


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(IngestionError, match="no rows"):
        load_csv(write(tmp_path, ""))


def test_load_csv_non_numeric_names_row(tmp_path):
    with pytest.raises(IngestionError, match="row 1"):
        load_csv(write(tmp_path, "1,abc\n"))


def test_load_csv_inconsistent_columns(tmp_path):
    with pytest.raises(IngestionError, match="row 2"):
        load_csv(write(tmp_path, "1,2\n1,2,3\n"))


def test_load_csv_single_column_rejected(tmp_path):
    with pytest.raises(IngestionError, match="at least 2"):
        load_csv(write(tmp_path, "1\n2\n"))


def test_load_csv_skips_header_and_comments(tmp_path):
    text = "# raw_x: 0.5 0.7\na,b,y\n1,2,3\n4,5,6\n"
    ds = load_csv(write(tmp_path, text), has_header=True)
    assert ds.n == 2
    assert ds.d == 2


def test_load_csv_rejects_nan(tmp_path):
    with pytest.raises(IngestionError, match="non-finite"):
        load_csv(write(tmp_path, "1,nan\n"))


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_load_csv_names_first_non_finite_line(tmp_path, bad):
    # file lines count comments and the header: the first bad value sits on
    # line 5, a second one on line 6, and a malformed line 7 comes after both
    text = f"# comment\na,b,y\n1,2,3\n\n4,{bad},6\n{bad},1,1\n1,2\n"
    with pytest.raises(IngestionError, match=r"^row 5: non-finite value$"):
        load_csv(write(tmp_path, text), has_header=True)


@pytest.mark.parametrize("d", [1, 3])
def test_load_csv_memory_per_value(tmp_path, d):
    # the parsed values go into one flat float64 buffer, so the peak stays a
    # small multiple of the 8 bytes a value takes: no Python float or list
    # is kept per value or per row
    data = np.random.default_rng(d).normal(size=(20000, d + 1))
    path = tmp_path / "big.csv"
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.x, data[:, :-1])
    assert np.array_equal(ds.y, data[:, -1])
    assert peak < 32 * data.size


def test_dataset_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2))


def test_normalize_two_point_column():
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([0.0, 2.0]))
    out = normalize(ds)
    # mean 1, population sd 1
    assert np.allclose(out.x[:, 0], [-1.0, 1.0])
    assert np.allclose(out.y, [-1.0, 1.0])
    assert np.allclose(out.stats.mean, [1.0, 1.0])
    assert np.allclose(out.stats.sd, [1.0, 1.0])


def test_normalize_idempotent_on_stats():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
    once = normalize(ds)
    twice = normalize(Dataset(once.x, once.y))
    assert np.allclose(twice.x, once.x, atol=1e-12)
    assert np.allclose(twice.y, once.y, atol=1e-12)


def test_normalize_constant_column_centered_and_flagged():
    ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                 np.array([1.0, 2.0, 3.0]))
    out = normalize(ds)
    assert np.array_equal(out.x[:, 0], [0.0, 0.0, 0.0])
    assert out.stats.zero_variance.tolist() == [True, False, False]


def test_normalize_column_of_huge_magnitude():
    # np.std squares the values, so the first column's plain sd overflows;
    # it is scaled as that column divided by 1e200 would be, and the
    # ordinary columns keep numpy's plain mean and sd bit for bit
    x = np.array([[1e200, 1.0], [-1e200, 2.0], [5e199, 3.0]])
    y = np.array([0.5, -1.0, 4.0])
    out = normalize(Dataset(x, y))
    small = normalize(Dataset(x / [1e200, 1.0], y))
    assert np.allclose(out.x, small.x, rtol=1e-14, atol=0)
    assert np.allclose(out.stats.sd[0], 1e200 * small.stats.sd[0],
                       rtol=1e-14, atol=0)
    cols = np.column_stack([x[:, 1], y])
    assert np.array_equal(out.stats.mean[1:], cols.mean(axis=0))
    assert np.array_equal(out.stats.sd[1:], cols.std(axis=0))


def test_normalize_column_near_the_float64_limit():
    # the first column's stats are finite, but centring it on them
    # overflows (1.7e308 minus a negative mean); it is centred and scaled
    # as that column divided by 1.7e308 would be, and the other column
    # keeps the plain arithmetic bit for bit
    x = np.array([[1.7e308, 1.0], [-1.7e308, 2.0], [1.7e308, 3.0],
                  [1e308, 5.0]])
    y = np.array([0.5, -1.0, 4.0, 2.0])
    out = normalize(Dataset(x, y))
    small = normalize(Dataset(x / [1.7e308, 1.0], y))
    assert np.isfinite(out.x).all()
    assert np.allclose(out.x, small.x, rtol=1e-14, atol=1e-15)
    assert abs(out.x[:, 0].mean()) < 1e-15
    assert out.x[:, 0].std() == pytest.approx(1.0, rel=1e-14)
    stats = out.stats
    assert np.array_equal(out.x[:, 1], (x[:, 1] - stats.mean[1]) / stats.sd[1])
    assert np.array_equal(out.y, (y - stats.mean[2]) / stats.sd[2])


def test_normalize_needs_two_samples():
    with pytest.raises(ValueError):
        normalize(Dataset(np.zeros((1, 1)), np.zeros(1)))


def test_round_trip_denormalize():
    rng = np.random.default_rng(11)
    raw = Dataset(rng.normal(3.0, 5.0, size=(40, 3)),
                  rng.normal(-2.0, 0.5, size=40))
    norm = normalize(raw)
    # undo the normalization with the stats it recorded
    sd, mean = norm.stats.effective_sd(), norm.stats.mean
    back_x = norm.x * sd[:-1] + mean[:-1]
    back_y = norm.y * sd[-1] + mean[-1]
    assert np.allclose(back_x, raw.x, rtol=1e-10, atol=1e-10)
    assert np.allclose(back_y, raw.y, rtol=1e-10, atol=1e-10)


def test_apply_normalization_reproduces_bit_exactly():
    rng = np.random.default_rng(12)
    raw = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
    first = normalize(raw)
    again = apply_normalization(raw, first.stats)
    assert np.array_equal(first.x, again.x)
    assert np.array_equal(first.y, again.y)


def test_split_sizes_and_partition():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(100, 2)), rng.normal(size=100))
    parts = split(ds, SplitSpec(7))
    assert [p.n for p in parts] == [40, 40, 10, 10]
    idx = split_indices(100, SplitSpec(7))
    merged = np.sort(np.concatenate(idx))
    assert np.array_equal(merged, np.arange(100))


def test_split_deterministic_and_seed_sensitive():
    a = split_indices(100, SplitSpec(7))
    b = split_indices(100, SplitSpec(7))
    for p, q in zip(a, b):
        assert np.array_equal(p, q)
    different = sum(
        not np.array_equal(split_indices(100, SplitSpec(s))[0], a[0])
        for s in range(1, 11))
    assert different >= 9


def test_split_empty_part_errors():
    with pytest.raises(ValueError, match="empty part"):
        split_indices(3, SplitSpec(0, DEFAULT_FRACTIONS))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SplitSpec(0, (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SplitSpec(0, (0.4, 0.4, 0.2))
    with pytest.raises(ValueError):
        SplitSpec(0, (-0.1, 0.5, 0.3, 0.3))
    # NaN passes a range check written as `f < 0 or f > 1`, and the sum check
    with pytest.raises(ValueError, match=r"^fractions must lie in \[0, 1\]"):
        SplitSpec(0, (float("nan"), 0.4, 0.1, 0.1))


def test_dataset_arrays_read_only():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        ds.x[0, 0] = 1.0
