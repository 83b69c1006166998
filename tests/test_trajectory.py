"""Series container, Hankel embedding, and CSV ingestion tests."""

import numpy as np
import pytest

from reference import trajectory_to_series
from rpe.errors import NonFiniteValue, WindowTooLarge
from rpe.trajectory import TimeSeries, build_trajectory, read_csv, write_csv


class TestTimeSeries:
    def test_basic_construction(self):
        t = TimeSeries(values=np.array([1.0, 2.0, 3.0]))
        assert len(t) == 3
        assert t.labels is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([]))

    def test_rejects_non_finite_naming_index(self):
        with pytest.raises(NonFiniteValue) as exc:
            TimeSeries(values=np.array([1.0, np.nan, 3.0]))
        assert exc.value.index == 1
        with pytest.raises(NonFiniteValue) as exc:
            TimeSeries(values=np.array([1.0, 2.0, np.inf]))
        assert exc.value.index == 2

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([1.0, 2.0]), labels=np.array([True]))

    def test_values_read_only(self):
        t = TimeSeries(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            t.values[0] = 9.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.zeros((2, 2)))


class TestBuildTrajectory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_with_non_finite_value_is_typed(self, bad):
        # A plain array gets the TimeSeries check, naming the first bad index.
        values = np.arange(10.0)
        values[[4, 7]] = bad
        with pytest.raises(NonFiniteValue) as exc:
            build_trajectory(values, 3)
        assert exc.value.index == 4

    def test_small_example(self):
        tm = build_trajectory(TimeSeries(values=np.array([1.0, 2, 3, 4])), 2)
        assert tm.shape == (2, 3)
        np.testing.assert_array_equal(tm, [[1, 2, 3], [2, 3, 4]])

    def test_degenerate_single_sample(self):
        tm = build_trajectory(TimeSeries(values=np.array([5.0])), 1)
        np.testing.assert_array_equal(tm, [[5.0]])

    def test_default_window_shape(self):
        tm = build_trajectory(TimeSeries(values=np.arange(100.0)), 30)
        assert tm.shape == (30, 71)
        assert tm.shape[1] == 71

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            build_trajectory(TimeSeries(values=np.arange(5.0)), 6)

    def test_hankel_structure_and_indexing(self):
        vals = np.random.default_rng(0).standard_normal(40)
        tm = build_trajectory(TimeSeries(values=vals), 7)
        m1, m2 = tm.shape
        for i in range(1, m1):
            for j in range(m2 - 1):
                assert tm[i, j] == tm[i - 1, j + 1]
        for i in range(m1):
            for j in range(m2):
                assert tm[i, j] == vals[i + j]

    def test_column_equals_slice(self):
        vals = np.arange(20.0)
        tm = build_trajectory(TimeSeries(values=vals), 6)
        for j in range(tm.shape[1]):
            np.testing.assert_array_equal(tm[:, j], vals[j : j + 6])

    def test_round_trip(self):
        vals = np.random.default_rng(3).standard_normal(33)
        tm = build_trajectory(TimeSeries(values=vals), 9)
        np.testing.assert_array_equal(trajectory_to_series(tm), vals)

    def test_returns_a_read_only_copy(self):
        vals = np.arange(10.0)
        tm = build_trajectory(vals, 4)
        assert not tm.flags.writeable and tm.flags.f_contiguous
        vals[:] = -1.0
        np.testing.assert_array_equal(tm[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_last_column_equals_last_window(self):
        vals = np.random.default_rng(1).standard_normal(25)
        t = TimeSeries(values=vals)
        tm = build_trajectory(t, 8)
        np.testing.assert_array_equal(tm[:, -1], t.values[-8:])


class TestCsv:
    def test_write_read_round_trip(self, tmp_path):
        vals = np.random.default_rng(5).standard_normal(50)
        labels = np.zeros(50, dtype=bool)
        labels[[3, 17]] = True
        path = tmp_path / "t.csv"
        write_csv(path, TimeSeries(values=vals, labels=labels))
        back = read_csv(path)
        np.testing.assert_array_equal(back.values, vals)  # repr floats: bit-exact
        np.testing.assert_array_equal(back.labels, labels)

    def test_read_without_header_or_labels(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,1.5\n1,2.5\n2,-3.5\n")
        t = read_csv(path)
        np.testing.assert_array_equal(t.values, [1.5, 2.5, -3.5])
        assert t.labels is None

    def test_missing_value_rejected_naming_index(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,value\n0,1.0\n1,\n2,3.0\n")
        with pytest.raises(NonFiniteValue) as exc:
            read_csv(path)
        assert exc.value.index == 1

    def test_impute_median_fills_missing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0,1.0\n1,\n2,3.0\n3,nan\n")
        t = read_csv(path, impute_median=True)
        # median of finite values {1, 3} is 2
        np.testing.assert_array_equal(t.values, [1.0, 2.0, 3.0, 2.0])

    def test_header_after_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\ntimestamp,value\n0,1.0\n\n1,2.0\n")
        t = read_csv(path)
        np.testing.assert_array_equal(t.values, [1.0, 2.0])
        assert t.timestamps == ("0", "1")

    @pytest.mark.parametrize("text, impute, problem", [
        ("0,1.0,maybe\n", False, "unrecognised label 'maybe' at row 0"),
        ("0,1.0\n5\n", False, "row 1 has fewer than two columns"),
        ("0,1.0\n1,abc\n", False, "unparseable value 'abc' at index 1"),
        ("timestamp,value\nname,value\n0,1.0\n", False, "unparseable value 'value' at index 0"),
        ("timestamp,value\n\n", False, "no data rows"),
        ("0,\n1,nan\n", True, "cannot impute: no finite values present"),
    ], ids=["label", "one-column", "value", "second-header", "no-rows", "nothing-to-impute"])
    def test_malformed_file_is_rejected(self, tmp_path, text, impute, problem):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=problem):
            read_csv(path, impute_median=impute)

    def test_timestamps_carried_not_interpreted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("2021-01-01,1.0\n2021-01-02,2.0\n")
        t = read_csv(path)
        assert list(t.timestamps) == ["2021-01-01", "2021-01-02"]
