"""Tests for the streaming readers in ``repro.data.stream``."""

import pytest

from repro.data.stream import (
    RawRecord,
    chunked,
    detect_format,
    group_records,
    parse_timestamp,
    project_record,
    scan_origin,
    stream_tdrive_records,
    stream_trajectories,
    unproject_point,
)
from repro.trajectory.io import (
    MAX_ABS_COORDINATE,
    project_latlon,
    read_csv,
    read_object_file,
    stream_csv,
    stream_csv_rows,
    write_csv,
)
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


class CountingLines:
    """Line iterable that records how many lines were pulled."""

    def __init__(self, lines):
        self.lines = lines
        self.consumed = 0

    def __iter__(self):
        for line in self.lines:
            self.consumed += 1
            yield line


def make_lines(n_objects: int, points_per_object: int) -> list[str]:
    lines = ["object_id,t,x,y\n"]
    for i in range(n_objects):
        for k in range(points_per_object):
            lines.append(f"obj{i},{k}.0,{i}.0,{k}.0\n")
    return lines


class TestStreamCsvRows:
    def test_matches_read_csv(self, tmp_path):
        dataset = TrajectoryDataset(
            [
                Trajectory("a", [Point(0.0, 1.0, 0.0), Point(2.0, 3.0, 10.0)]),
                Trajectory("b", [Point(5.0, 5.0, 2.0)]),
            ]
        )
        path = tmp_path / "fleet.csv"
        write_csv(dataset, path)
        streamed = list(stream_csv(path))
        loaded = read_csv(path)
        assert [t.object_id for t in streamed] == [t.object_id for t in loaded]
        for streamed_t, loaded_t in zip(streamed, loaded, strict=True):
            assert [p.coord for p in streamed_t] == [p.coord for p in loaded_t]

    def test_bounded_memory_iteration(self):
        # Pulling the first trajectory must consume only its own group
        # (plus header and the one look-ahead row that ends the group),
        # not the whole file.
        source = CountingLines(make_lines(n_objects=50, points_per_object=10))
        stream = stream_csv_rows(source)
        first = next(stream)
        assert first.object_id == "obj0"
        assert len(first) == 10
        assert source.consumed <= 12  # header + 10 rows + 1 look-ahead

    def test_iteration_order_and_sorting(self):
        lines = [
            "object_id,t,x,y\n",
            "b,20.0,1.0,1.0\n",
            "b,10.0,0.0,0.0\n",
            "a,5.0,2.0,2.0\n",
        ]
        result = list(stream_csv_rows(lines))
        assert [t.object_id for t in result] == ["b", "a"]
        assert [p.t for p in result[0]] == [10.0, 20.0]

    def test_malformed_row_names_line(self):
        lines = ["object_id,t,x,y\n", "a,1.0,2.0,3.0\n", "a,1.0,2.0\n"]
        with pytest.raises(ValueError, match=r"<stream>:3: expected 4 fields"):
            list(stream_csv_rows(lines))

    def test_non_numeric_field_names_line(self):
        lines = ["object_id,t,x,y\n", "a,nope,2.0,3.0\n"]
        with pytest.raises(ValueError, match=r"<stream>:2: non-numeric"):
            list(stream_csv_rows(lines))

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["t", "x", "y"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e200", "-1.1e150"])
    def test_unplaceable_field_names_line(self, field, value):
        """A field whose squared differences could overflow float64 is
        refused where it enters, named with its line."""
        fields = ["1.0", "2.0", "3.0"]
        fields[field] = value
        lines = ["object_id,t,x,y\n", "a,0.0,0.0,0.0\n", f"a,{','.join(fields)}\n"]
        name = "txy"[field]
        with pytest.raises(
            ValueError, match=rf"<stream>:3: {name}='{value}' is not finite or exceeds"
        ):
            list(stream_csv_rows(lines))

    def test_values_at_the_bound_are_accepted(self):
        bound = f"{MAX_ABS_COORDINATE!r}"
        lines = ["object_id,t,x,y\n", f"a,-{bound},{bound},-{bound}\n"]
        [trajectory] = stream_csv_rows(lines)
        point = trajectory[0]
        assert (point.t, point.x, point.y) == (
            -MAX_ABS_COORDINATE, MAX_ABS_COORDINATE, -MAX_ABS_COORDINATE
        )

    def test_object_file_refuses_the_same_values(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("a,0.0,1.0,1.0\na,1.0,nan,1.0\n")
        with pytest.raises(ValueError, match=r"a\.txt:2: x='nan' is not finite"):
            read_object_file(path)
        path.write_text("a,0.0,1.0,nope\n")
        with pytest.raises(ValueError, match=r"a\.txt:1: non-numeric"):
            read_object_file(path)

    def test_non_contiguous_group_names_line(self):
        lines = [
            "object_id,t,x,y\n",
            "a,1.0,0.0,0.0\n",
            "b,1.0,0.0,0.0\n",
            "a,2.0,0.0,0.0\n",
        ]
        with pytest.raises(ValueError, match=r":4: .*not contiguous"):
            list(stream_csv_rows(lines))

    def test_bad_header(self):
        with pytest.raises(ValueError, match=r":1: unexpected header"):
            list(stream_csv_rows(["a,b,c\n"]))

    def test_read_csv_error_includes_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,t,x,y\nobj,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            read_csv(path)


class TestChunked:
    def test_chunk_sizes_and_order(self):
        trajectories = [Trajectory(f"t{i}", [Point(0, 0, 0)]) for i in range(7)]
        chunks = list(chunked(iter(trajectories), 3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        flat = [t.object_id for c in chunks for t in c]
        assert flat == [f"t{i}" for i in range(7)]

    def test_lazy_consumption(self):
        source = CountingLines(make_lines(n_objects=20, points_per_object=5))

        def trajectories():
            yield from stream_csv_rows(source)

        chunks = chunked(trajectories(), 4)
        next(chunks)
        # One chunk = 4 objects * 5 rows, plus header and at most one
        # look-ahead row per group boundary.
        assert source.consumed <= 4 * 5 + 6

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(chunked([], 0))


class TestTdriveRecords:
    def test_parse_timestamp_datetime_and_float(self):
        assert parse_timestamp("1234.5") == 1234.5
        assert parse_timestamp("1970-01-01 00:01:00") == 60.0

    def test_stream_single_file(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text(
            "1,2008-02-02 15:36:08,116.51172,39.92123\n"
            "1,2008-02-02 15:46:08,116.51135,39.93883\n"
        )
        records = list(stream_tdrive_records(path))
        assert len(records) == 2
        assert records[0].object_id == "1"
        assert records[0].lat == pytest.approx(39.92123)
        assert records[0].lon == pytest.approx(116.51172)
        assert records[1].t - records[0].t == 600.0

    def test_stream_directory_in_name_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("b,10.0,116.5,39.9\n")
        (tmp_path / "a.txt").write_text("a,10.0,116.5,39.9\n")
        ids = [r.object_id for r in stream_tdrive_records(tmp_path)]
        assert ids == ["a", "b"]

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text("1,10.0,116.5,39.9\n1,10.0,116.5\n")
        with pytest.raises(ValueError, match=r"taxi\.txt:2: expected 4 fields"):
            list(stream_tdrive_records(path))

    def test_bad_coordinate_names_file_and_line(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text("1,10.0,not-a-lon,39.9\n")
        with pytest.raises(ValueError, match=r"taxi\.txt:1: malformed"):
            list(stream_tdrive_records(path))

    @pytest.mark.parametrize(
        "row",
        [
            "1,10.0,nan,39.9",
            "1,10.0,116.5,inf",
            "1,10.0,180.5,39.9",
            "1,10.0,116.5,-90.1",
            "1,inf,116.5,39.9",
        ],
    )
    def test_out_of_range_record_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "taxi.txt"
        path.write_text(f"1,0.0,116.5,39.9\n{row}\n")
        with pytest.raises(ValueError, match=r"taxi\.txt:2: timestamp not finite"):
            list(stream_tdrive_records(path))

    def test_scan_origin_is_mean(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text("1,0.0,116.0,39.0\n1,60.0,117.0,40.0\n")
        assert scan_origin(path) == pytest.approx((39.5, 116.5))


class TestProjection:
    ORIGIN = (39.9, 116.4)

    def test_latlon_round_trip(self):
        lat, lon = 39.92123, 116.51172
        x, y = project_record(lat, lon, self.ORIGIN)
        back = unproject_point(x, y, self.ORIGIN)
        assert back == pytest.approx((lat, lon), abs=1e-9)

    def test_group_records_matches_project_latlon(self):
        records = [
            RawRecord("t", 0.0, 39.90, 116.40),
            RawRecord("t", 60.0, 39.91, 116.41),
        ]
        streamed = list(group_records(iter(records), self.ORIGIN))
        reference = project_latlon(
            [("t", r.t, r.lat, r.lon) for r in records], origin=self.ORIGIN
        )
        assert len(streamed) == 1
        for p, q in zip(streamed[0], reference[0], strict=True):
            assert p.coord == pytest.approx(q.coord, abs=1e-9)
            assert p.t == q.t

    def test_group_records_rejects_interleaved_objects(self):
        records = [
            RawRecord("a", 0.0, 39.9, 116.4),
            RawRecord("b", 0.0, 39.9, 116.4),
            RawRecord("a", 60.0, 39.9, 116.4),
        ]
        with pytest.raises(ValueError, match="not contiguous"):
            list(group_records(iter(records), self.ORIGIN))


class TestStreamTrajectories:
    def test_detect_planar_by_header(self, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text("object_id,t,x,y\na,1.0,2.0,3.0\n")
        assert detect_format(path) == "planar"

    def test_detect_planar_by_numeric_time(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text("a,1.0,2.0,3.0\n")
        assert detect_format(path) == "planar"

    def test_detect_tdrive(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text("1,2008-02-02 15:36:08,116.5,39.9\n")
        assert detect_format(path) == "tdrive"

    def test_tdrive_auto_origin(self, tmp_path):
        path = tmp_path / "taxi.txt"
        path.write_text(
            "1,2008-02-02 15:36:08,116.51,39.92\n"
            "1,2008-02-02 15:46:08,116.52,39.93\n"
        )
        trajectories = list(stream_trajectories(path))
        assert len(trajectories) == 1
        assert len(trajectories[0]) == 2
        # Mean-origin projection centres the data around (0, 0).
        xs = [p.x for p in trajectories[0]]
        assert sum(xs) == pytest.approx(0.0, abs=1e-6)

    def test_planar_directory(self, tmp_path):
        dataset = TrajectoryDataset([Trajectory("a", [Point(1.0, 2.0, 0.0)])])
        from repro.trajectory.io import write_tdrive_directory

        write_tdrive_directory(dataset, tmp_path / "fleet")
        trajectories = list(stream_trajectories(tmp_path / "fleet"))
        assert [t.object_id for t in trajectories] == ["a"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            list(stream_trajectories(tmp_path, format="shapefile"))
