"""Unit tests for disk-backed dataset streaming."""

import numpy as np
import pytest

from repro import BUBBLE
from repro.datasets import (
    make_cell_dataset,
    stream_strings,
    stream_vectors,
    write_string_file,
    write_vector_file,
)
from repro.exceptions import ParameterError
from repro.metrics import EuclideanDistance


class TestVectorIO:
    def test_round_trip(self, tmp_path):
        ds = make_cell_dataset(dim=3, n_clusters=2, n_points=50, seed=0)
        path = tmp_path / "points.csv"
        n = write_vector_file(path, ds.as_objects())
        assert n == 50
        back = list(stream_vectors(path))
        assert len(back) == 50
        np.testing.assert_allclose(np.vstack(back), ds.points)

    def test_rejects_matrix(self, tmp_path):
        with pytest.raises(ParameterError):
            write_vector_file(tmp_path / "bad.csv", [np.zeros((2, 2))])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot,a,number\n")
        with pytest.raises(ParameterError):
            list(stream_vectors(path))

    def test_ragged_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n5.0,6.0,7.0\n")
        with pytest.raises(ParameterError, match=r"ragged\.csv:4: 3 coordinates.* 2"):
            list(stream_vectors(path))

    @pytest.mark.parametrize("row", ["3.0,nan", "inf,1.0", "3.0,-inf", "NaN,1e999"])
    def test_non_finite_coordinate_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"1.0,2.0\n{row}\n")
        with pytest.raises(ParameterError, match=r"nan\.csv:2: non-finite coordinate"):
            list(stream_vectors(path))

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe,1.0", "\uff13,4.0".encode("utf-8")], ids=["invalid", "fullwidth"]
    )
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, raw):
        path = tmp_path / "bytes.csv"
        path.write_bytes(b"1.0,2.0\n" + raw + b"\n")
        with pytest.raises(ParameterError, match=r"bytes\.csv:2: non-ASCII byte"):
            list(stream_vectors(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        assert len(list(stream_vectors(path))) == 2

    def test_streaming_fit_single_scan(self, tmp_path):
        """BUBBLE consumes the stream directly — the single-scan property."""
        ds = make_cell_dataset(dim=2, n_clusters=3, n_points=300, seed=1)
        path = tmp_path / "pts.csv"
        write_vector_file(path, ds.as_objects())
        model = BUBBLE(EuclideanDistance(), max_nodes=10, seed=0).fit(
            stream_vectors(path)
        )
        assert model.tree_.n_objects == 300


class TestStringIO:
    def test_round_trip(self, tmp_path):
        strings = ["alpha", "beta, gamma", "  leading spaces kept"]
        path = tmp_path / "records.txt"
        assert write_string_file(path, strings) == 3
        assert list(stream_strings(path)) == strings

    def test_rejects_newlines(self, tmp_path):
        with pytest.raises(ParameterError):
            write_string_file(tmp_path / "bad.txt", ["a\nb"])

    def test_empty_records_preserved(self, tmp_path):
        path = tmp_path / "records.txt"
        write_string_file(path, ["", "x", ""])
        assert list(stream_strings(path)) == ["", "x", ""]

    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_bytes(b"abc\n\xff\xfe\n")
        with pytest.raises(ParameterError, match=r"records\.txt:2: not valid UTF-8"):
            list(stream_strings(path))

    def test_non_ascii_utf8_and_crlf_read_back(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_bytes("café\r\n\u6771\u4eac\n".encode("utf-8"))
        assert list(stream_strings(path)) == ["café", "\u6771\u4eac"]
