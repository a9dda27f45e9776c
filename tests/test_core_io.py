"""NPY round trips, format rejection, and RNG reproducibility."""

import hashlib
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import craftkit
from craftkit import core
from craftkit.core import Rng, as_tensor4, row_blocks
from craftkit.errors import DataError, FormatError, UnsupportedError
from craftkit.npyio import (NpyBlockWriter, load_npy, load_npy_rows, npy_shape, save_json,
                            save_npy)


def write_raw_npy(path, descr, fortran_order, shape, payload, version=(1, 0)):
    header = ("{'descr': %r, 'fortran_order': %s, 'shape': %s, }"
              % (descr, fortran_order, shape))
    pad = (-(10 + len(header) + 1)) % 64
    header = (header + " " * pad + "\n").encode("latin1")
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY")
        fh.write(bytes(version))
        fh.write(struct.pack("<H", len(header)))
        fh.write(header)
        fh.write(payload)


class TestLoad:
    def test_f8_matrix(self, tmp_path):
        path = tmp_path / "m.npy"
        data = np.array([1.0, 2.0, 3.0, 4.0])
        write_raw_npy(path, "<f8", False, (2, 2), data.tobytes())
        np.testing.assert_array_equal(load_npy(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_f4_widens_exactly(self, tmp_path):
        path = tmp_path / "m.npy"
        write_raw_npy(path, "<f4", False, (1,), np.array([0.5], dtype="<f4").tobytes())
        out = load_npy(path)
        assert out.dtype == np.float64
        assert out[0, 0] == 0.5

    def test_one_d_loads_as_row(self, tmp_path):
        path = tmp_path / "v.npy"
        write_raw_npy(path, "<f8", False, (3,), np.arange(3.0).tobytes())
        assert load_npy(path).shape == (1, 3)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        write_raw_npy(path, "<f8", True, (2, 2), np.zeros(4).tobytes())
        with pytest.raises(UnsupportedError):
            load_npy(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v2.npy"
        write_raw_npy(path, "<f8", False, (1,), np.zeros(1).tobytes(), version=(2, 0))
        with pytest.raises(UnsupportedError):
            load_npy(path)

    def test_integer_dtype_rejected(self, tmp_path):
        path = tmp_path / "i.npy"
        write_raw_npy(path, "<i4", False, (1,), b"\x00" * 4)
        with pytest.raises(UnsupportedError):
            load_npy(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_npy(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.npy"
        write_raw_npy(path, "<f8", False, (4,), np.zeros(2).tobytes())
        with pytest.raises(FormatError):
            load_npy(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "n.npy"
        write_raw_npy(path, "<f8", False, (2,), np.array([1.0, np.nan]).tobytes())
        with pytest.raises(DataError):
            load_npy(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        # a crafted header must not blow the parser's recursion limit
        path = tmp_path / "deep.npy"
        depth = 30_000
        header = ("(" * depth + ")" * depth).encode("latin1")
        with open(path, "wb") as fh:
            fh.write(b"\x93NUMPY\x01\x00")
            fh.write(struct.pack("<H", len(header)))
            fh.write(header)
        with pytest.raises(FormatError):
            load_npy(path)

    def test_3d_rank_rejected(self, tmp_path):
        path = tmp_path / "r3.npy"
        write_raw_npy(path, "<f8", False, (1, 1, 1), np.zeros(1).tobytes())
        with pytest.raises(UnsupportedError):
            load_npy(path)

    @pytest.mark.parametrize("header, error", [
        ("{'descr': [1], 'fortran_order': False, 'shape': (1,), }", UnsupportedError),
        ("{[]: 1}", FormatError),
        ("[1, 2]", FormatError),
        ("{'descr': '<f8', 'fortran_order': False}", FormatError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (True,), }", FormatError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (%d,), }" % 10**30,
         FormatError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (%d, 4), }" % 2**62,
         FormatError),
        ("{'descr': '<f8', 'fortran_order': 0, 'shape': (1,), }", FormatError),
        ("{'descr': '<f8', 'fortran_order': False, 'shape': (0, 4), }", DataError),
    ], ids=["list_descr", "unhashable_key", "not_a_dict", "no_shape", "bool_dim",
            "31_digit_dim", "count_past_int64", "int_fortran_order", "zero_length_dim"])
    def test_crafted_header_raises_its_error_class(self, tmp_path, header, error):
        path = tmp_path / "h.npy"
        raw = header.encode("latin1")
        path.write_bytes(b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little")
                         + raw + np.zeros(1).tobytes())
        with pytest.raises(error):
            load_npy(path)

    def test_trailing_payload_byte_rejected(self, tmp_path):
        path = tmp_path / "t.npy"
        write_raw_npy(path, "<f8", False, (2,), np.zeros(2).tobytes() + b"\x00")
        with pytest.raises(FormatError):
            load_npy(path)

    @pytest.mark.parametrize("shape", [(2, 3), (512, 1024)], ids=["small", "4MB"])
    def test_streamed_input_loads(self, tmp_path, shape):
        # a pipe cannot seek or report its size, so the reader must not rely on either
        path = tmp_path / "s.npy"
        m = np.random.default_rng(3).normal(size=shape)
        save_npy(m, path)
        src = str(Path(craftkit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", "import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
             "from craftkit.npyio import load_npy; "
             "sys.stdout.write(hashlib.sha256(load_npy('/dev/stdin').tobytes()).hexdigest())",
             src], input=path.read_bytes(), capture_output=True, check=True)
        assert result.stdout.decode() == hashlib.sha256(m.tobytes()).hexdigest()

    @pytest.mark.parametrize("descr, bound", [("<f8", 1.1), ("<f4", 1.6)])
    def test_peak_memory_is_one_payload(self, tmp_path, descr, bound):
        # 4 MB of float64: the payload is read straight into the result, so
        # the peak is that array; a float32 file adds its own half-size read
        path = tmp_path / "big.npy"
        m = np.random.default_rng(2).normal(size=(512, 1024)).astype(descr)
        np.save(path, m)
        tracemalloc.start()
        try:
            out = load_npy(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.nbytes
        assert out.tobytes() == m.astype(np.float64).tobytes()


class TestSaveRoundTrip:
    def test_scalar_matrix(self, tmp_path):
        path = tmp_path / "s.npy"
        save_npy(np.array([[3.25]]), path)
        np.testing.assert_array_equal(load_npy(path), [[3.25]])

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_npy(np.zeros((0, 0)), tmp_path / "e.npy")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3, 1)])
    def test_non_finite_rejected_without_a_file(self, tmp_path, bad, shape):
        a = np.ones(shape)
        a.flat[-2] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            save_npy(a, tmp_path / "bad.npy")
        assert not (tmp_path / "bad.npy").exists()

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, np.nan]]), DataError),
        (np.zeros((0, 3)), DataError),
        (np.ones((2, 3, 4)), ValueError),
    ], ids=["nan", "empty", "3d"])
    def test_rejected_array_leaves_an_existing_file_unchanged(self, tmp_path, bad, error):
        # shape and finiteness are checked before the file is opened
        path = tmp_path / "kept.npy"
        save_npy(np.arange(6.0).reshape(2, 3), path)
        before = path.read_bytes()
        with pytest.raises(error):
            save_npy(bad, path)
        assert path.read_bytes() == before

    def test_finiteness_check_allocates_no_copy(self, tmp_path):
        # a 3.1 MB stack of 1600 crops; an elementwise isfinite mask alone
        # took 0.39 MB, min and max about 6 KB
        a = np.random.default_rng(4).uniform(size=(1600, 16, 16, 1))
        tracemalloc.start()
        try:
            save_npy(a, tmp_path / "stack.npy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert load_npy(tmp_path / "stack.npy").tobytes() == a.tobytes()

    def test_tensor4_round_trip(self, tmp_path):
        path = tmp_path / "t.npy"
        t = np.arange(4.0).reshape(1, 2, 2, 1)
        save_npy(t, path)
        np.testing.assert_array_equal(load_npy(path), t)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (3200, 2), (1, 2048),
                                       (7, 16, 16, 1), (2, 3, 4, 5)])
    def test_bytes_are_a_hand_built_v1_header_and_payload(self, tmp_path, shape):
        a = np.random.default_rng(1).normal(size=shape)
        save_npy(a, tmp_path / "ours.npy")
        write_raw_npy(tmp_path / "ref.npy", "<f8", False, shape, a.tobytes())
        assert (tmp_path / "ours.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()

    def test_numpy_can_read_our_files(self, tmp_path):
        path = tmp_path / "compat.npy"
        m = np.array([[1.5, -2.0], [0.0, 1e-300]])
        save_npy(m, path)
        np.testing.assert_array_equal(np.load(path), m)

    def test_we_can_read_numpy_files(self, tmp_path):
        rng = np.random.default_rng(3)
        for arr in (rng.normal(size=(3, 5)),
                    rng.normal(size=(2, 3, 2, 4)),
                    rng.normal(size=7)):
            path = tmp_path / "np_written.npy"
            np.save(path, arr)
            out = load_npy(path)
            np.testing.assert_array_equal(out, arr.reshape(out.shape))

    def test_corrupted_files_raise_controlled_errors(self, tmp_path):
        from craftkit.errors import CraftError
        base = tmp_path / "base.npy"
        save_npy(np.arange(6.0).reshape(2, 3), base)
        payload = bytearray(base.read_bytes())
        rng = np.random.default_rng(11)
        path = tmp_path / "fuzz.npy"
        for _ in range(300):
            corrupt = bytearray(payload)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(corrupt)))
                corrupt[pos] = int(rng.integers(0, 256))
            if rng.random() < 0.3:
                corrupt = corrupt[:int(rng.integers(0, len(corrupt)))]
            path.write_bytes(bytes(corrupt))
            try:
                out = load_npy(path)
                assert out.dtype == np.float64  # mutation landed harmlessly
            except CraftError:
                pass  # every controlled failure mode is acceptable

    def test_random_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(20):
            path = tmp_path / f"r{k}.npy"
            m = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            save_npy(m, path)
            out = load_npy(path)
            assert out.tobytes() == m.tobytes()


class TestBlockWriter:
    """NpyBlockWriter writes the bytes of save_npy on the whole stack, and
    leaves no file when a block or the row count is rejected."""

    @pytest.mark.parametrize("shape, sizes", [
        ((10, 3), [4, 4, 2]),
        ((10, 3), [1, 6, 3]),
        ((13, 5, 4, 2), [5, 5, 3]),
        ((13, 5, 4, 2), [13]),
        ((7, 2, 3, 1), [1, 1, 4, 1]),
    ], ids=["2d_partial_last", "2d_uneven", "4d_partial_last", "4d_one_block",
            "4d_single_rows"])
    def test_bytes_equal_save_npy_of_the_stack(self, tmp_path, shape, sizes):
        a = np.random.default_rng(5).normal(size=shape)
        with NpyBlockWriter(tmp_path / "blocks.npy", shape) as writer:
            start = 0
            for size in sizes:
                writer.write(a[start:start + size])
                start += size
        save_npy(a, tmp_path / "whole.npy")
        assert (tmp_path / "blocks.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()

    def _write(self, path, shape, blocks):
        with NpyBlockWriter(path, shape) as writer:
            for block in blocks:
                writer.write(block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_leaves_no_file(self, tmp_path, bad):
        second = np.ones((2, 3, 3, 1))
        second.flat[5] = bad
        path = tmp_path / "bad.npy"
        with pytest.raises(DataError, match="NaN or Inf"):
            self._write(path, (4, 3, 3, 1), [np.ones((2, 3, 3, 1)), second])
        assert not path.exists()

    @pytest.mark.parametrize("sizes, match", [
        ([3, 3], "6 rows written for a stack of 7"),
        ([4, 4], "8 rows for a stack of 7"),
        ([], "0 rows written for a stack of 7"),
    ], ids=["too_few", "too_many", "none"])
    def test_wrong_row_count_leaves_no_file(self, tmp_path, sizes, match):
        path = tmp_path / "rows.npy"
        with pytest.raises(ValueError, match=match):
            self._write(path, (7, 2), [np.ones((size, 2)) for size in sizes])
        assert not path.exists()

    @pytest.mark.parametrize("block", [np.ones((2, 3)), np.ones((2, 2, 1)), np.ones(2)],
                             ids=["wider", "other_rank", "one_d"])
    def test_block_that_does_not_continue_the_stack(self, tmp_path, block):
        path = tmp_path / "shape.npy"
        with pytest.raises(ValueError, match="does not continue"):
            self._write(path, (4, 2), [np.ones((1, 2)), block])
        assert not path.exists()

    @pytest.mark.parametrize("shape, error", [
        ((6,), ValueError), ((2, 3, 4), ValueError), ((0, 4), DataError),
        ((3, 0, 2, 1), DataError)], ids=["one_d", "three_d", "no_rows", "no_columns"])
    def test_shape_rejected_before_a_file_is_opened(self, tmp_path, shape, error):
        with pytest.raises(error):
            NpyBlockWriter(tmp_path / "never.npy", shape)
        assert not (tmp_path / "never.npy").exists()


class TestLoadRows:
    """load_npy_rows reads the rows load_npy would index, and rejects a file
    load_npy rejects before it reads any row."""

    @pytest.mark.parametrize("shape", [(40, 3), (40, 5, 4, 2)], ids=["2d", "4d"])
    @pytest.mark.parametrize("rows", [
        [0], [39], [0, 39], [3, 4, 5, 6, 20, 21, 39], [38, 39, 0, 1], [7, 7, 2],
        np.arange(40), [-1, -40], slice(10, 30, 3),
    ], ids=["first", "last", "first_and_last", "adjacent_runs", "runs_out_of_order",
            "repeated", "every_row", "negative", "slice"])
    @pytest.mark.parametrize("descr", ["<f8", "<f4"])
    def test_rows_equal_load_npy_indexed(self, tmp_path, shape, rows, descr):
        path = tmp_path / "rows.npy"
        np.save(path, np.random.default_rng(6).normal(size=shape).astype(descr))
        expected = load_npy(path)[rows]
        out = load_npy_rows(path, rows)
        assert out.dtype == np.float64 and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_one_d_file_is_one_row(self, tmp_path):
        path = tmp_path / "v.npy"
        write_raw_npy(path, "<f8", False, (3,), np.arange(3.0).tobytes())
        assert npy_shape(path) == (1, 3)
        assert load_npy_rows(path, [0]).tobytes() == np.arange(3.0).tobytes()

    def test_shape_is_read_from_the_header(self, tmp_path):
        path = tmp_path / "s.npy"
        save_npy(np.ones((6, 4, 3, 2)), path)
        assert npy_shape(path) == (6, 4, 3, 2)

    def test_streamed_input_reads_rows(self, tmp_path):
        path = tmp_path / "s.npy"
        m = np.random.default_rng(4).normal(size=(9, 4))
        save_npy(m, path)
        src = str(Path(craftkit.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "from craftkit.npyio import load_npy_rows; "
             "sys.stdout.buffer.write(load_npy_rows('/dev/stdin', [8, 2, 3]).tobytes())",
             src], input=path.read_bytes(), capture_output=True, check=True)
        assert result.stdout == m[[8, 2, 3]].tobytes()

    def test_unread_rows_are_not_checked(self, tmp_path):
        # only the rows read are scanned for NaN or infinity
        path = tmp_path / "nan.npy"
        m = np.ones((5, 2))
        m[3, 1] = np.nan
        write_raw_npy(path, "<f8", False, (5, 2), m.tobytes())
        assert load_npy_rows(path, [0, 1, 4]).tobytes() == np.ones((3, 2)).tobytes()
        with pytest.raises(DataError, match="NaN or Inf"):
            load_npy_rows(path, [1, 3])

    @pytest.mark.parametrize("write, error", [
        (lambda p: write_raw_npy(p, "<f8", False, (4, 3), np.zeros(11).tobytes()),
         FormatError),
        (lambda p: write_raw_npy(p, "<f8", False, "(True, 2)", np.zeros(2).tobytes()),
         FormatError),
        (lambda p: write_raw_npy(p, "<f8", True, (4, 3), np.zeros(12).tobytes()),
         UnsupportedError),
    ], ids=["truncated", "bool_dim", "fortran_order"])
    def test_rejected_before_any_row_is_read(self, tmp_path, monkeypatch, write, error):
        from craftkit import npyio
        reads = []
        monkeypatch.setattr(npyio, "_read_into", lambda *args: reads.append(args))
        path = tmp_path / "bad.npy"
        write(path)
        with pytest.raises(error):
            load_npy_rows(path, [0, 1])
        with pytest.raises(error):
            npy_shape(path)
        assert reads == []

    def test_row_out_of_range(self, tmp_path):
        path = tmp_path / "r.npy"
        save_npy(np.ones((4, 2)), path)
        with pytest.raises(IndexError):
            load_npy_rows(path, [1, 4])


def test_save_json_leaves_no_file_for_a_value_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError):
        save_json({"layer_tag": np.bool_(True)}, tmp_path / "meta.json")
    assert not (tmp_path / "meta.json").exists()


class TestRng:
    def test_reproducible_draws(self):
        a = Rng(7, 3).generator().uniform(size=10_000)
        b = Rng(7, 3).generator().uniform(size=10_000)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        a = Rng(7, 0).generator().uniform(size=100)
        b = Rng(7, 1).generator().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)

    @pytest.mark.parametrize("value", [1.5, True, np.True_, "3", 2.0])
    @pytest.mark.parametrize("field", ["seed", "stream"])
    def test_non_integers_rejected(self, field, value):
        # int() would have drawn each of them as an integer's stream
        kwargs = {"seed": 1, "stream": 0, field: value}
        with pytest.raises(ValueError, match=field):
            Rng(**kwargs)

    def test_numpy_integers_draw_like_ints(self):
        a = Rng(np.uint64(7), np.int32(3)).generator().uniform(size=8)
        assert a.tobytes() == Rng(7, 3).generator().uniform(size=8).tobytes()


class TestRowBlocks:
    def test_blocks_cover_the_rows_once_in_order(self):
        blocks = row_blocks(10, 3, budget=9)
        assert blocks == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
        assert np.concatenate([np.arange(10)[b] for b in blocks]).tolist() == list(range(10))

    def test_no_rows_give_no_blocks(self):
        assert row_blocks(0, 4) == []

    def test_a_row_wider_than_the_budget_is_a_block_of_its_own(self):
        assert row_blocks(3, 100, budget=10) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_an_explicit_budget_overrides_the_default(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_FLOATS", 8)
        assert row_blocks(8, 2) == [slice(0, 4), slice(4, 8)]  # read at call time
        assert row_blocks(8, 2, budget=16) == [slice(0, 8)]

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (1, 2, 3, 4, 5)])
    def test_as_tensor4_names_a_stack_of_another_rank(self, shape):
        with pytest.raises(ValueError, match=rf"images must be 4-D, got shape \({shape[0]}, "):
            as_tensor4(np.zeros(shape), "images")
