import csv
import io
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from gtslatent import data
from gtslatent.rng import Rng, derive_seed


def _write_stl10(path, images):
    """images: list of (3, 96, 96) uint8 arrays in row-major pixel order."""
    with open(path, "wb") as fh:
        for img in images:
            for ch in range(3):
                fh.write(np.ascontiguousarray(img[ch].T).tobytes())


class TestLoadStl10:
    def test_all_white_maps_to_one(self, tmp_path):
        path = tmp_path / "white.bin"
        _write_stl10(path, [np.full((3, 96, 96), 255, dtype=np.uint8)])
        images = data.load_stl10(path)
        assert images.shape == (1, 96, 96)
        assert np.max(np.abs(images - 1.0)) < 1e-9

    def test_all_zero_maps_to_minus_one(self, tmp_path):
        path = tmp_path / "black.bin"
        _write_stl10(path, [np.zeros((3, 96, 96), dtype=np.uint8)])
        images = data.load_stl10(path)
        assert np.array_equal(images, np.full((1, 96, 96), -1.0))

    def test_image_count_arithmetic(self, tmp_path):
        path = tmp_path / "three.bin"
        _write_stl10(path, [np.zeros((3, 96, 96), dtype=np.uint8)] * 3)
        assert path.stat().st_size == 3 * 27648
        assert len(data.load_stl10(path)) == 3

    def test_column_major_layout(self, tmp_path):
        img = np.zeros((3, 96, 96), dtype=np.uint8)
        img[:, 5, 2] = 255  # single white pixel at row 5, col 2
        path = tmp_path / "pixel.bin"
        _write_stl10(path, [img])
        pixels = data.load_stl10(path)[0]
        assert pixels[5, 2] == 1.0
        assert np.sum(pixels > -1.0) == 1

    def test_luma_weights(self, tmp_path):
        img = np.zeros((3, 96, 96), dtype=np.uint8)
        img[0] = 255  # pure red
        path = tmp_path / "red.bin"
        _write_stl10(path, [img])
        expect = 0.299 * 255.0 / 127.5 - 1.0
        assert np.max(np.abs(data.load_stl10(path) - expect)) < 1e-9

    def test_bad_size_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 1000)
        with pytest.raises(ValueError, match="27648"):
            data.load_stl10(path)

    @pytest.mark.parametrize("count", [1, 8, 9, 50])
    def test_pixels_equal_whole_file_conversion(self, tmp_path, count):
        path = tmp_path / "random.bin"
        raw = Rng(count).uniform_matrix(count, 27648, 0.0, 256.0)
        path.write_bytes(raw.astype(np.uint8).tobytes())
        planes = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(
            count, 3, 96, 96).transpose(0, 1, 3, 2).astype(np.float64)
        gray = (0.299 * planes[:, 0] + 0.587 * planes[:, 1]
                + 0.114 * planes[:, 2])
        expect = gray / 127.5 - 1.0
        assert data.load_stl10(path).tobytes() == expect.tobytes()


class TestTexturedImages:
    def test_bounds_and_shape(self):
        images = data.generate_textured_images(5, 12, 10, seed=1)
        assert images.shape == (5, 12, 10)
        assert np.max(np.abs(images)) <= 1.0

    def test_deterministic_and_count_independent(self):
        few = data.generate_textured_images(3, 8, 8, seed=2)
        many = data.generate_textured_images(5, 8, 8, seed=2)
        assert np.array_equal(few, many[:3])

    def test_different_seeds_differ(self):
        a = data.generate_textured_images(1, 8, 8, seed=3)
        b = data.generate_textured_images(1, 8, 8, seed=4)
        assert np.any(a != b)

    def test_validation(self):
        with pytest.raises(ValueError):
            data.generate_textured_images(0, 8, 8, seed=1)


class TestMovingCrop:
    def test_paper_scale_dimensions(self):
        images = data.generate_textured_images(4, 96, 96, seed=5)
        ds = data.generate_moving_crop_dataset(images, 45, 20, 4, seed=6)
        assert ds.sequences.shape == (4, 20, 2025)
        assert ds.frame_shape == (45, 45)

    def test_crop_equal_to_image_is_pinned(self):
        images = data.generate_textured_images(2, 8, 8, seed=7)
        ds = data.generate_moving_crop_dataset(images, 8, 6, 2, seed=8)
        for s in range(2):
            for t in range(1, 6):
                assert np.array_equal(ds.sequences[s, t], ds.sequences[s, 0])

    def test_offsets_walk_one_pixel_and_stay_in_bounds(self):
        # unique pixel values let each frame reveal its window offset
        h = w = 12
        crop = 5
        marker = np.linspace(-1.0, 1.0, h * w).reshape(h, w)
        images = np.repeat(marker[None, :, :], 3, axis=0)
        ds = data.generate_moving_crop_dataset(images, crop, 15, 3, seed=9)
        lookup = {marker[r, c]: (r, c) for r in range(h) for c in range(w)}
        for s in range(3):
            offsets = [lookup[ds.sequences[s, t, 0]] for t in range(15)]
            for r, c in offsets:
                assert 0 <= r <= h - crop and 0 <= c <= w - crop
            for (r0, c0), (r1, c1) in zip(offsets, offsets[1:]):
                assert abs(r1 - r0) + abs(c1 - c0) == 1

    def test_deterministic_per_seed(self):
        images = data.generate_textured_images(3, 10, 10, seed=10)
        a = data.generate_moving_crop_dataset(images, 4, 5, 3, seed=11)
        b = data.generate_moving_crop_dataset(images, 4, 5, 3, seed=11)
        assert np.array_equal(a.sequences, b.sequences)

    def test_validation(self):
        images = data.generate_textured_images(2, 8, 8, seed=12)
        with pytest.raises(ValueError):
            data.generate_moving_crop_dataset(images, 9, 5, 2, seed=1)
        with pytest.raises(ValueError):
            data.generate_moving_crop_dataset(images, 4, 5, 3, seed=1)
        images[1, 2, 3] = np.nan
        with pytest.raises(ValueError,
                           match="images contains non-finite entries"):
            data.generate_moving_crop_dataset(images, 4, 5, 2, seed=1)

    def test_takes_a_plain_array_and_rejects_other_ranks(self):
        images = np.zeros((2, 8, 8))
        ds = data.generate_moving_crop_dataset(images, 4, 5, 2, seed=1)
        assert ds.sequences.shape == (2, 5, 16) and ds.frame_shape == (4, 4)
        with pytest.raises(ValueError, match=re.escape(
                "images must be 3-D, got shape (8, 8)")):
            data.generate_moving_crop_dataset(images[0], 4, 5, 1, seed=1)


class TestMovingSprite:
    def test_background_stays_dark_and_bounded(self):
        ds = data.generate_moving_sprite_dataset(12, 4, 8, 3, seed=13)
        assert ds.sequences.shape == (3, 8, 144)
        assert ds.frame_shape == (12, 12)
        assert np.min(ds.sequences) == -1.0
        assert np.max(ds.sequences) <= 1.0

    def test_mass_conserved_under_translation(self):
        ds = data.generate_moving_sprite_dataset(16, 5, 10, 4, seed=14)
        mass = np.sum(ds.sequences + 1.0, axis=2)  # above-background mass
        for s in range(4):
            assert np.max(np.abs(mass[s] - mass[s, 0])) < 1e-9

    def test_sprite_moves(self):
        ds = data.generate_moving_sprite_dataset(16, 4, 6, 2, seed=15)
        assert np.any(ds.sequences[0, 1] != ds.sequences[0, 0])

    def test_deterministic(self):
        a = data.generate_moving_sprite_dataset(10, 3, 5, 2, seed=16)
        b = data.generate_moving_sprite_dataset(10, 3, 5, 2, seed=16)
        assert np.array_equal(a.sequences, b.sequences)

    def test_sprite_too_large(self):
        with pytest.raises(ValueError):
            data.generate_moving_sprite_dataset(8, 9, 5, 2, seed=1)

    # (70, 64): over 3072 disc pixels, so the bulk draw takes the block path
    @pytest.mark.parametrize("canvas, sprite", [(8, 1), (8, 8), (16, 5),
                                                (64, 12), (70, 64)])
    def test_first_frames_match_per_pixel_draws(self, canvas, sprite):
        ds = data.generate_moving_sprite_dataset(canvas, sprite, 2, 3, seed=17)
        for s in range(3):
            expect = _reference_sprite_frame(canvas, sprite, 17, s)
            assert ds.sequences[s, 0].tobytes() == expect.tobytes()


def _reference_sprite_frame(canvas, sprite, seed, s):
    """First frame of sequence s, drawing the patch one pixel at a time."""
    rng = Rng(derive_seed(seed, s))
    centre = (sprite - 1) / 2.0
    patch = np.full((sprite, sprite), -1.0)
    for r in range(sprite):
        for c in range(sprite):
            if (r - centre) ** 2 + (c - centre) ** 2 <= (sprite / 2.0) ** 2:
                patch[r, c] = rng.uniform_in(0.2, 1.0)
    r = rng.randint(canvas - sprite + 1)
    c = rng.randint(canvas - sprite + 1)
    frame = np.full((canvas, canvas), -1.0)
    frame[r:r + sprite, c:c + sprite] = patch
    return frame.ravel()


def _reference_load_csv(path):
    """The list-of-strings loader that ``load_csv_series`` streams."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1
        if len(rows) == 1:
            raise ValueError(f"{path}: only a header row, no data")
    width = len(rows[start])
    out = np.empty((len(rows) - start, width))
    for ridx in range(start, len(rows)):
        row = rows[ridx]
        if len(row) != width:
            raise ValueError(f"{path}: row {lines[ridx]} has {len(row)} "
                             f"cells, expected {width}")
        try:
            out[ridx - start] = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"{path}: non-numeric cell in row {lines[ridx]}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: contains non-finite values")
    return out


def _csv_writer_bytes(series):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([repr(v) for v in row]
                              for row in series.tolist())
    return buf.getvalue().encode()


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n")
        assert np.array_equal(data.load_csv_series(path),
                              [[1.0, 2.0], [3.0, 4.0]])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("node_a,node_b\n1,2\n3,4\n")
        assert np.array_equal(data.load_csv_series(path),
                              [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, expected", [
        (b"\xef\xbb\xbf1,2\r\n3,4\r\n5,6\r\n",
         [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        (b"\xef\xbb\xbfnode_a,node_b\r\n3,4\r\n5,6\r\n",
         [[3.0, 4.0], [5.0, 6.0]]),
    ], ids=["no-header", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, text, expected):
        # a leading UTF-8 byte-order mark must not turn the first data
        # row into a header
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert data.load_csv_series(path).tolist() == expected

    def test_ragged_row_reports_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            data.load_csv_series(path)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            data.load_csv_series(path)

    @pytest.mark.parametrize("text, line", [
        ("1.0,2.0\n\n\n3.0,x\n", 4),
        ("a,b\n\n1.0,2.0\n\n3.0\n", 5),
    ], ids=["non-numeric", "ragged-after-header"])
    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path,
                                                       text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"row {line}\b"):
            data.load_csv_series(path)

    def test_round_trip_preserves_values(self, tmp_path):
        path = tmp_path / "t.csv"
        series = Rng(17).uniform_matrix(6, 4, -2.0, 2.0)
        data.save_csv_series(path, series)
        assert np.array_equal(data.load_csv_series(path), series)

    @pytest.mark.parametrize("text", [
        b'"1","2.5"\n"-3",4\n',
        b"1_0,2\n3,4_000.5\n",
        b" 1 ,2 \n\t3,  4e-2\n",
        b"1,2\r\n3,4\r\n",
        b"\n\n1,2\n\n\n3,4\n\n",
        b"node_a,node_b\n1,2\n3,4\n",
        b"a\n1,2,3\n",
        b"1,2\n   \n3,4\n",
        b"   \n1,2\n",
        b"a,b\n   \n1,2\n",
        b"1,nan\n2,3\n",
        b"1,2\n-inf,3\n",
        b"1e400,2\n",
        b"-0,+.5\n1.,\xef\xbc\x91\xef\xbc\x92\n",
        b"0x10,1\n",
        b"1,2\n,3\n",
        b"1,2\nx\n",
        b"1,2\n3,x\n4\n",
        b"1,2\n3\n4,x\n",
        b"a,b\nc,d\n",
        b"a,b\n",
        b"\n\n",
        b"",
    ], ids=["quoted", "underscore", "padded", "crlf", "blank-lines",
            "header", "header-of-other-width", "whitespace-line",
            "whitespace-first-line", "whitespace-after-header", "nan",
            "inf", "overflow", "signs-and-full-width", "hex", "empty-cell",
            "ragged-and-non-numeric", "non-numeric-before-ragged",
            "ragged-before-non-numeric", "two-headers", "header-only",
            "blank-only", "empty"])
    def test_matches_list_of_strings_reference(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        try:
            expected = _reference_load_csv(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                data.load_csv_series(path)
            assert str(excinfo.value) == str(exc)
        else:
            got = data.load_csv_series(path)
            assert got.dtype == np.float64
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()  # -0.0 too

    def test_load_peak_memory_stays_near_result_size(self, tmp_path):
        path = tmp_path / "t.csv"
        series = Rng(19).uniform_matrix(2000, 100, -1.0, 1.0)
        data.save_csv_series(path, series)
        tracemalloc.start()
        try:
            loaded = data.load_csv_series(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, series)
        # rows are written straight into the result: measured 1.21x
        # (the result with its buffer's growth room, its finiteness mask
        # and one row), bound 1.3x; a
        # list of row arrays and np.stack peaked near 2x, and a list of
        # Python strings per cell near 11x
        assert peak <= 1.3 * loaded.nbytes

    @pytest.mark.parametrize("text, line", [
        ('1,2\n"' + "1" * 140000 + '",3\n', 2),
        ("a,b\n1,2\n3,4\n5," + "6" * 140000 + "\n", 4),
    ], ids=["quoted", "unquoted"])
    def test_csv_module_errors_name_the_row(self, tmp_path, text, line):
        # a field over the csv module's 131072-character limit
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=rf"row {line}: field larger than field limit"):
            data.load_csv_series(path)

    @pytest.mark.parametrize("text", [
        b"1,2\r3,4\r5,6\r", b"1,2\r\n3,4\r\n\r\n5,6", b"1,2\n3,4\n5,6",
        b'"1\n",2\n3,"4\r\n"\n', b"ab,cd\r\n" + b"1,2\r\n" * 40000,
    ], ids=["cr-only", "crlf-no-final-end", "lf-no-final-end",
            "line-ends-in-quotes", "crlf-across-chunks"])
    def test_every_line_end_fits_the_matrix(self, tmp_path, text):
        # every line end the csv module splits at, also inside quotes
        # and, after the 7-byte header, across read-buffer boundaries
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert np.array_equal(data.load_csv_series(path),
                              _reference_load_csv(path))

    def test_writer_bytes_equal_csv_writer(self, tmp_path):
        series = Rng(20).uniform_matrix(7, 3, -2.0, 2.0)
        series[0] = [-0.0, 1e-300, 1.5e300]
        series[1] = [0.1, -7.0, 2.0 ** -1074]
        path = tmp_path / "t.csv"
        data.save_csv_series(path, series)
        assert path.read_bytes() == _csv_writer_bytes(series)

    def test_sequences_from_series_chops(self):
        series = Rng(18).uniform_matrix(11, 3, -1.0, 1.0)
        ds = data.sequences_from_series(series, 4)
        assert ds.sequences.shape == (2, 4, 3)
        assert np.array_equal(ds.sequences[0], series[:4])
        with pytest.raises(ValueError):
            data.sequences_from_series(series[:3], 4)


def _npy_bytes(values, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, values, allow_pickle=allow_pickle)
    return buf.getvalue()


def _zip_bytes():
    buf = io.BytesIO()
    np.savez(buf, a=np.zeros((2, 3, 4)))
    return buf.getvalue()


def _npy_header(shape):
    """A float64 ``.npy`` header that claims ``shape``, and no data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


_WHOLE = _npy_bytes(np.zeros((2, 3, 4)))


class TestArrayFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        path = tmp_path / "t.npy"
        values = Rng(19).uniform_matrix(4, 6, -3.0, 3.0)
        values[0, :3] = (-0.0, 5e-324, np.finfo(np.float64).max)
        data.save_array(path, values)
        loaded = data.load_array(path)
        assert loaded.dtype == np.float64 and loaded.shape == (4, 6)
        assert loaded.tobytes() == values.tobytes()

    def test_file_is_numpys_own_npy(self, tmp_path):
        path = tmp_path / "t.npy"
        values = Rng(21).uniform_matrix(6, 20, -3.0, 3.0).T  # not contiguous
        data.save_array(path, values)
        assert path.read_bytes() == _npy_bytes(values)
        assert np.load(path).tobytes() == values.tobytes()

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "t.npy"
        data.save_array(path, np.zeros(3))
        data.save_array(path, np.ones(3))
        assert data.load_array(path).tolist() == [1.0, 1.0, 1.0]
        # a write that fails leaves the old file and no temp file
        with pytest.raises(ValueError, match="allow_pickle"):
            data.save_array(path, np.array([{}], dtype=object))
        assert data.load_array(path).tolist() == [1.0, 1.0, 1.0]
        assert [p.name for p in tmp_path.iterdir()] == ["t.npy"]

    @pytest.mark.parametrize("raw, problem", [
        (_WHOLE[:-8], "Failed to read all data"),
        (_WHOLE[:20], "EOF: reading array header"),
        # rejected from the file size, before read_array would allocate
        # the 8 TB the header claims
        (_npy_header((10**6, 10**6)) + bytes(64),
         "claims 8000000000000 bytes of array data, but 64 follow"),
        (b"", "EOF: reading magic string"),
        (_WHOLE + b"\x00", "trailing bytes"),
        (_zip_bytes(), "the magic string is not correct"),
        (_npy_bytes(np.array([{}], dtype=object), allow_pickle=True),
         "Object arrays cannot be loaded"),
        # an old dataset file, in the float32 container this format replaced
        (struct.pack("<4s4I", b"GTS1", 3, 1, 2, 2) + bytes(16),
         "the magic string is not correct"),
        (_npy_bytes(np.zeros((2, 3, 4), dtype=np.float32)), "float32 array"),
        (_npy_bytes(np.zeros((2, 3, 4), dtype=">f8")), ">f8 array"),
        (_npy_bytes(np.zeros((2, 3, 4), dtype=np.int64)), "int64 array"),
    ], ids=["truncated", "truncated-header", "oversized", "empty",
            "trailing", "zip",
            "pickle", "gts1", "float32", "big-endian", "int64"])
    def test_malformed_file_rejected_naming_path(self, tmp_path, raw,
                                                 problem):
        path = tmp_path / "dataset.npy"
        path.write_bytes(raw)
        for read in (data.load_array, data.load_dataset):
            with pytest.raises(ValueError) as excinfo:
                read(path)
            assert str(excinfo.value).startswith(f"{path}: ")
            assert problem in str(excinfo.value)

    def test_series_dataset_is_rank_3_with_no_frame_shape(self, tmp_path):
        path = tmp_path / "series.npy"
        series = Rng(23).uniform_matrix(12, 5, -3.0, 3.0)
        dataset = data.sequences_from_series(series, 4)
        data.save_dataset(path, dataset)
        assert data.load_array(path).shape == (3, 4, 5)
        loaded = data.load_dataset(path)
        assert loaded.frame_shape is None
        assert loaded.sequences.tobytes() == dataset.sequences.tobytes()


class TestSplit:
    def _dataset(self, count):
        seqs = np.arange(count, dtype=np.float64).reshape(count, 1, 1)
        return data.SequenceDataset(seqs)

    def test_published_split_sizes(self):
        train, test = data.split(self._dataset(5000), 0.7, seed=20)
        assert train.count == 3500 and test.count == 1500

    def test_union_disjoint(self):
        ds = self._dataset(30)
        train, test = data.split(ds, 0.6, seed=21)
        seen = np.concatenate([train.sequences.ravel(), test.sequences.ravel()])
        assert sorted(seen.tolist()) == list(range(30))

    def test_deterministic(self):
        ds = self._dataset(20)
        a = data.split(ds, 0.5, seed=22)
        b = data.split(ds, 0.5, seed=22)
        assert np.array_equal(a[0].sequences, b[0].sequences)

    def test_shuffles(self):
        ds = self._dataset(50)
        train, _ = data.split(ds, 0.5, seed=23)
        assert not np.array_equal(train.sequences.ravel(), np.arange(25.0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            data.split(self._dataset(10), 0.05, seed=1)  # empty train side
        with pytest.raises(ValueError):
            data.split(self._dataset(10), 1.0, seed=1)
        with pytest.raises(ValueError):
            data.split(self._dataset(10), 0.0, seed=1)

    def test_frame_shape_carried(self):
        seqs = np.zeros((10, 2, 6))
        ds = data.SequenceDataset(seqs, frame_shape=(2, 3))
        train, test = data.split(ds, 0.5, seed=24)
        assert train.frame_shape == (2, 3) and test.frame_shape == (2, 3)


class TestValidation:
    def test_sequence_dataset_shape(self):
        with pytest.raises(ValueError, match=re.escape(
                "sequences must be 3-D, got shape (2, 3)")):
            data.SequenceDataset(np.zeros((2, 3)))
        with pytest.raises(ValueError,
                           match="sequences contains non-finite entries"):
            data.SequenceDataset(np.full((2, 3, 4), np.inf))
        with pytest.raises(ValueError):
            data.SequenceDataset(np.zeros((2, 3, 4)), frame_shape=(2, 3))
