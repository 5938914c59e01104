"""Datasets: image ingestion, sequence generators, CSV series, array files.

The moving-crop generator reproduces the windowed-random-walk video
construction at any scale: a square window is cropped from a source
image at a random position and then takes unit steps in random
directions, staying inside the image; each window position is one
frame.  A bouncing-sprite generator provides a high-frequency
counterpoint (a bright blob on a dark background translating at
constant velocity), and :func:`generate_textured_images` synthesises
smooth band-limited textures so the pipeline runs without any external
image files.

Every array the package writes (dataset files, prediction dumps, codec
cache entries) is a float64 ``.npy`` file, numpy's own format (NEP 1),
written atomically by :func:`save_array` and read back bit for bit by
:func:`load_array`.
"""

from __future__ import annotations

import array
import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .rng import Rng, derive_seed

STL10_IMAGE_BYTES = 3 * 96 * 96
TEXTURE_WAVES, TEXTURE_CYCLES = 6, (1.5, 4.0)  # see generate_textured_images


@dataclass(frozen=True)
class SequenceDataset:
    """Fixed-length frame sequences; ``sequences`` is (count, T, n).

    ``frame_shape`` carries the (height, width) of grid-shaped frames
    when known (generated image data); it is None for plain
    multivariate series, for which grid-based methods do not apply.
    """

    sequences: np.ndarray
    frame_shape: tuple[int, int] | None = None

    def __post_init__(self):
        s = linalg.as_array(self.sequences, 3, "sequences")
        if self.frame_shape is not None:
            h, w = self.frame_shape
            if h * w != s.shape[2]:
                raise ValueError(
                    f"frame_shape {self.frame_shape} does not match "
                    f"frame dimension {s.shape[2]}"
                )
            object.__setattr__(self, "frame_shape", (int(h), int(w)))
        object.__setattr__(self, "sequences", s)

    @property
    def count(self) -> int:
        return self.sequences.shape[0]

    @property
    def num_frames(self) -> int:
        return self.sequences.shape[1]

    @property
    def frame_dim(self) -> int:
        return self.sequences.shape[2]

    def frames(self) -> np.ndarray:
        """All frames pooled across sequences, shape (count*T, n)."""
        return self.sequences.reshape(-1, self.sequences.shape[2])


def load_stl10(path) -> np.ndarray:
    """Read an STL-10 binary image file as (count, 96, 96) grayscale images.

    Layout: per image 3 channel planes (R, G, B), each a 96x96 block of
    unsigned bytes in column-major order.  Channels are mixed with the
    BT.601 luma weights and scaled with v/127.5 - 1, so every pixel lies
    in [-1, 1]: 0 maps to -1 and a white pixel to 1.

    The file is converted 8 images at a time into the result, with the
    operations of a whole-file conversion, so the peak is about the
    result plus one block.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0 or size % STL10_IMAGE_BYTES != 0:
            raise ValueError(f"{path}: size {size} is not a positive "
                             f"multiple of {STL10_IMAGE_BYTES} bytes per image")
        gray = np.empty((size // STL10_IMAGE_BYTES, 96, 96))
        for start in range(0, len(gray), 8):
            out = gray[start:start + 8]
            raw = fh.read(len(out) * STL10_IMAGE_BYTES)
            if len(raw) != len(out) * STL10_IMAGE_BYTES:
                raise ValueError(f"{path}: file changed while read")
            planes = np.frombuffer(raw, dtype=np.uint8).reshape(
                len(out), 3, 96, 96).transpose(0, 1, 3, 2)  # column-major
            np.multiply(0.299, planes[:, 0], out=out)
            out += 0.587 * planes[:, 1]
            out += 0.114 * planes[:, 2]
    gray /= 127.5
    gray -= 1.0
    return gray


def generate_textured_images(count: int, height: int, width: int,
                             seed: int) -> np.ndarray:
    """Random smooth textures from one shared family of plane waves.

    A table of ``TEXTURE_WAVES`` (6) plane waves (frequency, orientation,
    amplitude) is drawn once from the seed: frequency magnitudes of 1.5
    to 4 cycles per image (``TEXTURE_CYCLES``), amplitudes falling off
    as ``cycles**-1.3``, orientations biased towards horizontal so the
    pixel-covariance ensemble is anisotropic.  Each image then
    randomises the phases and mildly jitters the amplitudes (independent
    stream per image) and is rescaled to peak amplitude 1, so the
    (count, height, width) result lies in [-1, 1].  The ensemble
    is smooth and of low rank (two dimensions per wave), and all images
    share their statistics, so windows cropped from different images
    move under common dynamics.
    """
    if count < 1 or height < 1 or width < 1:
        raise ValueError("count and dimensions must be positive")
    table_rng = Rng(derive_seed(seed, 2 ** 32))  # clear of per-image streams
    table = []
    for _ in range(TEXTURE_WAVES):
        cycles = table_rng.uniform_in(*TEXTURE_CYCLES)
        angle = (table_rng.uniform_in(-0.35, 0.35)
                 + (np.pi if table_rng.randint(2) else 0.0))
        amp = table_rng.uniform_in(0.5, 1.0) * cycles ** -1.3
        table.append((cycles * np.cos(angle) / width,
                      cycles * np.sin(angle) / height, amp))

    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    images = np.zeros((count, height, width))
    for idx in range(count):
        rng = Rng(derive_seed(seed, idx))
        img = np.zeros((height, width))
        for fx, fy, amp in table:
            phase = rng.uniform_in(0.0, 2.0 * np.pi)
            jitter = rng.uniform_in(0.7, 1.3)
            img += amp * jitter * np.cos(2.0 * np.pi * (fx * xs + fy * ys)
                                         + phase)
        peak = np.max(np.abs(img))
        images[idx] = img / peak if peak > 0 else img
    return images


def generate_moving_crop_dataset(images: np.ndarray, crop: int,
                                 frames_per_sequence: int, count: int,
                                 seed: int) -> SequenceDataset:
    """One windowed-random-walk sequence per source image.

    ``images`` is a (count, h, w) array.  The ``crop`` x ``crop`` window
    starts at a uniform position, then moves one pixel per frame in a
    direction chosen uniformly among the moves that keep it inside the
    image (it stays put only when the window fills the image).  Frame t
    is the flattened window content at position t.
    """
    images = linalg.as_array(images, 3, "images")
    num_images, height, width = images.shape
    if crop < 1 or crop > height or crop > width:
        raise ValueError(f"crop {crop} does not fit in {height}x{width} images")
    if frames_per_sequence < 1:
        raise ValueError("need at least 1 frame per sequence")
    if not 1 <= count <= num_images:
        raise ValueError(
            f"count {count} outside [1, {num_images}] (one sequence per image)"
        )

    max_r = height - crop
    max_c = width - crop
    out = np.empty((count, frames_per_sequence, crop * crop))
    for s in range(count):
        rng = Rng(derive_seed(seed, s))
        img = images[s]
        r = rng.randint(max_r + 1)
        c = rng.randint(max_c + 1)
        for t in range(frames_per_sequence):
            if t > 0:
                moves = [(dr, dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                         if 0 <= r + dr <= max_r and 0 <= c + dc <= max_c]
                if moves:
                    dr, dc = moves[rng.randint(len(moves))]
                    r += dr
                    c += dc
            out[s, t] = img[r:r + crop, c:c + crop].ravel()
    return SequenceDataset(out, frame_shape=(crop, crop))


def generate_moving_sprite_dataset(canvas: int, sprite: int,
                                   frames_per_sequence: int, count: int,
                                   seed: int) -> SequenceDataset:
    """Bright random blob bouncing across a dark canvas.

    Per sequence, a disc-masked patch of random bright pixels is drawn
    once and then translated with a constant integer velocity,
    reflecting off the canvas edges; the background stays at -1.
    """
    if sprite < 1 or sprite > canvas:
        raise ValueError(f"sprite {sprite} does not fit in canvas {canvas}")
    if frames_per_sequence < 1:
        raise ValueError("need at least 1 frame per sequence")
    if count < 1:
        raise ValueError("need at least 1 sequence")

    speeds = (-2, -1, 1, 2)
    max_pos = canvas - sprite
    yy = np.arange(sprite)[:, None] - (sprite - 1) / 2.0
    xx = np.arange(sprite)[None, :] - (sprite - 1) / 2.0
    disc = (yy * yy + xx * xx) <= (sprite / 2.0) ** 2
    pixels = int(disc.sum())

    out = np.empty((count, frames_per_sequence, canvas * canvas))
    for s in range(count):
        rng = Rng(derive_seed(seed, s))
        patch = np.full((sprite, sprite), -1.0)
        # one draw per disc pixel, in row-major order
        patch[disc] = rng.uniform_matrix(1, pixels, 0.2, 1.0)[0]
        r = rng.randint(max_pos + 1)
        c = rng.randint(max_pos + 1)
        vr = speeds[rng.randint(4)]
        vc = speeds[rng.randint(4)]
        for t in range(frames_per_sequence):
            if t > 0:
                r, vr = _bounce(r + vr, vr, max_pos)
                c, vc = _bounce(c + vc, vc, max_pos)
            frame = np.full((canvas, canvas), -1.0)
            frame[r:r + sprite, c:c + sprite] = patch
            out[s, t] = frame.ravel()
    return SequenceDataset(out, frame_shape=(canvas, canvas))


def _bounce(pos: int, vel: int, max_pos: int) -> tuple[int, int]:
    """Reflect an integer position into [0, max_pos], flipping velocity."""
    while pos < 0 or pos > max_pos:
        if pos < 0:
            pos = -pos
            vel = -vel
        elif pos > max_pos:
            pos = 2 * max_pos - pos
            vel = -vel
        if max_pos == 0:
            return 0, vel
    return pos, vel


def load_csv_series(path) -> np.ndarray:
    """Read a rectangular numeric CSV as a (timepoints, nodes) matrix.

    Rows are timepoints, columns are nodes; blank lines are skipped.  A
    single non-numeric first row is treated as a header and skipped.
    Ragged or non-numeric rows raise with their 1-based line number in
    the file; a ragged row raises as ragged even if it is non-numeric
    too.  Cells parse as ``float()`` parses them.  The file is read as
    UTF-8; a leading byte-order mark, as spreadsheet exports often
    write, is dropped.  A row the ``csv`` module cannot split (say, a
    field over its size limit) raises ``ValueError`` with its line
    number too.

    Memory: the file is read once.  Each data row is parsed with
    ``float()`` into a list that is appended to one growing buffer of
    float64 values, so only one row of cell strings is alive at a time
    and the peak is about 1.2 times the result (the buffer's spare
    growth room, the finiteness mask and one row).  The result is a
    (rows, width) view of that buffer.
    """
    buf, width, header = array.array("d"), None, False
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row:
                    continue
                if width is not None and len(row) != width:
                    raise ValueError(
                        f"{path}: row {reader.line_num} has {len(row)} "
                        f"cells, expected {width}"
                    )
                try:
                    values = list(map(float, row))
                except ValueError as exc:
                    if width is not None or header:
                        raise ValueError(f"{path}: non-numeric cell in row "
                                         f"{reader.line_num}") from exc
                    header = True
                    continue
                width = len(row)
                buf.fromlist(values)
        except csv.Error as exc:
            raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
    if width is None:
        raise ValueError(f"{path}: only a header row, no data" if header
                         else f"{path}: empty CSV")
    data = np.frombuffer(buf).reshape(-1, width)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: contains non-finite values")
    return data


def save_csv_series(path, series) -> None:
    """Write a (timepoints, nodes) matrix as CSV with full float precision.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends): a
    ``repr`` float never needs quoting, so data rows are joined
    directly, one row of Python floats at a time.  The file is UTF-8,
    as :func:`load_csv_series` reads it.
    """
    s = linalg.as_array(series, 2, "series")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in s)


def sequences_from_series(series, frames_per_sequence: int) -> SequenceDataset:
    """Chop a long (T, n) series into consecutive fixed-length sequences.

    The result holds the ``T // frames_per_sequence`` whole sequences
    from the start of the series; the last ``T % frames_per_sequence``
    rows are dropped.
    """
    s = linalg.as_array(series, 2, "series")
    if frames_per_sequence < 2:
        raise ValueError("sequences need at least 2 frames")
    count = s.shape[0] // frames_per_sequence
    if count == 0:
        raise ValueError(
            f"series of length {s.shape[0]} is shorter than one sequence "
            f"({frames_per_sequence} frames)"
        )
    used = s[:count * frames_per_sequence]
    return SequenceDataset(used.reshape(count, frames_per_sequence, s.shape[1]))


def save_array(path, values: np.ndarray) -> None:
    """Write ``values`` as a ``.npy`` file (NEP 1), atomically.

    The bytes go to a temp file beside ``path`` that is then renamed
    over it, so an interrupted write never leaves a partial file under
    ``path``.  A C-contiguous array is written from its own buffer.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:  # a path would gain a .npy suffix
            np.save(fh, values, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_array(path) -> np.ndarray:
    """The float64 array of a ``.npy`` file, read strictly.

    This is the ``.npy`` reader behind ``np.load``, which would also
    open a zip archive or unpickle objects; here those fail.  A file
    that is empty, truncated, not ``.npy`` (the magic string is not
    correct), followed by trailing bytes, or holds another dtype raises
    ``ValueError`` naming ``path``.  ``read_array`` allocates the array
    the header claims before reading it, so a claim larger than the
    rest of the file is rejected first.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            read_header = (fmt.read_array_header_1_0
                           if fmt.read_magic(fh) == (1, 0)
                           else fmt.read_array_header_2_0)
            shape, _, dtype = read_header(fh)
            claimed = math.prod(shape) * dtype.itemsize
            remaining = os.fstat(fh.fileno()).st_size - fh.tell()
            if claimed > remaining:
                raise ValueError(f"Failed to read all data: the header "
                                 f"claims {claimed} bytes of array data, "
                                 f"but {remaining} follow it")
            fh.seek(0)
            values = fmt.read_array(fh, allow_pickle=False)
            if fh.read(1):
                raise ValueError("trailing bytes after the array data")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if values.dtype != np.float64:
        raise ValueError(f"{path}: {values.dtype} array of shape "
                         f"{values.shape}, expected float64")
    return values


def save_dataset(path, dataset: SequenceDataset) -> None:
    """One array: (count, T, h, w) for grid frames, else (count, T, n)."""
    s = dataset.sequences
    shape = s.shape[:2] + (dataset.frame_shape or s.shape[2:])
    save_array(path, s.reshape(shape))


def load_dataset(path) -> SequenceDataset:
    """Read :func:`save_dataset`'s file; rank 4 gives the frame shape."""
    values = load_array(path)
    if values.ndim not in (3, 4):
        raise ValueError(f"{path}: a dataset tensor has rank 3, or 4 for "
                         f"grid frames; got shape {values.shape}")
    shape = values.shape
    return SequenceDataset(values.reshape(*shape[:2], math.prod(shape[2:])),
                           frame_shape=shape[2:] if values.ndim == 4 else None)


def split(dataset: SequenceDataset, train_fraction: float,
          seed: int) -> tuple[SequenceDataset, SequenceDataset]:
    """Deterministic shuffled split into train and test subsets.

    The train split gets ``floor(train_fraction * count)`` sequences,
    the test split the remainder; both must be non-empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be strictly between 0 and 1")
    total = dataset.count
    num_train = int(math.floor(train_fraction * total))
    if num_train == 0 or num_train == total:
        raise ValueError(
            f"split of {total} sequences at fraction {train_fraction} "
            f"leaves an empty side"
        )
    order = next(Rng(seed).permutations(total, 1))
    train_idx = order[:num_train]
    test_idx = order[num_train:]
    return (
        SequenceDataset(dataset.sequences[train_idx], dataset.frame_shape),
        SequenceDataset(dataset.sequences[test_idx], dataset.frame_shape),
    )
