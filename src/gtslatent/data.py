"""Datasets: image ingestion, sequence generators, CSV series, tensors.

The moving-crop generator reproduces the windowed-random-walk video
construction at any scale: a square window is cropped from a source
image at a random position and then takes unit steps in random
directions, staying inside the image; each window position is one
frame.  A bouncing-sprite generator provides a high-frequency
counterpoint (a bright blob on a dark background translating at
constant velocity), and :func:`generate_textured_images` synthesises
smooth band-limited textures so the pipeline runs without any external
image files.

Tensors are persisted in the GTS1 container: the magic bytes ``GTS1``,
a little-endian uint32 rank, the dims as uint32, then the values as
little-endian float32 in row-major order.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import linalg
from .rng import Rng, derive_seed

STL10_IMAGE_BYTES = 3 * 96 * 96


@dataclass(frozen=True)
class ImageSet:
    """Grayscale images with pixel values in [-1, 1]; shape (count, h, w)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 3:
            raise ValueError(f"pixels must be 3-D, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("pixels contain non-finite values")
        if p.size and (p.min() < -1.0 or p.max() > 1.0):
            raise ValueError("pixels must lie in [-1, 1]")
        object.__setattr__(self, "pixels", p)

    @property
    def count(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class SequenceDataset:
    """Fixed-length frame sequences; ``sequences`` is (count, T, n).

    ``frame_shape`` carries the (height, width) of grid-shaped frames
    when known (generated image data); it is None for plain
    multivariate series, for which grid-based methods do not apply.
    """

    sequences: np.ndarray
    split: str = "all"
    frame_shape: tuple[int, int] | None = None

    def __post_init__(self):
        s = np.asarray(self.sequences, dtype=np.float64)
        if s.ndim != 3:
            raise ValueError(f"sequences must be 3-D, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("sequences contain non-finite values")
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


def load_stl10(path) -> ImageSet:
    """Read an STL-10 binary image file into grayscale [-1, 1] images.

    Layout: per image 3 channel planes (R, G, B), each a 96x96 block of
    unsigned bytes in column-major order.  Channels are mixed with the
    BT.601 luma weights and scaled with v/127.5 - 1.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % STL10_IMAGE_BYTES != 0:
        raise ValueError(
            f"{path}: size {len(raw)} is not a positive multiple of "
            f"{STL10_IMAGE_BYTES} bytes per image"
        )
    count = len(raw) // STL10_IMAGE_BYTES
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(count, 3, 96, 96)
    planes = planes.transpose(0, 1, 3, 2).astype(np.float64)  # column-major
    gray = (0.299 * planes[:, 0] + 0.587 * planes[:, 1]
            + 0.114 * planes[:, 2])
    return ImageSet(gray / 127.5 - 1.0)


def generate_textured_images(count: int, height: int, width: int, seed: int,
                             waves: int = 24, min_cycles: float = 1.0,
                             max_cycles: float = 12.0,
                             spectral_decay: float = 1.3) -> ImageSet:
    """Random smooth textures from one shared family of plane waves.

    A wave table of ``waves`` (frequency, orientation, amplitude)
    triples is drawn once from the seed: frequency magnitudes between
    ``min_cycles`` and ``max_cycles`` cycles per image, amplitudes
    falling off as ``cycles**-spectral_decay``, orientations biased
    towards horizontal so the pixel-covariance ensemble is anisotropic.
    Each image then randomises the phases and mildly jitters the
    amplitudes (independent stream per image) and is rescaled to peak
    amplitude 1.  Like the natural photographs it stands in for, the
    ensemble is dominated by smooth structure but keeps an energetic
    spectral tail, and all images share their statistics, so windows
    cropped from different images move under common dynamics.
    """
    if count < 1 or height < 1 or width < 1:
        raise ValueError("count and dimensions must be positive")
    if waves < 1:
        raise ValueError("need at least one wave")
    table_rng = Rng(derive_seed(seed, 2 ** 32))  # clear of per-image streams
    table = []
    for _ in range(waves):
        cycles = table_rng.uniform_in(min_cycles, max_cycles)
        angle = (table_rng.uniform_in(-0.35, 0.35)
                 + (np.pi if table_rng.randint(2) else 0.0))
        amp = table_rng.uniform_in(0.5, 1.0) * cycles ** -spectral_decay
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
    return ImageSet(images)


def generate_moving_crop_dataset(images: ImageSet, crop: int,
                                 frames_per_sequence: int, count: int,
                                 seed: int) -> SequenceDataset:
    """One windowed-random-walk sequence per source image.

    The ``crop`` x ``crop`` window starts at a uniform position, then
    moves one pixel per frame in a direction chosen uniformly among the
    moves that keep it inside the image (it stays put only when the
    window fills the image).  Frame t is the flattened window content
    at position t.
    """
    if crop < 1 or crop > images.height or crop > images.width:
        raise ValueError(
            f"crop {crop} does not fit in {images.height}x{images.width} images"
        )
    if frames_per_sequence < 1:
        raise ValueError("need at least 1 frame per sequence")
    if not 1 <= count <= images.count:
        raise ValueError(
            f"count {count} outside [1, {images.count}] (one sequence per image)"
        )

    max_r = images.height - crop
    max_c = images.width - crop
    out = np.empty((count, frames_per_sequence, crop * crop))
    for s in range(count):
        rng = Rng(derive_seed(seed, s))
        img = images.pixels[s]
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
    return SequenceDataset(out, split="all", frame_shape=(crop, crop))


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

    out = np.empty((count, frames_per_sequence, canvas * canvas))
    for s in range(count):
        rng = Rng(derive_seed(seed, s))
        patch = np.full((sprite, sprite), -1.0)
        for r in range(sprite):
            for c in range(sprite):
                if disc[r, c]:
                    patch[r, c] = rng.uniform_in(0.2, 1.0)
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
    return SequenceDataset(out, split="all", frame_shape=(canvas, canvas))


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
    too.  Cells parse as ``float()`` parses them.

    Memory: each row is converted to float64 as soon as it is read, so
    only one row of cell strings is alive at a time and the peak is
    about twice the result (the row arrays, then the stacked matrix).
    """
    rows, header = [], False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {reader.line_num} has {len(row)} cells, "
                    f"expected {len(rows[0])}"
                )
            try:
                rows.append(np.array(row, dtype=np.float64))
            except ValueError as exc:
                if rows or header:
                    raise ValueError(f"{path}: non-numeric cell in row "
                                     f"{reader.line_num}") from exc
                header = True
    if not rows:
        raise ValueError(f"{path}: only a header row, no data" if header
                         else f"{path}: empty CSV")
    data = np.stack(rows)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: contains non-finite values")
    return data


def save_csv_series(path, series, header=None) -> None:
    """Write a (timepoints, nodes) matrix as CSV with full float precision.

    The bytes are those of ``csv.writer`` (``\\r\\n`` line ends): a
    ``repr`` float never needs quoting, so data rows are joined
    directly, one row of Python floats at a time.
    """
    s = linalg.as_matrix(series, "series")
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in s)


def sequences_from_series(series, frames_per_sequence: int) -> SequenceDataset:
    """Chop a long (T, n) series into consecutive fixed-length sequences."""
    s = linalg.as_matrix(series, "series")
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


def save_tensor(path, dims, values) -> None:
    """Write a tensor in the GTS1 container (float32, row-major)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("dims must be non-empty")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size != math.prod(dims):
        raise ValueError(
            f"value count {arr.size} does not match dims {dims}"
        )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", b"GTS1", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(np.ascontiguousarray(arr.reshape(dims), dtype="<f4").tobytes())


def load_tensor(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read a GTS1 tensor; returns (dims, float64 array shaped dims)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated GTS1 header")
    magic, rank = struct.unpack_from("<4sI", raw, 0)
    if magic != b"GTS1":
        raise ValueError(f"{path}: bad magic {magic!r}, expected b'GTS1'")
    if rank == 0:
        raise ValueError(f"{path}: rank 0 tensor is not allowed")
    if len(raw) < 8 + 4 * rank:
        raise ValueError(f"{path}: truncated GTS1 dims")
    dims = struct.unpack_from(f"<{rank}I", raw, 8)
    need = 8 + 4 * rank + 4 * math.prod(dims)
    if len(raw) < need:
        raise ValueError(f"{path}: truncated GTS1 data "
                         f"({len(raw)} bytes, expected {need})")
    if len(raw) > need:
        raise ValueError(f"{path}: trailing bytes after GTS1 data")
    values = np.frombuffer(raw, dtype="<f4", offset=8 + 4 * rank)
    return dims, values.astype(np.float64).reshape(dims)


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
    order = list(range(total))
    Rng(seed).shuffle(order)
    train_idx = order[:num_train]
    test_idx = order[num_train:]
    return (
        SequenceDataset(dataset.sequences[train_idx], split="train",
                        frame_shape=dataset.frame_shape),
        SequenceDataset(dataset.sequences[test_idx], split="test",
                        frame_shape=dataset.frame_shape),
    )
