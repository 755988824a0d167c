"""Datasets and image IO: CIFAR binary parsing, a deterministic synthetic
shape dataset for desk-scale runs, normalization, and PGM/PPM export."""

from __future__ import annotations

import errno
import os
import stat
from dataclasses import dataclass

import numpy as np

# conventional per-channel stats for the CIFAR recipes; configs may override
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)
CIFAR100_MEAN = (0.5071, 0.4865, 0.4409)
CIFAR100_STD = (0.2673, 0.2564, 0.2762)

SHAPE_CLASSES = ("square", "disk", "cross", "tri")


@dataclass(frozen=True)
class LabeledImage:
    pixels: np.ndarray  # (C,H,W) floats in [0,1] before normalization
    label: int
    coarse_label: int | None = None  # cifar100 byte, kept for round-trips


@dataclass
class DatasetSplit:
    pixels: np.ndarray  # (N,C,H,W) floats in [0,1] before normalization
    labels: np.ndarray  # (N,) int64
    num_classes: int
    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)
    augment: bool = False
    coarse: np.ndarray | None = None  # (N,) cifar100 coarse bytes, kept for round-trips

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 4:
            raise ValueError(f"pixels must be (N,C,H,W), got shape {self.pixels.shape}")
        if not len(self.pixels):
            raise ValueError("dataset split must be nonempty")
        if self.labels.shape != self.pixels.shape[:1]:
            raise ValueError(f"labels must have shape ({len(self.pixels)},), got {self.labels.shape}")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.size:
            i = bad[0]
            raise ValueError(f"record {i}: label {self.labels[i]} not in 0..{self.num_classes - 1}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        c = self.pixels.shape[1]
        if self.mean.shape != (c,) or self.std.shape != (c,):
            raise ValueError(f"stats must have {c} entries per channel")
        if (self.std <= 0).any():
            raise ValueError("std entries must be positive")

    def __len__(self):
        return len(self.labels)

    @property
    def images(self) -> list[LabeledImage]:
        """One read-only record per image, its pixels a view of `pixels`.
        Built anew on each access, in O(N): for reading single images."""
        coarse = [None] * len(self) if self.coarse is None else self.coarse.tolist()
        return list(map(LabeledImage, self.pixels, self.labels.tolist(), coarse))

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        m = self.mean.reshape(-1, 1, 1)
        s = self.std.reshape(-1, 1, 1)
        return (pixels - m) / s

    def batch(self, indices, rng: np.random.Generator | None = None):
        """Normalized (n,C,H,W) inputs and labels; augments when configured."""
        idx = np.asarray(indices)
        raw = self.pixels[idx]
        if self.augment and rng is not None:
            raw = _augment_flip_crop(raw, rng)
        return self.normalize(raw), self.labels[idx]


def _augment_flip_crop(raw: np.ndarray, rng: np.random.Generator, pad: int = 4):
    """Zero-pad by 4, random crop back, random horizontal flip."""
    n, c, h, w = raw.shape
    padded = np.pad(raw, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty_like(raw)
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.integers(0, 2, size=n)
    for i in range(n):
        dy, dx = offs[i]
        crop = padded[i, :, dy : dy + h, dx : dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


# --------------------------------------------------------------------------
# CIFAR binary format
# --------------------------------------------------------------------------

_CIFAR_META = {
    "cifar10": (3073, 10, 1),   # record size, classes, label bytes
    "cifar100": (3074, 100, 2),
}


def parse_cifar(path, variant: str, mean=None, std=None) -> DatasetSplit:
    """Parse one CIFAR binary batch file, bit-exactly.

    cifar10 records are 1 label byte + 3072 pixel bytes; cifar100 records
    carry a coarse byte then the fine label. Pixel planes are 1024 R, 1024 G,
    1024 B in row-major order; bytes map to [0,1] by /255.
    """
    if variant not in _CIFAR_META:
        raise ValueError(f"unknown CIFAR variant {variant!r}")
    rec_size, n_classes, label_bytes = _CIFAR_META[variant]
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise ValueError(f"{path}: no records")
    if raw.size % rec_size != 0:
        raise ValueError(
            f"{path}: length {raw.size} is not a multiple of record size "
            f"{rec_size} (remainder {raw.size % rec_size})"
        )
    records = raw.reshape(-1, rec_size)
    pixels = records[:, label_bytes:].reshape(-1, 3, 32, 32) / 255.0
    coarse = records[:, 0].copy() if label_bytes == 2 else None
    if mean is None:
        mean = CIFAR10_MEAN if variant == "cifar10" else CIFAR100_MEAN
    if std is None:
        std = CIFAR10_STD if variant == "cifar10" else CIFAR100_STD
    return DatasetSplit(pixels, records[:, label_bytes - 1], n_classes, mean, std, coarse=coarse)


def serialize_cifar_record(image: LabeledImage, variant: str) -> bytes:
    """Inverse of one parse_cifar record; exact for byte-sourced pixels."""
    rec_size, _, label_bytes = _CIFAR_META[variant]
    out = bytearray()
    if label_bytes == 2:
        out.append(image.coarse_label or 0)
    out.append(image.label)
    out.extend(_quantize(image.pixels).reshape(-1).tobytes())
    if len(out) != rec_size:
        raise ValueError(f"serialized record is {len(out)} bytes, want {rec_size}")
    return bytes(out)


# --------------------------------------------------------------------------
# synthetic shapes
# --------------------------------------------------------------------------

def synthetic_shapes(n: int, hw: int, seed: int) -> DatasetSplit:
    """Deterministic dataset of bright shapes on noisy backgrounds, one
    class per entry of SHAPE_CLASSES.

    Classes are assigned round-robin so any n divisible by the class count is
    exactly balanced. Normalization stats are computed from the generated set.
    """
    if hw < 8:
        raise ValueError("hw must be >= 8")
    if n < len(SHAPE_CLASSES):
        raise ValueError(f"n must be >= {len(SHAPE_CLASSES)} (one image per class)")
    # Generator.uniform(lo, hi) is lo + (hi - lo) * U over the stream in
    # order, so one row of U per image holds its background, centre (x, y),
    # radius and colour, in the order a draw per image would take them
    px = 3 * hw * hw
    u = np.random.default_rng(seed).random((n, px + 6))

    def uniform(lo, hi, cols):
        return lo + (hi - lo) * u[:, cols]

    stack = uniform(0.0, 0.35, slice(0, px)).reshape(n, 3, hw, hw)
    cx, cy = (uniform(0.3, 0.7, slice(px, px + 2)) * hw).T
    r = uniform(0.18, 0.3, px + 2) * hw
    color = uniform(0.65, 1.0, slice(px + 3, px + 6))
    labels = np.arange(n) % len(SHAPE_CLASSES)
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    masks = np.empty((n, hw, hw), dtype=bool)
    for label, kind in enumerate(SHAPE_CLASSES):
        sel = labels == label
        cx_, cy_, r_ = (v[sel, None, None] for v in (cx, cy, r))
        if kind == "square":
            mask = (np.abs(xx - cx_) <= r_) & (np.abs(yy - cy_) <= r_)
        elif kind == "disk":
            # r_**2 squares where a float's ** calls libm pow, which can be one
            # ulp off; a mask moves only if a squared distance falls in that gap
            mask = (xx - cx_) ** 2 + (yy - cy_) ** 2 <= r_**2
        elif kind == "cross":
            bar = np.maximum(1.0, r_ / 3.0)
            mask = ((np.abs(xx - cx_) <= bar) & (np.abs(yy - cy_) <= r_)) | (
                (np.abs(yy - cy_) <= bar) & (np.abs(xx - cx_) <= r_)
            )
        else:  # tri
            mask = (yy >= cy_ - r_) & (yy <= cy_ + r_) & (np.abs(xx - cx_) <= (yy - (cy_ - r_)) / 2)
        masks[sel] = mask
    stack = np.where(masks[:, None], color[:, :, None, None], stack)
    mean = stack.mean(axis=(0, 2, 3))
    std = stack.std(axis=(0, 2, 3))
    return DatasetSplit(stack, labels, len(SHAPE_CLASSES), mean, std)


# --------------------------------------------------------------------------
# image export
# --------------------------------------------------------------------------

def _quantize(v: np.ndarray) -> np.ndarray:
    return np.clip(np.round(v * 255.0), 0, 255).astype(np.uint8)


def colormap(v: np.ndarray) -> np.ndarray:
    """3-anchor blue -> green -> red map over [0,1]; returns (...,3)."""
    v = np.clip(v, 0.0, 1.0)
    lo = np.clip(v * 2.0, 0.0, 1.0)          # blue->green leg
    hi = np.clip(v * 2.0 - 1.0, 0.0, 1.0)    # green->red leg
    r = hi
    g = np.where(v <= 0.5, lo, 1.0 - hi)
    b = 1.0 - lo
    return np.stack([r, g, b], axis=-1)


def remove_output(path) -> None:
    """Unlink the file at path ahead of a new write of it; a missing file is
    fine. A write-protected file (not a symlink) raises PermissionError, as
    a truncating open of it would."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return
    if not stat.S_ISLNK(st.st_mode) and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    os.unlink(path)


def open_new(path, mode="w", **kwargs):
    """Open a new file at path for writing; any file already there is
    unlinked (`remove_output`), not truncated. On ext4 truncating a file
    whose data is not yet written back waits for that write-back (about
    50 ms on some hosts), while unlinking it does not. A symlink at path is
    replaced, not written through."""
    remove_output(path)
    return open(path, mode.replace("w", "x"), **kwargs)


def _write_netpbm(path, magic: str, values: np.ndarray) -> None:
    """A binary netpbm file of (H,W) or (H,W,3) values in [0,1]."""
    with open_new(path, "wb") as f:
        f.write(f"{magic}\n{values.shape[1]} {values.shape[0]}\n255\n".encode())
        f.write(_quantize(values).tobytes())


def write_pgm(path, gray) -> None:
    """Write an (H,W) map in [0,1] as a binary PGM."""
    arr = np.asarray(gray, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"pgm wants (H,W), got {arr.shape}")
    _write_netpbm(path, "P5", arr)


def write_overlay(path, image_chw, sal) -> None:
    """Write a (C,H,W) image blended at weight 0.5 with the colormapped (H,W)
    saliency as a binary PPM."""
    image = np.transpose(np.asarray(image_chw, dtype=np.float64), (1, 2, 0))
    sal = np.asarray(sal, dtype=np.float64)
    if image.shape[:2] != sal.shape:
        raise ValueError(f"overlay shapes differ: {image.shape[:2]} vs {sal.shape}")
    _write_netpbm(path, "P6", 0.5 * image + 0.5 * colormap(sal))
