"""Datasets and image IO: CIFAR binary parsing, a deterministic synthetic
shape dataset for desk-scale runs, normalization, and PGM/PPM export."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# conventional per-channel stats for the CIFAR recipes; configs may override
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)
CIFAR100_MEAN = (0.5071, 0.4865, 0.4409)
CIFAR100_STD = (0.2673, 0.2564, 0.2762)

SHAPE_CLASSES = ("square", "disk", "cross", "tri")


@dataclass
class LabeledImage:
    pixels: np.ndarray  # (C,H,W) floats in [0,1] before normalization
    label: int
    source_id: str
    coarse_label: int | None = None  # cifar100 byte, kept for round-trips


@dataclass
class DatasetSplit:
    images: list[LabeledImage]
    num_classes: int
    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)
    augment: bool = False
    _stack: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.images:
            raise ValueError("dataset split must be nonempty")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        c = self.images[0].pixels.shape[0]
        if self.mean.shape != (c,) or self.std.shape != (c,):
            raise ValueError(f"stats must have {c} entries per channel")
        if (self.std <= 0).any():
            raise ValueError("std entries must be positive")

    def __len__(self):
        return len(self.images)

    @property
    def labels(self) -> np.ndarray:
        return np.array([im.label for im in self.images], dtype=np.int64)

    def stacked(self) -> np.ndarray:
        """All raw pixels as one (N,C,H,W) array (cached)."""
        if self._stack is None:
            self._stack = np.stack([im.pixels for im in self.images])
        return self._stack

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        m = self.mean.reshape(-1, 1, 1)
        s = self.std.reshape(-1, 1, 1)
        return (pixels - m) / s

    def batch(self, indices, rng: np.random.Generator | None = None):
        """Normalized (n,C,H,W) inputs and labels; augments when configured."""
        idx = np.asarray(indices)
        raw = self.stacked()[idx]
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


def parse_cifar(path, variant: str, mean=None, std=None, augment=False) -> DatasetSplit:
    """Parse one CIFAR binary batch file, bit-exactly.

    cifar10 records are 1 label byte + 3072 pixel bytes; cifar100 records
    carry a coarse byte then the fine label. Pixel planes are 1024 R, 1024 G,
    1024 B in row-major order; bytes map to [0,1] by /255.
    """
    if variant not in _CIFAR_META:
        raise ValueError(f"unknown CIFAR variant {variant!r}")
    rec_size, n_classes, label_bytes = _CIFAR_META[variant]
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % rec_size != 0:
        raise ValueError(
            f"{path}: length {raw.size} is not a multiple of record size "
            f"{rec_size} (remainder {raw.size % rec_size})"
        )
    records = raw.reshape(-1, rec_size)
    images = []
    for i, rec in enumerate(records):
        coarse = int(rec[0]) if label_bytes == 2 else None
        label = int(rec[label_bytes - 1])
        if label >= n_classes:
            raise ValueError(f"record {i}: label byte {label} >= {n_classes}")
        planes = rec[label_bytes:].reshape(3, 32, 32)
        images.append(
            LabeledImage(planes.astype(np.float64) / 255.0, label, f"{variant}:{i}", coarse)
        )
    if mean is None:
        mean = CIFAR10_MEAN if variant == "cifar10" else CIFAR100_MEAN
    if std is None:
        std = CIFAR10_STD if variant == "cifar10" else CIFAR100_STD
    return DatasetSplit(images, n_classes, mean, std, augment=augment)


def serialize_cifar_record(image: LabeledImage, variant: str) -> bytes:
    """Inverse of one parse_cifar record; exact for byte-sourced pixels."""
    rec_size, _, label_bytes = _CIFAR_META[variant]
    out = bytearray()
    if label_bytes == 2:
        out.append(image.coarse_label or 0)
    out.append(image.label)
    quant = np.clip(np.round(image.pixels * 255.0), 0, 255).astype(np.uint8)
    out.extend(quant.reshape(-1).tobytes())
    if len(out) != rec_size:
        raise ValueError(f"serialized record is {len(out)} bytes, want {rec_size}")
    return bytes(out)


# --------------------------------------------------------------------------
# synthetic shapes
# --------------------------------------------------------------------------

def synthetic_shapes(n: int, hw: int = 16, seed: int = 0) -> DatasetSplit:
    """Deterministic dataset of bright shapes on noisy backgrounds, one
    class per entry of SHAPE_CLASSES.

    Classes are assigned round-robin so any n divisible by the class count is
    exactly balanced. Normalization stats are computed from the generated set.
    """
    if hw < 8:
        raise ValueError("hw must be >= 8")
    if n < len(SHAPE_CLASSES):
        raise ValueError("need at least one image per class")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    images = []
    for i in range(n):
        label = i % len(SHAPE_CLASSES)
        img = rng.uniform(0.0, 0.35, size=(3, hw, hw))
        cx, cy = rng.uniform(0.3, 0.7, size=2) * hw
        r = rng.uniform(0.18, 0.3) * hw
        color = rng.uniform(0.65, 1.0, size=3)
        kind = SHAPE_CLASSES[label]
        if kind == "square":
            mask = (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
        elif kind == "disk":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r**2
        elif kind == "cross":
            bar = max(1.0, r / 3.0)
            mask = ((np.abs(xx - cx) <= bar) & (np.abs(yy - cy) <= r)) | (
                (np.abs(yy - cy) <= bar) & (np.abs(xx - cx) <= r)
            )
        else:  # tri
            mask = (yy >= cy - r) & (yy <= cy + r) & (np.abs(xx - cx) <= (yy - (cy - r)) / 2)
        img[:, mask] = color[:, None]
        images.append(LabeledImage(img, label, f"synthetic:{seed}:{i}"))
    stack = np.stack([im.pixels for im in images])
    mean = stack.mean(axis=(0, 2, 3))
    std = stack.std(axis=(0, 2, 3))
    return DatasetSplit(images, len(SHAPE_CLASSES), mean, std)


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


def write_image(path, kind: str, payload) -> None:
    """Write a binary netpbm file.

    pgm_gray: payload is an (H,W) map in [0,1].
    ppm_overlay: payload is (image_chw, saliency_hw); blends the image at
    weight 0.5 with the colormapped saliency.
    """
    if kind == "pgm_gray":
        arr = np.asarray(payload, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"pgm_gray wants (H,W), got {arr.shape}")
        header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
        body = _quantize(arr).tobytes()
    elif kind == "ppm_overlay":
        image_chw, sal = payload
        image = np.transpose(np.asarray(image_chw, dtype=np.float64), (1, 2, 0))
        sal = np.asarray(sal, dtype=np.float64)
        if image.shape[:2] != sal.shape:
            raise ValueError(f"overlay shapes differ: {image.shape[:2]} vs {sal.shape}")
        blend = 0.5 * image + 0.5 * colormap(sal)
        header = f"P6\n{sal.shape[1]} {sal.shape[0]}\n255\n".encode()
        body = _quantize(blend).tobytes()
    else:
        raise ValueError(f"unknown image kind {kind!r}")
    with open(path, "wb") as f:
        f.write(header)
        f.write(body)
