"""Dataset parsing, synthetic generation, normalization, and image export."""

import os
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from igrad.data import (
    DatasetSplit,
    SHAPE_CLASSES,
    colormap,
    open_new,
    parse_cifar,
    serialize_cifar_record,
    synthetic_shapes,
    write_overlay,
    write_pgm,
)


def make_cifar10_bytes(records):
    """records: list of (label, pixel_fill) -> raw file bytes."""
    out = bytearray()
    for label, fill in records:
        out.append(label)
        out.extend([fill] * 3072)
    return bytes(out)


class TestParseCifar:
    def test_single_record(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(make_cifar10_bytes([(3, 255)]))
        split = parse_cifar(path, "cifar10")
        assert len(split) == 1
        assert split.images[0].label == 3
        np.testing.assert_array_equal(split.images[0].pixels, 1.0)
        assert split.images[0].pixels.shape == (3, 32, 32)

    def test_wrong_length_remainder(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_cifar10_bytes([(0, 0), (1, 1)]) + b"\x00")
        with pytest.raises(ValueError, match="remainder 1"):
            parse_cifar(path, "cifar10")
        with pytest.raises(ValueError, match="3073"):
            parse_cifar(path, "cifar10")

    def test_label_out_of_range_names_record(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_cifar10_bytes([(2, 0), (11, 0)]))
        with pytest.raises(ValueError, match="record 1"):
            parse_cifar(path, "cifar10")

    def test_first_of_two_bad_labels_named(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(make_cifar10_bytes([(2, 0), (12, 0), (11, 0)]))
        with pytest.raises(ValueError, match="record 1: label 12 "):
            parse_cifar(path, "cifar10")

    def test_empty_file_names_its_path(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=re.escape(f"{path}: no records")):
            parse_cifar(path, "cifar10")

    def test_writes_to_an_image_view_reach_the_next_batch(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(make_cifar10_bytes([(3, 10), (4, 20), (5, 30)]))
        split = parse_cifar(path, "cifar10")
        split.batch([0, 1, 2])
        split.images[1].pixels[:] = 1.0
        x, _ = split.batch([1])
        np.testing.assert_array_equal(x[0], split.normalize(np.ones((3, 32, 32))))
        split.pixels[2, 0] = 0.0
        x, y = split.batch([1, 2])
        np.testing.assert_array_equal(x[1, 0], -split.mean[0] / split.std[0])
        assert y.tolist() == [4, 5]
        with pytest.raises(FrozenInstanceError):
            split.images[0].label = 7
        assert split.labels.tolist() == [3, 4, 5]

    def test_round_trip_cifar10(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = bytearray()
        for i in range(3):
            raw.append(i)
            raw.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        path = tmp_path / "b.bin"
        path.write_bytes(bytes(raw))
        split = parse_cifar(path, "cifar10")
        rebuilt = b"".join(serialize_cifar_record(im, "cifar10") for im in split.images)
        assert rebuilt == bytes(raw)

    def test_round_trip_cifar100(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = bytearray()
        for i in range(4):
            raw.append(rng.integers(0, 20))   # coarse byte
            raw.append(rng.integers(0, 100))  # fine label
            raw.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        path = tmp_path / "b100.bin"
        path.write_bytes(bytes(raw))
        split = parse_cifar(path, "cifar100")
        assert split.num_classes == 100
        rebuilt = b"".join(serialize_cifar_record(im, "cifar100") for im in split.images)
        assert rebuilt == bytes(raw)

    def test_parser_totality(self, tmp_path):
        path = tmp_path / "b.bin"
        n = 7
        path.write_bytes(make_cifar10_bytes([(i % 10, i) for i in range(n)]))
        split = parse_cifar(path, "cifar10")
        assert len(split) == n
        assert [im.label for im in split.images] == [i % 10 for i in range(n)]


def _synthetic_shapes_per_image(n, hw, seed):
    """The per-image generator synthetic_shapes replaced, kept as its oracle:
    images, labels, mean and std."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    images, labels = [], []
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
        images.append(img)
        labels.append(label)
    stack = np.stack(images)
    return images, labels, stack.mean(axis=(0, 2, 3)), stack.std(axis=(0, 2, 3))


class TestSyntheticShapes:
    @pytest.mark.parametrize(
        "n, hw, seed", [(1024, 16, 11), (16, 16, 1), (37, 9, 5), (256, 32, 0), (64, 8, 2)]
    )
    def test_matches_per_image_generator(self, n, hw, seed):
        images, labels, mean, std = _synthetic_shapes_per_image(n, hw, seed)
        split = synthetic_shapes(n, hw=hw, seed=seed)
        assert [im.label for im in split.images] == labels
        assert all(type(im.label) is int for im in split.images)
        for im, want in zip(split.images, images):
            assert im.pixels.tobytes() == want.tobytes()
        assert split.pixels.tobytes() == np.stack(images).tobytes()
        assert split.mean.tobytes() == mean.tobytes()
        assert split.std.tobytes() == std.tobytes()

    def test_same_seed_bit_identical(self):
        a = synthetic_shapes(12, hw=16, seed=9)
        b = synthetic_shapes(12, hw=16, seed=9)
        for x, y in zip(a.images, b.images):
            np.testing.assert_array_equal(x.pixels, y.pixels)
            assert x.label == y.label
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_balanced_four_images(self):
        split = synthetic_shapes(4, hw=16, seed=0)
        assert sorted(im.label for im in split.images) == [0, 1, 2, 3]

    def test_pixel_bounds(self):
        split = synthetic_shapes(20, hw=16, seed=3)
        stack = split.pixels
        assert stack.min() >= 0.0 and stack.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="hw"):
            synthetic_shapes(8, hw=4, seed=0)
        with pytest.raises(ValueError, match="per class"):
            synthetic_shapes(2, hw=16, seed=0)

    def test_all_shape_kinds_render(self):
        split = synthetic_shapes(len(SHAPE_CLASSES), hw=16, seed=5)
        for im in split.images:
            # the shape must brighten some pixels beyond the background cap
            assert (im.pixels.max(axis=0) > 0.4).sum() >= 4


class TestAugmentation:
    def test_flip_crop_deterministic_and_bounded(self):
        split = synthetic_shapes(8, hw=16, seed=4)
        split.augment = True
        a, _ = split.batch(np.arange(8), rng=np.random.default_rng(7))
        b, _ = split.batch(np.arange(8), rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (8, 3, 16, 16)

    def test_no_rng_means_no_augmentation(self):
        split = synthetic_shapes(4, hw=16, seed=4)
        split.augment = True
        plain, _ = split.batch(np.arange(4))
        np.testing.assert_array_equal(plain, split.normalize(split.pixels[:4]))


class TestNormalization:
    def test_bad_stats_rejected(self):
        pixels, labels = np.zeros((1, 3, 8, 8)), np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="std"):
            DatasetSplit(pixels, labels, 4, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="entries"):
            DatasetSplit(pixels, labels, 4, np.zeros(2), np.ones(2))

    def test_labels_checked_against_pixels_and_classes(self):
        mean, std = np.zeros(3), np.ones(3)
        with pytest.raises(ValueError, match="record 0: label 7 not in 0..3"):
            DatasetSplit(np.zeros((1, 3, 8, 8)), [7], 4, mean, std)
        with pytest.raises(ValueError, match="record 1: label -1 "):
            DatasetSplit(np.zeros((3, 3, 8, 8)), [0, -1, 4], 4, mean, std)
        with pytest.raises(ValueError, match=re.escape("labels must have shape (2,)")):
            DatasetSplit(np.zeros((2, 3, 8, 8)), [0], 4, mean, std)
        with pytest.raises(ValueError, match=re.escape("pixels must be (N,C,H,W)")):
            DatasetSplit(np.zeros((3, 8, 8)), [0, 0, 0], 4, mean, std)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            DatasetSplit(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64), 4, np.zeros(3), np.ones(3))


def parse_pgm(raw: bytes):
    """Tiny independent PGM reader for round-trip checks."""
    assert raw[:2] == b"P5"
    parts = raw.split(b"\n", 3)
    w, h = (int(v) for v in parts[1].split())
    assert parts[2] == b"255"
    body = parts[3]
    assert len(body) == w * h
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


class TestWriteImage:
    def test_zero_map_exact_bytes(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(path, np.zeros((2, 2)))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + b"\x00" * 4

    def test_ones_map(self, tmp_path):
        path = tmp_path / "o.pgm"
        write_pgm(path, np.ones((2, 2)))
        assert path.read_bytes().endswith(b"\xff" * 4)

    def test_pgm_round_trip_independent_reader(self, tmp_path):
        arr = np.random.default_rng(4).uniform(0, 1, size=(5, 7))
        path = tmp_path / "r.pgm"
        write_pgm(path, arr)
        got = parse_pgm(path.read_bytes())
        want = np.clip(np.round(arr * 255), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(got, want)

    def test_overlay_blend_oracle(self, tmp_path):
        # zero saliency: every output pixel is 0.5*image + 0.5*colormap(0)
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, size=(3, 4, 4))
        path = tmp_path / "ov.ppm"
        write_overlay(path, img, np.zeros((4, 4)))
        raw = path.read_bytes()
        body = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8).reshape(4, 4, 3)
        want = 0.5 * np.transpose(img, (1, 2, 0)) + 0.5 * np.array([0.0, 0.0, 1.0])
        want = np.clip(np.round(want * 255), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(body, want)

    def test_colormap_anchors(self):
        np.testing.assert_allclose(colormap(np.array(0.0)), [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(colormap(np.array(0.5)), [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(colormap(np.array(1.0)), [1, 0, 0], atol=1e-12)

    def test_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="pgm wants"):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="overlay shapes differ"):
            write_overlay(tmp_path / "x.ppm", np.zeros((3, 4, 4)), np.zeros((4, 5)))


class TestOpenNew:
    def test_creates_a_missing_file(self, tmp_path):
        with open_new(tmp_path / "a.txt") as f:
            f.write("new\n")
        assert (tmp_path / "a.txt").read_text() == "new\n"

    def test_existing_file_replaced_not_truncated(self, tmp_path):
        # a hard link keeps the earlier file: it still holds its bytes
        path, held = tmp_path / "a.pgm", tmp_path / "held.pgm"
        path.write_bytes(b"old")
        held.hardlink_to(path)
        with open_new(path, "wb") as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert held.read_bytes() == b"old"
        assert path.stat().st_ino != held.stat().st_ino

    def test_symlink_replaced_target_untouched(self, tmp_path):
        target, path = tmp_path / "target.txt", tmp_path / "a.csv"
        target.write_text("keep\n")
        path.symlink_to(target)
        with open_new(path, newline="") as f:
            f.write("new\r\n")
        assert not path.is_symlink()
        assert path.read_bytes() == b"new\r\n"
        assert target.read_text() == "keep\n"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_write_protected_file_fails_and_is_kept(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        path.chmod(0o444)
        with pytest.raises(PermissionError, match="a.txt"):
            open_new(path)
        assert path.read_text() == "old\n"

    def test_file_the_process_may_not_write_fails_and_is_kept(self, tmp_path, monkeypatch):
        # the check asks os.access, so it holds for root too when access says no
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        monkeypatch.setattr(os, "access", lambda p, mode: False)
        with pytest.raises(PermissionError, match="a.txt"):
            open_new(path)
        assert path.read_text() == "old\n"

    def test_symlink_to_a_write_protected_file_replaced(self, tmp_path, monkeypatch):
        target, path = tmp_path / "target.txt", tmp_path / "a.txt"
        target.write_text("keep\n")
        path.symlink_to(target)
        monkeypatch.setattr(os, "access", lambda p, mode: False)
        with open_new(path) as f:
            f.write("new\n")
        assert path.read_text() == "new\n"
        assert target.read_text() == "keep\n"
