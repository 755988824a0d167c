"""Dataset parsing, synthetic generation, normalization, and image export."""

import numpy as np
import pytest

from igrad.data import (
    DatasetSplit,
    LabeledImage,
    SHAPE_CLASSES,
    colormap,
    parse_cifar,
    serialize_cifar_record,
    synthetic_shapes,
    write_image,
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


class TestSyntheticShapes:
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
        stack = split.stacked()
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
        np.testing.assert_array_equal(plain, split.normalize(split.stacked()[:4]))


class TestNormalization:
    def test_bad_stats_rejected(self):
        img = LabeledImage(np.zeros((3, 8, 8)), 0, "x")
        with pytest.raises(ValueError, match="std"):
            DatasetSplit([img], 4, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="entries"):
            DatasetSplit([img], 4, np.zeros(2), np.ones(2))

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            DatasetSplit([], 4, np.zeros(3), np.ones(3))


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
        write_image(path, "pgm_gray", np.zeros((2, 2)))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + b"\x00" * 4

    def test_ones_map(self, tmp_path):
        path = tmp_path / "o.pgm"
        write_image(path, "pgm_gray", np.ones((2, 2)))
        assert path.read_bytes().endswith(b"\xff" * 4)

    def test_pgm_round_trip_independent_reader(self, tmp_path):
        arr = np.random.default_rng(4).uniform(0, 1, size=(5, 7))
        path = tmp_path / "r.pgm"
        write_image(path, "pgm_gray", arr)
        got = parse_pgm(path.read_bytes())
        want = np.clip(np.round(arr * 255), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(got, want)

    def test_overlay_blend_oracle(self, tmp_path):
        # zero saliency: every output pixel is 0.5*image + 0.5*colormap(0)
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, size=(3, 4, 4))
        path = tmp_path / "ov.ppm"
        write_image(path, "ppm_overlay", (img, np.zeros((4, 4))))
        raw = path.read_bytes()
        body = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8).reshape(4, 4, 3)
        want = 0.5 * np.transpose(img, (1, 2, 0)) + 0.5 * np.array([0.0, 0.0, 1.0])
        want = np.clip(np.round(want * 255), 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(body, want)

    def test_colormap_anchors(self):
        np.testing.assert_allclose(colormap(np.array(0.0)), [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(colormap(np.array(0.5)), [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(colormap(np.array(1.0)), [1, 0, 0], atol=1e-12)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            write_image(tmp_path / "x.bin", "jpeg", np.zeros((2, 2)))

    def test_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="pgm_gray"):
            write_image(tmp_path / "x.pgm", "pgm_gray", np.zeros((2, 2, 3)))
