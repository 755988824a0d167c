"""Model construction, forward contracts, and checkpoint persistence."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igrad import nn
from igrad.nn import (
    ArchitectureSpec,
    CheckpointError,
    ConvBlock,
    build_model,
    load_checkpoint,
    miniresnet,
    save_checkpoint,
    spec_from_name,
    tinycnn,
)


@pytest.fixture
def spec16():
    return tinycnn((3, 16, 16), 4, (8, 16))


class TestBuild:
    def test_deterministic_init(self, spec16):
        m1 = build_model(spec16, seed=42)
        m2 = build_model(spec16, seed=42)
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_params(self, spec16):
        m1 = build_model(spec16, seed=1)
        m2 = build_model(spec16, seed=2)
        assert any(not np.array_equal(a.data, b.data) for a, b in zip(m1.params, m2.params))

    def test_forward_output_shape(self, spec16):
        m = build_model(spec16, seed=0)
        out = m.forward(np.zeros((1, 3, 16, 16)))
        assert out.logits.shape == (1, 4)

    def test_param_count_by_hand(self, spec16):
        # conv1: 8*3*3*3 + 8, conv2: 16*8*3*3 + 16, head: 4*16 + 4
        expected = (8 * 27 + 8) + (16 * 72 + 16) + (64 + 4)
        assert build_model(spec16, 0).num_params == expected == 1460

    def test_collapsed_shape_rejected(self):
        # 8 -> 4 -> 2 -> 1: the fourth pool has no 2x2 window left
        blocks = tuple(ConvBlock(4, pool=True) for _ in range(4))
        spec = ArchitectureSpec("x", (3, 8, 8), 4, blocks)
        with pytest.raises(ValueError):
            build_model(spec, 0)

    @pytest.mark.parametrize("widths, block", [((0, 6), 0), ((8, 0), 1), ((8, -3), 1)])
    def test_block_width_below_one_rejected(self, widths, block):
        with pytest.raises(ValueError, match=f"block{block + 1}: .* need at least 1"):
            build_model(tinycnn((3, 16, 16), 4, widths), 0)

    @pytest.mark.parametrize(
        "spec",
        [
            tinycnn((0, 16, 16), 4, (8, 16)),
            tinycnn((3, 0, 16), 4, (8, 16)),
            tinycnn((3, 16, 16), 0, (8, 16)),
            tinycnn((3, 16, 16), 4, ()),
        ],
    )
    def test_empty_input_classes_or_blocks_rejected(self, spec):
        with pytest.raises(ValueError, match="must all be at least 1"):
            build_model(spec, 0)

    def test_residual_channel_mismatch_rejected(self):
        spec = ArchitectureSpec("x", (3, 16, 16), 4, (ConvBlock(8, residual=True),))
        with pytest.raises(ValueError, match="residual"):
            build_model(spec, 0)

    def test_miniresnet_forward(self):
        m = build_model(miniresnet((3, 16, 16), 4, width=8), seed=0)
        out = m.forward(np.random.default_rng(0).normal(size=(2, 3, 16, 16)))
        assert out.logits.shape == (2, 4)


class TestForward:
    def test_prob_rows_sum_to_one(self, spec16):
        m = build_model(spec16, 0)
        x = np.random.default_rng(1).normal(size=(5, 3, 16, 16))
        p = m.forward(x).probs.data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_head_gives_uniform(self, spec16):
        m = build_model(spec16, 0)
        m.param_by_name("head.w").data[:] = 0.0
        p = m.forward(np.random.default_rng(2).normal(size=(3, 3, 16, 16))).probs.data
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_feature_map_shapes(self, spec16):
        m = build_model(spec16, 0)
        maps = m.forward(np.zeros((1, 3, 16, 16))).feature_maps
        assert maps["last_conv"].shape == (1, 16, 8, 8)
        assert maps["gap_input"].shape == (1, 16, 4, 4)
        assert maps["block1"].shape == (1, 8, 16, 16)

    def test_feature_maps_nonnegative(self, spec16):
        m = build_model(spec16, 0)
        x = np.random.default_rng(3).normal(size=(4, 3, 16, 16))
        for name, t in m.forward(x).feature_maps.items():
            assert t.data.min() >= 0.0, name

    def test_batch_permutation_no_leakage(self, spec16):
        m = build_model(spec16, 0)
        x = np.random.default_rng(4).normal(size=(6, 3, 16, 16))
        perm = np.array([3, 0, 5, 1, 4, 2])
        straight = m.forward(x).logits.data
        shuffled = m.forward(x[perm]).logits.data
        np.testing.assert_array_equal(straight[perm], shuffled)

    def test_forward_determinism(self, spec16):
        m = build_model(spec16, 0)
        x = np.random.default_rng(5).normal(size=(2, 3, 16, 16))
        np.testing.assert_array_equal(m.forward(x).logits.data, m.forward(x).logits.data)

    def test_shape_mismatch_rejected(self, spec16):
        m = build_model(spec16, 0)
        with pytest.raises(ValueError, match="forward"):
            m.forward(np.zeros((1, 3, 8, 8)))

    def test_unknown_layer_rejected(self, spec16):
        m = build_model(spec16, 0)
        with pytest.raises(ValueError, match="unknown layer"):
            m.resolve_layer("block9")


class TestCheckpoint:
    def test_round_trip_bytes(self, spec16, tmp_path):
        m = build_model(spec16, seed=9)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(m.params, loaded.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_failed_write_keeps_previous_checkpoint(self, spec16, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(spec16, seed=9), path)
        before = path.read_bytes()

        m = build_model(spec16, seed=10)

        class Unwritable:
            size = m.params[-1].data.size

            def astype(self, dtype):
                raise OSError("disk full")

        monkeypatch.setattr(m.params[-1], "data", Unwritable())  # after the header and most params
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(m, path)
        assert path.read_bytes() == before
        assert load_checkpoint(path).seed == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_truncated_payload_names_params(self, spec16, tmp_path):
        m = build_model(spec16, 0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="params"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_architecture_mismatch(self, spec16, tmp_path):
        m = build_model(spec16, 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)
        other = tinycnn((3, 16, 16), 4, (4, 8))
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(path, other)

    def test_spec_from_name_round_trip(self, spec16):
        assert spec_from_name(spec16.name) == spec16
        mr = miniresnet((3, 32, 32), 10, width=16)
        assert spec_from_name(mr.name) == mr

    def test_spec_from_unknown_name(self):
        with pytest.raises(CheckpointError, match="architecture"):
            spec_from_name("resnet50-pretrained")


def _corrupt_load(path, raw):
    """Load `raw` as a checkpoint: a model, or None for a CheckpointError."""
    path.write_bytes(raw)
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return None


class TestCorruptCheckpoint:
    """Any damaged checkpoint either loads or raises CheckpointError."""

    SPEC = tinycnn((1, 4, 4), 2, (1, 2))
    HEADER = 4 + 4 + 4 + len(SPEC.name) + 8 + 8

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "good.ckpt"
        save_checkpoint(build_model(self.SPEC, seed=5), path)
        return path.read_bytes()

    @pytest.mark.parametrize("old, new", [(b"3x16x16", b"0x16x16"), (b"w8.16", b"w0.16")])
    def test_zero_size_in_name(self, spec16, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(spec16, 0), path)
        path.write_bytes(path.read_bytes().replace(old, new))
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(path)

    def test_undecodable_name(self, spec16, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(spec16, 0), path)
        path.write_bytes(path.read_bytes().replace(b"tinycnn", b"tiny\xffnn"))
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(path)

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_every_single_byte_change(self, good, tmp_path, data):
        # half the draws land in the header, where the parsing happens
        where = st.integers(0, self.HEADER - 1) | st.integers(0, len(good) - 1)
        pos = data.draw(where, label="position")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != good[pos]), label="byte")
        raw = bytearray(good)
        raw[pos] = value
        _corrupt_load(tmp_path / "m.ckpt", bytes(raw))

    def test_every_truncation(self, good, tmp_path):
        assert _corrupt_load(tmp_path / "m.ckpt", good) is not None
        for n in range(len(good)):
            assert _corrupt_load(tmp_path / "m.ckpt", good[:n]) is None


def _header(name: bytes, count: int) -> bytes:
    """A checkpoint header for `name` at seed 0 that announces `count` parameters."""
    return (
        nn.CHECKPOINT_MAGIC + struct.pack("<II", nn.CHECKPOINT_VERSION, len(name)) + name
        + struct.pack("<QQ", 0, count)
    )


class TestLoadWithoutInit:
    """Loading reads the parameters' layout from the spec and draws nothing."""

    def test_count_checked_before_any_allocation(self, tmp_path):
        # the architecture this name spells holds 20,299,504 parameters (155 MiB)
        path = tmp_path / "crafted.ckpt"
        path.write_bytes(_header(b"tinycnn-3x16x16-c4-w1500.1500", 10) + bytes(80))
        assert path.stat().st_size == 137
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "params: count 10 does not match architecture (20299504)"
        assert peak < 2**20

    def test_load_draws_no_random_numbers(self, spec16, tmp_path, monkeypatch):
        m = build_model(spec16, seed=9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, path)

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        assert [p.name for p in loaded.params] == [p.name for p in m.params]
        for a, b in zip(m.params, loaded.params):
            np.testing.assert_array_equal(a.data, b.data)
            assert b.data.flags.writeable and b.data.flags.c_contiguous

    def test_payload_read_without_a_copy(self, tmp_path):
        # the file's bytes and the parameters' arrays, each 2.29 MiB, but no
        # third copy of the payload between them (a 6.87 MiB peak with one)
        m = build_model(tinycnn((3, 32, 32), 4, (128, 256)), seed=0)
        path = tmp_path / "wide.ckpt"
        save_checkpoint(m, path)
        assert 2.28 * 2**20 < path.stat().st_size < 2.30 * 2**20
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        for a, b in zip(m.params, loaded.params):
            np.testing.assert_array_equal(a.data, b.data)


class TestErrorMessages:
    """Each model and checkpoint error message, word for word."""

    SPEC = tinycnn((3, 16, 16), 4, (8, 16))
    HEADER = 4 + 4 + 4 + len(SPEC.name) + 8 + 8

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "good.ckpt"
        save_checkpoint(build_model(self.SPEC, seed=0), path)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw, h: b"NOPE" + raw[4:], "magic: not an IGRD checkpoint"),
            (lambda raw, h: raw[:4] + struct.pack("<I", 2) + raw[8:], "version: unsupported 2"),
            (lambda raw, h: raw[:20], "architecture: truncated checkpoint"),
            (
                lambda raw, h: raw.replace(b"tinycnn", b"tiny\xffnn"),
                "architecture: name is not UTF-8 ('utf-8' codec can't decode byte 0xff in "
                "position 4: invalid start byte)",
            ),
            (lambda raw, h: raw[: h - 10], "seed: truncated checkpoint"),
            (
                lambda raw, h: raw.replace(b"tinycnn", b"tinyCNN"),
                "architecture: cannot rebuild spec from name 'tinyCNN-3x16x16-c4-w8.16'",
            ),
            (
                lambda raw, h: raw.replace(b"w8.16", b"w0.16"),
                "architecture: cannot build 'tinycnn-3x16x16-c4-w0.16': "
                "block1: 0 output channels, need at least 1",
            ),
            (
                lambda raw, h: raw.replace(b"3x16x16", b"0x16x16"),
                "architecture: cannot build 'tinycnn-0x16x16-c4-w8.16': tinycnn-0x16x16-c4-w8.16: "
                "input (0, 16, 16), 4 classes and 2 blocks must all be at least 1",
            ),
            (
                lambda raw, h: raw[: h - 8] + struct.pack("<Q", 1461) + raw[h:],
                "params: count 1461 does not match architecture (1460)",
            ),
            (lambda raw, h: raw[:-8], "params: truncated checkpoint"),
            (lambda raw, h: raw + bytes(8), "params: 8 trailing bytes"),
        ],
        ids=[
            "magic", "version", "name-truncated", "name-not-utf8", "seed-truncated", "bad-name",
            "zero-width", "zero-channels", "count", "payload-truncated", "trailing",
        ],
    )
    def test_damaged_checkpoint(self, good, tmp_path, damage, message):
        path = tmp_path / "m.ckpt"
        path.write_bytes(damage(good, self.HEADER))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "name",
        ["miniresnet-3x16x16-c4-w8.16", "tinycnn-3x16x16-c04-w8", "tinycnn-3x16x16-c4-w+8.16"],
        ids=["dropped-width", "zero-padded", "plus-sign"],
    )
    def test_non_canonical_name(self, tmp_path, name):
        # each parses, but to a spec under another name: the first would load
        # as a "-w8" model, dropping a width
        path = tmp_path / "m.ckpt"
        path.write_bytes(_header(name.encode(), 0))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"architecture: cannot rebuild spec from name {name!r}"

    def test_other_architecture(self, good, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(good)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path, tinycnn((3, 16, 16), 4, (4, 8)))
        assert str(err.value) == (
            "architecture: checkpoint has 'tinycnn-3x16x16-c4-w8.16', "
            "expected 'tinycnn-3x16x16-c4-w4.8'"
        )

    RESIDUAL = ArchitectureSpec("x", (3, 16, 16), 4, (ConvBlock(8, residual=True),))
    POOLED = ArchitectureSpec("y", (3, 8, 8), 4, tuple(ConvBlock(4, pool=True) for _ in range(4)))

    @pytest.mark.parametrize(
        "spec, message",
        [
            (RESIDUAL, "block1: residual needs matching channels (3 -> 8)"),
            (POOLED, "block4: pool 2 larger than map 1x1"),
        ],
        ids=["residual-channels", "pool-larger-than-map"],
    )
    def test_bad_spec(self, tmp_path, spec, message):
        with pytest.raises(ValueError) as err:
            build_model(spec, 0)
        assert str(err.value) == message
        path = tmp_path / "m.ckpt"
        path.write_bytes(_header(spec.name.encode(), 0))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path, spec)
        assert str(err.value) == f"architecture: cannot build {spec.name!r}: {message}"

    def test_pool_larger_than_map_from_the_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(_header(b"tinycnn-3x2x2-c4-w1.1", 0))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            "architecture: cannot build 'tinycnn-3x2x2-c4-w1.1': block2: pool 2 larger than map 1x1"
        )
