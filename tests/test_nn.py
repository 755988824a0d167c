"""Model construction, forward contracts, and checkpoint persistence."""

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
        with pytest.raises(ValueError, match=f"block {block}: .* need at least 1"):
            build_model(tinycnn((3, 16, 16), 4, widths), 0)

    @pytest.mark.parametrize(
        "spec",
        [
            tinycnn((0, 16, 16), 4),
            tinycnn((3, 0, 16), 4),
            tinycnn((3, 16, 16), 0),
            tinycnn(widths=()),
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
