"""CNN architectures over the tape engine: specs, init, forward, checkpoints.

Two desk-scale ReLU families are provided: `tinycnn` (conv-relu-pool twice,
GAP, linear) and `miniresnet` (stem plus two identity-skip blocks). Every
convolution is 3x3 at padding 1 and slides one pixel at a time, every pool
is a 2x2 max over disjoint windows, and every activation is ReLU, so the
guided backward rule applies throughout.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor

CHECKPOINT_MAGIC = b"IGRD"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ConvBlock:
    """3x3 convolution at padding 1, then ReLU; `pool` adds a 2x2 max pool."""

    out_channels: int
    pool: bool = False
    residual: bool = False


@dataclass(frozen=True)
class ArchitectureSpec:
    name: str
    input_shape: tuple[int, int, int]
    num_classes: int
    blocks: tuple[ConvBlock, ...]


def tinycnn(input_shape=(3, 16, 16), num_classes=4, widths=(8, 16)) -> ArchitectureSpec:
    name = "tinycnn-{}x{}x{}-c{}-w{}".format(
        *input_shape, num_classes, ".".join(str(w) for w in widths)
    )
    blocks = tuple(ConvBlock(w, pool=True) for w in widths)
    return ArchitectureSpec(name, tuple(input_shape), num_classes, blocks)


def miniresnet(input_shape=(3, 16, 16), num_classes=4, width=12) -> ArchitectureSpec:
    name = "miniresnet-{}x{}x{}-c{}-w{}".format(*input_shape, num_classes, width)
    blocks = (
        ConvBlock(width, pool=True),
        ConvBlock(width, residual=True),
        ConvBlock(width, residual=True),
    )
    return ArchitectureSpec(name, tuple(input_shape), num_classes, blocks)


def spec_from_name(name: str) -> ArchitectureSpec:
    """Rebuild a factory-made spec from its canonical name."""
    try:
        family, dims, classes, widths = name.split("-")
        c, h, w = (int(v) for v in dims.split("x"))
        num_classes = int(classes.removeprefix("c"))
        wlist = [int(v) for v in widths.removeprefix("w").split(".")]
        if family == "tinycnn":
            return tinycnn((c, h, w), num_classes, tuple(wlist))
        if family == "miniresnet":
            return miniresnet((c, h, w), num_classes, wlist[0])
    except (ValueError, IndexError):
        pass
    raise CheckpointError(f"architecture: cannot rebuild spec from name {name!r}")


def _validate_spec(spec: ArchitectureSpec):
    """Channels and spatial size after the last block; only pools change the size."""
    c, h, w = spec.input_shape
    if min(c, h, w, spec.num_classes) < 1 or not spec.blocks:
        raise ValueError(
            f"{spec.name}: input {spec.input_shape}, {spec.num_classes} classes and "
            f"{len(spec.blocks)} blocks must all be at least 1"
        )
    for i, blk in enumerate(spec.blocks):
        if blk.out_channels < 1:
            raise ValueError(f"block {i}: {blk.out_channels} output channels, need at least 1")
        if blk.residual and blk.out_channels != c:
            raise ValueError(
                f"block {i}: residual needs matching channels ({c} -> {blk.out_channels})"
            )
        c = blk.out_channels
        if blk.pool:
            if h < T.POOL or w < T.POOL:
                raise ValueError(f"block {i}: pool {T.POOL} larger than map {h}x{w}")
            h, w = h // T.POOL, w // T.POOL
    return c, h, w


class Parameter:
    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.ascontiguousarray(data, dtype=np.float64)


@dataclass
class ForwardResult:
    logits: Tensor
    probs: Tensor
    feature_maps: dict[str, Tensor]
    params: list[Tensor] | None  # tape-watched aliases when a tape was used


class Model:
    """Sequential/residual ReLU CNN with a flat ordered parameter store."""

    def __init__(self, spec: ArchitectureSpec, seed: int, params: list[Parameter]):
        self.spec = spec
        self.seed = seed
        self.params = params

    @property
    def num_params(self) -> int:
        return int(sum(p.data.size for p in self.params))

    def param_by_name(self, name: str) -> Parameter:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def _aliases(self) -> dict[str, str]:
        """The last_conv/gap_input aliases and the block maps they name."""
        last = f"block{len(self.spec.blocks)}"
        gap = f"{last}_pool" if self.spec.blocks[-1].pool else last
        return {"last_conv": last, "gap_input": gap}

    def feature_map_names(self) -> list[str]:
        names = []
        for i, blk in enumerate(self.spec.blocks, start=1):
            names.append(f"block{i}")
            if blk.pool:
                names.append(f"block{i}_pool")
        return names + list(self._aliases())

    def resolve_layer(self, name: str) -> str:
        """Map the last_conv/gap_input aliases to concrete block map names."""
        names = self.feature_map_names()
        if name not in names:
            raise ValueError(f"unknown layer {name!r} (have {names})")
        return self._aliases().get(name, name)

    def forward(self, x, tape: Tape | None = None, inject=None) -> ForwardResult:
        """Run the network on a (N,C,H,W) batch.

        With a tape, parameters are watched as leaves so the result is
        differentiable. `inject={layer: arr}` substitutes a map wholesale
        right after it is produced; the rest of the network runs on arr's
        rows, so one input image with a (K,C,h,w) map yields K outputs
        (Ablation-CAM's K channel-zeroed maps, activation-space oracles).
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.data.ndim != 4 or tuple(x.shape[1:]) != tuple(self.spec.input_shape):
            raise ValueError(
                f"forward: input {x.shape} does not match spec {self.spec.input_shape}"
            )
        if inject is not None:
            inject = {self.resolve_layer(k): v for k, v in inject.items()}

        if tape is not None:
            watched = [tape.watch(Tensor(p.data, _copy=False)) for p in self.params]
        else:
            watched = [Tensor(p.data, _copy=False) for p in self.params]
        it = iter(watched)

        def take():
            return next(it)

        maps: dict[str, Tensor] = {}

        def expose(name: str, t: Tensor) -> Tensor:
            if inject is not None and name in inject:
                t = Tensor(np.asarray(inject[name], dtype=np.float64))
            maps[name] = t
            return t

        h = x
        for i, blk in enumerate(self.spec.blocks, start=1):
            if blk.residual:
                r = T.relu(T.conv2d(h, take(), take(), padding=1))
                r = T.conv2d(r, take(), take(), padding=1)
                h = T.relu(T.add(r, h))
            else:
                h = T.relu(T.conv2d(h, take(), take(), padding=1))
            h = expose(f"block{i}", h)
            if blk.pool:
                h = expose(f"block{i}_pool", T.maxpool2d(h))

        for alias, name in self._aliases().items():
            maps[alias] = maps[name]
        pooled = T.global_avg_pool(h)
        logits = T.linear(pooled, take(), take())
        probs = T.softmax(T.detach(logits))  # read, never differentiated
        return ForwardResult(logits, probs, maps, watched if tape is not None else None)


def build_model(spec: ArchitectureSpec, seed: int) -> Model:
    """Kaiming-uniform fan-in init (zero biases) from one seeded generator."""
    c_out, h_out, w_out = _validate_spec(spec)
    rng = np.random.default_rng(seed)
    params: list[Parameter] = []
    c = spec.input_shape[0]

    def kaiming(shape, fan_in):
        bound = np.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    for i, blk in enumerate(spec.blocks, start=1):
        n_convs = 2 if blk.residual else 1
        for j in range(n_convs):
            cin = c if j == 0 or blk.residual else blk.out_channels
            shape = (blk.out_channels, cin, 3, 3)
            params.append(Parameter(f"block{i}.conv{j}.w", kaiming(shape, cin * 9)))
            params.append(Parameter(f"block{i}.conv{j}.b", np.zeros(blk.out_channels)))
        c = blk.out_channels

    params.append(Parameter("head.w", kaiming((spec.num_classes, c_out), c_out)))
    params.append(Parameter("head.b", np.zeros(spec.num_classes)))
    return Model(spec, seed, params)


def save_checkpoint(model: Model, path):
    """Write to a temp file in the same directory, then rename it over path,
    so a failed write leaves any previous checkpoint intact."""
    name = model.spec.name.encode("utf-8")
    count = model.num_params
    tmp = os.fspath(path) + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(name)))
            f.write(name)
            f.write(struct.pack("<Q", model.seed))
            f.write(struct.pack("<Q", count))
            for p in model.params:
                f.write(p.data.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path, spec: ArchitectureSpec | None = None) -> Model:
    with open(path, "rb") as f:
        raw = f.read()
    off = 0

    def pull(n, field):
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"{field}: truncated checkpoint")
        chunk = raw[off : off + n]
        off += n
        return chunk

    if pull(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError("magic: not an IGRD checkpoint")
    (version,) = struct.unpack("<I", pull(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"version: unsupported {version}")
    (name_len,) = struct.unpack("<I", pull(4, "architecture"))
    try:
        name = pull(name_len, "architecture").decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"architecture: name is not UTF-8 ({e})") from None
    (seed,) = struct.unpack("<Q", pull(8, "seed"))
    (count,) = struct.unpack("<Q", pull(8, "params"))

    if spec is None:
        spec = spec_from_name(name)
    elif spec.name != name:
        raise CheckpointError(f"architecture: checkpoint has {name!r}, expected {spec.name!r}")

    try:
        model = build_model(spec, int(seed))
    except ValueError as e:
        raise CheckpointError(f"architecture: cannot build {name!r}: {e}") from None
    if model.num_params != count:
        raise CheckpointError(
            f"params: count {count} does not match architecture ({model.num_params})"
        )
    payload = pull(8 * count, "params")
    if off != len(raw):
        raise CheckpointError(f"params: {len(raw) - off} trailing bytes")
    flat = np.frombuffer(payload, dtype="<f8")
    pos = 0
    for p in model.params:
        n = p.data.size
        p.data = flat[pos : pos + n].reshape(p.data.shape).copy()
        pos += n
    return model
