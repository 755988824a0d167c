"""Span tracing of igrad from outside the program.

`Tracer.install()` replaces the public functions of the igrad modules (and
the few public methods that carry the work: `Model.forward`,
`DatasetSplit.batch`, each CAM's `weights_and_maps`) with wrappers that
record one span per call: name, start, end, parent, the tape nodes recorded
meanwhile and, for a model forward, its batch size. Every binding of a
wrapped function in any igrad module is replaced, so `from .x import f`
call sites are traced too. `uninstall()` puts the originals back. Spans are
kept in flat arrays in memory and written out by `save()`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("tensor", "nn", "losses", "train", "data", "saliency", "metrics", "study")
# public functions of igrad.tensor that are not ops
NOT_OPS = {"tensor.zeros", "tensor.ones", "tensor.detach", "tensor.forward_primitive"}


def _backward_kind(args, kwargs):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    create_graph = kwargs.get("create_graph", False) or getattr(opts, "create_graph", False)
    mode = getattr(opts, "mode", None) or kwargs.get("mode")
    if create_graph:
        return "tensor.backward.graph"
    if mode is not None and getattr(mode, "value", mode) == "guided":
        return "tensor.backward.guided"
    return "tensor.backward.standard"


def _report_name(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs["method"]
    return f"metrics.{method.name}"


def _batch_size(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.shape(getattr(x, "data", x))[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nodes0 = array("q")
        self.nodes1 = array("q")
        self.size = array("q")
        self.nodes = 0  # tape nodes recorded so far, on every tape
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, name_fn=None, size_fn=None):
        """`fn` recording a span per call, named `name` or `name_fn(args, kwargs)`."""
        fixed = self._id(name)
        ids = self._id
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(fixed if name_fn is None else ids(name_fn(args, kwargs)))
            self.parent.append(stack[-1])
            self.size.append(0 if size_fn is None else size_fn(args, kwargs))
            self.nodes0.append(self.nodes)
            self.nodes1.append(0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.nodes1[i] = self.nodes
                stack.pop()

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        igrad_mods = [m for n, m in sys.modules.items() if n == "igrad" or n.startswith("igrad.")]
        for short in MODULES:
            mod = sys.modules[f"igrad.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in NOT_OPS:
                    continue
                name_fn = {"tensor.backward": _backward_kind, "metrics.faithfulness_report": _report_name}.get(name)
                traced = self.wrap(fn, name, name_fn=name_fn)
                for other in igrad_mods:
                    for a, v in list(vars(other).items()):
                        if v is fn:
                            self._patch(other, a, traced)

        nn, data, saliency, tensor = (sys.modules[f"igrad.{m}"] for m in ("nn", "data", "saliency", "tensor"))
        self._patch(nn.Model, "forward", self.wrap(nn.Model.forward, "nn.forward", size_fn=_batch_size))
        self._patch(data.DatasetSplit, "batch", self.wrap(data.DatasetSplit.batch, "data.batch"))
        for cls in list(vars(saliency).values()):
            if inspect.isclass(cls) and "weights_and_maps" in vars(cls):
                self._patch(cls, "weights_and_maps", self.wrap(cls.weights_and_maps, f"saliency.{cls.name}"))

        tracer = self

        class CountingNodes(list):
            __slots__ = ()

            def append(self, node):
                tracer.nodes += 1
                list.append(self, node)

        tape_init = tensor.Tape.__init__

        def init(tape, *args, **kwargs):
            tape_init(tape, *args, **kwargs)
            tape.nodes = CountingNodes(tape.nodes)

        self._patch(tensor.Tape, "__init__", init)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def arrays(self):
        """The spans as numpy arrays: name ids, parents, start, end, tape
        nodes recorded, batch size."""
        return (
            np.frombuffer(self.name, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.nodes1, dtype=np.int64) - np.frombuffer(self.nodes0, dtype=np.int64),
            np.frombuffer(self.size, dtype=np.int64),
        )

    def save(self, path):
        name, parent, start, end, nodes, size = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start,
                 end=end, nodes=nodes, size=size)


class Spans:
    """Read-side view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name, self.parent, self.start, self.end, self.nodes, self.size = tracer.arrays()
        self.dur = self.end - self.start
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def is_(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def matching(self, prefix):
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def under(self, *names):
        """Spans that are, or descend from, a span with one of these names."""
        own = self.is_(*names)
        idx = np.arange(len(own))
        anc = np.where(own, idx, self.parent)
        while True:
            live = anc >= 0
            step = np.where(live & ~own[np.maximum(anc, 0)], self.parent[np.maximum(anc, 0)], anc)
            step = np.where(live, step, -1)
            if np.array_equal(step, anc):
                break
            anc = step
        return anc >= 0

    def parent_is(self, *names):
        p = np.maximum(self.parent, 0)
        return (self.parent >= 0) & self.is_(*names)[p]
