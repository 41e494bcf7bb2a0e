"""Spans around the library's layer functions, patched in from outside.

Each wrapped function is replaced where it is looked up at call time: a
module global such as ``training.adam_step`` or a class attribute such as
``KnnModel.predict_batch``. A span records (name, start, end, parent); a
layer's self time is its span time minus the time of its direct children.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# layer name -> per-call work count (name, function of args and result)
_COUNTS = {
    "objective.pairwise_size_loss": (
        "pairs", lambda a, r: len(a[1]) * (len(a[1]) - 1)),
    "knn.fit": ("rows", lambda a, r: a[0].n),
    "knn.predict_batch": ("queries", lambda a, r: len(a[1])),
    "figures.render_svg": ("bytes", lambda a, r: len(r.encode("utf-8"))),
    "data.load_csv": ("rows", lambda a, r: r.n),
    "ioutil.write_text_atomic": (
        "bytes", lambda a, r: len(a[1].encode("utf-8"))),
}

LAYERS = (
    "network.adam_step", "network.forward_batch", "network.backward_batch",
    "objective.loss_batch", "objective.erc_error_fit_loss",
    "objective.pairwise_size_loss", "knn.fit", "knn.predict_batch",
    "conformal.evaluate", "transforms.inverse_batch",
    "transforms.forward_batch", "figures.compute_band", "figures.render_svg",
    "data.load_csv", "data.split", "serialize.save_model",
    "serialize.load_model", "ioutil.write_text_atomic",
)


def _patch_points(sm):
    """(owner, attribute, layer) for every place a layer is looked up."""
    c, t = sm.cli, sm.training
    return [
        (t, "adam_step", "network.adam_step"),
        (sm.network.LocalizerNet, "forward_batch", "network.forward_batch"),
        (sm.network.LocalizerNet, "backward_batch", "network.backward_batch"),
        (t, "loss_batch", "objective.loss_batch"),
        (t, "erc_error_fit_loss", "objective.erc_error_fit_loss"),
        (t, "pairwise_size_loss", "objective.pairwise_size_loss"),
        (sm.knn, "fit", "knn.fit"),
        (c, "knn_fit", "knn.fit"),
        (sm.knn.KnnModel, "predict_batch", "knn.predict_batch"),
        (t, "evaluate", "conformal.evaluate"),
        (c, "evaluate", "conformal.evaluate"),
        (sm.transforms.TransformFamily, "inverse_batch",
         "transforms.inverse_batch"),
        (sm.transforms.TransformFamily, "forward_batch",
         "transforms.forward_batch"),
        (c, "compute_band", "figures.compute_band"),
        (c, "render_svg", "figures.render_svg"),
        (c, "load_csv", "data.load_csv"),
        (c, "split", "data.split"),
        (t, "split", "data.split"),
        (c, "save_model", "serialize.save_model"),
        (c, "load_model", "serialize.load_model"),
        (c, "write_text_atomic", "ioutil.write_text_atomic"),
        (sm.serialize, "write_text_atomic", "ioutil.write_text_atomic"),
    ]


def subnormal_fraction(state) -> float:
    """Share of Adam first-moment entries that are subnormal."""
    tiny = np.finfo(float).tiny
    total = count = 0
    for w, b in state.m:
        for arr in (w, b):
            total += arr.size
            count += int(np.count_nonzero((arr != 0) & (np.abs(arr) < tiny)))
    return count / total


class Tracer:
    """In-memory span recorder plus the per-training Adam/epoch records."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}     # layer -> summed work count
        self._stack = []
        self._adam_state = None
        self._adam_steps = 0
        self.trainings = []  # (epochs, adam steps, subnormal fraction)

    def wrap(self, name, fn):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[name] = (self.counts.get(name, 0)
                                     + count[1](args, result))
            return result
        return traced

    def wrap_adam(self, fn):
        def adam_step(net, grads, state):
            self._adam_state = state
            self._adam_steps += 1
            return fn(net, grads, state)
        return self.wrap("network.adam_step", adam_step)

    def wrap_loop(self, fn):
        def loop(*args, **kwargs):
            self._adam_state = None
            steps_before = self._adam_steps
            fam, trace = fn(*args, **kwargs)
            frac = (0.0 if self._adam_state is None
                    else subnormal_fraction(self._adam_state))
            self._adam_state = None
            self.trainings.append((len(trace.epochs) - 1,
                                   self._adam_steps - steps_before, frac))
            return fam, trace
        return self.wrap("training.loop", loop)

    @contextlib.contextmanager
    def installed(self, sm):
        """Patch every layer of the imported ``scoremorph`` package."""
        saved = []
        points = _patch_points(sm) + [(sm.training, "_loop", "training.loop")]
        for owner, attr, name in points:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            if name == "network.adam_step":
                wrapped = self.wrap_adam(fn)
            elif name == "training.loop":
                wrapped = self.wrap_loop(fn)
            else:
                wrapped = self.wrap(name, fn)
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        child_time = [0.0] * len(self.spans)
        # in_layer[i]: span i or one of its ancestors is a layer span; a
        # parent is always recorded before its children
        in_layer = [False] * len(self.spans)
        covered = loop_time = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            is_layer = name != "training.loop"
            if parent >= 0:
                child_time[parent] += end - start
            in_layer[i] = is_layer or (parent >= 0 and in_layer[parent])
            if is_layer and (parent < 0 or not in_layer[parent]):
                covered += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "training.loop":
                loop_time += end - start
                continue
            busy[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.ms_per_call"] = (
                1e3 * busy[name] / calls[name] if calls[name] else 0.0, "ms")
        for name, (stat, _) in _COUNTS.items():
            out[f"{name}.{stat}"] = (self.counts.get(name, 0), "count")
        queries = self.counts.get("knn.predict_batch", 0)
        out["knn.predict_batch.us_per_query"] = (
            1e6 * busy["knn.predict_batch"] / queries if queries else 0.0,
            "us")
        fracs = [f for _, _, f in self.trainings]
        out["network.adam_step.subnormal_frac"] = (
            float(np.mean(fracs)) if fracs else 0.0, "frac")
        epochs = sum(e for e, _, _ in self.trainings)
        steps = sum(s for _, s, _ in self.trainings)
        out["training.epochs"] = (epochs, "count")
        out["training.steps"] = (steps, "count")
        out["training.ms_per_step"] = (
            1e3 * loop_time / steps if steps else 0.0, "ms")
        out["training.ms_per_epoch"] = (
            1e3 * loop_time / epochs if epochs else 0.0, "ms")
        out["trace.coverage"] = (covered / wall_s, "frac")
        out["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
