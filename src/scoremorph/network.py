"""Fully connected ReLU localization network with manual backprop and Adam.

The network maps an attribute vector to a scalar. Forward passes record a
tape of activations; backward replays it in reverse. The tape is tied to a
parameter version counter so gradients cannot be computed against a net
that has since been updated. Adam keeps its moments in flat vectors and
updates every parameter in one pass; weights and biases stay per-layer
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_HIDDEN = (100, 100, 100, 100, 100)


@dataclass
class Tape:
    x: np.ndarray            # (m, d) batch input
    pre_acts: list           # per hidden layer, (m, h)
    acts: list               # per hidden layer, (m, h) = relu(pre_acts)
    version: int


class StaleTapeError(RuntimeError):
    """The tape was recorded against an older parameter state."""


class LocalizerNet:
    """ReLU MLP g(x; theta) -> R with explicit weight/bias lists.

    weights[l] has shape (out, in); biases[l] has shape (out,). Hidden
    layers apply ReLU, the output layer is affine.
    """

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} mismatches weight {w.shape}")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output layer must produce a scalar")
        self.version = 0

    @classmethod
    def init(cls, d: int, seed: int, hidden=DEFAULT_HIDDEN) -> "LocalizerNet":
        """Uniform fan-in init (bound 1/sqrt(fan_in)), biases zero."""
        if d < 1:
            raise ValueError(f"attribute dimension must be >= 1, got {d}")
        rng = np.random.default_rng(seed)
        dims = [d, *hidden, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_dims(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def d(self) -> int:
        return self.weights[0].shape[1]

    # ---- forward / backward ----

    def forward_batch(self, xs):
        """Return (g values (m,), tape)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"batch shape {xs.shape} mismatches d={self.d}")
        a = xs
        pre_acts, acts = [], []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w.T + b
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        g = a @ self.weights[-1].T + self.biases[-1]
        return g[:, 0], Tape(xs, pre_acts, acts, self.version)

    def forward(self, x):
        """Return (scalar g, tape) for a single attribute vector."""
        g, tape = self.forward_batch(np.asarray(x, dtype=float)[None, :])
        return float(g[0]), tape

    def backward_batch(self, tape: Tape, upstream):
        """Gradients of sum_i upstream[i] * g(x_i) w.r.t. every parameter."""
        if tape.version != self.version:
            raise StaleTapeError("tape predates the current parameters")
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (tape.x.shape[0],):
            raise ValueError("upstream must hold one value per batch row")
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = upstream[:, None]
        a_prev = tape.acts[-1] if tape.acts else tape.x
        grads_w[-1] = delta.T @ a_prev
        grads_b[-1] = delta.sum(axis=0)
        da = delta @ self.weights[-1]
        for l in range(len(self.weights) - 2, -1, -1):
            dz = da * (tape.pre_acts[l] > 0)  # ReLU subgradient at 0 is 0
            a_prev = tape.acts[l - 1] if l > 0 else tape.x
            grads_w[l] = dz.T @ a_prev
            grads_b[l] = dz.sum(axis=0)
            da = dz @ self.weights[l]
        return list(zip(grads_w, grads_b))

    def backward(self, tape: Tape, upstream: float):
        return self.backward_batch(tape, np.array([upstream], dtype=float))

    def value(self, x) -> float:
        return self.forward(x)[0]

    def values(self, xs) -> np.ndarray:
        return self.forward_batch(xs)[0]

    # ---- parameter management ----

    def snapshot(self):
        return ([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def restore(self, snap):
        weights, biases = snap
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]
        self.version += 1

    def to_json_dict(self) -> dict:
        return {
            "layer_dims": self.layer_dims,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LocalizerNet":
        return cls(d["weights"], d["biases"])


def zero_grads_like(net: LocalizerNet):
    return [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(net.weights, net.biases)]


class AdamState:
    """First/second moment accumulators plus the step counter.

    The moments of every parameter live in one float64 vector each,
    ``m_flat`` and ``v_flat``, in (w0, b0, w1, b1, ...) order; ``m`` and
    ``v`` are lists of per-layer ``(w, b)`` views into them. The state also
    owns the scratch vectors ``adam_step`` writes through, so a step
    allocates no array the size of the parameters.
    """

    def __init__(self, shapes, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.shapes = [tuple(s) for s in shapes]
        self.step = 0
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        size = sum(int(np.prod(s)) for s in self.shapes)
        self.m_flat = np.zeros(size)
        self.v_flat = np.zeros(size)
        self._grad = np.empty(size)
        self._upd = np.empty(size)
        self._tmp = np.empty(size)
        self._mask = np.empty(size, dtype=bool)
        self.m = _layer_views(self.m_flat, self.shapes)
        self.v = _layer_views(self.v_flat, self.shapes)
        self._upd_views = [a for pair in _layer_views(self._upd, self.shapes)
                           for a in pair]

    @classmethod
    def init(cls, net: LocalizerNet, learning_rate: float = 1e-3,
             beta1: float = 0.9, beta2: float = 0.999,
             eps: float = 1e-8) -> "AdamState":
        shapes = [p.shape for pair in zip(net.weights, net.biases)
                  for p in pair]
        return cls(shapes, learning_rate=learning_rate, beta1=beta1,
                   beta2=beta2, eps=eps)


def _layer_views(flat, shapes):
    """[(w, b), ...] reshaped views of ``flat`` laid out in ``shapes`` order."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return list(zip(views[0::2], views[1::2]))


# First moments below this magnitude are flushed to zero (see adam_step).
_M_FLUSH = 1e-300


def adam_step(net: LocalizerNet, grads, state: AdamState):
    """Bias-corrected Adam update, applied in place. Returns (net, state).

    All gradients are checked (layer count, shapes, NaN) before anything is
    written, so a rejected call leaves the weights and the state unchanged.
    The update then runs once over the flat moment vectors with the
    elementwise order of the per-layer rule, ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + ((1 - b2) g) g``, ``upd = lr (m / c1) / (sqrt(v / c2) +
    eps)``, so every entry is bit-identical to updating layer by layer.

    After the ``m`` update, every ``|m| < 1e-300`` is set to zero. Without
    that, a unit whose gradient stays exactly zero (a dead ReLU) decays its
    first moment by ``b1`` each step into the subnormal range, where the
    arithmetic is many times slower. The flushed entry's update would have
    been below ``lr * 1e-300 / (c1 * eps)``, about 1e-295 for the default
    rate; that is under half an ulp of any weight farther than about
    1e-279 from zero, so subtracting it would not have changed the weight.
    A later nonzero gradient ``g`` dominates the dropped remainder the same
    way, so the weights stay bit-identical to the unflushed update.
    """
    if len(grads) != len(net.weights):
        raise ValueError("gradient layer count mismatches the network")
    params = [p for pair in zip(net.weights, net.biases) for p in pair]
    flat_grads = [g for pair in grads for g in pair]
    if [p.shape for p in params] != state.shapes:
        raise ValueError("Adam state shapes mismatch the network")
    for g, p in zip(flat_grads, params):
        if np.shape(g) != p.shape:
            raise ValueError(
                f"gradient shape {np.shape(g)} mismatches parameter {p.shape}")
    g = state._grad
    np.concatenate([np.ravel(a) for a in flat_grads], out=g)
    if np.isnan(g, out=state._mask).any():
        raise ValueError("NaN gradient; aborting the update")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m, v, upd, tmp = state.m_flat, state.v_flat, state._upd, state._tmp
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    np.less(np.abs(m, out=tmp), _M_FLUSH, out=state._mask)
    np.copyto(m, 0.0, where=state._mask)
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(m, c1, out=upd)
    upd *= state.learning_rate
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    upd /= tmp
    for target, u in zip(params, state._upd_views):
        target -= u
    net.version += 1
    return net, state
