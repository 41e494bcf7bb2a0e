"""Fully connected ReLU localization network with manual backprop and Adam.

The network maps an attribute vector to a scalar. Forward passes record a
tape of activations (``values`` records none); backward replays it in
reverse. The tape is tied to a parameter version counter so gradients
cannot be computed against a net that has since been updated. The
parameters, their gradient, Adam's moments and a snapshot are each one
flat vector in the layout ``_layer_views`` defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_HIDDEN = (100, 100, 100, 100, 100)
# rows per block of ``values``
_VALUES_ROWS = 1024


@dataclass
class Tape:
    x: np.ndarray            # (m, d) batch input
    acts: list               # per hidden layer, (m, h) ReLU outputs
    version: int


class StaleTapeError(RuntimeError):
    """The tape was recorded against an older parameter state."""


class LocalizerNet:
    """ReLU MLP g(x; theta) -> R on one flat parameter vector ``theta``.

    weights[l] has shape (out, in) and biases[l] shape (out,); both are
    tuples of views into ``theta``, laid out by ``_layer_views``. Hidden
    layers apply ReLU, the output layer is affine.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if not weights or len(weights) != len(biases):
            raise ValueError("need one or more (weights, biases) layers")
        n_in = weights[0].shape[1:]  # then each layer's output shape
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or w.shape != b.shape + n_in:
                raise ValueError(f"layer {l}: weight {w.shape} and bias "
                                 f"{b.shape} do not fit input {n_in}")
            n_in = b.shape
        if weights[-1].shape[0] != 1:
            raise ValueError("output layer must produce a scalar")
        self.shapes = [w.shape for w in weights]
        self.theta = np.empty(sum(map(np.size, weights + biases)))
        views = _layer_views(self.theta, self.shapes)
        self._weights, self._biases = zip(*views)
        for view, p in zip(self._weights + self._biases, weights + biases):
            view[...] = p
        self.version = 0

    def __reduce__(self):  # pickled views would no longer share theta
        return type(self), (self.weights, self.biases)

    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)

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
    def d(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_params(self) -> int:
        return self.theta.size

    # ---- forward / backward ----

    def forward_batch(self, xs):
        """Return (g values (m,), tape)."""
        return self._forward(xs, record=True)

    def _forward(self, xs, record: bool):
        """(g at the rows of xs, tape). Each hidden layer's ReLU runs in
        place of its pre-activation; without ``record`` there is no tape
        (None)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"batch shape {xs.shape} mismatches d={self.d}")
        a = xs
        acts = []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w.T
            z += b
            a = np.maximum(z, 0.0, out=z)
            if record:
                acts.append(a)
        g = a @ self.weights[-1].T + self.biases[-1]
        tape = Tape(xs, acts, self.version) if record else None
        return g[:, 0], tape

    def backward_batch(self, tape: Tape, upstream, out=None):
        """Gradients of sum_i upstream[i] * g(x_i) w.r.t. every parameter.

        Returns one flat float64 vector in the layout of ``theta``: ``out``
        when given (the caller owns it; its old contents are overwritten)
        and a fresh one otherwise.
        """
        if tape.version != self.version:
            raise StaleTapeError("tape predates the current parameters")
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (tape.x.shape[0],):
            raise ValueError("upstream must hold one value per batch row")
        n = self.n_params
        if out is None:
            out = np.empty(n)
        elif (out.shape != (n,) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(
                f"gradient buffer must be a contiguous ({n},) float64 vector")
        acts, grads = tape.acts, _layer_views(out, self.shapes)
        dz = upstream[:, None]
        for l in range(len(grads) - 1, -1, -1):
            if l < len(grads) - 1:
                # relu(z) > 0 exactly where z > 0 (NaN in neither), and
                # the ReLU subgradient at 0 is 0
                dz *= acts[l] > 0
            gw, gb = grads[l]
            np.matmul(dz.T, acts[l - 1] if l > 0 else tape.x, out=gw)
            np.add.reduce(dz, axis=0, out=gb)
            if l > 0:
                dz = dz @ self._weights[l]
        return out

    def values(self, xs) -> np.ndarray:
        """g at the rows of xs, recording no tape.

        The rows run in blocks of ``_VALUES_ROWS``, the last of which takes
        a remainder of less than half a block, so the hidden layers hold at
        most 1.5 blocks of activations however many rows there are. With
        more than one block, each starts at a multiple of the block size and
        holds at least half a block, which keeps OpenBLAS's GEMMs on their
        regular kernel and thread split: on 1e2 to 1e5 rows the values match
        one single-threaded product over all rows bit for bit, at 1 and 2
        threads. (One product over all rows at 2 threads splits them at a
        point that depends on n; for some n, 8574 say, a few rows then
        differ from the single-threaded product in the last bit. Blocks of
        64 rows differed too.)
        """
        xs = np.asarray(xs, dtype=float)
        block = _VALUES_ROWS
        if xs.ndim != 2 or xs.shape[0] < block + block // 2:
            return self._forward(xs, record=False)[0]
        n = xs.shape[0]
        out = np.empty(n)
        start = 0
        while start < n:
            end = start + block if n - start >= block + block // 2 else n
            out[start:end] = self._forward(xs[start:end], record=False)[0]
            start = end
        return out

    # ---- parameter management ----

    def snapshot(self) -> np.ndarray:
        return self.theta.copy()

    def restore(self, snap):
        np.copyto(self.theta, snap)
        self.version += 1


class AdamState:
    """First/second moment accumulators plus the step counter.

    The moments are float64 vectors ``m_flat`` and ``v_flat`` in the layout
    of ``LocalizerNet.theta``; ``m`` lists the per-layer ``(w, b)`` views of
    ``m_flat``. ``backward_batch(..., out=state.grad)`` writes the gradient
    into ``grad``, which ``adam_step`` overwrites with the update; with the
    other scratch vectors the state owns, a step allocates no array the
    size of the parameters.
    """

    def __init__(self, shapes, learning_rate: float):
        self.shapes = [tuple(s) for s in shapes]
        self.step = 0
        self.learning_rate = learning_rate
        self.flush_every = _flush_period(learning_rate)
        size = sum(rows * (cols + 1) for rows, cols in self.shapes)
        self.m_flat = np.zeros(size)
        self.v_flat = np.zeros(size)
        self.grad = np.empty(size)
        self._tmp = np.empty(size)
        self._mask = np.empty(size, dtype=bool)
        self.m = _layer_views(self.m_flat, self.shapes)


def _layer_views(flat, shapes):
    """[(w, b), ...] views of ``flat`` for weights of the (out, in)
    ``shapes``: the one parameter layout, (w0, b0, w1, b1, ...)."""
    views, start = [], 0
    for rows, cols in shapes:
        mid = start + rows * cols
        views.append((flat[start:mid].reshape(rows, cols),
                      flat[mid:mid + rows]))
        start = mid + rows
    return views


# Adam's decay rates and denominator offset, at the defaults of Kingma & Ba
# (ICLR 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# First moments below this magnitude are flushed to zero (see adam_step).
_M_FLUSH = 1e-300
# The least step scale sqrt(1 - BETA2^t) / (1 - BETA1^t) over all steps t:
# 0.1522, at t = 12; past there it rises toward 1.
_MIN_STEP_SCALE = min(math.sqrt(1.0 - BETA2 ** t) / (1.0 - BETA1 ** t)
                      for t in range(1, 100))


def _flush_period(learning_rate: float) -> int:
    """Most steps K with a * BETA1^K * 1e-300 at or above the smallest
    normal float, where a is the least of 1 and the least step size
    ``lr * _MIN_STEP_SCALE``, so that between two flushes neither a first
    moment nor its scaled update ``alpha_t * m`` turns subnormal: 83 for
    lr = 1e-3, 149 for lr = 1, and 1 (every step) once a * 1e-300 is itself
    below that float."""
    tiny = np.finfo(float).tiny
    scale = _M_FLUSH * min(learning_rate * _MIN_STEP_SCALE, 1.0)
    if scale <= tiny:
        return 1
    return max(1, int(math.log(tiny / scale) / math.log(BETA1)))


def adam_step(net: LocalizerNet, grads, state: AdamState):
    """Bias-corrected Adam update, applied in place. Returns (net, state).

    ``grads`` is one vector in the layout of ``net.theta``, as
    ``backward_batch`` returns it; unless it is ``state.grad`` itself it is
    copied there first. It is checked (shape, NaN, infinity, and entries
    past about 1e154, whose squares overflow the second moment) before
    anything else is written, so a rejected call leaves the weights and the
    state unchanged.

    The update runs once over the flat vectors in the efficient order Kingma
    & Ba give after their Algorithm 1: ``m = b1 m + (1 - b1) g``, ``v = b2 v
    + (1 - b2) (g g)``, ``theta -= alpha_t m / (sqrt(v) + eps_t)`` with the
    scalars ``alpha_t = lr sqrt(c2) / c1`` and ``eps_t = eps sqrt(c2)``,
    where ``c1 = 1 - b1^t`` and ``c2 = 1 - b2^t`` (``BETA1``, ``BETA2``,
    ``EPS``). That is the textbook ``lr (m / c1) / (sqrt(v / c2) + eps)``
    rearranged, with no division of ``v`` by ``c2``. The two orders round
    differently: fed the same 2000 gradients, each weight stays within
    1e-12 of its path length (the sum of its update magnitudes) of the
    textbook's. Each entry is updated alone, so the flat update is
    bit-identical to the same order run layer by layer, and equal inputs
    give equal weights.

    Every ``state.flush_every`` steps, each ``|m| < 1e-300`` is set to zero
    after the ``m`` update. Without that, a unit whose gradient stays
    exactly zero (a dead ReLU) decays its first moment by ``b1`` each step
    into the subnormal range, where the arithmetic is many times slower;
    between two flushes an entry at 1e-300, and its ``alpha_t m``, cannot
    decay below the smallest normal float. The flushed entry's update
    would have been below ``alpha_t 1e-300 / eps_t = lr 1e-300 / (c1
    eps)``, about 1e-295 for the default rate; that is under half an ulp
    of any weight farther than about 1e-279 from zero, so subtracting it
    would not have changed the weight. A later nonzero gradient ``g``
    dominates the dropped remainder the same way, so the weights stay
    bit-identical to the unflushed update.
    """
    if net.shapes != state.shapes:
        raise ValueError("Adam state shapes mismatch the network")
    g = state.grad
    if np.shape(grads) != g.shape:
        raise ValueError(f"gradient shape {np.shape(grads)} is not {g.shape}")
    if grads is not g:
        np.copyto(g, grads)
    m, v, tmp = state.m_flat, state.v_flat, state._tmp
    # tmp holds the squares, for the check and then for v. A NaN or
    # infinite entry, or one whose square overflows, makes their sum NaN or
    # infinite; a sum of finite squares can still overflow, so only then is
    # every square checked
    with np.errstate(over="ignore"):
        np.multiply(g, g, out=tmp)
        if (not np.isfinite(np.add.reduce(tmp))
                and not np.isfinite(tmp, out=state._mask).all()):
            raise ValueError("NaN or infinite gradient or squared "
                             "gradient; aborting the update")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    root_c2 = math.sqrt(1.0 - BETA2 ** t)
    v *= BETA2
    tmp *= 1.0 - BETA2
    v += tmp
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=tmp)
    m += tmp
    if t % state.flush_every == 0:
        np.less(np.abs(m, out=tmp), _M_FLUSH, out=state._mask)
        np.copyto(m, 0.0, where=state._mask)
    upd = g  # g is used up; the update overwrites it
    np.multiply(m, state.learning_rate * root_c2 / c1, out=upd)
    np.sqrt(v, out=tmp)
    tmp += EPS * root_c2
    upd /= tmp
    net.theta -= upd
    net.version += 1
    return net, state
