import math
import pickle
import tracemalloc

import numpy as np
import pytest

from scoremorph import network
from scoremorph.network import (BETA1, BETA2, EPS, AdamState, LocalizerNet,
                                StaleTapeError, _layer_views, adam_step)
from support import pre_activation_margin


def toy_net():
    # single hidden unit: g = w2 * relu(w1*x + b1) + b2 with w1=1, b1=0,
    # w2=2, b2=1
    return LocalizerNet([np.array([[1.0]]), np.array([[2.0]])],
                        [np.array([0.0]), np.array([1.0])])


def test_init_deterministic_and_shapes():
    a = LocalizerNet.init(3, seed=42)
    b = LocalizerNet.init(3, seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.shapes == [(100, 3), *[(100, 100)] * 4, (1, 100)]
    assert a.weights[0].shape == (100, 3)


def test_init_d1_first_layer_shape():
    assert LocalizerNet.init(1, seed=0).weights[0].shape == (100, 1)


def test_init_fan_in_bound():
    net = LocalizerNet.init(4, seed=7)
    dims = [4, 100, 100, 100, 100, 100]
    for w, fan_in in zip(net.weights, dims):
        assert np.abs(w).max() <= 1.0 / np.sqrt(fan_in)
    for b in net.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_forward_zero_weights_gives_zero():
    net = LocalizerNet.init(2, seed=0)
    net.theta[:] = 0.0
    g, _ = net.forward_batch(np.array([[3.0, -1.0]]))
    assert g[0] == 0.0


def test_forward_toy_hand_values():
    net = toy_net()
    g, _ = net.forward_batch(np.array([[3.0]]))
    assert g[0] == pytest.approx(7.0)  # 2*relu(3)+1
    g, _ = net.forward_batch(np.array([[-3.0]]))
    assert g[0] == pytest.approx(1.0)  # 2*relu(-3)+1


def test_forward_dimension_mismatch():
    net = toy_net()
    with pytest.raises(ValueError):
        net.forward_batch(np.array([[1.0, 2.0]]))


def test_backward_toy_hand_chain_rule():
    net = toy_net()
    _, tape = net.forward_batch(np.array([[3.0]]))
    grads = net.backward_batch(tape, [1.0])
    (dw1, db1), (dw2, db2) = _layer_views(grads, net.shapes)
    assert dw2[0, 0] == pytest.approx(3.0)  # relu(3)
    assert db2[0] == pytest.approx(1.0)
    assert dw1[0, 0] == pytest.approx(6.0)  # 2*3
    assert db1[0] == pytest.approx(2.0)


def test_backward_zero_upstream():
    net = LocalizerNet.init(2, seed=1)
    _, tape = net.forward_batch(np.array([[0.5, 0.5]]))
    assert not net.backward_batch(tape, [0.0]).any()


def test_backward_stale_tape():
    net = LocalizerNet.init(2, seed=1)
    _, tape = net.forward_batch(np.array([[0.5, 0.5]]))
    state = AdamState(net.shapes, 1e-3)
    _, tape2 = net.forward_batch(np.array([[0.5, 0.5]]))
    grads = net.backward_batch(tape2, [1.0])
    adam_step(net, grads, state)
    with pytest.raises(StaleTapeError):
        net.backward_batch(tape, [1.0])


def test_snapshot_restore_and_layer_views_share_theta():
    net = LocalizerNet.init(2, seed=4, hidden=(8, 8))
    state = AdamState(net.shapes, 1e-3)
    xs = np.random.default_rng(3).normal(size=(4, 2))
    snap = net.snapshot()
    kept = snap.copy()
    for _ in range(3):
        _, tape = net.forward_batch(xs)
        adam_step(net, net.backward_batch(tape, np.ones(4)), state)
    assert np.array_equal(snap, kept)  # a copy: the steps left it alone
    assert not np.array_equal(net.theta, kept)
    _, tape = net.forward_batch(xs)
    net.restore(snap)
    assert net.theta.tobytes() == kept.tobytes()
    with pytest.raises(StaleTapeError):
        net.backward_batch(tape, np.ones(4))
    net.weights[1][2, 3] = 5.0
    net.biases[0][1] = -1.0
    (_, b0), (w1, _), _ = _layer_views(net.theta, net.shapes)
    assert w1[2, 3] == 5.0 and b0[1] == -1.0
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((8, 2))
    with pytest.raises(AttributeError):
        net.biases = ()
    clone = pickle.loads(pickle.dumps(net))  # its views share its own theta
    clone.weights[0][0, 0] = 7.0
    assert clone.theta[0] == 7.0 and net.theta[0] != 7.0


def sample_off_kink(seed, d=3, margin=1e-3):
    """Random (net, x) with hidden pre-activations bounded away from 0.

    Deep-layer pre-activations shrink under fan-in init, so only ~1% of
    draws clear the margin; keep sampling until one does.
    """
    rng = np.random.default_rng(seed)
    for _ in range(6000):
        net = LocalizerNet.init(d, seed=int(rng.integers(1 << 31)))
        x = rng.normal(size=d)
        if pre_activation_margin(net, x) >= margin:
            return net, x
    raise RuntimeError("no off-kink sample found")


def fd_gradient_subset(net, x, picks, step=1e-5):
    """Central finite differences on a parameter subset (oracle)."""
    out = []
    for layer, which, index in picks:
        arr = net.weights[layer] if which == "w" else net.biases[layer]
        orig = arr[index]
        arr[index] = orig + step
        up = net.values(x[None])[0]
        arr[index] = orig - step
        down = net.values(x[None])[0]
        arr[index] = orig
        out.append((up - down) / (2 * step))
    return np.asarray(out)


def random_param_picks(net, rng, count):
    picks = []
    for _ in range(count):
        layer = int(rng.integers(len(net.weights)))
        if rng.random() < 0.8:
            w = net.weights[layer]
            idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
            picks.append((layer, "w", idx))
        else:
            b = net.biases[layer]
            picks.append((layer, "b", (int(rng.integers(b.shape[0])),)))
    return picks


def test_gradient_matches_finite_differences_full_architecture():
    # 20 off-kink (net, x) pairs; 12 randomly chosen parameters each
    rng = np.random.default_rng(2024)
    for trial in range(20):
        net, x = sample_off_kink(seed=trial)
        _, tape = net.forward_batch(x[None])
        grads = _layer_views(net.backward_batch(tape, [1.0]), net.shapes)
        picks = random_param_picks(net, rng, 12)
        fd = fd_gradient_subset(net, x, picks)
        analytic = []
        for layer, which, index in picks:
            g = grads[layer][0 if which == "w" else 1]
            analytic.append(g[index])
        analytic = np.asarray(analytic)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-8)
        assert (np.abs(fd - analytic) / denom).max() <= 1e-5


def test_gradient_matches_exhaustive_fd_small_net():
    rng = np.random.default_rng(77)
    net = LocalizerNet.init(2, seed=5, hidden=(4, 3))
    x = rng.normal(size=2)
    assert pre_activation_margin(net, x) > 1e-3
    _, tape = net.forward_batch(x[None])
    grads = _layer_views(net.backward_batch(tape, [1.0]), net.shapes)
    step = 1e-5
    for layer in range(len(net.weights)):
        for which in ("w", "b"):
            arr = net.weights[layer] if which == "w" else net.biases[layer]
            ga = grads[layer][0 if which == "w" else 1]
            for index in np.ndindex(arr.shape):
                orig = arr[index]
                arr[index] = orig + step
                up = net.values(x[None])[0]
                arr[index] = orig - step
                down = net.values(x[None])[0]
                arr[index] = orig
                fd = (up - down) / (2 * step)
                assert abs(fd - ga[index]) <= 1e-6 * max(1.0, abs(fd))


def test_batch_backward_matches_sum_of_singles():
    net = LocalizerNet.init(3, seed=9)
    xs = np.random.default_rng(1).normal(size=(5, 3))
    upstream = np.array([0.3, -1.0, 2.0, 0.0, 1.5])
    _, tape = net.forward_batch(xs)
    batch_grads = net.backward_batch(tape, upstream)
    acc = np.zeros(net.n_params)
    for i in range(5):
        _, t = net.forward_batch(xs[i][None])
        acc += net.backward_batch(t, [upstream[i]])
    assert np.allclose(batch_grads, acc, atol=1e-12)


def test_backward_into_buffer_matches_fresh_arrays():
    net = LocalizerNet.init(3, seed=9)
    xs = np.random.default_rng(1).normal(size=(7, 3))
    upstream = np.random.default_rng(2).normal(size=7)
    _, tape = net.forward_batch(xs)
    fresh = net.backward_batch(tape, upstream)
    out = np.full(net.n_params, np.nan)
    assert net.backward_batch(tape, upstream, out=out) is out
    assert np.array_equal(out, fresh)
    # a strided vector would make the per-layer views copies, not views
    for bad in (np.empty(net.n_params + 1), np.empty(2 * net.n_params)[::2]):
        with pytest.raises(ValueError, match="buffer"):
            net.backward_batch(tape, upstream, out=bad)


def test_values_match_forward_batch():
    net = LocalizerNet.init(3, seed=9)
    xs = np.random.default_rng(1).normal(size=(50, 3))
    assert np.array_equal(net.values(xs), net.forward_batch(xs)[0])
    with pytest.raises(ValueError, match="mismatches"):
        net.values(xs[:, :2])


def test_output_bias_shift():
    net = LocalizerNet.init(2, seed=3)
    x = np.array([0.4, -0.2])
    before = net.values(x[None])[0]
    net.biases[-1][:] += 2.5
    assert net.values(x[None])[0] == pytest.approx(before + 2.5, abs=1e-12)


def scalar_adam_oracle(grad_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    theta, m, v = 0.0, 0.0, 0.0
    path = []
    for t, g in enumerate(grad_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        path.append(theta)
    return path


def test_adam_single_step_matches_scalar_oracle():
    net = LocalizerNet([np.array([[0.0]])], [np.array([0.0])])
    state = AdamState(net.shapes, 1e-3)
    adam_step(net, np.array([1.0, 0.0]), state)
    expected = scalar_adam_oracle([1.0])[0]
    assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-9.99999990e-4, rel=1e-6)
    assert state.step == 1


def test_adam_sequence_matches_scalar_oracle():
    net = LocalizerNet([np.array([[0.0]])], [np.array([0.0])])
    state = AdamState(net.shapes, 1e-3)
    seq = [1.0, 0.5, -0.2, 0.9]
    path = scalar_adam_oracle(seq)
    for g, expected in zip(seq, path):
        adam_step(net, np.array([g, 0.0]), state)
        assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-14)


def test_adam_zero_gradient_keeps_parameters():
    net = LocalizerNet.init(2, seed=4)
    before = net.snapshot()
    state = AdamState(net.shapes, 1e-3)
    adam_step(net, np.zeros(net.n_params), state)
    assert np.array_equal(net.theta, before)


def test_adam_constant_positive_gradient_decreases_parameter():
    net = LocalizerNet([np.array([[1.0]])], [np.array([0.0])])
    state = AdamState(net.shapes, 1e-3)
    values = [net.weights[0][0, 0]]
    for _ in range(3):
        adam_step(net, np.array([1.0, 0.0]), state)
        values.append(net.weights[0][0, 0])
    assert all(b < a for a, b in zip(values, values[1:]))


def adam_snapshot(net, state):
    """Copies of everything a rejected adam_step must leave unchanged."""
    return (net.snapshot(), state.m_flat.copy(), state.v_flat.copy(),
            state.step)


def assert_same_snapshot(a, b):
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    assert a[3] == b[3]


def stepped_net_and_state():
    """A net and Adam state after two updates, so the moments are nonzero."""
    net = LocalizerNet.init(2, seed=4)
    state = AdamState(net.shapes, 1e-3)
    rng = np.random.default_rng(0)
    for _ in range(2):
        adam_step(net, rng.normal(size=net.n_params), state)
    return net, state


def test_adam_rejects_nan_gradient():
    net, state = stepped_net_and_state()
    before = adam_snapshot(net, state)
    grads = np.zeros(net.n_params)
    grads[0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        adam_step(net, grads, state)
    assert_same_snapshot(adam_snapshot(net, state), before)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_adam_rejects_inf_gradient(bad):
    net, state = stepped_net_and_state()
    before = adam_snapshot(net, state)
    grads = np.zeros(net.n_params)
    grads[0] = bad
    with pytest.raises(ValueError, match="NaN"):
        adam_step(net, grads, state)
    assert_same_snapshot(adam_snapshot(net, state), before)


def test_adam_rejects_gradient_whose_square_overflows():
    # entries near 1e307 are finite, but their squares, which the second
    # moment takes, overflow; the step refuses them and writes nothing
    net, state = stepped_net_and_state()
    before = adam_snapshot(net, state)
    rng = np.random.default_rng(1)
    for grads in (rng.uniform(1e307, 1.7e307, size=net.n_params),
                  np.where(np.arange(net.n_params) == 3, -1.4e154, 0.0)):
        with pytest.raises(ValueError, match="^NaN or infinite gradient "
                                             "or squared gradient; "):
            adam_step(net, grads, state)
        assert_same_snapshot(adam_snapshot(net, state), before)


def test_adam_accepts_huge_gradient_whose_square_is_finite():
    # entries near 1e152 square to about 1e304, finite, but the sum of all
    # the squares overflows, so the fast check fails and the entrywise one
    # must accept them bit for bit
    net, state = stepped_net_and_state()
    ref_net, ref_state = stepped_net_and_state()
    rng = np.random.default_rng(1)
    grads = rng.uniform(1e152, 1.3e152, size=net.n_params)
    grads[::2] *= -1
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(grads * grads))
    adam_step(net, grads, state)
    per_layer_adam_step(ref_net, grads, ref_state)
    assert_same_snapshot(adam_snapshot(net, state),
                         adam_snapshot(ref_net, ref_state))
    assert np.isfinite(net.theta).all()


def test_adam_rejects_misshaped_gradient():
    # one entry too many, or the right entries as an (n, 1) column, which
    # would broadcast against the parameters
    net, state = stepped_net_and_state()
    before = adam_snapshot(net, state)
    for grads in (np.zeros(net.n_params + 1), np.zeros((net.n_params, 1))):
        with pytest.raises(ValueError, match="shape"):
            adam_step(net, grads, state)
        assert_same_snapshot(adam_snapshot(net, state), before)


def step_size(state):
    """Adam's alpha_t = lr sqrt(1 - BETA2^t) / (1 - BETA1^t) at the state's
    last step."""
    t = state.step
    return (state.learning_rate * math.sqrt(1.0 - BETA2 ** t)
            / (1.0 - BETA1 ** t))


def per_layer_adam_step(net, grads, state):
    """Reference: the layer-by-layer Adam update in Kingma & Ba's efficient
    order, with no moment flush."""
    state.step += 1
    root_c2 = math.sqrt(1.0 - BETA2 ** state.step)
    alpha_t = step_size(state)
    layers = zip(*(_layer_views(a, net.shapes) for a in
                   (net.theta, grads, state.m_flat, state.v_flat)))
    for (pw, pb), (gw, gb), (mw, mb), (vw, vb) in layers:
        for target, g, m, v in ((pw, gw, mw, vw), (pb, gb, mb, vb)):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            target -= alpha_t * m / (np.sqrt(v) + EPS * root_c2)
    net.version += 1


def textbook_adam_step(theta, m, v, g, t, lr):
    """Algorithm 1 of Kingma & Ba as printed, on flat vectors; returns the
    update it subtracted from ``theta``."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    upd = lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t))
                                          + EPS)
    theta -= upd
    return upd


@pytest.mark.parametrize("lr", [1e-3, 1.0])
def test_adam_efficient_order_tracks_textbook_algorithm(lr):
    # 2000 steps of gradients whose entries span 1e-30 to 1e30 in scale,
    # a fifth of them zero at each step and a tenth zero throughout. The
    # weights start at zero, so each is minus the sum of its updates, and
    # it may part from the textbook's by at most 1e-12 of its path length,
    # the sum of its textbook updates' magnitudes: twice the 2000 * 2^-52
    # that summing 2000 updates may round by (both rates read 4.4e-16)
    net = LocalizerNet.init(2, seed=8, hidden=(8, 8))
    net.theta[:] = 0.0
    state = AdamState(net.shapes, lr)
    theta, m, v = np.zeros((3, net.n_params))
    path = np.zeros(net.n_params)
    rng = np.random.default_rng(9)
    scale = 10.0 ** rng.uniform(-30, 30, size=net.n_params)
    scale[rng.random(net.n_params) < 0.1] = 0.0
    worst = 0.0
    for t in range(1, 2001):
        grads = scale * rng.normal(size=net.n_params)
        grads[rng.random(net.n_params) < 0.2] = 0.0
        adam_step(net, grads, state)
        path += np.abs(textbook_adam_step(theta, m, v, grads, t, lr))
        gap = np.abs(net.theta - theta)
        assert np.all(gap <= 1e-12 * path)
        worst = max(worst, float(np.max(gap / np.where(path > 0, path, 1))))
    assert 0 < worst  # the two orders do round differently
    assert np.array_equal(state.m_flat, m)


def subnormal_count(arrays):
    tiny = np.finfo(float).tiny
    return sum(int(np.count_nonzero((a != 0) & (np.abs(a) < tiny)))
               for a in arrays)


def test_adam_moment_flush_changes_no_weight():
    # entries whose gradient turns exactly zero after step 50 decay their
    # first moment by 0.9 a step; by step 7050 the reference holds them as
    # subnormals while adam_step has flushed them to zero. The run crosses
    # many flush boundaries and the step (~350) where c1 rounds to 1.0.
    net = LocalizerNet.init(2, seed=5, hidden=(8, 8))
    ref = LocalizerNet(net.weights, net.biases)
    state = AdamState(net.shapes, 1e-3)
    assert state.flush_every == 83
    ref_state = AdamState(ref.shapes, 1e-3)
    rng = np.random.default_rng(6)
    live = rng.random(net.n_params) < 0.7
    unflushed_tiny = 0  # steps that kept some 0 < |m| < 1e-300
    for step in range(7050):
        grads = rng.normal(size=net.n_params)
        if step >= 50:
            grads *= live
        adam_step(net, grads, state)
        per_layer_adam_step(ref, grads, ref_state)
        # neither m nor the alpha_t * m the update scales it to is subnormal
        assert subnormal_count([state.m_flat]) == 0
        assert subnormal_count([state.m_flat * step_size(state)]) == 0
        m = np.abs(state.m_flat)
        unflushed_tiny += bool(((m > 0) & (m < 1e-300)).any())
    assert np.array_equal(net.theta, ref.theta)
    assert subnormal_count(a for pair in ref_state.m for a in pair) > 0
    assert 1.0 - BETA1 ** state.step == 1.0
    assert unflushed_tiny > 0  # the flush is periodic, not every step


def test_adam_flush_period_follows_learning_rate():
    # at lr = 1 the flushed floor 1e-300 may decay for 149 steps before
    # alpha_t * m, at least 0.1522 * lr * m, leaves the normal range; at
    # lr = 1e-9, lr * 1e-300 is already below it, so every step flushes
    net = LocalizerNet.init(2, seed=5, hidden=(8, 8))
    ref = LocalizerNet(net.weights, net.biases)
    state = AdamState(net.shapes, 1.0)
    ref_state = AdamState(ref.shapes, 1.0)
    assert state.flush_every == 149
    assert AdamState(net.shapes, 1e-9).flush_every == 1
    rng = np.random.default_rng(7)
    ref_subnormal_steps = 0
    for step in range(1400):
        # moments start near 1e-251 and, once every unit dies after step
        # 5, reach 1e-300 by about step 1080 and the subnormals by 1260
        scale = 1e-250 if step < 5 else 0.0
        grads = scale * rng.normal(size=net.n_params)
        adam_step(net, grads, state)
        per_layer_adam_step(ref, grads, ref_state)
        assert subnormal_count([state.m_flat]) == 0
        assert subnormal_count([state.m_flat * step_size(state)]) == 0
        ref_subnormal_steps += subnormal_count([ref_state.m_flat]) > 0
    assert np.array_equal(net.theta, ref.theta)
    assert ref_subnormal_steps > 0  # unflushed, the moments pass through


def test_values_memory_is_flat_in_n():
    # values runs its rows in blocks, so the (n, 100) hidden activations
    # (1600 bytes per row for the default net) are never held: from 1e4 to
    # 1e5 rows its traced peak grows by the result, one word per row
    net = LocalizerNet.init(1, seed=0)
    rng = np.random.default_rng(16)
    peaks = {}
    for n in (10**4, 10**5):
        xs = rng.normal(size=(n, 1))
        tracemalloc.start()
        try:
            net.values(xs)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10**5] <= 1.5 * peaks[10**4]


def test_values_runs_aligned_blocks(monkeypatch):
    # blocks start at multiples of _VALUES_ROWS and the last one absorbs a
    # remainder below half a block, so no GEMM is small or misaligned next
    # to the one product over all rows it replaces
    net = LocalizerNet.init(3, seed=4)
    block = network._VALUES_ROWS
    sizes = []
    forward = LocalizerNet._forward

    def spy(self, xs, record):
        sizes.append(len(xs))
        return forward(self, xs, record)

    monkeypatch.setattr(LocalizerNet, "_forward", spy)
    rng = np.random.default_rng(17)
    for n, blocks in ((1, [1]),
                      (block + block // 2 - 1, [block + block // 2 - 1]),
                      (block + block // 2, [block, block // 2]),
                      (6000, [block] * 5 + [6000 - 5 * block])):
        xs = rng.normal(size=(n, 3))
        sizes.clear()
        got = net.values(xs)
        assert sizes == blocks
        assert np.array_equal(got, np.concatenate(
            [forward(net, xs[s:s + b], False)[0]
             for s, b in zip(np.cumsum([0] + blocks[:-1]), blocks)]))
