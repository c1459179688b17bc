import json
import math
from dataclasses import replace

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import example, given, settings

from uavnav import neuro
from uavnav.neuro import (
    AdamState,
    LayerSpec,
    NetworkParams,
    Standardizer,
    TrainConfig,
    adam_step,
    dense_specs,
    fit_standardizer,
    forward_batch,
    backward_batch,
    init_network,
    train_epochs,
)

VALUE_SPECS = dense_specs(34, (64, 32, 16), 1, "relu", "tanh")
MAP_SPECS = dense_specs(30, (32, 16, 8), 1, "relu", "identity")


def reference_forward(params, x):
    """Straightforward independent re-implementation for oracle checks."""
    a = [(xv - m) / s for xv, m, s in zip(x, params.standardizer.mean, params.standardizer.std)]
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = [sum(a[i] * w[i][j] for i in range(spec.input_size)) + b[j]
             for j in range(spec.output_size)]
        if spec.activation == "relu":
            a = [max(0.0, v) for v in z]
        elif spec.activation == "tanh":
            a = [math.tanh(v) for v in z]
        else:
            a = z
    return np.array(a)


def loss_of(params, x, y, l2):
    out, _ = forward_batch(params, x)
    data = 0.5 * float(((out - y) ** 2).sum())
    reg = 0.5 * l2 * sum(float((w**2).sum()) for w in params.weights)
    return data + reg


def finite_difference_grads(params, x, y, l2, h=1e-5):
    grads_w, grads_b = [], []
    for li in range(len(params.weights)):
        gw = np.zeros_like(params.weights[li])
        for idx in np.ndindex(*params.weights[li].shape):
            orig = params.weights[li][idx]
            params.weights[li][idx] = orig + h
            up = loss_of(params, x, y, l2)
            params.weights[li][idx] = orig - h
            down = loss_of(params, x, y, l2)
            params.weights[li][idx] = orig
            gw[idx] = (up - down) / (2 * h)
        grads_w.append(gw)
        gb = np.zeros_like(params.biases[li])
        for idx in np.ndindex(*params.biases[li].shape):
            orig = params.biases[li][idx]
            params.biases[li][idx] = orig + h
            up = loss_of(params, x, y, l2)
            params.biases[li][idx] = orig - h
            down = loss_of(params, x, y, l2)
            params.biases[li][idx] = orig
            gb[idx] = (up - down) / (2 * h)
        grads_b.append(gb)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    # Guard floor 1e-6 sits above the central-difference rounding noise
    # (eps * loss / h ~ 1e-11) so near-zero gradients do not dominate.
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_net_outputs_zero(self):
        specs = dense_specs(3, (4,), 2, "relu", "identity")
        params = NetworkParams(
            specs=specs,
            weights=[np.zeros((3, 4)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
            standardizer=Standardizer.identity(3),
        )
        out, _ = forward_batch(params, [1.0, -2.0, 3.0])
        assert (out == 0).all()

    def test_single_tanh_unit(self):
        specs = (LayerSpec(1, 1, "tanh"),)
        params = NetworkParams(
            specs=specs, weights=[np.array([[1.0]])], biases=[np.array([0.0])],
            standardizer=Standardizer.identity(1),
        )
        out, _ = forward_batch(params, [0.0])
        assert out[0] == 0.0
        out, _ = forward_batch(params, [100.0])
        assert out[0] == pytest.approx(math.tanh(100.0))

    def test_matches_reference_implementation(self, rng):
        for specs in (VALUE_SPECS, MAP_SPECS):
            params = init_network(specs, rng)
            params.standardizer = fit_standardizer(rng.normal(size=(50, specs[0].input_size)))
            for _ in range(5):
                x = rng.normal(size=specs[0].input_size) * 3
                got, _ = forward_batch(params, x)
                assert np.allclose(got, reference_forward(params, x), atol=1e-12)

    def test_rejects_bad_inputs(self, rng):
        params = init_network(dense_specs(4, (3,), 1), rng)
        with pytest.raises(ValueError):
            forward_batch(params, [1.0, 2.0])
        with pytest.raises(ValueError):
            forward_batch(params, [1.0, 2.0, math.nan, 0.0])

    def test_batch_matches_single(self, rng):
        params = init_network(VALUE_SPECS, rng)
        xs = rng.normal(size=(7, 34))
        batch, _ = forward_batch(params, xs)
        for i in range(7):
            single, _ = forward_batch(params, xs[i])
            assert np.allclose(batch[i], single, atol=0)

    def test_tanh_output_bounded(self, rng):
        params = init_network(VALUE_SPECS, rng)
        out, _ = forward_batch(params, rng.normal(size=(100, 34)) * 50)
        assert (np.abs(out) < 1.0).all()

    @settings(max_examples=60, deadline=None)
    @given(s=hst.integers(1, 6), b=hst.integers(1, 40), seed=hst.integers(0, 2**32 - 1))
    @example(s=4, b=15, seed=0)
    def test_stacked_equals_one_call_per_slice(self, s, b, seed):
        # Bit for bit: the stacked input must not be flattened into one
        # (S*B, in) product, whose rows BLAS may round differently.
        rng = np.random.default_rng(seed)
        params = init_network(VALUE_SPECS, rng, fit_standardizer(rng.normal(size=(50, 34))))
        x = rng.normal(size=(s, b, 34)) * 5
        stacked, _ = forward_batch(params, x)
        assert stacked.shape == (s, b, 1)
        per_slice = np.stack([forward_batch(params, x_s)[0] for x_s in x])
        assert stacked.tobytes() == per_slice.tobytes()


class TestBackward:
    def test_zero_gradient_flows_zero(self, rng):
        params = init_network(dense_specs(3, (5,), 2), rng)
        _, cache = forward_batch(params, [1.0, 2.0, 3.0])
        gw, gb = backward_batch(params, cache, np.zeros(2), l2=0.0)
        assert all((g == 0).all() for g in gw)
        assert all((g == 0).all() for g in gb)

    def test_hand_derivative_single_unit(self):
        # Identity unit, squared loss at (x=1, y=0): dL/dw = x * (out - y) = 1.
        specs = (LayerSpec(1, 1, "identity"),)
        params = NetworkParams(
            specs=specs, weights=[np.array([[1.0]])], biases=[np.array([0.0])],
            standardizer=Standardizer.identity(1),
        )
        out, cache = forward_batch(params, [1.0])
        gw, gb = backward_batch(params, cache, out - np.array([0.0]), l2=0.0)
        assert gw[0][0, 0] == pytest.approx(1.0)
        assert gb[0][0] == pytest.approx(1.0)

    def test_rejects_stale_cache(self, rng):
        params = init_network(dense_specs(3, (5,), 2), rng)
        _, cache = forward_batch(params, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            backward_batch(params, cache, np.zeros(3), l2=0.0)

    @pytest.mark.parametrize("specs", [VALUE_SPECS, MAP_SPECS], ids=["value", "map"])
    def test_matches_finite_differences(self, specs, rng):
        params = init_network(specs, rng)
        params.standardizer = fit_standardizer(rng.normal(size=(40, specs[0].input_size)))
        l2 = 1e-4
        worst = 0.0
        for _ in range(5):
            x = rng.normal(size=specs[0].input_size)
            y = rng.normal(size=1)
            out, cache = forward_batch(params, x)
            analytic = backward_batch(params, cache, out - y, l2=l2)
            numeric = finite_difference_grads(params, x, y, l2)
            worst = max(
                worst,
                max_relative_error(analytic[0], numeric[0]),
                max_relative_error(analytic[1], numeric[1]),
            )
        assert worst <= 1e-4


class TestAdam:
    def test_first_step_magnitude(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        before = [w.copy() for w in params.weights]
        grads = (
            [np.full_like(w, 0.5) for w in params.weights],
            [np.full_like(b, 0.5) for b in params.biases],
        )
        adam_step(params, grads, AdamState.for_params(params), lr=0.01)
        for b, a in zip(before, params.weights):
            # Bias-corrected first step is ~ -lr * sign(g).
            assert np.allclose(b - a, 0.01, rtol=1e-6)

    def test_zero_gradient_never_moves(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        before = [w.copy() for w in params.weights]
        state = AdamState.for_params(params)
        zeros = (
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
        )
        for _ in range(10):
            adam_step(params, zeros, state, lr=0.1)
        assert all((b == a).all() for b, a in zip(before, params.weights))

    def test_three_steps_match_unrolled_recurrence(self):
        # Scalar quadratic loss f(w) = 0.5 w^2, gradient w, three scripted steps.
        specs = (LayerSpec(1, 1, "identity"),)
        params = NetworkParams(
            specs=specs, weights=[np.array([[1.5]])], biases=[np.array([0.0])],
            standardizer=Standardizer.identity(1),
        )
        state = AdamState.for_params(params)
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref = 1.5
        m = v = 0.0
        for t in range(1, 4):
            g = w_ref  # d(0.5 w^2)/dw
            grads = ([np.array([[g]])], [np.array([0.0])])
            adam_step(params, grads, state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w_ref = w_ref - lr * m_hat / (math.sqrt(v_hat) + eps)
            assert params.weights[0][0, 0] == pytest.approx(w_ref, abs=1e-12)


def per_array_adam_step(weights, biases, grads, state, lr):
    """Adam as a loop over each layer's arrays: the update the flat one must equal bit for bit."""
    grads_w, grads_b = grads
    state["step"] += 1
    t = state["step"]
    b1, b2, eps = 0.9, 0.999, 1e-8
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for i in range(len(weights)):
        for value, grad, m, v in (
            (weights[i], grads_w[i], state["m_w"][i], state["v_w"][i]),
            (biases[i], grads_b[i], state["m_b"][i], state["v_b"][i]),
        ):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


class TestFlatLayout:
    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1),
           sizes=hst.lists(hst.integers(1, 12), min_size=2, max_size=5),
           steps=hst.integers(1, 50), l2=hst.sampled_from([0.0, 1e-4]))
    def test_adam_matches_per_array_loop(self, seed, sizes, steps, l2):
        rng = np.random.default_rng(seed)
        params = init_network(dense_specs(sizes[0], tuple(sizes[1:-1]), sizes[-1]), rng)
        weights = [w.copy() for w in params.weights]
        biases = [b.copy() for b in params.biases]
        ref_state = {"step": 0, **{k: [np.zeros_like(a) for a in arrays] for k, arrays in (
            ("m_w", weights), ("v_w", weights), ("m_b", biases), ("v_b", biases))}}
        state = AdamState.for_params(params)
        lr = float(rng.uniform(1e-4, 0.1))
        for _ in range(steps):
            x = rng.normal(size=(int(rng.integers(1, 9)), sizes[0]))
            out, cache = forward_batch(params, x)
            grads = backward_batch(params, cache, out - rng.normal(size=out.shape), l2)
            adam_step(params, grads, state, lr)
            per_array_adam_step(weights, biases, grads, ref_state, lr)
        for got, want in zip(params.weights + params.biases, weights + biases):
            assert got.tobytes() == want.tobytes()
        for k in ("m", "v"):  # each layer's weights then biases, as in params.flat
            want = np.concatenate([a.ravel() for wb in zip(ref_state[f"{k}_w"], ref_state[f"{k}_b"])
                                   for a in wb])
            assert getattr(state, k).tobytes() == want.tobytes()
        assert state.step == steps

    def test_layers_are_views_of_the_flat_vector(self, rng):
        params = init_network(MAP_SPECS, rng)
        assert sum(a.size for a in params.weights + params.biases) == params.flat.size
        params.weights[1][2, 3] = 7.5
        params.biases[0][4] = -2.0
        flat = np.concatenate([a.ravel() for wb in zip(params.weights, params.biases)
                               for a in wb])
        assert flat.tobytes() == params.flat.tobytes()
        params.flat[:] = np.arange(params.flat.size)
        assert params.weights[0][0, 1] == 1.0
        assert params.biases[-1][0] == params.flat.size - 1

    def test_a_layer_cannot_be_swapped_out(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        with pytest.raises(TypeError):
            params.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            params.biases[-1] = np.zeros(1)

    def test_construction_copies_and_copy_is_independent(self, rng):
        w = [np.ones((2, 3)), np.ones((3, 1))]
        b = [np.zeros(3), np.zeros(1)]
        params = NetworkParams(specs=dense_specs(2, (3,), 1), weights=w, biases=b,
                               standardizer=Standardizer.identity(2))
        w[0][0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0
        twin = replace(params)  # the constructor copies the arrays
        twin.weights[0][0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0
        assert not np.shares_memory(twin.flat, params.flat)

    def test_adam_rejects_state_of_another_network(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        other = init_network(dense_specs(2, (4,), 1), rng)
        grads = ([np.zeros_like(w) for w in params.weights],
                 [np.zeros_like(b) for b in params.biases])
        with pytest.raises(ValueError):
            adam_step(params, grads, AdamState.for_params(other), lr=0.1)


class TestStandardizer:
    def test_constant_column_floored(self):
        std = fit_standardizer([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        assert std.std[0] == 1e-8
        assert std.apply(np.array([3.0, 2.0]))[0] == 0.0

    def test_two_point_symmetric(self):
        std = fit_standardizer([[-1.0], [1.0]])
        assert std.mean[0] == 0.0
        assert std.std[0] == 1.0

    def test_matches_two_pass_oracle(self, rng):
        data = rng.normal(size=(100, 7)) * rng.uniform(0.5, 4, 7)
        std = fit_standardizer(data)
        for j in range(7):
            mean = sum(data[:, j]) / 100
            var = sum((v - mean) ** 2 for v in data[:, j]) / 100
            assert std.mean[j] == pytest.approx(mean, rel=1e-12)
            assert std.std[j] == pytest.approx(math.sqrt(var), rel=1e-10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_standardizer([])


class TestTrainEpochs:
    def test_learns_linear_map(self, rng):
        params = init_network(dense_specs(1, (4,), 1, "identity", "identity"), rng)
        x = rng.uniform(-1, 1, (64, 1))
        y = 2.0 * x
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, l2_coefficient=1e-10, epochs=200)
        params, history = train_epochs(params, x, y, cfg, rng)
        assert history[-1] < 1e-4

    def test_zero_lr_is_identity(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        before = neuro.to_dict(params)
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 1))
        cfg = TrainConfig(learning_rate=1e-30, batch_size=5, l2_coefficient=0.0, epochs=3)
        params, history = train_epochs(params, x, y, cfg, rng)
        after = neuro.to_dict(params)
        for wb, wa in zip(before["weights"], after["weights"]):
            assert np.allclose(wb, wa, atol=1e-25)
        assert len(set(round(h, 12) for h in history)) == 1  # flat loss history

    def test_deterministic_under_seed(self):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            params = init_network(dense_specs(3, (8, 4), 1), rng)
            x = np.random.default_rng(5).normal(size=(40, 3))
            y = np.random.default_rng(6).normal(size=(40, 1))
            cfg = TrainConfig(learning_rate=0.01, batch_size=8, l2_coefficient=1e-4, epochs=5)
            params, _ = train_epochs(params, x, y, cfg, rng)
            runs.append(json.dumps(neuro.to_dict(params), sort_keys=True))
        assert runs[0] == runs[1]

    def test_rejects_empty_dataset(self, rng):
        params = init_network(dense_specs(2, (3,), 1), rng)
        with pytest.raises(ValueError):
            train_epochs(params, np.empty((0, 2)), np.empty((0, 1)),
                         TrainConfig(epochs=1), rng)


def reference_train_epochs(params, inputs, targets, config, rng, adam, after_epoch):
    """Minibatch Adam as one forward_batch, backward_batch and adam_step call per
    minibatch, each written out as those functions computed it before the lean
    step, independent of neuro's implementation: the loop train_epochs must
    equal bit for bit.  Returns the per-epoch mean losses."""
    specs, weights, biases = params.specs, params.weights, params.biases

    def forward(x):
        a = (x - params.standardizer.mean) / params.standardizer.std
        activations, pre = [a], []
        for spec, w, b in zip(specs, weights, biases):
            z = a @ w + b
            pre.append(z)
            a = {"relu": lambda: np.maximum(z, 0.0), "tanh": lambda: np.tanh(z),
                 "identity": lambda: z}[spec.activation]()
            activations.append(a)
        return a, activations, pre

    def backward(activations, pre, dout, l2):
        grads_w, grads_b = [None] * len(specs), [None] * len(specs)
        da = dout
        for i in range(len(specs) - 1, -1, -1):
            z = pre[i]
            if specs[i].activation == "relu":
                grad = z > 0.0
            elif specs[i].activation == "tanh":
                t = np.tanh(z)
                grad = 1.0 - t * t
            else:
                grad = np.ones_like(z)
            dz = da * grad
            grads_w[i] = activations[i].T @ dz + l2 * weights[i]
            grads_b[i] = dz.sum(axis=0)
            if i > 0:
                da = dz @ weights[i].T
        return grads_w, grads_b

    def adam_update(grads_w, grads_b, lr):
        grad = np.concatenate([g.ravel() for gw, gb in zip(grads_w, grads_b) for g in (gw, gb)])
        m, v, value = adam.m, adam.v, params.flat
        adam.step += 1
        t = adam.step
        b1, b2 = neuro.ADAM_BETA1, neuro.ADAM_BETA2
        corr1 = 1.0 - b1 ** t
        corr2 = 1.0 - b2 ** t
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        value -= lr * (m / corr1) / (np.sqrt(v / corr2) + neuro.ADAM_EPS)

    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        losses = []
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            out, activations, pre = forward(x[idx])
            err = out - y[idx]
            loss = 0.5 * float((err * err).sum()) / len(idx)
            adam_update(*backward(activations, pre, err / len(idx), config.l2_coefficient),
                        config.learning_rate)
            losses.append(loss)
        history.append(float(np.mean(losses)))
        after_epoch()
    return history


class TestLeanTraining:
    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1),
           hidden_act=hst.sampled_from(["relu", "tanh", "identity"]),
           head=hst.sampled_from(["relu", "tanh", "identity"]),
           hidden=hst.lists(hst.integers(1, 12), min_size=0, max_size=3),
           n=hst.integers(1, 150), batch=hst.integers(1, 64), epochs=hst.integers(1, 3),
           l2=hst.sampled_from([0.0, 1e-4]), flat_targets=hst.booleans())
    @example(seed=1, hidden_act="relu", head="identity", hidden=[32, 16, 8], n=437, batch=200,
             epochs=2, l2=1e-4, flat_targets=True)  # the map net, a ragged last batch
    @example(seed=2, hidden_act="relu", head="tanh", hidden=[64, 32, 16], n=250, batch=64,
             epochs=2, l2=0.0, flat_targets=False)  # the value net
    def test_train_epochs_matches_the_per_minibatch_loop(self, seed, hidden_act, head, hidden,
                                                         n, batch, epochs, l2, flat_targets):
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(1, 35))
        specs = dense_specs(n_in, tuple(hidden), 1, hidden_act, head)
        x = rng.normal(size=(n, n_in)) * 3
        y = rng.normal(size=n) if flat_targets else rng.normal(size=(n, 1))
        params = init_network(specs, rng, fit_standardizer(x))
        twin = replace(params)  # the constructor copies the arrays
        adam, twin_adam = AdamState.for_params(params), AdamState.for_params(twin)
        cfg = TrainConfig(learning_rate=float(rng.uniform(1e-4, 0.05)), batch_size=batch,
                          l2_coefficient=l2, epochs=epochs)
        after, twin_after = [], []
        _, history = train_epochs(params, x, y, cfg, np.random.default_rng(seed), adam,
                                  after_epoch=lambda: after.append(params.flat.tobytes()))
        want = reference_train_epochs(twin, x, y, cfg, np.random.default_rng(seed), twin_adam,
                                      lambda: twin_after.append(twin.flat.tobytes()))
        assert history == want
        assert after == twin_after and len(after) == epochs
        assert params.flat.tobytes() == twin.flat.tobytes()
        assert adam.m.tobytes() == twin_adam.m.tobytes()
        assert adam.v.tobytes() == twin_adam.v.tobytes()
        assert adam.step == twin_adam.step == epochs * -(-n // batch)

    def test_non_finite_input_raises_and_leaves_the_parameters(self, rng):
        params = init_network(MAP_SPECS, rng)
        adam = AdamState.for_params(params)
        before = params.flat.tobytes()
        x = rng.normal(size=(90, 30))
        for bad in (math.nan, math.inf):
            x[77, 4] = bad  # in the last minibatch
            with pytest.raises(ValueError, match="non-finite"):
                train_epochs(params, x, rng.normal(size=90), TrainConfig(batch_size=20, epochs=2),
                             rng, adam)
            assert params.flat.tobytes() == before
            assert adam.step == 0 and not adam.m.any() and not adam.v.any()

    def test_inputs_and_targets_must_pair_up(self, rng):
        params = init_network(dense_specs(3, (4,), 1), rng)
        with pytest.raises(ValueError, match="pair up"):
            train_epochs(params, rng.normal(size=(10, 3)), rng.normal(size=9),
                         TrainConfig(epochs=1), rng)


class TestSerialization:
    @pytest.mark.parametrize("specs", [VALUE_SPECS, MAP_SPECS], ids=["value", "map"])
    def test_lossless_round_trip(self, specs, rng, tmp_path):
        params = init_network(specs, rng)
        params.standardizer = fit_standardizer(rng.normal(size=(30, specs[0].input_size)))
        path = tmp_path / "model.json"
        neuro.save_model(params, path, digest="feedbeef")
        back = neuro.load_model(path)
        assert back.specs == params.specs
        for w1, w2 in zip(params.weights, back.weights):
            assert (w1 == w2).all()
        for b1, b2 in zip(params.biases, back.biases):
            assert (b1 == b2).all()
        assert (back.standardizer.mean == params.standardizer.mean).all()
        assert (back.standardizer.std == params.standardizer.std).all()
        # identical outputs, bit for bit
        x = rng.normal(size=specs[0].input_size)
        assert forward_batch(params, x)[0][0] == forward_batch(back, x)[0][0]

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-v9"}')
        with pytest.raises(ValueError):
            neuro.load_model(path)

    def test_save_is_byte_deterministic(self, rng, tmp_path):
        params = init_network(MAP_SPECS, rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        neuro.save_model(params, p1)
        neuro.save_model(params, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    def test_shape_chain_enforced(self, rng):
        with pytest.raises(ValueError):
            NetworkParams(
                specs=dense_specs(3, (4,), 1),
                weights=[np.zeros((3, 4)), np.zeros((5, 1))],
                biases=[np.zeros(4), np.zeros(1)],
                standardizer=Standardizer.identity(3),
            )

    def test_rejects_nonfinite_params(self):
        with pytest.raises(ValueError):
            NetworkParams(
                specs=(LayerSpec(1, 1, "identity"),),
                weights=[np.array([[math.inf]])],
                biases=[np.array([0.0])],
                standardizer=Standardizer.identity(1),
            )

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(2, 2, "sigmoid")


def is_subnormal(a) -> np.ndarray:
    return (a != 0.0) & (np.abs(a) < np.finfo(float).tiny)


class TestFlushSubnormals:
    def test_zeroes_subnormals_in_place_and_keeps_the_rest(self):
        tiny = np.finfo(float).tiny
        a = np.array([-0.0, 0.0, tiny, -tiny, tiny / 2, -tiny / 3, 5e-324, 1.5, -2.0])
        b = np.array([[tiny / 4, 1e-300]])
        neuro.flush_subnormals(a, b)
        want = np.array([-0.0, 0.0, tiny, -tiny, 0.0, 0.0, 0.0, 1.5, -2.0])
        assert a.tobytes() == want.tobytes()  # -0.0 keeps its sign
        assert b.tobytes() == np.array([[0.0, 1e-300]]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), share=hst.floats(0.0, 0.9))
    def test_planted_subnormals(self, seed, share):
        rng = np.random.default_rng(seed)
        std = Standardizer(mean=rng.normal(size=34), std=rng.uniform(0.5, 2.0, 34))
        net = init_network(VALUE_SPECS, rng, std)
        tiny = np.finfo(float).tiny
        for b in net.biases:
            b += 0.1 * rng.normal(size=b.shape)
        # The output bias stays normal-sized, as in a trained net: a unit whose
        # whole input is subnormal would output 0 instead of a subnormal.
        for a in net.weights + net.biases[:-1]:
            planted = rng.random(a.shape) < share
            a[planted] = rng.uniform(-1.0, 1.0, int(planted.sum())) * tiny
        mapping = json.loads(json.dumps(neuro.to_dict(net)))
        x = std.mean + 3.0 * std.std * rng.normal(size=(200, 34))

        loaded = neuro.from_dict(mapping)

        assert not is_subnormal(loaded.flat).any()
        kept = ~is_subnormal(net.flat)
        assert loaded.flat[kept].tobytes() == net.flat[kept].tobytes()
        assert (loaded.flat[~kept] == 0.0).all()
        assert forward_batch(loaded, x)[0].tobytes() == forward_batch(net, x)[0].tobytes()
