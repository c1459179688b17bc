import json
import math

import hypothesis.strategies as hst
import numpy as np
import pytest
from hypothesis import given, settings

from uavnav import neuro
from uavnav.neuro import (
    AdamState,
    LayerSpec,
    NetworkParams,
    Standardizer,
    TrainConfig,
    adam_step,
    backward,
    dense_specs,
    fit_standardizer,
    forward,
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
    out, _ = forward(params, x)
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
        out, _ = forward(params, [1.0, -2.0, 3.0])
        assert (out == 0).all()

    def test_single_tanh_unit(self):
        specs = (LayerSpec(1, 1, "tanh"),)
        params = NetworkParams(
            specs=specs, weights=[np.array([[1.0]])], biases=[np.array([0.0])],
            standardizer=Standardizer.identity(1),
        )
        out, _ = forward(params, [0.0])
        assert out[0] == 0.0
        out, _ = forward(params, [100.0])
        assert out[0] == pytest.approx(math.tanh(100.0))

    def test_matches_reference_implementation(self, rng):
        for specs in (VALUE_SPECS, MAP_SPECS):
            params = init_network(specs, rng)
            params.standardizer = fit_standardizer(rng.normal(size=(50, specs[0].input_size)))
            for _ in range(5):
                x = rng.normal(size=specs[0].input_size) * 3
                got, _ = forward(params, x)
                assert np.allclose(got, reference_forward(params, x), atol=1e-12)

    def test_rejects_bad_inputs(self, rng):
        params = init_network(dense_specs(4, (3,), 1), rng)
        with pytest.raises(ValueError):
            forward(params, [1.0, 2.0])
        with pytest.raises(ValueError):
            forward(params, [1.0, 2.0, math.nan, 0.0])

    def test_batch_matches_single(self, rng):
        params = init_network(VALUE_SPECS, rng)
        xs = rng.normal(size=(7, 34))
        batch, _ = forward_batch(params, xs)
        for i in range(7):
            single, _ = forward(params, xs[i])
            assert np.allclose(batch[i], single, atol=0)

    def test_tanh_output_bounded(self, rng):
        params = init_network(VALUE_SPECS, rng)
        out, _ = forward_batch(params, rng.normal(size=(100, 34)) * 50)
        assert (np.abs(out) < 1.0).all()


class TestBackward:
    def test_zero_gradient_flows_zero(self, rng):
        params = init_network(dense_specs(3, (5,), 2), rng)
        _, cache = forward(params, [1.0, 2.0, 3.0])
        gw, gb = backward(params, cache, np.zeros(2), l2=0.0)
        assert all((g == 0).all() for g in gw)
        assert all((g == 0).all() for g in gb)

    def test_hand_derivative_single_unit(self):
        # Identity unit, squared loss at (x=1, y=0): dL/dw = x * (out - y) = 1.
        specs = (LayerSpec(1, 1, "identity"),)
        params = NetworkParams(
            specs=specs, weights=[np.array([[1.0]])], biases=[np.array([0.0])],
            standardizer=Standardizer.identity(1),
        )
        out, cache = forward(params, [1.0])
        gw, gb = backward(params, cache, out - np.array([0.0]), l2=0.0)
        assert gw[0][0, 0] == pytest.approx(1.0)
        assert gb[0][0] == pytest.approx(1.0)

    def test_rejects_stale_cache(self, rng):
        params = init_network(dense_specs(3, (5,), 2), rng)
        _, cache = forward(params, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros(3), l2=0.0)

    @pytest.mark.parametrize("specs", [VALUE_SPECS, MAP_SPECS], ids=["value", "map"])
    def test_matches_finite_differences(self, specs, rng):
        params = init_network(specs, rng)
        params.standardizer = fit_standardizer(rng.normal(size=(40, specs[0].input_size)))
        l2 = 1e-4
        worst = 0.0
        for _ in range(5):
            x = rng.normal(size=specs[0].input_size)
            y = rng.normal(size=1)
            out, cache = forward(params, x)
            analytic = backward(params, cache, out - y, l2=l2)
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
        assert forward(params, x)[0][0] == forward(back, x)[0][0]

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


class TestWithoutSubnormals:
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
        before = [a.copy() for a in net.weights + net.biases]
        x = std.mean + 3.0 * std.std * rng.normal(size=(200, 34))

        flushed = neuro.without_subnormals(net)

        for a in flushed.weights + flushed.biases:
            assert ((a == 0.0) | (np.abs(a) >= tiny)).all()
        for a, b in zip(net.weights + net.biases, before):
            assert a.tobytes() == b.tobytes()
        assert forward_batch(flushed, x)[0].tobytes() == forward_batch(net, x)[0].tobytes()
