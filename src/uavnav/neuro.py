"""Small dense feedforward stack with manual backprop, Adam, and standardization.

Shared by the state-value network (ReLU hidden, tanh scalar output) and the
SINR-map regressor (ReLU hidden, linear output).  Everything is plain numpy;
weights are (fan_in, fan_out) matrices so a batch forward is X @ W + b.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class LayerSpec:
    input_size: int
    output_size: int
    activation: str

    def __post_init__(self):
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError("layer sizes must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if (self.std <= 0).any():
            raise ValueError("standardizer std components must be > 0")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    @staticmethod
    def identity(n: int) -> "Standardizer":
        return Standardizer(mean=np.zeros(n), std=np.ones(n))


@dataclass
class NetworkParams:
    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    standardizer: Standardizer

    def __post_init__(self):
        self.specs = tuple(self.specs)
        for i, spec in enumerate(self.specs):
            if self.weights[i].shape != (spec.input_size, spec.output_size):
                raise ValueError(f"layer {i} weight shape {self.weights[i].shape} mismatch")
            if self.biases[i].shape != (spec.output_size,):
                raise ValueError(f"layer {i} bias shape {self.biases[i].shape} mismatch")
            if i > 0 and spec.input_size != self.specs[i - 1].output_size:
                raise ValueError(f"layer {i} input does not chain from layer {i - 1}")
        if len(self.standardizer.mean) != self.specs[0].input_size:
            raise ValueError("standardizer length does not match input layer")
        for w, b in zip(self.weights, self.biases):
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("non-finite parameters")

    @property
    def input_size(self) -> int:
        return self.specs[0].input_size

    @property
    def output_size(self) -> int:
        return self.specs[-1].output_size

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            specs=self.specs,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            standardizer=self.standardizer,
        )


def without_subnormals(params: NetworkParams) -> NetworkParams:
    """Copy of params with every subnormal weight and bias set to 0.0.

    Inference runs on such a copy.  Training under L2 with Adam leaves the
    weights of dead units decaying into the subnormal range, and x86 takes a
    slow microcode path for every subnormal operand, so a small batch forward
    on a desk-trained value net runs about 9x slower than on the same net with
    those weights at zero.  A subnormal term lies far below the last bit of any
    normal-sized sum it joins, so the outputs stay bit-identical as long as
    each output unit's sum has a normal-sized term, such as its bias; only a
    unit whose whole input is subnormal changes, from a subnormal value to 0.
    Training keeps updating the master weights; the source is left untouched.
    """
    tiny = np.finfo(float).tiny

    def flushed(a: np.ndarray) -> np.ndarray:
        return np.where((a != 0.0) & (np.abs(a) < tiny), 0.0, a)

    return NetworkParams(
        specs=params.specs,
        weights=[flushed(w) for w in params.weights],
        biases=[flushed(b) for b in params.biases],
        standardizer=params.standardizer,
    )


def dense_specs(input_size: int, hidden: tuple[int, ...], output_size: int,
                hidden_activation: str = "relu", output_activation: str = "identity"):
    sizes = [input_size, *hidden, output_size]
    specs = []
    for i in range(len(sizes) - 1):
        act = hidden_activation if i < len(sizes) - 2 else output_activation
        specs.append(LayerSpec(sizes[i], sizes[i + 1], act))
    return tuple(specs)


def init_network(specs, rng: np.random.Generator,
                 standardizer: Standardizer | None = None) -> NetworkParams:
    """Uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    weights, biases = [], []
    for spec in specs:
        bound = 1.0 / math.sqrt(spec.input_size)
        weights.append(rng.uniform(-bound, bound, (spec.input_size, spec.output_size)))
        biases.append(np.zeros(spec.output_size))
    if standardizer is None:
        standardizer = Standardizer.identity(specs[0].input_size)
    return NetworkParams(specs=tuple(specs), weights=weights, biases=biases,
                         standardizer=standardizer)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def forward_batch(params: NetworkParams, x: np.ndarray):
    """Batched forward pass; returns (outputs (B, out), cache for backward)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != params.input_size:
        raise ValueError(f"input length {x.shape[1]}, expected {params.input_size}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    a = params.standardizer.apply(x)
    activations = [a]
    pre = []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = a @ w + b
        pre.append(z)
        a = _activate(z, spec.activation)
        activations.append(a)
    cache = (activations, pre)
    return (a[0] if squeeze else a), cache


def forward(params: NetworkParams, x):
    """Single-vector forward pass (standardize, then affine + activation per layer)."""
    return forward_batch(params, np.asarray(x, dtype=float))


def backward_batch(params: NetworkParams, cache, output_gradient: np.ndarray, l2: float = 0.0):
    """Exact gradients of (loss + l2/2 * ||W||^2) given dLoss/doutput; biases unregularized."""
    activations, pre = cache
    dout = np.asarray(output_gradient, dtype=float)
    if dout.ndim == 1:
        dout = dout[None, :]
    if dout.shape != pre[-1].shape:
        raise ValueError(f"output gradient shape {dout.shape} does not match cache "
                         f"{pre[-1].shape}")
    grads_w = [None] * len(params.specs)
    grads_b = [None] * len(params.specs)
    da = dout
    for i in range(len(params.specs) - 1, -1, -1):
        dz = da * _activate_grad(pre[i], params.specs[i].activation)
        grads_w[i] = activations[i].T @ dz + l2 * params.weights[i]
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.weights[i].T
    return grads_w, grads_b


def backward(params: NetworkParams, cache, output_gradient, l2: float = 0.0):
    return backward_batch(params, cache, np.asarray(output_gradient, dtype=float), l2)


@dataclass
class AdamState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_params(params: NetworkParams, beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "AdamState":
        return AdamState(
            m_w=[np.zeros_like(w) for w in params.weights],
            v_w=[np.zeros_like(w) for w in params.weights],
            m_b=[np.zeros_like(b) for b in params.biases],
            v_b=[np.zeros_like(b) for b in params.biases],
            beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(params: NetworkParams, grads, state: AdamState, lr: float) -> NetworkParams:
    """Standard bias-corrected Adam update, in place on params and state."""
    grads_w, grads_b = grads
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for i in range(len(params.weights)):
        for value, grad, m, v in (
            (params.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (params.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)
    return params


def fit_standardizer(dataset) -> Standardizer:
    """Per-component population mean/std, std floored at 1e-8."""
    data = np.asarray(dataset, dtype=float)
    if data.size == 0:
        raise ValueError("empty dataset")
    mean = data.mean(axis=0)
    std = np.maximum(data.std(axis=0), 1e-8)
    return Standardizer(mean=mean, std=std)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 200
    l2_coefficient: float = 1e-4
    epochs: int = 10

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.epochs) <= 0 or self.l2_coefficient < 0:
            raise ValueError("train config values must be positive (l2 >= 0)")


def train_epochs(params: NetworkParams, inputs: np.ndarray, targets: np.ndarray,
                 config: TrainConfig, rng: np.random.Generator,
                 adam: AdamState | None = None):
    """Minibatch Adam on mean squared error; returns (params, per-epoch mean loss)."""
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if len(x) == 0:
        raise ValueError("empty dataset")
    if adam is None:
        adam = AdamState.for_params(params)
    history = []
    n = len(x)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            out, cache = forward_batch(params, x[idx])
            err = out - y[idx]
            loss = 0.5 * float((err * err).sum()) / len(idx)
            if not math.isfinite(loss):
                raise ArithmeticError(f"non-finite training loss {loss}")
            grads = backward_batch(params, cache, err / len(idx), config.l2_coefficient)
            adam_step(params, grads, adam, config.learning_rate)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return params, history


MODEL_FORMAT = "densenet-v1"


def to_dict(params: NetworkParams, digest: str | None = None) -> dict:
    out = {
        "format": MODEL_FORMAT,
        "layers": [
            {"input_size": s.input_size, "output_size": s.output_size,
             "activation": s.activation}
            for s in params.specs
        ],
        "standardizer": {
            "mean": params.standardizer.mean.tolist(),
            "std": params.standardizer.std.tolist(),
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    if digest is not None:
        out["digest"] = digest
    return out


def from_dict(data: dict) -> NetworkParams:
    if data.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    specs = tuple(
        LayerSpec(layer["input_size"], layer["output_size"], layer["activation"])
        for layer in data["layers"]
    )
    return NetworkParams(
        specs=specs,
        weights=[np.array(w, dtype=float) for w in data["weights"]],
        biases=[np.array(b, dtype=float) for b in data["biases"]],
        standardizer=Standardizer(
            mean=np.array(data["standardizer"]["mean"], dtype=float),
            std=np.array(data["standardizer"]["std"], dtype=float),
        ),
    )


def save_model(params: NetworkParams, path, digest: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(to_dict(params, digest), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> NetworkParams:
    with open(path, encoding="utf-8") as f:
        return from_dict(json.load(f))
