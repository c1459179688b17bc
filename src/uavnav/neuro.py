"""Small dense feedforward stack with manual backprop, Adam, standardization,
and the ring the training sets are kept in.

Shared by the state-value network (ReLU hidden, tanh scalar output) and the
SINR-map regressor (ReLU hidden, linear output).  Everything is plain numpy;
weights are (fan_in, fan_out) matrices so a batch forward is X @ W + b.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

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


def _pack(weights, biases):
    """One contiguous float vector of every layer's weights then biases, and views into it.

    Returns (flat, weight views, bias views); the arrays passed in are copied.
    """
    parts = [np.asarray(a, dtype=float) for w, b in zip(weights, biases) for a in (w, b)]
    flat = np.concatenate([a.ravel() for a in parts])
    return (flat, *_views(flat, parts[0::2], parts[1::2]))


def _views(flat, weights, biases):
    """Views of flat in the layout _pack gives these weights and biases: (weights, biases)."""
    views, at = [], 0
    for a in (a for w, b in zip(weights, biases) for a in (w, b)):
        views.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return tuple(views[0::2]), tuple(views[1::2])


@dataclass
class NetworkParams:
    """Layer weights and biases, held as views into one flat vector.

    The constructor copies the given arrays into `flat`; `weights` and
    `biases` are tuples of views into it, so an in-place edit of a layer is
    an edit of `flat` and a layer cannot be swapped out from under Adam.
    """

    specs: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    standardizer: Standardizer
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.specs = tuple(self.specs)
        if len(self.weights) != len(self.specs) or len(self.biases) != len(self.specs):
            raise ValueError("need one weight matrix and one bias vector per layer")
        for i, spec in enumerate(self.specs):
            if np.shape(self.weights[i]) != (spec.input_size, spec.output_size):
                raise ValueError(f"layer {i} weight shape {np.shape(self.weights[i])} mismatch")
            if np.shape(self.biases[i]) != (spec.output_size,):
                raise ValueError(f"layer {i} bias shape {np.shape(self.biases[i])} mismatch")
            if i > 0 and spec.input_size != self.specs[i - 1].output_size:
                raise ValueError(f"layer {i} input does not chain from layer {i - 1}")
        if len(self.standardizer.mean) != self.specs[0].input_size:
            raise ValueError("standardizer length does not match input layer")
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)
        if not np.isfinite(self.flat).all():
            raise ValueError("non-finite parameters")

    @property
    def input_size(self) -> int:
        return self.specs[0].input_size

    @property
    def output_size(self) -> int:
        return self.specs[-1].output_size


def flush_subnormals(*arrays: np.ndarray) -> None:
    """Set every subnormal entry of the given float arrays to 0.0, in place.

    Training under L2 with Adam leaves the weights of dead units decaying into
    the subnormal range, and x86 takes a slow microcode path for every
    subnormal operand, so a small batch forward on a desk-trained value net
    runs about 9x slower than on the same net with those weights at zero.  A
    subnormal term lies far below the last bit of any normal-sized sum it
    joins, so the outputs stay bit-identical as long as each output unit's sum
    has a normal-sized term, such as its bias; only a unit whose whole input
    is subnormal changes, from a subnormal value to 0.  Zeros keep their sign.
    """
    tiny = np.finfo(float).tiny
    for a in arrays:
        a[(a != 0.0) & (np.abs(a) < tiny)] = 0.0


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


def _check_input(params: NetworkParams, x: np.ndarray) -> None:
    if x.shape[-1] != params.input_size:
        raise ValueError(f"input length {x.shape[-1]}, expected {params.input_size}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")


def _out(bufs, name: str, i: int):
    """Layer i's buffer `name` from a MinibatchStep's buffers, or None (allocate)."""
    return None if bufs is None else bufs[name][i]


def _forward(params: NetworkParams, a: np.ndarray, bufs=None) -> list[np.ndarray]:
    """The layers on standardized input a; returns every layer's output, a first.

    The one forward implementation: forward_batch passes no buffers and gets
    fresh arrays, a MinibatchStep passes its own and gets the same bits.
    Each activation overwrites its pre-activation, which backward does not
    need: a ReLU output is > 0 exactly where its input is.
    """
    activations = [a]
    for i, (spec, w, b) in enumerate(zip(params.specs, params.weights, params.biases)):
        # A stacked matmul makes one GEMM per B-row slice.  BLAS kernels round
        # a row differently depending on where it falls in their row blocks,
        # so a slice gives the same bits as a (B, in) call on its own, while
        # one flat (S*B, in) product would not.
        a = np.matmul(a, w, out=_out(bufs, "a", i))
        a += b
        if spec.activation == "relu":
            np.maximum(a, 0.0, out=a)
        elif spec.activation == "tanh":
            np.tanh(a, out=a)
        activations.append(a)
    return activations


def _backward(params: NetworkParams, activations, dout, l2, grads_w, grads_b, decay,
              bufs=None) -> None:
    """Exact gradients of (loss + l2/2 * ||W||^2) given dLoss/doutput, written into
    grads_w and grads_b; decay holds l2 * W.  Biases are unregularized.

    With buffers, each layer's dLoss/dz overwrites its dLoss/doutput, which
    is then always a buffer of the step's own.
    """
    da = dout
    for i in range(len(params.specs) - 1, -1, -1):
        kind, out = params.specs[i].activation, activations[i + 1]
        dz_out = None if bufs is None else da
        if kind == "relu":  # a float times the mask gives the same bits as times 1.0/0.0
            dz = np.multiply(da, np.greater(out, 0.0, out=_out(bufs, "g", i)), out=dz_out)
        elif kind == "tanh":  # out is tanh of the pre-activation
            g = np.multiply(out, out, out=_out(bufs, "g", i))
            dz = np.multiply(da, np.subtract(1.0, g, out=g), out=dz_out)
        else:
            dz = da  # times a derivative of 1.0, which keeps every bit
        gw = np.matmul(activations[i].T, dz, out=grads_w[i])
        gw += np.multiply(l2, params.weights[i], out=decay[i])
        np.add.reduce(dz, axis=0, out=grads_b[i])  # dz.sum(axis=0)
        if i > 0:
            da = np.matmul(dz, params.weights[i].T, out=_out(bufs, "da", i))


def forward_batch(params: NetworkParams, x: np.ndarray):
    """Batched forward pass of (B, in) or stacked (S, B, in) input.

    Returns (outputs (B, out) or (S, B, out), cache for backward).
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    _check_input(params, x)
    cache = _forward(params, params.standardizer.apply(x))
    return (cache[-1][0] if squeeze else cache[-1]), cache


def backward_batch(params: NetworkParams, cache, output_gradient: np.ndarray, l2: float = 0.0):
    """Exact gradients of (loss + l2/2 * ||W||^2) given dLoss/doutput; biases unregularized.

    Returns (weight gradients, bias gradients), views into one flat vector
    laid out like params.flat.
    """
    dout = np.asarray(output_gradient, dtype=float)
    if dout.ndim == 1:
        dout = dout[None, :]
    if dout.shape != cache[-1].shape:
        raise ValueError(f"output gradient shape {dout.shape} does not match cache "
                         f"{cache[-1].shape}")
    grads_w, grads_b = _views(np.empty_like(params.flat), params.weights, params.biases)
    decay, _ = _views(np.empty_like(params.flat), params.weights, params.biases)
    _backward(params, cache, dout, l2, grads_w, grads_b, decay)
    return grads_w, grads_b


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments m and v, flat vectors in the layout of params.flat, and its step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def for_params(params: NetworkParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _adam(value: np.ndarray, grad: np.ndarray, state: AdamState, lr: float,
          t1: np.ndarray | None = None, t2: np.ndarray | None = None) -> None:
    """Bias-corrected Adam, in place on the flat vectors value, state.m and state.v.

    The elementwise operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
    and value -= lr * (m/corr1) / (sqrt(v/corr2) + eps), in that order, with
    the temporaries in the scratch vectors t1 and t2 when given.
    """
    m, v = state.m, state.v
    if not grad.shape == m.shape == v.shape == value.shape:
        raise ValueError(f"gradient {grad.shape} or Adam state {m.shape}/{v.shape} does not "
                         f"match parameters {value.shape}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    m *= b1
    t1 = np.multiply(1.0 - b1, grad, out=t1)
    m += t1
    v *= b2
    np.multiply(1.0 - b2, grad, out=t1)
    t1 *= grad
    v += t1
    np.divide(m, corr1, out=t1)
    t1 *= lr
    t2 = np.divide(v, corr2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += ADAM_EPS
    t1 /= t2
    value -= t1


def adam_step(params: NetworkParams, grads, state: AdamState, lr: float) -> NetworkParams:
    """Standard bias-corrected Adam update, in place on params and state."""
    grads_w, grads_b = grads
    grad = np.concatenate([g.ravel() for gw, gb in zip(grads_w, grads_b) for g in (gw, gb)])
    _adam(params.flat, grad, state, lr)
    return params


class MinibatchStep:
    """Minibatch Adam steps on mean squared error for one network.

    Runs the operations of forward_batch, backward_batch and adam_step in
    their order, so it gives their bits, but into buffers kept per batch size
    (the standardized input, every layer's intermediates, the flat gradient,
    Adam's scratch vectors), so a step allocates almost nothing.  The caller
    checks the input.
    """

    def __init__(self, params: NetworkParams, adam: AdamState):
        self.params, self.adam = params, adam
        grad = np.empty_like(params.flat)
        self._grad, self._scratch = grad, (np.empty_like(grad), np.empty_like(grad))
        self._grads = _views(grad, params.weights, params.biases)
        self._decay, _ = _views(self._scratch[0], params.weights, params.biases)
        self._full: dict = {"x": np.empty((0, params.input_size))}
        self._cut: dict[int, dict] = {}

    def buffers(self, rows: int) -> dict:
        """The buffers for a batch of `rows` rows: views of one set sized for the
        largest batch yet.  "x" can take the caller's minibatch."""
        if rows > len(self._full["x"]):
            def new(width, dtype=float):
                return np.empty((rows, width), dtype=dtype)

            specs = self.params.specs
            self._full = {
                "x": new(self.params.input_size), "err": new(self.params.output_size),
                "a": [new(s.output_size) for s in specs],
                "g": [new(s.output_size, bool if s.activation == "relu" else float)
                      for s in specs],
                "da": [new(s.input_size) for s in specs],
            }
            self._cut = {}
        if rows not in self._cut:
            self._cut[rows] = {k: v[:rows] if isinstance(v, np.ndarray) else [b[:rows] for b in v]
                               for k, v in self._full.items()}
        return self._cut[rows]

    def __call__(self, x: np.ndarray, y: np.ndarray, l2: float, lr: float) -> float:
        """One Adam step on rows x (B, in) and targets y (B, out); returns the loss.

        x is standardized into buffers(B)["x"], which x may itself be.  A
        non-finite loss raises ArithmeticError before any parameter changes.
        """
        n = len(x)
        bufs = self.buffers(n)
        a = np.subtract(x, self.params.standardizer.mean, out=bufs["x"])
        a /= self.params.standardizer.std
        activations = _forward(self.params, a, bufs)
        err = np.subtract(activations[-1], y, out=bufs["err"])
        loss = 0.5 * float((err * err).sum()) / n
        if not math.isfinite(loss):
            raise ArithmeticError(f"non-finite training loss {loss}")
        err /= n
        _backward(self.params, activations, err, l2, *self._grads, self._decay, bufs)
        _adam(self.params.flat, self._grad, self.adam, lr, *self._scratch)
        return loss


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
                 adam: AdamState | None = None,
                 after_epoch: Callable[[], None] | None = None):
    """Minibatch Adam on mean squared error; returns (params, per-epoch mean loss).

    The inputs are checked once; each minibatch is gathered into one
    MinibatchStep, which standardizes it in place.  after_epoch, if given, is
    called once at the end of every epoch.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if len(x) == 0:
        raise ValueError("empty dataset")
    if x.ndim != 2 or len(y) != len(x):
        raise ValueError(f"inputs {x.shape} and targets {y.shape} do not pair up row by row")
    _check_input(params, x)
    if adam is None:
        adam = AdamState.for_params(params)
    step = MinibatchStep(params, adam)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x))
        losses = []
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            # "clip" never clips a permutation's indices; it lets take write into out unbuffered.
            xb = x.take(idx, axis=0, out=step.buffers(len(idx))["x"], mode="clip")
            losses.append(step(xb, y[idx], config.l2_coefficient, config.learning_rate))
        history.append(float(np.mean(losses)))
        if after_epoch is not None:
            after_epoch()
    return params, history


class RowRing:
    """FIFO ring of entries, each a float row plus `columns` scalars; at capacity
    a new entry drops the oldest.

    Rows and scalars sit in two arrays that share one ring index, so a read
    that does not wrap round is a pair of contiguous views.  Storage starts
    at the first batch's size and doubles up to capacity.  Reads are oldest
    first.  Each extend checks its batch once: one row width throughout and
    every value finite.
    """

    def __init__(self, capacity: int, columns: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.columns = capacity, columns
        self._rows, self._cols = np.empty((0, 0)), np.empty((0, columns))
        self._start = self._len = 0  # the oldest entry's storage index; entries held

    def __len__(self) -> int:
        return self._len

    def extend(self, rows, *columns) -> None:
        """Append rows (N, F) and, per column, N scalars; oldest first."""
        rows = np.asarray(rows, dtype=float)
        if len(rows) == 0:
            return
        cols = np.column_stack(columns).astype(float) if columns else np.empty((len(rows), 0))
        if rows.ndim != 2 or cols.shape != (len(rows), self.columns) or (
                self._len and rows.shape[1] != self._rows.shape[1]):
            raise ValueError(f"rows {rows.shape} and columns {cols.shape} do not fit a ring "
                             f"of rows {self._rows.shape[1:]} and {self.columns} columns")
        if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
            raise ValueError("non-finite row or column value")
        rows, cols = rows[-self.capacity:], cols[-self.capacity:]
        n = len(rows)
        size = self._reserve(min(self._len + n, self.capacity), rows.shape[1])
        first = (self._start + self._len) % size
        fits = min(n, size - first)
        for store, new in ((self._rows, rows), (self._cols, cols)):
            store[first:first + fits] = new[:fits]
            store[:n - fits] = new[fits:]  # the rest wraps round to the start
        dropped = max(self._len + n - size, 0)  # only once storage is at capacity
        self._start = (self._start + dropped) % size
        self._len += n - dropped

    def _reserve(self, needed: int, width: int) -> int:
        """Grow storage to hold `needed` entries, doubling.

        Entries wrap round only once storage is at capacity, after which it
        never grows, so the entries to move sit at the front, oldest first.
        """
        size = len(self._rows)
        if needed > size or width != self._rows.shape[1]:
            size = max(needed, min(2 * size, self.capacity))
            rows, cols = np.empty((size, width)), np.empty((size, self.columns))
            if self._len:
                rows[:self._len], cols[:self._len] = self._rows[:self._len], self._cols[:self._len]
            self._rows, self._cols = rows, cols
        return size

    def _index(self, idx) -> np.ndarray:
        """Storage indices of oldest-first positions."""
        return (np.asarray(idx) + self._start) % max(len(self._rows), 1)

    def gather(self, idx):
        """Copies of the entries at oldest-first positions idx: (rows, *columns)."""
        at = self._index(idx)
        return (self._rows[at], *self._cols[at].T)

    def arrays(self):
        """Every entry, oldest first: (rows, *columns).

        Unless the entries wrap round, these are read-only views of the
        storage, which a later extend or keep overwrites; copy to keep them.
        """
        if self._start + self._len > len(self._rows):
            return self.gather(np.arange(self._len))
        rows, cols = (a[self._start:self._start + self._len] for a in (self._rows, self._cols))
        rows.flags.writeable = cols.flags.writeable = False
        return (rows, *cols.T)

    def keep(self, mask) -> int:
        """Keep only the entries where the oldest-first mask is True; returns how many went."""
        at = self._index(np.flatnonzero(mask))
        self._rows[:len(at)], self._cols[:len(at)] = self._rows[at], self._cols[at]
        removed, self._start, self._len = self._len - len(at), 0, len(at)
        return removed


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
    """The network a to_dict mapping describes, its subnormals set to 0 as
    training keeps them (flush_subnormals); older saved models still hold them."""
    if data.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    specs = tuple(
        LayerSpec(layer["input_size"], layer["output_size"], layer["activation"])
        for layer in data["layers"]
    )
    params = NetworkParams(
        specs=specs,
        weights=[np.array(w, dtype=float) for w in data["weights"]],
        biases=[np.array(b, dtype=float) for b in data["biases"]],
        standardizer=Standardizer(
            mean=np.array(data["standardizer"]["mean"], dtype=float),
            std=np.array(data["standardizer"]["std"], dtype=float),
        ),
    )
    flush_subnormals(params.flat)
    return params


def save_model(params: NetworkParams, path, digest: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(to_dict(params, digest), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> NetworkParams:
    with open(path, encoding="utf-8") as f:
        return from_dict(json.load(f))
