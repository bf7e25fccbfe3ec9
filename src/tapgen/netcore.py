"""Dense softmax classifiers with hand-rolled training and input gradients.

The networks here are small feed-forward stacks (ReLU hidden layers, softmax
head) trained with ADAM and cross-entropy on standardized features.  Training
is written out explicitly rather than delegated to an autodiff framework
because downstream code needs two things frameworks make awkward: exact
input-space gradients J^T u for arbitrary upstream vectors u, and bit-for-bit
reproducibility from a seed, including across save/load round trips.

All randomness (splits, init, batch order, dropout masks) comes from named
sub-streams of the one training seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .documents import _numbers_only, read_document, write_document
from .rng import substream

__all__ = [
    "TrainConfig",
    "DenseClassifier",
    "ForwardCache",
    "train_classifier",
    "fit_temperature",
    "predict_proba",
    "predict_proba_batch",
    "predict_logits",
    "forward_cache",
    "forward_cache_batch",
    "input_gradient",
    "input_gradient_batch",
    "logit_input_gradient",
    "logit_input_gradient_batch",
    "ece",
    "ece_from_probs",
    "save_model",
    "load_model",
]

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < math.inf:     # NaN fails too
            raise ValueError("learning_rate must be finite and positive")
        if self.patience < 0:
            raise ValueError("patience must be nonnegative")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("invalid training hyperparameters")
        if len(self.split) != 3 or not all(s >= 0 for s in self.split):
            raise ValueError("split must be three non-negative fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.split[0] <= 0:
            raise ValueError("train fraction must be positive")


@dataclass
class DenseClassifier:
    """Weights plus the standardizer that maps raw features to net inputs.

    ``temperature`` divides the logits before the softmax head.  It defaults
    to 1 and is set by :func:`fit_temperature` so that predicted probabilities
    are calibrated; raw logits (``predict_logits``, ``ForwardCache.logits``)
    are never rescaled, so margin-based code sees the untouched scores.
    """

    layer_dims: tuple[int, ...]          # input, hidden..., output
    weights: list[np.ndarray]            # weights[l]: (out, in)
    biases: list[np.ndarray]
    mean: np.ndarray
    std: np.ndarray
    dropout_rate: float = 0.0
    temperature: float = 1.0
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_features(self) -> int:
        return self.layer_dims[0]


@dataclass
class ForwardCache:
    """Intermediate activations of one forward pass, for reuse in backprop."""

    x_std: np.ndarray
    pre: list[np.ndarray]      # pre-activation of each hidden layer
    act: list[np.ndarray]      # post-ReLU activations (act[0] is the input)
    logits: np.ndarray
    probs: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _standardize(model: DenseClassifier, x: np.ndarray) -> np.ndarray:
    return (x - model.mean) / model.std


def _forward_batch(weights, biases, x_std: np.ndarray, masks=()):
    """Pre-activations, activations and logits of the ReLU stack; in
    training, ``masks`` scales each hidden activation by its dropout mask."""
    acts = [x_std]
    pres = []
    h = x_std
    for layer, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        z = h @ w.T + b
        pres.append(z)
        h = np.maximum(z, 0.0)
        if masks:
            h = h * masks[layer]
        acts.append(h)
    logits = h @ weights[-1].T + biases[-1]
    return pres, acts, logits


def _row(model: DenseClassifier, x: np.ndarray) -> np.ndarray:
    """x as one feature vector of the model, or a ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.num_features,):
        raise ValueError(
            f"expected {model.num_features} features, got shape {x.shape}"
        )
    return x


def _map_cache(cache: ForwardCache, f) -> ForwardCache:
    """The cache with f applied to each of its arrays."""
    return ForwardCache(f(cache.x_std), [f(z) for z in cache.pre],
                        [f(a) for a in cache.act], f(cache.logits),
                        f(cache.probs))


def forward_cache(model: DenseClassifier, x: np.ndarray) -> ForwardCache:
    """One-row view of :func:`forward_cache_batch`."""
    batch = forward_cache_batch(model, _row(model, x)[None, :])
    return _map_cache(batch, lambda a: a[0])


def forward_cache_batch(model: DenseClassifier, x: np.ndarray) -> ForwardCache:
    """The forward pass for every row of an (n, d) matrix at once.  The
    products are stacked matrix-vector products, so each row rounds exactly
    as it does alone and no row depends on the others in the batch."""
    xs = _standardize(model, np.asarray(x, dtype=float))
    pres, acts, logits = _forward_batch(model.weights, model.biases,
                                        xs[:, None, :])
    logits = logits[:, 0]
    return ForwardCache(xs, [z[:, 0] for z in pres], [a[:, 0] for a in acts],
                        logits, _softmax(logits / model.temperature))


def predict_proba(model: DenseClassifier, x: np.ndarray) -> np.ndarray:
    return forward_cache(model, x).probs


def predict_proba_batch(model: DenseClassifier, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.num_features:
        raise ValueError("expected (n, d) feature matrix matching the model")
    return forward_cache_batch(model, x).probs


def predict_logits(model: DenseClassifier, x: np.ndarray) -> np.ndarray:
    """Pre-softmax scores; used by margin-based attack objectives."""
    return forward_cache(model, x).logits


def input_gradient(model: DenseClassifier, x: np.ndarray,
                   upstream: np.ndarray,
                   cache: ForwardCache | None = None) -> np.ndarray:
    """J^T upstream, where J is the Jacobian of predict_proba at x; a
    one-row view of :func:`input_gradient_batch`."""
    return _row_gradient(input_gradient_batch, model, x, upstream, cache)


def _row_gradient(batch_gradient, model, x, upstream, cache) -> np.ndarray:
    """One-row call of a batched input gradient, checking the upstream."""
    cache = forward_cache(model, x) if cache is None else cache
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (model.num_classes,):
        raise ValueError("upstream vector must have one entry per class")
    return batch_gradient(model, _map_cache(cache, lambda a: a[None]),
                          upstream[None, :])[0]


def input_gradient_batch(model: DenseClassifier, cache: ForwardCache,
                         upstream: np.ndarray) -> np.ndarray:
    """Row-wise J^T upstream for a cache from :func:`forward_cache_batch`;
    each row rounds exactly as it does alone."""
    s = cache.probs
    agree = (s[:, None, :] @ upstream[:, :, None])[:, 0]
    return logit_input_gradient_batch(
        model, cache, s * (upstream - agree) / model.temperature)


def logit_input_gradient_batch(model: DenseClassifier, cache: ForwardCache,
                               upstream: np.ndarray) -> np.ndarray:
    """Row-wise J^T upstream for the pre-softmax logits, for a cache from
    :func:`forward_cache_batch`; each row rounds exactly as it does alone."""
    g = model.weights[-1].T @ upstream[:, :, None]
    for w, pre in zip(reversed(model.weights[:-1]), reversed(cache.pre)):
        g = w.T @ (g * (pre > 0.0)[:, :, None])
    return g[:, :, 0] / model.std


def logit_input_gradient(model: DenseClassifier, x: np.ndarray,
                         upstream: np.ndarray,
                         cache: ForwardCache | None = None) -> np.ndarray:
    """Same as :func:`input_gradient` but for the pre-softmax logits; a
    one-row view of :func:`logit_input_gradient_batch`."""
    return _row_gradient(logit_input_gradient_batch, model, x, upstream, cache)


# ---------------------------------------------------------------------------
# training


def _init_params(layer_dims, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _unflatten(flat: np.ndarray, layer_dims) -> tuple[list, list]:
    """(weights, biases) as C-contiguous views into one flat buffer that
    holds every weight matrix, then every bias vector."""
    pairs = list(zip(layer_dims[:-1], layer_dims[1:]))
    ends = np.cumsum([o * i for i, o in pairs] + [o for _, o in pairs])
    parts = np.split(flat, ends[:-1])
    return ([p.reshape(o, i) for p, (i, o) in zip(parts, pairs)],
            parts[len(pairs):])


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, _PROB_FLOOR))))


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    if labels.size == 0:
        return float("nan")
    return float(np.mean(probs.argmax(axis=1) == labels))


def _split_indices(n: int, split, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(round(n * split[0]))
    n_val = int(round(n * split[1]))
    n_train = min(max(n_train, 1), n)
    n_val = min(n_val, n - n_train)
    return order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]


def train_classifier(x: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
                     hidden_dims=(60, 60, 60), dropout_rate: float = 0.0,
                     num_classes: int | None = None) -> DenseClassifier:
    """Train a softmax net on (x, labels) with an internal train/val/test split.

    Labels must be integers 0..k-1; every class must occur in the train split.
    Early stopping watches validation cross-entropy and the returned weights
    are the best validation snapshot, never a later, worse one.

    Training keeps every parameter in one flat buffer, of which the weights
    and biases are views.  Each minibatch writes its gradient into one flat
    buffer and takes one ADAM step over the whole of it; a new best snapshot
    is one copy.  The returned weights are views into the snapshot (into the
    final buffer when there is no validation split).
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ValueError("expected (n, d) features with n labels")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    k = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    if k < 2:
        raise ValueError("need at least two classes")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels out of range")
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError("dropout rate must lie in [0, 1)")

    idx_train, idx_val, idx_test = _split_indices(
        x.shape[0], cfg.split, substream(cfg.seed, "split")
    )
    present = np.unique(labels[idx_train])
    if present.size != k:
        missing = sorted(set(range(k)) - set(int(c) for c in present))
        raise ValueError(f"classes {missing} are absent from the train split")

    x_train, y_train = x[idx_train], labels[idx_train]
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std = np.where(std <= 0.0, 1.0, std)

    splits = {"train": idx_train, "val": idx_val, "test": idx_test}
    xs = {name: (x[idx] - mean) / std for name, idx in splits.items()}

    layer_dims = (x.shape[1], *hidden_dims, k)
    weights, biases = _init_params(layer_dims, substream(cfg.seed, "init"))
    theta = np.concatenate([p.ravel() for p in (*weights, *biases)])
    weights, biases = _unflatten(theta, layer_dims)   # updated in place
    grad = np.empty_like(theta)
    grad_w, grad_b = _unflatten(grad, layer_dims)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    denom, delta = np.empty_like(theta), np.empty_like(theta)
    step = 0

    batch_rng = substream(cfg.seed, "batches")
    drop_rng = substream(cfg.seed, "dropout")
    n_train = x_train.shape[0]
    keep = 1.0 - dropout_rate
    depth = len(weights)

    best_val = math.inf
    best = theta.copy()
    best_epoch = 0
    stall = 0
    val_history: list[float] = []
    epochs_run = 0

    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        order = batch_rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            yb = y_train[batch]
            masks = [(drop_rng.random((yb.size, w.shape[0])) < keep) / keep
                     for w in weights[:-1]] if dropout_rate > 0.0 else []
            pres, acts, logits = _forward_batch(weights, biases,
                                                xs["train"][batch], masks)

            g = _softmax(logits)
            g[np.arange(yb.size), yb] -= 1.0
            g /= yb.size

            for layer in range(depth - 1, -1, -1):
                np.matmul(g.T, acts[layer], out=grad_w[layer])
                g.sum(axis=0, out=grad_b[layer])
                if layer > 0:
                    g = g @ weights[layer]
                    if masks:
                        g = g * masks[layer - 1]
                    g = g * (pres[layer - 1] > 0.0)

            # theta -= lr * (m / c1) / (sqrt(v / c2) + eps) after
            # m = b1 m + (1 - b1) grad and v = b2 v + (1 - b2) grad**2, in
            # scratch buffers; every element rounds as in a per-array update
            step += 1
            m *= _ADAM_B1
            m += np.multiply(grad, 1 - _ADAM_B1, out=delta)
            v *= _ADAM_B2
            v += np.multiply(np.square(grad, out=delta), 1 - _ADAM_B2,
                             out=delta)
            np.divide(v, 1.0 - _ADAM_B2 ** step, out=denom)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            np.divide(m, 1.0 - _ADAM_B1 ** step, out=delta)
            delta *= cfg.learning_rate
            delta /= denom
            theta -= delta

        if idx_val.size:
            _, _, val_logits = _forward_batch(weights, biases, xs["val"])
            val_loss = _cross_entropy(_softmax(val_logits), labels[idx_val])
            val_history.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best[:] = theta
                best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall > cfg.patience:
                    break

    if idx_val.size:
        weights, biases = _unflatten(best, layer_dims)
    else:
        best_epoch = epochs_run
        best_val = float("nan")

    metadata = {
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "val_loss_history": val_history,
        "split_sizes": [int(idx.size) for idx in splits.values()],
        "split_indices": {name: [int(i) for i in idx]
                          for name, idx in splits.items()},
    }
    for name, idx in splits.items():
        _, _, logits = _forward_batch(weights, biases, xs[name])
        metadata[f"{name}_accuracy"] = _accuracy(_softmax(logits), labels[idx])
    return DenseClassifier(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        mean=mean,
        std=std,
        dropout_rate=float(dropout_rate),
        seed=cfg.seed,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# calibration


def fit_temperature(model: DenseClassifier, x: np.ndarray,
                    labels: np.ndarray) -> DenseClassifier:
    """Return a copy of the model with its softmax temperature fit on (x, labels).

    Minimizes held-out cross-entropy over the inverse temperature by ternary
    search; the objective is convex in the inverse temperature, so the search
    is exact to the tolerance.  Weights are untouched, and the argmax (hence
    accuracy) is invariant, only the confidence scale moves.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ValueError("expected (n, d) features with n labels")
    if labels.size == 0:
        raise ValueError("need at least one labelled point to fit temperature")
    xs = _standardize(model, x)
    _, _, logits = _forward_batch(model.weights, model.biases, xs)

    def nll(beta: float) -> float:
        return _cross_entropy(_softmax(logits * beta), labels)

    lo, hi = 1.0 / 50.0, 50.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if nll(m1) <= nll(m2):
            hi = m2
        else:
            lo = m1
    beta = (lo + hi) / 2.0
    fitted = replace(model, temperature=float(1.0 / beta),
                     metadata=dict(model.metadata))
    fitted.metadata["temperature_fit"] = {
        "points": int(labels.size),
        "nll_before": nll(1.0),
        "nll_after": nll(beta),
    }
    return fitted


# ---------------------------------------------------------------------------
# calibration error


def ece_from_probs(probs: np.ndarray, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins.

    Confidence is the top predicted probability; each prediction falls in the
    bin ((i-1)/bins, i/bins] (confidence 0 goes to the first bin) and the
    result is the prediction-weighted mean |accuracy - confidence| gap.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError("expected (n, k) probabilities with n labels")
    if bins < 1:
        raise ValueError("need at least one bin")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    n = labels.size
    total = 0.0
    for b in range(bins):
        members = idx == b
        count = int(members.sum())
        if count == 0:
            continue
        gap = abs(float(correct[members].mean()) - float(conf[members].mean()))
        total += count / n * gap
    return total


def ece(model: DenseClassifier, x: np.ndarray, labels: np.ndarray,
        bins: int = 15) -> float:
    return ece_from_probs(predict_proba_batch(model, x), labels, bins)


# ---------------------------------------------------------------------------
# persistence: self-describing text, exact float round trip


def save_model(model: DenseClassifier, path) -> None:
    write_document(path, "dense-softmax-classifier", {
        "layer_dims": list(model.layer_dims),
        "dropout_rate": model.dropout_rate,
        "temperature": model.temperature,
        "seed": model.seed,
        "standardizer": {"mean": model.mean.tolist(), "std": model.std.tolist()},
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "metadata": model.metadata,
    })


def _shape_problem(model: DenseClassifier) -> str | None:
    dims = model.layer_dims
    if len(dims) < 2 or min(dims) < 1:
        return f"layer_dims {list(dims)} must list at least two positive sizes"
    pairs = list(zip(dims[:-1], dims[1:]))
    if ([w.shape for w in model.weights] != [(o, i) for i, o in pairs]
            or [b.shape for b in model.biases] != [(o,) for _, o in pairs]):
        return f"weight or bias shapes do not match layer_dims {list(dims)}"
    if model.mean.shape != (dims[0],) or model.std.shape != (dims[0],):
        return f"standardizer length does not match {dims[0]} inputs"
    values = [*model.weights, *model.biases, model.mean, model.std,
              np.array([model.temperature])]
    if not all(np.all(np.isfinite(v)) for v in values):
        return "parameters must be finite"
    if np.any(model.std <= 0.0) or model.temperature <= 0.0:
        return "standardizer std and temperature must be positive"
    return None


def load_model(path) -> DenseClassifier:
    """Read a saved model; a malformed file raises ValueError."""
    path = Path(path)
    payload = read_document(path, "model", "dense-softmax-classifier")
    try:
        model = DenseClassifier(
            layer_dims=tuple(int(v) for v in payload["layer_dims"]),
            weights=[np.array(w, dtype=float) for w in payload["weights"]],
            biases=[np.array(b, dtype=float) for b in payload["biases"]],
            mean=np.array(payload["standardizer"]["mean"], dtype=float),
            std=np.array(payload["standardizer"]["std"], dtype=float),
            dropout_rate=float(payload["dropout_rate"]),
            temperature=float(payload.get("temperature", 1.0)),
            seed=int(payload["seed"]),
            metadata=payload["metadata"],
        )
        if not isinstance(model.metadata, dict):
            raise TypeError("metadata is not an object")
        if not _numbers_only([payload[k] for k in (
                "layer_dims", "weights", "biases", "dropout_rate", "seed")]
                + [payload["standardizer"], payload.get("temperature", 1.0)]):
            raise TypeError("a value that must be a number is not one")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model file {path} is malformed: {exc!r}") from None
    problem = _shape_problem(model)
    if problem is not None:
        raise ValueError(f"model file {path}: {problem}")
    return model
