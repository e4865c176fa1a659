"""Dense networks with hand-derived reverse-mode gradients.

The model zoo in this package is small and fixed (coupling subnets, a cost
net, a policy net), so gradients are written out per layer instead of going
through a general tape.  Hidden layers are relu and outputs identity; the
policy's softmax is applied outside its net.  Everything is float64; the
finite-difference oracle in this module is the reference every analytic
gradient is checked against.

A net built by `dense_net` keeps all its parameters in one flat float64
store, and each layer's weight and bias is a view into it (`carve`).  Layers
may carry leading axes that stack same-shape member nets, run as one batched
matmul chain; `net_from` builds such a net on views carved from a store, and
`member_net` views one member.  An `Adam` bound to arrays that tile such a
store back to back steps the whole store with one subtraction.  Read-only
sharing across workers is safe; `Adam.step` mutates in place and needs
exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CheckpointError, NumericError, ShapeError

ACTIVATIONS = ("relu", "identity")


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Uniform init in [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))


def glorot_fill(rng: np.random.Generator, weights: Sequence[np.ndarray],
                zero_final: bool = False) -> None:
    """Draw Glorot values into each (out, in) weight in order.  With `zero_final`
    the last draw is still made, keeping the stream, but the last weight is left
    as it is (zero in a fresh store)."""
    for i, w in enumerate(weights):
        drawn = glorot_uniform(rng, *w.shape)
        if not (zero_final and i == len(weights) - 1):
            w[...] = drawn


def carve(store: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the flat `store`, one per shape, filling it exactly."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(store[start:stop].reshape(shape))
        start = stop
    if start != store.size:
        raise ShapeError(f"shapes hold {start} values, the store {store.size}")
    return views


def flat_store(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """The flat float64 vector that `arrays` tile back to back, in order, as one
    view of their common base; None when they do not."""
    if not arrays:
        return None
    root = arrays[0] if arrays[0].base is None else arrays[0].base
    if not (isinstance(root, np.ndarray) and root.ndim == 1 and root.dtype == np.float64
            and root.flags.writeable):
        return None
    start = stop = (arrays[0].ctypes.data - root.ctypes.data) // root.itemsize
    for a in arrays:
        if (a if a.base is None else a.base) is not root or not a.flags.c_contiguous \
                or a.ctypes.data != root.ctypes.data + stop * root.itemsize:
            return None
        stop += a.size
    return root[start:stop]


@dataclass
class DenseLayer:
    weight: np.ndarray  # (..., out, in); leading axes stack same-shape members
    bias: np.ndarray  # (..., out)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim < 2 or self.bias.shape != self.weight.shape[:-1]:
            raise ShapeError(f"weight {self.weight.shape} and bias {self.bias.shape} "
                             "are not (..., out, in) and (..., out)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class DenseNet:
    """An ordered stack of dense layers whose dimensions chain."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ShapeError("a DenseNet needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[:-1] != b.weight.shape[:-2] + b.weight.shape[-1:]:
                raise ShapeError(f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        """Live (name, array) pairs in a stable order: w then b per layer."""
        return [pair for i, layer in enumerate(self.layers) for pair in
                ((f"{prefix}l{i}.w", layer.weight), (f"{prefix}l{i}.b", layer.bias))]


def member_net(stacked: DenseNet, k: int) -> DenseNet:
    """Member k of a stacked net, as layers viewing slice k of its arrays.  The
    stack's layers passed their shape and chain checks, so the views skip them."""
    net = object.__new__(DenseNet)
    net.layers = [object.__new__(DenseLayer) for _ in stacked.layers]
    for view, layer in zip(net.layers, stacked.layers):
        view.weight, view.bias, view.activation = layer.weight[k], layer.bias[k], layer.activation
    return net


def dense_net(rng: np.random.Generator | None, dims: Sequence[int],
              zero_final: bool = False) -> DenseNet:
    """Build a net with the given layer widths, e.g. dims=(4, 32, 32, 2): relu
    hidden layers and an identity output, on one flat store holding w then b
    per layer.  Weights are Glorot draws and biases zero; with `rng` None every
    value is zero, the layout a checkpoint fills."""
    if len(dims) < 2:
        raise ShapeError("need at least an input and an output dimension")
    shapes = [s for d_in, d_out in zip(dims, dims[1:]) for s in ((d_out, d_in), (d_out,))]
    arrays = carve(np.zeros(sum(map(math.prod, shapes))), shapes)
    if rng is not None:
        glorot_fill(rng, arrays[::2], zero_final)
    return net_from(iter(arrays), ["relu"] * (len(dims) - 2) + ["identity"])


def net_from(arrays: Iterator[np.ndarray], activations: Sequence[str]) -> DenseNet:
    """A net whose layers take their weight, then their bias, from `arrays` in turn."""
    return DenseNet([DenseLayer(next(arrays), next(arrays), act) for act in activations])


def _forward_cached(net: DenseNet, x: np.ndarray):
    """Forward pass keeping each layer's input and output.  A stacked net
    broadcasts x of shape (..., N, in) against its leading axes.  Finiteness
    is checked once, at the output, which any NaN upstream reaches."""
    caches = []
    h = x
    for layer in net.layers:
        pre = h @ layer.weight.swapaxes(-1, -2)
        pre += layer.bias if layer.bias.ndim == 1 else layer.bias[..., None, :]
        out = np.maximum(pre, 0.0, out=pre) if layer.activation == "relu" else pre
        caches.append((h, out))
        h = out
    if not np.isfinite(h).all():
        raise NumericError("non-finite net output")
    return h, caches


def net_forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the net on a single input (in,) or a batch (N, in)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.in_dim:
        raise ShapeError(f"input length {x.shape[-1]} != net in_dim {net.in_dim}")
    out, _ = _forward_cached(net, x)
    return out


def net_backward(net: DenseNet, x: np.ndarray, upstream: np.ndarray, caches: list | None = None
                 ) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients for the scalar loss implied by `upstream`.

    Returns (param_grads, input_grad) where param_grads follows the order of
    ``net.parameters()`` (w then b per layer), summed over the batch rows of
    each stacked member.  `caches` are those of a `_forward_cached` pass on
    `x`; without them the forward pass is recomputed.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape[-1] != net.in_dim:
        raise ShapeError(f"input length {x.shape[-1]} != net in_dim {net.in_dim}")
    if caches is None:
        _, caches = _forward_cached(net, x)
    if upstream.shape != caches[-1][1].shape:
        raise ShapeError(f"upstream shape {upstream.shape} does not match output shape")
    grads: list[np.ndarray] = []
    delta = upstream
    lead = net.layers[0].weight.ndim - 2
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        h_in, out = caches[k]
        dpre = delta * (out > 0.0) if layer.activation == "relu" else delta
        rows = dpre.reshape(dpre.shape[:lead] + (-1, dpre.shape[-1]))  # per member
        grads.append(rows.sum(axis=-2))
        grads.append(rows.swapaxes(-1, -2)
                     @ h_in.reshape(h_in.shape[:lead] + (-1, h_in.shape[-1])))
        delta = dpre @ layer.weight
    grads.reverse()
    return grads, delta


def finite_diff_grad(loss_fn: Callable[[], float], params: Sequence[np.ndarray],
                     epsilon: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of `loss_fn` w.r.t. arrays mutated in place.

    `loss_fn` must be deterministic and must read the live arrays in `params`.
    This is the test oracle: it never shares code with the analytic backward
    passes it checks.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + epsilon
            hi = loss_fn()
            flat_p[i] = orig - epsilon
            lo = loss_fn()
            flat_p[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("loss became non-finite during finite differencing")
            flat_g[i] = (hi - lo) / (2.0 * epsilon)
        grads.append(g)
    return grads


class Adam:
    """Adaptive first-order optimizer with bias-corrected moments.

    It binds once to the (name, array) pairs of a `parameters()` call, and
    `step(grads)` updates those arrays in place: the gradients are
    concatenated into one preallocated flat buffer, and a few in-place ufuncs
    over it, the flat float64 moments and one scratch vector give the update,
    bit for bit the per-array textbook arithmetic.  Every trained object (a
    model, a lone flow, an IRL net) tiles its `parameters()` on one flat store
    (`flat_store`), and there the step ends in one subtraction from it; other
    arrays, such as a member flow's views, are updated one by one.  State
    dicts hold per-array moments and load only into arrays of the bound shapes.
    """

    def __init__(self, parameters: Sequence[tuple[str, np.ndarray]], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self._set_scalars(learning_rate, beta1, beta2, eps, 0, ValueError)
        self.names = [name for name, _ in parameters]
        self.params = [arr for _, arr in parameters]
        self.store = flat_store(self.params)
        self.offsets = np.cumsum([0] + [p.size for p in self.params])
        self._m, self._v, self._g = np.zeros((3, int(self.offsets[-1])))

    def _set_scalars(self, learning_rate, beta1, beta2, eps, step_count, error: type) -> None:
        """Set the hyperparameters and step count, or raise `error` for any out of range."""
        if not (0 < learning_rate < math.inf and 0 < beta1 < 1 and 0 < beta2 < 1
                and 0 < eps < math.inf):
            raise error("learning rate and eps must be positive and finite, and the decay "
                        "coefficients in (0, 1)")
        if not isinstance(step_count, int) or isinstance(step_count, bool) or step_count < 0:
            raise error(f"step count must be a non-negative integer, not {step_count!r}")
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.step_count = step_count

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[a:b].reshape(p.shape) for a, b, p in
                zip(self.offsets, self.offsets[1:], self.params)]

    def _check_fit(self, arrays: Sequence[np.ndarray], what: str, error: type) -> None:
        """Raise `error` unless `arrays` match the bound shapes, naming the first misfit."""
        if len(arrays) != len(self.params):
            raise error(f"{len(arrays)} {what}s for {len(self.params)} parameters")
        for name, p, a in zip(self.names, self.params, arrays):
            if a.shape != p.shape:
                raise error(f"{what} for {name} has shape {a.shape}, not {p.shape}")

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one in-place update.  Deterministic given inputs."""
        self._check_fit(grads, "gradient", ShapeError)
        g = self._g
        if grads:
            np.concatenate(grads, axis=None, out=g)
        s = np.empty_like(g)
        finite = np.isfinite(g)
        if not finite.all():
            slot = np.searchsorted(self.offsets, np.argmin(finite), side="right") - 1
            raise NumericError(f"non-finite gradient for {self.names[slot]}")
        self.step_count += 1
        t = self.step_count
        # m = beta1*m + (1-beta1)*g ; v = beta2*v + ((1-beta2)*g)*g
        self._m *= self.beta1
        self._m += np.multiply(g, 1.0 - self.beta1, out=s)
        self._v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        self._v += np.multiply(s, g, out=s)
        # g <- (lr*m_hat) / (sqrt(v_hat)+eps)
        np.sqrt(np.divide(self._v, 1.0 - self.beta2**t, out=s), out=s)
        s += self.eps
        np.divide(self._m, 1.0 - self.beta1**t, out=g)
        g *= self.learning_rate
        g /= s
        if self.store is not None:
            self.store -= g
        else:
            for p, update in zip(self.params, self._views(g)):
                p -= update

    def state_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "step_count": self.step_count,
                "m": [a.copy() for a in self._views(self._m)],
                "v": [a.copy() for a in self._views(self._v)]}

    def load_state_dict(self, state: dict) -> None:
        """Load a `state_dict`; any misfit, non-finite or (for `v`) negative moment, missing
        key or out-of-range scalar raises CheckpointError before anything changes."""
        try:
            for key in ("m", "v"):
                self._check_fit(state[key], f"stored {key} moment", CheckpointError)
                for name, a in zip(self.names, state[key]):
                    if not np.isfinite(a).all():
                        raise CheckpointError(f"stored {key} moment for {name} is not finite")
                    if key == "v" and (a < 0).any():
                        raise CheckpointError(f"stored v moment for {name} is negative")
            scalars = [float(state[k]) for k in ("learning_rate", "beta1", "beta2", "eps")]
            self._set_scalars(*scalars, state["step_count"], CheckpointError)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed optimizer state: {exc!r}") from exc
        if self.params:
            np.concatenate(state["m"], axis=None, out=self._m)
            np.concatenate(state["v"], axis=None, out=self._v)
