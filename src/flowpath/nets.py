"""Dense networks with hand-derived reverse-mode gradients.

The model zoo in this package is small and fixed (coupling subnets, a cost
net, a policy net), so gradients are written out per layer instead of going
through a general tape.  Everything is float64; the finite-difference oracle
in this module is the reference every analytic gradient is checked against.

Parameter containers are plain numpy arrays.  Read-only sharing across
workers is safe; `Adam.step` mutates in place and needs exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity", "softmax")


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Uniform init in [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))


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
    """An ordered stack of dense layers whose dimensions chain (see `stack_nets`)."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ShapeError("a DenseNet needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[:-1] != b.weight.shape[:-2] + b.weight.shape[-1:]:
                raise ShapeError(f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}")
        for layer in layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError("softmax is only allowed as the final activation")
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


def stack_nets(nets: Sequence[DenseNet]) -> DenseNet:
    """One net whose layers stack the members' (copied in) on a new leading axis,
    so they run as one batched matmul chain.  Each member layer is rebound to
    its slice of the stack: a write through either side shows in both."""
    shapes = [[(layer.weight.shape, layer.activation) for layer in n.layers] for n in nets]
    if any(s != shapes[0] for s in shapes):
        raise ShapeError("stacked nets must share layer shapes and activations")
    stacked = DenseNet([DenseLayer(np.array([n.layers[i].weight for n in nets]),
                                   np.array([n.layers[i].bias for n in nets]), layer.activation)
                        for i, layer in enumerate(nets[0].layers)])
    bind_members(stacked, nets)
    return stacked


def bind_members(stacked: DenseNet, nets: Sequence[DenseNet]) -> None:
    """Rebind member k's layer arrays to slice k of the stacked net's arrays."""
    for k, net in enumerate(nets):
        for layer, whole in zip(net.layers, stacked.layers):
            layer.weight, layer.bias = whole.weight[k], whole.bias[k]


def dense_net(rng: np.random.Generator, dims: Sequence[int], hidden_activation: str = "relu",
              final_activation: str = "identity", zero_final: bool = False) -> DenseNet:
    """Build a net with the given layer widths, e.g. dims=(4, 32, 32, 2)."""
    if len(dims) < 2:
        raise ShapeError("need at least an input and an output dimension")
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        w = glorot_uniform(rng, d_out, d_in)
        if last and zero_final:
            w = np.zeros((d_out, d_in))
        layers.append(DenseLayer(w, np.zeros(d_out),
                                 final_activation if last else hidden_activation))
    return DenseNet(layers)


def _softmax(pre: np.ndarray) -> np.ndarray:
    shifted = pre - pre.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    """The activation of `pre`, computed in place where it can be."""
    if name == "relu":
        return np.maximum(pre, 0.0, out=pre)
    if name == "tanh":
        return np.tanh(pre, out=pre)
    if name == "identity":
        return pre
    return _softmax(pre)


def _forward_cached(net: DenseNet, x: np.ndarray):
    """Forward pass keeping each layer's input and output.  A stacked net
    broadcasts x of shape (..., N, in) against its leading axes.  Finiteness
    is checked once, at the output, which any NaN upstream reaches."""
    caches = []
    h = x
    for layer in net.layers:
        pre = h @ layer.weight.swapaxes(-1, -2)
        pre += layer.bias if layer.bias.ndim == 1 else layer.bias[..., None, :]
        out = _activate(layer.activation, pre)
        caches.append((h, out))
        h = out
    if not np.all(np.isfinite(h)):
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
        act = layer.activation
        if act == "relu":
            dpre = delta * (out > 0.0)
        elif act == "tanh":
            dpre = delta * (1.0 - out * out)
        elif act == "identity":
            dpre = delta
        else:  # softmax
            inner = (delta * out).sum(axis=-1, keepdims=True)
            dpre = out * (delta - inner)
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

    The moments are flat float64 vectors, one slot per parameter array, and
    a step is a few in-place ufuncs over them, the concatenated gradient and
    one scratch vector.  Each element sees the per-array textbook
    arithmetic, bit for bit.  State dicts hold per-array moments.
    """

    def __init__(self, params: Sequence[np.ndarray], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate <= 0 or not (0 < beta1 < 1) or not (0 < beta2 < 1):
            raise ValueError("learning rate and decay coefficients must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._set_slots([np.shape(p) for p in params])

    def _set_slots(self, shapes: Sequence[tuple[int, ...]]) -> None:
        """Lay out one flat slot per array shape, with zero moments."""
        self.shapes = [tuple(s) for s in shapes]
        self.offsets = np.cumsum([0] + [math.prod(s) for s in self.shapes])
        self._m, self._v = np.zeros((2, int(self.offsets[-1])))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[a:b].reshape(s) for a, b, s in
                zip(self.offsets, self.offsets[1:], self.shapes)]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray],
             names: Sequence[str] | None = None) -> None:
        """Apply one in-place update.  Deterministic given inputs."""
        if len(params) != len(self.shapes) or len(grads) != len(params):
            raise ShapeError("parameter/gradient count does not match optimizer slots")
        label = (lambda i: names[i]) if names is not None else (lambda i: f"param[{i}]")
        for i, (p, g, shape) in enumerate(zip(params, grads, self.shapes)):
            if p.shape != g.shape or p.shape != shape:
                raise ShapeError(f"shape mismatch for {label(i)}: {p.shape} vs {g.shape}")
        g = np.concatenate(grads, axis=None, dtype=np.float64) if grads else np.zeros(0)
        s = np.empty_like(g)
        finite = np.isfinite(g)
        if not finite.all():
            slot = np.searchsorted(self.offsets, np.argmin(finite), side="right") - 1
            raise NumericError(f"non-finite gradient for {label(int(slot))}")
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
        for p, update in zip(params, self._views(g)):
            p -= update

    def state_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "step_count": self.step_count,
                "m": [a.copy() for a in self._views(self._m)],
                "v": [a.copy() for a in self._views(self._v)]}

    def load_state_dict(self, state: dict) -> None:
        m, v = state["m"], state["v"]
        self.learning_rate, self.beta1, self.beta2, self.eps = (
            float(state[k]) for k in ("learning_rate", "beta1", "beta2", "eps"))
        self.step_count = int(state["step_count"])
        self._set_slots([np.shape(a) for a in m])
        if m:
            np.concatenate(m, axis=None, out=self._m)
            np.concatenate(v, axis=None, out=self._v)

