"""Affine coupling flows with exact log-det Jacobians and Gaussian prior.

A coupling unit keeps the masked half of the dimensions and applies an
elementwise affine map to the rest, conditioned on the kept half.  The
Jacobian is triangular, so the log-determinant is just the sum of the log
scales, and composition of units keeps both directions exact.

A stack is immutable during inference and safe for concurrent read-only
evaluation; training mutates parameters under exclusive access.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NumericError, ShapeError
from .nets import DenseNet, dense_net, net_backward, _forward_cached

LOG_2PI = math.log(2.0 * math.pi)


class CouplingUnit:
    """One invertible coupling layer over a fixed binary mask (1 = kept)."""

    def __init__(self, mask: np.ndarray, scale_net: DenseNet, translate_net: DenseNet,
                 clamp: float = 2.0):
        mask = np.asarray(mask, dtype=np.int8)
        if mask.ndim != 1:
            raise ShapeError("mask must be a 1-d binary vector")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if mask.sum() == 0 or mask.sum() == mask.size:
            raise ValueError("mask needs at least one kept and one transformed dim")
        self.mask = mask
        self.kept = np.flatnonzero(mask == 1)
        self.trans = np.flatnonzero(mask == 0)
        if scale_net.in_dim != self.kept.size or scale_net.out_dim != self.trans.size:
            raise ShapeError("scale net dims do not match the mask partition")
        if translate_net.in_dim != self.kept.size or translate_net.out_dim != self.trans.size:
            raise ShapeError("translate net dims do not match the mask partition")
        self.scale_net = scale_net
        self.translate_net = translate_net
        if clamp <= 0:
            raise ValueError("clamp must be positive")
        self.clamp = float(clamp)

    @property
    def dim(self) -> int:
        return self.mask.size

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return self.scale_net.parameters(prefix + "scale.") + \
            self.translate_net.parameters(prefix + "translate.")


def alternating_mask(dim: int, parity: int) -> np.ndarray:
    """Keep even indices when parity is 0, odd indices when parity is 1."""
    idx = np.arange(dim)
    return ((idx % 2) == (parity % 2)).astype(np.int8)


def make_coupling_unit(rng: np.random.Generator, mask: np.ndarray, hidden: int = 32,
                       clamp: float = 2.0) -> CouplingUnit:
    """Coupling unit with 2-hidden-layer subnets, final layers at exactly zero.

    Zero final layers make a fresh stack the identity map with zero logdet.
    """
    mask = np.asarray(mask, dtype=np.int8)
    n_kept = int(mask.sum())
    n_trans = int(mask.size - n_kept)
    dims = (n_kept, hidden, hidden, n_trans)
    s = dense_net(rng, dims, zero_final=True)
    t = dense_net(rng, dims, zero_final=True)
    return CouplingUnit(mask, s, t, clamp=clamp)


class BijectionStack:
    """Ordered composition of coupling units over a shared dimension.

    An empty stack is the identity map (used for 1-d densities, where a
    coupling mask cannot split the single dimension).
    """

    def __init__(self, dim: int, units: Sequence[CouplingUnit]):
        units = list(units)
        for u in units:
            if u.dim != dim:
                raise ShapeError(f"unit dim {u.dim} != stack dim {dim}")
        self.dim = dim
        self.units = units

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out = []
        for i, u in enumerate(self.units):
            out.extend(u.parameters(f"{prefix}u{i:02d}."))
        return out


def make_flow(rng: np.random.Generator, dim: int, n_units: int = 10, hidden: int = 32,
              clamp: float = 2.0) -> BijectionStack:
    """Stack of coupling units with alternating even/odd masks."""
    units = [make_coupling_unit(rng, alternating_mask(dim, i), hidden, clamp)
             for i in range(n_units)]
    return BijectionStack(dim, units)


def _unit_forward_cached(u: CouplingUnit, x: np.ndarray):
    """Forward through one unit on a 2-d batch, keeping what backward needs."""
    xk = x[:, u.kept]
    xt = x[:, u.trans]
    s_raw, s_caches = _forward_cached(u.scale_net, xk)
    t, t_caches = _forward_cached(u.translate_net, xk)
    s = u.clamp * np.tanh(s_raw)
    es = np.exp(s)
    y = np.empty_like(x)
    y[:, u.kept] = xk
    y[:, u.trans] = xt * es + t
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite coupling output (scale overflow)")
    logdet = s.sum(axis=1)
    cache = (xk, xt, s_raw, s, es, s_caches, t_caches)
    return y, logdet, cache


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ShapeError(f"input length {x.shape[-1]} != flow dim {dim}")
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ShapeError("expected a vector or a batch of vectors")


def unit_forward(u: CouplingUnit, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """y copies kept dims; transformed dims get x*exp(s) + t.  logdet = sum(s)."""
    xb, single = _as_batch(x, u.dim)
    y, logdet, _ = _unit_forward_cached(u, xb)
    if single:
        return y[0], float(logdet[0])
    return y, logdet


def unit_inverse(u: CouplingUnit, y: np.ndarray) -> np.ndarray:
    """Exact inverse: x = (y - t(y_kept)) * exp(-s(y_kept)) on transformed dims."""
    yb, single = _as_batch(y, u.dim)
    yk = yb[:, u.kept]
    s_raw, _ = _forward_cached(u.scale_net, yk)
    t, _ = _forward_cached(u.translate_net, yk)
    s = u.clamp * np.tanh(s_raw)
    x = np.empty_like(yb)
    x[:, u.kept] = yk
    x[:, u.trans] = (yb[:, u.trans] - t) * np.exp(-s)
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coupling inverse")
    return x[0] if single else x


def flow_forward(flow: BijectionStack, x: np.ndarray):
    """Compose units in order; total logdet is the exact sum of unit logdets."""
    xb, single = _as_batch(x, flow.dim)
    total = np.zeros(xb.shape[0])
    h = xb
    for u in flow.units:
        h, logdet, _ = _unit_forward_cached(u, h)
        total = total + logdet
    if single:
        return h[0], float(total[0])
    return h, total


def flow_inverse(flow: BijectionStack, z: np.ndarray) -> np.ndarray:
    zb, single = _as_batch(z, flow.dim)
    h = zb
    for u in reversed(flow.units):
        h = unit_inverse(u, h)
    return h[0] if single else h


def _unit_backward(u: CouplingUnit, cache, dy: np.ndarray, dlogdet: np.ndarray):
    """Gradients through one unit given upstream dL/dy and dL/dlogdet."""
    xk, xt, s_raw, s, es, s_caches, t_caches = cache
    dyt = dy[:, u.trans]  # also dL/dt
    ds = dyt * xt * es + dlogdet[:, None]
    ds_raw = ds * u.clamp * (1.0 - np.tanh(s_raw) ** 2)
    s_grads, dxk_s = net_backward(u.scale_net, xk, ds_raw, s_caches)
    t_grads, dxk_t = net_backward(u.translate_net, xk, dyt, t_caches)
    dx = np.empty_like(dy)
    dx[:, u.kept] = dy[:, u.kept] + dxk_s + dxk_t
    dx[:, u.trans] = dyt * es
    return s_grads + t_grads, dx


def flow_forward_cached(flow: BijectionStack, x: np.ndarray):
    caches = []
    total = np.zeros(x.shape[0])
    h = x
    for u in flow.units:
        h, logdet, cache = _unit_forward_cached(u, h)
        caches.append(cache)
        total = total + logdet
    return h, total, caches


def flow_backward(flow: BijectionStack, caches, dz: np.ndarray, dlogdet: np.ndarray):
    """Backprop through a stack given dL/dz and dL/dtotal_logdet per sample.

    Returns gradients aligned with ``flow.parameters()`` plus dL/dx.
    """
    grads: list[np.ndarray] = []
    delta = dz
    for u, cache in zip(flow.units[::-1], caches[::-1]):
        unit_grads, delta = _unit_backward(u, cache, delta, dlogdet)
        grads[:0] = unit_grads
    return grads, delta


def gaussian_loglik(z: np.ndarray, mean: np.ndarray | float,
                    diag_variance: np.ndarray | float):
    """Exact log-density of a diagonal Gaussian; batched over leading axis."""
    z = np.asarray(z, dtype=np.float64)
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), z.shape[-1:])
    var = np.broadcast_to(np.asarray(diag_variance, dtype=np.float64), z.shape[-1:])
    if np.any(var <= 0):
        raise ValueError("variances must be strictly positive")
    r = z - mean
    quad = (r * r / var).sum(axis=-1)
    norm = (np.log(var) + LOG_2PI).sum()
    out = -0.5 * (quad + norm)
    return float(out) if np.isscalar(quad) or out.ndim == 0 else out


def standard_normal_loglik(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return -0.5 * ((z * z).sum(axis=-1) + z.shape[-1] * LOG_2PI)


def flow_log_density(flow: BijectionStack, x: np.ndarray):
    """log p(x) under the flow with a standard-normal prior."""
    z, logdet = flow_forward(flow, x)
    if np.asarray(x).ndim == 1:
        return float(standard_normal_loglik(z) + logdet)
    return standard_normal_loglik(z) + logdet


def flow_nll(flow: BijectionStack, xs: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean negative log-likelihood over a batch, with exact gradients.

    Gradients are aligned with ``flow.parameters()`` and include the
    change-of-variables path through the log-determinant.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ShapeError("expected a non-empty batch of shape (N, D)")
    n = xs.shape[0]
    z, total, caches = flow_forward_cached(flow, xs)
    loss = float(-(standard_normal_loglik(z) + total).mean())
    # d loss / dz = z / N  (standard-normal prior), d loss / dlogdet = -1/N
    dz = z / n
    dlogdet = np.full(n, -1.0 / n)
    grads, _ = flow_backward(flow, caches, dz, dlogdet)
    return loss, grads


def flow_nll_value(flow: BijectionStack, xs: np.ndarray) -> float:
    return float(-np.mean(flow_log_density(flow, xs)))


def sample_flow(flow: BijectionStack, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples by pushing standard-normal latents through the inverse."""
    z = rng.standard_normal((n, flow.dim))
    return flow_inverse(flow, z)
