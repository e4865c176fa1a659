"""Affine coupling flows with exact log-det Jacobians and Gaussian prior.

A coupling unit keeps the masked half of the dimensions and applies an
elementwise affine map to the rest, conditioned on the kept half.  The
Jacobian is triangular, so the log-determinant is just the sum of the log
scales, and composition of units keeps both directions exact.

A unit is built from one net whose layers stack its scale and translate
subnets on an axis of 2, so both run as one batched matmul chain, and
`member_net(unit.net, k)` views the scale (k = 0) or translate (k = 1) net.
Nothing is copied in: `make_coupling_unit` carves the stacked layers from a
store of the unit's own.  A `FlowPair` stacks unit i of two flows once more,
(2 flows, 2 nets), and the passes below take inputs with the owner's leading
flow axes, `lead`, in front of (N, dim).  The pair's stacks are views into
its owner's flat parameter store (see `AgingModel`), and its two lone flows
are views of slices of the stacks, so no level holds a copy.

A stack is immutable during inference and safe for concurrent read-only
evaluation; training mutates parameters under exclusive access.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import NumericError, ShapeError
from .nets import DenseNet, carve, glorot_fill, member_net, net_backward, net_from, _forward_cached

LOG_2PI = math.log(2.0 * math.pi)


def _partition(mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A validated binary mask (1 = kept) and its kept and transformed indices,
    as read-only arrays shared by every unit over the same mask."""
    mask = np.asarray(mask, dtype=np.int8)
    if mask.ndim != 1:
        raise ShapeError("mask must be a 1-d binary vector")
    return _split(mask.tobytes())


@functools.lru_cache(maxsize=64)
def _split(mask: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    values = np.frombuffer(mask, dtype=np.int8)
    kept, trans = np.flatnonzero(values == 1), np.flatnonzero(values == 0)
    if kept.size + trans.size != values.size:
        raise ValueError("mask entries must be 0 or 1")
    if kept.size == 0 or trans.size == 0:
        raise ValueError("mask needs at least one kept and one transformed dim")
    kept.flags.writeable = trans.flags.writeable = False
    return values, kept, trans


class CouplingUnit:
    """One invertible coupling layer over a fixed binary mask (1 = kept).

    `net` holds the scale and translate subnets stacked on an axis of 2, just
    before each layer's (out, in).  Any axes in front of that one are the
    unit's `lead`: flows run in lockstep, one `clamp` each.
    """

    def __init__(self, mask: np.ndarray, net: DenseNet, clamp: float | Sequence[float] = 2.0):
        self.mask, self.kept, self.trans = _partition(mask)
        self.dim = self.mask.size
        shape = net.layers[0].weight.shape
        if len(shape) < 3 or shape[-3] != 2:
            raise ShapeError("a coupling net stacks its scale and translate subnets on an "
                             f"axis of 2 before (out, in), not as {shape}")
        if net.in_dim != self.kept.size or net.out_dim != self.trans.size:
            raise ShapeError(f"net maps {net.in_dim} -> {net.out_dim} dims, the mask keeps "
                             f"{self.kept.size} and transforms {self.trans.size}")
        self.lead = shape[:-3]
        clamps = np.asarray(clamp, dtype=np.float64)
        if clamps.shape != self.lead or not all(c > 0 for c in clamps.flat):
            raise ValueError(f"clamp must be positive, one per flow of shape {self.lead}")
        self.clamp = clamps[..., None, None] if self.lead else float(clamps)
        self.net = net

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        """Per-net names and views: all of the scale net's, then the translate net's."""
        return [(f"{prefix}{role}.{name}", arr[k]) for k, role in enumerate(("scale", "translate"))
                for name, arr in self.net.parameters()]

    def align(self, grads: list[np.ndarray]) -> list[np.ndarray]:
        """Gradients of the stacked net, as views in `parameters()` order."""
        return [g[k] for k in (0, 1) for g in grads]


class UnitPair(CouplingUnit):
    """Unit i of two flows: their shared mask, a net whose layers are stacked as
    (2 flows, 2 nets, ...), and one clamp per flow.  `parameters()` yields the
    stacked arrays."""

    def member(self, f: int) -> CouplingUnit:
        """Flow f's unit, on views of slice f of the stacks.  The pair passed the
        mask, net and clamp checks, so the member skips them."""
        unit = object.__new__(CouplingUnit)
        vars(unit).update(vars(self), net=member_net(self.net, f), lead=(),
                          clamp=float(self.clamp[f, 0, 0]))
        return unit

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return self.net.parameters(prefix)

    def align(self, grads: list[np.ndarray]) -> list[np.ndarray]:
        return grads


def alternating_mask(dim: int, parity: int) -> np.ndarray:
    """Keep even indices when parity is 0, odd indices when parity is 1."""
    return ((np.arange(dim) % 2) == (parity % 2)).astype(np.int8)


def subnet_layers(mask: np.ndarray, hidden: int) -> list[tuple[tuple[int, int], str]]:
    """The ((out, in), activation) layers of a coupling subnet with two hidden
    layers: kept -> hidden -> hidden -> transformed, relu then identity."""
    kept = int(np.count_nonzero(mask))
    dims = (kept, hidden, hidden, np.size(mask) - kept)
    return [((d_out, d_in), act)
            for d_in, d_out, act in zip(dims, dims[1:], ("relu", "relu", "identity"))]


def glorot_subnets(rng: np.random.Generator, unit: CouplingUnit) -> None:
    """Draw Glorot values into a lone unit's scale net, then its translate net, as
    two `dense_net` builds would draw them; final layers are left as they are."""
    for k in (0, 1):
        glorot_fill(rng, [layer.weight[k] for layer in unit.net.layers], zero_final=True)


def make_coupling_unit(rng: np.random.Generator, mask: np.ndarray, hidden: int = 32,
                       clamp: float = 2.0) -> CouplingUnit:
    """Coupling unit with 2-hidden-layer subnets stacked on a store of its own,
    final layers at exactly zero.

    Zero final layers make a fresh stack the identity map with zero logdet.
    """
    layers = subnet_layers(mask, hidden)
    shapes = [(2,) + s for (out, inp), _ in layers for s in ((out, inp), (out,))]
    arrays = iter(carve(np.zeros(sum(map(math.prod, shapes))), shapes))
    unit = CouplingUnit(mask, net_from(arrays, [act for _, act in layers]), clamp)
    glorot_subnets(rng, unit)
    return unit


class BijectionStack:
    """Ordered composition of coupling units over a shared dimension.

    An empty stack is the identity map (used for 1-d densities, where a
    coupling mask cannot split the single dimension).
    """

    lead: tuple[int, ...] = ()

    def __init__(self, dim: int, units: Sequence[CouplingUnit]):
        self.dim, self.units = dim, list(units)
        for u in self.units:
            if u.dim != dim:
                raise ShapeError(f"unit dim {u.dim} != stack dim {dim}")

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [p for i, u in enumerate(self.units) for p in u.parameters(f"{prefix}u{i:02d}.")]


class FlowPair(BijectionStack):
    """Two flows whose unit i share a mask, run in lockstep on inputs with a
    leading axis of 2.  `first` and `second` are the two flows alone, as
    units on views of the stacks."""

    lead = (2,)

    def __init__(self, dim: int, units: Sequence[UnitPair]):
        super().__init__(dim, units)
        self.first, self.second = (BijectionStack(dim, [u.member(f) for u in self.units])
                                   for f in (0, 1))


def make_flow(rng: np.random.Generator, dim: int, n_units: int = 10, hidden: int = 32,
              clamp: float = 2.0) -> BijectionStack:
    """Stack of coupling units with alternating even/odd masks."""
    return BijectionStack(dim, [make_coupling_unit(rng, alternating_mask(dim, i), hidden, clamp)
                                for i in range(n_units)])


def _unit_forward_cached(u: CouplingUnit, x: np.ndarray):
    """Forward through one unit on a batch (*lead, N, dim), keeping what backward needs."""
    xk, xt = x[..., u.kept], x[..., u.trans]
    st, caches = _forward_cached(u.net, xk[..., None, :, :])
    s_raw = st[..., 0, :, :]
    s = u.clamp * np.tanh(s_raw)
    es = np.exp(s)
    y = np.empty_like(x)
    y[..., u.kept] = xk
    y[..., u.trans] = xt * es + st[..., 1, :, :]
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite coupling output (scale overflow)")
    return y, s.sum(axis=-1), (xk, xt, s_raw, es, caches)


def _as_batch(x: np.ndarray, owner) -> tuple[np.ndarray, bool]:
    """x as a (*lead, N, dim) batch, and whether it was one lone-flow vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != owner.dim:
        raise ShapeError(f"input length {x.shape[-1]} != flow dim {owner.dim}")
    if x.ndim == 1 and not owner.lead:
        return x[None, :], True
    if x.ndim == 2 + len(owner.lead) and x.shape[:-2] == owner.lead:
        return x, False
    raise ShapeError("expected a vector or a batch of vectors")


def unit_inverse(u: CouplingUnit, y: np.ndarray) -> np.ndarray:
    """Exact inverse: x = (y - t(y_kept)) * exp(-s(y_kept)) on transformed dims."""
    yb, single = _as_batch(y, u)
    yk = yb[..., u.kept]
    st, _ = _forward_cached(u.net, yk[..., None, :, :])
    s = u.clamp * np.tanh(st[..., 0, :, :])
    x = np.empty_like(yb)
    x[..., u.kept] = yk
    x[..., u.trans] = (yb[..., u.trans] - st[..., 1, :, :]) * np.exp(-s)
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite coupling inverse")
    return x[0] if single else x


def flow_forward(flow: BijectionStack, x: np.ndarray):
    """Compose units in order; total logdet is the exact sum of unit logdets.  Each
    unit's intermediates are freed as it goes (`flow_forward_cached` keeps them)."""
    h, single = _as_batch(x, flow)
    total = np.zeros(h.shape[:-1])
    for u in flow.units:
        h, logdet, _ = _unit_forward_cached(u, h)
        total = total + logdet
    return (h[0], float(total[0])) if single else (h, total)


def flow_inverse(flow: BijectionStack, z: np.ndarray) -> np.ndarray:
    h, single = _as_batch(z, flow)
    for u in reversed(flow.units):
        h = unit_inverse(u, h)
    return h[0] if single else h


def _unit_backward(u: CouplingUnit, cache, dy: np.ndarray, dlogdet: np.ndarray):
    """Gradients through one unit given upstream dL/dy and dL/dlogdet."""
    xk, xt, s_raw, es, caches = cache
    dyt = dy[..., u.trans]  # also dL/dt
    ds = dyt * xt * es + dlogdet[..., None]
    ds_raw = ds * u.clamp * (1.0 - np.tanh(s_raw) ** 2)
    grads, dxk = net_backward(u.net, xk[..., None, :, :], np.stack([ds_raw, dyt], axis=-3),
                              caches)
    dx = np.empty_like(dy)
    dx[..., u.kept] = dy[..., u.kept] + dxk[..., 0, :, :] + dxk[..., 1, :, :]
    dx[..., u.trans] = dyt * es
    return u.align(grads), dx


def flow_forward_cached(flow: BijectionStack, x: np.ndarray):
    caches, total, h = [], np.zeros(x.shape[:-1]), x
    for u in flow.units:
        h, logdet, cache = _unit_forward_cached(u, h)
        caches.append(cache)
        total = total + logdet
    return h, total, caches


def flow_backward(flow: BijectionStack, caches, dz: np.ndarray, dlogdet: np.ndarray):
    """Backprop through a stack given dL/dz and dL/dtotal_logdet per sample.
    Returns gradients aligned with ``flow.parameters()`` plus dL/dx."""
    grads, delta = [], dz
    for u, cache in zip(flow.units[::-1], caches[::-1]):
        unit_grads, delta = _unit_backward(u, cache, delta, dlogdet)
        grads[:0] = unit_grads
    return grads, delta


def gaussian_loglik(z: np.ndarray, mean: np.ndarray | float, diag_variance: np.ndarray | float):
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


def flow_nll(flow: BijectionStack, xs: np.ndarray):
    """Mean negative log-likelihood over a batch, with exact gradients.

    A `FlowPair` takes xs of shape (2, N, D), one batch per flow, and returns
    the two losses as an array.  Gradients are aligned with
    ``flow.parameters()`` and include the change-of-variables path through
    the log-determinant.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 + len(flow.lead) or xs.shape[:-2] != flow.lead or xs.shape[-2] == 0:
        raise ShapeError(f"expected a non-empty batch of shape {flow.lead + ('N', 'D')}")
    n = xs.shape[-2]
    z, total, caches = flow_forward_cached(flow, xs)
    loss = -(standard_normal_loglik(z) + total).mean(axis=-1)
    # d loss / dz = z / N  (standard-normal prior), d loss / dlogdet = -1/N
    grads, _ = flow_backward(flow, caches, z / n, np.full(total.shape, -1.0 / n))
    return (float(loss) if loss.ndim == 0 else loss), grads


def flow_nll_value(flow: BijectionStack, xs: np.ndarray) -> float:
    return float(-np.mean(flow_log_density(flow, xs)))

