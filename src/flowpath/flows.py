"""Affine coupling flows with exact log-det Jacobians and Gaussian prior.

A coupling unit keeps the masked half of the dimensions and applies an
elementwise affine map to the rest, conditioned on the kept half.  The
Jacobian is triangular, so the log-determinant is just the sum of the log
scales, and composition of units keeps both directions exact.

A pass through a stack, forward, inverse or backward, carries the halves as
two arrays: one gather on entry and one scatter on exit.  Where the next unit
keeps exactly what this one transformed, as in every `alternating_mask`
stack, the halves swap; otherwise the vector is rebuilt and gathered again.
`flow_encode` is `flow_forward` without the log-determinant: the same z, bit for bit.

A unit is built from one net whose layers stack its scale and translate
subnets on an axis of 2, so both run as one batched matmul chain, and
`member_net(unit.net, k)` views the scale (k = 0) or translate (k = 1) net.
A unit's `parameters()` are those stacked arrays.  Nothing is copied in:
every stack's arrays are views of one flat store, in `parameters()` order,
which `make_flow` carves for a lone stack and `AgingModel` for its pair.
Unit i of two flows can be stacked once more, as (2 flows, 2 nets), and the
passes below take inputs with a stack's leading flow axes, `lead`, in front
of (N, dim).  `member(f)` gives flow f alone as views of slices of them, so
no level holds a copy.

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
        """The stacked arrays of `net`, w then b per layer."""
        return self.net.parameters(prefix)

    def member(self, f: int) -> CouplingUnit:
        """Flow f's unit, on views of slice f of the stacks; valid for a unit with
        one flow axis.  This unit passed the mask, net and clamp checks, so the
        member skips them."""
        _check_member(self.lead, f)
        unit = object.__new__(CouplingUnit)
        vars(unit).update(vars(self), net=member_net(self.net, f), lead=(),
                          clamp=float(self.clamp[f, 0, 0]))
        return unit


def _check_member(lead: tuple[int, ...], f: int) -> None:
    if len(lead) != 1 or not 0 <= f < lead[0]:
        raise ShapeError(f"member {f} of flow axes {lead}: valid with one flow axis, "
                         "for an index inside it")


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


class BijectionStack:
    """Ordered composition of coupling units over a shared dimension, all with
    the flow axes `lead`: () for one flow, (2,) for two run in lockstep.

    An empty stack is the identity map (used for 1-d densities, where a
    coupling mask cannot split the single dimension).
    """

    def __init__(self, dim: int, units: Sequence[CouplingUnit], lead: tuple[int, ...] = ()):
        self.dim, self.units, self.lead = dim, tuple(units), lead
        for u in self.units:
            if u.dim != dim or u.lead != self.lead:
                raise ShapeError(f"unit of dim {u.dim} and flow axes {u.lead} in a stack of "
                                 f"dim {dim} and flow axes {self.lead}")
        # swaps[i]: unit i + 1 keeps exactly what unit i transforms (units stay fixed)
        self.swaps = [a.trans.tobytes() == b.kept.tobytes() for a, b in zip(units, units[1:])]

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [p for i, u in enumerate(self.units) for p in u.parameters(f"{prefix}u{i:02d}.")]

    def member(self, f: int) -> BijectionStack:
        """Flow f alone, as units on views of the stacks; valid with one flow axis.  It
        skips the unit checks this stack passed and reuses its `swaps`."""
        _check_member(self.lead, f)
        stack = object.__new__(BijectionStack)
        vars(stack).update(vars(self), units=tuple(u.member(f) for u in self.units), lead=())
        return stack


@functools.lru_cache(maxsize=16)
def _unit_layout(dim: int, units: int, hidden: int, clamp: float) -> tuple:
    """Per unit of an alternating-mask stack, (mask, subnet layers, (clamp, clamp)), shared
    by `make_flow` and `make_aging_model`: read-only masks."""
    masks = [np.frombuffer(alternating_mask(dim, i).tobytes(), np.int8) for i in range(units)]
    return tuple((m, tuple(subnet_layers(m, hidden)), (clamp, clamp)) for m in masks)


def make_flow(rng: np.random.Generator, dim: int, n_units: int = 10, hidden: int = 32,
              clamp: float = 2.0) -> BijectionStack:
    """Stack of alternating-mask units with 2-hidden-layer subnets, every array a view of
    one zero store in `parameters()` order.  Glorot values go in unit by unit, as
    `glorot_subnets` draws them; zero final layers make a fresh stack the identity map
    with zero logdet."""
    units = _unit_layout(dim, n_units, hidden, clamp)
    shapes = [(2,) + s for _, layers, _ in units for (out, inp), _ in layers
              for s in ((out, inp), (out,))]
    arrays = iter(carve(np.zeros(sum(map(math.prod, shapes))), shapes))
    flow = BijectionStack(dim, [CouplingUnit(mask, net_from(arrays, [act for _, act in layers]),
                                             clamp) for mask, layers, _ in units])
    for u in flow.units:
        glorot_subnets(rng, u)
    return flow


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


def _join(u: CouplingUnit, kept: np.ndarray, trans: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[..., u.kept], out[..., u.trans] = kept, trans
    return out


def _hand_off(src: CouplingUnit, dst: CouplingUnit, swap: bool, kept: np.ndarray,
              trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dst's (kept, transformed) halves from src's: swapped when dst keeps exactly
    what src transforms (`swap`), else the full vector is rebuilt and gathered."""
    if swap:
        return trans, kept
    full = _join(src, kept, trans, np.empty(kept.shape[:-1] + (src.dim,)))
    return full[..., dst.kept], full[..., dst.trans]


def _forward(flow: BijectionStack, x: np.ndarray, caches: list | None, logdet: bool = True):
    """Run a (*lead, N, dim) batch through the units, keeping each unit's cache in `caches` if
    given and the logdet sum if `logdet`.  The entry unit checks its kept half: no unit made it."""
    units, total, last = flow.units, np.zeros(x.shape[:-1]), len(flow.units) - 1
    if not units:
        return x, total
    xk, xt = x[..., units[0].kept], x[..., units[0].trans]
    for i, u in enumerate(units):
        st, net_caches = _forward_cached(u.net, xk[..., None, :, :])
        th = np.tanh(st[..., 0, :, :])
        s = u.clamp * th
        es = np.exp(s)
        yt = xt * es + st[..., 1, :, :]
        if not (np.isfinite(yt).all() and (i or np.isfinite(xk).all())):
            raise NumericError("non-finite coupling output (scale overflow)")
        if caches is not None:
            caches.append((xk, xt, th, es, net_caches))
        total = total + s.sum(axis=-1) if logdet else total
        if i < last:
            xk, xt = _hand_off(u, units[i + 1], flow.swaps[i], xk, yt)
    return _join(units[-1], xk, yt, np.empty_like(x)), total


def flow_forward(flow: BijectionStack, x: np.ndarray):
    """Compose units in order; total logdet is the exact sum of unit logdets.  Each
    unit's intermediates are freed as it goes (`_forward` keeps them given a list)."""
    h, single = _as_batch(x, flow)
    h, total = _forward(flow, h, None)
    return (h[0], float(total[0])) if single else (h, total)


def flow_encode(flow: BijectionStack, x: np.ndarray) -> np.ndarray:
    """`flow_forward`'s z, bit for bit, without summing the log-determinant."""
    h, single = _as_batch(x, flow)
    h, _ = _forward(flow, h, None, logdet=False)
    return h[0] if single else h


def flow_inverse(flow: BijectionStack, z: np.ndarray) -> np.ndarray:
    """Undo the units in reverse order: x_t = (y_t - t(y_kept)) * exp(-s(y_kept))."""
    h, single = _as_batch(z, flow)
    units, last = flow.units, len(flow.units) - 1
    if units:
        yk, yt = h[..., units[last].kept], h[..., units[last].trans]
        for i in range(last, -1, -1):
            u = units[i]
            st, _ = _forward_cached(u.net, yk[..., None, :, :])
            yt = (yt - st[..., 1, :, :]) * np.exp(-(u.clamp * np.tanh(st[..., 0, :, :])))
            if not (np.isfinite(yt).all() and (i < last or np.isfinite(yk).all())):
                raise NumericError("non-finite coupling inverse")
            if i:
                yk, yt = _hand_off(u, units[i - 1], flow.swaps[i - 1], yk, yt)
        h = _join(units[0], yk, yt, np.empty_like(h))
    return h[0] if single else h


def flow_backward(flow: BijectionStack, caches, dz: np.ndarray, dlogdet: np.ndarray):
    """Backprop through a stack given dL/dz and dL/dtotal_logdet per sample.
    Returns gradients aligned with ``flow.parameters()``; dL/dx is not formed."""
    units, grads, dl = flow.units, [], dlogdet[..., None]
    if units:
        dyk, dyt = dz[..., units[-1].kept], dz[..., units[-1].trans]
    for i in range(len(units) - 1, -1, -1):
        u, (xk, xt, th, es, net_caches) = units[i], caches[i]
        upstream = np.empty(xt.shape[:-2] + (2,) + xt.shape[-2:])  # (ds_raw, dL/dt)
        ds = dyt * xt * es + dl
        np.multiply(ds * u.clamp, 1.0 - th ** 2, out=upstream[..., 0, :, :])
        upstream[..., 1, :, :] = dyt
        unit_grads, dxk = net_backward(u.net, xk[..., None, :, :], upstream, net_caches)
        grads[:0] = unit_grads
        if i:
            dyk, dyt = _hand_off(u, units[i - 1], flow.swaps[i - 1],
                                 dyk + dxk[..., 0, :, :] + dxk[..., 1, :, :], dyt * es)
    return grads


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
    return standard_normal_loglik(z) + logdet


def flow_nll(flow: BijectionStack, xs: np.ndarray):
    """Mean negative log-likelihood over a batch, with exact gradients.

    A stack with a flow axis of 2 takes xs of shape (2, N, D), one batch per
    flow, and returns the two losses as an array.  Gradients are aligned with
    ``flow.parameters()`` and include the change-of-variables path through
    the log-determinant.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 + len(flow.lead) or xs.shape[:-2] != flow.lead or xs.shape[-2] == 0:
        raise ShapeError(f"expected a non-empty batch of shape {flow.lead + ('N', 'D')}")
    n = xs.shape[-2]
    caches = []
    z, total = _forward(flow, xs, caches)
    loss = -(standard_normal_loglik(z) + total).mean(axis=-1)
    # d loss / dz = z / N  (standard-normal prior), d loss / dlogdet = -1/N
    grads = flow_backward(flow, caches, z / n, np.full(total.shape, -1.0 / n))
    return (float(loss) if loss.ndim == 0 else loss), grads


def flow_nll_value(flow: BijectionStack, xs: np.ndarray) -> float:
    return float(-np.mean(flow_log_density(flow, xs)))

