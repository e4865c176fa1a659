"""Aging transformation with a factored 3-way controller interaction.

The transform maps a source latent and an age action to a predicted target
latent: pred = W_out (W_lat z ⊙ W_act a) + bias, with a the one-hot vector
of the action.  Actions are integer step indices, so each selects one column
of W_act, i.e. its own gating of the factor space, and no one-hot vector is
ever built.  The full 3-way tensor this factorizes is only ever represented
implicitly.

A pair model bundles two independent coupling stacks (source and target
encoders) with one transform; the conditional likelihood of a target
observation given a source observation and an action is the standard-normal
density of the latent residual plus the target encoder's change-of-variables
term.  The two stacks are also held as one `FlowPair`, so training runs both
encoders in one pass.  Every parameter of a pair model is a view into one
flat float64 store, in `parameters()` order, which a fresh model draws into
and a checkpoint fills.  Inference paths are read-only on parameters;
training steps need exclusive access.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientDataError, NumericError, ShapeError, ValidationError
from .flows import (
    FlowPair,
    UnitPair,
    alternating_mask,
    flow_backward,
    flow_forward,
    flow_forward_cached,
    flow_inverse,
    gaussian_loglik,
    glorot_subnets,
    standard_normal_loglik,
    subnet_layers,
)
from .nets import Adam, carve, glorot_fill, net_from

DEFAULT_NUM_ACTIONS = 16
VAR_FLOOR = 1e-6


class FactoredTransform:
    """g = W_out (W_lat z ⊙ W_act a) + bias, with f factor units."""

    def __init__(self, w_out: np.ndarray, w_lat: np.ndarray, w_act: np.ndarray,
                 bias: np.ndarray):
        self.w_out = np.asarray(w_out, dtype=np.float64)   # (D, f)
        self.w_lat = np.asarray(w_lat, dtype=np.float64)   # (f, D)
        self.w_act = np.asarray(w_act, dtype=np.float64)   # (f, N_a)
        self.bias = np.asarray(bias, dtype=np.float64)     # (D,)
        d, f = self.w_out.shape
        if self.w_lat.shape != (f, d):
            raise ShapeError(f"latent matrix must be ({f}, {d}), got {self.w_lat.shape}")
        if self.w_act.shape[0] != f:
            raise ShapeError(f"action matrix must have {f} rows, got {self.w_act.shape}")
        if self.bias.shape != (d,):
            raise ShapeError(f"bias must have length {d}")
        for name, arr in self.parameters():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")

    @property
    def dim(self) -> int:
        return self.w_out.shape[0]

    @property
    def n_actions(self) -> int:
        return self.w_act.shape[1]

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [
            (prefix + "w_out", self.w_out),
            (prefix + "w_lat", self.w_lat),
            (prefix + "w_act", self.w_act),
            (prefix + "bias", self.bias),
        ]


def _action_indices(actions, n_actions: int) -> np.ndarray:
    """An int or an integer array of action indices, as a 1-d int64 array; any
    other dtype, or an index outside [0, n_actions), raises ValidationError."""
    a = np.asarray(actions)
    if a.dtype.kind not in "iu":
        raise ValidationError(f"actions must be integer indices, not {a.dtype} values")
    idx = np.atleast_1d(a).astype(np.int64)
    if np.any(idx < 0) or np.any(idx >= n_actions):
        raise ValidationError(f"action index out of range [0, {n_actions})")
    return idx


def transform_apply(g: FactoredTransform, z_prev: np.ndarray, action) -> np.ndarray:
    """Predicted target latent of z_prev (D,) or (N, D) under integer action
    indices: one for every row, or one per row.  Depends only on W_act's
    selected columns."""
    z = np.asarray(z_prev, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.shape[1] != g.dim:
        raise ShapeError(f"latent dim {zb.shape[1]} != transform dim {g.dim}")
    idx = _action_indices(action, g.n_actions)
    h = zb @ g.w_lat.T               # (N, f)
    za = g.w_act[:, idx].T           # (N, f)
    out = (h * za) @ g.w_out.T + g.bias
    return out[0] if single else out


def transform_backward(g: FactoredTransform, z_prev: np.ndarray, idx: np.ndarray,
                       dpred: np.ndarray):
    """Gradients of sum(dpred ⊙ pred) w.r.t. transform params and z_prev."""
    h = z_prev @ g.w_lat.T
    za = g.w_act[:, idx].T
    dw_out = dpred.T @ (h * za)
    dmix = dpred @ g.w_out          # (N, f)
    dh = dmix * za
    dza = dmix * h
    dw_lat = dh.T @ z_prev
    dw_act = np.zeros_like(g.w_act)
    np.add.at(dw_act, (slice(None), idx), dza.T)
    dbias = dpred.sum(axis=0)
    dz_prev = dh @ g.w_lat
    return [dw_out, dw_lat, dw_act, dbias], dz_prev


class AgingModel:
    """Source/target coupling stacks plus the factored controller transform.

    All parameters live in one flat float64 `store`, laid out in
    `parameters()` order: the flows' stacked arrays, then the transform's.
    `flows`, `source_flow`, `target_flow` (with their scale and translate
    nets) and `transform` hold views into it, never copies.
    """

    def __init__(self, dim: int, units, factors: int, n_actions: int):
        """An all-zero model, the layout a fresh model draws into and a checkpoint
        fills.  `units` gives, per unit position, (mask, [((out, in), activation)
        per subnet layer], (source clamp, target clamp))."""
        shapes = [(2, 2) + s for _, layers, _ in units for (out, inp), _ in layers
                  for s in ((out, inp), (out,))]
        shapes += [(dim, factors), (factors, dim), (factors, n_actions), (dim,)]
        self.store = np.zeros(sum(map(math.prod, shapes)))
        arrays = iter(carve(self.store, shapes))
        self.flows = FlowPair(dim, [UnitPair(mask, net_from(arrays, [act for _, act in layers]),
                                             clamps) for mask, layers, clamps in units])
        self.source_flow, self.target_flow = self.flows.first, self.flows.second
        self.transform = FactoredTransform(*arrays)

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_actions(self) -> int:
        return self.transform.n_actions

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """What an optimizer steps: the flows' stacked arrays, then the transform's,
        which tile the store in order.  Checkpoints store them as the `model` group."""
        return self.flows.parameters("flows.") + self.transform.parameters("transform.")


def make_aging_model(rng: np.random.Generator | None, dim: int,
                     n_actions: int = DEFAULT_NUM_ACTIONS, flow_units: int = 10,
                     hidden: int = 32, clamp: float = 2.0, factors: int = 32
                     ) -> AgingModel:
    """Two flows of alternating-mask units with 2-hidden-layer subnets, plus a
    transform.  Glorot values go straight into the store's views, as `make_flow`
    draws them twice, then into `w_out`, `w_lat`, `w_act` in that order; final subnet
    layers stay zero.  With `rng` None every value is zero, the layout a checkpoint fills."""
    masks = [alternating_mask(dim, i) for i in range(flow_units)]
    model = AgingModel(dim, [(mask, subnet_layers(mask, hidden), (clamp, clamp)) for mask in masks],
                       factors, n_actions)
    if rng is not None:
        for u in model.source_flow.units + model.target_flow.units:
            glorot_subnets(rng, u)
        glorot_fill(rng, [w for _, w in model.transform.parameters()[:3]])
    return model


def pair_loglik(model: AgingModel, x_prev: np.ndarray, x_t: np.ndarray, action):
    """log p(x_t | x_prev, action): latent residual density plus logdet.

    The target latent z_t = target_flow(x_t) is modeled as the transform
    prediction plus a standard-normal innovation, so the conditional density
    is N(z_t - pred; 0, I) times |det dz_t/dx_t|.
    """
    xp = np.asarray(x_prev, dtype=np.float64)
    xt = np.asarray(x_t, dtype=np.float64)
    if xp.shape != xt.shape:
        raise ShapeError("both observations must share a shape")
    single = xp.ndim == 1
    z_prev, _ = flow_forward(model.source_flow, xp)
    z_t, logdet = flow_forward(model.target_flow, xt)
    pred = transform_apply(model.transform, z_prev, action)
    loglik = standard_normal_loglik(z_t - pred) + logdet
    return float(loglik) if single else loglik


def controller_gaussian_penalty(w_act: np.ndarray, actions) -> tuple[float, np.ndarray]:
    """Mean Gaussian log-likelihood of the batch's controller latents, and its
    gradient with respect to `w_act`, as (value, dw_act).

    Moments are the batch mean and population variance of z_a = W_act·a,
    with a variance floor (`VAR_FLOOR`) for degenerate single-action batches.  The value
    is maximized by the training objective.
    """
    w_act = np.asarray(w_act, dtype=np.float64)
    idx = _action_indices(actions, w_act.shape[1])
    n = idx.size
    if n < 2:
        raise InsufficientDataError("controller penalty needs at least 2 actions")
    za = w_act[:, idx].T                     # (N, f)
    mu = za.mean(axis=0)
    centered = za - mu
    raw_var = (centered * centered).mean(axis=0)
    var = np.maximum(raw_var, VAR_FLOOR)
    # value = mean_i log N(za_i; mu, diag(var)) = sum_d [-0.5 log(2 pi var_d)
    #         - raw_var_d / (2 var_d)]
    val = float(gaussian_loglik(za, mu, var).mean())
    # d val / d za[i, d] = -(za[i, d] - mu_d) / (n * var_d) in both the
    # floored and unfloored branches.
    dza = -centered / (n * var)
    dw_act = np.zeros_like(w_act)
    np.add.at(dw_act, (slice(None), idx), dza.T)
    return val, dw_act


def pair_objective_and_grads(model: AgingModel, x_prev: np.ndarray, x_t: np.ndarray,
                             actions, constraint_weight: float = 0.001):
    """Loss = -mean pair_loglik - weight * controller penalty, with gradients.

    Gradients are aligned with ``model.parameters()``.  A zero constraint
    weight skips the penalty entirely, decoupling the two terms (and allowing
    singleton batches, whose controller variance would be undefined).
    """
    xp = np.atleast_2d(np.asarray(x_prev, dtype=np.float64))
    xt = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    if xp.shape != xt.shape or xp.shape[0] == 0:
        raise ShapeError("expected non-empty matching observation batches")
    n = xp.shape[0]
    idx = _action_indices(actions, model.n_actions)
    if idx.size != n:
        raise ShapeError("one action per observation pair is required")

    z, logdet, caches = flow_forward_cached(model.flows, np.stack([xp, xt]))
    z_prev, z_t = z
    pred = transform_apply(model.transform, z_prev, idx)
    r = z_t - pred
    loglik = standard_normal_loglik(r) + logdet[1]
    bad = np.flatnonzero(~np.isfinite(loglik))
    if bad.size:
        raise NumericError(f"non-finite pair log-likelihood at sample {bad[0]}")
    loss = float(-loglik.mean())

    # d loss / d z_t = r / n ; d loss / d logdet = -1/n ; d loss / d pred = -r/n
    tr_grads, dz_prev = transform_backward(model.transform, z_prev, idx, -r / n)
    flow_grads, _ = flow_backward(model.flows, caches, np.stack([dz_prev, r / n]),
                                  np.stack([np.zeros(n), np.full(n, -1.0 / n)]))

    if constraint_weight != 0.0:
        pen, dw_act = controller_gaussian_penalty(model.transform.w_act, idx)
        loss -= constraint_weight * pen
        tr_grads[2] = tr_grads[2] - constraint_weight * dw_act
    return loss, flow_grads + tr_grads


def train_pair_step(model: AgingModel, optimizer: Adam, x_prev: np.ndarray,
                    x_t: np.ndarray, actions, constraint_weight: float = 0.001) -> float:
    """One optimizer step on the pair objective; returns the loss before it."""
    loss, grads = pair_objective_and_grads(model, x_prev, x_t, actions,
                                           constraint_weight)
    optimizer.step(grads)
    return loss


def synthesize_step(model: AgingModel, x_prev: np.ndarray, action) -> np.ndarray:
    """Decode the transform prediction: x_t = target_flow⁻¹(pred).

    This is the deterministic conditional mode, bit-reproducible across calls.
    """
    z_prev, _ = flow_forward(model.source_flow, x_prev)
    pred = transform_apply(model.transform, z_prev, action)
    return flow_inverse(model.target_flow, pred)
