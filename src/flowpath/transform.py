"""Aging transformation with a factored 3-way controller interaction.

The transform maps a source latent and a one-hot age action to a predicted
target latent: pred = W_out (W_lat z ⊙ W_act a) + bias.  Because the action
is one-hot, each action selects one column of W_act, i.e. its own gating of
the factor space.  The full 3-way tensor this factorizes is only ever
represented implicitly.

A pair model bundles two independent coupling stacks (source and target
encoders) with one transform; the conditional likelihood of a target
observation given a source observation and an action is the standard-normal
density of the latent residual plus the target encoder's change-of-variables
term.  The two stacks are also held as one `FlowPair`, so training runs both
encoders in one pass.  Inference paths are read-only on parameters;
training steps need exclusive access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, NumericError, ShapeError, ValidationError
from .flows import (
    BijectionStack,
    FlowPair,
    flow_backward,
    flow_forward,
    flow_forward_cached,
    flow_inverse,
    gaussian_loglik,
    make_flow,
    standard_normal_loglik,
)
from .nets import Adam, glorot_uniform

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
    def factors(self) -> int:
        return self.w_out.shape[1]

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


def make_transform(rng: np.random.Generator, dim: int,
                   n_actions: int = DEFAULT_NUM_ACTIONS, factors: int = 32
                   ) -> FactoredTransform:
    return FactoredTransform(
        glorot_uniform(rng, dim, factors),
        glorot_uniform(rng, factors, dim),
        glorot_uniform(rng, factors, n_actions),
        np.zeros(dim),
    )


def _action_indices(actions, n_actions: int) -> np.ndarray:
    """Accept ints, arrays of ints, or one-hot vectors; return index array."""
    a = np.asarray(actions)
    if a.ndim >= 1 and a.shape[-1] == n_actions and a.dtype.kind == "f":
        onehot = a.reshape(-1, n_actions)
        if not np.all(np.isin(onehot, (0.0, 1.0))) or not np.all(onehot.sum(axis=1) == 1.0):
            raise ValidationError("action vectors must be exactly one-hot")
        idx = onehot.argmax(axis=1)
        return idx if a.ndim == 2 else idx[:1]
    idx = np.atleast_1d(a).astype(np.int64)
    if np.any(idx < 0) or np.any(idx >= n_actions):
        raise ValidationError(f"action index out of range [0, {n_actions})")
    return idx


def one_hot(index: int, n_actions: int = DEFAULT_NUM_ACTIONS) -> np.ndarray:
    v = np.zeros(n_actions)
    v[index] = 1.0
    return v


def transform_apply(g: FactoredTransform, z_prev: np.ndarray, action) -> np.ndarray:
    """Predicted target latent.  Depends only on W_act's selected column."""
    z = np.asarray(z_prev, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.shape[1] != g.dim:
        raise ShapeError(f"latent dim {zb.shape[1]} != transform dim {g.dim}")
    idx = _action_indices(action, g.n_actions)
    if idx.size == 1 and zb.shape[0] > 1:
        idx = np.repeat(idx, zb.shape[0])
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


@dataclass
class GaussianMoments:
    """First and second moments, plus the optional lagged cross-covariance.

    Construction enforces symmetry only; `validate()` additionally requires a
    non-negative diagonal.  The distinction matters because the truncated
    covariance recursion in `propagate_moments` can legitimately leave the
    PSD cone, while moments used as actual Gaussian parameters must not.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cross: np.ndarray | None = None  # Cov(current, previous)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.covariance = np.asarray(self.covariance, dtype=np.float64)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise ShapeError("covariance shape does not match mean length")
        if not np.allclose(self.covariance, self.covariance.T):
            raise ValidationError("covariance must be symmetric")

    def validate(self) -> None:
        if np.any(np.diag(self.covariance) < 0):
            raise ValidationError("covariance diagonal must be non-negative")

    @property
    def cross_rev(self) -> np.ndarray | None:
        """Cov(previous, current): exactly the transpose of `cross`."""
        return None if self.cross is None else self.cross.T


def propagate_moments(prev: GaussianMoments, action_moments: GaussianMoments,
                      residual_mean: np.ndarray, g: FactoredTransform
                      ) -> GaussianMoments:
    """Push latent moments through the factored transform, formulas as written.

    mean' = W_out (W_lat mean ⊙ mean_a) + bias + residual_mean
    cov'  = W_out [W_lat cov W_latᵀ ⊙ cov_a
                   - (W_lat mean)(W_lat mean)ᵀ ⊙ mean_a mean_aᵀ] W_outᵀ
    cross = W_out (W_lat cov ⊙ mean_a 1ᵀ)

    The covariance recursion drops the cross terms of an exact Hadamard
    product of independent Gaussians and the additive residual covariance;
    only the mean is exact (checked against Monte Carlo).
    """
    d, f = g.w_out.shape
    if prev.mean.size != d:
        raise ShapeError(f"previous moments have dim {prev.mean.size}, expected {d}")
    if action_moments.mean.size != f:
        raise ShapeError(f"controller moments have dim {action_moments.mean.size}, expected {f}")
    residual_mean = np.asarray(residual_mean, dtype=np.float64)
    if residual_mean.shape != (d,):
        raise ShapeError("residual mean must have the latent dimension")
    mu_a = action_moments.mean
    wl_mu = g.w_lat @ prev.mean
    mean = g.w_out @ (wl_mu * mu_a) + g.bias + residual_mean
    inner = (g.w_lat @ prev.covariance @ g.w_lat.T) * action_moments.covariance \
        - np.outer(wl_mu, wl_mu) * np.outer(mu_a, mu_a)
    cov = g.w_out @ inner @ g.w_out.T
    cov = 0.5 * (cov + cov.T)
    cross = g.w_out @ ((g.w_lat @ prev.covariance) * mu_a[:, None])
    return GaussianMoments(mean, cov, cross)


class AgingModel:
    """Source/target coupling stacks plus the factored controller transform."""

    def __init__(self, source_flow: BijectionStack, target_flow: BijectionStack,
                 transform: FactoredTransform):
        if source_flow.dim != target_flow.dim or source_flow.dim != transform.dim:
            raise ShapeError("flows and transform must share the observation dim")
        self.source_flow = source_flow
        self.target_flow = target_flow
        self.transform = transform
        self.flows = FlowPair(source_flow, target_flow)

    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_actions(self) -> int:
        return self.transform.n_actions

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """What an optimizer steps: the flows' stacked arrays, then the transform's.

        Checkpoints store each attribute's own `parameters()` instead.
        """
        return self.flows.parameters("flows.") + self.transform.parameters("transform.")


def make_aging_model(rng: np.random.Generator, dim: int,
                     n_actions: int = DEFAULT_NUM_ACTIONS, flow_units: int = 10,
                     hidden: int = 32, clamp: float = 2.0, factors: int = 32
                     ) -> AgingModel:
    return AgingModel(
        make_flow(rng, dim, flow_units, hidden, clamp),
        make_flow(rng, dim, flow_units, hidden, clamp),
        make_transform(rng, dim, n_actions, factors),
    )


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
    r = z_t - pred
    if single:
        return float(gaussian_loglik(r, 0.0, 1.0) + logdet)
    return standard_normal_loglik(r) + logdet


def controller_gaussian_penalty(w_act: np.ndarray, actions, var_floor: float = VAR_FLOOR
                                ) -> float:
    """Mean Gaussian log-likelihood of the batch's controller latents.

    Moments are the batch mean and population variance of z_a = W_act·a,
    with a variance floor for degenerate single-action batches.  The value
    is maximized by the training objective.
    """
    val, _ = _penalty_and_grad(np.asarray(w_act, dtype=np.float64), actions, var_floor)
    return val


def _penalty_and_grad(w_act: np.ndarray, actions, var_floor: float):
    idx = _action_indices(actions, w_act.shape[1])
    n = idx.size
    if n < 2:
        raise InsufficientDataError("controller penalty needs at least 2 actions")
    za = w_act[:, idx].T                     # (N, f)
    mu = za.mean(axis=0)
    centered = za - mu
    raw_var = (centered * centered).mean(axis=0)
    var = np.maximum(raw_var, var_floor)
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
                             actions, constraint_weight: float = 0.001,
                             var_floor: float = VAR_FLOOR):
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
        pen, dw_act = _penalty_and_grad(model.transform.w_act, idx, var_floor)
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
