"""Numerical checks of the modulated-descent theory and landscape geometry.

`verify_contraction` simulates scaled gradient descent on a quadratic and
checks the per-eigendirection recursion alpha_i(t+1) = (1 - eta*xi_t*lambda_i)
* alpha_i(t) step by step (exact for quadratics, whose Hessian is constant).
`sharpness` estimates the maximal loss increase within a parameter ball via
random probes refined by projected gradient ascent; restricted to the fusion
block, it encodes the batch once per call and evaluates only the fusion layer
and its criterion after that. The objective keeps one memo slot, the block,
the bytes and the loss of its latest gradient point (no tape), so the loss
the ascent asks at that point costs no second forward pass. `landscape_slice`
exports a 2-D loss surface along block-normalized random directions, and
`computational_cost` implements the epochs-to-threshold x FLOPs-per-epoch
efficiency metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError
from .model import (
    Batch,
    MultimodalModel,
    bind_params,
    forward_full,
    fused_logits,
    head_loss_share,
    probe_logits,
    step_latents,
)
from .tensor import Tape, Tensor, backward, softmax_cross_entropy
from .util import (
    STREAM_CONTRACTION,
    STREAM_LANDSCAPE,
    STREAM_SHARPNESS,
    seeded_rng,
)

# ---------------------------------------------------------------------------
# parameter flattening and model objectives


def _as_batch(data) -> Batch:
    return data.train if hasattr(data, "train") else data


def _fusion_spans(spans):
    return [span for span in spans if MultimodalModel.group_of(span[0]) == "fusion"]


def _checked_point(w) -> np.ndarray:
    """An evaluation point as a new float64 vector, checked for finiteness
    once; the parameters sliced from it are bound unchecked."""
    w = np.array(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NumericError("non-finite values in the evaluation point")
    return w


def model_objective(model: MultimodalModel, data):
    """(loss_fn, grad_fn, w0, spans) for the full training objective on a batch.

    Works on an internal clone, so the caller's model is never touched, and
    evaluates each point on a model of that clone's layout holding a copy of
    the point, so no evaluation writes into the clone. The gradient treats
    the loss as one scalar function of all parameters (probe detachment is
    lifted): detached heads make the training gradient field
    non-conservative, which would break Hessian symmetry and exact ascent.
    The loss values themselves are identical either way.

    `loss_fn(w, block="fusion")` and `grad_fn(w, block="fusion")` take the
    fusion sub-vector (the fusion spans in order) with every other parameter
    held at w0. That mode encodes once: the concatenated per-step latents and
    the head-loss share are computed on its first call and reused, and each
    evaluation runs only the fusion layer and the fused criterion, on a tape
    that holds only the fusion parameters. Its values equal the full-vector
    path's bit for bit. Each tape binds its block's parameters in span order,
    so `grad_fn` returns `backward`'s vector as it comes.

    One memo slot holds the block, the point's bytes and the loss of the
    latest `grad_fn` call that returned; no tape is kept. `loss_fn` at the
    same block and the same bytes returns that loss, which is the value its
    own forward pass would give. Any other point, even one equal under `==`
    such as -0.0 for 0.0, runs forward as before.
    """
    batch = _as_batch(data)
    work = model.clone()
    work.cfg = replace(work.cfg, head_mode="joint")
    spans, w0 = work.spans, work.flat.copy()
    fusion = _fusion_spans(spans)
    fixed = {}

    def at(w: np.ndarray) -> MultimodalModel:
        return work.holding(_checked_point(w))

    def fusion_loss(ws: np.ndarray, tape: Tape | None, block: str):
        if block != "fusion":
            raise ContractError(f"block must be 'fusion' or 'all', got {block!r}")
        if not fixed:
            leaves = bind_params(work, None)
            latents = step_latents(batch, work, leaves)
            heads = [softmax_cross_entropy(probe_logits(z, name, work, leaves), batch.y)[0]
                     for z, name in zip(latents, ("head_a", "head_v"))]
            fixed.update(cat=T.concat_cols(*latents), head=head_loss_share(*heads, work.cfg))
        ws, leaves, offset = _checked_point(ws), {}, 0
        for pid, start, stop, shape in fusion:
            leaf = Tensor._checked(ws[offset:offset + stop - start].reshape(shape))
            leaves[pid] = leaf if tape is None else tape.leaf(leaf, param_id=pid)
            offset += stop - start
        loss_av, _ = softmax_cross_entropy(fused_logits(fixed["cat"], work, leaves), batch.y)
        return T.add(loss_av, fixed["head"])

    last = None  # (block, point bytes, loss) of the latest gradient evaluation

    def loss_fn(w: np.ndarray, *, block: str = "all") -> float:
        w = np.asarray(w, dtype=np.float64)
        if last is not None and last[:2] == (block, w.tobytes()):
            return last[2]
        if block == "all":
            return forward_full(batch, at(w), tape=None).loss.item()
        return fusion_loss(w, None, block).item()

    def grad_fn(w: np.ndarray, *, block: str = "all") -> np.ndarray:
        nonlocal last
        w = np.asarray(w, dtype=np.float64)
        tape = Tape()
        loss = (forward_full(batch, at(w), tape).loss if block == "all"
                else fusion_loss(w, tape, block))
        grad = backward(tape, loss)
        last = (block, w.tobytes(), loss.item())
        return grad

    return loss_fn, grad_fn, w0, spans


# ---------------------------------------------------------------------------
# contraction check


@dataclass
class QuadraticProblem:
    """Quadratic bowl with loss 0.5 * sum_i lambda_i * alpha_i^2 and its minimizer at
    the origin.

    alpha are coordinates of the parameters in the eigenbasis; a rotation seed
    draws a random orthogonal basis, None keeps the coordinate basis.
    """

    eigenvalues: list[float]
    alpha0: list[float]
    eta: float
    xi_schedule: list[float]
    rotation_seed: int | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.size == 0 or np.any(lam <= 0.0):
            raise ContractError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0.0):
            raise ContractError("eigenvalues must be sorted ascending")
        if len(self.alpha0) != lam.size:
            raise ContractError("alpha0 must match the eigenvalue count")
        if not self.eta > 0.0:
            raise ContractError("eta must be positive")
        if len(self.xi_schedule) == 0:
            raise ContractError("xi schedule must be non-empty")
        if any(x <= 0.0 for x in self.xi_schedule):
            raise ContractError("xi values must be positive")


@dataclass
class ContractionReport:
    passed: bool
    diverged: bool
    max_residual: float
    tolerance: float
    step_cases: list[str] = field(repr=False)
    norm_trace: list[float] = field(repr=False)


def _orthogonal_basis(d: int, seed: int | None) -> np.ndarray:
    if seed is None:
        return np.eye(d)
    q, r = np.linalg.qr(seeded_rng(seed, STREAM_CONTRACTION).standard_normal((d, d)))
    return q * np.sign(np.diag(r))  # fix the sign convention for determinism


def verify_contraction(problem: QuadraticProblem, steps: int | None = None,
                       tolerance: float = 1e-10) -> ContractionReport:
    """Simulate w <- w - eta*xi_t*grad on the quadratic and check the recursion.

    The expected per-direction factor is (1 - eta*xi_t*lambda_i); each step
    also gets a case label comparing the scaled step eta*xi*lambda against the
    plain eta*lambda. A violated stability bound is reported as divergence,
    not as failure.
    """
    lam = np.asarray(problem.eigenvalues, dtype=np.float64)
    d = lam.size
    if steps is None:
        steps = len(problem.xi_schedule)
    xis = [problem.xi_schedule[t % len(problem.xi_schedule)] for t in range(steps)]
    basis = _orthogonal_basis(d, problem.rotation_seed)
    hessian = basis @ np.diag(lam) @ basis.T
    alpha = np.asarray(problem.alpha0, dtype=np.float64)
    w = basis @ alpha

    diverged = bool(problem.eta * max(xis) * lam[-1] >= 2.0)
    norms = [float(np.linalg.norm(alpha))]
    cases = []
    max_residual = 0.0
    for xi in xis:
        grad = hessian @ w
        w = w - problem.eta * xi * grad
        alpha_next = basis.T @ w
        expected = (1.0 - problem.eta * xi * lam) * alpha
        max_residual = max(max_residual, float(np.max(np.abs(alpha_next - expected))))
        cases.append("reduced" if xi < 1.0 else ("equal" if xi == 1.0 else "amplified"))
        alpha = alpha_next
        norms.append(float(np.linalg.norm(alpha)))
    passed = bool((not diverged) and max_residual <= tolerance)
    return ContractionReport(
        passed=passed,
        diverged=diverged,
        max_residual=max_residual,
        tolerance=tolerance,
        step_cases=cases,
        norm_trace=norms,
    )


# ---------------------------------------------------------------------------
# sharpness


@dataclass
class SharpnessReport:
    base_loss: float
    increase: float
    n_probes: int
    ball_radius: float
    per_probe: list[float] = field(repr=False, default_factory=list)


def sharpness_of(loss_fn, grad_fn, w0: np.ndarray, ball_radius: float, n_probes: int = 8,
                 ascent_steps: int = 20, seed: int = 0) -> SharpnessReport:
    """Estimate max loss increase on the radius-rho sphere around w0.

    Each probe starts from a random direction and runs normalized gradient
    ascent re-projected onto the sphere (the maximum of a locally convex loss
    sits on the boundary); the best increase over all evaluations wins. Probes
    draw from one sequential stream, so enlarging n_probes only appends
    probes and can never lower the estimate.

    At each point the gradient is asked before the loss, on the same array, so
    an objective that remembers its gradient's forward pass (`model_objective`)
    answers the loss from it; a probe's last point gets a loss only. A call
    makes 1 + n_probes·(1 + S) loss and n_probes·S gradient evaluations, S =
    ascent_steps, and so runs 1 + n_probes·(1 + S) forward passes on such an
    objective, where asking the loss first ran 1 + n_probes·(1 + 2S).
    """
    if not ball_radius > 0.0:
        raise ContractError("ball radius must be positive")
    if n_probes < 1 or ascent_steps < 0:
        raise ContractError("need n_probes >= 1 and ascent_steps >= 0")
    rng = seeded_rng(seed, STREAM_SHARPNESS)
    base = float(loss_fn(w0))
    dim = w0.size
    per_probe = []
    for _ in range(n_probes):
        eps = rng.standard_normal(dim)
        eps *= ball_radius / np.linalg.norm(eps)
        point = w0 + eps
        g = grad_fn(point) if ascent_steps > 0 else None
        best = float(loss_fn(point)) - base
        for step in range(1, ascent_steps + 1):
            gn = float(np.linalg.norm(g))
            if gn < 1e-18:
                break
            eps = eps + (ball_radius / gn) * g
            eps *= ball_radius / np.linalg.norm(eps)
            point = w0 + eps
            g = grad_fn(point) if step < ascent_steps else None
            best = max(best, float(loss_fn(point)) - base)
        per_probe.append(best)
    return SharpnessReport(
        base_loss=base,
        increase=max(per_probe),
        n_probes=n_probes,
        ball_radius=ball_radius,
        per_probe=per_probe,
    )


def sharpness(model: MultimodalModel, data, ball_radius: float, n_probes: int = 8,
              ascent_steps: int = 20, seed: int = 0, blocks: str = "fusion") -> SharpnessReport:
    """Sharpness of the training objective around the model's parameters.

    blocks="fusion" perturbs the fusion layer only (the quantity the
    modulation theory speaks about) and runs the encoders once per call, through
    the objective's fusion mode; blocks="all" perturbs every parameter.
    """
    if blocks not in ("fusion", "all"):
        raise ContractError("blocks must be 'fusion' or 'all'")
    loss_fn, grad_fn, w0, spans = model_objective(model, data)
    if blocks == "fusion":
        w0 = np.concatenate([w0[start:stop] for _, start, stop, _ in _fusion_spans(spans)])
    return sharpness_of(partial(loss_fn, block=blocks), partial(grad_fn, block=blocks), w0,
                        ball_radius, n_probes, ascent_steps, seed)


# ---------------------------------------------------------------------------
# 2-D loss slices


def landscape_grid_of(loss_fn, w0: np.ndarray, blocks: list[tuple[int, int]], grid_n: int,
                      extent: float, seed: int = 0):
    """Loss on a grid over two random directions, each block rescaled to the
    parameter block's norm (zero-norm blocks keep a zero direction)."""
    if grid_n < 3 or grid_n % 2 == 0:
        raise ContractError("grid_n must be an odd integer >= 3")
    if extent < 0.0:
        raise ContractError("extent must be non-negative")
    rng = seeded_rng(seed, STREAM_LANDSCAPE)

    def direction() -> np.ndarray:
        d = rng.standard_normal(w0.size)
        for start, stop in blocks:
            wn = np.linalg.norm(w0[start:stop])
            dn = np.linalg.norm(d[start:stop])
            d[start:stop] *= 0.0 if wn == 0.0 else wn / (dn if dn > 0.0 else 1.0)
        return d

    d1, d2 = direction(), direction()
    coords = np.linspace(-extent, extent, grid_n)
    values = [loss_fn(w0 + coords[ix] * d1 + coords[iy] * d2)
              for ix in range(grid_n) for iy in range(grid_n)]
    grid = np.asarray(values, dtype=np.float64).reshape(grid_n, grid_n)
    return coords, coords.copy(), grid


def landscape_slice(model: MultimodalModel, data, grid_n: int, extent: float, seed: int = 0):
    """2-D slice of the training objective around the model's parameters."""
    loss_fn, _, w0, spans = model_objective(model, data)
    blocks = [(start, stop) for _, start, stop, _ in spans]
    return landscape_grid_of(loss_fn, w0, blocks, grid_n, extent, seed)


# ---------------------------------------------------------------------------
# computational cost


@dataclass
class CostReport:
    thresholds: list[float]
    epochs_to_threshold: dict[str, list[int]]
    omega: dict[str, float]
    cost: dict[str, float]
    unreached: dict[str, list[bool]]


def computational_cost(error_curves: dict[str, list[float]], flops: dict[str, float],
                       n_thresholds: int = 5) -> CostReport:
    """Mean over thresholds of (first epoch at or below it) x FLOPs per epoch.

    Thresholds run uniformly from the smallest per-method maximum error down
    to the largest per-method minimum, so every method can reach every level.
    """
    if len(error_curves) < 2:
        raise ContractError("cost comparison needs at least two methods")
    if set(error_curves) != set(flops):
        raise ContractError("error curves and FLOPs must describe the same methods")
    if n_thresholds < 1:
        raise ContractError("need at least one threshold")
    for name, curve in error_curves.items():
        if len(curve) == 0:
            raise ContractError(f"error curve for {name!r} is empty")
    upper = min(max(curve) for curve in error_curves.values())
    lower = max(min(curve) for curve in error_curves.values())
    if upper <= lower:
        raise ContractError(
            f"degenerate threshold range: upper bound {upper!r} <= lower bound {lower!r}"
        )
    thresholds = [float(t) for t in np.linspace(upper, lower, n_thresholds)]
    epochs: dict[str, list[int]] = {}
    unreached: dict[str, list[bool]] = {}
    cost: dict[str, float] = {}
    for name, curve in error_curves.items():
        reached_epochs = []
        missed = []
        for thr in thresholds:
            hit = next((i + 1 for i, err in enumerate(curve) if err <= thr), None)
            missed.append(hit is None)
            reached_epochs.append(hit if hit is not None else len(curve))
        epochs[name] = reached_epochs
        unreached[name] = missed
        cost[name] = (sum(reached_epochs) / n_thresholds) * float(flops[name])
    return CostReport(thresholds=thresholds, epochs_to_threshold=epochs, omega=dict(flops),
                      cost=cost, unreached=unreached)
