"""Damped (Levenberg-style) nonlinear least squares with box bounds.

One engine backs every curve fit in the package. Physics lineshapes and
transition-probability curves register a :class:`PhysicsModel` and go
through :func:`fit_model`; ``analytic.fit_histogram`` shares its weighted
residual (:func:`_weighted_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SINGULAR_JACOBIAN = "singular_jacobian"

# an accepted step converges when its relative step or cost change is below
STEP_TOL = 1e-8
COST_TOL = 1e-10


@dataclass
class FitResult:
    """Best-fit parameters with 1-sigma uncertainties and diagnostics.

    ``sigmas`` come from the diagonal of the inverse approximate Hessian
    (J^T J)^-1 scaled by the reduced chi-square. ``residual_norm`` is the
    Euclidean norm of the weighted residual vector at the solution.
    """

    params: np.ndarray
    sigmas: np.ndarray
    residual_norm: float
    n_iterations: int
    converged: bool
    status: str = STATUS_CONVERGED


@dataclass(frozen=True)
class PhysicsModel:
    """A named curve y = f(x, params) with per-parameter finite bounds."""

    model_id: str
    param_names: tuple[str, ...]
    param_units: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.param_names) != len(self.bounds) or len(self.param_units) != len(self.bounds):
            raise ValueError("parameter names, units and bounds must have equal length")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds for {self.model_id} must be finite with lower < upper")

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def __call__(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), np.asarray(params, dtype=float))


MODEL_REGISTRY: dict[str, PhysicsModel] = {}


def register_model(model: PhysicsModel) -> PhysicsModel:
    MODEL_REGISTRY[model.model_id] = model
    return model


def get_model(model_id: str) -> PhysicsModel:
    try:
        return MODEL_REGISTRY[model_id]
    except KeyError:
        raise KeyError(
            f"unknown model {model_id!r}; registered: {sorted(MODEL_REGISTRY)}"
        ) from None


def _jacobian(residual_fn, x, r0, lo, hi):
    """Forward-difference Jacobian, stepping inward at the upper bound."""
    p = x.size
    jac = np.empty((r0.size, p))
    for i in range(p):
        step = np.sqrt(np.finfo(float).eps) * (abs(x[i]) + 1e-3 * (hi[i] - lo[i]))
        xp = x.copy()
        if x[i] + step > hi[i]:
            xp[i] = x[i] - step
            jac[:, i] = (r0 - residual_fn(xp)) / step
        else:
            xp[i] = x[i] + step
            jac[:, i] = (residual_fn(xp) - r0) / step
    return jac


def least_squares_damped(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    max_iterations: int = 200,
) -> FitResult:
    """Minimise ||residual_fn(x)||^2 over the box given by ``bounds``.

    Classic Marquardt damping on the normal equations; proposed steps are
    clipped to the box. The stops, in the order tested: a non-finite or
    all-zero J^T J is ``singular_jacobian``; a zero gradient is
    ``converged``; a failed damped solve is ``singular_jacobian``; an
    accepted step whose relative parameter change is below ``STEP_TOL`` or
    relative cost change below ``COST_TOL`` is ``converged``; a search in
    which no damped step lowers the cost reports ``max_iterations``, as
    does running out of iterations. Sigmas that cannot be formed at the
    returned point make the status ``singular_jacobian``.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if not np.all((lo <= x) & (x <= hi)):  # a NaN is outside too
        raise ValueError("initial parameters outside declared bounds")

    r = residual_fn(x)
    cost = float(r @ r)
    jac = _jacobian(residual_fn, x, r, lo, hi)  # always the Jacobian at x
    lam = 1e-3  # dimensionless Marquardt damping on diag(J^T J)
    status = STATUS_MAX_ITERATIONS
    n_iter = 0

    for n_iter in range(1, max_iterations + 1):
        hess = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(hess).copy()
        if not np.all(np.isfinite(hess)) or np.max(diag) <= 0.0:
            status = STATUS_SINGULAR_JACOBIAN
            break
        if np.max(np.abs(grad)) == 0.0:
            status = STATUS_CONVERGED
            break
        diag_floor = np.maximum(diag, 1e-32 * np.max(diag))
        # solve in the column-scaled basis so wildly different parameter
        # magnitudes (joules next to kelvin) do not wreck conditioning
        scale = np.sqrt(diag_floor)
        hess_s = hess / np.outer(scale, scale)
        grad_s = grad / scale

        while lam < 1e15:
            try:
                z = np.linalg.solve(hess_s + lam * np.diag(np.diag(hess_s)), -grad_s)
            except np.linalg.LinAlgError:
                status = STATUS_SINGULAR_JACOBIAN
                break
            delta = z / scale
            x_new = np.clip(x + delta, lo, hi)
            r_new = residual_fn(x_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                actual_step = x_new - x
                rel_step = np.max(np.abs(actual_step) / (np.abs(x) + 1e-300))
                rel_cost = abs(cost - cost_new) / max(cost, 1e-300)
                x, r, cost = x_new, r_new, cost_new
                jac = _jacobian(residual_fn, x, r, lo, hi)
                lam = max(lam / 3.0, 1e-12)
                if rel_step < STEP_TOL or rel_cost < COST_TOL:
                    status = STATUS_CONVERGED
                break
            lam *= 4.0
        else:
            break  # no damped step lowered the cost
        if status != STATUS_MAX_ITERATIONS:
            break

    sigmas = _parameter_sigmas(jac, r)
    if sigmas is None:
        status = STATUS_SINGULAR_JACOBIAN
        sigmas = np.full(x.size, np.nan)
    return FitResult(
        params=x,
        sigmas=sigmas,
        residual_norm=float(np.linalg.norm(r)),
        n_iterations=n_iter,
        converged=status == STATUS_CONVERGED,
        status=status,
    )


def _parameter_sigmas(jac, r):
    """1-sigma uncertainties from (J^T J)^-1 scaled by reduced chi-square.

    Conditioning is judged on the column-scaled (correlation-like) matrix,
    which is invariant to parameter units.
    """
    hess = jac.T @ jac
    m, p = jac.shape
    if not np.all(np.isfinite(hess)):
        return None
    diag = np.diag(hess)
    if np.any(diag <= 0.0):
        return None
    scale = np.sqrt(diag)
    hess_s = hess / np.outer(scale, scale)
    cond = np.linalg.cond(hess_s)
    if not np.isfinite(cond) or cond > 1e14:
        return None
    cov = np.linalg.inv(hess_s) / np.outer(scale, scale)
    chi2_red = float(r @ r) / max(m - p, 1)
    var = np.diag(cov) * chi2_red
    return np.sqrt(np.maximum(var, 0.0))


def fit_model(
    model: PhysicsModel | str,
    x: Sequence[float],
    y: Sequence[float],
    init: Sequence[float],
    weights: Sequence[float] | None = None,
    max_iterations: int = 200,
) -> FitResult:
    """Weighted least-squares fit of a registered model to (x, y) data.

    ``init`` holds one value per model parameter. ``weights`` are inverse
    variances (unit weights by default; use :func:`poisson_weights` for
    count data). Non-finite x, y or weights raise ``ValueError``.
    Non-convergence within ``max_iterations`` returns a result with
    ``converged=False``; a singular Jacobian is reported through ``status``.
    """
    if isinstance(model, str):
        model = get_model(model)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    if x.size < model.n_params:
        raise ValueError("need at least as many points as parameters")
    if np.shape(init) != (model.n_params,):
        raise ValueError(
            f"model {model.model_id!r} takes {model.n_params} parameters "
            f"({', '.join(model.param_names)}), init has {np.size(init)}"
        )
    return _weighted_fit(model, x, y, weights, init, model.bounds, max_iterations)


def _weighted_fit(fn, x, y, weights, x0, bounds, max_iterations, names=("x", "y")):
    """Fit fn(x, theta) to y, residuals sqrt(weights) * (fn(x, theta) - y) with
    ``weights`` inverse variances (unit when None); ``names`` name x and y."""
    for name, values in zip(names, (x, y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if weights is None:
        sqrt_w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape or not np.all((w >= 0) & (w < np.inf)):
            raise ValueError("weights must be finite, non-negative and match y")
        sqrt_w = np.sqrt(w)

    def residual(theta):
        return sqrt_w * (fn(x, theta) - y)

    return least_squares_damped(residual, x0, bounds, max_iterations=max_iterations)


def poisson_weights(counts: Sequence[float]) -> np.ndarray:
    """Inverse-variance weights for count data, variance = max(count, 1)."""
    c = np.asarray(counts, dtype=float)
    return 1.0 / np.maximum(c, 1.0)
