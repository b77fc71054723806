"""Closed-form signal-average distributions and analytic fidelity.

The window-averaged signal of a relaxing two-level (or three-level)
system is a Gaussian for the singlet, and for each triplet a survival
Gaussian plus a decay tail: averaging a trace that switches from the
triplet level to the singlet level at an exponentially distributed time
smears mass between the two voltages. Fidelities follow from the exact
CDFs of these densities at an optimised threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import quad  # noqa: F401  not called; perfbench's tracer patches this name
from scipy.optimize import minimize_scalar
from scipy.special import erf, erfcx, ndtr

from .fitting import least_squares_damped, poisson_weights
from .readout import ReadoutBasis

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DensityParams:
    """Parameters of the signal-average distribution.

    ``sigma0`` is the std at reference integration time ``t0``; the two
    relaxation times feed the T0 and T- components. Fractions are the
    preparation probabilities and must sum to one.
    """

    v_s: float
    v_t: float
    sigma0: float
    t0: float
    t1_t0: float
    t1_tm: float
    p_s: float
    p_t0: float
    p_tm: float

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.sigma0 <= 0 or self.t0 <= 0:
            raise ValueError("sigma0 and t0 must be > 0")
        if self.t1_t0 <= 0 or self.t1_tm <= 0:
            raise ValueError("relaxation times must be > 0")
        fr = (self.p_s, self.p_t0, self.p_tm)
        if any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-12:
            raise ValueError("fractions must be >= 0 and sum to 1")


@dataclass(frozen=True)
class AnalyticFidelityReport:
    """Fidelity metrics from the analytic distributions.

    ``f_m_star`` optimises the explicit overlap integrals; the closed-form
    estimate 0.5*[1 + erf(SNR/2sqrt2) exp(-Gamma t/2)] is reported for
    cross-checking only.
    """

    f_m_star: float
    v_m_star: float
    f_e_star: float
    v_threshold: float
    f_m_closed_form: float
    snr: float


def sigma_of_t(sigma0: float, t0: float, t) -> float:
    """White-noise std of a window average: sigma0 * sqrt(t0 / t)."""
    t = np.asarray(t, dtype=float)
    if sigma0 <= 0 or t0 <= 0:
        raise ValueError("sigma0 and t0 must be > 0")
    if np.any(t <= 0):
        raise ValueError("t must be > 0")
    out = sigma0 * np.sqrt(t0 / t)
    return float(out) if out.ndim == 0 else out


def _gauss(v, mu, sigma):
    return np.exp(-0.5 * ((v - mu) / sigma) ** 2) / (_SQRT2PI * sigma)


def singlet_density(v, t: float, p: DensityParams):
    """Gaussian at the singlet voltage with the window-averaged std."""
    sigma = sigma_of_t(p.sigma0, p.t0, t)
    out = _gauss(np.asarray(v, dtype=float), p.v_s, sigma)
    return float(out) if out.ndim == 0 else out


def _tail(v, v_s, v_t, sigma, k):
    """Decay-tail density for v_t > v_s, k = t/T1.

    Equivalent to k * int_0^1 exp(-k u) N(v; v_s + u (v_t - v_s), sigma) du.
    Written with erfcx so the exp/erf product never overflows: each branch
    multiplies a bounded scaled complement by an exponent that is <= 0.
    """
    dv = v_t - v_s
    g_s = k * sigma / (_SQRT2 * dv) + (v_s - v) / (_SQRT2 * sigma)
    g_t = k * sigma / (_SQRT2 * dv) + (v_t - v) / (_SQRT2 * sigma)
    pre_s = -0.5 * ((v - v_s) / sigma) ** 2
    pre_t = -k - 0.5 * ((v - v_t) / sigma) ** 2

    def scaled_term(g, pre):
        out = np.empty_like(g)
        pos = g >= 0.0
        out[pos] = np.exp(pre[pos]) * erfcx(g[pos])
        if np.any(~pos):
            # exp(E) erfc(g) = 2 exp(E) - exp(E - g^2) erfcx(-g); E < 0 here
            e = k * (v_s - v[~pos]) / dv + 0.5 * (k * sigma / dv) ** 2
            out[~pos] = 2.0 * np.exp(e) - np.exp(pre[~pos]) * erfcx(-g[~pos])
        return out

    return k / (2.0 * dv) * (scaled_term(g_s, pre_s) - scaled_term(g_t, pre_t))


def decay_tail(v, t: float, t1: float, p: DensityParams):
    """Density contribution of triplets that decayed inside the window."""
    if t <= 0 or t1 <= 0:
        raise ValueError("t and t1 must be > 0")
    if p.v_t == p.v_s:
        raise ValueError("decay tail is undefined for v_t == v_s")
    sigma = sigma_of_t(p.sigma0, p.t0, t)
    k = t / t1
    scalar = np.ndim(v) == 0
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if p.v_t > p.v_s:
        out = _tail(v, p.v_s, p.v_t, sigma, k)
    else:
        out = _tail(-v, -p.v_s, -p.v_t, sigma, k)
    return float(out[0]) if scalar else out


def triplet_density(v, t: float, t1: float, p: DensityParams):
    """Survival Gaussian at the triplet voltage plus the decay tail."""
    sigma = sigma_of_t(p.sigma0, p.t0, t)
    surv = math.exp(-t / t1) * _gauss(np.asarray(v, dtype=float), p.v_t, sigma)
    out = surv + decay_tail(v, t, t1, p)
    return float(out) if np.ndim(out) == 0 else out


def combined_density(v, t: float, p: DensityParams, mode: str):
    """Preparation-weighted mixture of the state densities.

    two_state: p_s * n_S + p_tm * n_T(t1_tm), requires p_t0 = 0;
    three_state: p_s * n_S + p_t0 * n_T(t1_t0) + p_tm * n_T(t1_tm).
    """
    if mode == "two_state":
        if p.p_t0 > 1e-12:
            raise ValueError("two_state mode requires p_t0 = 0")
        return p.p_s * singlet_density(v, t, p) + p.p_tm * triplet_density(v, t, p.t1_tm, p)
    if mode == "three_state":
        return (
            p.p_s * singlet_density(v, t, p)
            + p.p_t0 * triplet_density(v, t, p.t1_t0, p)
            + p.p_tm * triplet_density(v, t, p.t1_tm, p)
        )
    raise ValueError("mode must be 'two_state' or 'three_state'")


def electrical_fidelity(snr: float) -> float:
    """Relaxation-free fidelity limit 0.5 * [1 + erf(SNR / (2 sqrt 2))]."""
    return 0.5 * (1.0 + erf(snr / (2.0 * _SQRT2)))


def fidelity_from_snr(snr: float, gamma_t: float) -> float:
    """Closed-form two-state fidelity 0.5 [1 + erf(SNR/2sqrt2) e^(-Gamma t/2)]."""
    return 0.5 * (1.0 + erf(snr / (2.0 * _SQRT2)) * math.exp(-0.5 * gamma_t))


def _singlet_cdf(x, t: float, p: DensityParams):
    return ndtr((x - p.v_s) / sigma_of_t(p.sigma0, p.t0, t))


def _triplet_cdf(x, t: float, t1: float, p: DensityParams):
    """Exact CDF of :func:`triplet_density`.

    Integrating the decay tail by parts over the decay time gives
    Phi((x-v_s)/sigma) - e^-k Phi((x-v_t)/sigma) - (dv/k) tail(x), k = t/T1,
    for either sign of dv = v_t - v_s; the survival Gaussian's CDF
    e^-k Phi((x-v_t)/sigma) cancels the second of these terms. dv/k times the
    tail stays O(1) as k -> 0, so small k needs no special case.
    """
    return _singlet_cdf(x, t, p) - (p.v_t - p.v_s) / (t / t1) * decay_tail(x, t, t1, p)


def _class_cdfs(p: DensityParams, t: float, mode: str, basis: ReadoutBasis):
    """CDFs of the normalized low-group/high-group densities and the reference rate.

    The low group contains the singlet. For three-state parity the class
    weights are pinned to (0.25, 0.25, 0.5) so odd/even stay balanced.
    """
    if mode == "two_state":
        low = lambda x: _singlet_cdf(x, t, p)
        high = lambda x: _triplet_cdf(x, t, p.t1_tm, p)
        gamma_ref = 1.0 / p.t1_tm
    elif basis is ReadoutBasis.PARITY:
        low = lambda x: 0.5 * (_singlet_cdf(x, t, p) + _triplet_cdf(x, t, p.t1_t0, p))
        high = lambda x: _triplet_cdf(x, t, p.t1_tm, p)
        gamma_ref = 1.0 / p.t1_tm
    elif basis is ReadoutBasis.SINGLET_TRIPLET:
        w = p.p_t0 + p.p_tm
        if w <= 0:
            raise ValueError("singlet_triplet basis needs triplet fractions > 0")
        low = lambda x: _singlet_cdf(x, t, p)
        high = lambda x: (
            p.p_t0 * _triplet_cdf(x, t, p.t1_t0, p) + p.p_tm * _triplet_cdf(x, t, p.t1_tm, p)
        ) / w
        gamma_ref = 1.0 / p.t1_t0
    else:
        raise ValueError("basis must be parity or singlet_triplet")
    return low, high, gamma_ref


def analytic_fidelity(
    p: DensityParams, t: float, mode: str, basis: ReadoutBasis = ReadoutBasis.PARITY
) -> AnalyticFidelityReport:
    """Optimal-threshold mean fidelity from the analytic distributions.

    Per-class error probabilities come from the exact class CDFs. A
    2001-point grid picks the global maximum, and scipy's bounded Brent
    search (:func:`scipy.optimize.minimize_scalar`) refines the threshold
    between its grid neighbours. Also reports the electrical fidelity and
    the closed-form SNR/relaxation estimate for reference.
    """
    if mode not in ("two_state", "three_state"):
        raise ValueError("mode must be 'two_state' or 'three_state'")
    sigma = sigma_of_t(p.sigma0, p.t0, t)
    snr = abs(p.v_t - p.v_s) / sigma
    low_cdf, high_cdf, gamma_ref = _class_cdfs(p, t, mode, basis)
    s_side_low = p.v_s <= p.v_t

    def objective(th):
        if s_side_low:
            return 0.5 * (low_cdf(th) + (1.0 - high_cdf(th)))
        return 0.5 * ((1.0 - low_cdf(th)) + high_cdf(th))

    lo = min(p.v_s, p.v_t) - 6.0 * sigma
    hi = max(p.v_s, p.v_t) + 6.0 * sigma
    grid = np.linspace(lo, hi, 2001)
    best = int(np.argmax(objective(grid)))
    v_threshold = minimize_scalar(
        lambda th: -objective(th),
        bounds=(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-9 * sigma},
    ).x
    f_m_star = float(objective(v_threshold))

    return AnalyticFidelityReport(
        f_m_star=f_m_star,
        v_m_star=2.0 * f_m_star - 1.0,
        f_e_star=electrical_fidelity(snr),
        v_threshold=v_threshold,
        f_m_closed_form=fidelity_from_snr(snr, gamma_ref * t),
        snr=snr,
    )


def fit_histogram(
    bin_centers,
    counts,
    t: float,
    mode: str,
    init: DensityParams,
    max_iterations: int = 200,
):
    """Weighted least-squares fit of the combined density to a histogram.

    Predicted counts are density * total count * bin width; weights are
    Poisson (variance = max(count, 1)). Fractions are kept on the simplex
    through a stick-breaking parameterisation; relaxation times are fitted
    as decay exponents t/T1 for conditioning. Returns the fitted
    DensityParams (with t0 = t) and the FitResult of the internal vector.
    """
    bin_centers = np.asarray(bin_centers, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if bin_centers.shape != counts.shape or bin_centers.size < 4:
        raise ValueError("need matching bin_centers/counts with at least 4 bins")
    if np.count_nonzero(counts) < 4:
        raise ValueError("need at least 4 populated bins")
    mid = 0.5 * (init.v_s + init.v_t)
    lo_half = counts[bin_centers <= mid]
    hi_half = counts[bin_centers > mid]
    if np.count_nonzero(lo_half) < 2 or np.count_nonzero(hi_half) < 2:
        raise ValueError("need at least 2 populated bins in each peak region")
    if mode not in ("two_state", "three_state"):
        raise ValueError("mode must be 'two_state' or 'three_state'")

    widths = np.diff(bin_centers)
    bin_width = float(np.median(widths))
    total = float(counts.sum())
    span = bin_centers[-1] - bin_centers[0]
    v_lo, v_hi = bin_centers[0] - span, bin_centers[-1] + span

    def to_density(theta) -> DensityParams:
        if mode == "two_state":
            v_s, v_t, sigma, k_tm, q1 = theta
            return DensityParams(
                v_s=v_s, v_t=v_t, sigma0=sigma, t0=t,
                t1_t0=init.t1_t0, t1_tm=t / k_tm,
                p_s=q1, p_t0=0.0, p_tm=1.0 - q1,
            )
        v_s, v_t, sigma, k_t0, k_tm, q1, q2 = theta
        p_s = q1
        p_t0 = (1.0 - q1) * q2
        return DensityParams(
            v_s=v_s, v_t=v_t, sigma0=sigma, t0=t,
            t1_t0=t / k_t0, t1_tm=t / k_tm,
            p_s=p_s, p_t0=p_t0, p_tm=1.0 - p_s - p_t0,
        )

    sigma_init = init.sigma0 * math.sqrt(init.t0 / t)
    if mode == "two_state":
        x0 = [init.v_s, init.v_t, sigma_init, t / init.t1_tm, init.p_s]
        bounds = [
            (v_lo, v_hi), (v_lo, v_hi), (1e-6 * span, span),
            (1e-8, 1e3), (1e-9, 1.0 - 1e-9),
        ]
    else:
        q2 = init.p_t0 / (1.0 - init.p_s) if init.p_s < 1.0 else 0.5
        x0 = [init.v_s, init.v_t, sigma_init, t / init.t1_t0, t / init.t1_tm, init.p_s, q2]
        bounds = [
            (v_lo, v_hi), (v_lo, v_hi), (1e-6 * span, span),
            (1e-8, 1e3), (1e-8, 1e3), (1e-9, 1.0 - 1e-9), (1e-9, 1.0 - 1e-9),
        ]

    sqrt_w = np.sqrt(poisson_weights(counts))

    def residual(theta):
        dp = to_density(theta)
        pred = combined_density(bin_centers, t, dp, mode) * total * bin_width
        return sqrt_w * (pred - counts)

    result = least_squares_damped(residual, x0, bounds, max_iterations=max_iterations)
    return to_density(result.params), result
