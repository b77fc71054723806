"""Six-state Gaussian hidden Markov model of two-electron spin readout.

Hidden states combine the spin of the double dot (S, T0, T-) with the
state of a slow two-level fluctuator (ground/excited). Canonical index
order, used everywhere (arrays, serialization, masks):

    0 (S,G)   1 (T0,G)   2 (Tm,G)   3 (S,E)   4 (T0,E)   5 (Tm,E)

Spin dynamics: both triplets decay irreversibly to S at their own rates,
preserving the fluctuator state; the fluctuator switches G<->E at its own
rates, preserving spin. Each hidden state emits a constant mean plus
Gaussian noise; an excited fluctuator swaps the apparent charge signal,
so (S,E) looks like a triplet and (T0,E)/(Tm,E) look like a singlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy.linalg import expm

N_STATES = 6
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class SpinState(IntEnum):
    S = 0
    T0 = 1
    TM = 2


class TlfState(IntEnum):
    GROUND = 0
    EXCITED = 1


@dataclass(frozen=True)
class HiddenState:
    spin: SpinState
    tlf: TlfState

    @property
    def index(self) -> int:
        return int(self.spin) + 3 * int(self.tlf)


HIDDEN_STATES = tuple(
    HiddenState(SpinState(s), TlfState(x)) for x in range(2) for s in range(3)
)

# hidden states whose emitted signal corresponds to the singlet (0,2)
# charge configuration; the complement emits the blocked (1,1) signal
SINGLET_SIGNAL_STATES = (0, 4, 5)
TRIPLET_SIGNAL_STATES = (1, 2, 3)


class ZeroLikelihoodError(RuntimeError):
    """Raised when every hidden state has zero posterior mass at a step."""

    def __init__(self, step: int):
        super().__init__(f"all emission likelihoods vanished at step {step}")
        self.step = step


@dataclass(frozen=True)
class RateSet:
    """Transition rates in hertz."""

    gamma_t0: float
    gamma_tm: float
    tlf_up: float = 0.0
    tlf_down: float = 0.0

    def __post_init__(self):
        for name in ("gamma_t0", "gamma_tm", "tlf_up", "tlf_down"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class EmissionModel:
    """Per-hidden-state Gaussian emission means and standard deviations."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.ascontiguousarray(np.asarray(self.means, dtype=float))
        stds = np.ascontiguousarray(np.asarray(self.stds, dtype=float))
        if means.shape != (N_STATES,) or stds.shape != (N_STATES,):
            raise ValueError(f"means and stds must have shape ({N_STATES},)")
        if np.any(stds <= 0.0):
            raise ValueError("emission stds must be > 0")
        means.flags.writeable = False
        stds.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @classmethod
    def from_charge_levels(cls, v_singlet: float, v_triplet: float, std: float) -> "EmissionModel":
        """Tied emissions: one mean per charge configuration, shared std."""
        means = np.empty(N_STATES)
        means[list(SINGLET_SIGNAL_STATES)] = v_singlet
        means[list(TRIPLET_SIGNAL_STATES)] = v_triplet
        return cls(means=means, stds=np.full(N_STATES, float(std)))


def build_generator(rates: RateSet) -> np.ndarray:
    """Continuous-time generator (per second) on the six hidden states.

    Off-diagonals: (T0,x)->(S,x) at gamma_t0, (Tm,x)->(S,x) at gamma_tm,
    (s,G)->(s,E) at tlf_up, (s,E)->(s,G) at tlf_down. Diagonal entries
    make every row sum to zero.
    """
    q = np.zeros((N_STATES, N_STATES))
    for x in range(2):
        off = 3 * x
        q[1 + off, 0 + off] = rates.gamma_t0
        q[2 + off, 0 + off] = rates.gamma_tm
    for s in range(3):
        q[s, s + 3] = rates.tlf_up
        q[s + 3, s] = rates.tlf_down
    q[np.diag_indices(N_STATES)] = -q.sum(axis=1)
    return q


def _reachability_mask(q: np.ndarray) -> np.ndarray:
    """Boolean closure of the generator's sparsity pattern (incl. staying)."""
    adj = (q != 0.0) | np.eye(q.shape[0], dtype=bool)
    reach = adj.copy()
    for _ in range(int(math.ceil(math.log2(q.shape[0]))) + 1):
        reach = reach | (reach @ reach)
    return reach


def transition_matrix(q: np.ndarray, dt: float) -> np.ndarray:
    """One-step stochastic matrix exp(q * dt).

    Uses scaling-and-squaring; entries are clamped to [0, 1] against
    roundoff, rows renormalised to sum exactly to one, and transitions
    that are unreachable in the generator are pinned to exactly zero.
    """
    q = np.asarray(q, dtype=float)
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("generator must be square")
    offdiag = q - np.diag(np.diag(q))
    scale = max(np.abs(q).max(), 1.0)
    if np.any(offdiag < -1e-12 * scale):
        raise ValueError("generator off-diagonals must be >= 0")
    if np.abs(q.sum(axis=1)).max() > 1e-10 * scale:
        raise ValueError("generator rows must sum to zero")
    a = expm(q * dt)
    a[~_reachability_mask(q)] = 0.0
    a = np.clip(a, 0.0, 1.0)
    a /= a.sum(axis=1, keepdims=True)
    return a


@dataclass(frozen=True)
class HmmParams:
    """Full generative model; the one-step matrix ``a`` is derived from
    ``rates`` and ``dt`` at construction and kept consistent with them."""

    pi: np.ndarray
    rates: RateSet
    dt: float
    emissions: EmissionModel
    a: np.ndarray = field(init=False)

    def __post_init__(self):
        pi = np.ascontiguousarray(np.asarray(self.pi, dtype=float))
        if pi.shape != (N_STATES,):
            raise ValueError(f"pi must have shape ({N_STATES},)")
        if np.any(pi < 0.0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be non-negative and sum to 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        a = transition_matrix(build_generator(self.rates), self.dt)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @classmethod
    def from_spin_model(
        cls,
        spin_probs,
        rates: RateSet,
        dt: float,
        v_singlet: float = 0.0,
        v_triplet: float = 1.0,
        std: float = 0.1,
        tlf_excited_prob: float = 0.0,
    ) -> "HmmParams":
        """Build from spin preparation probabilities and charge-level emissions."""
        spin_probs = np.asarray(spin_probs, dtype=float)
        if spin_probs.shape != (3,):
            raise ValueError("spin_probs must have shape (3,)")
        pi = np.concatenate([
            spin_probs * (1.0 - tlf_excited_prob),
            spin_probs * tlf_excited_prob,
        ])
        return cls(
            pi=pi,
            rates=rates,
            dt=dt,
            emissions=EmissionModel.from_charge_levels(v_singlet, v_triplet, std),
        )

    def to_dict(self) -> dict:
        return {
            "pi": [float(v) for v in self.pi],
            "rates_hz": {
                "gamma_t0": self.rates.gamma_t0,
                "gamma_tm": self.rates.gamma_tm,
                "tlf_up": self.rates.tlf_up,
                "tlf_down": self.rates.tlf_down,
            },
            "dt_s": self.dt,
            "emissions": {
                "means": [float(v) for v in self.emissions.means],
                "stds": [float(v) for v in self.emissions.stds],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HmmParams":
        return cls(
            pi=np.asarray(d["pi"], dtype=float),
            rates=RateSet(**d["rates_hz"]),
            dt=float(d["dt_s"]),
            emissions=EmissionModel(
                means=np.asarray(d["emissions"]["means"], dtype=float),
                stds=np.asarray(d["emissions"]["stds"], dtype=float),
            ),
        )


@dataclass(frozen=True)
class Trace:
    """Single readout trace of normalized sensor signal."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=float))
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt


class TraceBatch:
    """A set of equal-length traces stored as one (n_traces, n_samples) matrix."""

    def __init__(self, dt: float, samples: np.ndarray, labels=None, backgrounds=None):
        samples = np.ascontiguousarray(np.asarray(samples, dtype=float))
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if samples.ndim != 2 or samples.size == 0:
            raise ValueError("samples must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.dt = float(dt)
        self.samples = samples
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int8)
            if labels.shape != (samples.shape[0],):
                raise ValueError("labels must have one entry per trace")
        self.labels = labels
        if backgrounds is not None:
            backgrounds = np.ascontiguousarray(np.asarray(backgrounds, dtype=float))
            if backgrounds.ndim != 2 or backgrounds.shape[0] != samples.shape[0]:
                raise ValueError("backgrounds must align with traces")
            if not np.all(np.isfinite(backgrounds)):
                raise ValueError("backgrounds must be finite")
        self.backgrounds = backgrounds

    @property
    def n_traces(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def __len__(self) -> int:
        return self.n_traces

    def __getitem__(self, k: int) -> Trace:
        return Trace(dt=self.dt, samples=self.samples[k])

    def spin_labels(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("batch carries no ground-truth labels")
        return self.labels


@dataclass(frozen=True)
class Posterior:
    """Smoothed per-sample hidden-state probabilities for one trace."""

    probs: np.ndarray
    log_likelihood: float


def simulate_batch(
    params: HmmParams,
    n_traces: int,
    n_samples: int,
    seed: int,
    return_paths: bool = False,
):
    """Draw traces from the generative model.

    Each trace k consumes its own generator seeded by (seed, k), so batches
    are reproducible and independent of generation order. The ground-truth
    label is the spin of the hidden state at t = 0.
    """
    if n_traces < 1 or n_samples < 1:
        raise ValueError("n_traces and n_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")

    u = np.empty((n_traces, n_samples))
    y = np.empty((n_traces, n_samples))
    for k in range(n_traces):
        rng = np.random.default_rng((int(seed), k))
        u[k] = rng.random(n_samples)
        y[k] = rng.standard_normal(n_samples)

    cum_pi = np.cumsum(params.pi)
    cum_a = np.cumsum(params.a, axis=1)
    means = params.emissions.means
    stds = params.emissions.stds

    state = np.minimum(np.searchsorted(cum_pi, u[:, 0], side="right"), N_STATES - 1)
    labels = (state % 3).astype(np.int8)
    paths = np.empty((n_traces, n_samples), dtype=np.int8) if return_paths else None
    for t in range(n_samples):
        if t > 0:
            rows = cum_a[state]
            state = (rows <= u[:, t, None]).sum(axis=1)
            np.minimum(state, N_STATES - 1, out=state)
        if paths is not None:
            paths[:, t] = state
        y[:, t] = means[state] + stds[state] * y[:, t]

    batch = TraceBatch(dt=params.dt, samples=y, labels=labels)
    return (batch, paths) if return_paths else batch


# Largest (T, 6, n_chunk) float array built per trace chunk (80 MB).
_CHUNK_ELEMENTS = 10_000_000


def _trace_chunks(n_traces: int, n_samples: int):
    step = max(1, _CHUNK_ELEMENTS // (N_STATES * n_samples))
    for start in range(0, n_traces, step):
        yield slice(start, min(start + step, n_traces))


def _emission_likelihoods(yt: np.ndarray, means: np.ndarray, stds: np.ndarray):
    """State-major emission likelihoods rescaled so the best state has 1.

    yt is (T, n), one trace per column; returns b of shape (T, 6, n) and
    the per-trace sum over steps of the log-scale shift that was
    subtracted, (n,), to be added back to log-likelihoods.
    """
    b = yt[:, None, :] - means[:, None]
    b /= stds[:, None]
    b *= b
    b *= -0.5
    b -= (np.log(stds) + _LOG_SQRT_2PI)[:, None]
    shift = b.max(axis=1)
    b -= shift[:, None, :]
    np.exp(b, out=b)
    return b, shift.sum(axis=0)


def _forward(pi: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Scaled forward recursion (Rabiner 1989) over b from _emission_likelihoods.

    Yields, for t = 0 .. T-1, the normalised forward variable alpha_t
    (6, n), a fresh array each step, and its scale c_t (n,). The
    log-likelihood is the sum of log c_t plus the emission shift.
    """
    alpha = pi[:, None] * b[0]
    for t in range(b.shape[0]):
        if t > 0:
            alpha = (a.T @ alpha) * b[t]
        c = alpha.sum(axis=0)
        if np.any(c <= 0.0):
            raise ZeroLikelihoodError(t)
        alpha /= c
        yield alpha, c


def _backward(a: np.ndarray, b: np.ndarray, c):
    """Scaled backward recursion with the forward scales c_t, indexed by t.

    Yields (t, beta_t, w_t) for t = T-1 down to 0: the scaled backward
    variable beta_t (6, n) and w_t = b_t beta_t / c_t, so that
    beta_{t-1} = a @ w_t, the posterior is alpha_t beta_t and the expected
    transition counts from step t-1 are alpha_{t-1}(i) a(i, j) w_t(j).
    """
    beta = np.ones(b.shape[1:])
    for t in range(b.shape[0] - 1, -1, -1):
        w = beta * b[t] / c[t]
        yield t, beta, w
        beta = a @ w


def forward_backward(params: HmmParams, trace: Trace, t_read: float | None = None) -> Posterior:
    """Smoothed posteriors over the first floor(t_read/dt) samples.

    Per-step scaling keeps the recursion in range for any input; the trace
    log-likelihood is recovered from the scaling constants.
    """
    n_window = _window_samples(trace.dt, trace.samples.size, t_read)
    b, shift = _emission_likelihoods(
        trace.samples[:n_window, np.newaxis], params.emissions.means, params.emissions.stds
    )
    alphas, c = zip(*_forward(params.pi, params.a, b))
    gammas = np.array(alphas)
    for t, beta, _ in _backward(params.a, b, c):
        gammas[t] *= beta
    return Posterior(
        probs=gammas[:, :, 0] / gammas.sum(axis=1),
        log_likelihood=float(np.log(c).sum() + shift[0]),
    )


def start_posterior_batch(params: HmmParams, samples: np.ndarray):
    """Smoothed time-zero posterior for every row of ``samples``.

    Returns (gamma0, log_lik) with shapes (n, 6) and (n,). Matches
    :func:`forward_backward` at step 0 but streams the backward pass, so
    only O(chunk * n_samples) memory is used.
    """
    y = np.ascontiguousarray(np.asarray(samples, dtype=float))
    if y.ndim != 2:
        raise ValueError("samples must be 2-D")
    gamma0 = np.empty((y.shape[0], N_STATES))
    log_lik = np.empty(y.shape[0])
    for sl in _trace_chunks(*y.shape):
        b, shift = _emission_likelihoods(y[sl].T, params.emissions.means, params.emissions.stds)
        c = [c_t for _, c_t in _forward(params.pi, params.a, b)]
        for _, beta, _ in _backward(params.a, b, c):
            pass
        g0 = params.pi[:, None] * b[0] * beta
        gamma0[sl] = (g0 / g0.sum(axis=0)).T
        log_lik[sl] = np.log(c).sum(axis=0) + shift
    return gamma0, log_lik


def brute_force_posterior(params: HmmParams, trace: Trace) -> Posterior:
    """Exact smoothed posterior by summing over every hidden-state path.

    Independent oracle for :func:`forward_backward`; cost grows as 6^T so
    traces are capped at length 10.
    """
    t_len = trace.samples.size
    if t_len > 10:
        raise ValueError("brute-force oracle is capped at traces of length 10")
    means, stds = params.emissions.means, params.emissions.stds
    z = (trace.samples[:, None] - means[None, :]) / stds[None, :]
    logb = -0.5 * z * z - (np.log(stds)[None, :] + _LOG_SQRT_2PI)
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_a = np.log(params.a)

    n_paths = N_STATES**t_len
    block = 6**7
    shape = (N_STATES,) * t_len

    def path_logp(start, stop):
        p = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
        lp = log_pi[p[:, 0]] + logb[0, p[:, 0]]
        for t in range(1, t_len):
            lp = lp + log_a[p[:, t - 1], p[:, t]] + logb[t, p[:, t]]
        return p, lp

    max_lp = -np.inf
    for start in range(0, n_paths, block):
        _, lp = path_logp(start, min(start + block, n_paths))
        max_lp = max(max_lp, float(lp.max()))

    post = np.zeros((t_len, N_STATES))
    total = 0.0
    for start in range(0, n_paths, block):
        p, lp = path_logp(start, min(start + block, n_paths))
        w = np.exp(lp - max_lp)
        total += float(w.sum())
        for t in range(t_len):
            np.add.at(post[t], p[:, t], w)
    post /= total
    return Posterior(probs=post, log_likelihood=float(np.log(total) + max_lp))


def log_likelihood(params: HmmParams, batch: TraceBatch) -> float:
    """Sum of per-trace forward log-likelihoods over the whole batch."""
    if batch.n_traces == 0:
        raise ValueError("batch must be non-empty")
    total = 0.0
    for sl in _trace_chunks(batch.n_traces, batch.n_samples):
        b, shift = _emission_likelihoods(
            batch.samples[sl].T, params.emissions.means, params.emissions.stds
        )
        c = [c_t for _, c_t in _forward(params.pi, params.a, b)]
        total += float(np.log(c).sum() + shift.sum())
    return total


def _window_samples(dt: float, n_available: int, t_read: float | None) -> int:
    if t_read is None:
        return n_available
    n = int(math.floor(t_read / dt + 1e-9))
    if n < 1:
        raise ValueError("t_read must cover at least one sample")
    if n > n_available:
        raise ValueError("t_read exceeds the trace duration")
    return n


def rates_from_transition_matrix(a: np.ndarray, dt: float) -> RateSet:
    """Invert one-step flip probabilities into rates via -ln(1-p)/dt.

    Exact for the irreversible spin decays; first order in dt for the
    fluctuator switching, whose occupation saturates over a step.
    """
    a = np.asarray(a, dtype=float)

    def rate(p):
        p = min(max(p, 0.0), 1.0 - 1e-15)
        return -math.log1p(-p) / dt

    p_t0 = 0.5 * ((a[1, 0] + a[1, 3]) + (a[4, 0] + a[4, 3]))
    p_tm = 0.5 * ((a[2, 0] + a[2, 3]) + (a[5, 0] + a[5, 3]))
    p_up = a[0:3, 3:6].sum() / 3.0
    p_down = a[3:6, 0:3].sum() / 3.0
    return RateSet(
        gamma_t0=rate(p_t0), gamma_tm=rate(p_tm), tlf_up=rate(p_up), tlf_down=rate(p_down)
    )


_SPIN_ALLOWED = np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)
STRUCTURAL_MASK = np.kron(np.ones((2, 2), dtype=bool), _SPIN_ALLOWED)


def _rates_from_counts(xi: np.ndarray, dt: float, fallback: RateSet) -> RateSet:
    """MLE rates from expected transition counts, pooled over branches.

    Each flip probability is (expected flips)/(expected occupancy), so
    branches the data never visits contribute nothing instead of dragging
    the estimate toward stale initial values. Falls back to ``fallback``
    for rates whose occupancy is zero (e.g. single-sample traces).
    """

    def rate(flips, occupancy, default):
        if occupancy <= 1e-300:
            return default
        p = min(max(flips / occupancy, 0.0), 1.0 - 1e-15)
        return -math.log1p(-p) / dt

    return RateSet(
        gamma_t0=rate(xi[[1, 4]][:, [0, 3]].sum(), xi[[1, 4]].sum(), fallback.gamma_t0),
        gamma_tm=rate(xi[[2, 5]][:, [0, 3]].sum(), xi[[2, 5]].sum(), fallback.gamma_tm),
        tlf_up=rate(xi[0:3, 3:6].sum(), xi[0:3].sum(), fallback.tlf_up),
        tlf_down=rate(xi[3:6, 0:3].sum(), xi[3:6].sum(), fallback.tlf_down),
    )


@dataclass
class EmFitResult:
    params: HmmParams
    log_likelihoods: np.ndarray
    converged: bool
    n_iterations: int
    variance_floored: bool = False


def em_fit(
    batch: TraceBatch,
    init: HmmParams,
    tie_emissions: bool = True,
    freeze_tlf_rates: bool = False,
    freeze_emissions: bool = False,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> EmFitResult:
    """Baum-Welch parameter estimation on a batch of traces.

    The one-step transition matrix is updated freely except for the
    structural zeros of the generator (spin transitions that can never
    occur), which stay pinned at zero. With ``tie_emissions`` the six
    states share two means (one per charge configuration) and a single
    std; untied mode fits per-state means and stds. ``freeze_tlf_rates``
    keeps the fluctuator rates of ``init`` in the returned parameters.

    The returned parameters carry rates re-derived from the fitted
    one-step decay probabilities, with the transition matrix rebuilt from
    those rates so it stays consistent with them.
    """
    if batch.n_traces == 0:
        raise ValueError("batch must be non-empty")
    y = batch.samples
    n, t_len = y.shape
    dt = batch.dt

    pi = init.pi.copy()
    a = init.a.copy()
    means = init.emissions.means.copy()
    stds = init.emissions.stds.copy()

    lls = []
    converged = False
    floored = False
    var_floor = 1e-12

    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        pi_acc = np.zeros(N_STATES)
        xi_acc = np.zeros((N_STATES, N_STATES))
        w_acc = np.zeros(N_STATES)
        m1_acc = np.zeros(N_STATES)
        m2_acc = np.zeros(N_STATES)
        ll_total = 0.0

        for sl in _trace_chunks(n, t_len):
            yt = y[sl].T
            b, shift = _emission_likelihoods(yt, means, stds)
            alphas, c = zip(*_forward(pi, a, b))
            ll_total += float(np.log(c).sum() + shift.sum())

            for t, beta, w in _backward(a, b, c):
                gamma = alphas[t] * beta
                w_acc += gamma.sum(axis=1)
                m1_acc += gamma @ yt[t]
                m2_acc += gamma @ (yt[t] ** 2)
                if t > 0:
                    xi_acc += alphas[t - 1] @ w.T
            pi_acc += gamma.sum(axis=1)  # the backward pass ends at t = 0
        # xi entries lack the factor a(i, j) of each expected transition;
        # apply it once here instead of per step
        xi_acc *= a

        lls.append(ll_total)
        if len(lls) >= 2 and abs(ll_total - lls[-2]) < tol * abs(lls[-2]):
            converged = True
            break

        pi = pi_acc / pi_acc.sum()
        num = np.where(STRUCTURAL_MASK, xi_acc, 0.0)
        row = num.sum(axis=1)
        ok = row > 1e-300
        a = np.where(ok[:, None], num / np.where(ok, row, 1.0)[:, None], a)

        if not freeze_emissions:
            if tie_emissions:
                new_means = means.copy()
                for group in (SINGLET_SIGNAL_STATES, TRIPLET_SIGNAL_STATES):
                    g = list(group)
                    wg = w_acc[g].sum()
                    if wg > 1e-300:
                        new_means[g] = m1_acc[g].sum() / wg
                w_tot = w_acc.sum()
                var = (m2_acc - 2.0 * new_means * m1_acc + new_means**2 * w_acc).sum() / w_tot
                if var < var_floor:
                    var = var_floor
                    floored = True
                means = new_means
                stds = np.full(N_STATES, math.sqrt(var))
            else:
                ok = w_acc > 1e-300
                mu = np.where(ok, m1_acc / np.where(ok, w_acc, 1.0), means)
                var = np.where(ok, m2_acc / np.where(ok, w_acc, 1.0) - mu**2, stds**2)
                if np.any(var[ok] < var_floor):
                    floored = True
                var = np.maximum(var, var_floor)
                means = mu
                stds = np.sqrt(var)

    fitted_rates = _rates_from_counts(xi_acc, dt, fallback=init.rates)
    if freeze_tlf_rates:
        fitted_rates = RateSet(
            gamma_t0=fitted_rates.gamma_t0,
            gamma_tm=fitted_rates.gamma_tm,
            tlf_up=init.rates.tlf_up,
            tlf_down=init.rates.tlf_down,
        )
    params = HmmParams(
        pi=pi, rates=fitted_rates, dt=dt, emissions=EmissionModel(means=means, stds=stds)
    )
    return EmFitResult(
        params=params,
        log_likelihoods=np.asarray(lls),
        converged=converged,
        n_iterations=n_iter,
        variance_floored=floored,
    )
