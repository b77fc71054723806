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
import time
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


# hidden states whose emitted signal corresponds to the singlet (0,2)
# charge configuration; the complement emits the blocked (1,1) signal
SINGLET_SIGNAL_STATES = (0, 4, 5)
TRIPLET_SIGNAL_STATES = (1, 2, 3)
# charge group of each hidden state: 0 singlet signal, 1 triplet signal
_CHARGE_GROUP = np.zeros(N_STATES, dtype=np.intp)
_CHARGE_GROUP[list(TRIPLET_SIGNAL_STATES)] = 1


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0")


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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


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
        if not np.all(np.isfinite(means)):
            raise ValueError("emission means must be finite")
        if not np.all((stds > 0.0) & (stds < math.inf)):
            raise ValueError("emission stds must be finite and > 0")
        means.flags.writeable = False
        stds.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @classmethod
    def from_charge_levels(cls, v_singlet: float, v_triplet: float, std: float) -> "EmissionModel":
        """Tied emissions: one mean per charge configuration, shared std."""
        means = np.array([v_singlet, v_triplet], dtype=float)[_CHARGE_GROUP]
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
    """Boolean closure of a generator's or a one-step matrix's sparsity
    pattern (incl. staying)."""
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
    _require_positive("dt", dt)
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
        if not (np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= 1e-12):
            raise ValueError("pi must be non-negative and sum to 1")
        _require_positive("dt", self.dt)
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
        _require_positive("dt", self.dt)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt


class TraceBatch:
    """A set of equal-length traces stored as one (n_traces, n_samples) matrix,
    checked once here. Float64 arrays are kept as given, views uncopied."""

    def __init__(self, dt: float, samples: np.ndarray, labels=None, backgrounds=None):
        samples = np.asarray(samples, dtype=float)
        _require_positive("dt", dt)
        if samples.ndim != 2 or samples.size == 0:
            raise ValueError("samples must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.dt = float(dt)
        self.samples = samples
        self.labels = None if labels is None else _spin_codes(labels, samples.shape[0])
        if backgrounds is not None:
            backgrounds = np.asarray(backgrounds, dtype=float)
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


def _spin_codes(labels, n_traces: int) -> np.ndarray:
    """``labels`` as int8 spin codes, one per trace. An entry that is not an
    integer 0..2 raises ValueError: no float is truncated, no bool read as 0/1."""
    codes = np.asarray(labels)
    if codes.shape != (n_traces,):
        raise ValueError("labels must have one entry per trace")
    # np.asarray reads [0, True] as integers, so a list is searched for bools
    exact = codes.dtype.kind in "iu" and (
        isinstance(labels, np.ndarray) or not {bool, np.bool_} & set(map(type, labels))
    )
    if not exact or codes.min() < 0 or codes.max() > SpinState.TM:
        raise ValueError("labels must be integer spin codes 0 (S), 1 (T0) or 2 (TM)")
    return codes.astype(np.int8)


@dataclass(frozen=True)
class Posterior:
    """Smoothed per-sample hidden-state probabilities for one trace."""

    probs: np.ndarray
    log_likelihood: float


# Time steps one comparison of ``_hidden_paths`` scans per trace.
_STEP_BLOCK = 64
# Samples per row block when simulate_batch turns paths into emissions.
_EMIT_ELEMENTS = 1 << 16


def simulate_batch(
    params: HmmParams,
    n_traces: int,
    n_samples: int,
    seed: int,
    return_paths: bool = False,
):
    """Draw traces from the generative model.

    Each trace k consumes its own generator seeded by (seed, k): first
    ``n_samples`` uniforms, which drive the hidden path (see
    ``_hidden_paths``), then ``n_samples`` standard normals z, and sample t
    is ``means[s_t] + stds[s_t] * z_t``. A seed therefore gives the same
    traces whatever the batch size or generation order, and bit-identical
    samples, labels and paths across versions of this function. The
    ground-truth label is the spin of the hidden state at t = 0.
    """
    if n_traces < 1 or n_samples < 1:
        raise ValueError("n_traces and n_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")

    u = np.empty((n_traces, n_samples))
    y = np.empty((n_traces, n_samples))
    for k in range(n_traces):
        rng = np.random.default_rng((int(seed), k))
        rng.random(out=u[k])
        rng.standard_normal(out=y[k])

    paths = _hidden_paths(u, np.cumsum(params.pi), np.cumsum(params.a, axis=1))
    del u  # freed before the emission pass
    means = params.emissions.means
    stds = params.emissions.stds
    step = max(1, _EMIT_ELEMENTS // n_samples)
    for start in range(0, n_traces, step):
        rows = slice(start, start + step)
        p = paths[rows].astype(np.intp)
        z = y[rows]
        z *= np.take(stds, p)
        z += np.take(means, p)

    labels = (paths[:, 0] % 3).astype(np.int8)
    batch = TraceBatch(dt=params.dt, samples=y, labels=labels)
    return (batch, paths) if return_paths else batch


def _hidden_paths(u: np.ndarray, cum_pi: np.ndarray, cum_a: np.ndarray) -> np.ndarray:
    """Hidden-state paths, int8 (n_traces, n_samples), from uniforms ``u`` in [0, 1).

    The rule: the state at t = 0 is min(#{cum_pi <= u_0}, 5), and a trace
    in state s moves at step t to min(#{cum_a[s] <= u_t}, 5). Because each
    row of ``cum_a`` is non-decreasing, that keeps the trace in s exactly
    while cum_a[s, s-1] <= u_t < cum_a[s, s] (no lower end for s = 0, no
    upper end for s = 5). So the rule is applied only where u_t leaves that
    interval: per block of steps, one comparison finds each moving trace's
    next exit, and the steps in between keep the state. A state whose
    interval holds all of [0, 1) is never left, and its traces are skipped.
    The result equals applying the rule at every step.
    """
    n, n_steps = u.shape
    lo = np.concatenate(([-np.inf], np.diagonal(cum_a, -1)))
    hi = np.append(np.diagonal(cum_a)[:-1], np.inf)
    can_leave = (lo > 0.0) | (hi < 1.0)
    state = np.minimum(np.searchsorted(cum_pi, u[:, 0], side="right"), N_STATES - 1)
    paths = np.empty((n, n_steps), dtype=np.int8)
    paths[:, 0] = state
    cols = np.arange(_STEP_BLOCK)
    # state changes within the current block; their running sum is the path
    moves = np.zeros((n, _STEP_BLOCK), dtype=np.int8)
    for t0 in range(1, n_steps, _STEP_BLOCK):
        t1 = min(t0 + _STEP_BLOCK, n_steps)
        block = paths[:, t0:t1]
        block[:] = state[:, None]
        rows = np.flatnonzero(can_leave[state])
        start = np.full(rows.size, t0)
        moved = np.zeros(n, dtype=bool)
        while rows.size:
            s = state[rows]
            first = int(start.min())
            ub = u[rows, first:t1]
            leave = (ub < lo[s, None]) | (ub >= hi[s, None])
            if first > t0:
                leave &= cols[: t1 - first] >= (start - first)[:, None]
            c = leave.argmax(axis=1)
            hit = leave[np.arange(rows.size), c]
            rows, s, c = rows[hit], s[hit], c[hit] + first
            new = np.minimum((cum_a[s] <= u[rows, c, None]).sum(axis=1), N_STATES - 1)
            state[rows] = new
            moves[rows, c - t0] = new - s
            moved[rows] = True
            start = c + 1
            keep = can_leave[new] & (start < t1)
            rows, start = rows[keep], start[keep]
        changed = np.flatnonzero(moved)
        block[changed] += np.cumsum(moves[changed, : t1 - t0], axis=1, dtype=np.int8)
        moves[changed] = 0
    return paths


# Largest (T, 6, n_chunk) float array built per trace chunk (80 MB).
_CHUNK_ELEMENTS = 10_000_000


def _trace_chunks(n_traces: int, n_samples: int):
    step = max(1, _CHUNK_ELEMENTS // (N_STATES * n_samples))
    for start in range(0, n_traces, step):
        yield slice(start, min(start + step, n_traces))


def _live_states(pi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Indices of the hidden states reachable from supp(pi) through the
    nonzero pattern of ``a``.

    Every other state has forward mass exactly zero at every step, and so
    zero posterior and zero EM statistics; the recursions carry only these.
    """
    return np.flatnonzero(_reachability_mask(a)[pi > 0.0].any(axis=0))


def _live_chain(pi: np.ndarray, a: np.ndarray):
    """(live, pi, a) restricted to the live states of (pi, a)."""
    live = _live_states(pi, a)
    return live, pi[live], a[np.ix_(live, live)]


def _emission_likelihoods(yt: np.ndarray, means: np.ndarray, stds: np.ndarray, rows: np.ndarray):
    """State-major emission likelihoods of the hidden states ``rows``,
    rescaled so that the best of all six states has 1.

    yt is (T, n), one trace per column. Each distinct (mean, std) pair is
    evaluated once. Returns b of shape (T, len(rows), n), C-contiguous so
    that each step's (k, n) slice is one block of memory whatever the
    layout of yt (often a transposed view), and the per-trace sum over
    steps of the log-scale shift that was subtracted, (n,), to be added
    back to log-likelihoods.
    """
    pair_index = {}
    pair_of = np.array([
        pair_index.setdefault(pair, len(pair_index))
        for pair in zip(means.tolist(), stds.tolist())
    ])
    mu, sd = np.array(list(pair_index)).T
    b = np.subtract(yt[:, None, :], mu[:, None], order="C")
    b /= sd[:, None]
    b *= b
    b *= -0.5
    b -= (np.log(sd) + _LOG_SQRT_2PI)[:, None]
    shift = b.max(axis=1)
    b -= shift[:, None, :]
    np.exp(b, out=b)
    pick = pair_of[rows]
    if not np.array_equal(pick, np.arange(mu.size)):
        # take keeps b C-contiguous; b[:, pick] would put the state axis
        # outermost in memory
        b = np.take(b, pick, axis=1)
    return b, shift.sum(axis=0)


def _check_scales(c: np.ndarray) -> None:
    """Raise ZeroLikelihoodError at the first step t whose scale c_t (n,)
    is not > 0 for some trace. A vanished step leaves nan in every later
    scale of that trace, and nan is not > 0 either, so one check after a
    pass finds the step a per-step check would have stopped at."""
    bad = ~(c > 0.0)
    if bad.any():
        raise ZeroLikelihoodError(int(bad.any(axis=1).argmax()))


def _forward(pi: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Scaled forward recursion (Rabiner 1989) over b from _emission_likelihoods.

    Returns the normalised forward variables alpha (T, k, n) and their
    scales c (T, n); the log-likelihood is the sum of log c_t plus the
    emission shift. Four numpy calls per step; the scales are checked
    once, after the loop (:func:`_check_scales`).
    """
    a_t = a.T
    alphas = np.empty(b.shape)
    c = np.empty((b.shape[0], b.shape[2]))
    alpha = np.multiply(pi[:, None], b[0], out=alphas[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(b.shape[0]):
            if t > 0:
                alpha = np.matmul(a_t, alpha, out=alphas[t])
                alpha *= b[t]
            alpha.sum(axis=0, out=c[t])
            alpha /= c[t]
    _check_scales(c)
    return alphas, c


def _backward(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Scaled backward recursion with the forward scales c (T, n).

    Yields (t, beta_t, w_t) for t = T-1 down to 0: the scaled backward
    variable beta_t (k, n) and w_t = b_t beta_t / c_t, so that
    beta_{t-1} = a @ w_t, the posterior is alpha_t beta_t and the expected
    transition counts from step t-1 are alpha_{t-1}(i) a(i, j) w_t(j).
    Spends b: it is divided by c in place, once, and w_t is written over
    b_t, so a step costs two numpy calls.
    """
    b /= c[:, None, :]
    beta = np.ones(b.shape[1:])
    for t in range(b.shape[0] - 1, -1, -1):
        w = np.multiply(beta, b[t], out=b[t])
        yield t, beta, w
        beta = a @ w


def forward_backward(params: HmmParams, trace: Trace, t_read: float | None = None) -> Posterior:
    """Smoothed posteriors over the first floor(t_read/dt) samples.

    Per-step scaling keeps the recursion in range for any input; the trace
    log-likelihood is recovered from the scaling constants.
    """
    _check_dt(params, trace.dt)
    n_window = _window_samples(trace.dt, trace.samples.size, t_read)
    live, pi, a = _live_chain(params.pi, params.a)
    b, shift = _emission_likelihoods(
        trace.samples[:n_window, np.newaxis], params.emissions.means, params.emissions.stds, live
    )
    gammas, c = _forward(pi, a, b)
    for t, beta, _ in _backward(a, b, c):
        gammas[t] *= beta
    probs = np.zeros((n_window, N_STATES))
    probs[:, live] = gammas[:, :, 0] / gammas.sum(axis=1)
    return Posterior(probs=probs, log_likelihood=float(np.log(c).sum() + shift[0]))


def _sample_matrix(samples) -> np.ndarray:
    y = np.asarray(samples, dtype=float)
    if y.ndim != 2:
        raise ValueError("samples must be 2-D")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    return y


def start_posterior_batch(params: HmmParams, samples: np.ndarray):
    """Smoothed time-zero posterior for every row of ``samples``.

    Returns (gamma0, log_lik) with shapes (n, 6) and (n,). Matches
    :func:`forward_backward` at step 0. It is the joint pass of
    :func:`start_posteriors_at` over one window, the whole trace, so no
    backward pass is run and only O(chunk * n_samples) memory is used.
    """
    y = _sample_matrix(samples)
    gamma0 = np.zeros((y.shape[0], N_STATES))
    log_lik = np.empty(y.shape[0])
    for sl, g0, c, shift in _joint_pass(params, y, [y.shape[1]]):
        gamma0[sl] = g0[0]
        log_lik[sl] = np.log(c).sum(axis=0) + shift
    return gamma0, log_lik


def start_posteriors_at(params: HmmParams, samples: np.ndarray, window_ends) -> np.ndarray:
    """Smoothed time-zero posterior of every row of ``samples`` at each window end.

    Entry k of the (len(window_ends), n, 6) result is the posterior given
    the first ``window_ends[k]`` samples, i.e. ``start_posterior_batch``
    on ``samples[:, :window_ends[k]]``, from one joint pass over the
    longest window (:func:`_joint_pass`).
    """
    y = _sample_matrix(samples)
    ends = [int(e) for e in window_ends]
    if not ends or min(ends) < 1 or max(ends) > y.shape[1]:
        raise ValueError("window ends must be non-empty and within 1..n_samples")
    out = np.zeros((len(ends), y.shape[0], N_STATES))
    for sl, g0, _, _ in _joint_pass(params, y, ends):
        out[:, sl] = g0
    return out


def _joint_pass(params: HmmParams, y: np.ndarray, ends: list[int]):
    """Time-zero posteriors at each window end, one chunk of traces at a time.

    Fixed-point smoothing (Cappé, Moulines & Rydén 2005): one forward pass
    over the longest window carries the joint forward variable J_t(s, s0),
    proportional to P(s_t = s, s_0 = s0, y_0..t), whose sum over s is the
    time-zero posterior of the window ending at t. Only live states are
    carried (:func:`_live_states`), and start states with pi = 0 stay
    exactly zero and are not carried either, so a pass costs about one
    forward pass over the live states per start state with pi > 0.

    Yields, per chunk, (rows, posteriors (len(ends), n_chunk, 6), c,
    shift): the per-step scales c (T, n_chunk) of J are the forward
    scales, so sum_t log c_t + shift is the log-likelihood of the longest
    window.
    """
    live, pi, a = _live_chain(params.pi, params.a)
    start = np.flatnonzero(pi > 0.0)
    k_live, m = live.size, start.size
    read_at = {}
    for k, e in enumerate(ends):
        read_at.setdefault(e - 1, []).append(k)
    t_len = max(ends)
    a_t = a.T
    for sl in _trace_chunks(y.shape[0], t_len):
        b, shift = _emission_likelihoods(
            y[sl, :t_len].T, params.emissions.means, params.emissions.stds, live
        )
        n = b.shape[2]
        out = np.zeros((len(ends), n, N_STATES))
        c = np.empty((t_len, n))
        # state-major (k_live, m, n): row s_t, then start state, then trace
        joint = np.zeros((k_live, m, n))
        joint[start, np.arange(m)] = pi[start, None] * b[0, start]
        with np.errstate(divide="ignore", invalid="ignore"):
            for t in range(t_len):
                if t > 0:
                    # the per-trace normalisation of step t-1, over both s
                    # and s0, rides on step t's emission factor: one pass less
                    joint = (a_t @ joint.reshape(k_live, m * n)).reshape(k_live, m, n)
                    joint *= (b[t] / c[t - 1])[:, None, :]
                joint.reshape(k_live * m, n).sum(axis=0, out=c[t])
                if t in read_at:
                    g0 = joint.sum(axis=0)
                    g0 /= g0.sum(axis=0)
                    for k in read_at[t]:
                        out[k][:, live[start]] = g0.T
        _check_scales(c)
        yield sl, out, c, shift


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
    _check_dt(params, batch.dt)
    chain = _live_chain(params.pi, params.a)
    total = 0.0
    for sl in _trace_chunks(batch.n_traces, batch.n_samples):
        total += _forward_chunk(params, chain, batch.samples[sl].T)[1]
    return total


def _forward_chunk(params: HmmParams, chain, yt: np.ndarray):
    """Forward pass of the live ``chain`` = (live, pi, a) over one chunk yt
    (T, n): ((yt, b, alphas, c), the chunk's log-likelihood)."""
    live, pi, a = chain
    b, shift = _emission_likelihoods(yt, params.emissions.means, params.emissions.stds, live)
    alphas, c = _forward(pi, a, b)
    return (yt, b, alphas, c), float(np.log(c).sum() + shift.sum())


def _check_dt(params: HmmParams, dt: float) -> None:
    """Raise unless ``params`` was built for the data's sample interval."""
    if not math.isclose(params.dt, dt, rel_tol=1e-9):
        raise ValueError(f"hmm dt {params.dt!r} s does not match the data's dt {dt!r} s")


def _window_samples(dt: float, n_available: int, t_read: float | None) -> int:
    if t_read is None:
        return n_available
    n = int(math.floor(t_read / dt + 1e-9))
    if n < 1:
        raise ValueError("t_read must cover at least one sample")
    if n > n_available:
        raise ValueError("t_read exceeds the trace duration")
    return n


def _rates_from_counts(xi: np.ndarray, dt: float, rates: RateSet, freeze_tlf_rates: bool) -> RateSet:
    """The rates that maximise sum_ij xi_ij log A(rates)_ij, the M-step.

    The generator is a Kronecker sum, so A = F (x) S with F the fluctuator
    chain and S the spin chain, and the sum splits into a spin term over
    the spin-marginal counts and a fluctuator term over the
    fluctuator-marginal counts. Each is maximised in closed form: a spin
    decay by its flip fraction, inverted via -ln(1-p)/dt; the fluctuator by
    its two flip fractions u, d, which F reaches at total rate
    -ln(1-u-d)/dt split in the ratio u : d. A row with no occupancy keeps
    the current iterate's one-step probability, and ``freeze_tlf_rates``
    keeps the current fluctuator rates.
    """
    counts = xi.reshape(2, 3, 2, 3)
    n_spin = counts.sum(axis=(0, 2))
    n_tlf = counts.sum(axis=(1, 3))

    def fraction(n, i, j):
        occupancy = n[i].sum()
        return float(n[i, j] / occupancy) if occupancy > 1e-300 else None

    def decay(i, gamma):
        p = fraction(n_spin, i, 0)
        return gamma if p is None else -math.log1p(-min(p, 1.0 - 1e-15)) / dt

    up, down = rates.tlf_up, rates.tlf_down
    if not freeze_tlf_rates:
        total = up + down
        # one-step flip probability per unit rate at the current total rate
        saturation = -math.expm1(-total * dt) / total if total > 0.0 else dt
        u = fraction(n_tlf, 0, 1)
        d = fraction(n_tlf, 1, 0)
        u = up * saturation if u is None else u
        d = down * saturation if d is None else d
        total = -math.log1p(-min(u + d, 1.0 - 1e-15)) / dt
        up, down = (total * u / (u + d), total * d / (u + d)) if total > 0.0 else (0.0, 0.0)
    return RateSet(
        gamma_t0=decay(1, rates.gamma_t0), gamma_tm=decay(2, rates.gamma_tm),
        tlf_up=up, tlf_down=down,
    )


def _smoothed_statistics(a, yt, b, alphas, c, centres):
    """One chunk's E-step sums, from its forward pass: (pi, xi, moments).

    Runs the backward pass, turning alphas into the posteriors gamma in
    place (and spending b). pi is the time-zero occupancy (k,); xi (k, k)
    the expected transition counts without the factor a(i, j), applied
    once by the caller. moments (k, 3) holds, per live state s, the sums
    over the chunk of gamma, gamma * d and gamma * d^2, where d is the
    sample's deviation from ``centres[s]``.
    """
    k = b.shape[1]
    step_xi = np.empty((b.shape[0], k, k))
    for t, beta, w in _backward(a, b, c):
        if t > 0:
            np.matmul(alphas[t - 1], w.T, out=step_xi[t])
        np.multiply(alphas[t], beta, out=alphas[t])
    gamma = alphas
    moments = np.empty((k, 3))
    for s, centre in enumerate(centres):
        g, d = gamma[:, s], np.subtract(yt, centre, order="C")
        moments[s] = g.sum(), np.einsum("tn,tn->", g, d), np.einsum("tn,tn,tn->", g, d, d)
    return gamma[0].sum(axis=1), step_xi[1:].sum(axis=0), moments


@dataclass
class EmFitResult:
    params: HmmParams
    log_likelihoods: np.ndarray
    converged: bool
    n_iterations: int
    variance_floored: bool = False
    # log-likelihood of ``params`` itself; None if every state's
    # likelihood vanishes somewhere under them
    final_log_likelihood: float | None = None
    # wall time of each iteration (E-step, convergence test and M-step)
    iteration_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))


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

    Every iteration scores an :class:`HmmParams`, whose one-step matrix
    is built from its rates; the M-step updates the rates themselves
    (:func:`_rates_from_counts`, in closed form), so the fitted matrix
    keeps the generator's structural zeros and the returned parameters are
    a model the iteration can score. With ``tie_emissions`` the six states
    share two means (one per charge configuration) and a single std;
    untied mode fits per-state means and stds. Either way the moments are
    taken about the previous means (of each charge group, tied; of each
    state, untied), so a std that is small against its mean keeps its
    digits. ``freeze_tlf_rates`` keeps the fluctuator rates of ``init`` at
    every iteration. ``init.dt`` must be the batch's dt.

    The last trace chunk is smoothed only after the convergence test, so a
    converged E-step on one chunk runs the forward pass alone. A converged
    fit returns the parameters its last E-step scored, so
    ``final_log_likelihood`` is the last entry of ``log_likelihoods``. A
    fit stopped at ``max_iter`` returns one more M-step's parameters and
    scores them with one more forward pass (None if their likelihood
    vanishes).
    """
    if batch.n_traces == 0:
        raise ValueError("batch must be non-empty")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    _check_dt(init, batch.dt)
    y = batch.samples
    dt = batch.dt
    chunks = list(_trace_chunks(*y.shape))
    # the states that share a mean: a charge configuration each, tied, or
    # one state each; moments are taken about each group's first state
    group = _CHARGE_GROUP if tie_emissions else np.arange(N_STATES)
    centre_of = np.unique(group, return_index=True)[1][group]

    params = init
    lls = []
    stamps = []
    converged = False
    floored = False
    var_floor = 1e-12

    for n_iter in range(1, max_iter + 1):
        stamps.append(time.perf_counter())
        means, stds = params.emissions.means, params.emissions.stds
        chain = _live_chain(params.pi, params.a)
        live, _, a_live = chain
        centres = means[centre_of[live]]
        stats = []
        ll_total = 0.0
        for sl in chunks:
            fwd, ll = _forward_chunk(params, chain, y[sl].T)
            ll_total += ll
            if sl != chunks[-1]:
                stats.append(_smoothed_statistics(a_live, *fwd, centres))
        lls.append(ll_total)
        if len(lls) >= 2 and abs(ll_total - lls[-2]) < tol * abs(lls[-2]):
            converged = True
            break
        stats.append(_smoothed_statistics(a_live, *fwd, centres))
        pi_sum, xi_sum, moments = (sum(parts) for parts in zip(*stats))

        # back to all six states; the others have no mass. xi entries lack
        # the factor a(i, j) of each expected transition; apply it once
        # here instead of per step
        pi = np.zeros(N_STATES)
        pi[live] = pi_sum / pi_sum.sum()
        xi_acc = np.zeros((N_STATES, N_STATES))
        xi_acc[np.ix_(live, live)] = xi_sum * a_live
        rates = _rates_from_counts(xi_acc, dt, params.rates, freeze_tlf_rates)

        if not freeze_emissions:
            # the live states' moments pooled per group. They are about the
            # group's previous mean, so the offset m1 / w moves that mean
            # and m2 - offset * m1 is the residual sum of squares about it
            w, m1, m2 = (np.bincount(group[live], weights=m, minlength=N_STATES) for m in moments.T)
            ok = w > 1e-300
            offset = np.divide(m1, w, out=np.zeros(N_STATES), where=ok)
            resid = m2 - offset * m1
            # only the pooling of the variance depends on the tying
            if tie_emissions:
                var = np.full(N_STATES, resid[ok].sum() / moments[:, 0].sum())
            else:
                var = np.divide(resid, w, out=np.zeros(N_STATES), where=ok)
            floored |= bool(np.any(var[ok] < var_floor))
            # a group with no occupancy keeps its means and stds
            fitted = ok[group]
            means = np.where(fitted, means[centre_of] + offset[group], means)
            stds = np.where(fitted, np.sqrt(np.maximum(var, var_floor))[group], stds)
        params = HmmParams(
            pi=pi, rates=rates, dt=dt, emissions=EmissionModel(means=means, stds=stds)
        )
    stamps.append(time.perf_counter())

    if converged:
        final_ll = lls[-1]
    else:
        try:
            final_ll = log_likelihood(params, batch)
        except ZeroLikelihoodError:
            final_ll = None
    return EmFitResult(
        params=params,
        log_likelihoods=np.asarray(lls),
        converged=converged,
        n_iterations=n_iter,
        variance_floored=floored,
        final_log_likelihood=final_ll,
        iteration_seconds=np.diff(stamps),
    )
