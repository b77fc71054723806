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
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def _reachability_mask(a: np.ndarray) -> np.ndarray:
    """Boolean closure of a one-step matrix's sparsity pattern (incl. staying)."""
    adj = (a != 0.0) | np.eye(a.shape[0], dtype=bool)
    reach = adj.copy()
    for _ in range(int(math.ceil(math.log2(a.shape[0]))) + 1):
        reach = reach | (reach @ reach)
    return reach


def transition_matrix(q: np.ndarray, dt: float) -> np.ndarray:
    """One-step stochastic matrix exp(q * dt) of a model generator.

    ``q`` must equal ``build_generator(rates)`` for the rates read off it;
    any other matrix raises ValueError. The generator is a Kronecker sum,
    so exp(q * dt) = F (x) S in closed form: S is the spin block, where a
    triplet decays with -expm1(-gamma dt) and stays with exp(-gamma dt);
    F is the fluctuator's two-state exponential at total rate
    r = up + down, the identity at r = 0. Unreachable transitions are
    exact zeros.
    """
    _require_positive("dt", dt)
    q = np.asarray(q, dtype=float)
    if q.shape != (N_STATES, N_STATES):
        raise ValueError(f"generator must have shape ({N_STATES}, {N_STATES})")
    rates = RateSet(gamma_t0=q[1, 0], gamma_tm=q[2, 0], tlf_up=q[0, 3], tlf_down=q[3, 0])
    if not np.array_equal(q, build_generator(rates)):
        raise ValueError("generator must be build_generator(rates) for some RateSet")
    s = np.eye(3)
    for i, gamma in ((1, rates.gamma_t0), (2, rates.gamma_tm)):
        s[i, 0] = -math.expm1(-gamma * dt)
        s[i, i] = math.exp(-gamma * dt)
    up, down = rates.tlf_up, rates.tlf_down
    r = up + down
    f = np.eye(2)
    if r > 0.0:
        e = math.exp(-r * dt)
        flip = -math.expm1(-r * dt) / r
        f = np.array([[(down + up * e) / r, up * flip], [down * flip, (up + down * e) / r]])
    return np.kron(f, s)


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
# numpy.random.SeedSequence's hash constants (pool of four uint32 words)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _int_words(n: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, low word first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_states(seed: int, ks: np.ndarray, key=()) -> np.ndarray:
    """``SeedSequence((seed, k, *key)).generate_state(4, np.uint64)`` for
    every k in ``ks`` (each < 2**32, so one entropy word), as (len(ks), 4)
    uint64.

    The same uint32 hash as numpy's SeedSequence, run over all k at once:
    the hash constants do not depend on the entropy, only one entropy word
    varies with k, and numpy arrays wrap on overflow as uint32 does.
    """
    k = np.asarray(ks, dtype=np.uint32)
    # one array per entropy word, so all arithmetic wraps as uint32 arrays
    entropy = [np.full_like(k, w) for w in _int_words(seed)] + [k]
    entropy += [np.full_like(k, w) for x in key for w in _int_words(x)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(k)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty(k.shape + (8,), dtype="<u4")
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[..., i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A precomputed PCG64 seed state, handed over as a seed sequence."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state holds exactly 4 uint64 words")
        return self.state


def _trace_generators(seed: int, n_traces: int, key=()):
    """Trace k's generator, the bits of ``np.random.default_rng((seed, k,
    *key))``, for k = 0 .. n_traces - 1; the seed states are hashed up
    front and each generator built as it is taken."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if n_traces >= 1 << 32:
        raise ValueError("n_traces must be < 2**32")
    states = _seed_states(int(seed), np.arange(n_traces), key)
    return (np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states)


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
    rngs = _trace_generators(seed, n_traces)
    u = np.empty((n_traces, n_samples))
    y = np.empty((n_traces, n_samples))
    for k, rng in enumerate(rngs):
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


def simulate_backgrounds(n_traces: int, n_samples: int, seed: int, mean: float, std: float) -> np.ndarray:
    """Background segments, (n_traces, n_samples): ``mean + std * z``, with
    trace k's standard normals z from its own generator seeded (seed, k, 1),
    independent of ``simulate_batch``'s draws for (seed, k)."""
    rngs = _trace_generators(seed, n_traces, key=(1,))
    out = np.empty((n_traces, n_samples))
    for k, rng in enumerate(rngs):
        rng.standard_normal(out=out[k])
    out *= std
    out += mean
    return out


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


# Sample-steps times six per trace chunk. A stored pass holds the chunk's
# emission factors (T, P, n_chunk) over P <= 6 distinct Gaussians and its
# forward variables (T, k, n_chunk) over k <= 6 live states, each at most
# this many floats (80 MB); a forward-only pass holds its scales (T,
# n_chunk) and one block of factors (_BLOCK_ELEMENTS).
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


def _emission_pairs(means: np.ndarray, stds: np.ndarray):
    """(mu, sd, pair_of): the P distinct (mean, std) pairs of the six
    hidden states and the pair of each state."""
    pair_index = {}
    pair_of = np.array([
        pair_index.setdefault(pair, len(pair_index))
        for pair in zip(means.tolist(), stds.tolist())
    ])
    mu, sd = np.array(list(pair_index)).T
    return mu, sd, pair_of


def _emission_likelihoods(yt: np.ndarray, mu: np.ndarray, sd: np.ndarray, out=None):
    """Emission likelihoods of the pairs (mu, sd) of :func:`_emission_pairs`,
    rescaled so that the best pair has 1 at each step.

    yt is (T, ...), time first and the traces on the trailing axes, e.g.
    a block of steps of (T, n) or of a chunk's folded (S, L, n)
    (:class:`_Segments`). Returns b of shape (T, P, ...), C-contiguous so
    that each step's slice is one block of memory whatever the layout of
    yt (often a transposed view), and the per-step log-scale shift that
    was subtracted, yt.shape, to be added back to log-likelihoods. The
    scaled recursions need the factors only up to a per-step constant
    (Rabiner 1989), so they pick each live state's row per step and no
    state-major array is built. b is written to ``out`` if given.
    """
    per_pair = (-1,) + (1,) * (yt.ndim - 1)
    b = np.subtract(yt[:, None], mu.reshape(per_pair), out=out, order="C")
    b /= sd.reshape(per_pair)
    b *= b
    b *= -0.5
    b -= (np.log(sd) + _LOG_SQRT_2PI).reshape(per_pair)
    shift = b.max(axis=1)
    b -= shift[:, None]
    np.exp(b, out=b)
    return b, shift


def _check_scales(c: np.ndarray) -> None:
    """Raise ZeroLikelihoodError at the first step t whose scale c_t (n,)
    is not > 0 for some trace. A vanished step leaves nan in every later
    scale of that trace, and nan is not > 0 either, so one check after a
    pass finds the step a per-step check would have stopped at."""
    bad = ~(c > 0.0)
    if bad.any():
        raise ZeroLikelihoodError(int(bad.any(axis=1).argmax()))


# Elements one step of a time-segmented pass carries, k * k * n * L for a
# chunk of n traces over k live states: below this a step's cost is its
# numpy calls, not its arithmetic, so the chunk's steps are split into L
# segments that run side by side (_segment_count).
_SEGMENT_ELEMENTS = 57_000
# A stitch whose per-trace norm is not above this is not trusted, and the
# chunk runs again unsegmented (_transfer_pass).
_STITCH_FLOOR = 1e-250
# Emission factors built at a time, P * L * n per step: 16 steps of two
# Gaussians at 4000 traces (1 MB), so that a block is still in cache when
# the builder's next operation, or a forward-only pass, reads it.
_BLOCK_ELEMENTS = 1 << 17


def _segment_count(k: int, n: int, t_len: int) -> int:
    """Segments L for a chunk of n traces of t_len steps over k live states:
    1 once k * k * n reaches _SEGMENT_ELEMENTS, and never more than
    sqrt(t_len), which balances the t_len / L steps of the segments against
    the L steps of the stitch."""
    return max(1, min(_SEGMENT_ELEMENTS // (k * k * n), math.isqrt(t_len)))


class _Segments:
    """A trace chunk y (n, T) with its T steps folded into L segments of S.

    Segment l holds steps l*S .. l*S + S - 1 and runs as n more traces:
    column l*n + j of every (..., L*n) array is trace j in segment l.
    ``y`` (S, L, n) is the samples' folded view, zero-padded to L*S steps;
    the emission factors and the E-step's moments (:func:`_smooth`) read
    it step by step. The emission factors (:meth:`factors`) have one row
    per distinct (mean, std) pair, and live state i reads row ``pick[i]``;
    ``runs`` groups consecutive live states with one pair. They are built
    from time-major blocks of steps: a forward-only pass builds each block
    as it consumes it, and with ``stored`` the blocks fill ``b`` (S, P,
    L*n), kept for the passes that read it again. ``shift`` (n,),
    their per-trace log-scale shift, is set once every step has been
    built. The last segment has ``last`` real steps; the steps that pad it
    to S have emission factor 1, so they only propagate by the one-step
    matrix, which keeps the forward sum. With L = 1 this is the chunk as it
    is.
    """

    def __init__(self, params: HmmParams, live: np.ndarray, y: np.ndarray, count: int,
                 stored: bool = False):
        n, t_len = y.shape
        span = -(-t_len // count)
        count = -(-t_len // span)
        pad = count * span - t_len
        yt = y.T
        if pad:
            yt = np.concatenate((yt, np.zeros((pad, n))))
        self.y = yt.reshape(count, span, n).transpose(1, 0, 2)
        self.n, self.span, self.count, self.last = n, span, count, span - pad
        mu, sd, pair_of = _emission_pairs(params.emissions.means, params.emissions.stds)
        self._pairs = mu, sd
        self.pick = pair_of[live]
        # live states i in lo..hi-1 share pair q: the recursions weight each
        # such run by its pair's row, and no array takes a row per state
        edges = np.flatnonzero(np.diff(self.pick)) + 1
        self.runs = [
            (lo, hi, self.pick[lo])
            for lo, hi in zip(np.r_[0, edges].tolist(), np.r_[edges, live.size].tolist())
        ]
        self._block = max(1, _BLOCK_ELEMENTS // (mu.size * count * n))
        self.shift = None
        self.b = None
        if stored:
            b = np.empty((span, mu.size, count * n))
            for _ in self._blocks(b):
                pass
            self.b = b

    def factors(self):
        """Yields (s0, b): the factors (B, P, L*n) of steps s0 .. s0 + B - 1."""
        if self.b is not None:
            return iter(((0, self.b),))
        return self._blocks()

    def _blocks(self, out=None):
        count, n, size = self.count, self.n, self._block
        total = None
        pad_shift = 0.0
        for s0 in range(0, self.span, size):
            y = self.y[s0:s0 + size]
            if count == 1:
                # one segment goes in as (B, n), as the builder is slower
                # over a singleton axis, and compacted in the samples' own
                # memory order: the builder reads each sample once per pair,
                # and a copy read once beats a stride of T per trace
                y = np.array(y[:, 0], order="K")
            steps = y.shape[0]
            into = None if out is None else out[s0:s0 + steps].reshape((steps, -1) + y.shape[1:])
            b, shift = _emission_likelihoods(y, *self._pairs, out=into)
            b = b.reshape(steps, -1, count * n)
            shift = shift.reshape(steps, count * n)
            if s0 + steps > self.last:
                b[max(self.last - s0, 0):, :, -n:] = 1.0
                # the shifts of the padded steps, each that of a sample 0,
                # come off the last segment's total
                pad_shift = (self.span - self.last) * shift[-1, -1]
            # summed step by step, each block onto the total so far, as one
            # sum over every step would be
            if total is not None:
                shift = np.concatenate((total[None], shift))
            total = shift.sum(axis=0)
            yield s0, b
        total = total.reshape(count, n)
        total[-1] -= pad_shift
        self.shift = total.sum(axis=0)


def _carry(a_t: np.ndarray, x: np.ndarray, seg: _Segments, ends=(), out=None):
    """The forward driver of every pass, over the factors of ``seg``.

    x (k, w, 1 or L*n) is step 0's state before its emission factor: w
    state vectors per column. Step 0 weights it by b_0, and each later step
    propagates x by the one-step matrix and weights it by b_s / c_{s-1}, so
    the per-column normalisation of step s-1 rides on step s's emission
    factor, of its pair's row for each run of live states that share one
    (``seg.runs``). c_s is the sum of x_s over its k * w entries. Four
    numpy calls per step and one more per further run. With ``out``
    (S, k, w, L*n) x_s is kept there. Returns (x_{S-1}, c (S, L*n),
    {t: read}): a window end t + 1 in ``ends`` reads x_s summed over the
    states, (w, n), at step s = t mod S in segment t // S.
    """
    n, span = seg.n, seg.span
    read_at = {}
    for t in dict.fromkeys(e - 1 for e in ends):
        l, s = divmod(t, span)
        read_at.setdefault(s, []).append((t, l))
    c = np.empty((span, seg.count * n))
    reads = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for s0, b in seg.factors():
            for i in range(b.shape[0]):
                s = s0 + i
                if s == 0:
                    x = x * np.take(b[0], seg.pick, axis=0)[:, None, :]
                    k, w, cols = x.shape
                    if out is not None:
                        out[0] = x
                    ratio = np.empty(b.shape[1:])
                else:
                    into = None if out is None else out[s].reshape(k, w * cols)
                    x = np.matmul(a_t, x.reshape(k, w * cols), out=into).reshape(k, w, cols)
                    np.divide(b[i], c[s - 1], out=ratio)
                    for lo, hi, q in seg.runs:
                        x[lo:hi] *= ratio[q]
                x.reshape(k * w, cols).sum(axis=0, out=c[s])
                for t, l in read_at.get(s, ()):
                    reads[t] = x[:, :, l * n:(l + 1) * n].sum(axis=0)
    return x, c, reads


def _transfer_pass(seg: _Segments, pi: np.ndarray, a_t: np.ndarray, start: np.ndarray, ends,
                   log_lik: bool):
    """Every segment's transfer matrix at once, then the stitch.

    Segment l > 0 carries k columns from the identity, so its last state is,
    up to scale, the matrix P_l that takes the forward variable at the end
    of segment l-1 to the end of segment l; segment 0 starts from diag(pi)
    and so ends on the joint forward variable J(s, s0) (Cappe, Moulines &
    Ryden 2005). The stitch U_l = P_l U_{l-1}, over the start states
    ``start``, gives J at the end of every segment in L small steps, as in
    the temporal parallelisation of Sarkka & Garcia-Fernandez (2021).
    A window end t + 1 in ``ends`` is read as the column sums
    1^T P_l(t) (k, n) of segment l's partial transfer, which turn U_{l-1}
    into the time-zero posterior of that window.

    Returns (U (L, n, k, m), P (L, n, k, k), {t: reads}, and with
    ``log_lik`` the per-trace log-likelihood without the emission shift,
    else None), with each U_l and P_l summing to 1 per trace; or None if a
    stitch norm is not above _STITCH_FLOOR. That happens where a trace's
    likelihood vanishes, since then the mass the transfer carries from the
    live start states does (even if the transfer from the identity does
    not), or where those start states carry only underflowing mass; the
    caller then runs unsegmented.
    """
    k, n, count = pi.size, seg.n, seg.count
    first = np.empty((k, k, count))
    first[:, :, 0] = np.diag(pi)
    first[:, :, 1:] = a_t[:, :, None]
    x, c, reads = _carry(a_t, np.repeat(first, n, axis=2), seg, ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.ascontiguousarray((x / c[-1]).reshape(k, k, count, n).transpose(2, 3, 0, 1))
        u = np.empty((count, n, k, start.size))
        norm = np.empty((count, n))
        u[0] = p[0][:, :, start]
        for l in range(count):
            if l > 0:
                np.matmul(p[l], u[l - 1], out=u[l])
            u[l].sum(axis=(1, 2), out=norm[l])
            u[l] /= norm[l][:, None, None]
    if not np.all(norm > _STITCH_FLOOR):
        return None
    if not log_lik:
        return u, p, reads, None
    # c is spent: its logs go in place
    log_lik = np.log(c, out=c).reshape(seg.span, count, n).sum(axis=(0, 1)) + np.log(norm).sum(axis=0)
    return u, p, reads, log_lik


class _Forward(NamedTuple):
    """A trace chunk's forward pass (:func:`_run_chunk`)."""

    seg: _Segments
    posteriors: np.ndarray  # (len(ends), n, 6) time-zero posteriors at the window ends
    log_lik: np.ndarray | None  # (n,) per trace without seg.shift, if asked for
    alphas: np.ndarray | None  # (S + 1, k, L*n) of a stored pass, for _smooth
    c: np.ndarray | None  # (S, L*n): alphas[s + 1] sums to c[s]
    p: np.ndarray | None  # (L, n, k, k) segment transfers, for L > 1
    u: np.ndarray | None  # (L, n, k, m) the stitch, for L > 1

    def total_log_lik(self) -> float:
        """The chunk's log-likelihood, summed over its traces."""
        return float(self.seg.shift.sum()) + float(self.log_lik.sum())


def _run_chunk(params: HmmParams, chain, y: np.ndarray, ends=(), log_lik: bool = False,
               stored: bool = False, count: int | None = None) -> _Forward:
    """The forward pass of the live ``chain`` = (live, pi, a) over one trace chunk y (n, T).

    Fixed-point smoothing (Cappe, Moulines & Ryden 2005): the joint forward
    variable J_t(s, s0), proportional to P(s_t = s, s_0 = s0, y_0..t), sums
    over s to the time-zero posterior of the window ending at t, for each
    t + 1 in ``ends``. Only live states are carried (:func:`_live_states`),
    and start states with pi = 0 stay exactly zero and are not carried
    either. The chunk runs as L time segments (:func:`_segment_count`, or
    ``count``), whose transfers and stitch (:func:`_transfer_pass`) give J
    at each end. If the stitch cannot be trusted it runs with L = 1, where
    the driver (:func:`_carry`) carries J over the start states if ends are
    read, else pi, and :func:`_check_scales` reports the first step at
    which a likelihood vanished.

    Returns the chunk's :class:`_Forward`, with the per-trace log-likelihood
    only if ``log_lik``; with ``stored``, the emission factors and, at
    L = 1, the forward variables, for a stored chunk's one further call,
    :func:`_smooth`, which runs the in-segment forward pass at L > 1.
    """
    live, pi, a = chain
    k, start, a_t = live.size, np.flatnonzero(pi > 0.0), a.T
    # segmented first; unsegmented if the stitch cannot be trusted
    for count in dict.fromkeys((count or _segment_count(k, *y.shape), 1)):
        seg = _Segments(params, live, y, count, stored=stored)
        alphas = c = p = u = None
        if seg.count > 1:
            stitched = _transfer_pass(seg, pi, a_t, start, ends, log_lik)
            if stitched is None:
                continue
            u, p, reads, ll = stitched
        else:
            if stored:
                alphas = np.zeros((seg.span + 1, k, seg.n))
            x0 = np.diag(pi)[:, start, None] if ends else pi[:, None, None]
            _, c, reads = _carry(a_t, x0, seg, ends, None if alphas is None else alphas[1:, :, None])
            _check_scales(c)
            # the scales are spent unless smoothing reads them: logs in place
            ll = np.log(c, out=None if stored else c).sum(axis=0) if log_lik else None
        post = np.zeros((len(ends), seg.n, N_STATES))
        for i, e in enumerate(ends):
            l = (e - 1) // seg.span
            g0 = reads[e - 1]
            if seg.count > 1:
                g0 = g0[start] if l == 0 else np.einsum("in,nim->mn", g0, u[l - 1])
            post[i][:, live[start]] = (g0 / g0.sum(axis=0)).T
        return _Forward(seg, post, ll, alphas, c if stored else None, p, u)


def _smooth(params: HmmParams, chain, y: np.ndarray, fwd: _Forward,
            centres: np.ndarray | None = None):
    """The rest of the stored pass ``fwd`` of chunk y (:func:`_run_chunk`).

    At L > 1 it first runs every segment's forward recursion at once,
    segment 0 from pi and each later one from the stitch (``fwd.u``):
    slot s + 1 of alphas (S + 1, k, L*n) gets the forward variable of step
    s scaled to sum to c_s (:func:`_carry`), slot 0 the normalised one each
    segment starts from (zeros for segment 0). A scale that is not > 0
    sends the chunk back to :func:`_run_chunk` at L = 1, and that record
    is smoothed.

    Without ``centres`` it returns the record, its alphas turned into the
    posteriors: slot s + 1 holds gamma_s of every segment, (k, L*n), zero
    at padded steps. With ``centres`` (k,) it returns the E-step sums,
    added up as the pass forms each gamma_s: pi (k,), the time-zero
    occupancy; xi (k, k), the expected transition counts without the
    factor a(i, j); and moments (k, 3, n), per live state and trace the
    sums of gamma, gamma * d and gamma * d^2, where d is the sample's
    deviation from the state's centre. The re-estimation sums run over t
    in any order (Rabiner 1989), so the moments are summed per column,
    (k, 3, L*n), step after step, then over the segments, and nothing is
    put back into time order.

    The backward variable at the end of segment l-1 is P_l^T times the one
    at the end of segment l, scaled so that sum alpha * beta = 1 there, as
    the scaled recursion keeps it at every step. Then all segments run the
    scaled backward recursion (Rabiner 1989) at once, on the forward
    variables as the recursion left them, x_s = c_s alpha_s, and carrying
    beta_s / c_s, so that neither needs a pass of its own: w_s = (beta_s /
    c_s) b_s / c_{s-1}, with each live state's pair row of b, goes to a
    (k, cols) scratch, gamma_s = x_s beta_s / c_s over x_s,
    beta_{s-1} / c_{s-1} = a w_s, and the counts from step s-1 are
    x_{s-1}(i) a(i, j) w_s(j), with slot 0 of alphas giving alpha at the
    end of the previous segment (c_{-1} = 1). The last segment starts at its
    last real step with beta = 1; its padded steps have beta = 0, so gamma
    is 0 there and they add nothing to the sums. Four numpy calls per
    step, one more per further run of ``seg.runs``, and five more with
    ``centres``.
    """
    _, pi, a = chain
    seg = fwd.seg
    k, n, count = pi.size, seg.n, seg.count
    if count > 1:
        alphas = np.zeros((seg.span + 1, k, count * n))
        alphas[0, :, n:] = fwd.u[:-1].sum(axis=3).transpose(2, 0, 1).reshape(k, (count - 1) * n)
        prop = np.empty((k, count * n))
        prop[:, :n] = pi[:, None]
        prop[:, n:] = a.T @ alphas[0, :, n:]
        c = _carry(a.T, prop[:, None], seg, out=alphas[1:, :, None])[1]
        fwd = fwd._replace(alphas=alphas, c=c)
        if not np.all(c > 0.0):
            fwd = _run_chunk(params, chain, y, log_lik=fwd.log_lik is not None, stored=True, count=1)
    seg, alphas, c, p = fwd.seg, fwd.alphas, fwd.c, fwd.p
    count = seg.count
    cut = (count - 1) * n
    beta = np.zeros((k, count * n))
    if count > 1:
        ends = np.empty((count, n, k, 1))
        ends[-1] = 1.0
        v = alphas[0, :, n:].reshape(k, count - 1, n)
        for l in range(count - 1, 0, -1):
            np.matmul(p[l].transpose(0, 2, 1), ends[l], out=ends[l - 1])
            ends[l - 1] /= (v[:, l - 1].T * ends[l - 1, :, :, 0]).sum(axis=1)[:, None, None]
        beta[:, :cut] = ends[:-1, :, :, 0].transpose(2, 0, 1).reshape(k, cut)
    # beta / c, so that gamma_s = x_s * beta_s / c_s needs no pass over x
    beta[:, :cut] /= c[-1, :cut]
    b = seg.b
    w = np.empty((k, count * n))
    stats = centres is not None
    if stats:
        step_xi = np.empty((seg.span, k, k))
        # step s's terms gamma_s, gamma_s * d_s and gamma_s * d_s^2, and
        # their running sums over the steps, per column
        terms = np.empty((k, 3, count * n))
        gamma, gd, gd2 = terms.transpose(1, 0, 2)
        sums = np.zeros((k, 3, count * n))
        d = np.empty((k, count, n))
        dev = d.reshape(k, count * n)
        centre = centres[:, None, None]
    for s in range(seg.span - 1, -1, -1):
        if s == seg.last - 1:
            beta[:, cut:] = 1.0 / c[s, cut:]
        ratio = b[s] / c[s - 1] if s else b[0]
        for lo, hi, q in seg.runs:
            np.multiply(ratio[q], beta[lo:hi], out=w[lo:hi])
        if stats:
            np.matmul(alphas[s], w.T, out=step_xi[s])
            np.multiply(alphas[s + 1], beta, out=gamma)
            np.subtract(seg.y[s], centre, out=d)
            np.multiply(gamma, dev, out=gd)
            np.multiply(gd, dev, out=gd2)
            sums += terms
        else:
            alphas[s + 1] *= beta
        beta = a @ w
    if not stats:
        return fwd
    # gamma_0 of segment 0 is the time-zero posterior
    pi = gamma[:, :n].sum(axis=1)
    return pi, step_xi.sum(axis=0), sums.reshape(k, 3, count, n).sum(axis=2)


def forward_backward(params: HmmParams, trace: Trace, t_read: float | None = None) -> Posterior:
    """Smoothed posteriors over the first floor(t_read/dt) samples.

    Per-step scaling keeps the recursion in range for any input; the trace
    log-likelihood is recovered from the scaling constants.
    """
    _check_dt(params, trace.dt)
    n_window = _window_samples(trace.dt, trace.samples.size, t_read)
    chain = _live_chain(params.pi, params.a)
    live = chain[0]
    y = trace.samples[np.newaxis, :n_window]
    fwd = _smooth(params, chain, y, _run_chunk(params, chain, y, log_lik=True, stored=True))
    # one trace's gamma, (S, k, L) segment-major, to time order
    gamma = fwd.alphas[1:].transpose(2, 0, 1).reshape(-1, live.size)[:n_window]
    probs = np.zeros((n_window, N_STATES))
    probs[:, live] = gamma / gamma.sum(axis=1, keepdims=True)
    return Posterior(probs=probs, log_likelihood=fwd.total_log_lik())


def _sample_matrix(samples) -> np.ndarray:
    y = np.asarray(samples, dtype=float)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValueError("samples must be 2-D with at least one column")
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
    gamma0, log_lik = _start_posteriors(params, y, [y.shape[1]], log_lik=True)
    return gamma0[0], log_lik


def start_posteriors_at(params: HmmParams, samples: np.ndarray, window_ends) -> np.ndarray:
    """Smoothed time-zero posterior of every row of ``samples`` at each window end.

    Entry k of the (len(window_ends), n, 6) result is the posterior given
    the first ``window_ends[k]`` samples, i.e. ``start_posterior_batch``
    on ``samples[:, :window_ends[k]]``, from one joint pass over the
    longest window (:func:`_run_chunk`), one chunk of traces at a time.
    """
    y = _sample_matrix(samples)
    ends = [int(e) for e in window_ends]
    if not ends or min(ends) < 1 or max(ends) > y.shape[1]:
        raise ValueError("window ends must be non-empty and within 1..n_samples")
    return _start_posteriors(params, y, ends)[0]


def _start_posteriors(params: HmmParams, y: np.ndarray, ends, log_lik: bool = False):
    """The time-zero posteriors (len(ends), n, 6) of the rows of y, one chunk at
    a time, and with ``log_lik`` the per-trace log-likelihood, else None."""
    chain = _live_chain(params.pi, params.a)
    t_len = max(ends)
    out = np.zeros((len(ends), y.shape[0], N_STATES))
    ll = np.empty(y.shape[0]) if log_lik else None
    for sl in _trace_chunks(y.shape[0], t_len):
        fwd = _run_chunk(params, chain, y[sl, :t_len], ends, log_lik)
        out[:, sl] = fwd.posteriors
        if log_lik:
            ll[sl] = fwd.log_lik + fwd.seg.shift
    return out, ll


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
        total += _run_chunk(params, chain, batch.samples[sl], log_lik=True).total_log_lik()
    return total


def _check_dt(params: HmmParams, dt: float) -> None:
    """Raise unless ``params`` was built for the data's sample interval."""
    if not math.isclose(params.dt, dt, rel_tol=1e-9):
        raise ValueError(f"hmm dt {params.dt!r} s does not match the data's dt {dt!r} s")


def _window_samples(dt: float, n_available: int, t_read: float | None) -> int:
    if t_read is None:
        return n_available
    if not math.isfinite(t_read):
        raise ValueError(f"t_read must be finite, got {t_read!r}")
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

    Each trace chunk is copied into time order once per fit, so that a
    step of its folded samples, which the emission factors and the moments
    read, is L runs of adjacent floats. The E-step adds its sums up inside
    the backward pass (:func:`_smooth`) and builds no posteriors in time
    order, only per-trace sums. A chunk takes :func:`_run_chunk`, then
    :func:`_smooth`; the last chunk's second call waits for the
    convergence test, so a converged E-step on one chunk runs only its
    transfers and stitch, or its one-segment forward pass. A converged fit
    returns the parameters its last E-step scored, so
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
    dt = batch.dt
    # each chunk (n, T) as a view of its time-major copy
    chunks = [
        np.ascontiguousarray(batch.samples[sl].T).T
        for sl in _trace_chunks(batch.n_traces, batch.n_samples)
    ]
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
        for i, y in enumerate(chunks, 1):
            fwd = _run_chunk(params, chain, y, log_lik=True, stored=True)
            ll_total += fwd.total_log_lik()
            # the last chunk is smoothed after the convergence test
            if i < len(chunks):
                stats.append(_smooth(params, chain, y, fwd, centres))
        lls.append(ll_total)
        if len(lls) >= 2 and abs(ll_total - lls[-2]) < tol * abs(lls[-2]):
            converged = True
            break
        stats.append(_smooth(params, chain, y, fwd, centres))
        pis, xis, per_trace = zip(*stats)
        pi_sum, xi_sum = sum(pis), sum(xis)
        # each chunk's per-trace moment columns (k, 3, n) over its traces
        moments = sum(m.sum(axis=2) for m in per_trace)

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
