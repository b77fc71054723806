"""simulate_batch against golden digests and a per-step reference loop.

The digests were recorded with the per-sample stepping loop that
``_hidden_paths`` replaced; ``_stepped_paths`` and ``_stepped_simulate``
below are copies of that loop. Together they pin the reproducibility
contract: a seed gives bit-identical samples, labels and paths. The
seed-state tests check markov's vectorised SeedSequence hash against
numpy's own, the guard that keeps each trace's generator default_rng's.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import spinread as sr
from spinread import markov
from spinread.markov import N_STATES, _hidden_paths

T1_T0 = 170e-6
T1_TM = 290e-3
TAU_MIN = 3.3e-6


def _stepped_paths(u, cum_pi, cum_a):
    """The rule applied at every step, one row gather per sample."""
    state = np.minimum(np.searchsorted(cum_pi, u[:, 0], side="right"), N_STATES - 1)
    paths = np.empty(u.shape, dtype=np.int8)
    for t in range(u.shape[1]):
        if t > 0:
            rows = cum_a[state]
            state = (rows <= u[:, t, None]).sum(axis=1)
            np.minimum(state, N_STATES - 1, out=state)
        paths[:, t] = state
    return paths


def _stepped_simulate(params, n_traces, n_samples, seed):
    u = np.empty((n_traces, n_samples))
    y = np.empty((n_traces, n_samples))
    for k in range(n_traces):
        rng = np.random.default_rng((int(seed), k))
        u[k] = rng.random(n_samples)
        y[k] = rng.standard_normal(n_samples)
    paths = _stepped_paths(u, np.cumsum(params.pi), np.cumsum(params.a, axis=1))
    means = params.emissions.means
    stds = params.emissions.stds
    for t in range(n_samples):
        state = paths[:, t]
        y[:, t] = means[state] + stds[state] * y[:, t]
    return y, (paths[:, 0] % 3).astype(np.int8), paths


def _reference_point(dt, spin_probs=(0.25, 0.25, 0.5), tlf=(0.0, 0.0), excited=0.0):
    return sr.HmmParams.from_spin_model(
        spin_probs, sr.RateSet(1 / T1_T0, 1 / T1_TM, *tlf), dt,
        std=(TAU_MIN / dt) ** 0.5, tlf_excited_prob=excited,
    )


def _all_states_untied():
    return sr.HmmParams(
        pi=[0.1, 0.15, 0.2, 0.25, 0.12, 0.18],
        rates=sr.RateSet(1 / T1_T0, 1 / T1_TM, 2e3, 3e3),
        dt=10e-6,
        emissions=sr.EmissionModel(
            means=[0.0, 1.0, 0.9, 1.1, 0.05, -0.1], stds=[0.3, 0.35, 0.4, 0.45, 0.5, 0.55]
        ),
    )


def _random_switching(rng, dt=10e-6):
    return sr.HmmParams(
        pi=rng.dirichlet(np.ones(N_STATES)),
        rates=sr.RateSet(*rng.uniform(0.0, 2e4, 4)),
        dt=dt,
        emissions=sr.EmissionModel(means=rng.uniform(-1, 2, N_STATES), stds=rng.uniform(0.2, 1, N_STATES)),
    )


# name: (params, n_traces, n_samples, seed, sha256 of samples, labels, paths)
GOLDEN = {
    "reference_dt10us": (
        lambda: _reference_point(10e-6), 500, 400, 301,
        "ca1d44e9f955abc0f5ab2cb097e85539b8300b4caf5f6df2e4dd8355646d135f",
        "3f12eb41fdfc5ce764c3b776e66e4a7570af75b11c7ee2ad237d5550b6c7e1ff",
        "a53d88d2bd0f70b6f28f54469b6cf1ea737c71a4e243469fe02531e7cbe2e939",
    ),
    "reference_dt40us": (
        lambda: _reference_point(40e-6), 60, 4200, 302,
        "572070d0453b4360f856e3bf1c3d91ba88b6c3c5861b545da6f0464a9c55b462",
        "5be7e0c1a5353527bc6170b44944046c20484e30c17578dcc8b802c6a73faaab",
        "2a64e25d48f248aeb22bcc519761308c8a744e892f3aa8ccbae6895c696ab536",
    ),
    "switching": (
        lambda: _reference_point(10e-6, tlf=(1e3, 2e3), excited=0.3), 500, 400, 303,
        "fd4f6a0a74a228e33ccdd1e06131ab7dfab20c13734b51cf9bb1b387dafae3bc",
        "42679473f8493c751feb6fd4b76f2222f43c6f335124fd84f86b73893faee2a4",
        "fa9be499cf2dfb395d5cd3c4ae07134db84b07e842c50ae134c22cb2d9a30865",
    ),
    "strong_switching": (
        lambda: sr.HmmParams.from_spin_model(
            [0.25, 0.25, 0.5], sr.RateSet(1e4, 1e3, 4e3, 8e3), 10e-6,
            std=(TAU_MIN / 10e-6) ** 0.5, tlf_excited_prob=0.3,
        ), 500, 400, 304,
        "5bb60e9fba5f1836cbaadcd61db6eeeaef688f3c28bad34d2d5986221fe8d025",
        "68f039854bcda82d9f2089840b8a3d723be869cab79853a85e8a80d089777623",
        "ca00f9b2e9feb74fc9ce7c2195c90151cce050c3375496c0664bd910603882ce",
    ),
    "all_states_untied": (
        _all_states_untied, 300, 200, 305,
        "8a4089c6762ca00d3e5b6c6fd040a45275b5e45966d57869d3860066203f5bc4",
        "985f8b48bf8f4e7f9ca647f7fb5c8e97ef6c6770dc77032a3bdc85f420e9b5b3",
        "23b0328b15e9c1c2b13380449644cc1be5c38d8655edbd3a292e9d63d215835d",
    ),
    "one_sample": (
        _all_states_untied, 1000, 1, 306,
        "9adefb371a7b7e02f04de19f7a679ca4fd9ea15d4fbd3d1f15664dda3bc83160",
        "6db59095b7d1cb9f14f0bf82a8998814f2e9e021bb33f0d8b764d2fc75119ea3",
        "249aa2703a8d1fbf1f1c9447687b59413022676a56b39c4cc590af4b9a619a7d",
    ),
    "two_state_4000x34": (
        lambda: _reference_point(10e-6, spin_probs=(0.5, 0.0, 0.5)), 4000, 34, 307,
        "0cbca0beb4611ed7111b0c634d2195c01648b54a1a0830454eb0e64d75a7083c",
        "5bdfd9a3b991c90e606c037c3859ede2daee930be822cd2c6dc2767c868bda7f",
        "176a580a7396d10e20b1e967fb1ef39a4b2d14e06f432109e9f4e8ffa8e485cc",
    ),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _golden_digests(name):
    make, n_traces, n_samples, seed = GOLDEN[name][:4]
    batch, paths = sr.simulate_batch(make(), n_traces, n_samples, seed, return_paths=True)
    assert batch.samples.dtype == np.float64 and paths.dtype == np.int8
    return _digest(batch.samples), _digest(batch.labels), _digest(paths)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    assert _golden_digests(name) == GOLDEN[name][4:]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equals_stepped_simulation(seed):
    params = _random_switching(np.random.default_rng(seed))
    batch, paths = sr.simulate_batch(params, 200, 150, seed, return_paths=True)
    y, labels, want = _stepped_simulate(params, 200, 150, seed)
    np.testing.assert_array_equal(paths, want)
    np.testing.assert_array_equal(batch.labels, labels)
    np.testing.assert_array_equal(batch.samples, y)


def _boundary_uniforms(rng, cum_pi, cum_a, shape):
    """Uniforms drawn from the rule's thresholds, their neighbours on both
    sides, 0 and the largest double below 1, mixed with ordinary draws."""
    edges = np.concatenate([cum_pi, cum_a.ravel(), [0.0, 1.0]])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    edges = np.unique(edges[(edges >= 0.0) & (edges < 1.0)])
    u = rng.choice(edges, size=shape)
    plain = rng.random(shape) < 0.3
    u[plain] = rng.random(int(plain.sum()))
    return u


@pytest.mark.parametrize("seed", range(6))
def test_boundary_uniforms_match_stepping(seed):
    rng = np.random.default_rng(100 + seed)
    params = _random_switching(rng, dt=rng.choice([1e-6, 1e-5, 1e-4]))
    cum_pi, cum_a = np.cumsum(params.pi), np.cumsum(params.a, axis=1)
    u = _boundary_uniforms(rng, cum_pi, cum_a, (300, 170))
    np.testing.assert_array_equal(_hidden_paths(u, cum_pi, cum_a), _stepped_paths(u, cum_pi, cum_a))


def test_row_ending_below_one_clips_to_last_state():
    # some switching models have a cumulative row that rounds to just
    # below 1; a uniform at or above its end counts six thresholds and is
    # clipped to state 5 (Tm,E), wherever the trace was
    rng = np.random.default_rng(7)
    for _ in range(2000):
        params = _random_switching(rng)
        cum_a = np.cumsum(params.a, axis=1)
        short = np.flatnonzero(cum_a[:, -1] < 1.0)
        if short.size:
            break
    else:
        pytest.fail("no model with a cumulative row below 1")
    s = int(short[0])
    pi = np.zeros(N_STATES)
    pi[s] = 1.0
    cum_pi = np.cumsum(pi)
    tail = np.nextafter(1.0, 0.0)
    u = _boundary_uniforms(rng, cum_pi, cum_a, (400, 60))
    u[:, 0] = 0.0
    u[:, 1] = rng.choice([cum_a[s, -1], tail], size=400)
    paths = _hidden_paths(u, cum_pi, cum_a)
    np.testing.assert_array_equal(paths, _stepped_paths(u, cum_pi, cum_a))
    assert np.all(paths[:, 0] == s) and np.all(paths[:, 1] == N_STATES - 1)


def test_absorbing_states_and_single_sample():
    # S is never left at the reference point, and a one-sample path is
    # only the start state
    params = _reference_point(10e-6)
    cum_pi, cum_a = np.cumsum(params.pi), np.cumsum(params.a, axis=1)
    u = np.full((3, 130), np.nextafter(1.0, 0.0))
    u[:, 0] = [0.0, np.nextafter(0.25, 0.0), 0.1]
    paths = _hidden_paths(u, cum_pi, cum_a)
    assert np.all(paths == 0)
    np.testing.assert_array_equal(_hidden_paths(u[:, :1], cum_pi, cum_a), paths[:, :1])


# -- seed states ----------------------------------------------------------------

_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5)
# every k below 2**32 is one entropy word, the case the hash is vectorised for
_KS = (0, 1, 2**31, 2**32 - 1)


@pytest.mark.parametrize("key", [(), (1,)], ids=["readout", "background"])
@pytest.mark.parametrize("seed", _SEEDS)
def test_seed_states_equal_seed_sequence(seed, key):
    got = markov._seed_states(seed, np.array(_KS), key)
    assert got.dtype == np.uint64 and got.shape == (len(_KS), 4)
    for k, state in zip(_KS, got):
        want = np.random.SeedSequence((seed, k, *key)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(state, want)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_seed_state_adapter_rejects_other_requests(n_words, dtype):
    state = markov._seed_states(3, np.array([0]))[0]
    adapter = markov._SeedState(state)
    with pytest.raises(ValueError, match="4 uint64 words"):
        adapter.generate_state(n_words, dtype)
    assert adapter.generate_state(4, np.uint64) is state


def test_backgrounds_equal_per_trace_generators():
    # the reference: one default_rng((seed, k, 1)) per trace
    seed, mean, std = 11, 0.25, 0.3
    want = np.empty((40, 9))
    for k in range(40):
        rng = np.random.default_rng((seed, k, 1))
        want[k] = mean + std * rng.standard_normal(9)
    np.testing.assert_array_equal(markov.simulate_backgrounds(40, 9, seed, mean, std), want)


def test_batch_of_2_pow_32_traces_raises_before_allocating():
    params = _reference_point(10e-6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_traces must be < 2\\*\\*32"):
            sr.simulate_batch(params, 2**32, 1, seed=0)
        with pytest.raises(ValueError, match="n_traces must be < 2\\*\\*32"):
            markov.simulate_backgrounds(2**32, 1, 0, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", [1.7, 2.0, True], ids=["fraction", "whole_float", "bool"])
def test_seed_that_is_not_an_integer_raises(seed):
    params = _reference_point(10e-6)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        sr.simulate_batch(params, 2, 5, seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        markov.simulate_backgrounds(2, 5, seed, 0.0, 1.0)


def test_numpy_integer_seed_gives_the_same_bits():
    params = _reference_point(10e-6)
    got = sr.simulate_batch(params, 3, 40, seed=np.int64(5))
    want = sr.simulate_batch(params, 3, 40, seed=5)
    np.testing.assert_array_equal(got.samples, want.samples)
    np.testing.assert_array_equal(got.labels, want.labels)
    np.testing.assert_array_equal(
        markov.simulate_backgrounds(3, 7, np.int64(5), 0.1, 0.2),
        markov.simulate_backgrounds(3, 7, 5, 0.1, 0.2),
    )
