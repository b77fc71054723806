"""An exact, recursion-free oracle for decay-only chains at full length.

With the fluctuator frozen, S absorbs and each triplet decays to S at
most once: triplet i still holds at step tau - 1 and is S from step tau on
with probability a_ii^(tau-1) a_i0 (D'Anjou & Coish 2014; Gambetta et al.
2007 write the readout likelihood as the same sum over the decay time).
With D_i(tau) the cumulative log-likelihood ratio of triplet i against S
over the first tau samples, the likelihood of the first N samples given
s0 = T_i, over the one given s0 = S, is

    sum_{tau=1}^{N-1} a_ii^(tau-1) a_i0 e^{D_i(tau)} + a_ii^(N-1) e^{D_i(N)},

a cumulative log-sum-exp over tau. That gives the time-zero posterior
and the log-likelihood at every window end in a few array passes, with
no forward recursion, segment transfer or stitch, so it checks the HMM
kernel at every window end independently of how it is computed.
"""

import math

import numpy as np
import pytest

import spinread as sr
from spinread import markov

POSTERIOR_ATOL = 1e-12
# Largest relative log-likelihood error measured against the kernel over
# every case below, with and without segments, was 1.04e-14 (per trace; the
# batch sums 6.7e-16); the bound keeps a margin of about 10x.
LL_RTOL = 1e-13


def _decay_oracle(params, y):
    """Time-zero posteriors (T, n, 3) over (S, T0, Tm) and log-likelihoods
    (T, n), entry N - 1 for the window of the first N samples of y (n, T)."""
    a = params.a
    assert params.rates.tlf_up == params.rates.tlf_down == 0.0
    assert np.all(params.pi[3:] == 0.0)
    means, stds = params.emissions.means[:3], params.emissions.stds[:3]
    z = (y[None] - means[:, None, None]) / stds[:, None, None]
    log_f = -0.5 * z * z - (np.log(stds) + 0.5 * math.log(2 * math.pi))[:, None, None]
    # cum[s, :, N] = log P(first N samples | s held throughout), summed in
    # extended precision: these sums run to some 1e4 times the
    # log-likelihood, which float64 partial sums would round at 1e-13
    cum = np.zeros(log_f.shape[:2] + (log_f.shape[2] + 1,))
    cum[:, :, 1:] = np.cumsum(log_f, axis=2, dtype=np.longdouble)
    t_len = y.shape[1]
    steps = np.arange(t_len)
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi[:3])
        log_stay = np.log(np.diagonal(a)[1:3])
        log_decay = np.log(a[1:3, 0])
    d = cum[1:] - cum[0]
    # decay at tau = 1 .. T - 1, then summed over tau < N
    e = (steps[:-1] * log_stay[:, None])[:, None, :] + log_decay[:, None, None] + d[:, :, 1:-1]
    below = np.full((2, y.shape[0], t_len), -np.inf)
    below[:, :, 1:] = np.logaddexp.accumulate(e, axis=2)
    # w[s] = log pi_s + log P(first N samples, s0 = s): no decay is
    # triplet i held throughout, kept apart from the S samples' sum
    w = np.empty((3, y.shape[0], t_len))
    w[0] = log_pi[0] + cum[0, :, 1:]
    held = (steps * log_stay[:, None])[:, None, :] + cum[1:, :, 1:]
    w[1:] = log_pi[1:, None, None] + np.logaddexp(below + cum[0, :, 1:], held)
    top = w.max(axis=0)
    p = np.exp(w - top)
    norm = p.sum(axis=0)
    return (p / norm).transpose(2, 1, 0), (top + np.log(norm)).T


def _params(dt, std, t1_t0=170e-6, t1_tm=290e-3):
    return sr.HmmParams.from_spin_model(
        [0.25, 0.25, 0.5], sr.RateSet(1 / t1_t0, 1 / t1_tm), dt=dt, std=std
    )


# (params, rows, columns of the simulated batch). The reference point at
# the EM size (42 segments of 100 steps) and the first 500 traces of the
# sweep's 4000 x 400 batch (per-trace seeds make them a slice of it);
# a high-SNR case whose posteriors saturate and whose stitch norms shrink;
# and T0 decaying within a few samples
CASES = {
    "reference_150x4200": (_params(40e-6, math.sqrt(3.3e-6 / 40e-6)), 150, 4200),
    "reference_slice_4000x400": (_params(10e-6, math.sqrt(3.3e-6 / 10e-6)), 500, 400),
    "high_snr": (_params(10e-6, 0.08), 60, 900),
    "fast_t0": (_params(10e-6, 0.4, t1_t0=20e-6), 80, 700),
}
SEEDS = {"reference_150x4200": 701, "reference_slice_4000x400": 702, "high_snr": 703, "fast_t0": 704}


def _case(name):
    params, n, t_len = CASES[name]
    return params, sr.simulate_batch(params, n, t_len, seed=SEEDS[name]).samples


_ORACLE = {}


def _oracle(name):
    if name not in _ORACLE:
        params, y = _case(name)
        _ORACLE[name] = (params, y, *_decay_oracle(params, y))
    return _ORACLE[name]


@pytest.fixture(params=["segmented", "one_segment"])
def segmenting(request, monkeypatch):
    """Run each check with the chunk's own segment count, and with L = 1."""
    if request.param == "one_segment":
        monkeypatch.setattr(markov, "_SEGMENT_ELEMENTS", 0)
    return request.param


def _six(post):
    out = np.zeros(post.shape[:-1] + (markov.N_STATES,))
    out[..., :3] = post
    return out


def test_oracle_matches_brute_force():
    # the closed form itself, against every path of a short trace
    params = _params(10e-6, 0.5, t1_t0=15e-6, t1_tm=40e-6)
    y = sr.simulate_batch(params, 2, 6, seed=705).samples
    post, log_lik = _decay_oracle(params, y)
    for j, row in enumerate(y):
        for n_read in (1, 4, 6):
            exact = markov.brute_force_posterior(params, sr.Trace(dt=params.dt, samples=row[:n_read]))
            np.testing.assert_allclose(post[n_read - 1, j], exact.probs[0, :3], rtol=0, atol=1e-14)
            np.testing.assert_allclose(log_lik[n_read - 1, j], exact.log_likelihood, rtol=1e-13)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_are_segmented(name):
    params, y = _case(name)
    live = markov._live_states(params.pi, params.a)
    assert list(live) == [0, 1, 2]
    assert markov._segment_count(live.size, *y.shape) > 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_start_posteriors_at_every_window_end(name, segmenting):
    params, y, post, _ = _oracle(name)
    ends = np.arange(1, y.shape[1] + 1)
    got = markov.start_posteriors_at(params, y, ends)
    # one pass over the (T, n, 6) result, not assert_allclose's several
    assert np.abs(got - _six(post)).max() <= POSTERIOR_ATOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_start_posterior_batch(name, segmenting):
    params, y, post, log_lik = _oracle(name)
    gamma0, ll = markov.start_posterior_batch(params, y)
    np.testing.assert_allclose(gamma0, _six(post[-1]), rtol=0, atol=POSTERIOR_ATOL)
    np.testing.assert_allclose(ll, log_lik[-1], rtol=LL_RTOL, atol=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_backward_step_zero(name, segmenting):
    params, y, post, log_lik = _oracle(name)
    t_len = y.shape[1]
    for j, n_read in ((0, t_len // 3 + 1), (y.shape[0] - 1, t_len)):
        trace = sr.Trace(dt=params.dt, samples=y[j])
        fb = sr.forward_backward(params, trace, t_read=n_read * params.dt)
        np.testing.assert_allclose(fb.probs[0], _six(post[n_read - 1, j]), rtol=0, atol=POSTERIOR_ATOL)
        np.testing.assert_allclose(fb.log_likelihood, log_lik[n_read - 1, j], rtol=LL_RTOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_log_likelihood(name, segmenting):
    params, y, _, log_lik = _oracle(name)
    t_len = y.shape[1]
    for n_read in (1, t_len // 2 + 1, t_len):
        batch = sr.TraceBatch(dt=params.dt, samples=y[:, :n_read])
        got = sr.log_likelihood(params, batch)
        np.testing.assert_allclose(got, log_lik[n_read - 1].sum(), rtol=LL_RTOL, atol=0)
