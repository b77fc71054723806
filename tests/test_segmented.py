"""Old-vs-new: the time-segmented HMM passes against the per-step loops
they replaced.

The reference loops below are the unsegmented recursions as ``markov``
ran them before the segmented passes: a scaled forward loop that divides
alpha by its scale every step, a scaled backward loop, the E-step sums
taken inside it, and the joint pass over the longest window. Every
segmented result must match them within 1e-12 relative; posteriors that
pass through the subnormal range keep no relative precision on either
side, so they are also compared with ``atol=1e-290``.
"""

import hashlib
import math

import numpy as np
import pytest

import spinread as sr
from spinread import markov
from spinread.markov import N_STATES, ZeroLikelihoodError

RTOL = dict(rtol=1e-12, atol=0.0)
POSTERIOR_TOL = dict(rtol=1e-12, atol=1e-290)


# -- the per-step reference loops --------------------------------------------


def _ref_forward(pi, a, b):
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
    markov._check_scales(c)
    return alphas, c


def _ref_backward(a, b, c):
    b /= c[:, None, :]
    beta = np.ones(b.shape[1:])
    for t in range(b.shape[0] - 1, -1, -1):
        w = np.multiply(beta, b[t], out=b[t])
        yield t, beta, w
        beta = a @ w


def _ref_smoothed_statistics(a, yt, b, alphas, c, centres):
    k = b.shape[1]
    step_xi = np.empty((b.shape[0], k, k))
    for t, beta, w in _ref_backward(a, b, c):
        if t > 0:
            np.matmul(alphas[t - 1], w.T, out=step_xi[t])
        np.multiply(alphas[t], beta, out=alphas[t])
    gamma = alphas
    moments = np.empty((k, 3))
    for s, centre in enumerate(centres):
        g, d = gamma[:, s], np.subtract(yt, centre, order="C")
        moments[s] = g.sum(), np.einsum("tn,tn->", g, d), np.einsum("tn,tn,tn->", g, d, d)
    return gamma[0].sum(axis=1), step_xi[1:].sum(axis=0), moments, gamma


def _state_factors(params, yt, live):
    """The emission factors (T, k, n) of the live states, one row per
    state, and their per-trace shift summed over the steps."""
    mu, sd, pair_of = markov._emission_pairs(params.emissions.means, params.emissions.stds)
    b, shift = markov._emission_likelihoods(yt, mu, sd)
    return np.take(b, pair_of[live], axis=1), shift.sum(axis=0)


def _ref_chunk(params, y):
    """Reference forward pass over rows y (n, T): (chain, yt, b, alphas, c, ll per trace)."""
    chain = markov._live_chain(params.pi, params.a)
    live, pi, a = chain
    yt = y.T
    b, shift = _state_factors(params, yt, live)
    alphas, c = _ref_forward(pi, a, b)
    return chain, yt, b, alphas, c, np.log(c).sum(axis=0) + shift


def _ref_joint_pass(params, y, ends):
    """Reference time-zero posteriors (len(ends), n, 6) and per-trace
    log-likelihoods of the longest window, one joint pass over y (n, T)."""
    live, pi, a = markov._live_chain(params.pi, params.a)
    start = np.flatnonzero(pi > 0.0)
    k_live, m = live.size, start.size
    t_len = max(ends)
    b, shift = _state_factors(params, y[:, :t_len].T, live)
    n = b.shape[2]
    out = np.zeros((len(ends), n, N_STATES))
    c = np.empty((t_len, n))
    joint = np.zeros((k_live, m, n))
    joint[start, np.arange(m)] = pi[start, None] * b[0, start]
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(t_len):
            if t > 0:
                joint = (a.T @ joint.reshape(k_live, m * n)).reshape(k_live, m, n)
                joint *= (b[t] / c[t - 1])[:, None, :]
            joint.reshape(k_live * m, n).sum(axis=0, out=c[t])
            for i, e in enumerate(ends):
                if e - 1 == t:
                    g0 = joint.sum(axis=0)
                    out[i][:, live[start]] = (g0 / g0.sum(axis=0)).T
    markov._check_scales(c)
    return out, np.log(c).sum(axis=0) + shift


# -- cases --------------------------------------------------------------------


def _reference_params(dt=40e-6):
    return sr.HmmParams.from_spin_model(
        [0.25, 0.25, 0.5], sr.RateSet(1 / 170e-6, 1 / 290e-3), dt=dt, std=math.sqrt(3.3e-6 / dt)
    )


def _switching_params(tied):
    rng = np.random.default_rng(31)
    dt = 1e-5
    rates = sr.RateSet(2e3, 4e2, 3e3, 5e3)
    if tied:
        emissions = sr.EmissionModel.from_charge_levels(0.0, 1.0, 0.45)
    else:
        emissions = sr.EmissionModel(means=rng.uniform(-0.2, 1.2, 6), stds=rng.uniform(0.3, 0.6, 6))
    return sr.HmmParams(pi=rng.dirichlet(np.ones(6)), rates=rates, dt=dt, emissions=emissions)


# (name, params, n_traces, n_samples): the reference point splits 150 x 4200
# into 42 segments of 100 steps; 1 x 997 (a prime) and 7 x 263 pad their last
# segment; switching makes all six states live
CASES = {
    "reference_150x4200": (_reference_params(), 150, 4200),
    "reference_n1_prime": (_reference_params(), 1, 997),
    "switching_tied_padded": (_switching_params(True), 7, 263),
    "switching_untied_padded": (_switching_params(False), 7, 263),
    "switching_tied_40x600": (_switching_params(True), 40, 600),
}


def _case(name):
    params, n, t_len = CASES[name]
    return params, sr.simulate_batch(params, n, t_len, seed=sum(map(ord, name))).samples


def _segments_of(params, y):
    live = markov._live_chain(params.pi, params.a)[0]
    count = markov._segment_count(live.size, *y.shape)
    return markov._Segments(params, live, y, count)


@pytest.fixture(params=["segmented", "one_segment"])
def segmenting(request, monkeypatch):
    """Run each test with the chunk's own segment count, and with L = 1."""
    if request.param == "one_segment":
        monkeypatch.setattr(markov, "_SEGMENT_ELEMENTS", 0)
    return request.param


@pytest.mark.parametrize("name", sorted(CASES))
def test_cases_are_segmented(name):
    params, y = _case(name)
    seg = _segments_of(params, y)
    assert seg.count > 1
    padded = seg.count * seg.span != y.shape[1]
    assert padded == name.endswith(("padded", "prime"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_log_likelihood(name, segmenting):
    _check_log_likelihood(*_case(name))


def _check_log_likelihood(params, y):
    got = sr.log_likelihood(params, sr.TraceBatch(dt=params.dt, samples=y))
    np.testing.assert_allclose(got, _ref_chunk(params, y)[-1].sum(), **RTOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_smoothed_statistics(name, segmenting):
    params, y = _case(name)
    chain, yt, b, alphas, c, ll = _ref_chunk(params, y)
    live, _, a = chain
    centres = params.emissions.means[live] + 0.01
    expected = _ref_smoothed_statistics(a, yt, b, alphas, c, centres)[:3]
    fwd = markov._run_chunk(params, chain, y, log_lik=True, stored=True)
    np.testing.assert_allclose(fwd.total_log_lik(), ll.sum(), **RTOL)
    pi, xi, per_trace = markov._smooth(params, chain, y, fwd, centres)
    # the per-trace moment columns add up to the chunk's
    for g, e in zip((pi, xi, per_trace.sum(axis=2)), expected):
        np.testing.assert_allclose(g, e, **RTOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_trace_moments(name, segmenting):
    """The backward pass's per-trace moment columns, trace by trace against
    the reference posteriors, each within 1e-12 of the sum of its terms'
    magnitudes."""
    params, y = _case(name)
    chain, yt, b, alphas, c, ll = _ref_chunk(params, y)
    live, _, a = chain
    centres = params.emissions.means[live] + 0.01
    gamma = _ref_smoothed_statistics(a, yt, b, alphas, c, centres)[3]
    d = yt[:, None, :] - centres[:, None]
    terms = np.stack([gamma, gamma * d, gamma * d * d], axis=2)
    fwd = markov._run_chunk(params, chain, y, log_lik=True, stored=True)
    per_trace = markov._smooth(params, chain, y, fwd, centres)[2]
    assert per_trace.shape == (live.size, 3, y.shape[0])
    error = np.abs(per_trace - terms.sum(axis=0))
    assert np.all(error <= 1e-12 * np.abs(terms).sum(axis=0) + 1e-290)


@pytest.mark.parametrize("name", ["reference_n1_prime", "switching_untied_padded"])
def test_forward_backward(name, segmenting):
    _check_forward_backward(*_case(name))


def _check_forward_backward(params, y):
    """forward_backward on the first three rows of y."""
    for row in y[:3]:
        chain, yt, b, alphas, c, ll = _ref_chunk(params, row[None, :])
        live, _, a = chain
        gamma = _ref_smoothed_statistics(a, yt, b, alphas, c, np.zeros(live.size))[3]
        post = sr.forward_backward(params, sr.Trace(dt=params.dt, samples=row))
        expected = np.zeros((row.size, N_STATES))
        expected[:, live] = gamma[:, :, 0] / gamma.sum(axis=1)
        np.testing.assert_allclose(post.probs, expected, **POSTERIOR_TOL)
        np.testing.assert_allclose(post.log_likelihood, ll[0], **RTOL)


def _window_ends(seg, t_len):
    """Ends in the first, a middle and the last segment, and on both sides
    of segment boundaries."""
    span = seg.span
    ends = {1, 2, span // 2, span, span + 1, 2 * span, (seg.count // 2) * span + 3,
            (seg.count - 1) * span, (seg.count - 1) * span + 1, t_len - 1, t_len}
    return sorted(e for e in ends if 1 <= e <= t_len)


@pytest.mark.parametrize("name", sorted(CASES))
def test_start_posteriors_at_segment_ends(name, segmenting):
    params, y = _case(name)
    _check_start_posteriors_at(params, y, _window_ends(_segments_of(params, y), y.shape[1]))


def _check_start_posteriors_at(params, y, ends):
    expected, _ = _ref_joint_pass(params, y, ends)
    np.testing.assert_allclose(markov.start_posteriors_at(params, y, ends), expected, **POSTERIOR_TOL)


@pytest.mark.parametrize("name", sorted(CASES))
def test_start_posterior_batch(name, segmenting):
    _check_start_posterior_batch(*_case(name))


def _check_start_posterior_batch(params, y):
    expected, ll = _ref_joint_pass(params, y, [y.shape[1]])
    gamma0, log_lik = markov.start_posterior_batch(params, y)
    np.testing.assert_allclose(gamma0, expected[0], **POSTERIOR_TOL)
    np.testing.assert_allclose(log_lik, ll, **RTOL)


def test_several_chunks(monkeypatch):
    params, y = _case("switching_tied_40x600")
    # 15 traces per chunk: chunks of 15, 15 and 10 traces, each segmented
    monkeypatch.setattr(markov, "_CHUNK_ELEMENTS", 15 * N_STATES * 600)
    assert len(list(markov._trace_chunks(*y.shape))) == 3
    ends = _window_ends(_segments_of(params, y[:15]), y.shape[1])
    expected, ll = _ref_joint_pass(params, y, ends)
    np.testing.assert_allclose(markov.start_posteriors_at(params, y, ends), expected, **POSTERIOR_TOL)
    np.testing.assert_allclose(markov.start_posterior_batch(params, y)[1], ll, **RTOL)
    batch = sr.TraceBatch(dt=params.dt, samples=y)
    np.testing.assert_allclose(sr.log_likelihood(params, batch), ll.sum(), **RTOL)


# -- the step of a vanishing likelihood ----------------------------------------


def _vanishing_params(far_mean=1.0):
    """S and T0 live (T0 decays to S); S sits at 0, T0 at 1, std 1. A sample
    at -1000 leaves T0 exactly no mass (its likelihood underflows), and a
    sample at +1000 is one only T0 can emit. (S,E), never live, sits at
    ``far_mean``."""
    return sr.HmmParams(
        pi=np.array([0.5, 0.5, 0, 0, 0, 0]), rates=sr.RateSet(0.1, 0.0), dt=1.0,
        emissions=sr.EmissionModel(means=np.array([0.0, 1, 1, far_mean, 0, 0]), stds=np.ones(6)),
    )


def _ref_step(params, y):
    with pytest.raises(ZeroLikelihoodError) as err:
        _ref_chunk(params, y)
    return err.value.step


_ENTRY_POINTS = {
    "log_likelihood": lambda p, y: sr.log_likelihood(p, sr.TraceBatch(dt=1.0, samples=y)),
    "em_fit": lambda p, y: sr.em_fit(sr.TraceBatch(dt=1.0, samples=y), p, max_iter=2),
    "start_posterior_batch": lambda p, y: markov.start_posterior_batch(p, y),
    "start_posteriors_at": lambda p, y: markov.start_posteriors_at(p, y, [5, y.shape[1]]),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("vanish_at", [3, 9, 10, 47, 89, 90, 99])
def test_vanishing_step_in_each_segment(entry, vanish_at):
    # 100 steps over the two live states: 10 segments of 10 steps. T0
    # loses its mass at step 0, so the forward mass is wholly on S when
    # only T0 emits; past segment 0 the transfer of that segment, started
    # from the identity, keeps T0's column alive, so the stitch catches it
    params = _vanishing_params()
    y = np.full((2, 100), 0.5)
    y[:, 0] = -1000.0
    y[0, vanish_at] = 1000.0
    y[1, min(vanish_at + 23, 99)] = 1000.0
    seg = _segments_of(params, y)
    assert (seg.count, seg.span) == (10, 10)
    live, pi, a = markov._live_chain(params.pi, params.a)
    transfer = markov._Segments(params, live, y[:1], 10)
    start = np.flatnonzero(pi > 0)
    assert markov._transfer_pass(transfer, pi, a.T, start, {}, True) is None
    if vanish_at >= 10:
        # started with mass on T0 too, that segment alone has a likelihood
        l = vanish_at // 10
        alone = sr.TraceBatch(dt=1.0, samples=y[:1, 10 * l:10 * l + 10])
        assert math.isfinite(sr.log_likelihood(params, alone))
    with pytest.raises(ZeroLikelihoodError) as err:
        _ENTRY_POINTS[entry](params, y)
    assert err.value.step == _ref_step(params, y) == vanish_at


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_state_vanishing_in_a_middle_segment(entry):
    # a sample only the non-live (S,E) can emit: every live state's
    # likelihood vanishes, and so do the transfers
    params = _vanishing_params(far_mean=1e6)
    y = np.full((3, 100), 0.5)
    y[1, 55] = 1e6
    with pytest.raises(ZeroLikelihoodError) as err:
        _ENTRY_POINTS[entry](params, y)
    assert err.value.step == _ref_step(params, y) == 55


def _check_em_fit(params, y):
    # two E-steps, then the log-likelihood of the parameters returned
    fit = sr.em_fit(sr.TraceBatch(dt=params.dt, samples=y), params, max_iter=2)
    assert not fit.converged
    np.testing.assert_allclose(fit.log_likelihoods[0], _ref_chunk(params, y)[-1].sum(), **RTOL)
    np.testing.assert_allclose(fit.final_log_likelihood, _ref_chunk(fit.params, y)[-1].sum(), **RTOL)


# entry point: (check against the reference loops, chunk passes it runs)
_RERUNS = {
    "start_posteriors_at": (lambda p, y: _check_start_posteriors_at(p, y, [1, 50, y.shape[1]]), 1),
    "start_posterior_batch": (_check_start_posterior_batch, 1),
    "log_likelihood": (_check_log_likelihood, 1),
    "forward_backward": (_check_forward_backward, 3),
    "em_fit": (_check_em_fit, 3),
}


@pytest.mark.parametrize("entry", list(_RERUNS))
def test_underflowing_stitch_runs_unsegmented(monkeypatch, entry):
    # a floor above every stitch norm sends each chunk to one segment,
    # which gives the unsegmented results
    params, y = _case("switching_tied_padded")
    count = _segments_of(params, y[:1] if entry == "forward_backward" else y).count
    assert count > 1
    monkeypatch.setattr(markov, "_STITCH_FLOOR", 2.0)
    calls = []
    segments = markov._Segments

    def counted(*args, **kwargs):
        seg = segments(*args, **kwargs)
        calls.append(seg.count)
        return seg

    monkeypatch.setattr(markov, "_Segments", counted)
    check, n_passes = _RERUNS[entry]
    check(params, y)
    assert calls == [count, 1] * n_passes


@pytest.mark.parametrize("entry", ["forward_backward", "em_fit"])
def test_vanishing_in_segment_scale_runs_unsegmented(monkeypatch, entry):
    # a scale of the in-segment forward pass set to 0 sends the stored
    # chunk back to one segment, which gives the unsegmented results
    params, y = _case("switching_tied_padded")
    count = _segments_of(params, y[:1] if entry == "forward_backward" else y).count
    assert count > 1
    carry = markov._carry

    def zeroed(a_t, x, seg, ends=(), out=None):
        # the in-segment forward pass is the segmented one that keeps its
        # forward variables
        x, c, reads = carry(a_t, x, seg, ends, out)
        if seg.count > 1 and out is not None:
            c[1, 0] = 0.0
        return x, c, reads

    batch = sr.TraceBatch(dt=params.dt, samples=y)
    stitched = sr.log_likelihood(params, batch)
    monkeypatch.setattr(markov, "_carry", zeroed)
    calls = []
    segments = markov._Segments

    def counted(*args, **kwargs):
        seg = segments(*args, **kwargs)
        calls.append(seg.count)
        return seg

    monkeypatch.setattr(markov, "_Segments", counted)
    if entry == "forward_backward":
        _check_forward_backward(params, y)
        assert calls == [count, 1] * 3
    else:
        _check_em_fit(params, y)
        # two stored E-steps, then the forward-only score of the result
        assert calls == [count, 1, count, 1, count]
        # the E-step keeps the chunk's log-likelihood from the stitch
        fit = sr.em_fit(batch, params, max_iter=1)
        assert fit.log_likelihoods[0] == stitched


# -- old-vs-new golden ----------------------------------------------------------


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _golden_outputs(name):
    params, y = _case(name)
    ends = _window_ends(_segments_of(params, y), y.shape[1])
    batch = sr.TraceBatch(dt=params.dt, samples=y)
    gamma0, log_lik = markov.start_posterior_batch(params, y)
    fit = sr.em_fit(batch, params, max_iter=3)
    p = fit.params
    rates = [p.rates.gamma_t0, p.rates.gamma_tm, p.rates.tlf_up, p.rates.tlf_down]
    return {
        "start_posteriors_at": _digest(markov.start_posteriors_at(params, y, ends)),
        "start_posterior_batch.gamma0": _digest(gamma0),
        "start_posterior_batch.log_lik": _digest(log_lik),
        "log_likelihood": _digest(sr.log_likelihood(params, batch)),
        "em_fit.params": _digest(p.pi, rates, p.emissions.means, p.emissions.stds),
        "em_fit.log_likelihoods": _digest(fit.log_likelihoods, [fit.final_log_likelihood]),
        "em_fit.n_iterations": fit.n_iterations,
    }


# sha256 of each output, recorded with the chunk loops that the one chunk
# runner replaced (``_forward_chunk``, ``_stored_forward`` and ``_joint_pass``).
# Three one-segment log-likelihood digests were re-recorded with the runner
# (marked below): test_one_segment_log_likelihoods_hold_the_old_values
# explains the difference and holds the values. When transition_matrix
# became closed form, a few entries of each case's one-step matrix moved by
# one or two ulps, and every digest of a posterior, a log-likelihood or
# em_fit.params that moved with them was re-recorded; an old-vs-new check
# found posteriors within 1.2e-15, log-likelihoods within 3e-16 relative
# and fitted parameters within 9e-15 relative. No n_iterations changed.
# Once the E-step summed its emission moments inside the backward pass,
# per column and step, then over segments and traces, every em_fit.params
# and em_fit.log_likelihoods digest was re-recorded; an old-vs-new check
# found parameters within 4.0e-15 and log-likelihoods within 4.1e-16
# relative, with the same three iterations in every case
GOLDEN_OUTPUTS = {
    ("reference_150x4200", "segmented"): {
        "start_posteriors_at": "3468b8b3c6579fd429b2f4c9cd926e06285cfa1ffeb5751ea5b27210d9835231",
        "start_posterior_batch.gamma0": "9b9a74aa8408d3e3abe51b3b0619cad99ad9113485d026db448b44c380c8edfe",
        "start_posterior_batch.log_lik": "3422134bda81997c12646b6486c62ce0052fe705c33416ff79435acdcd236010",
        "log_likelihood": "453cf001d6cc8dfd04d3cd9e72edb92c095f179ae0afec90be97abe73b4416a7",
        "em_fit.params": "33af3c73832ceda0c31e0dcedfc9d84b2afbcd291faa065af6d1a4fc346f9e29",
        "em_fit.log_likelihoods": "cce9d4ca0883246343fb03548615659723318f4bd7503aa46052aa09f5e35a37",
        "em_fit.n_iterations": 3,
    },
    ("reference_150x4200", "one_segment"): {
        "start_posteriors_at": "a3437a9131c7eea423b7eb5d485a6f0148e57f0f1862c0232935b8b096570ac6",
        "start_posterior_batch.gamma0": "23562ae73fbc15fefb3eae15a5f33af927cb26a071a1812e223630f27b694b4e",
        "start_posterior_batch.log_lik": "b3cdb71305ea3555f2bbe70b24b985ee7204b45b4b2413591d0e93dbcca77be1",
        "log_likelihood": "d0529d3b4bc575a6705d106e1513fa3ae11d1142a61713d034a2c1c49a397fe2",
        "em_fit.params": "63f7ee524870835c160dc8af2fa582b180f746b0e44e08540e9108c73fb0721c",
        # re-recorded
        "em_fit.log_likelihoods": "4e03a973179832aaf1305cd3fb23e856f8ed59c60b0ebd835cdc0553cbd36739",
        "em_fit.n_iterations": 3,
    },
    ("switching_tied_padded", "segmented"): {
        "start_posteriors_at": "bd3af04f9ada103dc530375f0929256fe4da33e8c466747497aa2a17a167de8c",
        "start_posterior_batch.gamma0": "fb17bcf56395f0534a5e2f22cc09de9883b9562aef54c74fd708e18836fef27f",
        "start_posterior_batch.log_lik": "280a238211f751e53da60856f9a5c53bc564238a563dbacc569c86218b8451f7",
        "log_likelihood": "a9beb7490052b9da62f9fce2080be8ef88abfb4ba93b79c8c950c3977082f513",
        "em_fit.params": "748fdd1f957200e3d9a751c5ac9c8225d3313d5dde2d726703c0b1fb248247cb",
        "em_fit.log_likelihoods": "110d6433e3bc8b538d03db9c21dfa84f099c6842adc4e2914a032e8aa4980fda",
        "em_fit.n_iterations": 3,
    },
    ("switching_tied_padded", "one_segment"): {
        "start_posteriors_at": "0f152e460fd010fbac2583b7b23799e854f11946d81fa0f14b6fd6dfc6b57e48",
        "start_posterior_batch.gamma0": "48b7a8962335501eec4dd9b6b696fdea8b21e0183d309cbae130f5e466ab2c7a",
        "start_posterior_batch.log_lik": "9bb25096082ea6252458d7b6521dd5dc67d0c2c697e8098b332cd2d043dfb1ad",
        # re-recorded
        "log_likelihood": "a9beb7490052b9da62f9fce2080be8ef88abfb4ba93b79c8c950c3977082f513",
        "em_fit.params": "f966fa2a564183e0c8dfe552ecddc8eee81d4c5763e69a135dc3a52d045b6ddb",
        # re-recorded
        "em_fit.log_likelihoods": "41fd4e70f130c37d2100f81e7cf34e4e323ce5dec50bf6d9dc3c313659664521",
        "em_fit.n_iterations": 3,
    },
}


@pytest.mark.parametrize("name", ["reference_150x4200", "switching_tied_padded"])
def test_outputs_match_golden(name, segmenting):
    assert _golden_outputs(name) == GOLDEN_OUTPUTS[name, segmenting]


# The one-segment log-likelihoods of the chunk loops that the runner
# replaced (float.hex): log_likelihood, then em_fit(max_iter=3)'s three
# log-likelihoods and its final one
OLD_ONE_SEGMENT_LOG_LIKELIHOODS = {
    "reference_150x4200": ("-0x1.a8e628c803ec0p+16", "-0x1.a8e628c803ec0p+16",
                           "-0x1.a8e06027472a9p+16", "-0x1.a8e05c269f6dep+16",
                           "-0x1.a8e05c209c8d0p+16"),
    "switching_tied_padded": ("-0x1.5ba4ffbc0030bp+10", "-0x1.5ba4ffbc0030bp+10",
                              "-0x1.5ad07dd9516c8p+10", "-0x1.5ac4427e51530p+10",
                              "-0x1.5abfb69fb2d4cp+10"),
}


@pytest.mark.parametrize("name", sorted(OLD_ONE_SEGMENT_LOG_LIKELIHOODS))
def test_one_segment_log_likelihoods_hold_the_old_values(name, monkeypatch):
    # With one segment a chunk's total was one sum over all its (T, n) log
    # scales; the runner sums each trace over its steps first, as
    # start_posterior_batch always has, and then the traces. The same terms
    # in another order: some totals move by one ulp
    monkeypatch.setattr(markov, "_SEGMENT_ELEMENTS", 0)
    params, y = _case(name)
    batch = sr.TraceBatch(dt=params.dt, samples=y)
    fit = sr.em_fit(batch, params, max_iter=3)
    new = [sr.log_likelihood(params, batch), *fit.log_likelihoods, fit.final_log_likelihood]
    old = [float.fromhex(v) for v in OLD_ONE_SEGMENT_LOG_LIKELIHOODS[name]]
    np.testing.assert_allclose(new, old, rtol=1e-13, atol=0)
