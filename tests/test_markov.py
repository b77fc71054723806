import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize
from scipy.special import logsumexp

import spinread as sr
from spinread import markov
from spinread.markov import (
    N_STATES,
    ZeroLikelihoodError,
    build_generator,
    start_posterior_batch,
    start_posteriors_at,
    transition_matrix,
)


# transitions the generator allows in one step (spin decays to S, each
# combined with any fluctuator move); every other one-step entry is zero
_STRUCTURAL_MASK = np.kron(
    np.ones((2, 2), dtype=bool), np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=bool)
)


def _random_params(rng, dt=1.0):
    pi = rng.dirichlet(np.ones(6))
    rates = sr.RateSet(
        gamma_t0=rng.uniform(0, 1.5) / dt,
        gamma_tm=rng.uniform(0, 0.3) / dt,
        tlf_up=rng.uniform(0, 0.2) / dt,
        tlf_down=rng.uniform(0, 0.2) / dt,
    )
    means = rng.uniform(-1, 2, 6)
    stds = rng.uniform(0.2, 1.0, 6)
    return sr.HmmParams(
        pi=pi, rates=rates, dt=dt, emissions=sr.EmissionModel(means=means, stds=stds)
    )


def _unreachable_params():
    """Only (S,G) is ever occupied, and it cannot emit a sample near 1e6."""
    return sr.HmmParams(
        pi=np.array([1.0, 0, 0, 0, 0, 0]),
        rates=sr.RateSet(0, 0),
        dt=1.0,
        emissions=sr.EmissionModel(
            means=np.array([0.0, 1e6, 1e6, 1e6, 1e6, 1e6]), stds=np.full(6, 1e-3)
        ),
    )


class TestGenerator:
    def test_zero_rates_zero_matrix(self):
        q = build_generator(sr.RateSet(0, 0, 0, 0))
        assert np.all(q == 0.0)

    def test_only_tm_rate_structure(self):
        q = build_generator(sr.RateSet(gamma_t0=0, gamma_tm=7.5))
        off = q - np.diag(np.diag(q))
        nonzero = np.argwhere(off != 0)
        assert sorted(map(tuple, nonzero)) == [(2, 0), (5, 3)]
        assert off[2, 0] == 7.5 and off[5, 3] == 7.5

    def test_rows_sum_to_zero_exactly(self):
        q = build_generator(sr.RateSet(5882.35, 3.45, 40.0, 80.0))
        assert np.all(q.sum(axis=1) == 0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sr.RateSet(-1.0, 0.0)


class TestTransitionMatrix:
    def test_small_dt_is_identity(self):
        q = build_generator(sr.RateSet(1.0, 0.5, 0.2, 0.3))
        a = transition_matrix(q, 1e-12)
        assert np.abs(a - np.eye(6)).max() < 1e-9

    def test_scalar_two_state_exponential(self):
        gamma = 4200.0
        dt = 1e-4
        a = transition_matrix(build_generator(sr.RateSet(0.0, gamma)), dt)
        assert abs(a[2, 0] - (1 - math.exp(-gamma * dt))) < 1e-12
        assert abs(a[5, 3] - (1 - math.exp(-gamma * dt))) < 1e-12

    def test_rows_stochastic_and_semigroup(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rates = sr.RateSet(*rng.uniform(0, 5e4, 4))
            q = build_generator(rates)
            dt = rng.uniform(1e-6, 1e-4)
            a = transition_matrix(q, dt)
            assert np.abs(a.sum(axis=1) - 1).max() < 1e-12
            assert a.min() >= 0.0 and a.max() <= 1.0
            assert np.abs(transition_matrix(q, 2 * dt) - a @ a).max() < 1e-10

    @pytest.mark.parametrize("rates, dt", [
        ((5882.35, 3.448, 37.0, 91.0), 2.3e-5),
        ((1e4, 1e3, 40.0, 80.0), 1e-5),
        ((2e5, 5e4, 3e4, 6e4), 1e-5),
    ])
    def test_kronecker_closed_form_oracle(self, rates, dt):
        # spin decay and fluctuator switching commute (the generator is a
        # Kronecker sum), so the one-step matrix factorizes as F (x) S into
        # closed-form 2x2 and 3x3 blocks; em_fit's M-step relies on it
        rates = sr.RateSet(*rates)
        a = transition_matrix(build_generator(rates), dt)
        g0, gm, u, d = rates.gamma_t0, rates.gamma_tm, rates.tlf_up, rates.tlf_down
        a_spin = np.array([
            [1.0, 0.0, 0.0],
            [1 - math.exp(-g0 * dt), math.exp(-g0 * dt), 0.0],
            [1 - math.exp(-gm * dt), 0.0, math.exp(-gm * dt)],
        ])
        r = u + d
        e = math.exp(-r * dt)
        a_tlf = np.array([[(d + u * e) / r, u * (1 - e) / r], [d * (1 - e) / r, (u + d * e) / r]])
        assert np.abs(a - np.kron(a_tlf, a_spin)).max() < 1e-12
        q_spin = build_generator(sr.RateSet(g0, gm))[:3, :3]
        q_tlf = np.array([[-u, u], [d, -d]])
        assert np.abs(a - np.kron(expm(q_tlf * dt), expm(q_spin * dt))).max() < 1e-14

    def test_structural_zeros_exact(self):
        a = transition_matrix(build_generator(sr.RateSet(5e3, 5.0, 40.0, 80.0)), 1e-4)
        assert np.all(a[~_STRUCTURAL_MASK] == 0.0)
        assert np.all(a[_STRUCTURAL_MASK] > 0.0)

    def test_invalid_generator_rejected(self):
        q = np.zeros((6, 6))
        q[0, 1] = -1.0
        q[0, 0] = 1.0
        with pytest.raises(ValueError):
            transition_matrix(q, 1.0)
        with pytest.raises(ValueError):
            transition_matrix(np.ones((6, 6)), 1.0)


class TestSimulate:
    def test_frozen_emissions_without_dynamics(self):
        params = sr.HmmParams.from_spin_model(
            [1.0, 0.0, 0.0], sr.RateSet(0, 0), dt=1e-5, std=1e-12
        )
        batch = sr.simulate_batch(params, 20, 50, seed=0)
        assert np.abs(batch.samples - 0.0).max() < 1e-9
        assert np.all(batch.labels == int(sr.SpinState.S))

    def test_t0_survival_one_over_e(self):
        t1 = 170e-6
        dt = 17e-6
        params = sr.HmmParams.from_spin_model([0, 1.0, 0], sr.RateSet(1 / t1, 0), dt=dt, std=0.3)
        batch, paths = sr.simulate_batch(params, 3000, 20, seed=7, return_paths=True)
        surv = np.mean(paths[:, 10] == int(sr.SpinState.T0))
        p = math.exp(-1.0)
        sigma = math.sqrt(p * (1 - p) / 3000)
        assert abs(surv - p) < 3 * sigma

    def test_survival_curve_checkpoints(self):
        t1 = 170e-6
        dt = 17e-6
        params = sr.HmmParams.from_spin_model([0, 1.0, 0], sr.RateSet(1 / t1, 0), dt=dt, std=0.3)
        _, paths = sr.simulate_batch(params, 4000, 60, seed=8, return_paths=True)
        for step in (5, 10, 20, 35, 55):
            p = math.exp(-step * dt / t1)
            sigma = math.sqrt(p * (1 - p) / 4000)
            surv = np.mean(paths[:, step] == int(sr.SpinState.T0))
            assert abs(surv - p) < 3 * sigma, f"checkpoint {step}"

    def test_initial_spin_marginals_match_preparation(self):
        probs = np.array([0.25, 0.25, 0.5])
        params = sr.HmmParams.from_spin_model(probs, sr.RateSet(5882.35, 3.45), dt=1e-5, std=0.3)
        batch = sr.simulate_batch(params, 6000, 5, seed=9)
        for spin, p in enumerate(probs):
            frac = np.mean(batch.labels == spin)
            sigma = math.sqrt(p * (1 - p) / 6000)
            assert abs(frac - p) < 3 * sigma

    def test_reproducible_and_order_independent(self):
        params = _random_params(np.random.default_rng(1), dt=1e-5)
        a = sr.simulate_batch(params, 10, 30, seed=42)
        b = sr.simulate_batch(params, 10, 30, seed=42)
        c = sr.simulate_batch(params, 4, 30, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.samples[:4], c.samples)
        np.testing.assert_array_equal(a.labels[:4], c.labels)


class TestForwardBackward:
    def test_uninformative_observations_give_prior_marginals(self):
        rng = np.random.default_rng(2)
        params = sr.HmmParams(
            pi=rng.dirichlet(np.ones(6)),
            rates=sr.RateSet(0.8, 0.1, 0.05, 0.2),
            dt=1.0,
            emissions=sr.EmissionModel(means=np.zeros(6), stds=np.ones(6)),
        )
        trace = sr.Trace(dt=1.0, samples=rng.standard_normal(8))
        post = sr.forward_backward(params, trace)
        expected = params.pi.copy()
        for t in range(8):
            np.testing.assert_allclose(post.probs[t], expected, atol=1e-12)
            expected = expected @ params.a

    def test_single_sample_bayes_rule(self):
        rng = np.random.default_rng(4)
        params = _random_params(rng)
        y = 0.37
        post = sr.forward_backward(params, sr.Trace(dt=1.0, samples=[y]))
        dens = np.exp(
            -0.5 * ((y - params.emissions.means) / params.emissions.stds) ** 2
        ) / params.emissions.stds
        expected = params.pi * dens
        expected /= expected.sum()
        np.testing.assert_allclose(post.probs[0], expected, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(30):
            params = _random_params(rng)
            t_len = rng.integers(1, 8)
            trace = sr.Trace(dt=1.0, samples=rng.uniform(-1, 2, t_len))
            fb = sr.forward_backward(params, trace)
            bf = sr.brute_force_posterior(params, trace)
            worst = max(worst, np.abs(fb.probs - bf.probs).max())
            assert abs(fb.log_likelihood - bf.log_likelihood) < 1e-9
        assert worst <= 1e-9

    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        params = _random_params(rng)
        trace = sr.Trace(dt=1.0, samples=rng.uniform(-1, 2, 40))
        post = sr.forward_backward(params, trace)
        assert np.abs(post.probs.sum(axis=1) - 1).max() < 1e-9

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(7)
        params = _random_params(rng)
        samples = rng.uniform(-1, 2, 25)
        post = sr.forward_backward(params, sr.Trace(dt=1.0, samples=samples))
        a, b = 2.7, -1.3
        scaled = sr.HmmParams(
            pi=params.pi,
            rates=params.rates,
            dt=params.dt,
            emissions=sr.EmissionModel(
                means=a * params.emissions.means + b, stds=abs(a) * params.emissions.stds
            ),
        )
        post2 = sr.forward_backward(scaled, sr.Trace(dt=1.0, samples=a * samples + b))
        assert np.abs(post.probs - post2.probs).max() < 1e-10

    def test_window_selection(self):
        rng = np.random.default_rng(8)
        params = _random_params(rng, dt=1e-5)
        trace = sr.Trace(dt=1e-5, samples=rng.uniform(0, 1, 50))
        post = sr.forward_backward(params, trace, t_read=20e-5)
        assert post.probs.shape == (20, 6)
        with pytest.raises(ValueError):
            sr.forward_backward(params, trace, t_read=1e-6)
        with pytest.raises(ValueError):
            sr.forward_backward(params, trace, t_read=51e-5)

    def test_batched_start_posterior_matches_per_trace(self):
        rng = np.random.default_rng(9)
        params = _random_params(rng)
        samples = rng.uniform(-1, 2, (12, 15))
        gamma0, ll = start_posterior_batch(params, samples)
        for k in range(12):
            post = sr.forward_backward(params, sr.Trace(dt=1.0, samples=samples[k]))
            np.testing.assert_allclose(gamma0[k], post.probs[0], atol=1e-12)
            assert abs(ll[k] - post.log_likelihood) < 1e-9

    def test_unreachable_likelihood_mass_raises_with_step(self):
        with pytest.raises(ZeroLikelihoodError) as err:
            sr.forward_backward(_unreachable_params(), sr.Trace(dt=1.0, samples=[1e6]))
        assert err.value.step == 0

    def test_brute_force_length_cap(self):
        params = _random_params(np.random.default_rng(10))
        with pytest.raises(ValueError):
            sr.brute_force_posterior(params, sr.Trace(dt=1.0, samples=np.zeros(11)))


@pytest.mark.parametrize(
    "run",
    [
        lambda p, y: start_posterior_batch(p, y),
        lambda p, y: sr.em_fit(sr.TraceBatch(dt=1.0, samples=y), p),
        lambda p, y: start_posteriors_at(p, y, [1, 3, 2]),
    ],
    ids=["start_posterior_batch", "em_fit", "start_posteriors_at"],
)
def test_zero_likelihood_step_reported_by_batch_paths(run):
    # the second trace's third sample is unreachable from the only live state
    with pytest.raises(ZeroLikelihoodError) as err:
        run(_unreachable_params(), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e6]]))
    assert err.value.step == 2


@pytest.mark.parametrize(
    "run",
    [
        lambda p, y: start_posterior_batch(p, y),
        lambda p, y: start_posteriors_at(p, y, [3, 1]),
        lambda p, y: sr.log_likelihood(p, sr.TraceBatch(dt=1.0, samples=y)),
        lambda p, y: sr.em_fit(sr.TraceBatch(dt=1.0, samples=y), p),
    ],
    ids=["start_posterior_batch", "start_posteriors_at", "log_likelihood", "em_fit"],
)
def test_zero_likelihood_step_of_a_later_chunk(monkeypatch, run):
    # one trace per chunk: the first is fine, the second vanishes at step 1
    # and the third, never reached, at step 0
    monkeypatch.setattr(markov, "_CHUNK_ELEMENTS", N_STATES * 3)
    samples = np.array([[0.0, 0.0, 0.0], [0.0, 1e6, 0.0], [1e6, 0.0, 0.0]])
    assert len(list(markov._trace_chunks(*samples.shape))) == 3
    with pytest.raises(ZeroLikelihoodError) as err:
        run(_unreachable_params(), samples)
    assert err.value.step == 1


def _parent_start_posterior_batch(params, samples):
    """The time-zero posterior as start_posterior_batch computed it before
    the joint pass: a scaled forward pass, then a scaled backward pass, over
    all six states and the whole batch at once."""
    b, shift = _per_state_emissions(samples.T, params.emissions.means, params.emissions.stds)
    a = params.a
    alpha = params.pi[:, None] * b[0]
    c = []
    for t in range(b.shape[0]):
        if t > 0:
            alpha = (a.T @ alpha) * b[t]
        c.append(alpha.sum(axis=0))
        alpha = alpha / c[-1]
    beta = np.ones(b.shape[1:])
    for t in range(b.shape[0] - 1, 0, -1):
        w = beta * b[t]
        w /= c[t]
        beta = a @ w
    g0 = params.pi[:, None] * b[0] * beta
    return (g0 / g0.sum(axis=0)).T, np.log(c).sum(axis=0) + shift


class TestStartPosteriorBatchAgainstForwardBackward:
    """Old-vs-new: the joint pass that start_posterior_batch now runs
    against the forward-backward formula it replaced."""

    def _check(self, params, samples, atol=0.0):
        gamma0, ll = start_posterior_batch(params, samples)
        gamma0_ref, ll_ref = _parent_start_posterior_batch(params, samples)
        np.testing.assert_allclose(gamma0, gamma0_ref, rtol=1e-12, atol=atol)
        np.testing.assert_allclose(ll, ll_ref, rtol=1e-12, atol=0)
        return gamma0

    def test_random_params_with_switching(self):
        rng = np.random.default_rng(68)
        for _ in range(3):
            params = _random_params(rng)
            assert np.all(params.pi > 0) and params.rates.tlf_up > 0 and params.rates.tlf_down > 0
            for t_len in (1, 2, 30):
                self._check(params, rng.uniform(-1, 2, (40, t_len)))

    def test_start_posteriors_at_each_window(self):
        rng = np.random.default_rng(69)
        # (params, samples, window ends, atol for subnormal posteriors)
        cases = [
            (_random_params(rng), rng.uniform(-1, 2, (25, 20)), [20, 1, 6, 13], 0.0),
            (_reference_params(), sr.simulate_batch(_reference_params(), 100, 400, seed=61).samples,
             [2, 3, 5, 8, 12, 17, 25, 34, 50, 85, 120, 170, 250, 330, 400], 1e-290),
        ]
        for params, samples, ends, atol in cases:
            got = start_posteriors_at(params, samples, ends)
            for g, e in zip(got, ends):
                np.testing.assert_allclose(
                    g, _parent_start_posterior_batch(params, samples[:, :e])[0],
                    rtol=1e-12, atol=atol,
                )

    def test_reference_point(self):
        params = _reference_params()
        samples = sr.simulate_batch(params, 300, 400, seed=61).samples
        # posteriors below ~1e-290 pass through the subnormal range, as in
        # TestStartPosteriorsAt
        gamma0 = self._check(params, samples, atol=1e-290)
        assert np.all(gamma0[:, 3:] == 0.0)

    def test_three_chunks(self, monkeypatch):
        params = _reference_params()
        samples = sr.simulate_batch(params, 300, 400, seed=61).samples
        monkeypatch.setattr(markov, "_CHUNK_ELEMENTS", 100 * N_STATES * 400)
        assert len(list(markov._trace_chunks(*samples.shape))) == 3
        self._check(params, samples, atol=1e-290)


class TestStartPosteriorsAt:
    """One joint pass over the longest window against start_posterior_batch
    on each window alone (TestStartPosteriorBatchAgainstForwardBackward
    holds both to the forward-backward formula)."""

    def _per_window(self, params, samples, ends):
        return np.array([start_posterior_batch(params, samples[:, :e])[0] for e in ends])

    def test_random_params_with_switching(self):
        rng = np.random.default_rng(60)
        for _ in range(3):
            params = _random_params(rng)
            assert np.all(params.pi > 0) and params.rates.tlf_up > 0 and params.rates.tlf_down > 0
            samples = rng.uniform(-1, 2, (40, 30))
            ends = [1, 2, 7, 15, 29, 30]
            np.testing.assert_allclose(
                start_posteriors_at(params, samples, ends),
                self._per_window(params, samples, ends),
                rtol=1e-12, atol=0,
            )

    def _reference_point(self):
        dt = 10e-6
        params = sr.HmmParams.from_spin_model(
            [0.25, 0.25, 0.5], sr.RateSet(1 / 170e-6, 1 / 290e-3), dt=dt,
            std=math.sqrt(3.3e-6 / dt),
        )
        ends = [2, 3, 5, 8, 12, 17, 25, 34, 50, 85, 120, 170, 250, 330, 400]
        return params, sr.simulate_batch(params, 300, 400, seed=61).samples, ends

    def test_reference_point(self):
        params, samples, ends = self._reference_point()
        got = start_posteriors_at(params, samples, ends)
        want = self._per_window(params, samples, ends)
        # start states with pi = 0 are exactly zero on both paths; the
        # atol covers only posteriors that pass through the subnormal
        # range (below ~1e-290), where no relative precision is left
        assert np.all(got[:, :, 3:] == 0.0) and np.all(want[:, :, 3:] == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-290)
        spin = lambda g: g[..., :3] + g[..., 3:]
        np.testing.assert_array_equal(spin(got).argmax(axis=-1), spin(want).argmax(axis=-1))

    def test_several_chunks(self, monkeypatch):
        params, samples, ends = self._reference_point()
        whole = start_posteriors_at(params, samples, ends)
        # 100 traces per chunk at 400 samples: three chunks
        monkeypatch.setattr(markov, "_CHUNK_ELEMENTS", 100 * N_STATES * 400)
        assert len(list(markov._trace_chunks(*samples.shape))) == 3
        chunked = start_posteriors_at(params, samples, ends)
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-290)
        np.testing.assert_allclose(
            chunked, self._per_window(params, samples, ends), rtol=1e-12, atol=1e-290
        )

    def test_unsorted_and_duplicate_ends(self):
        rng = np.random.default_rng(62)
        params = _random_params(rng)
        samples = rng.uniform(-1, 2, (10, 12))
        ends = [9, 3, 12, 3, 1, 9]
        got = start_posteriors_at(params, samples, ends)
        assert got.shape == (6, 10, N_STATES)
        np.testing.assert_allclose(got, self._per_window(params, samples, ends), rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got[1], got[3])

    @pytest.mark.parametrize("ends", [[], [0, 3], [4, 13]])
    def test_window_ends_outside_trace_rejected(self, ends):
        params = _random_params(np.random.default_rng(63))
        with pytest.raises(ValueError):
            start_posteriors_at(params, np.zeros((2, 12)), ends)


@pytest.mark.parametrize(
    "run",
    [
        lambda p, y: start_posterior_batch(p, y),
        lambda p, y: start_posteriors_at(p, y, [5, 20]),
    ],
    ids=["start_posterior_batch", "start_posteriors_at"],
)
def test_non_finite_samples_rejected(run):
    params = _random_params(np.random.default_rng(64))
    for bad in (np.nan, np.inf):
        samples = np.zeros((2, 20))
        samples[1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            run(params, samples)


def _switching_fit_inputs():
    """40 x 25 traces with fluctuator switching, so all six states are
    live, and an init off in every parameter."""
    truth = sr.HmmParams.from_spin_model(
        [0.3, 0.3, 0.4], sr.RateSet(1e4, 1e3, 40.0, 80.0), dt=1e-5, std=0.35,
        tlf_excited_prob=0.2,
    )
    init = sr.HmmParams.from_spin_model(
        [1 / 3, 1 / 3, 1 / 3], sr.RateSet(2e4, 3e3, 100.0, 100.0), dt=1e-5, std=0.5,
        v_singlet=-0.1, v_triplet=1.2, tlf_excited_prob=0.1,
    )
    return sr.simulate_batch(truth, 40, 25, seed=41), init


class TestGoldenValues:
    """Outputs recorded from the implementation that preceded the shared
    forward-backward recursion; the inputs are seeded, so any drift beyond
    roundoff shows."""

    def test_start_posterior_batch(self):
        rng = np.random.default_rng(40)
        params = _random_params(rng)
        expected = {
            1: (
                [[1.1657282699161387e-03, 5.2652913222122365e-02, 1.9646700388375732e-01,
                  3.6657456536687014e-06, 3.2518807644785424e-05, 7.4967817007090565e-01],
                 [8.8020662820036740e-04, 5.2804838063139993e-02, 2.1540095496407516e-01,
                  2.4061349411210831e-06, 1.9745032732807934e-05, 7.3089184917691052e-01]],
                [-1.4908943681915046, -1.5663814272871068],
            ),
            2: (
                [[1.2516887804063770e-03, 1.4042287693520592e-02, 5.3687691992674598e-02,
                  3.8225426757614209e-06, 1.9186609436489893e-04, 9.3082264289635774e-01],
                 [1.7273008687747816e-02, 3.8289591510560432e-02, 3.1070573748742843e-02,
                  1.2300205678717182e-04, 2.3280591018030859e-03, 9.1091576489435866e-01]],
                [-1.5715956702344802, -1.3356736050942581],
            ),
            9: (
                [[1.7221623431925644e-08, 1.4247762464748083e-04, 1.1473716418648236e-01,
                  3.6337102072803574e-12, 3.4411796480011427e-10, 8.8512034061949507e-01],
                 [5.2577477626491750e-11, 5.8009817497080378e-05, 1.1000782093846702e-01,
                  2.2156016293757265e-13, 5.7079301904539779e-06, 8.8992846126104641e-01]],
                [-7.137672955065145, -9.724267425283578],
            ),
        }
        for t_len, (gamma0_ref, ll_ref) in expected.items():
            gamma0, ll = start_posterior_batch(params, rng.uniform(-1, 2, (2, t_len)))
            np.testing.assert_allclose(gamma0, gamma0_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(ll, ll_ref, rtol=1e-12, atol=0)

    def test_em_fit_two_iterations(self):
        # recorded when the M-step moved to the rates; the first
        # log-likelihood (of init) is the one recorded before
        batch, init = _switching_fit_inputs()
        fit = sr.em_fit(batch, init, max_iter=2)
        p = fit.params
        rtol = dict(rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            fit.log_likelihoods, [-610.0205548029192, -464.4074388757335], **rtol
        )
        np.testing.assert_allclose(p.pi, [
            0.3306717794901616, 0.17507727144192975, 0.3189878891190255,
            0.04746562910439732, 0.06501299562684207, 0.06278443521764396,
        ], **rtol)
        v_singlet, v_triplet = -0.005948463450521397, 0.9955602531585205
        np.testing.assert_allclose(
            p.emissions.means, [v_singlet, v_triplet, v_triplet, v_triplet, v_singlet, v_singlet],
            **rtol,
        )
        np.testing.assert_allclose(p.emissions.stds, np.full(6, 0.3515214081078018), **rtol)
        np.testing.assert_allclose(
            [p.rates.gamma_t0, p.rates.gamma_tm, p.rates.tlf_up, p.rates.tlf_down],
            [14238.82662593078, 2176.0767694773913, 86.88908898316463, 23.784519876201387],
            **rtol,
        )
        # the second M-step started from the first one's parameters; its
        # pi, emissions and decay rates agree with the posterior oracle
        first = sr.em_fit(batch, init, max_iter=1).params
        oracle = _m_step_oracle(first, batch, tie_emissions=True)
        np.testing.assert_allclose(p.pi, oracle["pi"], rtol=1e-11)
        np.testing.assert_allclose(p.emissions.means, oracle["means"], rtol=1e-11)
        np.testing.assert_allclose(p.emissions.stds, oracle["stds"], rtol=1e-11)
        np.testing.assert_allclose([p.rates.gamma_t0, p.rates.gamma_tm], oracle["decays"], rtol=1e-11)


class TestUntiedEmGolden:
    """Old-vs-new for untied emissions, whose M-step moved from per-state
    means of E[y^2] - mu^2 to the grouped m2 - offset * m1 form shared with
    tied fits: outputs recorded from the per-state implementation on a
    batch with switching, after three iterations and at convergence."""

    RTOL = dict(rtol=1e-12, atol=0)

    def _check(self, fit, lls, means, stds, rates, pi, final):
        p = fit.params
        np.testing.assert_allclose(fit.log_likelihoods[: len(lls)], lls, **self.RTOL)
        np.testing.assert_allclose(p.emissions.means, means, **self.RTOL)
        np.testing.assert_allclose(p.emissions.stds, stds, **self.RTOL)
        np.testing.assert_allclose(
            [p.rates.gamma_t0, p.rates.gamma_tm, p.rates.tlf_up, p.rates.tlf_down], rates,
            **self.RTOL,
        )
        np.testing.assert_allclose(p.pi, pi, **self.RTOL)
        np.testing.assert_allclose(fit.final_log_likelihood, final, **self.RTOL)

    def test_three_iterations(self):
        batch, init = _switching_fit_inputs()
        fit = sr.em_fit(batch, init, tie_emissions=False, max_iter=3)
        assert fit.n_iterations == 3 and not fit.converged
        self._check(
            fit,
            lls=[-610.0205548029193, -462.6423048123903, -462.028759663644],
            means=[-0.008428735215780853, 0.9899491587431138, 1.00307207076488,
                   0.9790706381114299, 0.018664160260560416, 0.0004307812979696202],
            stds=[0.3463904719038999, 0.3337762251865855, 0.3637822072262043,
                  0.36913487084575025, 0.2752975830339105, 0.3493218395096904],
            rates=[13927.176517994883, 2113.380737191136, 57.18122805145837, 12.470934421112696],
            pi=[0.32429786348417017, 0.17598137121594024, 0.32026465695652645,
                0.04744275981803324, 0.07538386501164036, 0.05662948351368953],
            final=-461.8661763348259,
        )

    def test_to_convergence(self):
        batch, init = _switching_fit_inputs()
        fit = sr.em_fit(batch, init, tie_emissions=False)
        assert fit.n_iterations == 93 and fit.converged
        np.testing.assert_allclose(
            fit.log_likelihoods[-2:], [-457.9422669764727, -457.94222402415926], **self.RTOL
        )
        self._check(
            fit,
            lls=[-610.0205548029193, -462.6423048123903],
            means=[0.000653097780433992, 1.0001237009641617, 0.9986786423957815,
                   0.9700968777603094, 0.0015916216799456758, -0.011429201628174396],
            stds=[0.31033167790365707, 0.3219129237764205, 0.40601291541563544,
                  0.3684296646882961, 0.29968199697599995, 0.3671025960572146],
            rates=[6595.629587483528, 0.0004040185454550635, 2.52370771932329e-21,
                   4.695258045252356e-24],
            pi=[2.100261175235865e-06, 0.38408005154545544, 0.15213501999064447,
                0.00029609065120038153, 0.12054262319884368, 0.34294411435268085],
            final=-457.94222402415926,
        )


def _m_step_oracle(params, batch, tie_emissions):
    """One Baum-Welch M-step for pi, the emissions and the spin decay
    rates, from per-trace forward_backward posteriors, with two-pass
    (centred) variances."""
    gammas = np.array([sr.forward_backward(params, batch[k]).probs for k in range(len(batch))])
    y = batch.samples[:, :, None]
    occupancy = gammas.sum(axis=(0, 1))
    if tie_emissions:
        means = np.empty(N_STATES)
        for group in (markov.SINGLET_SIGNAL_STATES, markov.TRIPLET_SIGNAL_STATES):
            g = list(group)
            means[g] = (gammas[..., g] * y).sum() / gammas[..., g].sum()
        var = np.full(N_STATES, (gammas * (y - means) ** 2).sum() / occupancy.sum())
    else:
        means = (gammas * y).sum(axis=(0, 1)) / occupancy
        var = (gammas * (y - means) ** 2).sum(axis=(0, 1)) / occupancy
    # a triplet is only ever left, never entered: its expected decays are
    # the drop in its occupation from the first to the last sample
    spin = gammas.reshape(*gammas.shape[:2], 2, 3).sum(axis=2)
    flips = (spin[:, 0, 1:] - spin[:, -1, 1:]).sum(axis=0)
    decays = -np.log1p(-flips / spin[:, :-1, 1:].sum(axis=(0, 1))) / batch.dt
    return {
        "pi": gammas[:, 0].mean(axis=0), "means": means, "stds": np.sqrt(var), "decays": decays,
    }


def _reference_params(dt=10e-6):
    """The paper's reference point: T1 = 170 us / 290 ms, preparation
    0.25/0.25/0.5, no fluctuator switching, white noise for 3.3 us."""
    return sr.HmmParams.from_spin_model(
        [0.25, 0.25, 0.5], sr.RateSet(1 / 170e-6, 1 / 290e-3), dt=dt,
        std=math.sqrt(3.3e-6 / dt),
    )


class TestReferencePointGolden:
    """Old-vs-new at the reference point, where only (S,G), (T0,G) and
    (Tm,G) are live: outputs recorded from the implementation that carried
    all six hidden states through every recursion."""

    rtol = dict(rtol=1e-12, atol=0)

    def test_forward_backward(self):
        params = _reference_params()
        post = sr.forward_backward(params, sr.simulate_batch(params, 1, 60, seed=70)[0])
        assert np.all(post.probs[:, 3:] == 0.0)
        np.testing.assert_allclose(post.probs[[0, 5, 30, 59], :3], [
            [1.6379810564005934e-05, 0.9983489615544039, 0.0016346586350320738],
            [0.13203074103207993, 0.8665346575960148, 0.00143460137190523],
            [1.0, 1.0643315184082118e-18, 7.721071254079636e-21],
            [1.0, 3.4483050836763874e-35, 2.2131427791119143e-33],
        ], **self.rtol)
        np.testing.assert_allclose(post.log_likelihood, -53.291863441248296, **self.rtol)

    def test_start_posterior_batch(self):
        params = _reference_params()
        samples = sr.simulate_batch(params, 4, 120, seed=71).samples
        gamma0, ll = start_posterior_batch(params, samples)
        assert np.all(gamma0[:, 3:] == 0.0)
        np.testing.assert_allclose(gamma0[:, :3], [
            [4.175086638058016e-06, 0.9984289916727421, 0.0015668332406198603],
            [8.123128864808096e-87, 0.0006764112736634569, 0.9993235887263365],
            [2.7847044489611747e-94, 0.0004581386733406388, 0.9995418613266593],
            [1.0132539955838099e-31, 0.9899818167737295, 0.010018183226270384],
        ], **self.rtol)
        np.testing.assert_allclose(
            ll, [-98.1071370628917, -106.60933582351015, -97.85813418008972, -109.281945845651],
            **self.rtol,
        )

    def test_start_posteriors_at_fifteen_windows(self):
        params = _reference_params()
        ends = [2, 3, 5, 8, 12, 17, 25, 34, 50, 85, 120, 170, 250, 330, 400]
        got = start_posteriors_at(params, sr.simulate_batch(params, 1, 400, seed=72).samples, ends)
        assert np.all(got[:, :, 3:] == 0.0)
        # posteriors that pass through the subnormal range keep no
        # relative precision, as in TestStartPosteriorsAt
        np.testing.assert_allclose(got[:, 0, :3], [
            [0.08306183997649366, 0.2987479911003053, 0.6181901689232011],
            [0.008184224026396975, 0.3068503653768973, 0.6849654105967057],
            [0.001654188495434922, 0.29012105502221885, 0.7082247564823462],
            [0.04106360407027632, 0.7370244938311292, 0.2219119020985943],
            [1.2099571148592314e-05, 0.21035051821765827, 0.7896373822111931],
            [1.2329703106260106e-08, 0.16547239285963877, 0.8345275948106582],
            [5.751784600377082e-13, 0.11131126375339835, 0.8886887362460265],
            [3.609200436948414e-20, 0.06746372944068803, 0.932536270559312],
            [1.5072382856969233e-25, 0.02953358579813786, 0.9704664142018621],
            [3.884501175723734e-55, 0.003572326122176926, 0.996427673877823],
            [9.866525334926982e-75, 0.00045906229015252087, 0.9995409377098474],
            [2.9268890344243057e-102, 2.4338821547561364e-05, 0.9999756611784524],
            [1.3015556201048074e-162, 2.2217896563710547e-07, 0.9999997778210344],
            [4.71263391766497e-211, 1.994184338907065e-09, 0.9999999980058156],
            [3.194193157282177e-258, 3.363660573731736e-11, 0.9999999999663634],
        ], rtol=1e-12, atol=1e-290)

    def test_log_likelihood(self):
        params = _reference_params()
        ll = sr.log_likelihood(params, sr.simulate_batch(params, 50, 200, seed=73))
        np.testing.assert_allclose(ll, -8587.110907745162, **self.rtol)

    def test_em_fit_three_iterations(self):
        truth = _reference_params()
        init = sr.HmmParams.from_spin_model(
            [1 / 3, 1 / 3, 1 / 3], sr.RateSet(1.5 / 170e-6, 0.5 / 290e-3), dt=truth.dt,
            std=0.7, v_singlet=-0.05, v_triplet=1.05,
        )
        fit = sr.em_fit(sr.simulate_batch(truth, 100, 300, seed=74), init, max_iter=3)
        p = fit.params
        assert fit.n_iterations == 3 and not fit.converged
        np.testing.assert_allclose(
            fit.log_likelihoods, [-27178.658673540285, -26032.67148425363, -26032.456878362485],
            **self.rtol,
        )
        np.testing.assert_allclose(p.pi, [
            0.2503329072134187, 0.12419602617183627, 0.6254710666147449, 0.0, 0.0, 0.0,
        ], **self.rtol)
        v_singlet, v_triplet = 0.0011791021621719068, 1.0003716179237694
        np.testing.assert_allclose(
            p.emissions.means, [v_singlet, v_triplet, v_triplet, v_triplet, v_singlet, v_singlet],
            **self.rtol,
        )
        np.testing.assert_allclose(p.emissions.stds, np.full(6, 0.5735773356634898), **self.rtol)
        np.testing.assert_allclose(
            [p.rates.gamma_t0, p.rates.gamma_tm], [5480.628134233876, 13.97405082637858],
            **self.rtol,
        )
        assert p.rates.tlf_up == 0.0 and p.rates.tlf_down == 0.0


class TestLiveStates:
    def test_singlet_only_without_rates(self):
        pi = np.array([1.0, 0, 0, 0, 0, 0])
        a = transition_matrix(build_generator(sr.RateSet(0, 0)), 1.0)
        np.testing.assert_array_equal(markov._live_states(pi, a), [0])

    def test_reference_point(self):
        params = _reference_params()
        np.testing.assert_array_equal(markov._live_states(params.pi, params.a), [0, 1, 2])

    def test_switching_makes_all_live(self):
        params = sr.HmmParams.from_spin_model(
            [0.25, 0.25, 0.5], sr.RateSet(1 / 170e-6, 1 / 290e-3, tlf_up=40.0), dt=10e-6
        )
        assert np.all(params.pi[3:] == 0.0)
        np.testing.assert_array_equal(markov._live_states(params.pi, params.a), np.arange(6))
        # six live rows, three start states: the one-pass sweep still
        # matches start_posterior_batch per window
        samples = sr.simulate_batch(params, 20, 30, seed=67).samples
        ends = [1, 4, 17, 30]
        np.testing.assert_allclose(
            start_posteriors_at(params, samples, ends),
            [start_posterior_batch(params, samples[:, :e])[0] for e in ends],
            rtol=1e-12, atol=1e-290,
        )

    def test_non_live_states_carry_no_mass(self):
        # (T0,G) decays into (S,G) but is never prepared: reachable only
        # from itself, so it is not live while (S,G) and (Tm,G) are
        params = sr.HmmParams.from_spin_model([0.5, 0.0, 0.5], sr.RateSet(1e3, 1e2), dt=1e-4)
        live = markov._live_states(params.pi, params.a)
        np.testing.assert_array_equal(live, [0, 2])
        gamma0, _ = start_posterior_batch(params, np.random.default_rng(65).uniform(-1, 2, (5, 9)))
        assert np.all(gamma0[:, [1, 3, 4, 5]] == 0.0)


def _per_state_emissions(yt, means, stds):
    """The emission builder as it was: one Gaussian per hidden state."""
    b = yt[:, None, :] - means[:, None]
    b /= stds[:, None]
    b *= b
    b *= -0.5
    b -= (np.log(stds) + markov._LOG_SQRT_2PI)[:, None]
    shift = b.max(axis=1)
    b -= shift[:, None, :]
    np.exp(b, out=b)
    return b, shift.sum(axis=0)


class TestEmissionLikelihoods:
    @pytest.mark.parametrize("means, stds", [
        ([0.0, 1.0, 1.0, 1.0, 0.0, 0.0], [0.4] * 6),
        ([0.0, 1.0, 1.0, 1.0, 0.0, 0.0], [0.4, 0.5, 0.5, 0.6, 0.4, 0.4]),
        ([0.0, 1.0, 1.1, 1.0, 0.0, -0.2], [0.4] * 6),
        ([-0.3, 1.2, 0.9, 1.05, 0.1, 0.02], [0.3, 0.45, 0.5, 0.6, 0.35, 0.25]),
    ], ids=["tied", "partly_tied_stds", "partly_tied_means", "untied"])
    @pytest.mark.parametrize("rows", [[0, 1, 2], [0], [0, 2], list(range(6)), [1, 3, 4, 5]])
    def test_bit_identical_to_per_state_formula(self, means, stds, rows):
        means, stds, rows = np.array(means), np.array(stds), np.array(rows)
        yt = np.random.default_rng(66).uniform(-1.5, 2.5, (40, 7))
        b, shift = markov._emission_likelihoods(yt, means, stds, rows)
        b_ref, shift_ref = _per_state_emissions(yt, means, stds)
        assert b.shape == (40, rows.size, 7)
        np.testing.assert_array_equal(b, b_ref[:, rows])
        np.testing.assert_array_equal(shift, shift_ref)

    def test_non_live_state_with_largest_emission(self):
        # only (S,G) is live; the other states sit on the samples and so
        # hold the largest emission, which sets the rescaling shift
        y = np.array([[0.5, 0.4, 0.6, 0.5]])
        params = sr.HmmParams(
            pi=np.array([1.0, 0, 0, 0, 0, 0]), rates=sr.RateSet(0, 0), dt=1.0,
            emissions=sr.EmissionModel(
                means=np.array([0.0, 0.5, 0.5, 0.5, 0.5, 40.5]),
                stds=np.array([1.0, 0.1, 0.1, 0.1, 0.1, 1.0]),
            ),
        )
        expected = float(np.sum(-0.5 * y**2 - 0.5 * math.log(2 * math.pi)))
        ll = sr.log_likelihood(params, sr.TraceBatch(dt=1.0, samples=y))
        assert abs(ll - expected) < 1e-12 * abs(expected)
        _, ll_batch = start_posterior_batch(params, y)
        assert abs(ll_batch[0] - expected) < 1e-12 * abs(expected)
        # the shift is still taken over all six states: the live state's
        # likelihood 800 log units below the best one underflows and
        # vanishes at that step, as it did when every state was carried
        with pytest.raises(ZeroLikelihoodError) as err:
            start_posterior_batch(params, np.array([[0.5, 0.5, 40.5, 0.5]]))
        assert err.value.step == 2


class TestLogLikelihood:
    def test_single_sample_mixture_density(self):
        rng = np.random.default_rng(11)
        params = _random_params(rng)
        y = 0.81
        batch = sr.TraceBatch(dt=1.0, samples=np.array([[y]]))
        ll = sr.log_likelihood(params, batch)
        logs = (
            -0.5 * ((y - params.emissions.means) / params.emissions.stds) ** 2
            - np.log(params.emissions.stds * math.sqrt(2 * math.pi))
        )
        expected = logsumexp(logs, b=params.pi)
        assert abs(ll - expected) < 1e-12

    def test_duplicated_batch_doubles(self):
        rng = np.random.default_rng(12)
        params = _random_params(rng)
        samples = rng.uniform(-1, 2, (5, 9))
        single = sr.log_likelihood(params, sr.TraceBatch(dt=1.0, samples=samples))
        double = sr.log_likelihood(
            params, sr.TraceBatch(dt=1.0, samples=np.vstack([samples, samples]))
        )
        assert abs(double - 2 * single) < 1e-9


class TestEmFit:
    def _truth(self, dt=1e-5):
        return sr.HmmParams.from_spin_model(
            [0.3, 0.3, 0.4],
            sr.RateSet(gamma_t0=1 / (10 * dt), gamma_tm=1 / (100 * dt)),
            dt=dt,
            std=0.35,
        )

    def test_truth_init_is_near_fixed_point(self):
        truth = self._truth()
        batch = sr.simulate_batch(truth, 1500, 60, seed=21)
        fit = sr.em_fit(batch, truth, max_iter=1)
        p = fit.params
        assert abs(p.rates.gamma_t0 - truth.rates.gamma_t0) < 0.15 * truth.rates.gamma_t0
        assert abs(p.rates.gamma_tm - truth.rates.gamma_tm) < 0.15 * truth.rates.gamma_tm
        assert np.abs(p.emissions.means - truth.emissions.means).max() < 0.02
        assert np.abs(p.emissions.stds - truth.emissions.stds).max() < 0.01
        assert np.abs(p.pi - truth.pi).max() < 0.05

    def test_log_likelihood_monotone_and_recovery(self):
        truth = self._truth()
        batch = sr.simulate_batch(truth, 1500, 60, seed=22)
        init = sr.HmmParams.from_spin_model(
            [1 / 3, 1 / 3, 1 / 3],
            sr.RateSet(gamma_t0=2 / (10 * truth.dt), gamma_tm=3 / (100 * truth.dt)),
            dt=truth.dt,
            std=0.6,
            v_singlet=-0.2,
            v_triplet=1.3,
        )
        fit = sr.em_fit(batch, init, max_iter=80, tol=1e-9)
        lls = fit.log_likelihoods
        assert np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1]))
        p = fit.params
        assert abs(p.rates.gamma_t0 - truth.rates.gamma_t0) < 0.15 * truth.rates.gamma_t0
        assert abs(p.rates.gamma_tm - truth.rates.gamma_tm) < 0.25 * truth.rates.gamma_tm
        assert abs(p.emissions.means[0]) < 0.03
        assert abs(p.emissions.means[1] - 1.0) < 0.03

    def test_structural_zeros_preserved(self):
        truth = self._truth()
        batch = sr.simulate_batch(truth, 300, 40, seed=23)
        fit = sr.em_fit(batch, truth, max_iter=5)
        assert np.all(fit.params.a[~_STRUCTURAL_MASK] == 0.0)

    def test_freeze_options(self):
        truth = self._truth()
        batch = sr.simulate_batch(truth, 200, 30, seed=24)
        frozen = sr.em_fit(batch, truth, freeze_emissions=True, max_iter=3)
        np.testing.assert_array_equal(frozen.params.emissions.means, truth.emissions.means)
        tlf_init = sr.HmmParams.from_spin_model(
            [0.3, 0.3, 0.4],
            sr.RateSet(1 / (10 * truth.dt), 1 / (100 * truth.dt), 17.0, 23.0),
            dt=truth.dt,
            std=0.35,
            tlf_excited_prob=0.1,
        )
        # every iterate keeps the fluctuator rates: the parameters returned
        # after k M-steps are the model that E-step k + 1 scores
        fits = [sr.em_fit(batch, tlf_init, freeze_tlf_rates=True, max_iter=k) for k in (1, 2, 3)]
        for k, fit in enumerate(fits, 1):
            assert fit.params.rates.tlf_up == 17.0
            assert fit.params.rates.tlf_down == 23.0
            if k < len(fits):
                assert fits[k].log_likelihoods[k] == fit.final_log_likelihood

    def test_untied_moments_match_two_pass_oracle(self):
        # means near 1000 with stds of 0.01-0.03: the variance is ~1e-10 of
        # the raw second moment, so an uncentred E[y^2] - mu^2 loses digits
        dt = 1e-5
        truth = sr.HmmParams(
            pi=np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]),
            rates=sr.RateSet(1e4, 3e3, 4e3, 6e3),
            dt=dt,
            emissions=sr.EmissionModel(
                means=1000.0 + np.array([0.0, 0.1, 0.13, 0.09, 0.02, 0.04]),
                stds=np.array([0.01, 0.015, 0.02, 0.025, 0.03, 0.012]),
            ),
        )
        batch = sr.simulate_batch(truth, 30, 20, seed=25)
        fit = sr.em_fit(batch, truth, tie_emissions=False, max_iter=1)
        oracle = _m_step_oracle(truth, batch, tie_emissions=False)
        p = fit.params
        np.testing.assert_allclose(p.emissions.stds, oracle["stds"], rtol=1e-9)
        np.testing.assert_allclose(p.emissions.means, oracle["means"], rtol=1e-13)
        np.testing.assert_allclose(p.pi, oracle["pi"], rtol=1e-11)
        np.testing.assert_allclose([p.rates.gamma_t0, p.rates.gamma_tm], oracle["decays"], rtol=1e-11)

    def test_tied_moments_match_two_pass_oracle(self):
        # the tied twin of the untied test: charge levels 1000 and 1000.1,
        # one std of 0.01, so E[y^2] - mu^2 would cancel here too
        truth = sr.HmmParams.from_spin_model(
            [0.3, 0.3, 0.4], sr.RateSet(1e4, 3e3, 4e3, 6e3), dt=1e-5,
            v_singlet=1000.0, v_triplet=1000.1, std=0.01, tlf_excited_prob=0.3,
        )
        batch = sr.simulate_batch(truth, 30, 20, seed=25)
        fit = sr.em_fit(batch, truth, max_iter=1)
        oracle = _m_step_oracle(truth, batch, tie_emissions=True)
        p = fit.params
        np.testing.assert_allclose(p.emissions.stds, oracle["stds"], rtol=1e-9)
        np.testing.assert_allclose(p.emissions.means, oracle["means"], rtol=1e-13)
        np.testing.assert_allclose(p.pi, oracle["pi"], rtol=1e-11)
        np.testing.assert_allclose([p.rates.gamma_t0, p.rates.gamma_tm], oracle["decays"], rtol=1e-11)

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_variance_floor(self, tie):
        # charge levels read to 1e-8: every fitted variance is below the
        # 1e-12 floor, so every std comes back as 1e-6
        truth = sr.HmmParams.from_spin_model(
            [0.3, 0.3, 0.4], sr.RateSet(1e4, 3e3, 4e3, 6e3), dt=1e-5, std=1e-8,
            tlf_excited_prob=0.3,
        )
        batch = sr.simulate_batch(truth, 30, 20, seed=26)
        fit = sr.em_fit(batch, truth, tie_emissions=tie, max_iter=2)
        assert fit.variance_floored
        np.testing.assert_array_equal(fit.params.emissions.stds, np.full(N_STATES, 1e-6))

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_states_without_occupancy_keep_their_emissions(self, tie):
        # only (S,G) is prepared and nothing decays or switches, so it is
        # the only live state. A state whose group has no occupancy keeps
        # its mean and std: the triplet-signal states tied, all but (S,G)
        # untied
        init = sr.HmmParams(
            pi=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], rates=sr.RateSet(0, 0), dt=1e-5,
            emissions=sr.EmissionModel(
                means=[0.1, 1.1, 0.9, 1.3, 0.2, -0.1], stds=[0.5, 0.2, 0.3, 0.4, 0.6, 0.7]
            ),
        )
        truth = sr.HmmParams.from_spin_model([1.0, 0.0, 0.0], sr.RateSet(0, 0), dt=1e-5, std=0.3)
        batch = sr.simulate_batch(truth, 20, 30, seed=27)
        fit = sr.em_fit(batch, init, tie_emissions=tie, max_iter=3)
        idle = list(markov.TRIPLET_SIGNAL_STATES) if tie else [1, 2, 3, 4, 5]
        p, q = fit.params.emissions, init.emissions
        np.testing.assert_array_equal(p.means[idle], q.means[idle])
        np.testing.assert_array_equal(p.stds[idle], q.stds[idle])
        assert p.means[0] != q.means[0] and p.stds[0] != q.stds[0]

    def test_iteration_seconds(self):
        truth = _reference_params()
        batch = sr.simulate_batch(truth, 20, 50, seed=76)
        for max_iter in (1, 3, 500):
            fit = sr.em_fit(batch, truth, max_iter=max_iter)
            assert fit.iteration_seconds.shape == (fit.n_iterations,)
            assert np.all(fit.iteration_seconds > 0.0)


def _reference_fit_inputs():
    """Criterion-6-style start at the reference point: rates off by 1.5x /
    0.5x, flat preparation; 100 x 300 traces converge in 5 iterations."""
    truth = _reference_params()
    init = sr.HmmParams.from_spin_model(
        [1 / 3, 1 / 3, 1 / 3], sr.RateSet(1.5 / 170e-6, 0.5 / 290e-3), dt=truth.dt,
        std=0.7, v_singlet=-0.05, v_triplet=1.05,
    )
    return sr.simulate_batch(truth, 100, 300, seed=74), init


class TestEmSmoothing:
    """The E-step smooths its last trace chunk only after the convergence
    test; chunking changes nothing but rounding."""

    def _counting_backward(self, monkeypatch):
        calls = []
        backward = markov._backward

        def counted(*args):
            calls.append(args[1].shape)
            return backward(*args)

        monkeypatch.setattr(markov, "_backward", counted)
        return calls

    def test_converged_step_runs_no_backward_pass(self, monkeypatch):
        batch, init = _reference_fit_inputs()
        calls = self._counting_backward(monkeypatch)
        fit = sr.em_fit(batch, init)
        assert fit.converged and fit.n_iterations == 5
        assert len(calls) == fit.n_iterations - 1

    def test_stopped_fit_smooths_every_step(self, monkeypatch):
        batch, init = _reference_fit_inputs()
        calls = self._counting_backward(monkeypatch)
        fit = sr.em_fit(batch, init, max_iter=3)
        assert not fit.converged and len(calls) == 3

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_several_chunks_equal_one(self, monkeypatch, tie):
        batch, init = _reference_fit_inputs()
        whole = sr.em_fit(batch, init, tie_emissions=tie)
        # 40 traces per chunk at 300 samples: three chunks
        monkeypatch.setattr(markov, "_CHUNK_ELEMENTS", 40 * N_STATES * 300)
        assert len(list(markov._trace_chunks(*batch.samples.shape))) == 3
        calls = self._counting_backward(monkeypatch)
        chunked = sr.em_fit(batch, init, tie_emissions=tie)
        assert chunked.n_iterations == whole.n_iterations and chunked.converged
        # the converged step smooths every chunk but the last
        assert len(calls) == 3 * (chunked.n_iterations - 1) + 2
        rtol = dict(rtol=1e-12, atol=0)
        np.testing.assert_allclose(chunked.log_likelihoods, whole.log_likelihoods, **rtol)
        p, q = chunked.params, whole.params
        np.testing.assert_allclose(p.pi, q.pi, **rtol)
        np.testing.assert_allclose(p.emissions.means, q.emissions.means, **rtol)
        np.testing.assert_allclose(p.emissions.stds, q.emissions.stds, **rtol)
        np.testing.assert_allclose(
            [p.rates.gamma_t0, p.rates.gamma_tm], [q.rates.gamma_t0, q.rates.gamma_tm], **rtol
        )


@pytest.mark.parametrize("seed", [80, 81, 82])
def test_rate_update_maximises_expected_transition_log_likelihood(seed):
    # the closed-form M-step against a direct Nelder-Mead maximisation of
    # sum_ij xi_ij log A(rates)_ij over the four log-rates
    rng = np.random.default_rng(seed)
    dt = 1e-5
    start = sr.RateSet(*rng.uniform([2e3, 5e2, 2e3, 2e3], [3e4, 1e4, 3e4, 3e4]))
    a = transition_matrix(build_generator(start), dt)
    xi = rng.uniform(50.0, 500.0, (6, 1)) * a * rng.uniform(0.7, 1.3, (6, 6))
    allowed = xi > 0.0

    def objective(log_rates):
        a = transition_matrix(build_generator(sr.RateSet(*np.exp(log_rates))), dt)
        return float((xi[allowed] * np.log(a[allowed])).sum())

    got = markov._rates_from_counts(xi, dt, start, freeze_tlf_rates=False)
    got = np.array([got.gamma_t0, got.gamma_tm, got.tlf_up, got.tlf_down])
    best = minimize(
        lambda x: -objective(x), np.log([start.gamma_t0, start.gamma_tm, start.tlf_up, start.tlf_down]),
        method="Nelder-Mead",
        options=dict(xatol=1e-11, fatol=1e-13, maxiter=20_000, maxfev=20_000),
    )
    assert objective(np.log(got)) >= -best.fun - 3e-13 * abs(best.fun)
    np.testing.assert_allclose(got, np.exp(best.x), rtol=5e-7)
    # frozen, the fluctuator rates are the current ones
    frozen = markov._rates_from_counts(xi, dt, start, freeze_tlf_rates=True)
    assert (frozen.tlf_up, frozen.tlf_down) == (start.tlf_up, start.tlf_down)
    assert (frozen.gamma_t0, frozen.gamma_tm) == tuple(got[:2])


class TestFinalLogLikelihood:
    """em_fit scores the parameters it returns. A converged fit returns the
    iterate its last E-step scored; a fit stopped at max_iter returns one
    more M-step's parameters and scores them with one more forward pass."""

    def test_reference_point_gap(self):
        truth = _reference_params()
        init = sr.HmmParams.from_spin_model(
            [1 / 3, 1 / 3, 1 / 3], sr.RateSet(1.5 / 170e-6, 0.5 / 290e-3), dt=truth.dt,
            std=0.7, v_singlet=-0.05, v_triplet=1.05,
        )
        batch = sr.simulate_batch(truth, 100, 300, seed=74)
        fit = sr.em_fit(batch, init)
        assert fit.converged and fit.n_iterations == 5
        assert fit.final_log_likelihood == sr.log_likelihood(fit.params, batch)
        assert fit.final_log_likelihood == fit.log_likelihoods[-1]

    @pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
    def test_switching_gap_is_zero(self, tie):
        # every E-step scores a model built from rates, so with switching
        # too the returned parameters are the converged ones
        batch, init = _switching_fit_inputs()
        fit = sr.em_fit(batch, init, tie_emissions=tie)
        lls = fit.log_likelihoods
        assert fit.converged
        assert np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1]))
        assert fit.final_log_likelihood == lls[-1]
        assert fit.final_log_likelihood == sr.log_likelihood(fit.params, batch)

    def test_vanishing_likelihood_gives_none(self, monkeypatch):
        def vanish(params, batch):
            raise ZeroLikelihoodError(0)

        truth = _reference_params()
        batch = sr.simulate_batch(truth, 5, 20, seed=75)
        monkeypatch.setattr(markov, "log_likelihood", vanish)
        fit = sr.em_fit(batch, truth, max_iter=2)
        assert fit.final_log_likelihood is None
        assert len(fit.log_likelihoods) == 2


class TestSerialization:
    def test_round_trip(self):
        params = _random_params(np.random.default_rng(30), dt=2e-5)
        again = sr.HmmParams.from_dict(params.to_dict())
        np.testing.assert_array_equal(again.pi, params.pi)
        np.testing.assert_array_equal(again.emissions.means, params.emissions.means)
        np.testing.assert_array_equal(again.a, params.a)
        assert again.rates == params.rates

    def test_invalid_pi_rejected(self):
        with pytest.raises(ValueError):
            sr.HmmParams(
                pi=np.full(6, 0.2),
                rates=sr.RateSet(0, 0),
                dt=1.0,
                emissions=sr.EmissionModel(means=np.zeros(6), stds=np.ones(6)),
            )


class TestNonFiniteParameters:
    """A NaN or infinite parameter is rejected where it is stored, naming
    the field, before any matrix exponential sees it."""

    @pytest.mark.parametrize("name", ["gamma_t0", "gamma_tm", "tlf_up", "tlf_down"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rates(self, name, bad):
        rates = dict(gamma_t0=1e3, gamma_tm=1e2, tlf_up=1.0, tlf_down=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sr.RateSet(**dict(rates, **{name: bad}))

    @pytest.mark.parametrize("field", ["means", "stds"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_emissions(self, field, bad):
        values = {"means": np.zeros(6), "stds": np.ones(6)}
        values[field][3] = bad
        with pytest.raises(ValueError, match=f"emission {field} must be finite"):
            sr.EmissionModel(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dt(self, bad):
        with pytest.raises(ValueError, match="dt must be finite"):
            sr.HmmParams.from_spin_model([0.25, 0.25, 0.5], sr.RateSet(1e3, 1e2), dt=bad)
        with pytest.raises(ValueError, match="dt must be finite"):
            transition_matrix(np.zeros((6, 6)), bad)
        with pytest.raises(ValueError, match="dt must be finite"):
            sr.TraceBatch(dt=bad, samples=np.zeros((2, 3)))

    def test_pi(self):
        with pytest.raises(ValueError, match="pi must be"):
            sr.HmmParams(
                pi=[math.nan, 0.5, 0.5, 0.0, 0.0, 0.0], rates=sr.RateSet(0, 0), dt=1.0,
                emissions=sr.EmissionModel(means=np.zeros(6), stds=np.ones(6)),
            )

    @pytest.mark.parametrize(
        "option, match",
        [
            (dict(max_iter=0), "max_iter must be >= 1"),
            (dict(max_iter=-2), "max_iter must be >= 1"),
            (dict(tol=-1e-7), "tol must be finite"),
            (dict(tol=math.nan), "tol must be finite"),
            (dict(tol=math.inf), "tol must be finite"),
        ],
        ids=["max_iter_zero", "max_iter_negative", "tol_negative", "tol_nan", "tol_inf"],
    )
    def test_em_fit_options(self, option, match):
        truth = _reference_params()
        batch = sr.simulate_batch(truth, 5, 20, seed=77)
        with pytest.raises(ValueError, match=match):
            sr.em_fit(batch, truth, **option)
