import math

import numpy as np
import pytest
from scipy.special import logsumexp

import spinread as sr
from spinread import markov
from spinread.markov import (
    N_STATES,
    STRUCTURAL_MASK,
    ZeroLikelihoodError,
    build_generator,
    rates_from_transition_matrix,
    start_posterior_batch,
    start_posteriors_at,
    transition_matrix,
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

    def test_kronecker_closed_form_oracle(self):
        # spin decay and fluctuator switching commute, so the one-step
        # matrix factorizes into closed-form 3x3 and 2x2 blocks
        rates = sr.RateSet(5882.35, 3.448, 37.0, 91.0)
        dt = 2.3e-5
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

    def test_structural_zeros_exact(self):
        a = transition_matrix(build_generator(sr.RateSet(5e3, 5.0, 40.0, 80.0)), 1e-4)
        assert np.all(a[~STRUCTURAL_MASK] == 0.0)
        assert np.all(a[STRUCTURAL_MASK] > 0.0)

    def test_invalid_generator_rejected(self):
        q = np.zeros((6, 6))
        q[0, 1] = -1.0
        q[0, 0] = 1.0
        with pytest.raises(ValueError):
            transition_matrix(q, 1.0)
        with pytest.raises(ValueError):
            transition_matrix(np.ones((6, 6)), 1.0)

    def test_rates_roundtrip_through_matrix(self):
        rates = sr.RateSet(5882.35, 3.448, 37.0, 91.0)
        dt = 1e-6  # small steps keep the fluctuator inversion first-order exact
        rec = rates_from_transition_matrix(transition_matrix(build_generator(rates), dt), dt)
        assert abs(rec.gamma_t0 - rates.gamma_t0) < 1e-4 * rates.gamma_t0
        assert abs(rec.gamma_tm - rates.gamma_tm) < 1e-4 * rates.gamma_tm
        assert abs(rec.tlf_up - rates.tlf_up) < 1e-3 * rates.tlf_up
        assert abs(rec.tlf_down - rates.tlf_down) < 1e-3 * rates.tlf_down


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


class TestStartPosteriorsAt:
    """Old-vs-new: one joint forward pass against the per-window
    forward-backward of start_posterior_batch at every window end."""

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
        truth = sr.HmmParams.from_spin_model(
            [0.3, 0.3, 0.4], sr.RateSet(1e4, 1e3, 40.0, 80.0), dt=1e-5, std=0.35,
            tlf_excited_prob=0.2,
        )
        init = sr.HmmParams.from_spin_model(
            [1 / 3, 1 / 3, 1 / 3], sr.RateSet(2e4, 3e3, 100.0, 100.0), dt=1e-5, std=0.5,
            v_singlet=-0.1, v_triplet=1.2, tlf_excited_prob=0.1,
        )
        fit = sr.em_fit(sr.simulate_batch(truth, 40, 25, seed=41), init, max_iter=2)
        p = fit.params
        rtol = dict(rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            fit.log_likelihoods, [-610.0205548029192, -464.02045566398806], **rtol
        )
        np.testing.assert_allclose(p.pi, [
            0.3400393071149675, 0.1809392776380768, 0.31715854056637455,
            0.044881044911934675, 0.057015950770680446, 0.059965878997966016,
        ], **rtol)
        v_singlet, v_triplet = -0.006072556282244302, 0.9952793611192171
        np.testing.assert_allclose(
            p.emissions.means, [v_singlet, v_triplet, v_triplet, v_triplet, v_singlet, v_singlet],
            **rtol,
        )
        np.testing.assert_allclose(p.emissions.stds, np.full(6, 0.3515830465601527), **rtol)
        np.testing.assert_allclose(
            [p.rates.gamma_t0, p.rates.gamma_tm, p.rates.tlf_up, p.rates.tlf_down],
            [14587.969470365524, 2285.4361759818144, 73.72702856200576, 28.9925392854483],
            **rtol,
        )


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
        assert np.all(fit.params.a[~STRUCTURAL_MASK] == 0.0)

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
        fit = sr.em_fit(batch, tlf_init, freeze_tlf_rates=True, max_iter=3)
        assert fit.params.rates.tlf_up == 17.0
        assert fit.params.rates.tlf_down == 23.0


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
