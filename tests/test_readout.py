import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinread as sr
from spinread.analytic import electrical_fidelity
from spinread.readout import (
    BASIS_LABELS,
    ReadoutBasis,
    confusion_metrics,
    fidelity_sweep,
    hmm_classify_batch,
    map_basis,
    optimal_threshold_empirical,
    threshold_classify,
    window_average,
)


class TestWindowAverage:
    def test_constant_trace(self):
        tr = sr.Trace(dt=1e-6, samples=np.full(20, 0.7))
        for t_read in (1e-6, 7e-6, 20e-6):
            assert window_average(tr, t_read) == pytest.approx(0.7, abs=1e-15)

    def test_two_sample_mean(self):
        tr = sr.Trace(dt=1.0, samples=[0.0, 1.0])
        assert window_average(tr, 2.0) == 0.5

    def test_linearity(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(30)
        tr = sr.Trace(dt=1.0, samples=y)
        tr2 = sr.Trace(dt=1.0, samples=3.5 * y - 1.25)
        assert abs(window_average(tr2, 11.0) - (3.5 * window_average(tr, 11.0) - 1.25)) < 1e-12

    def test_subsample_window_rejected(self):
        tr = sr.Trace(dt=1.0, samples=[0.0, 1.0])
        with pytest.raises(ValueError):
            window_average(tr, 0.5)


class TestThresholdClassify:
    def test_tie_goes_low_side(self):
        assert threshold_classify(0.5, 0.5) is False

    def test_epsilon_above_goes_high(self):
        assert threshold_classify(0.5 + 1e-12, 0.5) is True

    def test_polarity_flip_negates(self):
        assert threshold_classify(0.9, 0.5, polarity=False) is False
        assert threshold_classify(0.1, 0.5, polarity=False) is True

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_increasing_transform(self, avg, threshold):
        for f in (lambda x: x**3 + 2 * x, lambda x: math.atan(x), lambda x: 5 * x + 1):
            if avg != threshold and f(avg) == f(threshold):
                continue  # float rounding collapsed the pair
            assert threshold_classify(avg, threshold) == threshold_classify(f(avg), f(threshold))


class TestOptimalThreshold:
    def test_perfect_separation(self):
        odd = np.linspace(0.0, 0.2, 100)
        even = np.linspace(0.8, 1.0, 100)
        th, fm = optimal_threshold_empirical(odd, even)
        assert fm == 1.0
        assert 0.2 < th < 0.8

    def test_identical_distributions(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(4000)
        _, fm = optimal_threshold_empirical(values, values)
        assert abs(fm - 0.5) < 0.01

    def test_gaussian_midpoint_convergence(self):
        rng = np.random.default_rng(2)
        odd = rng.normal(0.0, 0.25, 50000)
        even = rng.normal(1.0, 0.25, 50000)
        th, fm = optimal_threshold_empirical(odd, even)
        assert abs(th - 0.5) < 0.03
        assert abs(fm - (1 - 0.5 * math.erfc(2 / math.sqrt(2)))) < 0.01

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            optimal_threshold_empirical([], [1.0])

    def test_golden_values_bit_identical(self):
        # (threshold, F_m) recorded from the hand-written golden-section loop
        # that preceded the shared maximiser
        golden = [
            (0.544126513843505, 0.9062857142857144),
            (0.4038063711261929, 0.95),
            (0.42870925420051187, 0.68875),
            (1.0177104367013228, 1.0),
        ]
        rng = np.random.default_rng(5)
        draws = [(500, 700, 0.0, 1.0, 0.4), (300, 300, 1.0, 0.0, 0.3),
                 (50, 80, 0.0, 0.5, 0.5), (1000, 1000, 0.0, 2.0, 0.2)]
        for (n0, n1, m0, m1, s), expected in zip(draws, golden):
            odd = rng.normal(m0, s, n0)
            even = rng.normal(m1, s, n1)
            assert optimal_threshold_empirical(odd, even) == expected


class TestMapBasis:
    def test_spec_examples(self):
        assert map_basis(sr.SpinState.T0, ReadoutBasis.PARITY) == "odd"
        assert map_basis(sr.SpinState.T0, ReadoutBasis.SINGLET_TRIPLET) == "triplet"
        assert map_basis(sr.SpinState.S, ReadoutBasis.THREE_STATE) == "S"
        assert map_basis(sr.SpinState.TM, ReadoutBasis.PARITY) == "even"
        assert map_basis(sr.SpinState.TM, ReadoutBasis.SINGLET_TRIPLET) == "triplet"


class TestConfusionMetrics:
    def test_all_correct(self):
        labels = [0, 1, 2, 0, 1, 2]
        rep = confusion_metrics(labels, labels, ReadoutBasis.THREE_STATE)
        assert rep.f_m == 1.0 and rep.v_m == 1.0
        assert all(v == 1.0 for v in rep.recall_per_state.values())

    def test_two_balanced_all_wrong(self):
        truth = [sr.SpinState.S] * 10 + [sr.SpinState.TM] * 10
        pred = [sr.SpinState.TM] * 10 + [sr.SpinState.S] * 10
        rep = confusion_metrics(truth, pred, ReadoutBasis.PARITY)
        assert rep.f_m == 0.5
        assert rep.v_m == 0.0

    def test_three_balanced_all_wrong(self):
        truth = [0] * 10 + [1] * 10 + [2] * 10
        pred = [1] * 10 + [2] * 10 + [0] * 10
        rep = confusion_metrics(truth, pred, ReadoutBasis.THREE_STATE)
        assert abs(rep.f_m - 2.0 / 3.0) < 1e-12
        assert rep.v_m == 0.0

    def test_mapping_commutes_with_counting(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, 200)
        pred = rng.integers(0, 3, 200)
        rep = confusion_metrics(truth, pred, ReadoutBasis.PARITY)
        pre_t = [map_basis(v, ReadoutBasis.PARITY) for v in truth]
        pre_p = [map_basis(v, ReadoutBasis.PARITY) for v in pred]
        rep2 = confusion_metrics(pre_t, pre_p, ReadoutBasis.PARITY)
        assert rep.f_m == rep2.f_m and rep.v_m == rep2.v_m
        np.testing.assert_array_equal(rep.confusion.counts, rep2.confusion.counts)

    def test_visibility_fidelity_relation_two_class(self):
        rng = np.random.default_rng(4)
        truth = rng.integers(0, 3, 500)
        pred = rng.integers(0, 3, 500)
        rep = confusion_metrics(truth, pred, ReadoutBasis.PARITY)
        assert abs(rep.v_m - (2 * rep.f_m - 1)) < 1e-12
        assert rep.v_m <= rep.f_m <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_metrics([0, 1], [0], ReadoutBasis.PARITY)

    @pytest.mark.parametrize("basis, counts, f_m, v_m", [
        (ReadoutBasis.THREE_STATE, [[5, 1, 1], [1, 4, 2], [2, 1, 7]],
         0.8888888888888888, 0.6666666666666666),
        (ReadoutBasis.PARITY, [[11, 3], [3, 7]], 0.875, 0.75),
        (ReadoutBasis.SINGLET_TRIPLET, [[5, 2], [3, 14]], 0.8958333333333333, 0.7916666666666666),
    ])
    def test_golden_counts_from_spin_states_and_strings(self, basis, counts, f_m, v_m):
        # recorded from the per-label counting loop that preceded bincount
        truth = [0, 1, 2, 2, 0, 1, 1, 2, 0, 0, 2, 1, 2, 2, 0, 1, 0, 2, 1, 1, 2, 0, 2, 2]
        pred = [0, 1, 2, 0, 0, 2, 1, 2, 1, 0, 2, 0, 2, 1, 2, 1, 0, 2, 1, 2, 2, 0, 0, 2]
        as_states = [[sr.SpinState(v) for v in seq] for seq in (truth, pred)]
        as_strings = [[map_basis(v, basis) for v in seq] for seq in (truth, pred)]
        for t, p in (as_states, as_strings, [np.asarray(seq) for seq in as_strings],
                     [np.asarray(seq, dtype=np.int8) for seq in (truth, pred)]):
            rep = confusion_metrics(t, p, basis)
            assert rep.confusion.counts.tolist() == counts
            assert rep.f_m == f_m and rep.v_m == v_m
            assert rep.labels == BASIS_LABELS[basis] and rep.n_traces == len(truth)

    @pytest.mark.parametrize("truth, pred", [
        (["odd", "even"], ["odd", "Tm"]),
        ([0, 1], [0, 3]),
        ([0, -1], [0, 1]),
    ])
    def test_label_outside_basis_rejected(self, truth, pred):
        with pytest.raises(ValueError):
            confusion_metrics(truth, pred, ReadoutBasis.PARITY)


class TestHmmClassify:
    def _params(self, std=0.15):
        return sr.HmmParams.from_spin_model(
            [1 / 3, 1 / 3, 1 / 3], sr.RateSet(1.0, 0.01), dt=1.0, std=std
        )

    def test_singlet_trace(self):
        params = self._params()
        c = sr.hmm_classify(params, sr.Trace(dt=1.0, samples=np.zeros(7)))
        assert c.spin is sr.SpinState.S
        assert c.spin_posterior[0] > 0.999
        assert not c.tie

    def test_decayed_step_not_classified_as_slow_triplet(self):
        # high for 3 lifetimes of the fast triplet, then a clean decay:
        # the fast state is far more likely to decay at all
        params = self._params()
        trace = sr.Trace(dt=1.0, samples=[1, 1, 1, 0, 0, 0, 0])
        c = sr.hmm_classify(params, trace)
        assert c.spin is sr.SpinState.T0
        bf = sr.brute_force_posterior(params, trace)
        spin_bf = bf.probs[0][:3] + bf.probs[0][3:]
        np.testing.assert_allclose(c.spin_posterior, spin_bf, atol=1e-9)

    def test_very_long_dwell_goes_to_slow_state(self):
        params = self._params()
        trace = sr.Trace(dt=1.0, samples=[1, 1, 1, 1, 1, 1, 0])
        c = sr.hmm_classify(params, trace)
        assert c.spin is sr.SpinState.TM
        bf = sr.brute_force_posterior(params, trace)
        spin_bf = bf.probs[0][:3] + bf.probs[0][3:]
        np.testing.assert_allclose(c.spin_posterior, spin_bf, atol=1e-9)

    def test_shift_scale_argmax_invariance(self):
        rng = np.random.default_rng(5)
        params = self._params(std=0.4)
        samples = rng.uniform(-0.5, 1.5, (20, 12))
        labels, _, _ = hmm_classify_batch(params, sr.TraceBatch(dt=1.0, samples=samples))
        scaled = sr.HmmParams(
            pi=params.pi, rates=params.rates, dt=1.0,
            emissions=sr.EmissionModel(
                means=-2.0 * params.emissions.means + 0.3,
                stds=2.0 * params.emissions.stds,
            ),
        )
        labels2, _, _ = hmm_classify_batch(
            scaled, sr.TraceBatch(dt=1.0, samples=-2.0 * samples + 0.3)
        )
        np.testing.assert_array_equal(labels, labels2)


class TestFidelitySweep:
    def test_white_noise_matches_electrical_fidelity(self):
        # two-state, no decay: the balanced (mean-recall) threshold fidelity
        # follows the closed-form SNR curve with SNR(t) = sqrt(n) * dV / sigma
        dt = 1e-5
        params = sr.HmmParams.from_spin_model([0.5, 0, 0.5], sr.RateSet(0, 0), dt=dt, std=1.0)
        batch = sr.simulate_batch(params, 4000, 64, seed=17)
        t_reads = [4 * dt, 16 * dt, 64 * dt]
        reports = fidelity_sweep(params, batch, t_reads, "threshold", ReadoutBasis.PARITY)
        for rep, n in zip(reports, (4, 16, 64)):
            balanced = 0.5 * (rep.recall_per_state["odd"] + rep.recall_per_state["even"])
            expected = electrical_fidelity(math.sqrt(n))
            perr = 1 - expected
            sigma = 0.5 * math.sqrt(2 * perr * (1 - perr) / 2000) + 1e-4
            assert abs(balanced - expected) < 3 * sigma, (n, balanced, expected)

    def test_reports_carry_t_read_and_n(self):
        dt = 1e-5
        params = sr.HmmParams.from_spin_model([0.5, 0, 0.5], sr.RateSet(0, 0), dt=dt, std=0.5)
        batch = sr.simulate_batch(params, 100, 16, seed=18)
        reports = fidelity_sweep(params, batch, [8 * dt], "hmm", ReadoutBasis.THREE_STATE)
        assert reports[0].t_read == 8 * dt
        assert reports[0].n_traces == 100
        assert reports[0].labels == BASIS_LABELS[ReadoutBasis.THREE_STATE]

    def test_threshold_requires_binary_basis(self):
        dt = 1e-5
        params = sr.HmmParams.from_spin_model([0.5, 0, 0.5], sr.RateSet(0, 0), dt=dt, std=0.5)
        batch = sr.simulate_batch(params, 50, 8, seed=19)
        with pytest.raises(ValueError):
            fidelity_sweep(params, batch, [4 * dt], "threshold", ReadoutBasis.THREE_STATE)

    def test_unlabelled_batch_rejected(self):
        params = sr.HmmParams.from_spin_model([0.5, 0, 0.5], sr.RateSet(0, 0), dt=1.0, std=0.5)
        batch = sr.TraceBatch(dt=1.0, samples=np.zeros((5, 4)))
        with pytest.raises(ValueError):
            fidelity_sweep(params, batch, [2.0], "hmm", ReadoutBasis.PARITY)


class TestHmmSweepOnePass:
    """The HMM sweep reads every window end off one joint forward pass;
    each report must equal the per-window forward-backward classification."""

    DT = 10e-6
    # the benchmark's 15 readout times
    T_READS = [20e-6, 30e-6, 50e-6, 80e-6, 120e-6, 170e-6, 250e-6, 340e-6,
               500e-6, 850e-6, 1.2e-3, 1.7e-3, 2.5e-3, 3.3e-3, 4e-3]

    def _reference_point(self, n_traces, seed):
        params = sr.HmmParams.from_spin_model(
            [0.25, 0.25, 0.5], sr.RateSet(1 / 170e-6, 1 / 290e-3), dt=self.DT,
            std=math.sqrt(3.3e-6 / self.DT),
        )
        return params, sr.simulate_batch(params, n_traces, 400, seed=seed)

    def _per_window(self, params, batch, t_reads, basis):
        reports = []
        for t in t_reads:
            labels, _, ties = hmm_classify_batch(params, batch, t)
            reports.append((confusion_metrics(batch.labels, labels, basis, t_read=t), int(ties.sum())))
        return reports

    @pytest.mark.parametrize("basis, counts", [
        (ReadoutBasis.THREE_STATE, [
            [112, 0, 19, 10, 0, 119, 16, 1, 223], [118, 2, 11, 10, 1, 118, 9, 2, 229],
            [125, 3, 3, 14, 9, 106, 5, 8, 227], [126, 4, 1, 15, 30, 84, 3, 8, 229],
            [127, 4, 0, 15, 52, 62, 0, 4, 236], [127, 4, 0, 15, 63, 51, 0, 1, 239],
            [127, 4, 0, 15, 85, 29, 0, 1, 239], [127, 4, 0, 15, 102, 12, 0, 1, 239],
            [127, 4, 0, 15, 110, 4, 0, 0, 240], [127, 4, 0, 15, 114, 0, 0, 0, 240],
            [127, 4, 0, 15, 114, 0, 0, 0, 240], [127, 4, 0, 15, 114, 0, 0, 0, 240],
            [127, 4, 0, 15, 114, 0, 0, 0, 240], [127, 4, 0, 15, 114, 0, 0, 0, 240],
            [127, 4, 0, 15, 114, 0, 0, 0, 240],
        ]),
        (ReadoutBasis.PARITY, [
            [122, 138, 17, 223], [131, 129, 11, 229], [151, 109, 13, 227], [175, 85, 11, 229],
            [198, 62, 4, 236], [209, 51, 1, 239], [231, 29, 1, 239], [248, 12, 1, 239],
            [256, 4, 0, 240], [260, 0, 0, 240], [260, 0, 0, 240], [260, 0, 0, 240],
            [260, 0, 0, 240], [260, 0, 0, 240], [260, 0, 0, 240],
        ]),
    ])
    def test_golden_counts(self, basis, counts):
        # recorded from the per-window sweep that preceded the one-pass kernel
        params, batch = self._reference_point(500, seed=4040)
        reports = fidelity_sweep(params, batch, self.T_READS, "hmm", basis)
        assert [rep.confusion.counts.ravel().tolist() for rep in reports] == counts

    def test_unsorted_and_duplicate_readout_times_keep_input_order(self):
        params, batch = self._reference_point(200, seed=70)
        t_reads = [340e-6, 20e-6, 4e-3, 340e-6, 85e-6, 20e-6]
        reports = fidelity_sweep(params, batch, t_reads, "hmm", ReadoutBasis.THREE_STATE)
        expected = self._per_window(params, batch, t_reads, ReadoutBasis.THREE_STATE)
        assert [rep.t_read for rep in reports] == t_reads
        for rep, (want, ties) in zip(reports, expected):
            assert rep.confusion.counts.tolist() == want.confusion.counts.tolist()
            assert rep.f_m == want.f_m and rep.recall_per_state == want.recall_per_state
            assert rep.n_ties == ties

    def test_tie_counts_match_per_window(self):
        # equal T0/Tm preparation and decay rates: a trace that stays high
        # is exactly as likely to have started in T0 as in Tm
        dt = 1e-5
        params = sr.HmmParams.from_spin_model(
            [0.2, 0.4, 0.4], sr.RateSet(2e3, 2e3), dt=dt, std=0.5
        )
        batch = sr.simulate_batch(params, 300, 60, seed=71)
        t_reads = [5 * dt, 20 * dt, 60 * dt, 10 * dt]
        reports = fidelity_sweep(params, batch, t_reads, "hmm", ReadoutBasis.THREE_STATE)
        expected = self._per_window(params, batch, t_reads, ReadoutBasis.THREE_STATE)
        assert [rep.n_ties for rep in reports] == [ties for _, ties in expected]
        assert all(rep.n_ties > 0 for rep in reports)
        for rep, (want, _) in zip(reports, expected):
            assert rep.confusion.counts.tolist() == want.confusion.counts.tolist()

    def test_threshold_reports_carry_no_ties(self):
        params, batch = self._reference_point(100, seed=72)
        reports = fidelity_sweep(params, batch, [50e-6, 340e-6], "threshold", ReadoutBasis.PARITY)
        assert [rep.n_ties for rep in reports] == [None, None]
