import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

import spinread as sr
from spinread import pipeline
from spinread.markov import TraceBatch
from spinread.pipeline import (
    BundleManifest,
    IqBatch,
    TraceBundle,
    _atomic_write_text,
    build_histogram,
    drift_correct,
    iq_project,
    noise_scaling,
    with_linear_drift,
)
from spinread.readout import ReadoutBasis, optimal_threshold_empirical


def _bundle_with_backgrounds(rng, n_traces=40, n_samples=30, n_bg=8, labels=None):
    data = rng.standard_normal((n_traces, n_bg + n_samples)) * 0.1
    manifest = BundleManifest(
        dt=1e-5, n_traces=n_traces, n_samples=n_samples,
        background_samples=n_bg, labels=labels,
    )
    return TraceBundle(manifest, data)


class TestDriftCorrect:
    def test_constant_background_removed(self):
        rng = np.random.default_rng(0)
        bundle = _bundle_with_backgrounds(rng)
        b = 0.37
        shifted = TraceBundle(
            BundleManifest(**{**bundle.manifest.__dict__}), bundle.data.copy()
        )
        shifted.data[:, :8] = b
        shifted.data[:, 8:] += b
        corrected = drift_correct(shifted, window=50)
        np.testing.assert_allclose(corrected.readout, shifted.readout - b, atol=1e-12)
        assert corrected.manifest.corrected

    def test_window_one_uses_previous_trace(self):
        rng = np.random.default_rng(1)
        bundle = _bundle_with_backgrounds(rng, n_traces=10)
        corrected = drift_correct(bundle, window=1)
        bg_means = bundle.backgrounds.mean(axis=1)
        for k in range(1, 10):
            np.testing.assert_allclose(
                corrected.data[k], bundle.data[k] - bg_means[k - 1], atol=1e-12
            )

    def test_first_trace_uses_own_background(self):
        rng = np.random.default_rng(2)
        bundle = _bundle_with_backgrounds(rng, n_traces=5)
        corrected = drift_correct(bundle)
        bg0 = bundle.backgrounds[0].mean()
        np.testing.assert_allclose(corrected.data[0], bundle.data[0] - bg0, atol=1e-12)

    def test_causal_in_trace_index(self):
        rng = np.random.default_rng(3)
        bundle = _bundle_with_backgrounds(rng, n_traces=30)
        corrected = drift_correct(bundle, window=10)
        k = 12
        permuted = bundle.data.copy()
        permuted[k + 1 :] = permuted[k + 1 :][::-1]
        corrected2 = drift_correct(TraceBundle(bundle.manifest, permuted), window=10)
        np.testing.assert_array_equal(corrected.data[: k + 1], corrected2.data[: k + 1])

    def test_drift_injection_reduces_class_overlap(self):
        # slow linear drift smears the two charge levels together; the
        # running-background subtraction restores the separation
        rng = np.random.default_rng(4)
        n, n_bg, n_s = 400, 20, 40
        labels = rng.integers(0, 2, n)
        data = np.empty((n, n_bg + n_s))
        data[:, :n_bg] = 0.0
        data[:, n_bg:] = labels[:, None] * 1.0
        data += 0.08 * rng.standard_normal(data.shape)
        manifest = BundleManifest(
            dt=1e-5, n_traces=n, n_samples=n_s, background_samples=n_bg,
            labels=[int(2 * v) for v in labels],  # S / Tm spin labels
        )
        drifted = with_linear_drift(TraceBundle(manifest, data), step=0.004)
        corrected = drift_correct(drifted, window=50)

        def overlap_error(bundle):
            avgs = bundle.readout.mean(axis=1)
            lo = avgs[labels == 0]
            hi = avgs[labels == 1]
            _, fm = optimal_threshold_empirical(lo, hi)
            return 1 - fm

        assert overlap_error(corrected) < overlap_error(drifted)

    @pytest.mark.parametrize("n_traces, window", [(1, 50), (7, 3), (120, 1), (120, 50), (120, 500)])
    def test_equals_per_trace_loop(self, n_traces, window):
        # the per-trace running mean drift_correct used to compute, one
        # trace at a time; the vectorised form performs the same operations
        bundle = _bundle_with_backgrounds(np.random.default_rng(5), n_traces=n_traces)
        bg_means = bundle.backgrounds.mean(axis=1)
        cum = np.concatenate([[0.0], np.cumsum(bg_means)])
        correction = np.empty(n_traces)
        correction[0] = bg_means[0]
        for k in range(1, n_traces):
            lo = max(0, k - window)
            correction[k] = (cum[k] - cum[lo]) / (k - lo)
        corrected = drift_correct(bundle, window=window)
        np.testing.assert_array_equal(corrected.data, bundle.data - correction[:, None])
        assert corrected.manifest.corrected and not bundle.manifest.corrected
        assert corrected.manifest.labels == bundle.manifest.labels

    def test_missing_background_rejected(self):
        manifest = BundleManifest(dt=1e-5, n_traces=3, n_samples=4)
        bundle = TraceBundle(manifest, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            drift_correct(bundle)


class TestIqProject:
    def test_two_clusters_axis_and_separation(self):
        rng = np.random.default_rng(5)
        a = rng.normal([0, 0], 0.01, (400, 2))
        b = rng.normal([1, 0], 0.01, (400, 2))
        proj = iq_project(IqBatch(np.vstack([a, b])))
        assert abs(proj.delta_v - 1.0) < 0.01
        assert abs(abs(proj.means[1][0] - proj.means[0][0]) - 1.0) < 0.01

    def test_rotation_translation_invariance(self):
        rng = np.random.default_rng(6)
        pts = np.vstack([
            rng.normal([0, 0], 0.12, (500, 2)),
            rng.normal([1, 0.2], 0.12, (500, 2)),
        ])
        base = iq_project(IqBatch(pts))
        theta = 0.77
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + np.array([3.2, -1.7])
        other = iq_project(IqBatch(moved))
        assert abs(base.delta_v - other.delta_v) < 1e-6 * base.delta_v
        assert abs(base.sigma - other.sigma) < 1e-6 * base.sigma
        assert abs(base.snr - other.snr) < 1e-6 * base.snr

    def test_spin_and_charge_snr_values(self):
        # separation tuned to 8 sigma reproduces the spin SNR; dividing by
        # the contrast factor 0.8 gives the charge SNR of 10
        rng = np.random.default_rng(7)
        sigma = 0.05
        pts = np.vstack([
            rng.normal([0, 0], sigma, (3000, 2)),
            rng.normal([8 * sigma, 0], sigma, (3000, 2)),
        ])
        proj = iq_project(IqBatch(pts))
        assert abs(proj.snr - 8.0) < 0.15
        assert abs(proj.snr / 0.8 - 10.0) < 0.2

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 0.1, (300, 2))
        with pytest.raises(ValueError):
            iq_project(IqBatch(pts))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IqBatch(np.zeros((5, 3)))

    @pytest.mark.parametrize("n_restarts", [0, -1])
    def test_no_restart_rejected(self, n_restarts):
        rng = np.random.default_rng(9)
        pts = np.vstack([rng.normal([0, 0], 0.1, (50, 2)), rng.normal([1, 0], 0.1, (50, 2))])
        with pytest.raises(ValueError, match="n_restarts must be >= 1"):
            iq_project(IqBatch(pts), n_restarts=n_restarts)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="IqBatch values must be finite"):
            IqBatch(pts)

    def test_restarts_at_one_optimum_keep_the_first(self):
        # every restart reaches the same optimum here, up to the last bits
        # and the component order; the first restart is the one kept
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal([0, 0], 0.1, (300, 2)), rng.normal([0.8, 0.3], 0.1, (300, 2))])
        full = iq_project(IqBatch(pts))
        one = iq_project(IqBatch(pts), n_restarts=1)
        for name in ("projected", "means", "weights"):
            np.testing.assert_array_equal(getattr(full, name), getattr(one, name))
        for name in ("delta_v", "sigma", "snr", "log_likelihood"):
            assert getattr(full, name) == getattr(one, name)


def _one_restart_em(x, seed):
    """One restart of the (n, 2, 2) EM that iq_project ran before its
    per-axis rows: the oracle for ``n_restarts=1``."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    m0 = x[rng.integers(n)]
    d2 = ((x - m0) ** 2).sum(axis=1)
    m1 = x[rng.choice(n, p=d2 / d2.sum())]
    means = np.vstack([m0, m1]).astype(float)
    weights = np.array([0.5, 0.5])
    var = float(np.var(x))
    ll_prev = -np.inf
    d = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    for _ in range(300):
        logp = np.log(weights)[None, :] - d / (2.0 * var) - math.log(2.0 * math.pi * var)
        m = logp.max(axis=1, keepdims=True)
        p = np.exp(logp - m)
        norm = p.sum(axis=1, keepdims=True)
        resp = p / norm
        ll = float((np.log(norm[:, 0]) + m[:, 0]).sum())
        wsum = resp.sum(axis=0)
        weights = wsum / n
        means = (resp.T @ x) / wsum[:, None]
        d = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        var = max(float((resp * d).sum() / (2.0 * n)), 1e-30 * float(np.std(x)) ** 2)
        if abs(ll - ll_prev) < 1e-12 * max(abs(ll), 1.0):
            break
        ll_prev = ll
    return ll, means, weights, var


@pytest.mark.parametrize("rng_seed, centres, sigma, n_per, em_seed", [
    (5, ([0, 0], [1, 0]), 0.01, 400, 0),  # TestIqProject's two clusters
    (6, ([0, 0], [1, 0.2]), 0.12, 500, 3),
    (7, ([0, 0], [0.4, 0]), 0.05, 3000, 11),
    (12, ([0.3, -1.0], [0.1, -0.75]), 0.08, 120, 7),
])
def test_iq_project_one_restart_matches_the_oracle(rng_seed, centres, sigma, n_per, em_seed):
    rng = np.random.default_rng(rng_seed)
    x = np.vstack([rng.normal(c, sigma, (n_per, 2)) for c in centres])
    ll, means, weights, var = _one_restart_em(x, em_seed)
    proj = iq_project(IqBatch(x), seed=em_seed, n_restarts=1)
    delta_v = float(np.linalg.norm(means[1] - means[0]))
    rel = dict(rtol=1e-9, atol=0)
    np.testing.assert_allclose(proj.means, means, **rel)
    np.testing.assert_allclose(proj.weights, weights, **rel)
    np.testing.assert_allclose(proj.log_likelihood, ll, **rel)
    np.testing.assert_allclose(proj.delta_v, delta_v, **rel)
    np.testing.assert_allclose(proj.sigma, math.sqrt(var), **rel)
    np.testing.assert_allclose(proj.snr, delta_v / math.sqrt(var), **rel)


class TestHistogram:
    def test_identical_values_single_bin(self):
        centers, counts = build_histogram(np.full(50, 0.3), 10, range_=(0.0, 1.0))
        assert counts.sum() == 50
        assert np.count_nonzero(counts) == 1

    def test_counts_conserved(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(1234)
        for bins in (2, 7, 101):
            _, counts = build_histogram(values, bins)
            assert counts.sum() == 1234

    def test_uniform_within_poisson(self):
        rng = np.random.default_rng(10)
        n, bins = 100000, 20
        values = rng.uniform(0, 1, n)
        _, counts = build_histogram(values, bins, range_=(0.0, 1.0))
        expected = n / bins
        assert np.all(np.abs(counts - expected) < 4 * math.sqrt(expected))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], 10)


class TestPersistence:
    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        labels = [0, 2, 1, 0, 2]
        bundle = _bundle_with_backgrounds(rng, n_traces=5, labels=labels)
        prefix = str(tmp_path / "bundle")
        bundle.save(prefix)
        loaded = TraceBundle.load(prefix)
        np.testing.assert_array_equal(loaded.data, bundle.data)
        assert loaded.manifest == bundle.manifest

    def test_files_match_deep_copied_serialisation(self, tmp_path):
        # the manifest text equals json.dumps(asdict(...)) and the data
        # file equals the little-endian float64 bytes, as before
        rng = np.random.default_rng(15)
        labels = [int(v) for v in rng.integers(0, 3, 4000)]
        bundle = _bundle_with_backgrounds(rng, n_traces=4000, n_samples=6, n_bg=2, labels=labels)
        prefix = str(tmp_path / "big")
        manifest_path, data_path = bundle.save(prefix)
        with open(manifest_path) as fh:
            assert fh.read() == json.dumps(asdict(bundle.manifest), indent=2) + "\n"
        with open(data_path, "rb") as fh:
            assert fh.read() == bundle.data.astype("<f8").tobytes()
        loaded = TraceBundle.load(prefix)
        assert loaded.data.dtype == np.float64 and loaded.data.flags.c_contiguous
        np.testing.assert_array_equal(loaded.data, bundle.data)
        assert loaded.manifest == bundle.manifest

    def test_drift_copies_leave_the_source_manifest(self):
        rng = np.random.default_rng(16)
        bundle = _bundle_with_backgrounds(rng, n_traces=6, labels=[0, 1, 2, 0, 1, 2])
        before = asdict(bundle.manifest)
        drifted = with_linear_drift(bundle, 0.1)
        corrected = drift_correct(drifted)
        assert drifted.manifest is not bundle.manifest
        assert asdict(drifted.manifest) == before
        assert asdict(corrected.manifest) == {**before, "corrected": True}
        assert asdict(bundle.manifest) == before

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        manifest = BundleManifest(dt=2.5e-6, n_traces=4, n_samples=9)
        bundle = TraceBundle(manifest, rng.standard_normal((4, 9)))
        path = str(tmp_path / "traces.csv")
        bundle.to_csv(path)
        loaded = TraceBundle.from_csv(path)
        np.testing.assert_array_equal(loaded.data, bundle.data)
        assert loaded.manifest.dt == bundle.manifest.dt

    def test_from_csv_opens_its_file_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "traces.csv")
        TraceBundle(BundleManifest(dt=1e-6, n_traces=2, n_samples=3), np.ones((2, 3))).to_csv(path)
        opened = []

        def counted(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", counted, raising=False)
        assert TraceBundle.from_csv(path).manifest.dt == 1e-6
        assert opened == [path]

    @pytest.mark.parametrize("text", ["1,2\n3,4\n", "time,1e-6\n1,2\n", "dt\n1,2\n"],
                             ids=["no_header", "other_header", "no_value"])
    def test_from_csv_without_a_dt_header_raises(self, tmp_path, text):
        path = tmp_path / "traces.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="CSV must start with a 'dt,<value>' header row"):
            TraceBundle.from_csv(str(path))

    def test_csv_round_trip_of_a_bundle_with_backgrounds_keeps_the_readout(self, tmp_path):
        bundle = _bundle_with_backgrounds(np.random.default_rng(17), n_traces=3, n_samples=3, n_bg=1)
        path = str(tmp_path / "traces.csv")
        bundle.to_csv(path)
        loaded = TraceBundle.from_csv(path)
        np.testing.assert_array_equal(loaded.data, bundle.readout)
        assert loaded.manifest.n_samples == 3 and loaded.manifest.background_samples == 0
        assert loaded.manifest.dt == bundle.manifest.dt

    def test_batch_conversion(self):
        rng = np.random.default_rng(13)
        bundle = _bundle_with_backgrounds(rng, n_traces=6, labels=[0, 1, 2, 0, 1, 2])
        batch = bundle.to_batch()
        assert isinstance(batch, TraceBatch)
        np.testing.assert_array_equal(batch.samples, bundle.readout)
        np.testing.assert_array_equal(batch.backgrounds, bundle.backgrounds)
        again = TraceBundle.from_batch(batch)
        np.testing.assert_array_equal(again.data, bundle.data)

    def test_batch_is_views_of_data(self):
        bundle = _bundle_with_backgrounds(np.random.default_rng(13), n_traces=6)
        batch = bundle.to_batch()
        assert batch is bundle.to_batch()
        assert bundle.readout is batch.samples and bundle.backgrounds is batch.backgrounds
        assert np.shares_memory(batch.samples, bundle.data)
        assert np.shares_memory(batch.backgrounds, bundle.data)
        bundle.data[2, -1] = 7.0
        assert batch.samples[2, -1] == 7.0

    @pytest.mark.parametrize("label", [300, -1, 3, 2.5, 1.0, True, "1", None])
    def test_label_that_is_not_a_spin_code_rejected(self, label):
        labels = [0, 1, 2, label]
        with pytest.raises(ValueError, match="spin code"):
            TraceBatch(1e-5, np.zeros((4, 3)), labels=labels)
        with pytest.raises(ValueError, match="spin code"):
            TraceBundle(BundleManifest(dt=1e-5, n_traces=4, n_samples=3, labels=labels),
                        np.zeros((4, 3)))

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(14)
        bundle = _bundle_with_backgrounds(rng, n_traces=3)
        prefix = str(tmp_path / "bad")
        bundle.save(prefix)
        with open(prefix + ".manifest.json") as fh:
            manifest = json.load(fh)
        manifest["n_traces"] = 5
        with open(prefix + ".manifest.json", "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError):
            TraceBundle.load(prefix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.zeros((3, 5))
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            sr.Trace(dt=1e-5, samples=samples[1])
        with pytest.raises(ValueError, match="finite"):
            TraceBatch(1e-5, samples)
        with pytest.raises(ValueError, match="finite"):
            TraceBatch(1e-5, np.zeros((3, 5)), backgrounds=samples)
        with pytest.raises(ValueError, match="finite"):
            TraceBundle(BundleManifest(dt=1e-5, n_traces=3, n_samples=5), samples)

    def test_unsupported_format_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            BundleManifest(dt=1e-5, n_traces=3, n_samples=5, version=99)

    @pytest.mark.parametrize("field, bad", [
        ("n_traces", 0), ("n_traces", 2.0), ("n_traces", True), ("n_traces", "3"),
        ("n_samples", 0), ("n_samples", -1), ("n_samples", 5.5), ("n_samples", False),
        ("background_samples", -5), ("background_samples", 1.0), ("background_samples", True),
        ("dt", 0.0), ("dt", -1e-5), ("dt", math.nan), ("dt", math.inf), ("dt", "1e-5"),
        ("dt", True), ("v0", math.nan), ("v0", math.inf), ("v0", -math.inf), ("v0", True),
        ("v0", "1.0"), ("v0", None),
    ])
    def test_bad_manifest_field_rejected(self, field, bad):
        fields = dict(dt=1e-5, n_traces=3, n_samples=5, background_samples=0)
        fields[field] = bad
        with pytest.raises(ValueError, match=field):
            BundleManifest(**fields)

    def test_negative_background_manifest_rejected_on_load(self, tmp_path):
        # 45 - 5 matches the 40 columns on disk, so only the sign check
        # stops data[:, -5:] from loading as the readout
        prefix = str(tmp_path / "neg")
        TraceBundle(BundleManifest(dt=1e-5, n_traces=3, n_samples=40), np.zeros((3, 40))).save(prefix)
        with open(prefix + ".manifest.json") as fh:
            manifest = json.load(fh)
        manifest.update(background_samples=-5, n_samples=45)
        with open(prefix + ".manifest.json", "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="background_samples"):
            TraceBundle.load(prefix)

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = str(tmp_path / "out.json")

        def broken_replace(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            _atomic_write_text(target, "partial payload")
        assert not os.path.exists(target)


class TestNoiseScaling:
    def _white_noise_bundle(self, rng, sigma_s=0.8, n=3000, n_samples=1024):
        labels = rng.integers(0, 2, n)
        data = labels[:, None] * 1.0 + sigma_s * rng.standard_normal((n, n_samples))
        manifest = BundleManifest(
            dt=1e-6, n_traces=n, n_samples=n_samples,
            labels=[int(2 * v) for v in labels],
        )
        return TraceBundle(manifest, data), labels

    def test_white_noise_slope_and_intercept(self):
        rng = np.random.default_rng(15)
        sigma_s = 0.8
        bundle, _ = self._white_noise_bundle(rng, sigma_s=sigma_s)
        dt = bundle.manifest.dt
        t_reads = [dt * n for n in (4, 8, 16, 32, 64, 128, 256, 1024)]
        res = noise_scaling(bundle, t_reads, fit_fraction=0.75)
        assert res.fitted
        # 1/SNR = (sigma_s * sqrt(dt) / dV) / sqrt(t)
        slope_expected = sigma_s * math.sqrt(dt) / 1.0
        assert abs(res.slope - slope_expected) < 0.05 * slope_expected
        assert abs(res.intercept) < 2 * res.intercept_sigma

    def test_slow_fluctuator_plateau(self):
        rng = np.random.default_rng(16)
        bundle, labels = self._white_noise_bundle(rng)
        dt = bundle.manifest.dt
        # per-trace constant offset: the slow-switching limit of a fluctuator
        offsets = 0.08 * np.where(rng.random(bundle.manifest.n_traces) < 0.5, 1.0, -1.0)
        noisy = TraceBundle(bundle.manifest, bundle.data + offsets[:, None])
        t_reads = [dt * n for n in (4, 8, 16, 32, 64, 128, 256, 1024)]
        res = noise_scaling(noisy, t_reads, fit_fraction=0.5)
        extrapolated = res.intercept + res.slope / math.sqrt(t_reads[-1])
        assert res.inv_snr[-1] > 1.2 * extrapolated

    def test_single_point_not_fitted(self):
        rng = np.random.default_rng(17)
        bundle, _ = self._white_noise_bundle(rng, n=200, n_samples=64)
        res = noise_scaling(bundle, [16e-6])
        assert not res.fitted
        assert res.inv_snr.shape == (1,)

    def test_unlabelled_rejected(self):
        manifest = BundleManifest(dt=1e-6, n_traces=4, n_samples=16)
        bundle = TraceBundle(manifest, np.zeros((4, 16)))
        with pytest.raises(ValueError):
            noise_scaling(bundle, [4e-6, 8e-6])
