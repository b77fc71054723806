import hashlib
import json
import math
import os

import numpy as np
import pytest

from spinread import cli
from spinread.cli import main
from spinread.constants import E_CHARGE, HBAR
from spinread.markov import HmmParams, log_likelihood
from spinread.pipeline import TraceBundle


def _hmm_dict(gamma_t0=5882.35, gamma_tm=3.448, dt=1e-5, std=0.4,
              spin=(0.25, 0.25, 0.5), tlf_up=0.0, means=(0.0, 1.0, 1.0, 1.0, 0.0, 0.0)):
    pi = list(spin) + [0.0, 0.0, 0.0]
    means = list(means)
    return {
        "pi": pi,
        "rates_hz": {"gamma_t0": gamma_t0, "gamma_tm": gamma_tm, "tlf_up": tlf_up, "tlf_down": 0.0},
        "dt_s": dt,
        "emissions": {"means": means, "stds": [std] * 6},
    }


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


class TestSimulate:
    def test_end_to_end_and_determinism(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 200, "n_samples": 30, "output": "sim",
        })
        code, report, _ = _run(capsys, [
            "simulate", "--config", config, "--seed", "7", "--out", str(tmp_path / "a"),
        ])
        assert code == 0
        assert report["seed"] == 7
        assert report["config"]["n_traces"] == 200
        bundle = TraceBundle.load(str(tmp_path / "a" / "sim"))
        assert bundle.manifest.n_traces == 200

        code2, _, _ = _run(capsys, [
            "simulate", "--config", config, "--seed", "7", "--out", str(tmp_path / "b"),
        ])
        assert code2 == 0
        for name in ("sim.f64", "sim.manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 10, "n_samples": 5,
        })
        code, _, err = _run(capsys, ["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in err

    def test_empty_config_is_schema_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, "empty.json", {})
        code, _, err = _run(capsys, ["simulate", "--config", config, "--seed", "1"])
        assert code == 2
        assert "missing required" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 10, "n_samples": 5, "bogus": 1,
        })
        code, _, err = _run(capsys, ["simulate", "--config", config, "--seed", "1"])
        assert code == 2
        assert "unknown config keys" in err

    def test_set_override(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 10, "n_samples": 5, "output": "sim",
        })
        code, report, _ = _run(capsys, [
            "simulate", "--config", config, "--seed", "1", "--out", str(tmp_path),
            "--set", "n_traces=25",
        ])
        assert code == 0
        assert report["config"]["n_traces"] == 25
        assert TraceBundle.load(str(tmp_path / "sim")).manifest.n_traces == 25


    def test_bool_seed_rejected(self, tmp_path, capsys):
        payload = {"hmm": _hmm_dict(), "n_traces": 10, "n_samples": 5}
        config = _write_config(tmp_path, "sim.json", payload)
        code, _, err = _run(capsys, [
            "simulate", "--config", config, "--set", "seed=true", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "seed" in err
        config = _write_config(tmp_path, "seeded.json", dict(payload, seed=True))
        code, _, err = _run(capsys, ["simulate", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in err

    def test_negative_background_rejected_before_simulating(self, tmp_path, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("simulate_batch ran before the config check")

        monkeypatch.setattr(cli, "simulate_batch", not_called)
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 10, "n_samples": 5, "background_samples": -1,
        })
        code, _, err = _run(capsys, ["simulate", "--config", config, "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "background_samples" in err


def _nan_sample(prefix):
    data = np.fromfile(prefix + ".f64", dtype="<f8")
    data[5] = np.nan
    data.tofile(prefix + ".f64")


def _manifest_edit(**changes):
    def edit(prefix):
        path = prefix + ".manifest.json"
        with open(path) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:
            json.dump({**manifest, **changes}, fh)

    return edit


class TestClassifyAndSweep:
    @pytest.fixture()
    def bundle_path(self, tmp_path, capsys):
        config = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 400, "n_samples": 40, "output": "sim",
        })
        code, _, _ = _run(capsys, [
            "simulate", "--config", config, "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        return str(tmp_path / "sim")

    def test_classify_threshold_parity(self, tmp_path, capsys, bundle_path):
        config = _write_config(tmp_path, "cls.json", {
            "input": bundle_path, "hmm": _hmm_dict(), "classifier": "threshold",
            "basis": "parity", "t_read_s": 34e-5, "output": "metrics",
        })
        code, report, _ = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        assert 0.0 <= report["results"]["f_m"] <= 1.0
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t_read_s,classifier,basis,F_m,V_m")
        assert len(lines) == 2

    def test_sweep_deterministic_output(self, tmp_path, capsys, bundle_path):
        config = _write_config(tmp_path, "sweep.json", {
            "input": bundle_path, "hmm": _hmm_dict(), "classifier": "hmm",
            "basis": "three_state", "t_read_s_list": [1e-4, 2e-4, 4e-4],
            "output": "sweep",
        })
        code, _, _ = _run(capsys, ["sweep", "--config", config, "--out", str(tmp_path / "r1")])
        assert code == 0
        code, _, _ = _run(capsys, ["sweep", "--config", config, "--out", str(tmp_path / "r2")])
        assert code == 0
        a = (tmp_path / "r1" / "sweep.csv").read_bytes()
        b = (tmp_path / "r2" / "sweep.csv").read_bytes()
        assert a == b
        assert len(a.decode().strip().splitlines()) == 4

    def test_sweep_and_classify_report_ties(self, tmp_path, capsys, bundle_path):
        # equal T0/Tm preparation and decay rates make every high trace a tie
        hmm = _hmm_dict(gamma_t0=2e3, gamma_tm=2e3, spin=(0.2, 0.4, 0.4))
        t_reads = [1e-4, 4e-5, 4e-4]
        config = _write_config(tmp_path, "sweep.json", {
            "input": bundle_path, "hmm": hmm, "classifier": "hmm",
            "basis": "three_state", "t_read_s_list": t_reads, "output": "sweep",
        })
        code, report, _ = _run(capsys, ["sweep", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        ties = report["results"]["ties"]
        assert len(ties) == 3 and all(isinstance(n, int) and n > 0 for n in ties)
        for t_read, n_ties in zip(t_reads, ties):
            config = _write_config(tmp_path, "cls.json", {
                "input": bundle_path, "hmm": hmm, "classifier": "hmm",
                "basis": "three_state", "t_read_s": t_read, "output": "cls",
            })
            code, report, _ = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
            assert code == 0
            assert report["results"]["ties"] == n_ties
        config = _write_config(tmp_path, "thr.json", {
            "input": bundle_path, "hmm": hmm, "classifier": "threshold",
            "basis": "parity", "t_read_s_list": t_reads, "output": "thr",
        })
        code, report, _ = _run(capsys, ["sweep", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        assert report["results"]["ties"] == [None, None, None]

    def test_unknown_classifier_is_config_error(self, tmp_path, capsys, bundle_path):
        config = _write_config(tmp_path, "cls.json", {
            "input": bundle_path, "hmm": _hmm_dict(), "classifier": "bayes",
            "basis": "parity", "t_read_s": 1e-4,
        })
        code, report, err = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        assert "classifier must be 'threshold' or 'hmm'" in err

    def test_missing_input_exit_code(self, tmp_path, capsys):
        config = _write_config(tmp_path, "cls.json", {
            "input": str(tmp_path / "nope"), "hmm": _hmm_dict(), "classifier": "hmm",
            "basis": "parity", "t_read_s": 1e-4,
        })
        code, _, err = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
        assert code == 3
        assert "missing input" in err

    @pytest.mark.parametrize("corrupt", [
        _nan_sample,
        _manifest_edit(gain=2.0),
        _manifest_edit(version=99),
    ], ids=["nan_sample", "unknown_manifest_key", "manifest_version_99"])
    def test_bad_bundle_is_config_error(self, tmp_path, capsys, bundle_path, corrupt):
        corrupt(bundle_path)
        config = _write_config(tmp_path, "cls.json", {
            "input": bundle_path, "hmm": _hmm_dict(), "classifier": "hmm",
            "basis": "parity", "t_read_s": 1e-4,
        })
        code, report, err = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        assert "invalid trace bundle" in err

    def test_vanishing_likelihood_exits_4_with_report(self, tmp_path, capsys, bundle_path):
        hmm = _hmm_dict(gamma_t0=0.0, gamma_tm=0.0, std=1e-3, spin=(1.0, 0.0, 0.0))
        hmm["emissions"]["means"] = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        config = _write_config(tmp_path, "cls.json", {
            "input": bundle_path, "hmm": hmm, "classifier": "hmm",
            "basis": "parity", "t_read_s": 1e-4,
        })
        code, report, _ = _run(capsys, ["classify", "--config", config, "--out", str(tmp_path)])
        assert code == 4
        assert report["command"] == "classify"
        assert "vanished" in report["error"]

    def test_vanishing_likelihood_in_one_pass_sweep_exits_4(self, tmp_path, capsys, bundle_path):
        hmm = _hmm_dict(gamma_t0=0.0, gamma_tm=0.0, std=1e-3, spin=(1.0, 0.0, 0.0))
        hmm["emissions"]["means"] = [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        config = _write_config(tmp_path, "sweep.json", {
            "input": bundle_path, "hmm": hmm, "classifier": "hmm",
            "basis": "parity", "t_read_s_list": [1e-4, 2e-4], "output": "sweep",
        })
        code, report, _ = _run(capsys, ["sweep", "--config", config, "--out", str(tmp_path)])
        assert code == 4
        assert report["command"] == "sweep"
        assert "vanished" in report["error"]


class TestPreprocess:
    def test_drift_correction_roundtrip(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 60, "n_samples": 20,
            "background_samples": 8, "drift_per_trace": 0.01, "output": "raw",
        })
        code, _, _ = _run(capsys, ["simulate", "--config", sim, "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        pre = _write_config(tmp_path, "pre.json", {
            "input": str(tmp_path / "raw"), "window": 20, "output": "corrected",
        })
        code, report, _ = _run(capsys, ["preprocess", "--config", pre, "--out", str(tmp_path)])
        assert code == 0
        corrected = TraceBundle.load(str(tmp_path / "corrected"))
        assert corrected.manifest.corrected
        raw = TraceBundle.load(str(tmp_path / "raw"))
        # the linear drift is mostly removed from late traces
        assert abs(corrected.readout[-1].mean()) < abs(raw.readout[-1].mean())


    # sha256 of each output file, recorded with the per-sample simulation
    # loop and the per-trace drift-correction loop these files came from
    GOLDEN_FILES = {
        "raw.f64": "87d66c05667ada678b51e107499201fbc55525a912c65cd6075be7034251941f",
        "raw.manifest.json": "08570094662ee0914683a2f1d1068ad1c1bc4b20a3da207348c32809a3cca9e7",
        "corrected.f64": "337dc02802d1a8835e20e9721ecc6952101c882ca8ac396c320e34e75264a5df",
        "corrected.manifest.json": "4318c34aeb4daf42a63596f3a2e1792923974277750f0d066d57b405616e1437",
    }

    def test_simulate_preprocess_files_are_golden(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 300, "n_samples": 40, "background_samples": 10,
            "background_mean": 0.05, "drift_per_trace": 2e-3, "output": "raw",
        })
        pre = _write_config(tmp_path, "pre.json", {
            "input": str(tmp_path / "raw"), "window": 25, "output": "corrected",
        })
        assert main(["simulate", "--config", sim, "--seed", "9", "--out", str(tmp_path)]) == 0
        assert main(["preprocess", "--config", pre, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.GOLDEN_FILES
        }
        assert digests == self.GOLDEN_FILES

    # sha256 of each output of the commands that read a bundle, recorded
    # when the bundle still handed copies of its matrix to the kernels.
    # fit-hmm's per-iteration wall times are dropped before hashing.
    GOLDEN_READ_FILES = {
        "sweep_threshold.csv": "9b2e4fa50ea84542453c70541416f14ad59174d062e842d8baa33b1e71b2c1e3",
        "sweep_hmm.csv": "4260bf325d4857d044818d3339d2b2637b9ab98cf95e8e5574b456e9c9093b50",
        "classify.csv": "7c86dabae746381fa1e54a96ccc0045865d2e3e4324bb24787974476d155f425",
        "fit_hmm.json": "1201f2c2539a53a03ecf3611ca4ac3fb8e731ea8fd29e2ea8c5cc4ecdccb4d80",
        "hist.csv": "1203e56d44d4d89bc24fd1ebfbac74a48e9eb52fa24e1283dd52b9eb57edb0f3",
        "snr.csv": "afc48cea44283732dbb3f4ecd83b201b12941f19e4ac1f2385f1967b77eb6a75",
    }

    def test_read_side_files_are_golden(self, tmp_path, capsys):
        def run(command, payload, *flags):
            config = _write_config(tmp_path, "cfg_" + payload["output"] + ".json", payload)
            assert main([command, "--config", config, *flags, "--out", str(tmp_path)]) == 0

        run("simulate", {"hmm": _hmm_dict(), "n_traces": 300, "n_samples": 40,
                         "background_samples": 5, "output": "three"}, "--seed", "11")
        run("simulate", {"hmm": _hmm_dict(spin=(0.5, 0.0, 0.5)), "n_traces": 200,
                         "n_samples": 40, "output": "two"}, "--seed", "12")
        three = str(tmp_path / "three")
        sweep = {"input": three, "hmm": _hmm_dict(), "basis": "parity",
                 "t_read_s_list": [5e-5, 1e-4, 2e-4, 4e-4]}
        run("sweep", dict(sweep, classifier="threshold", output="sweep_threshold"))
        run("sweep", dict(sweep, classifier="hmm", output="sweep_hmm"))
        run("classify", {"input": three, "hmm": _hmm_dict(), "classifier": "hmm",
                         "basis": "three_state", "t_read_s": 4e-4, "output": "classify"})
        run("fit-hmm", {"input": three, "init": _hmm_dict(std=0.5), "output": "fit_hmm"})
        run("emit", {
            "family": "histogram", "input": three, "t_read_s": 2e-4, "bins": 41,
            "two_state": {
                "v_s": 0.0, "v_t": 1.0, "sigma0": 0.13, "t0": 2e-4,
                "t1_t0": 1.7e-4, "t1_tm": 0.29, "p_s": 0.5, "p_t0": 0.0, "p_tm": 0.5,
            },
            "output": "hist",
        })
        run("snr", {"mode": "scaling", "input": str(tmp_path / "two"),
                    "t_read_s_list": [2e-5, 5e-5, 1e-4, 2e-4, 4e-4], "output": "snr"})
        capsys.readouterr()
        fitted = json.loads((tmp_path / "fit_hmm.json").read_text())
        del fitted["iteration_seconds"]
        (tmp_path / "fit_hmm.json").write_text(json.dumps(fitted, indent=2) + "\n")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.GOLDEN_READ_FILES
        }
        assert digests == self.GOLDEN_READ_FILES


class TestFitCommands:
    def test_fit_physics_lz(self, tmp_path, capsys):
        delta = 46.9e-9 * E_CHARGE
        v = np.geomspace(0.5, 300, 30) * E_CHARGE
        y = np.exp(-2 * math.pi * delta**2 / (HBAR * v))
        rows = "\n".join(f"{float(x)!r},{float(yy)!r}" for x, yy in zip(v, y))
        (tmp_path / "lz.csv").write_text("x,y\n" + rows + "\n")
        config = _write_config(tmp_path, "fit.json", {
            "model": "lz", "input_csv": str(tmp_path / "lz.csv"),
            "init": [1e-26], "output": "lzfit",
        })
        code, report, _ = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "lzfit.json").read_text())
        assert payload["converged"]
        assert abs(payload["params"][0] - delta) < 1e-3 * delta

    @pytest.mark.parametrize("bad_row", ["x,y", "1.0", "1.0,nan"])
    def test_csv_bad_row_after_header_is_config_error(self, tmp_path, capsys, bad_row):
        rows = [f"{float(x)!r},{float(x) ** 2!r}" for x in np.linspace(0.1, 1.0, 10)]
        rows.insert(4, bad_row)
        (tmp_path / "rows.csv").write_text("x,y\n" + "\n".join(rows) + "\n")
        config = _write_config(tmp_path, "fit.json", {
            "model": "thermometry", "input_csv": str(tmp_path / "rows.csv"),
            "init": [0.3, 0.05], "output": "fit",
        })
        code, report, err = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        assert "line 6" in err

    def test_binary_csv_names_the_file(self, tmp_path, capsys):
        # float64 bytes, as in a trace bundle's .f64, are not UTF-8 text
        path = tmp_path / "traces.f64"
        path.write_bytes(np.array([1e-5, 0.3, 2.5]).tobytes())
        config = _write_config(tmp_path, "fit.json", {
            "model": "lz", "input_csv": str(path), "init": [1e-26], "output": "fit",
        })
        code, report, err = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {path} is not a UTF-8 text CSV file (byte 0: ")

    def test_fit_hmm_non_convergence_exit_code(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 50, "n_samples": 15, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "2", "--out", str(tmp_path)])
        fit = _write_config(tmp_path, "fit.json", {
            "input": str(tmp_path / "sim"), "init": _hmm_dict(), "max_iter": 1,
            "output": "fitted",
        })
        code, report, _ = _run(capsys, ["fit-hmm", "--config", fit, "--out", str(tmp_path)])
        assert code == 4
        assert os.path.exists(tmp_path / "fitted.json")  # partial report written
        assert report["results"]["converged"] is False

    def test_fit_hmm_reports_final_log_likelihood(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 50, "n_samples": 15, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "3", "--out", str(tmp_path)])
        fit = _write_config(tmp_path, "fit.json", {
            "input": str(tmp_path / "sim"), "init": _hmm_dict(), "output": "fitted",
        })
        code, _, _ = _run(capsys, ["fit-hmm", "--config", fit, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fitted.json").read_text())
        params = HmmParams.from_dict(payload["hmm"])
        batch = TraceBundle.load(str(tmp_path / "sim")).to_batch()
        assert payload["final_log_likelihood"] == log_likelihood(params, batch)

    def test_fit_hmm_reports_iteration_seconds(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 50, "n_samples": 15, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "3", "--out", str(tmp_path)])
        fit = _write_config(tmp_path, "fit.json", {
            "input": str(tmp_path / "sim"), "init": _hmm_dict(), "output": "fitted",
        })
        code, _, _ = _run(capsys, ["fit-hmm", "--config", fit, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fitted.json").read_text())
        # the per-iteration wall times follow the keys that were there before
        assert list(payload) == [
            "hmm", "converged", "n_iterations", "log_likelihoods", "final_log_likelihood",
            "variance_floored", "iteration_seconds",
        ]
        seconds = payload["iteration_seconds"]
        assert len(seconds) == payload["n_iterations"] and all(s > 0.0 for s in seconds)

    def test_fit_histogram_command(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        t = 1e-4
        t1 = 2e-4
        draws = np.empty(10000)
        for i in range(draws.size):
            if rng.random() < 0.5:
                mu = 0.0
            else:
                s = rng.exponential(t1)
                mu = 1.0 if s > t else s / t
            draws[i] = rng.normal(mu, 1 / 6)
        counts, edges = np.histogram(draws, bins=80)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = "\n".join(f"{float(c)!r},{int(n)}" for c, n in zip(centers, counts))
        (tmp_path / "hist.csv").write_text(rows + "\n")
        config = _write_config(tmp_path, "fit.json", {
            "input_csv": str(tmp_path / "hist.csv"), "t_s": t, "mode": "two_state",
            "init": {
                "v_s": 0.1, "v_t": 0.9, "sigma0": 0.2, "t0": t,
                "t1_t0": t, "t1_tm": 3e-4, "p_s": 0.5, "p_t0": 0.0, "p_tm": 0.5,
            },
            "output": "histfit",
        })
        code, report, _ = _run(capsys, ["fit-histogram", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "histfit.json").read_text())
        assert abs(payload["density"]["v_s"]) < 0.02
        assert abs(payload["density"]["v_t"] - 1.0) < 0.02
        assert abs(payload["density"]["t1_tm"] - t1) < 0.2 * t1


class TestSnrAndEmit:
    def test_snr_iq_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        pts = np.vstack([
            rng.normal([0, 0], 0.05, (1000, 2)),
            rng.normal([0.4, 0], 0.05, (1000, 2)),
        ])
        rows = "\n".join(f"{float(i)!r},{float(q)!r}" for i, q in pts)
        (tmp_path / "iq.csv").write_text(rows + "\n")
        config = _write_config(tmp_path, "snr.json", {
            "mode": "iq", "input_csv": str(tmp_path / "iq.csv"), "output": "iq",
        })
        code, report, _ = _run(capsys, ["snr", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        assert abs(report["results"]["snr"] - 8.0) < 0.5

    def test_snr_scaling_mode(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(gamma_t0=0.0, gamma_tm=0.0, std=1.0, spin=(0.5, 0.0, 0.5)),
            "n_traces": 600, "n_samples": 256, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "6", "--out", str(tmp_path)])
        config = _write_config(tmp_path, "snr.json", {
            "mode": "scaling", "input": str(tmp_path / "sim"),
            "t_read_s_list": [4e-5, 8e-5, 16e-5, 64e-5, 256e-5], "output": "scal",
        })
        code, report, _ = _run(capsys, ["snr", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        assert report["results"]["fitted"]
        lines = (tmp_path / "scal.csv").read_text().strip().splitlines()
        assert lines[0] == "t_read_s,inv_snr"
        assert len(lines) == 6

    def test_emit_capacitance_schema(self, tmp_path, capsys):
        config = _write_config(tmp_path, "emit.json", {
            "family": "capacitance", "alpha_drt": 0.17, "t_electron_k": 0.090,
            "f_rf_hz": 576e6, "n_points": 64, "output": "cap",
        })
        code, _, _ = _run(capsys, ["emit", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "cap.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma_hz,delta_c_f"
        assert len(lines) == 65
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        best = data[np.argmax(data[:, 1]), 0]
        assert 0.9e9 < best < 1.5e9

    def test_emit_histogram_family(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 500, "n_samples": 25, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "8", "--out", str(tmp_path)])
        config = _write_config(tmp_path, "emit.json", {
            "family": "histogram", "input": str(tmp_path / "sim"), "t_read_s": 2e-4,
            "bins": 41,
            "two_state": {
                "v_s": 0.0, "v_t": 1.0, "sigma0": 0.13, "t0": 2e-4,
                "t1_t0": 1.7e-4, "t1_tm": 0.29, "p_s": 0.5, "p_t0": 0.0, "p_tm": 0.5,
            },
            "output": "hist",
        })
        code, _, _ = _run(capsys, ["emit", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "hist.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_center,count,density_two_state,density_three_state"
        assert len(lines) == 42

    def test_emit_histogram_window_beyond_trace_is_config_error(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 20, "n_samples": 10, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "8", "--out", str(tmp_path)])
        config = _write_config(tmp_path, "emit.json", {
            "family": "histogram", "input": str(tmp_path / "sim"), "t_read_s": 1.0,
        })
        code, _, err = _run(capsys, ["emit", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert "t_read" in err
        assert not (tmp_path / "plotdata.csv").exists()


# (command, config given the path prefix of a labelled 1e-5 s bundle); each
# is bad input that the library rejects with a ValueError
_CAPACITANCE = {"family": "capacitance", "alpha_drt": 0.17, "t_electron_k": 0.090, "f_rf_hz": 576e6}
_SWEEP = {"hmm": _hmm_dict(), "classifier": "hmm", "basis": "parity"}
_SIMULATE = {"n_traces": 5, "n_samples": 5, "seed": 1}
# a non-finite HMM parameter or a bad EM option: (command, config, the
# field its config error names)
_BAD_HMM_VALUES = {
    "simulate_nan_decay_rate": (
        "simulate", lambda b: dict(_SIMULATE, hmm=_hmm_dict(gamma_t0=math.nan)), "gamma_t0"),
    "simulate_infinite_tlf_rate": (
        "simulate", lambda b: dict(_SIMULATE, hmm=_hmm_dict(tlf_up=math.inf)), "tlf_up"),
    "simulate_nan_std": ("simulate", lambda b: dict(_SIMULATE, hmm=_hmm_dict(std=math.nan)), "stds"),
    "simulate_infinite_mean": ("simulate", lambda b: dict(
        _SIMULATE, hmm=_hmm_dict(means=(0.0, math.inf, 1.0, 1.0, 0.0, 0.0))), "means"),
    "classify_nan_decay_rate": ("classify", lambda b: dict(
        _SWEEP, input=b, hmm=_hmm_dict(gamma_tm=math.nan), t_read_s=1e-4), "gamma_tm"),
    "classify_infinite_dt": ("classify", lambda b: dict(
        _SWEEP, input=b, hmm=_hmm_dict(dt=math.inf), t_read_s=1e-4), "dt"),
    "fit_hmm_zero_max_iter": ("fit-hmm", lambda b: {
        "input": b, "init": _hmm_dict(), "max_iter": 0}, "max_iter"),
    "fit_hmm_negative_tol": ("fit-hmm", lambda b: {
        "input": b, "init": _hmm_dict(), "tol": -1e-7}, "tol"),
    "fit_hmm_nan_tol": ("fit-hmm", lambda b: {"input": b, "init": _hmm_dict(), "tol": math.nan}, "tol"),
}
_BAD_INPUTS = {
    **{case: spec[:2] for case, spec in _BAD_HMM_VALUES.items()},
    "simulate_no_traces": ("simulate", lambda b: {
        "hmm": _hmm_dict(), "n_traces": 0, "n_samples": 5, "seed": 1}),
    "simulate_negative_background": ("simulate", lambda b: {
        "hmm": _hmm_dict(), "n_traces": 5, "n_samples": 5, "seed": 1, "background_samples": -1}),
    "emit_one_bin": ("emit", lambda b: {
        "family": "histogram", "input": b, "t_read_s": 1e-4, "bins": 1}),
    "emit_alpha_above_one": ("emit", lambda b: dict(_CAPACITANCE, alpha_drt=2)),
    "emit_negative_points": ("emit", lambda b: dict(_CAPACITANCE, n_points=-3)),
    "emit_nan_temperature": ("emit", lambda b: dict(_CAPACITANCE, t_electron_k=math.nan)),
    "emit_nan_sigma0": ("emit", lambda b: {
        "family": "histogram", "input": b, "t_read_s": 1e-4, "two_state": {
            "v_s": 0.0, "v_t": 1.0, "sigma0": math.nan, "t0": 1e-4,
            "t1_t0": 1.7e-4, "t1_tm": 0.29, "p_s": 0.5, "p_t0": 0.0, "p_tm": 0.5}}),
    "sweep_non_numeric_time": ("sweep", lambda b: dict(_SWEEP, input=b, t_read_s_list=["x"])),
    "sweep_no_times": ("sweep", lambda b: dict(_SWEEP, input=b, t_read_s_list=[])),
    "sweep_dt_mismatch": ("sweep", lambda b: dict(
        _SWEEP, input=b, hmm=_hmm_dict(dt=4e-5), t_read_s_list=[1e-4, 2e-4])),
    "classify_dt_mismatch": ("classify", lambda b: dict(
        _SWEEP, input=b, hmm=_hmm_dict(dt=4e-5), t_read_s=1e-4)),
    "fit_hmm_dt_mismatch": ("fit-hmm", lambda b: {"input": b, "init": _hmm_dict(dt=4e-5)}),
    "fit_physics_binary_csv": ("fit-physics", lambda b: {
        "model": "lz", "input_csv": b + ".f64", "init": [1e-26]}),
    **{
        f"classify_label_{label}": ("classify", lambda b, label=label: dict(
            _SWEEP, input=_edited_copy(b, f"label_{label}", lambda m: m.update(
                labels=[label] + m["labels"][1:])), t_read_s=1e-4))
        for label in (300, 2.5, True, -1)
    },
    # 35 - 5 matches the 30 columns on disk
    "classify_negative_background": ("classify", lambda b: dict(
        _SWEEP, input=_edited_copy(b, "negative_background", lambda m: m.update(
            background_samples=-5, n_samples=35)), t_read_s=4e-5)),
}


def _edited_copy(prefix, tag, edit):
    """Copy of the bundle at ``prefix`` whose manifest ``edit`` changed in place."""
    new = f"{prefix}_{tag}"
    with open(prefix + ".manifest.json") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(new + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    with open(prefix + ".f64", "rb") as src, open(new + ".f64", "wb") as dst:
        dst.write(src.read())
    return new


@pytest.fixture(scope="module")
def labelled_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = _write_config(out, "sim.json", {
        "hmm": _hmm_dict(), "n_traces": 100, "n_samples": 30, "output": "sim",
    })
    assert main(["simulate", "--config", config, "--seed", "2", "--out", str(out)]) == 0
    return str(out / "sim")


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, labelled_bundle, case):
    capsys.readouterr()
    command, make_config = _BAD_INPUTS[case]
    config = _write_config(tmp_path, "bad.json", make_config(labelled_bundle))
    code = main([command, "--config", config, "--out", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("case", sorted(_BAD_HMM_VALUES))
def test_bad_hmm_value_names_the_field_and_writes_nothing(tmp_path, capsys, labelled_bundle, case):
    command, make_config, field = _BAD_HMM_VALUES[case]
    config = _write_config(tmp_path, "bad.json", make_config(labelled_bundle))
    out = tmp_path / "out"
    # a RuntimeWarning fails the test (pyproject filterwarnings)
    code, _, err = _run(capsys, [command, "--config", config, "--out", str(out)])
    assert code == 2
    assert f"{field} must be" in err
    assert not out.exists() or not any(out.iterdir())


def test_nan_rate_from_the_command_line(tmp_path, capsys):
    config = _write_config(tmp_path, "sim.json", dict(_SIMULATE, hmm=_hmm_dict()))
    out = tmp_path / "out"
    code, _, err = _run(capsys, [
        "simulate", "--config", config, "--set", "hmm.rates_hz.gamma_t0=NaN", "--out", str(out),
    ])
    assert code == 2
    assert "gamma_t0 must be finite" in err
    assert not any(out.iterdir())


def test_bad_manifest_error_names_the_field(tmp_path, capsys, labelled_bundle):
    command, make_config = _BAD_INPUTS["classify_negative_background"]
    config = _write_config(tmp_path, "bad.json", make_config(labelled_bundle))
    code, _, err = _run(capsys, [command, "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "background_samples" in err
