import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from spinread import cli
from spinread.analytic import DensityParams, combined_density
from spinread.cli import main
from spinread.constants import E_CHARGE, HBAR
from spinread.fitting import STATUS_MAX_ITERATIONS, STATUS_SINGULAR_JACOBIAN, fit_model, get_model
from spinread.markov import HmmParams, log_likelihood
from spinread.pipeline import TraceBundle, build_histogram
from spinread.readout import _window_means, window_average


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
    # when the bundle still handed copies of its matrix to the kernels;
    # hist.csv re-recorded once its averages came from the sweep's
    # cumulative sum (same counts, centres within one ulp of the .mean ones);
    # fit_hmm.json re-recorded once the HMM passes ran in time segments (same
    # 8 iterations, every number within 3.1e-15 relative of the old one),
    # and again once the one-step matrix was built in closed form (same 8
    # iterations, every number within 4.6e-15 relative of the old one), and
    # once the E-step summed its emission moments inside the backward pass
    # (same 8 iterations, every number within 4.5e-15 relative).
    # fit-hmm's per-iteration wall times are dropped before hashing.
    GOLDEN_READ_FILES = {
        "sweep_threshold.csv": "9b2e4fa50ea84542453c70541416f14ad59174d062e842d8baa33b1e71b2c1e3",
        "sweep_hmm.csv": "4260bf325d4857d044818d3339d2b2637b9ab98cf95e8e5574b456e9c9093b50",
        "classify.csv": "7c86dabae746381fa1e54a96ccc0045865d2e3e4324bb24787974476d155f425",
        "fit_hmm.json": "2e010ce1b8d9958512dfcc705fce8018f3538acafec5e20d5ee3d28c8fb499ab",
        "hist.csv": "02709b792d135c3f2df9c243c7a84442075ded243f9f579d6738e97b32e84c70",
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

    @pytest.mark.parametrize("first", ["1.0,2.O", "0.1,y"])
    def test_partly_numeric_first_line_is_config_error(self, tmp_path, capsys, first):
        # a first line whose first field is a number is data, not a header
        rows = [f"{float(x)!r},{float(x) ** 2!r}" for x in np.linspace(0.1, 1.0, 10)]
        path = tmp_path / "rows.csv"
        path.write_text("\n".join([first] + rows) + "\n")
        config = _write_config(tmp_path, "fit.json", {
            "model": "thermometry", "input_csv": str(path), "init": [0.3, 0.05], "output": "fit",
        })
        code, report, err = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        assert err.splitlines() == [f"config error: {path} line 1 is not numeric: {first!r}"]

    @staticmethod
    def _thermometry_csv(path, weights=None):
        """(x, y) of a noisy thermometry curve written to ``path``, with
        ``weights`` as a third column when given."""
        rng = np.random.default_rng(12)
        x = np.linspace(0.01, 0.4, 25)
        y = get_model("thermometry")(x, np.array([0.17, 0.090])) * (1 + 0.02 * rng.standard_normal(25))
        columns = [x, y] if weights is None else [x, y, weights]
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)))
        return x, y

    @pytest.mark.parametrize("init", [[0.17], [0.17, 0.090, 1.0]])
    def test_fit_physics_init_of_the_wrong_length_exits_2(self, tmp_path, capsys, init):
        self._thermometry_csv(tmp_path / "t.csv")
        config = _write_config(tmp_path, "cfg.json", {
            "model": "thermometry", "input_csv": str(tmp_path / "t.csv"), "init": init, "output": "fit",
        })
        code, report, err = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        assert report is None
        assert err.splitlines() == [
            f"config error: model 'thermometry' takes 2 parameters (alpha, t_e), init has {len(init)}"
        ]
        assert not (tmp_path / "fit.json").exists()

    def test_fit_physics_weights_column_weights_the_fit(self, tmp_path, capsys):
        weights = np.random.default_rng(13).uniform(0.1, 10.0, 25)
        x, y = self._thermometry_csv(tmp_path / "t.csv", weights)
        config = _write_config(tmp_path, "fit.json", {
            "model": "thermometry", "input_csv": str(tmp_path / "t.csv"), "init": [0.3, 0.05],
            "output": "fit",
        })
        code, _, _ = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        params = json.loads((tmp_path / "fit.json").read_text())["params"]
        assert params == fit_model("thermometry", x, y, [0.3, 0.05], weights=weights).params.tolist()
        assert params != fit_model("thermometry", x, y, [0.3, 0.05]).params.tolist()

    def test_fit_physics_non_convergence_exits_4_with_the_partial_json(self, tmp_path, capsys):
        # identical abscissae leave one flat direction in (alpha, t_e), so
        # the Jacobian is singular
        y = 1e-4 + 1e-6 * np.random.default_rng(5).standard_normal(10)
        (tmp_path / "flat.csv").write_text("".join(f"0.1,{float(v)!r}\n" for v in y))
        config = _write_config(tmp_path, "fit.json", {
            "model": "thermometry", "input_csv": str(tmp_path / "flat.csv"),
            "init": [0.17, 0.090], "output": "fit",
        })
        code, report, _ = _run(capsys, ["fit-physics", "--config", config, "--out", str(tmp_path)])
        assert code == 4
        assert report["error"] == "physics fit did not converge"
        assert report["outputs"] == [str(tmp_path / "fit.json")]
        assert report["results"]["converged"] is False
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["converged"] is False and payload["status"] == STATUS_SINGULAR_JACOBIAN
        assert payload["model"] == "thermometry" and len(payload["params"]) == 2

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

    def test_fit_histogram_non_convergence_exits_4_with_the_partial_json(self, tmp_path, capsys):
        # no triplet decays in these averages, so the fit pins the decay
        # rate at its lower bound and stops at the iteration limit
        rng = np.random.default_rng(0)
        draws = rng.normal(np.where(rng.random(2000) < 0.5, 0.0, 1.0), 1 / 6)
        centers, counts = build_histogram(draws, 60)
        rows = "".join(f"{float(c)!r},{int(n)}\n" for c, n in zip(centers, counts))
        (tmp_path / "hist.csv").write_text(rows)
        config = _write_config(tmp_path, "fit.json", {
            "input_csv": str(tmp_path / "hist.csv"), "t_s": 1e-4, "mode": "two_state",
            "init": {
                "v_s": 0.1, "v_t": 0.9, "sigma0": 0.2, "t0": 1e-4,
                "t1_t0": 1e-4, "t1_tm": 3e-4, "p_s": 0.5, "p_t0": 0.0, "p_tm": 0.5,
            },
            "output": "histfit",
        })
        code, report, _ = _run(capsys, ["fit-histogram", "--config", config, "--out", str(tmp_path)])
        assert code == 4
        assert report["error"] == "histogram fit did not converge"
        assert report["outputs"] == [str(tmp_path / "histfit.json")]
        assert report["results"]["converged"] is False
        payload = json.loads((tmp_path / "histfit.json").read_text())
        assert payload["fit"]["converged"] is False
        assert payload["fit"]["status"] == STATUS_MAX_ITERATIONS
        assert abs(payload["density"]["v_t"] - 1.0) < 0.02


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

    def test_emit_histogram_three_state_column(self, tmp_path, capsys):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 500, "n_samples": 25, "output": "sim",
        })
        _run(capsys, ["simulate", "--config", sim, "--seed", "8", "--out", str(tmp_path)])
        three_state = {
            "v_s": 0.0, "v_t": 1.0, "sigma0": 0.13, "t0": 2e-4,
            "t1_t0": 1.7e-4, "t1_tm": 0.29, "p_s": 0.25, "p_t0": 0.25, "p_tm": 0.5,
        }
        config = _write_config(tmp_path, "emit.json", {
            "family": "histogram", "input": str(tmp_path / "sim"), "t_read_s": 2e-4,
            "bins": 41, "three_state": three_state, "output": "hist",
        })
        code, _, _ = _run(capsys, ["emit", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "hist.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        batch = TraceBundle.load(str(tmp_path / "sim")).to_batch()
        centers, counts = build_histogram(_window_means(batch, [2e-4])[0], 41)
        density = combined_density(centers, 2e-4, DensityParams(**three_state), "three_state")
        np.testing.assert_array_equal(data[:, 3], density * counts.sum() * (centers[1] - centers[0]))
        assert np.all(np.isnan(data[:, 2]))

    def test_emit_histogram_averages_are_the_sweep_kernel_bit_for_bit(self, tmp_path, capsys, monkeypatch):
        sim = _write_config(tmp_path, "sim.json", {
            "hmm": _hmm_dict(), "n_traces": 200, "n_samples": 60, "output": "sim",
        })
        assert main(["simulate", "--config", sim, "--seed", "13", "--out", str(tmp_path)]) == 0
        emitted = []

        def capture(values, bins):
            emitted.append(np.array(values))
            return build_histogram(values, bins)

        monkeypatch.setattr(cli, "build_histogram", capture)
        t_read = 2e-4
        config = _write_config(tmp_path, "emit.json", {
            "family": "histogram", "input": str(tmp_path / "sim"), "t_read_s": t_read,
        })
        assert main(["emit", "--config", config, "--out", str(tmp_path)]) == 0
        batch = TraceBundle.load(str(tmp_path / "sim")).to_batch()
        # the sweep takes every window from one cumulative sum up to the
        # longest, which stops short of the trace end here
        swept = _window_means(batch, [5e-5, t_read, 4e-4])[1]
        single = [window_average(batch[k], t_read) for k in range(batch.n_traces)]
        np.testing.assert_array_equal(emitted[0], swept)
        np.testing.assert_array_equal(emitted[0], single)
        np.testing.assert_allclose(emitted[0], batch.samples[:, :20].mean(axis=1), rtol=0, atol=1e-15)

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
    "sweep_infinite_time": ("sweep", lambda b: dict(_SWEEP, input=b, t_read_s_list=[1e-4, math.inf])),
    "classify_infinite_time": ("classify", lambda b: dict(_SWEEP, input=b, t_read_s=math.inf)),
    "classify_nan_time": ("classify", lambda b: dict(_SWEEP, input=b, t_read_s=math.nan)),
    "emit_infinite_window": ("emit", lambda b: {"family": "histogram", "input": b, "t_read_s": math.inf}),
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


@pytest.mark.parametrize("command", ["sweep", "snr"])
@pytest.mark.parametrize("bad", [None, [1e-4], True, "1e-4"], ids=["null", "list", "true", "string"])
def test_read_time_that_is_not_a_number_exits_2(tmp_path, capsys, labelled_bundle, command, bad):
    if command == "sweep":
        payload = dict(_SWEEP, input=labelled_bundle)
    else:
        payload = {"mode": "scaling", "input": labelled_bundle}
    config = _write_config(tmp_path, "bad.json", dict(payload, t_read_s_list=[1e-4, bad]))
    code, report, err = _run(capsys, [command, "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2 and report is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: t_read_s_list entries must be numbers")
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("text, message", [
    ("{not json", "config error: config is not valid JSON: "),
    ("[1, 2]", "config error: config must be a JSON object"),
], ids=["invalid", "array"])
def test_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, text, message):
    (tmp_path / "cfg.json").write_text(text)
    code, report, err = _run(capsys, ["emit", "--config", str(tmp_path / "cfg.json"),
                                      "--out", str(tmp_path / "out")])
    assert code == 2 and report is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not (tmp_path / "out").exists()


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


def _manifest_only(prefix, new, edit=None):
    """``new``: a copy of the bundle's manifest (changed by ``edit``) with no data file."""
    with open(prefix + ".manifest.json") as fh:
        manifest = json.load(fh)
    if edit:
        edit(manifest)
    with open(new + ".manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return new


def _data_only(prefix, new):
    """``new``: a copy of the bundle's data file with no manifest."""
    with open(prefix + ".f64", "rb") as src, open(new + ".f64", "wb") as dst:
        dst.write(src.read())
    return new


# (command, config given the prefix of a labelled bundle and an absent
# path, the path the error must name); a None config makes the absent
# path the --config file itself
_MISSING_INPUTS = {
    "config_file": lambda b, m: ("simulate", None, m),
    "bundle_manifest": lambda b, m: (
        "classify", dict(_SWEEP, input=_data_only(b, m), t_read_s=1e-4), m + ".manifest.json"),
    "bundle_data": lambda b, m: (
        "classify", dict(_SWEEP, input=_manifest_only(b, m), t_read_s=1e-4), m + ".f64"),
    "bundle_data_beside_a_bad_manifest": lambda b, m: (
        "emit", {"family": "histogram", "t_read_s": 1e-4,
                 "input": _manifest_only(b, m, lambda d: d.update(version=99, v0=None))}, m + ".f64"),
    "fit_physics_csv": lambda b, m: (
        "fit-physics", {"model": "lz", "input_csv": m, "init": [1e-26]}, m),
    "fit_histogram_csv": lambda b, m: (
        "fit-histogram", {"input_csv": m, "t_s": 1e-4, "mode": "two_state", "init": {}}, m),
    "snr_iq_csv": lambda b, m: ("snr", {"mode": "iq", "input_csv": m}, m),
}


@pytest.mark.parametrize("case", sorted(_MISSING_INPUTS))
def test_missing_input_exits_3_naming_the_path(tmp_path, capsys, labelled_bundle, case):
    absent = str(tmp_path / "absent")
    command, payload, missing = _MISSING_INPUTS[case](labelled_bundle, absent)
    config = absent if payload is None else _write_config(tmp_path, "cfg.json", payload)
    capsys.readouterr()
    code = main([command, "--config", config, "--seed", "1", "--out", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.splitlines() == [f"missing input: {missing}"]


# (command, config given the prefix of a labelled bundle and a directory,
# the path the error must name); a None config makes the directory the
# --config file itself
_DIRECTORY_INPUTS = {
    "emit_config": lambda b, d: ("emit", None, d),
    "fit_physics_csv": lambda b, d: (
        "fit-physics", {"model": "lz", "input_csv": d, "init": [1e-26]}, d),
    "bundle_manifest": lambda b, d: (
        "classify", dict(_SWEEP, input=_data_only(b, d[:-len(".manifest.json")]), t_read_s=1e-4), d),
    "bundle_data": lambda b, d: (
        "classify", dict(_SWEEP, input=_manifest_only(b, d[:-len(".f64")]), t_read_s=1e-4), d),
}


@pytest.mark.parametrize("case", sorted(_DIRECTORY_INPUTS))
def test_directory_as_input_exits_3_naming_the_path(tmp_path, capsys, labelled_bundle, case):
    suffix = {"bundle_manifest": ".manifest.json", "bundle_data": ".f64"}.get(case, "")
    directory = str(tmp_path / ("dir" + suffix))
    os.mkdir(directory)
    command, payload, named = _DIRECTORY_INPUTS[case](labelled_bundle, directory)
    config = directory if payload is None else _write_config(tmp_path, "cfg.json", payload)
    capsys.readouterr()
    code = main([command, "--config", config, "--seed", "1", "--out", str(tmp_path / "out")])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.splitlines() == [f"is a directory: {named}"]


def test_output_onto_a_directory_exits_3_and_leaves_no_temporary_file(tmp_path, capsys):
    run = tmp_path / "run"
    (run / "cap.csv").mkdir(parents=True)
    config = _write_config(tmp_path, "emit.json", dict(_CAPACITANCE, output="cap"))
    capsys.readouterr()
    code = main(["emit", "--config", config, "--out", str(run)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.splitlines() == [f"is a directory: {run / 'cap.csv'}"]
    # the rename failed; the temporary file it would have renamed is gone
    assert sorted(p.name for p in run.iterdir()) == ["cap.csv"]
    assert (run / "cap.csv").is_dir() and not any((run / "cap.csv").iterdir())


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, out):
    (tmp_path / "file").write_text("not a directory\n")
    config = _write_config(tmp_path, "emit.json", dict(_CAPACITANCE, output="cap"))
    capsys.readouterr()
    code = main(["emit", "--config", config, "--out", str(tmp_path / out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: --out must name a directory"]
    assert (tmp_path / "file").read_text() == "not a directory\n"


@pytest.mark.parametrize("command, payload", [
    ("simulate", dict(_SIMULATE, hmm=_hmm_dict())),
    ("emit", _CAPACITANCE),
], ids=["simulate", "emit"])
@pytest.mark.parametrize("output", ["", ".", "..", "../../escape", "sub/x", "x/", "ABSOLUTE"])
def test_output_that_is_not_a_bare_file_name_exits_2_and_writes_nothing(
        tmp_path, capsys, command, payload, output):
    work = tmp_path / "work"
    work.mkdir()
    if output == "ABSOLUTE":
        output = str(tmp_path / "escape")
    config = _write_config(tmp_path, "cfg.json", dict(payload, output=output))
    before = sorted(tmp_path.rglob("*"))
    code, report, err = _run(capsys, [command, "--config", config, "--out", str(work / "a" / "out")])
    assert code == 2 and report is None
    assert "output must be a bare file name" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_empty_out_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, "emit.json", _CAPACITANCE)
    code, report, err = _run(capsys, ["emit", "--config", config, "--out", ""])
    assert code == 2 and report is None
    assert "--out" in err
    assert os.listdir(tmp_path) == ["emit.json"]


@pytest.mark.parametrize("v0", ["NaN", "Infinity", "-Infinity", "true"])
def test_non_finite_v0_exits_2_and_writes_nothing(tmp_path, capsys, v0):
    config = _write_config(tmp_path, "sim.json", dict(_SIMULATE, hmm=_hmm_dict()))
    out = tmp_path / "out"
    code, report, err = _run(capsys, ["simulate", "--config", config, "--set", f"v0={v0}", "--out", str(out)])
    assert code == 2 and report is None
    assert "v0" in err
    assert not out.exists() or not any(out.iterdir())


def test_two_calls_in_one_process_do_not_share_arguments(tmp_path, capsys):
    config = _write_config(tmp_path, "emit.json", _CAPACITANCE)
    out = str(tmp_path / "out")
    code, first, _ = _run(capsys, ["emit", "--config", config, "--set", "n_points=5", "--seed", "4", "--out", out])
    assert code == 0 and first["seed"] == 4 and first["config"]["n_points"] == 5
    code, second, _ = _run(capsys, ["emit", "--config", config, "--out", out])
    assert code == 0 and second["seed"] is None and second["config"]["n_points"] == 512
    assert second["results"] == {"n_points": 512}


# --help of the program and of each command, and the usage error for an
# unknown command, as printed at COLUMNS=80 when every call built its own
# parser; argparse lays these out differently in other Python versions
_HELP_RECORD = Path(__file__).with_name("cli_help_py311.json")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse")
def test_help_and_usage_errors_match_the_record(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    record = json.loads(_HELP_RECORD.read_text())
    assert set(record) == {"--help", "no-such-command"} | {f"{name} --help" for name in cli._COMMANDS}
    for _ in range(2):
        for argv, expected in record.items():
            with pytest.raises(SystemExit) as exc:
                main(argv.split())
            out = capsys.readouterr()
            assert (exc.value.code, out.out, out.err) == (expected["code"], expected["stdout"], expected["stderr"])
