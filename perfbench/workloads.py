"""The two benchmark workloads: inputs, the timed chain, output checks.

Each workload is one closed-loop client running one batch job after
another. ``prepare`` writes the job's configs and CSVs from the seed;
``chain`` runs the timed CLI commands and library calls; ``check``
verifies the outputs afterwards, outside the timed region. The program
only sees the generated files and arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

T1_T0 = 170e-6
T1_TM = 290e-3
TAU_MIN = 3.3e-6
FRACTIONS = (0.25, 0.25, 0.5)

# input sizes of each chain; "tiny" keeps the benchmark's own tests quick,
# except em_classify, whose lifetime check needs its full 150 traces
SIZES = {
    "full": {
        "readout_sweep": {"n_traces": 4000, "n_samples": 400, "background_samples": 50},
        "em_classify": {"n_traces": 150, "n_samples": 4200},
        "analytic_fit": {"hist_traces": 4000, "hist_samples": 34, "analytic_t_read_s": [100e-6, 340e-6, 1e-3]},
    },
    "tiny": {
        "readout_sweep": {"n_traces": 300, "n_samples": 100, "background_samples": 20},
        "em_classify": {"n_traces": 150, "n_samples": 4200},
        "analytic_fit": {"hist_traces": 2000, "hist_samples": 34, "analytic_t_read_s": [340e-6]},
    },
}


def hmm_block(spin_probs, dt):
    """HMM config block at the reference rates and minimum integration time."""
    std = math.sqrt(TAU_MIN / dt)
    return {
        "pi": list(spin_probs) + [0.0, 0.0, 0.0],
        "rates_hz": {"gamma_t0": 1 / T1_T0, "gamma_tm": 1 / T1_TM, "tlf_up": 0.0, "tlf_down": 0.0},
        "dt_s": dt,
        "emissions": {"means": [0.0, 1.0, 1.0, 1.0, 0.0, 0.0], "stds": [std] * 6},
    }


class Ledger:
    """Operations attempted and failed. An operation is one CLI command or
    one library call; it fails if it raises, exits non-zero or fails its
    output check, and counts once however many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[str] = set()

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: str, why: str) -> None:
        print(f"perfbench: {op} failed: {why}", file=sys.stderr)
        self.failed_ops.add(op)

    def expect(self, op: str, ok: bool, why: str) -> bool:
        if not ok:
            self.fail(op, why)
        return ok


class Job:
    """One pass of a workload's chain; collects stage times and outputs."""

    def __init__(self, index: int, ledger: Ledger, tracer=None):
        self.index = index
        self.ledger = ledger
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.reports: dict[str, dict | None] = {}
        self.values: dict[str, object] = {}

    def op_id(self, key: str) -> str:
        return f"{'traced-' if self.tracer else ''}job{self.index}:{key}"

    def _timed(self, stages, key, span, fn):
        self.ledger.attempted += 1
        traced = self.tracer is not None and span is not None
        span_cm = self.tracer.span(span) if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span_cm:
                result = fn()
        except Exception:
            self.ledger.fail(self.op_id(key), traceback.format_exc())
            result = None
        elapsed = time.perf_counter() - t0
        for stage in stages:
            self.stages[stage] = self.stages.get(stage, 0.0) + elapsed
        return result

    def cli(self, stages, key, argv):
        """Run ``spinread.cli.main(argv)`` in-process, stdout captured."""
        import spinread.cli

        buf = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buf):
                return spinread.cli.main(argv)

        code = self._timed(stages, key, "cli." + argv[0], run)
        out = buf.getvalue()
        report = json.loads(out) if out.strip() else None
        self.reports[key] = report
        if code is not None:
            self.ledger.expect(self.op_id(key), code == 0, f"exit code {code}")

    def call(self, stages, key, fn, *args):
        """Library call, timed; its span comes from the patched function."""
        self.values[key] = self._timed(stages, key, None, lambda: fn(*args))

    def expect(self, key: str, ok: bool, why: str) -> bool:
        return self.ledger.expect(self.op_id(key), ok, why)


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_csv(path: str, columns) -> None:
    with open(path, "w") as fh:
        fh.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)))


def read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: str):
        self.seed = seed
        self.size = SIZES[size][self.name]
        self.work = work

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def config_path(self, name: str) -> str:
        # configs live apart from outputs, which may share their stem
        return os.path.join(self.work, "configs", name + ".json")

    def write_config(self, name: str, obj) -> None:
        os.makedirs(os.path.join(self.work, "configs"), exist_ok=True)
        write_json(self.config_path(name), obj)

    def job_seed(self, index: int) -> int:
        """Simulation seed of job ``index``: every job draws fresh traces."""
        return self.seed * 1000 + index

    def prepare(self) -> None:
        raise NotImplementedError

    def chain(self, job: Job) -> None:
        raise NotImplementedError

    def check(self, job: Job) -> None:
        raise NotImplementedError

    def finish(self, jobs: list[Job], ledger: Ledger) -> None:
        """Checks over all jobs of a run."""

    def reference(self) -> None:
        """A fixed kernel of the benchmark's own, doing the kind of work
        the workload spends its time on. It does not call spinread, so it
        gauges the host's speed and not the program's."""
        raise NotImplementedError

    def inputs(self) -> dict:
        return dict(self.size)


class ReadoutSweep(Workload):
    """simulate -> preprocess -> sweep (threshold, parity) -> sweep (hmm, three_state)."""

    name = "readout_sweep"
    DT = 10e-6
    T_READS = [20e-6, 30e-6, 50e-6, 80e-6, 120e-6, 170e-6, 250e-6, 340e-6,
               500e-6, 850e-6, 1.2e-3, 1.7e-3, 2.5e-3, 3.3e-3, 4e-3]

    def t_reads(self):
        horizon = self.size["n_samples"] * self.DT
        return [t for t in self.T_READS if t <= horizon + 1e-12]

    def prepare(self):
        hmm = hmm_block(FRACTIONS, self.DT)
        self.write_config("sim", {
            "hmm": hmm, "n_traces": self.size["n_traces"], "n_samples": self.size["n_samples"],
            "background_samples": self.size["background_samples"], "background_mean": 0.0,
            "drift_per_trace": 1e-4, "output": "raw",
        })
        self.write_config("pre", {"input": self.path("raw"), "window": 50, "output": "corrected"})
        for classifier, basis in (("threshold", "parity"), ("hmm", "three_state")):
            self.write_config(f"sweep_{classifier}", {
                "input": self.path("corrected"), "hmm": hmm, "classifier": classifier,
                "basis": basis, "t_read_s_list": self.t_reads(), "output": f"sweep_{classifier}",
            })

    def chain(self, job):
        job.cli(["simulate_s"], "simulate", ["simulate", "--config", self.config_path("sim"),
                                             "--seed", str(self.job_seed(job.index)), "--out", self.work])
        job.cli([], "preprocess", ["preprocess", "--config", self.config_path("pre"), "--out", self.work])
        for classifier in ("threshold", "hmm"):
            job.cli(["sweep_s", "analysis_s"], f"sweep_{classifier}",
                    ["sweep", "--config", self.config_path(f"sweep_{classifier}"), "--out", self.work])

    def check(self, job):
        n_points = len(self.t_reads())
        for classifier in ("threshold", "hmm"):
            key = f"sweep_{classifier}"
            if job.reports.get(key) is None:
                continue
            header, rows = read_csv(self.path(key + ".csv"))
            job.expect(key, len(rows) == n_points, f"{len(rows)} rows, expected {n_points}")
            col = {name: i for i, name in enumerate(header)}
            f_m = [float(r[col["F_m"]]) for r in rows]
            job.expect(key, all(0.0 < f <= 1.0 for f in f_m), f"F_m outside (0, 1]: {f_m}")
            n = {int(r[col["n"]]) for r in rows}
            job.expect(key, n == {self.size["n_traces"]}, f"n column {n}")
            if classifier == "hmm":
                # criterion 5: recall(T0) rises from the shortest window to 5/Gamma_T0
                t = [float(r[col["t_read_s"]]) for r in rows]
                recall = [float(r[col["recall_T0"]]) for r in rows]
                at_plateau = min(range(len(t)), key=lambda i: abs(t[i] - 5 * T1_T0))
                job.expect(key, recall[at_plateau] > recall[0],
                           f"recall(T0) {recall[0]} at {t[0]} s, {recall[at_plateau]} at {t[at_plateau]} s")

    def inputs(self):
        return {**self.size, "t_read_s": self.t_reads()}


class EmClassify(Workload):
    """simulate -> fit-hmm (to convergence) -> classify (hmm, whole trace)."""

    name = "em_classify"
    DT = 40e-6
    # criterion 6's initial guess: rates off by 1.5x / 0.5x, flat preparation
    INIT = {
        "pi": [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0],
        "rates_hz": {"gamma_t0": 1.5 / T1_T0, "gamma_tm": 0.5 / T1_TM, "tlf_up": 0.0, "tlf_down": 0.0},
        "dt_s": DT,
        "emissions": {"means": [-0.05, 1.05, 1.05, 1.05, -0.05, -0.05], "stds": [0.4] * 6},
    }
    LIFETIME_TOL = 0.10

    def prepare(self):
        hmm = hmm_block(FRACTIONS, self.DT)
        self.write_config("sim", {
            "hmm": hmm, "n_traces": self.size["n_traces"], "n_samples": self.size["n_samples"],
            "output": "traces",
        })
        self.write_config("fit", {"input": self.path("traces"), "init": self.INIT, "output": "fitted"})
        self.write_config("cls", {
            "input": self.path("traces"), "hmm": hmm, "classifier": "hmm", "basis": "three_state",
            "t_read_s": self.size["n_samples"] * self.DT, "output": "classified",
        })

    def chain(self, job):
        job.cli(["simulate_s"], "simulate_em", ["simulate", "--config", self.config_path("sim"),
                                                "--seed", str(self.job_seed(job.index)), "--out", self.work])
        job.cli(["fit_hmm_s", "analysis_s"], "fit_hmm", ["fit-hmm", "--config", self.config_path("fit"), "--out", self.work])
        job.cli(["classify_s", "analysis_s"], "classify", ["classify", "--config", self.config_path("cls"), "--out", self.work])

    def check(self, job):
        import spinread

        if job.reports.get("fit_hmm") is not None:
            with open(self.path("fitted.json")) as fh:
                fit = json.load(fh)
            lls = np.asarray(fit["log_likelihoods"])
            job.expect("fit_hmm", bool(np.all(np.diff(lls) >= -1e-9 * np.abs(lls[:-1]))),
                       f"log-likelihood not monotone: {lls.tolist()}")
            rates = fit["hmm"]["rates_hz"]
            # the lifetimes the simulated hidden paths realise: at this size
            # their counting error against T1 (~16 % for T0) exceeds the
            # 10 % bound, so EM is compared with them rather than with T1
            truth = spinread.HmmParams.from_dict(hmm_block(FRACTIONS, self.DT))
            _, paths = spinread.markov.simulate_batch(
                truth, self.size["n_traces"], self.size["n_samples"], self.job_seed(job.index),
                return_paths=True,
            )
            job.values["lifetime_ratio"] = (
                (1 / rates["gamma_t0"]) / realised_lifetime(paths, 1, self.DT),
                (1 / rates["gamma_tm"]) / realised_lifetime(paths, 2, self.DT),
            )
        report = job.reports.get("classify")
        if report is not None:
            n = report["results"]["n"]
            job.expect("classify", n == self.size["n_traces"], f"classify n = {n}")

    def finish(self, jobs, ledger):
        ratios = [j.values["lifetime_ratio"] for j in jobs if "lifetime_ratio" in j.values]
        if not ratios:
            return
        # pooled over the run's jobs: one fit's T0 estimate scatters about
        # 6 % around the realised value, with a tail past 30 % (about 30
        # T0 decays per bundle), while a bias shifts the median over jobs
        median = np.median(np.asarray(ratios), axis=0)
        for name, m in zip(("T0", "Tm"), median):
            if abs(m - 1.0) > self.LIFETIME_TOL:
                for j in jobs:
                    ledger.fail(j.op_id("fit_hmm"), f"{name} lifetime off by {m - 1:+.3f} (median over jobs)")


class HmmReadout(Workload):
    """The readout_sweep chain, then the em_classify chain, in one job.

    Both chains drive the markov layer, so one workload carries them and
    the run is long enough to be steady; the stage times (``sweep_s``,
    ``fit_hmm_s``, ``classify_s``) keep them apart in the traced run.
    """

    name = "hmm_readout"

    def __init__(self, seed: int, size: str, work: str):
        self.seed = seed
        self.work = work
        self.parts = [cls(seed, size, os.path.join(work, cls.name)) for cls in (ReadoutSweep, EmClassify)]

    def prepare(self):
        for part in self.parts:
            os.makedirs(part.work, exist_ok=True)
            part.prepare()
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        self.reference_input = (a / a.sum(axis=1, keepdims=True), rng.random((4000, 6)))

    def chain(self, job):
        for part in self.parts:
            part.chain(job)

    def check(self, job):
        for part in self.parts:
            part.check(job)

    def finish(self, jobs, ledger):
        for part in self.parts:
            part.finish(jobs, ledger)

    def reference(self):
        # a scaled forward recursion over a sweep-sized batch, step by step
        # like markov's, on fixed random matrices
        a, b = self.reference_input
        alpha = np.full(b.shape, 1 / 6)
        for _ in range(150):
            alpha = (alpha @ a) * b
            alpha /= alpha.sum(axis=1)[:, None]

    def inputs(self):
        return {part.name: part.inputs() for part in self.parts}


def realised_lifetime(paths: np.ndarray, spin: int, dt: float) -> float:
    """Lifetime of ``spin`` from the decays the hidden paths contain."""
    s = paths % 3
    occupied = s[:, :-1] == spin
    flips = np.count_nonzero(occupied & (s[:, 1:] == 0))
    return dt / -math.log1p(-flips / np.count_nonzero(occupied))


class AnalyticFit(Workload):
    """Analysis without HMM inference: analytic fidelity, the tunnel-rate
    optimum, physics fits, SNR tools and emitted plot data.

    ``fit-histogram`` and the ``ict`` model are left out: at the reference
    point with nominal inits they exit 4 on a fifth (histogram, either mode)
    and a fifteenth (ict) of seeds, and a workload must not fail.
    """

    name = "analytic_fit"
    DT = 10e-6
    T_HIST = 340e-6
    GAMMA_STAR = 1.1e9
    EV = 1.602176634e-19  # J
    # fit-physics: model -> (generating parameters, nominal init, indices checked)
    PHYSICS = {
        "lz": ([46.9e-9 * EV], [2 * 46.9e-9 * EV], (0,)),
        "thermometry": ([0.17, 0.090], [0.3, 0.05], (0, 1)),
        "rabi": ([0.35, 0.4e-6, 17e6, 0.3], [0.3, 0.3e-6, 15e6, 0.0], (0, 1, 2)),
    }
    # 5 rather than 3 sigma: six parameters are checked per seed, and the
    # unweighted thermometry fit of multiplicative noise reaches 3.6 sigma
    # within 60 seeds
    N_SIGMA = 5.0

    def density(self, mode, t):
        fr = (0.5, 0.0, 0.5) if mode == "two_state" else FRACTIONS
        return {
            "v_s": 0.0, "v_t": 1.0, "sigma0": math.sqrt(TAU_MIN / t), "t0": t,
            "t1_t0": T1_T0, "t1_tm": T1_TM, "p_s": fr[0], "p_t0": fr[1], "p_tm": fr[2],
        }

    def prepare(self):
        from spinread.fitting import get_model

        rng = np.random.default_rng([self.seed, 7])
        x = {
            "lz": np.geomspace(0.5, 300, 40) * self.EV,
            "thermometry": np.linspace(0.01, 0.4, 25),
            "rabi": np.linspace(0, 2.0e-6, 101),
        }
        for model, (truth, init, _) in self.PHYSICS.items():
            y = get_model(model)(x[model], np.asarray(truth))
            if model == "thermometry":
                y = y * (1 + 0.02 * rng.standard_normal(y.size))
            else:
                y = y + 0.01 * rng.standard_normal(y.size)
            write_csv(self.path(f"{model}.csv"), [x[model], y])
            self.write_config(f"fit_{model}", {
                "model": model, "input_csv": self.path(f"{model}.csv"), "init": init,
                "output": f"fit_{model}",
            })
        # two I/Q clusters 0.4 apart with per-axis std 0.05: SNR 8
        iq = np.vstack([rng.normal([0.0, 0.0], 0.05, (1000, 2)), rng.normal([0.4, 0.0], 0.05, (1000, 2))])
        write_csv(self.path("iq.csv"), [iq[:, 0], iq[:, 1]])
        self.write_config("snr_iq", {"mode": "iq", "input_csv": self.path("iq.csv"), "output": "snr_iq"})
        self.write_config("sim", {
            "hmm": hmm_block((0.5, 0.0, 0.5), self.DT), "n_traces": self.size["hist_traces"],
            "n_samples": self.size["hist_samples"], "output": "bundle",
        })
        self.write_config("emit_hist", {
            "family": "histogram", "input": self.path("bundle"), "t_read_s": self.T_HIST,
            "bins": 61, "two_state": self.density("two_state", self.T_HIST), "output": "histogram",
        })
        self.write_config("snr_scaling", {
            "mode": "scaling", "input": self.path("bundle"),
            "t_read_s_list": [20e-6, 40e-6, 80e-6, 160e-6, 340e-6], "output": "snr_scaling",
        })
        self.write_config("emit_cap", {
            "family": "capacitance", "alpha_drt": 0.17, "t_electron_k": 0.090, "f_rf_hz": 576e6,
            "output": "capacitance",
        })

    def chain(self, job):
        import spinread.analytic
        import spinread.physics
        from spinread.analytic import DensityParams
        from spinread.readout import ReadoutBasis

        for t in self.size["analytic_t_read_s"]:
            for mode in ("two_state", "three_state"):
                # looked up on the module at call time, where the tracer patches it
                job.call(["analytic_s", "analysis_s"], f"analytic_fidelity_{mode}_{t:g}",
                         lambda *a: spinread.analytic.analytic_fidelity(*a),
                         DensityParams(**self.density(mode, t)), t, mode, ReadoutBasis.PARITY)
        job.call(["analytic_s", "analysis_s"], "optimal_tunnel_rate",
                 lambda *a: spinread.physics.optimal_tunnel_rate(*a), 0.17, 0.090, 576e6, (0.05e9, 19e9))
        job.cli(["simulate_s"], "simulate", ["simulate", "--config", self.config_path("sim"),
                                             "--seed", str(self.seed), "--out", self.work])
        job.cli([], "emit_hist", ["emit", "--config", self.config_path("emit_hist"), "--out", self.work])
        for model in self.PHYSICS:
            job.cli(["fit_s", "analysis_s"], f"fit_{model}",
                    ["fit-physics", "--config", self.config_path(f"fit_{model}"), "--out", self.work])
        for mode in ("iq", "scaling"):
            job.cli([], f"snr_{mode}", ["snr", "--config", self.config_path(f"snr_{mode}"), "--out", self.work])
        job.cli([], "emit_cap", ["emit", "--config", self.config_path("emit_cap"), "--out", self.work])

    def reference(self):
        # quadrature over Python integrands, like the analytic layer
        from scipy.integrate import quad

        for k in range(60):
            quad(lambda x: math.exp(-x * x) * math.cos(k * x), -5.0, 5.0, limit=200, epsabs=1e-13)

    def check(self, job):
        for key, rep in job.values.items():
            if key.startswith("analytic_fidelity") and rep is not None:
                job.expect(key, 0.5 <= rep.f_m_star <= 1.0, f"F_m* = {rep.f_m_star}")
        key = f"analytic_fidelity_two_state_{self.T_HIST:g}"
        if job.values.get(key) is not None:
            # criterion 4a
            f_m = job.values[key].f_m_star
            job.expect(key, f_m >= 0.99, f"two-state F_m* at 340 us = {f_m}")
        gamma = job.values.get("optimal_tunnel_rate")
        if gamma is not None:
            job.expect("optimal_tunnel_rate", abs(gamma - self.GAMMA_STAR) <= 0.15 * self.GAMMA_STAR,
                       f"gamma* = {gamma}")
        for model, (truth, _, checked) in self.PHYSICS.items():
            key = f"fit_{model}"
            if job.reports.get(key) is None:
                continue
            with open(self.path(key + ".json")) as fh:
                fit = json.load(fh)
            for i in checked:
                f, s = fit["params"][i], fit["sigmas"][i]
                job.expect(key, abs(f - truth[i]) <= self.N_SIGMA * s,
                           f"{fit['param_names'][i]} = {f!r} +- {s!r}, generated with {truth[i]!r}")
        if job.reports.get("emit_hist") is not None:
            _, rows = read_csv(self.path("histogram.csv"))
            total = sum(int(r[1]) for r in rows)
            job.expect("emit_hist", len(rows) == 61 and total == self.size["hist_traces"],
                       f"{len(rows)} bins holding {total} traces")
        rep = job.reports.get("snr_iq")
        if rep is not None:
            snr = rep["results"]["snr"]
            job.expect("snr_iq", abs(snr - 8.0) <= 0.5, f"I/Q SNR = {snr}")
        rep = job.reports.get("snr_scaling")
        if rep is not None:
            job.expect("snr_scaling", rep["results"]["fitted"] is True, "white-noise law not fitted")
        if job.reports.get("emit_cap") is not None:
            _, rows = read_csv(self.path("capacitance.csv"))
            best = max(rows, key=lambda r: float(r[1]))
            job.expect("emit_cap", len(rows) == 512 and 0.9e9 < float(best[0]) < 1.5e9,
                       f"{len(rows)} rows, maximum at {best[0]} Hz")


WORKLOADS = {w.name: w for w in (HmmReadout, AnalyticFit)}
