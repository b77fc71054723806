"""Command-line front end for reproducible experiment runs.

Every subcommand reads a JSON config (``--config``, with ``--set``
overrides), writes its outputs atomically under ``--out``, and prints a
RunReport as JSON on stdout. Randomized commands require an explicit
seed. Exit codes: 0 success, 2 config error, 3 missing input, 4
numerical non-convergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analytic import DensityParams, combined_density, fit_histogram
from .fitting import fit_model, get_model
from .markov import HmmParams, ZeroLikelihoodError, simulate_batch, em_fit
from .physics import SensorParams, delta_c_drt
from .pipeline import (
    IqBatch,
    TraceBundle,
    _atomic_write_text,
    build_histogram,
    drift_correct,
    iq_project,
    noise_scaling,
    with_linear_drift,
)
from .readout import ReadoutBasis, fidelity_sweep, window_average_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NON_CONVERGENCE = 4

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class MissingInputError(Exception):
    pass


class NonConvergenceError(Exception):
    def __init__(self, message, report, outputs):
        super().__init__(message)
        self.report = report
        self.outputs = outputs


# key -> (python type(s), required, default); unknown keys are rejected
_SCHEMAS = {
    "simulate": {
        "hmm": (dict, True, None),
        "n_traces": (int, True, None),
        "n_samples": (int, True, None),
        "seed": (int, False, None),
        "background_samples": (int, False, 0),
        "background_mean": ((int, float), False, 0.0),
        "drift_per_trace": ((int, float), False, 0.0),
        "v0": ((int, float), False, 1.0),
        "output": (str, False, "bundle"),
    },
    "preprocess": {
        "input": (str, True, None),
        "window": (int, False, 50),
        "output": (str, False, "corrected"),
    },
    "classify": {
        "input": (str, True, None),
        "hmm": (dict, True, None),
        "classifier": (str, True, None),
        "basis": (str, True, None),
        "t_read_s": ((int, float), True, None),
        "output": (str, False, "metrics"),
    },
    "sweep": {
        "input": (str, True, None),
        "hmm": (dict, True, None),
        "classifier": (str, True, None),
        "basis": (str, True, None),
        "t_read_s_list": (list, True, None),
        "output": (str, False, "sweep"),
    },
    "fit-hmm": {
        "input": (str, True, None),
        "init": (dict, True, None),
        "tie_emissions": (bool, False, True),
        "freeze_tlf_rates": (bool, False, False),
        "freeze_emissions": (bool, False, False),
        "tol": ((int, float), False, 1e-7),
        "max_iter": (int, False, 500),
        "output": (str, False, "fitted_hmm"),
    },
    "fit-histogram": {
        "input_csv": (str, True, None),
        "t_s": ((int, float), True, None),
        "mode": (str, True, None),
        "init": (dict, True, None),
        "output": (str, False, "histogram_fit"),
    },
    "fit-physics": {
        "model": (str, True, None),
        "input_csv": (str, True, None),
        "init": (list, True, None),
        "output": (str, False, "physics_fit"),
    },
    "snr": {
        "mode": (str, True, None),
        "input_csv": (str, False, None),
        "input": (str, False, None),
        "t_read_s_list": (list, False, None),
        "output": (str, False, "snr"),
    },
    "emit": {
        "family": (str, True, None),
        "alpha_drt": ((int, float), False, None),
        "t_electron_k": ((int, float), False, None),
        "f_rf_hz": ((int, float), False, None),
        "gamma_min_hz": ((int, float), False, 0.05e9),
        "gamma_max_hz": ((int, float), False, 19e9),
        "n_points": (int, False, 512),
        "input": (str, False, None),
        "t_read_s": ((int, float), False, None),
        "bins": (int, False, 101),
        "two_state": (dict, False, None),
        "three_state": (dict, False, None),
        "output": (str, False, "plotdata"),
    },
}


def _validate_config(command: str, config: dict) -> dict:
    schema = _SCHEMAS[command]
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    out = {}
    for key, (types, required, default) in schema.items():
        if key in config:
            value = config[key]
            if isinstance(value, bool) and not (types is bool or types == bool):
                raise ConfigError(f"config key {key!r} has wrong type")
            if not isinstance(value, types):
                raise ConfigError(f"config key {key!r} must be of type {types}")
            out[key] = value
        elif required:
            raise ConfigError(f"missing required config key {key!r} for {command}")
        else:
            out[key] = default
    return out


def _set_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} collides with a non-object value")
    node[parts[-1]] = value


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise MissingInputError(path)
    return path


def _require_bundle(prefix: str) -> TraceBundle:
    _require_file(prefix + ".manifest.json")
    _require_file(prefix + ".f64")
    try:
        return TraceBundle.load(prefix)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid trace bundle {prefix!r}: {exc}") from exc


def _hmm_from_config(obj: dict) -> HmmParams:
    try:
        return HmmParams.from_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hmm parameter block: {exc}") from exc


def _density_from_config(obj: dict) -> DensityParams:
    try:
        return DensityParams(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid density parameter block: {exc}") from exc


def _basis_from_config(name: str) -> ReadoutBasis:
    try:
        return ReadoutBasis(name)
    except ValueError:
        raise ConfigError(f"unknown basis {name!r}") from None


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv_columns(path: str, min_cols: int) -> np.ndarray:
    """Rows of finite numbers, all of one length; only the first line may be a header."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ConfigError(f"{path} line {lineno} is not numeric: {line!r}") from None
            if (rows and len(row) != len(rows[0])) or not all(map(math.isfinite, row)):
                raise ConfigError(f"{path} line {lineno} is not a full row of finite numbers")
            rows.append(row)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] < min_cols:
        raise ConfigError(f"{path} must have at least {min_cols} numeric columns")
    return data


def _metric_rows(reports, classifier: str, basis: ReadoutBasis) -> list[list]:
    rows = []
    for rep in reports:
        rec = rep.recall_per_state
        if basis is ReadoutBasis.THREE_STATE:
            r_s, r_t0, r_tm = rec["S"], rec["T0"], rec["Tm"]
        elif basis is ReadoutBasis.PARITY:
            r_s, r_t0, r_tm = rec["odd"], rec["odd"], rec["even"]
        else:
            r_s, r_t0, r_tm = rec["singlet"], rec["triplet"], rec["triplet"]
        rows.append(
            [rep.t_read, classifier, basis.value, rep.f_m, rep.v_m, r_s, r_t0, r_tm, rep.n_traces]
        )
    return rows


_SWEEP_HEADER = [
    "t_read_s", "classifier", "basis", "F_m", "V_m",
    "recall_S", "recall_T0", "recall_Tm", "n",
]


def _cmd_simulate(config, seed, out_dir):
    if seed is None:
        raise ConfigError("simulate requires an explicit seed (--seed or config)")
    params = _hmm_from_config(config["hmm"])
    batch = simulate_batch(params, config["n_traces"], config["n_samples"], seed)
    n_bg = config["background_samples"]
    if n_bg > 0:
        std = float(np.mean(params.emissions.stds))
        bg = np.empty((batch.n_traces, n_bg))
        for k in range(batch.n_traces):
            rng = np.random.default_rng((int(seed), k, 1))
            bg[k] = config["background_mean"] + std * rng.standard_normal(n_bg)
        batch.backgrounds = bg
    bundle = TraceBundle.from_batch(batch, v0=config["v0"])
    if config["drift_per_trace"] != 0.0:
        bundle = with_linear_drift(bundle, config["drift_per_trace"])
    prefix = os.path.join(out_dir, config["output"])
    outputs = list(bundle.save(prefix))
    results = {
        "n_traces": batch.n_traces,
        "n_samples": batch.n_samples,
        "label_counts": {
            str(lab): int((batch.labels == lab).sum()) for lab in np.unique(batch.labels)
        },
    }
    return results, outputs


def _cmd_preprocess(config, seed, out_dir):
    bundle = _require_bundle(config["input"])
    try:
        corrected = drift_correct(bundle, window=config["window"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    prefix = os.path.join(out_dir, config["output"])
    outputs = list(corrected.save(prefix))
    return {"window": config["window"], "corrected": True}, outputs


def _sweep_common(config, t_read_values):
    bundle = _require_bundle(config["input"])
    params = _hmm_from_config(config["hmm"])
    basis = _basis_from_config(config["basis"])
    classifier = config["classifier"]
    if classifier not in ("threshold", "hmm"):
        raise ConfigError("classifier must be 'threshold' or 'hmm'")
    batch = bundle.to_batch()
    if batch.labels is None:
        raise ConfigError("input bundle carries no ground-truth labels")
    try:
        reports = fidelity_sweep(params, batch, t_read_values, classifier, basis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return reports, classifier, basis


def _cmd_classify(config, seed, out_dir):
    reports, classifier, basis = _sweep_common(config, [config["t_read_s"]])
    rows = _metric_rows(reports, classifier, basis)
    csv_path = os.path.join(out_dir, config["output"] + ".csv")
    _write_csv(csv_path, _SWEEP_HEADER, rows)
    rep = reports[0]
    results = {
        "f_m": rep.f_m,
        "v_m": rep.v_m,
        "recall": rep.recall_per_state,
        "fidelity_per_state": rep.fidelity_per_state,
        "n": rep.n_traces,
        "ties": rep.n_ties,
    }
    return results, [csv_path]


def _cmd_sweep(config, seed, out_dir):
    t_reads = [float(t) for t in config["t_read_s_list"]]
    reports, classifier, basis = _sweep_common(config, t_reads)
    rows = _metric_rows(reports, classifier, basis)
    csv_path = os.path.join(out_dir, config["output"] + ".csv")
    _write_csv(csv_path, _SWEEP_HEADER, rows)
    results = {
        "n_points": len(rows),
        "f_m": [r.f_m for r in reports],
        "ties": [r.n_ties for r in reports],
    }
    return results, [csv_path]


def _cmd_fit_hmm(config, seed, out_dir):
    bundle = _require_bundle(config["input"])
    init = _hmm_from_config(config["init"])
    batch = bundle.to_batch()
    fit = em_fit(
        batch,
        init,
        tie_emissions=config["tie_emissions"],
        freeze_tlf_rates=config["freeze_tlf_rates"],
        freeze_emissions=config["freeze_emissions"],
        tol=float(config["tol"]),
        max_iter=config["max_iter"],
    )
    payload = {
        "hmm": fit.params.to_dict(),
        "converged": fit.converged,
        "n_iterations": fit.n_iterations,
        "log_likelihoods": [float(v) for v in fit.log_likelihoods],
        "final_log_likelihood": fit.final_log_likelihood,
        "variance_floored": fit.variance_floored,
    }
    path = os.path.join(out_dir, config["output"] + ".json")
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    results = {"converged": fit.converged, "n_iterations": fit.n_iterations}
    if not fit.converged:
        raise NonConvergenceError("EM did not converge", results, [path])
    return results, [path]


def _cmd_fit_histogram(config, seed, out_dir):
    data = _read_csv_columns(_require_file(config["input_csv"]), 2)
    init = _density_from_config(config["init"])
    try:
        params, fit = fit_histogram(data[:, 0], data[:, 1], float(config["t_s"]), config["mode"], init)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "density": {
            "v_s": params.v_s, "v_t": params.v_t,
            "sigma0": params.sigma0, "t0": params.t0,
            "t1_t0": params.t1_t0, "t1_tm": params.t1_tm,
            "t1_t0_us": params.t1_t0 / 1e-6, "t1_tm_us": params.t1_tm / 1e-6,
            "p_s": params.p_s, "p_t0": params.p_t0, "p_tm": params.p_tm,
        },
        "fit": {
            "params": [float(v) for v in fit.params],
            "sigmas": [float(v) for v in fit.sigmas],
            "residual_norm": fit.residual_norm,
            "n_iterations": fit.n_iterations,
            "converged": fit.converged,
            "status": fit.status,
        },
    }
    path = os.path.join(out_dir, config["output"] + ".json")
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    results = {"converged": fit.converged, "residual_norm": fit.residual_norm}
    if not fit.converged:
        raise NonConvergenceError("histogram fit did not converge", results, [path])
    return results, [path]


def _cmd_fit_physics(config, seed, out_dir):
    try:
        model = get_model(config["model"])
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    data = _read_csv_columns(_require_file(config["input_csv"]), 2)
    weights = data[:, 2] if data.shape[1] >= 3 else None
    try:
        fit = fit_model(model, data[:, 0], data[:, 1], init=config["init"], weights=weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "model": model.model_id,
        "param_names": list(model.param_names),
        "params": [float(v) for v in fit.params],
        "sigmas": [float(v) for v in fit.sigmas],
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "status": fit.status,
    }
    path = os.path.join(out_dir, config["output"] + ".json")
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    results = {"converged": fit.converged, "residual_norm": fit.residual_norm}
    if not fit.converged:
        raise NonConvergenceError("physics fit did not converge", results, [path])
    return results, [path]


def _cmd_snr(config, seed, out_dir):
    mode = config["mode"]
    if mode == "iq":
        if not config["input_csv"]:
            raise ConfigError("snr mode 'iq' requires input_csv")
        data = _read_csv_columns(_require_file(config["input_csv"]), 2)
        try:
            proj = iq_project(IqBatch(data[:, :2]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        payload = {
            "delta_v": proj.delta_v,
            "sigma": proj.sigma,
            "snr": proj.snr,
            "means": [[float(v) for v in m] for m in proj.means],
            "weights": [float(w) for w in proj.weights],
        }
        path = os.path.join(out_dir, config["output"] + ".json")
        _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
        return {"snr": proj.snr}, [path]
    if mode == "scaling":
        if not config["input"] or not config["t_read_s_list"]:
            raise ConfigError("snr mode 'scaling' requires input and t_read_s_list")
        bundle = _require_bundle(config["input"])
        try:
            res = noise_scaling(bundle, [float(t) for t in config["t_read_s_list"]])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        csv_path = os.path.join(out_dir, config["output"] + ".csv")
        _write_csv(
            csv_path,
            ["t_read_s", "inv_snr"],
            [[t, v] for t, v in zip(res.t_read, res.inv_snr)],
        )
        results = {
            "fitted": res.fitted,
            "slope": res.slope,
            "intercept": res.intercept,
            "slope_sigma": res.slope_sigma,
            "intercept_sigma": res.intercept_sigma,
        }
        return results, [csv_path]
    raise ConfigError("snr mode must be 'iq' or 'scaling'")


def _cmd_emit(config, seed, out_dir):
    family = config["family"]
    if family == "capacitance":
        for key in ("alpha_drt", "t_electron_k", "f_rf_hz"):
            if config[key] is None:
                raise ConfigError(f"capacitance family requires {key}")
        gammas = np.geomspace(config["gamma_min_hz"], config["gamma_max_hz"], config["n_points"])
        rows = [
            [g, delta_c_drt(SensorParams(config["alpha_drt"], config["t_electron_k"], config["f_rf_hz"], g))]
            for g in gammas
        ]
        path = os.path.join(out_dir, config["output"] + ".csv")
        _write_csv(path, ["gamma_hz", "delta_c_f"], rows)
        return {"n_points": len(rows)}, [path]
    if family == "histogram":
        if config["input"] is None or config["t_read_s"] is None:
            raise ConfigError("histogram family requires input and t_read_s")
        bundle = _require_bundle(config["input"])
        try:
            avgs = window_average_batch(bundle.to_batch(), config["t_read_s"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        centers, counts = build_histogram(avgs, config["bins"])
        width = centers[1] - centers[0]
        total = counts.sum()
        cols_two = np.full(centers.size, np.nan)
        cols_three = np.full(centers.size, np.nan)
        if config["two_state"]:
            p2 = _density_from_config(config["two_state"])
            cols_two = combined_density(centers, config["t_read_s"], p2, "two_state") * total * width
        if config["three_state"]:
            p3 = _density_from_config(config["three_state"])
            cols_three = combined_density(centers, config["t_read_s"], p3, "three_state") * total * width
        rows = [
            [c, int(n), d2, d3]
            for c, n, d2, d3 in zip(centers, counts, cols_two, cols_three)
        ]
        path = os.path.join(out_dir, config["output"] + ".csv")
        _write_csv(path, ["bin_center", "count", "density_two_state", "density_three_state"], rows)
        return {"bins": int(centers.size)}, [path]
    raise ConfigError("emit family must be 'capacitance' or 'histogram'")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "preprocess": _cmd_preprocess,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "fit-hmm": _cmd_fit_hmm,
    "fit-histogram": _cmd_fit_histogram,
    "fit-physics": _cmd_fit_physics,
    "snr": _cmd_snr,
    "emit": _cmd_emit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinread",
        description="Spin-readout simulation, classification and fitting runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value)")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized commands")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    report = {
        "command": args.command,
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "seed": args.seed,
        "config": None,
        "results": {},
        "outputs": [],
    }
    try:
        raw_config = {}
        if args.config:
            if not os.path.exists(args.config):
                raise MissingInputError(args.config)
            with open(args.config) as fh:
                try:
                    raw_config = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(raw_config, dict):
                raise ConfigError("config must be a JSON object")
        for assignment in args.set:
            _set_override(raw_config, assignment)
        seed = args.seed if args.seed is not None else raw_config.pop("seed", None)
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
            raise ConfigError("seed must be a non-negative integer")
        config = _validate_config(args.command, raw_config)
        report["seed"] = seed
        report["config"] = config
        os.makedirs(args.out, exist_ok=True)
        results, outputs = _COMMANDS[args.command](config, seed, args.out)
        report["results"] = results
        report["outputs"] = outputs
        code = EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except NonConvergenceError as exc:
        report["results"] = exc.report
        report["outputs"] = exc.outputs
        report["error"] = str(exc)
        code = EXIT_NON_CONVERGENCE
    except ZeroLikelihoodError as exc:
        report["error"] = str(exc)
        code = EXIT_NON_CONVERGENCE
    report["wall_clock_s"] = time.monotonic() - started
    print(json.dumps(report, indent=2, default=_json_default))
    return code


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


if __name__ == "__main__":
    sys.exit(main())
