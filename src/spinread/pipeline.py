"""Trace ingestion, persistence, preprocessing and noise diagnostics.

On-disk format: ``<name>.manifest.json`` (metadata, full-precision floats)
plus ``<name>.f64`` holding the sample matrix as little-endian float64,
row-major, one trace per row. The first ``background_samples`` columns of
each row are the pre-measurement background segment declared in the
manifest. CSV interchange writes the readout, one trace per row, under a
``dt,<value>`` header row.

Every text file goes through one function of each kind here:
:func:`_read_csv_columns` reads a numeric CSV (line 1 is a header only
when its first field is not a number), :func:`_write_csv` writes one and
:func:`_write_json` writes a JSON file, each through
:func:`_atomic_write_text`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .markov import TraceBatch
from .readout import _window_means

FORMAT_VERSION = 1


@dataclass
class BundleManifest:
    dt: float
    n_traces: int
    n_samples: int
    background_samples: int = 0
    v0: float = 1.0
    labels: list[int] | None = None
    corrected: bool = False
    version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.version != FORMAT_VERSION:
            raise ValueError(f"unsupported bundle format version {self.version!r}")
        for name, least in (("n_traces", 1), ("n_samples", 1), ("background_samples", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"manifest {name} must be an integer >= {least}, got {value!r}")
        dt, v0 = self.dt, self.v0
        if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0.0 < dt < math.inf:
            raise ValueError(f"manifest dt must be finite and > 0, got {dt!r}")
        if isinstance(v0, bool) or not isinstance(v0, numbers.Real) or not -math.inf < v0 < math.inf:
            raise ValueError(f"manifest v0 must be a finite real, got {v0!r}")


class TraceBundle:
    """File layout around one :class:`TraceBatch`, whose ``samples`` (the
    ``readout``) and ``backgrounds`` are views of the bundle's ``data``."""

    def __init__(self, manifest: BundleManifest, data: np.ndarray):
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        n_bg = manifest.background_samples
        expected = (manifest.n_traces, n_bg + manifest.n_samples)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} does not match manifest {expected}")
        self.manifest = manifest
        self.data = data
        self._batch = TraceBatch(
            dt=manifest.dt,
            samples=data[:, n_bg:],
            labels=manifest.labels,
            backgrounds=data[:, :n_bg] if n_bg > 0 else None,
        )

    @property
    def readout(self) -> np.ndarray:
        return self._batch.samples

    @property
    def backgrounds(self) -> np.ndarray | None:
        return self._batch.backgrounds

    @classmethod
    def from_batch(cls, batch: TraceBatch, v0: float = 1.0, corrected: bool = False) -> "TraceBundle":
        bg = batch.backgrounds
        n_bg = bg.shape[1] if bg is not None else 0
        data = np.hstack([bg, batch.samples]) if bg is not None else batch.samples
        labels = [int(v) for v in batch.labels] if batch.labels is not None else None
        manifest = BundleManifest(
            dt=batch.dt,
            n_traces=batch.n_traces,
            n_samples=batch.n_samples,
            background_samples=n_bg,
            v0=v0,
            labels=labels,
            corrected=corrected,
        )
        return cls(manifest, data)

    def to_batch(self) -> TraceBatch:
        """The bundle's batch; its arrays are views of ``data``, not copies."""
        return self._batch

    def save(self, prefix: str) -> tuple[str, str]:
        manifest_path = f"{prefix}.manifest.json"
        data_path = f"{prefix}.f64"
        _atomic_write_bytes(data_path, np.ascontiguousarray(self.data, dtype="<f8"))
        _write_json(manifest_path, vars(self.manifest))
        return manifest_path, data_path

    @classmethod
    def load(cls, prefix: str) -> "TraceBundle":
        # both files are read before either is checked, so a missing file
        # is reported as missing whatever the other one holds
        with open(f"{prefix}.manifest.json") as fh:
            text = fh.read()
        raw = np.fromfile(f"{prefix}.f64", dtype="<f8")
        manifest = BundleManifest(**json.loads(text))
        cols = manifest.background_samples + manifest.n_samples
        if raw.size != manifest.n_traces * cols:
            raise ValueError("data file size does not match manifest dimensions")
        return cls(manifest, raw.reshape(manifest.n_traces, cols))

    def to_csv(self, path: str) -> None:
        """Write the readout, one trace per row, under a ``dt,<value>`` header."""
        _write_csv(path, ["dt", repr(self.manifest.dt)], self.readout)

    @classmethod
    def from_csv(cls, path: str) -> "TraceBundle":
        header, data = _read_csv_columns(path, 1)
        if header is None or len(header) != 2 or header[0] != "dt":
            raise ValueError("CSV must start with a 'dt,<value>' header row")
        dt = float(header[1])
        manifest = BundleManifest(dt=dt, n_traces=data.shape[0], n_samples=data.shape[1])
        return cls(manifest, data)


def _atomic_write_bytes(path: str, payload) -> None:
    """Write a bytes-like ``payload`` (bytes or a contiguous array) to
    ``path`` through a temporary file ``<path>.tmp``, so readers never see
    a partial file. If the write or the rename fails, the temporary file
    is removed and the error raised."""
    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _atomic_write_text(path: str, payload: str) -> None:
    _atomic_write_bytes(path, payload.encode())


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows) -> str:
    """Write ``header`` and ``rows`` to ``path`` atomically, one line each:
    strings as they are, integers in decimal, other numbers as the repr of
    a float (full precision); returns ``path``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def _json_text(payload: dict) -> str:
    """``payload`` as JSON indented by two, ending in a newline; numpy
    scalars and arrays become numbers and lists."""
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def _json_default(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_json(path: str, payload: dict) -> str:
    """Write ``payload`` to ``path`` atomically as :func:`_json_text`; returns ``path``."""
    _atomic_write_text(path, _json_text(payload))
    return path


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_csv_columns(path: str, min_cols: int):
    """(header, rows): rows of finite numbers, all of one length, as a
    matrix. Only the first line may be a header, and only when its first
    field is not a number; header is its fields, else None."""
    header = None
    rows = []
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not a UTF-8 text CSV file (byte {exc.start}: {exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            if lineno == 1 and not _is_number(line.split(",", 1)[0]):
                header = line.split(",")
                continue
            raise ValueError(f"{path} line {lineno} is not numeric: {line!r}") from None
        if (rows and len(row) != len(rows[0])) or not all(map(math.isfinite, row)):
            raise ValueError(f"{path} line {lineno} is not a full row of finite numbers")
        rows.append(row)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] < min_cols:
        raise ValueError(f"{path} must have at least {min_cols} numeric columns")
    return header, data


def drift_correct(bundle: TraceBundle, window: int = 50) -> TraceBundle:
    """Subtract the running mean of past background segments from each trace.

    Trace k is corrected with the mean background of traces
    max(0, k - window) .. k - 1; the first trace, having no past, uses its
    own background. Causal by construction: corrected trace k never
    depends on traces with index >= k (other than itself at k = 0).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if bundle.manifest.background_samples < 1:
        raise ValueError("drift correction requires background segments")
    bg_means = bundle.backgrounds.mean(axis=1)
    n = bundle.manifest.n_traces
    cum = np.concatenate([[0.0], np.cumsum(bg_means)])
    k = np.arange(1, n)
    lo = np.maximum(0, k - window)
    correction = np.concatenate(([bg_means[0]], (cum[k] - cum[lo]) / (k - lo)))
    data = bundle.data - correction[:, None]
    return TraceBundle(replace(bundle.manifest, corrected=True), data)


def with_linear_drift(bundle: TraceBundle, step: float) -> TraceBundle:
    """Copy of the bundle with an offset of step * k added to trace k."""
    offsets = step * np.arange(bundle.manifest.n_traces)
    return TraceBundle(replace(bundle.manifest), bundle.data + offsets[:, None])


class IqBatch:
    """In-phase/quadrature voltage pairs, one row per shot."""

    def __init__(self, values: np.ndarray):
        values = np.ascontiguousarray(np.asarray(values, dtype=float))
        if values.ndim != 2 or values.shape[1] != 2 or values.shape[0] < 2:
            raise ValueError("IqBatch needs an (n, 2) matrix with n >= 2")
        if not np.all(np.isfinite(values)):
            raise ValueError("IqBatch values must be finite")
        self.values = values

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class IqProjection:
    projected: np.ndarray
    delta_v: float
    sigma: float
    snr: float
    means: np.ndarray
    weights: np.ndarray
    log_likelihood: float


# restarts whose log-likelihoods differ by less than this (relative) have
# reached one optimum, and the first of them is kept: 1000x EM's own stop
# tolerance, so rounding cannot pick among them
_RESTART_LL_RTOL = 1e-9


def iq_project(batch: IqBatch, seed: int = 0, n_restarts: int = 10) -> IqProjection:
    """Project I/Q data onto the axis joining two fitted cluster centres.

    A two-component Gaussian mixture with a shared isotropic covariance is
    fitted by EM (distance-weighted seeding, ``n_restarts`` restarts); the
    projection axis joins the two means. EM holds the points as one
    contiguous row per axis and every per-component quantity (squared
    distances, log-probabilities, responsibilities) as a (2, n) array, so
    each step runs over rows of n values. The kept restart is the first
    whose log-likelihood is within 1e-9 relative of the best, and the
    component order (``means``, ``weights`` and the sign of ``projected``)
    follows that restart's seeding. Returns signed projections about the
    midpoint, the mean separation, the pooled per-axis std and their ratio
    as SNR.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    x = batch.values
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    scale = float(np.std(x))
    if scale == 0.0:
        raise ValueError("degenerate batch: all points identical")
    xt = np.ascontiguousarray(x.T)

    def sq_dist(means):
        # (2, n): squared distance of every point to each mean
        return (xt[0] - means[:, :1]) ** 2 + (xt[1] - means[:, 1:]) ** 2

    fits = []
    for _ in range(n_restarts):
        m0 = x[rng.integers(n)]
        d2 = ((x - m0) ** 2).sum(axis=1)
        if d2.sum() == 0.0:
            raise ValueError("degenerate batch: all points identical")
        m1 = x[rng.choice(n, p=d2 / d2.sum())]
        means = np.vstack([m0, m1]).astype(float)
        weights = np.array([0.5, 0.5])
        var = float(np.var(x))
        ll_prev = -np.inf
        # the variance update's d is the next E-step's
        d = sq_dist(means)
        for _ in range(300):
            logp = np.log(weights)[:, None] - d / (2.0 * var) - math.log(2.0 * math.pi * var)
            m = np.maximum(logp[0], logp[1])
            p = np.exp(logp - m)
            norm = p[0] + p[1]
            resp = p / norm
            ll = float((np.log(norm) + m).sum())
            wsum = resp.sum(axis=1)
            weights = wsum / n
            means = (resp @ x) / wsum[:, None]
            d = sq_dist(means)
            var = float((resp * d).sum() / (2.0 * n))
            var = max(var, 1e-30 * scale**2)
            if abs(ll - ll_prev) < 1e-12 * max(abs(ll), 1.0):
                break
            ll_prev = ll
        fits.append((ll, means, weights, var))

    best = max(fits, key=lambda fit: fit[0])
    floor = best[0] - _RESTART_LL_RTOL * max(abs(best[0]), 1.0)
    # a NaN best leaves no restart above the floor, and is kept
    ll, means, weights, var = next((fit for fit in fits if fit[0] >= floor), best)
    sep = means[1] - means[0]
    delta_v = float(np.linalg.norm(sep))
    # a lone cluster split in two lands at sub-sigma separation
    if delta_v < math.sqrt(var):
        raise ValueError("mixture degeneracy: clusters are not resolved")
    axis = sep / delta_v
    midpoint = 0.5 * (means[0] + means[1])
    projected = (x - midpoint) @ axis
    sigma = math.sqrt(var)
    return IqProjection(
        projected=projected,
        delta_v=delta_v,
        sigma=sigma,
        snr=delta_v / sigma,
        means=means,
        weights=weights,
        log_likelihood=ll,
    )


def build_histogram(values, bins: int, range_: tuple[float, float] | None = None):
    """Uniform histogram; returns (bin_centers, counts).

    Bins are left-closed with the last bin right-closed, so counts always
    conserve the number of input values inside the range.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram an empty input")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    counts, edges = np.histogram(values, bins=bins, range=range_)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, counts


@dataclass
class NoiseScalingResult:
    t_read: np.ndarray
    inv_snr: np.ndarray
    fitted: bool
    slope: float = float("nan")
    intercept: float = float("nan")
    slope_sigma: float = float("nan")
    intercept_sigma: float = float("nan")
    n_fit_points: int = 0


def noise_scaling(bundle: TraceBundle, t_read_list, fit_fraction: float = 0.5) -> NoiseScalingResult:
    """Empirical 1/SNR against readout time, with a white-noise-law fit.

    Needs two-class labels. Per t_read the class separation of the window
    averages gives SNR = |m1 - m0| / pooled sigma. A straight line in
    1/sqrt(t_read) is fitted over the short-time region (the shortest
    ``fit_fraction`` of the points, at least two).
    """
    batch = bundle.to_batch()
    if batch.labels is None:
        raise ValueError("noise scaling requires labelled traces")
    labs = np.unique(batch.labels)
    if labs.size != 2:
        raise ValueError("noise scaling requires exactly two label classes")
    mask0 = batch.labels == labs[0]
    if mask0.sum() < 2 or (~mask0).sum() < 2:
        raise ValueError("need at least two traces per class")

    t_read_list = np.asarray(sorted(t_read_list), dtype=float)
    inv_snr = np.empty(t_read_list.size)
    for i, avgs in enumerate(_window_means(batch, t_read_list)):
        a, b = avgs[mask0], avgs[~mask0]
        delta = abs(b.mean() - a.mean())
        pooled = math.sqrt(
            ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1))
            / (a.size + b.size - 2)
        )
        inv_snr[i] = pooled / delta

    if t_read_list.size < 2:
        return NoiseScalingResult(t_read=t_read_list, inv_snr=inv_snr, fitted=False)

    n_fit = max(2, int(round(fit_fraction * t_read_list.size)))
    xs = 1.0 / np.sqrt(t_read_list[:n_fit])
    ys = inv_snr[:n_fit]
    if n_fit >= 3:
        coeffs, cov = np.polyfit(xs, ys, 1, cov=True)
        sig_slope = float(np.sqrt(cov[0, 0]))
        sig_icept = float(np.sqrt(cov[1, 1]))
    else:
        coeffs = np.polyfit(xs, ys, 1)
        sig_slope = sig_icept = float("nan")
    return NoiseScalingResult(
        t_read=t_read_list,
        inv_snr=inv_snr,
        fitted=True,
        slope=float(coeffs[0]),
        intercept=float(coeffs[1]),
        slope_sigma=sig_slope,
        intercept_sigma=sig_icept,
        n_fit_points=n_fit,
    )
