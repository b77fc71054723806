"""Closed-form sensor and device physics.

Capacitance of the dot-to-reservoir transition, reflectometry SNR,
resonator extraction from VNA quantities, Landau-Zener and damped-Rabi
transition models, Coulomb-peak thermometry and the interdot-transition
lineshape. All quantities in SI units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, HBAR, K_BOLTZMANN, PLANCK_H
from .fitting import PhysicsModel, register_model


@dataclass(frozen=True)
class SensorParams:
    """Single-electron-box operating point.

    alpha_drt : lever arm of the dot-to-reservoir transition, in [0, 1)
    t_electron: electron temperature (K)
    f_rf      : reflectometry drive frequency (Hz)
    gamma     : dot-reservoir tunnel rate (Hz)
    """

    alpha_drt: float
    t_electron: float
    f_rf: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_drt < 1.0:
            raise ValueError("alpha_drt must lie in [0, 1)")
        for name in ("t_electron", "f_rf", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class ResonatorParams:
    """LC readout resonator parameters.

    ``undercoupled`` records the sign branch taken when beta was derived
    from a reflection magnitude below one (beta itself is stored >= 0).
    """

    f0: float
    q_r: float
    q_int: float
    beta: float
    c_p: float
    c_c: float
    l: float
    r_c: float
    undercoupled: bool = True

    def __post_init__(self):
        for name in ("f0", "q_r", "q_int", "c_p", "c_c", "l", "r_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not self.beta >= 0.0:
            raise ValueError("beta must be >= 0")
        expected = (1.0 + self.beta) * self.q_r
        if abs(self.q_int - expected) > 1e-9 * expected:
            raise ValueError("q_int must equal (1 + beta) * q_r")


def delta_c_drt(p: SensorParams) -> float:
    """Capacitance change of the dot-to-reservoir transition (F).

    4(1-alpha)^2 e^2 / (3 kB Te) * [1 + (f_rf/gamma)^2]^-1
                                 * [1 + h*gamma/(kB Te)]^-1

    The two brackets compete in gamma: the first vanishes for slow
    tunnelling, the second for lifetime-broadened fast tunnelling.
    """
    kt = K_BOLTZMANN * p.t_electron
    prefactor = 4.0 * (1.0 - p.alpha_drt) ** 2 * E_CHARGE**2 / (3.0 * kt)
    drive = 1.0 / (1.0 + (p.f_rf / p.gamma) ** 2)
    broadening = 1.0 / (1.0 + PLANCK_H * p.gamma / kt)
    return prefactor * drive * broadening


def optimal_tunnel_rate(
    alpha_drt: float,
    t_electron: float,
    f_rf: float,
    search_range: tuple[float, float],
) -> float:
    """Tunnel rate maximising :func:`delta_c_drt`, checked against ``search_range``.

    Setting d(delta_c_drt)/d(gamma) = 0 gives gamma* = f_rf * u, where u
    is the one positive root of u^3 - u = 2 kB Te / (h f_rf) (Descartes'
    rule of signs); alpha_drt only scales the prefactor. The cubic is
    solved by its companion matrix and polished with one Newton step.
    Raises if gamma* is not strictly inside the range, which means the
    range does not contain the interior optimum.
    """
    lo, hi = search_range
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("search range must be finite and positive with lower < upper")
    SensorParams(alpha_drt, t_electron, f_rf, lo)  # validates the operating point

    c = 2.0 * K_BOLTZMANN * t_electron / (PLANCK_H * f_rf)
    u = float(np.roots([1.0, 0.0, -1.0, -c]).real.max())
    u -= (u**3 - u - c) / (3.0 * u**2 - 1.0)
    gamma = f_rf * u
    if not lo < gamma < hi:
        raise ValueError("capacitance maximum lies on the search boundary; widen the range")
    return gamma


def reflectometry_snr(
    r: ResonatorParams, delta_c: float, c_tot: float, eta: float, v_ratio: float
) -> float:
    """Voltage SNR of a reflectometry charge-sensing event.

    eta * 2 beta / (1 + beta)^2 * Q_int * (dC / C_tot) * (V_in / V_n);
    only the magnitude of the (imaginary) reflection change enters.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if not (delta_c > 0.0 and c_tot > 0.0):
        raise ValueError("capacitances must be > 0")
    coupling = 2.0 * r.beta / (1.0 + r.beta) ** 2
    return eta * coupling * r.q_int * (delta_c / c_tot) * v_ratio


def resonator_from_vna(
    f0: float, delta_f: float, gamma_v_at_f0: float, l: float, c_c: float
) -> ResonatorParams:
    """Resonator parameters from VNA observables.

    Q_r = f0/df, beta = |Gamma_V - 1| / (Gamma_V + 1), Q_int = (1+beta) Q_r,
    C_p = 1/(4 pi^2 f0^2 L) - C_c, R_C = Q_int sqrt(L / (C_c + C_p)).
    """
    if not (f0 > 0 and delta_f > 0 and l > 0 and c_c > 0):
        raise ValueError("f0, delta_f, l, c_c must be > 0")
    if not 0.0 <= gamma_v_at_f0 < 1.0:
        raise ValueError("gamma_v_at_f0 must lie in [0, 1)")
    q_r = f0 / delta_f
    beta_raw = (gamma_v_at_f0 - 1.0) / (gamma_v_at_f0 + 1.0)
    beta = abs(beta_raw)
    q_int = (1.0 + beta) * q_r
    c_p = 1.0 / (4.0 * math.pi**2 * f0**2 * l) - c_c
    if c_p <= 0.0:
        raise ValueError("computed parasitic capacitance is non-positive")
    r_c = q_int * math.sqrt(l / (c_c + c_p))
    return ResonatorParams(
        f0=f0, q_r=q_r, q_int=q_int, beta=beta, c_p=c_p, c_c=c_c, l=l, r_c=r_c,
        undercoupled=beta_raw < 0.0,
    )


def lz_probability(delta, velocity):
    """Diabatic transition probability exp(-2 pi Delta^2 / (hbar v))."""
    delta = np.asarray(delta, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    if not np.all(delta >= 0):
        raise ValueError("delta must be >= 0")
    if not np.all(velocity > 0):
        raise ValueError("velocity must be > 0")
    out = np.exp(-2.0 * math.pi * delta**2 / (HBAR * velocity))
    return float(out) if out.ndim == 0 else out


def coulomb_fwhm(alpha, t_mxc, t_e):
    """Thermally broadened Coulomb-peak FWHM in gate volts.

    3.53 kB / (e alpha) * sqrt(T_mxc^2 + T_e^2)
    """
    alpha = np.asarray(alpha, dtype=float)
    t_mxc = np.asarray(t_mxc, dtype=float)
    t_e = np.asarray(t_e, dtype=float)
    if not np.all(alpha > 0):
        raise ValueError("alpha must be > 0")
    if not (np.all(t_mxc >= 0) and np.all(t_e >= 0)):
        raise ValueError("temperatures must be >= 0")
    out = 3.53 * K_BOLTZMANN / (E_CHARGE * alpha) * np.sqrt(t_mxc**2 + t_e**2)
    return float(out) if out.ndim == 0 else out


def ict_lineshape(epsilon, t_c, t_e):
    """Excess charge fraction across the interdot transition.

    0.5 [1 - eps/Omega * tanh(Omega / (2 kB Te))], Omega = sqrt(eps^2 + 4 tc^2).
    """
    epsilon = np.asarray(epsilon, dtype=float)
    if not (t_c > 0 and t_e > 0):
        raise ValueError("t_c and t_e must be > 0")
    omega = np.sqrt(epsilon**2 + 4.0 * t_c**2)
    out = 0.5 * (1.0 - epsilon / omega * np.tanh(omega / (2.0 * K_BOLTZMANN * t_e)))
    return float(out) if out.ndim == 0 else out


def damped_rabi(t, amplitude, t2_star, f_rabi, phase, angular: bool = False):
    """Exponentially damped sine A exp(-t/T2*) sin(f t + phi).

    The frequency enters the argument literally by default; set
    ``angular=True`` to use 2 pi f t instead. Fits are self-consistent
    under either convention.
    """
    if not t2_star > 0:
        raise ValueError("t2_star must be > 0")
    t = np.asarray(t, dtype=float)
    omega = 2.0 * math.pi * f_rabi if angular else f_rabi
    out = amplitude * np.exp(-t / t2_star) * np.sin(omega * t + phase)
    return float(out) if out.ndim == 0 else out


def min_integration_time(snr: float, t_read: float) -> float:
    """Integration time at which the power SNR reaches one: t_read / SNR^2."""
    if not snr > 0:
        raise ValueError("snr must be > 0")
    if not t_read > 0:
        raise ValueError("t_read must be > 0")
    return t_read / snr**2


def tunnel_rate_from_gate(v_gate, gamma0: float, v_scale: float):
    """Exponential barrier-gate modulation gamma0 * exp(V / V_scale).

    Both constants are device calibration inputs.
    """
    if not (gamma0 > 0 and abs(v_scale) > 0):
        raise ValueError("gamma0 must be > 0 and v_scale nonzero")
    out = gamma0 * np.exp(np.asarray(v_gate, dtype=float) / v_scale)
    return float(out) if out.ndim == 0 else out


# --- registered fit models -------------------------------------------------

register_model(PhysicsModel(
    model_id="lz",
    param_names=("delta",),
    param_units=("J",),
    bounds=((1e-32, 1e-22),),
    fn=lambda x, p: lz_probability(p[0], x),
))

register_model(PhysicsModel(
    model_id="thermometry",
    param_names=("alpha", "t_e"),
    param_units=("1", "K"),
    bounds=((1e-4, 1.0), (1e-6, 10.0)),
    fn=lambda x, p: coulomb_fwhm(p[0], x, p[1]),
))

register_model(PhysicsModel(
    model_id="ict",
    param_names=("t_c", "t_e"),
    param_units=("J", "K"),
    bounds=((1e-30, 1e-20), (1e-6, 10.0)),
    fn=lambda x, p: ict_lineshape(x, p[0], p[1]),
))

register_model(PhysicsModel(
    model_id="rabi",
    param_names=("amplitude", "t2_star", "f_rabi", "phase"),
    param_units=("1", "s", "Hz", "rad"),
    bounds=((1e-6, 1e3), (1e-12, 1.0), (1e3, 1e12), (-math.pi, math.pi)),
    fn=lambda x, p: damped_rabi(x, p[0], p[1], p[2], p[3]),
))

# capacitance-vs-tunnel-rate curve; the physical prefactor is degenerate
# with any signal calibration, so it is fitted as one scale parameter
register_model(PhysicsModel(
    model_id="delta_c",
    param_names=("scale", "f_rf", "t_e"),
    param_units=("F", "Hz", "K"),
    bounds=((1e-30, 1e-6), (1e6, 1e11), (1e-4, 10.0)),
    fn=lambda x, p: p[0]
    / (1.0 + (p[1] / x) ** 2)
    / (1.0 + PLANCK_H * x / (K_BOLTZMANN * p[2])),
))
