import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinread.constants import E_CHARGE, HBAR, K_BOLTZMANN, PLANCK_H
from spinread.physics import (
    ResonatorParams,
    SensorParams,
    tunnel_rate_from_gate,
    coulomb_fwhm,
    damped_rabi,
    delta_c_drt,
    ict_lineshape,
    lz_probability,
    min_integration_time,
    optimal_tunnel_rate,
    reflectometry_snr,
    resonator_from_vna,
)

REF_ALPHA = 0.17
REF_TE = 0.090
REF_FRF = 576e6
# frozen from the dense-grid oracle below and from kB*Te/h at 90 mK
GAMMA_STAR_EXPECTED = 1.178e9
THERMAL_RATE_90MK = 1.8752957e9


def _reference_sensor(gamma):
    return SensorParams(REF_ALPHA, REF_TE, REF_FRF, gamma)


class TestDeltaC:
    def test_slow_tunnelling_limit_vanishes(self):
        peak = delta_c_drt(_reference_sensor(1.1e9))
        assert delta_c_drt(_reference_sensor(1e3)) < 1e-9 * peak

    def test_fast_tunnelling_limit_vanishes(self):
        peak = delta_c_drt(_reference_sensor(1.1e9))
        assert delta_c_drt(_reference_sensor(1e16)) < 1e-5 * peak

    def test_grid_argmax_matches_reported_optimum(self):
        # independent oracle: dense grid over the 0.05-19 GHz sweep range
        grid = np.geomspace(0.05e9, 19e9, 4001)
        values = np.array([delta_c_drt(_reference_sensor(g)) for g in grid])
        gamma_grid = grid[np.argmax(values)]
        assert abs(gamma_grid - GAMMA_STAR_EXPECTED) < 0.01e9
        assert abs(gamma_grid - 1.1e9) <= 0.15 * 1.1e9

    @given(
        alpha=st.floats(0.0, 0.9),
        t_e=st.floats(0.01, 1.0),
        f_rf=st.floats(1e8, 2e9),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_interior_maximum(self, alpha, t_e, f_rf):
        grid = np.geomspace(1e6, 1e13, 800)
        values = np.array([delta_c_drt(SensorParams(alpha, t_e, f_rf, g)) for g in grid])
        rising = np.diff(values) > 0
        # one contiguous rising block followed by one falling block
        assert np.sum(np.diff(rising.astype(int)) != 0) == 1
        assert rising[0] and not rising[-1]

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            SensorParams(1.0, 0.09, 576e6, 1e9)
        with pytest.raises(ValueError):
            SensorParams(0.17, -0.09, 576e6, 1e9)
        with pytest.raises(ValueError):
            SensorParams(0.17, 0.09, 0.0, 1e9)

    @pytest.mark.parametrize("field", ["alpha_drt", "t_electron", "f_rf", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_raise(self, field, bad):
        values = dict(alpha_drt=REF_ALPHA, t_electron=REF_TE, f_rf=REF_FRF, gamma=1e9)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            SensorParams(**values)
        if field != "gamma":
            values.pop("gamma")
            with pytest.raises(ValueError, match=field):
                optimal_tunnel_rate(**values, search_range=(0.05e9, 19e9))


class TestOptimalTunnelRate:
    def test_sweet_spot_ordering(self):
        gamma = optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 19e9))
        assert REF_FRF < gamma < K_BOLTZMANN * REF_TE / PLANCK_H
        assert abs(K_BOLTZMANN * REF_TE / PLANCK_H - THERMAL_RATE_90MK) < 1e3

    def test_matches_grid_oracle(self):
        gamma = optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 19e9))
        assert abs(gamma - GAMMA_STAR_EXPECTED) <= 0.15 * GAMMA_STAR_EXPECTED / 10
        assert abs(gamma - 1.15e9) <= 0.15 * 1.15e9

    def test_hotter_electrons_shift_optimum_up(self):
        base = optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 1e12))
        prev = base
        for factor in (10.0, 100.0):
            hot = optimal_tunnel_rate(REF_ALPHA, REF_TE * factor, REF_FRF, (0.05e9, 1e12))
            assert hot > prev
            prev = hot

    def test_boundary_maximum_raises(self):
        with pytest.raises(ValueError, match="boundary"):
            optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (5e9, 19e9))

    def test_range_ending_just_above_optimum(self):
        # gamma* = 1.1781 GHz lies inside the range, 0.16 % below its end
        gamma = optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 1.18e9))
        assert abs(gamma - GAMMA_STAR_EXPECTED) < 1e-3 * GAMMA_STAR_EXPECTED
        with pytest.raises(ValueError, match="boundary"):
            optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 1.17e9))

    @pytest.mark.parametrize("t_e", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("f_rf", [1e7, 1e8, 1e9, 1e10])
    def test_stationary_point_oracle(self, t_e, f_rf):
        gamma = optimal_tunnel_rate(REF_ALPHA, t_e, f_rf, (1e-2 * f_rf, 1e3 * f_rf))
        # d(delta_c)/d(gamma) = 0 reads u^3 - u = c with u = gamma / f_rf
        u = gamma / f_rf
        c = 2.0 * K_BOLTZMANN * t_e / (PLANCK_H * f_rf)
        assert abs(u**3 - u - c) <= 16 * np.finfo(float).eps * u**3

        def value(g):
            return delta_c_drt(SensorParams(REF_ALPHA, t_e, f_rf, g))

        best = value(gamma)
        assert best >= value(gamma * (1 + 1e-6)) and best >= value(gamma * (1 - 1e-6))
        grid = np.geomspace(1e-2 * f_rf, 1e3 * f_rf, 4000)
        assert best >= max(value(g) for g in grid)

    @pytest.mark.parametrize("search_range", [
        (0.05e9, math.inf), (0.05e9, math.nan), (math.nan, 19e9), (-math.inf, 19e9),
    ])
    def test_non_finite_range_raises(self, search_range):
        with pytest.raises(ValueError, match="search range"):
            optimal_tunnel_rate(REF_ALPHA, REF_TE, REF_FRF, search_range)

    @pytest.mark.parametrize("args, expected", [
        ((REF_ALPHA, REF_TE, REF_FRF, (0.05e9, 19e9)), 1178129602.5044668),
        ((0.3, 0.2, 300e6, (0.05e9, 1e12)), 941611590.1615512),
        ((0.05, 0.05, 1e9, (1e7, 1e11)), 1535305850.3762257),
    ])
    def test_golden_values_bit_identical(self, args, expected):
        # recorded from the closed-form cubic root, which puts delta_c_drt
        # no lower than the earlier numerical search did (CHANGES.md)
        assert optimal_tunnel_rate(*args) == expected


class TestReflectometrySnr:
    def _resonator(self, beta=0.42, q_r=74.8):
        return ResonatorParams(
            f0=578.6e6, q_r=q_r, q_int=(1 + beta) * q_r, beta=beta,
            c_p=0.56e-12, c_c=0.2e-12, l=88.7e-9, r_c=38.6e3,
        )

    def test_zero_eta_gives_zero(self):
        assert reflectometry_snr(self._resonator(), 1e-15, 1e-12, 0.0, 100.0) == 0.0

    def test_critical_coupling_maximises_prefactor(self):
        betas = np.linspace(0.05, 5, 200)
        vals = 2 * betas / (1 + betas) ** 2
        assert abs(vals.max() - 0.5) < 1e-4
        crit = self._resonator(beta=1.0)
        other = self._resonator(beta=0.42)
        ratio = reflectometry_snr(crit, 1e-15, 1e-12, 1.0, 1.0) / crit.q_int
        ratio_o = reflectometry_snr(other, 1e-15, 1e-12, 1.0, 1.0) / other.q_int
        assert ratio > ratio_o

    def test_backsolved_charge_snr(self):
        # invert the SNR formula for the (dC/C)*v_ratio product at SNR = 10
        r = self._resonator()
        coupling = 2 * r.beta / (1 + r.beta) ** 2
        product = 10.0 / (coupling * r.q_int)
        snr = reflectometry_snr(r, delta_c=product * 1e-12, c_tot=1e-12, eta=1.0, v_ratio=1.0)
        assert abs(snr - 10.0) < 1e-9
        spin_snr = reflectometry_snr(r, delta_c=product * 1e-12, c_tot=1e-12, eta=0.8, v_ratio=1.0)
        assert abs(spin_snr - 8.0) < 1e-9

    def test_eta_out_of_range_raises(self):
        with pytest.raises(ValueError):
            reflectometry_snr(self._resonator(), 1e-15, 1e-12, 1.5, 1.0)


class TestResonatorFromVna:
    def test_quality_factor_definition(self):
        r = resonator_from_vna(583.9e6, 583.9e6, 0.5, 88.7e-9, 0.2e-12)
        assert abs(r.q_r - 1.0) < 1e-12

    def test_parasitic_capacitance_from_table_inputs(self):
        r = resonator_from_vna(583.9e6, 583.9e6 / 104.0, 0.05, 88.7e-9, 0.2e-12)
        # frozen hand evaluation of 1/(4 pi^2 f0^2 L) - C_c
        assert abs(r.c_p - 6.37606e-13) < 1e-17
        # tabulated 0.55 pF is the right ballpark but not formula-consistent
        assert 0.4e-12 < r.c_p < 0.8e-12

    def test_internal_quality_factor_2deg_on(self):
        gamma_v = (1 - 0.42) / (1 + 0.42)
        r = resonator_from_vna(578.6e6, 578.6e6 / 74.8, gamma_v, 88.7e-9, 0.2e-12)
        assert abs(r.beta - 0.42) < 1e-12
        assert abs(r.q_int - 106.216) < 1e-9
        assert r.undercoupled

    def test_qint_consistency_enforced(self):
        with pytest.raises(ValueError):
            ResonatorParams(
                f0=578.6e6, q_r=74.8, q_int=120.0, beta=0.42,
                c_p=0.56e-12, c_c=0.2e-12, l=88.7e-9, r_c=38.6e3,
            )

    def test_negative_parasitic_raises(self):
        with pytest.raises(ValueError, match="parasitic"):
            resonator_from_vna(10e9, 1e8, 0.5, 88.7e-9, 0.2e-12)


class TestLandauZener:
    def test_diabatic_limit(self):
        assert lz_probability(0.0, 1.0) == 1.0

    def test_half_probability_velocity(self):
        delta = 46.9e-9 * E_CHARGE
        v_half = 2 * math.pi * delta**2 / (HBAR * math.log(2.0))
        assert abs(lz_probability(delta, v_half) - 0.5) < 1e-12

    @given(st.floats(1e-28, 1e-25), st.floats(1e-22, 1e-16))
    @settings(max_examples=40, deadline=None)
    def test_monotonic(self, delta, velocity):
        assert lz_probability(delta * 1.5, velocity) <= lz_probability(delta, velocity)
        assert lz_probability(delta, velocity * 1.5) >= lz_probability(delta, velocity)

    def test_nonpositive_velocity_raises(self):
        with pytest.raises(ValueError):
            lz_probability(1e-27, 0.0)


class TestThermometry:
    def test_zero_mxc_reduction(self):
        assert abs(
            coulomb_fwhm(0.17, 0.0, 0.090)
            - 3.53 * K_BOLTZMANN * 0.090 / (E_CHARGE * 0.17)
        ) < 1e-18

    def test_frozen_hand_value(self):
        assert abs(coulomb_fwhm(0.17, 0.0, 0.090) - 1.61043e-4) < 1e-8

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_symmetry(self, t_mxc, t_e):
        assert coulomb_fwhm(0.2, t_mxc, t_e) == coulomb_fwhm(0.2, t_e, t_mxc)

    def test_nonpositive_alpha_raises(self):
        with pytest.raises(ValueError):
            coulomb_fwhm(0.0, 0.1, 0.1)


class TestIctLineshape:
    def test_symmetry_point(self):
        assert abs(ict_lineshape(0.0, 8e-6 * E_CHARGE, 0.040) - 0.5) < 1e-14

    @given(st.floats(-1e-23, 1e-23))
    @settings(max_examples=50, deadline=None)
    def test_odd_symmetry(self, eps):
        tc, te = 8e-6 * E_CHARGE, 0.040
        assert abs(ict_lineshape(eps, tc, te) + ict_lineshape(-eps, tc, te) - 1.0) < 1e-12

    def test_monotone_nonincreasing(self):
        eps = np.linspace(-5e-23, 5e-23, 401)
        f = ict_lineshape(eps, 8e-6 * E_CHARGE, 0.040)
        assert np.all(np.diff(f) <= 1e-15)
        assert np.all((f >= 0) & (f <= 1))


class TestDampedRabi:
    def test_zero_at_origin(self):
        assert damped_rabi(0.0, 0.35, 0.4e-6, 17e6, 0.0) == 0.0

    def test_envelope_at_t2(self):
        t2 = 0.4e-6
        f = 17e6
        phase = math.pi / 2 - f * t2
        value = damped_rabi(t2, 0.35, t2, f, phase)
        assert abs(value - 0.35 / math.e) < 1e-12

    def test_nonpositive_t2_raises(self):
        with pytest.raises(ValueError):
            damped_rabi(1e-6, 0.35, 0.0, 17e6, 0.0)


class TestMinIntegrationTime:
    def test_unit_snr(self):
        assert min_integration_time(1.0, 3.3e-6) == 3.3e-6

    def test_reported_value(self):
        tau = min_integration_time(10.0, 328e-6)
        assert abs(tau - 3.3e-6) <= 0.1e-6

    def test_inverse_square_scaling(self):
        assert abs(min_integration_time(2.0, 1.0) - min_integration_time(1.0, 1.0) / 4) < 1e-15

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            min_integration_time(0.0, 1.0)


class TestGateMapping:
    def test_exponential_modulation(self):
        assert abs(tunnel_rate_from_gate(0.0, 1e9, 0.05) - 1e9) < 1e-3
        assert abs(tunnel_rate_from_gate(0.05, 1e9, 0.05) - 1e9 * math.e) < 1.0
        ratio = tunnel_rate_from_gate(0.2, 1e9, 0.05) / tunnel_rate_from_gate(0.15, 1e9, 0.05)
        assert abs(ratio - math.e) < 1e-12

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            tunnel_rate_from_gate(0.1, -1.0, 0.05)


_RESONATOR = dict(
    f0=578.6e6, q_r=74.8, q_int=1.42 * 74.8, beta=0.42,
    c_p=0.56e-12, c_c=0.2e-12, l=88.7e-9, r_c=38.6e3,
)
# each function with valid keyword arguments, and the message its check of
# each argument raises
_CHECKED = [
    (SensorParams, dict(alpha_drt=0.17, t_electron=0.09, f_rf=576e6, gamma=1e9), {
        "alpha_drt": "alpha_drt must lie in [0, 1)",
        **{name: f"{name} must be finite and > 0" for name in ("t_electron", "f_rf", "gamma")},
    }),
    (ResonatorParams, _RESONATOR, {
        **{name: f"{name} must be > 0" for name in ("f0", "q_r", "q_int", "c_p", "c_c", "l", "r_c")},
        "beta": "beta must be >= 0",
    }),
    (reflectometry_snr,
     dict(r=ResonatorParams(**_RESONATOR), delta_c=1e-15, c_tot=1e-12, eta=0.8, v_ratio=100.0), {
        "eta": "eta must lie in [0, 1]",
        "delta_c": "capacitances must be > 0",
        "c_tot": "capacitances must be > 0",
    }),
    (resonator_from_vna, dict(f0=583.9e6, delta_f=5.6e6, gamma_v_at_f0=0.05, l=88.7e-9, c_c=0.2e-12), {
        **{name: "f0, delta_f, l, c_c must be > 0" for name in ("f0", "delta_f", "l", "c_c")},
        "gamma_v_at_f0": "gamma_v_at_f0 must lie in [0, 1)",
    }),
    (lz_probability, dict(delta=1e-27, velocity=1e-20), {
        "delta": "delta must be >= 0", "velocity": "velocity must be > 0",
    }),
    (coulomb_fwhm, dict(alpha=0.17, t_mxc=0.01, t_e=0.09), {
        "alpha": "alpha must be > 0",
        "t_mxc": "temperatures must be >= 0",
        "t_e": "temperatures must be >= 0",
    }),
    (ict_lineshape, dict(epsilon=0.0, t_c=1e-24, t_e=0.04), {
        "t_c": "t_c and t_e must be > 0", "t_e": "t_c and t_e must be > 0",
    }),
    (damped_rabi, dict(t=1e-6, amplitude=0.35, t2_star=0.4e-6, f_rabi=17e6, phase=0.0), {
        "t2_star": "t2_star must be > 0",
    }),
    (min_integration_time, dict(snr=10.0, t_read=328e-6), {
        "snr": "snr must be > 0", "t_read": "t_read must be > 0",
    }),
    (tunnel_rate_from_gate, dict(v_gate=0.1, gamma0=1e9, v_scale=0.05), {
        "gamma0": "gamma0 must be > 0 and v_scale nonzero",
        "v_scale": "gamma0 must be > 0 and v_scale nonzero",
    }),
]


@pytest.mark.parametrize("fn, kwargs, name, match", [
    pytest.param(fn, kwargs, name, match, id=f"{fn.__name__}-{name}")
    for fn, kwargs, checks in _CHECKED for name, match in checks.items()
])
def test_nan_argument_fails_its_check(fn, kwargs, name, match):
    fn(**kwargs)
    with pytest.raises(ValueError, match=re.escape(match)):
        fn(**dict(kwargs, **{name: math.nan}))
