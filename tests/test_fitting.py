import numpy as np
import pytest

from spinread.constants import E_CHARGE, HBAR
from spinread.fitting import (
    STATUS_SINGULAR_JACOBIAN,
    fit_model,
    get_model,
    least_squares_damped,
    poisson_weights,
)


def _lz_curve(velocities, delta):
    return np.exp(-2 * np.pi * delta**2 / (HBAR * velocities))


DELTA_TRUE = 46.9e-9 * E_CHARGE
VELOCITIES = np.geomspace(0.5, 300.0, 40) * E_CHARGE  # eV/s grid in SI


class TestNoiselessFixedPoint:
    def test_lz_converges_immediately_at_truth(self):
        y = _lz_curve(VELOCITIES, DELTA_TRUE)
        res = fit_model("lz", VELOCITIES, y, init=[DELTA_TRUE])
        assert res.converged
        assert res.n_iterations <= 2
        assert res.residual_norm < 1e-10
        assert abs(res.params[0] - DELTA_TRUE) < 1e-6 * DELTA_TRUE

    def test_thermometry_converges_immediately_at_truth(self):
        model = get_model("thermometry")
        t_mxc = np.linspace(0.01, 0.4, 25)
        y = model(t_mxc, np.array([0.17, 0.090]))
        res = fit_model(model, t_mxc, y, init=[0.17, 0.090])
        assert res.converged and res.n_iterations <= 2
        assert res.residual_norm < 1e-10
        np.testing.assert_allclose(res.params, [0.17, 0.090], rtol=1e-6)


class TestRoundTrips:
    def test_lz_recovery_with_noise(self):
        rng = np.random.default_rng(11)
        y = _lz_curve(VELOCITIES, DELTA_TRUE) * (1 + 0.01 * rng.standard_normal(VELOCITIES.size))
        res = fit_model("lz", VELOCITIES, y, init=[2 * DELTA_TRUE])
        assert res.converged
        assert abs(res.params[0] - DELTA_TRUE) <= 3 * res.sigmas[0]

    def test_thermometry_recovery(self):
        rng = np.random.default_rng(12)
        model = get_model("thermometry")
        t_mxc = np.linspace(0.01, 0.4, 25)
        y = model(t_mxc, np.array([0.17, 0.090]))
        y = y * (1 + 0.02 * rng.standard_normal(y.size))
        res = fit_model(model, t_mxc, y, init=[0.3, 0.05])
        assert res.converged
        assert abs(res.params[0] - 0.17) <= 3 * res.sigmas[0]
        assert abs(res.params[1] - 0.090) <= 3 * res.sigmas[1]


class TestDiagnostics:
    def test_singular_jacobian_reported(self):
        # identical abscissae leave one flat direction in (alpha, t_e):
        # any pair on the level set of alpha / sqrt(x^2 + t_e^2) fits
        x = np.full(10, 0.1)
        rng = np.random.default_rng(5)
        y = 1e-4 + 1e-6 * rng.standard_normal(10)
        res = fit_model("thermometry", x, y, init=[0.17, 0.090])
        assert res.status == STATUS_SINGULAR_JACOBIAN
        assert not res.converged
        assert np.all(np.isnan(res.sigmas))

    def test_init_outside_bounds_raises(self):
        with pytest.raises(ValueError, match="bounds"):
            fit_model("lz", VELOCITIES, _lz_curve(VELOCITIES, DELTA_TRUE), init=[1.0])

    def test_nan_init_raises(self):
        t_mxc = np.linspace(0.01, 0.4, 25)
        y = get_model("thermometry")(t_mxc, np.array([0.17, 0.090]))
        with pytest.raises(ValueError, match="bounds"):
            fit_model("thermometry", t_mxc, y, init=[np.nan, 0.090])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_model("lz", VELOCITIES, _lz_curve(VELOCITIES, DELTA_TRUE)[:-1], init=[DELTA_TRUE])

    @pytest.mark.parametrize("init", [[0.17], [0.17, 0.090, 1.0]])
    def test_init_of_the_wrong_length_names_the_parameter_count(self, init):
        t_mxc = np.linspace(0.01, 0.4, 25)
        y = get_model("thermometry")(t_mxc, np.array([0.17, 0.090]))
        with pytest.raises(ValueError, match=rf"takes 2 parameters \(alpha, t_e\), init has {len(init)}"):
            fit_model("thermometry", t_mxc, y, init=init)

    @pytest.mark.parametrize("which, value", [("y", np.nan), ("y", np.inf), ("x", np.inf), ("x", np.nan)])
    def test_non_finite_data_raises(self, which, value):
        data = {"x": VELOCITIES.copy(), "y": _lz_curve(VELOCITIES, DELTA_TRUE)}
        data[which][3] = value
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            fit_model("lz", data["x"], data["y"], init=[2 * DELTA_TRUE])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights_raise(self, value):
        w = np.ones(VELOCITIES.size)
        w[3] = value
        with pytest.raises(ValueError, match="weights"):
            fit_model("lz", VELOCITIES, _lz_curve(VELOCITIES, DELTA_TRUE), init=[DELTA_TRUE], weights=w)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            fit_model("thermometry", [0.1], [1e-4], init=[0.17, 0.090])

    def test_params_stay_in_bounds(self):
        model = get_model("thermometry")
        t_mxc = np.linspace(0.01, 0.4, 25)
        y = model(t_mxc, np.array([0.17, 0.090]))
        res = fit_model(model, t_mxc, y, init=[0.9, 5.0])
        for value, (lo, hi) in zip(res.params, model.bounds):
            assert lo <= value <= hi


class TestWeights:
    def test_poisson_weights_floor(self):
        w = poisson_weights([0, 1, 4, 100])
        np.testing.assert_allclose(w, [1.0, 1.0, 0.25, 0.01])

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            fit_model(
                "lz",
                VELOCITIES,
                _lz_curve(VELOCITIES, DELTA_TRUE),
                init=[DELTA_TRUE],
                weights=-np.ones(VELOCITIES.size),
            )


_T = np.linspace(0.0, 4.0, 12)
_Y = 2.0 * np.exp(-_T / 1.5) + 0.01 * np.sin(7.0 * _T)
_BOX = [(1e-3, 10.0), (1e-2, 10.0)]


def _decay(x):
    return x[0] * np.exp(-_T / x[1]) - _Y


# One problem per stop of least_squares_damped: (residual, x0, max_iterations),
# and the result recorded before the Jacobian at the current point was kept
# across iterations, as float.hex: params, sigmas, residual_norm,
# n_iterations, status. The residual-call counts are the engine's own; the
# zero-gradient, singular and no-descent stops once made p = 2 more (for the
# sigmas' Jacobian at an unchanged point).
STOPS = {
    "zero_gradient": (
        lambda x: np.array([x[0] - 1.0, x[1] - 2.0, x[0] + x[1] - 3.0]), [1.0, 2.0], 200,
        (["0x1.0000000000000p+0", "0x1.0000000000000p+1"], ["0x0.0p+0", "0x0.0p+0"],
         "0x0.0p+0", 1, "converged"), 3,
    ),
    "singular": (
        lambda x: np.array([1.0, 2.0, 3.0]), [1.0, 2.0], 200,
        (["0x1.0000000000000p+0", "0x1.0000000000000p+1"], ["nan", "nan"],
         "0x1.deeea11683f49p+1", 1, "singular_jacobian"), 3,
    ),
    "converged": (
        _decay, [1.0, 1.0], 200,
        (["0x1.00176a04be3c5p+1", "0x1.7ff809c5e873ap+0"], ["0x1.7e6141c7f73d9p-8", "0x1.db085ad4b217dp-8"],
         "0x1.7a5f0af1a433cp-6", 5, "converged"), 18,
    ),
    "max_iterations": (
        _decay, [1.0, 1.0], 2,
        (["0x1.fcf583ed635f6p+0", "0x1.782111ade9954p+0"], ["0x1.ef19a601f6e21p-7", "0x1.2ed5d24e2781ep-6"],
         "0x1.e7821f12b97e3p-5", 2, "max_iterations"), 9,
    ),
    # a kink at x0: every damped step raises the cost, so the search stops
    # after one iteration and reports max_iterations
    "no_descent": (
        lambda x: np.array([abs(x[0] - 1.0) + 1.0, abs(x[1] - 2.0) + 1.0, abs(x[0] - x[1] + 1.0) + 0.5]),
        [1.0, 2.0], 200,
        (["0x1.0000000000000p+0", "0x1.0000000000000p+1"], ["0x1.3988e11c2ee37p+0", "0x1.3988e12f13310p+0"],
         "0x1.8000000000000p+0", 1, "max_iterations"), 33,
    ),
}


@pytest.mark.parametrize("stop", list(STOPS))
def test_each_stop_holds_the_recorded_result(stop):
    fn, x0, max_iterations, expected, n_calls = STOPS[stop]
    calls = []

    def residual(x):
        calls.append(1)
        return fn(x)

    res = least_squares_damped(residual, x0, _BOX, max_iterations=max_iterations)
    got = (
        [v.hex() for v in res.params], [float(v).hex() for v in res.sigmas],
        res.residual_norm.hex(), res.n_iterations, res.status,
    )
    assert got == expected
    assert res.converged == (res.status == "converged")
    assert len(calls) == n_calls
