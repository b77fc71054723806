import numpy as np
import pytest

from spinread.constants import E_CHARGE, HBAR
from spinread.fitting import (
    STATUS_SINGULAR_JACOBIAN,
    fit_model,
    get_model,
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
