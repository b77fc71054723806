import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

import spinread as sr
from spinread.analytic import (
    DensityParams,
    _class_cdfs,
    analytic_fidelity,
    combined_density,
    decay_tail,
    electrical_fidelity,
    fidelity_from_snr,
    fit_histogram,
    sigma_of_t,
    singlet_density,
    triplet_density,
)
from spinread.pipeline import build_histogram
from spinread.readout import ReadoutBasis


def _params(v_s=0.0, v_t=1.0, snr=5.0, t=1e-4, t1_t0=None, t1_tm=None, fractions=(0.5, 0.0, 0.5)):
    return DensityParams(
        v_s=v_s, v_t=v_t, sigma0=abs(v_t - v_s) / snr, t0=t,
        t1_t0=t1_t0 if t1_t0 is not None else t,
        t1_tm=t1_tm if t1_tm is not None else t,
        p_s=fractions[0], p_t0=fractions[1], p_tm=fractions[2],
    )


def _tail_oracle(v, t, t1, p):
    """Decay-time integral representation of the tail density."""
    sig = sigma_of_t(p.sigma0, p.t0, t)
    k = t / t1
    val, _ = quad(
        lambda u: math.exp(-k * u) * norm.pdf(v, loc=p.v_s + u * (p.v_t - p.v_s), scale=sig),
        0.0, 1.0, limit=200,
    )
    return k * val


def _class_cdf_oracle(x, t, p, mode, basis):
    """Low/high class CDFs at scalar x from the decay-time representation.

    A triplet's window average is N(v_t, sigma) with weight e^-k, else
    N(v_s + u dv, sigma) for a decay at fraction u of the window, with
    density k e^-ku on [0, 1].
    """
    sig = sigma_of_t(p.sigma0, p.t0, t)
    dv = p.v_t - p.v_s

    def triplet(t1):
        k = t / t1
        step = (x - p.v_s) / dv
        tail, _ = quad(
            lambda u: k * math.exp(-k * u) * ndtr((x - (p.v_s + u * dv)) / sig),
            0.0, 1.0, points=[step] if 0.0 < step < 1.0 else None,
            limit=200, epsabs=1e-15, epsrel=1e-13,
        )
        return math.exp(-k) * ndtr((x - p.v_t) / sig) + tail

    singlet = ndtr((x - p.v_s) / sig)
    if mode == "two_state":
        return singlet, triplet(p.t1_tm)
    if basis is ReadoutBasis.PARITY:
        return 0.5 * (singlet + triplet(p.t1_t0)), triplet(p.t1_tm)
    w = p.p_t0 + p.p_tm
    return singlet, (p.p_t0 * triplet(p.t1_t0) + p.p_tm * triplet(p.t1_tm)) / w


class TestSigmaOfT:
    def test_reference_time(self):
        assert sigma_of_t(0.3, 1e-4, 1e-4) == 0.3

    def test_quarter_time(self):
        assert abs(sigma_of_t(0.3, 1e-4, 4e-4) - 0.15) < 1e-15

    def test_snr_from_min_integration_time(self):
        # with sigma0 = dV at t0 = tau_min, SNR(t) = sqrt(t / tau_min)
        tau_min = 3.3e-6
        for t in (33e-6, 340e-6):
            snr = 1.0 / sigma_of_t(1.0, tau_min, t)
            assert abs(snr - math.sqrt(t / tau_min)) < 1e-12

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            sigma_of_t(0.3, 1e-4, 0.0)

    @pytest.mark.parametrize(
        "sigma0, t0", [(math.nan, 1e-4), (math.inf, 1e-4), (0.3, math.nan), (0.3, math.inf)]
    )
    def test_non_finite_scale_raises(self, sigma0, t0):
        with pytest.raises(ValueError, match="sigma0 and t0 must be finite"):
            sigma_of_t(sigma0, t0, 1e-4)


class TestDensityParams:
    FIELDS = ("v_s", "v_t", "sigma0", "t0", "t1_t0", "t1_tm", "p_s", "p_t0", "p_tm")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_raises(self, field, bad):
        values = vars(_params(fractions=(0.25, 0.25, 0.5))).copy()
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            DensityParams(**values)


class TestSingletDensity:
    def test_peak_value(self):
        p = _params(snr=4.0)
        sig = sigma_of_t(p.sigma0, p.t0, p.t0)
        assert abs(singlet_density(p.v_s, p.t0, p) - 1 / (math.sqrt(2 * math.pi) * sig)) < 1e-12

    def test_normalization(self):
        p = _params(snr=4.0)
        val, _ = quad(lambda v: singlet_density(v, p.t0, p), -3, 3, limit=200)
        assert abs(val - 1.0) < 1e-8

    def test_symmetry(self):
        p = _params(snr=4.0)
        for x in (0.05, 0.2, 0.5):
            assert abs(
                singlet_density(p.v_s + x, p.t0, p) - singlet_density(p.v_s - x, p.t0, p)
            ) < 1e-14


class TestDecayTail:
    def test_matches_decay_time_integral(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(15):
            v_s, v_t = sorted(rng.uniform(-1, 2, 2))
            if v_t - v_s < 0.05:
                continue
            p = DensityParams(
                v_s=v_s, v_t=v_t, sigma0=(v_t - v_s) / rng.uniform(2, 12),
                t0=1e-4, t1_t0=1e-4, t1_tm=1e-4 / rng.uniform(0.05, 5),
                p_s=0.5, p_t0=0.0, p_tm=0.5,
            )
            sig = p.sigma0
            for v in np.linspace(v_s - 3 * sig, v_t + 3 * sig, 9):
                a = decay_tail(v, p.t0, p.t1_tm, p)
                b = _tail_oracle(v, p.t0, p.t1_tm, p)
                worst = max(worst, abs(a - b))
        assert worst < 1e-10

    def test_vanishes_without_decay(self):
        p = _params(t1_tm=1e8)
        for v in (0.0, 0.3, 0.8, 1.0):
            assert decay_tail(v, p.t0, p.t1_tm, p) < 1e-10

    def test_tail_mass_equals_decayed_fraction(self):
        for k in (0.1, 1.0, 3.0):
            p = _params(snr=8.0, t1_tm=1e-4 / k)
            mass, _ = quad(
                lambda v: decay_tail(v, p.t0, p.t1_tm, p), -1, 2, points=[0, 1], limit=200
            )
            assert abs(mass - (1 - math.exp(-k))) < 1e-6

    def test_reflection_consistency(self):
        # flipping both levels mirrors the density about the midpoint
        p = _params(v_s=0.0, v_t=1.0, snr=5.0, t1_tm=2e-4)
        q = DensityParams(
            v_s=1.0, v_t=0.0, sigma0=p.sigma0, t0=p.t0, t1_t0=p.t1_t0, t1_tm=p.t1_tm,
            p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        for v in np.linspace(-0.4, 1.4, 11):
            assert abs(
                decay_tail(v, p.t0, p.t1_tm, p) - decay_tail(1.0 - v, q.t0, q.t1_tm, q)
            ) < 1e-12

    def test_scalar_gives_the_bits_of_the_array_element(self):
        # one kernel serves both: a 1-ULP difference in a square shows here
        rng = np.random.default_rng(5)
        for _ in range(1000):
            v_s = rng.uniform(-1, 1)
            dv = rng.uniform(0.05, 2) * rng.choice([-1, 1])
            sigma = abs(dv) / 10 ** rng.uniform(math.log10(0.3), 2)
            k = 10 ** rng.uniform(-12, math.log10(300))
            p = _params(v_s=v_s, v_t=v_s + dv, snr=abs(dv) / sigma, t1_tm=1e-4 / k)
            lo, hi = min(p.v_s, p.v_t), max(p.v_s, p.v_t)
            v = rng.uniform(lo - 3 * sigma, hi + 3 * sigma, 8)
            scalars = [decay_tail(float(x), p.t0, p.t1_tm, p) for x in v]
            assert np.array_equal(decay_tail(v, p.t0, p.t1_tm, p), scalars)

    def test_degenerate_levels_rejected(self):
        p = _params()
        q = DensityParams(
            v_s=0.5, v_t=0.5, sigma0=0.1, t0=1e-4, t1_t0=1e-4, t1_tm=1e-4,
            p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        with pytest.raises(ValueError):
            decay_tail(0.5, p.t0, p.t1_tm, q)


class TestTripletDensity:
    def test_no_decay_limit_is_gaussian(self):
        p = _params(t1_tm=1e9)
        sig = p.sigma0
        for v in (0.7, 1.0, 1.3):
            gauss = math.exp(-0.5 * ((v - 1.0) / sig) ** 2) / (math.sqrt(2 * math.pi) * sig)
            assert abs(triplet_density(v, p.t0, p.t1_tm, p) - gauss) < 1e-9

    def test_normalization(self):
        for k in (0.1, 1.0, 3.0):
            p = _params(snr=6.0, t1_tm=1e-4 / k)
            val, _ = quad(
                lambda v: triplet_density(v, p.t0, p.t1_tm, p), -1, 2, points=[0, 1], limit=200
            )
            assert abs(val - 1.0) < 1e-6

    def test_survival_weight_at_one_lifetime(self):
        p = _params(snr=6.0, t1_tm=1e-4)
        surv = triplet_density(1.0, p.t0, p.t1_tm, p) - decay_tail(1.0, p.t0, p.t1_tm, p)
        peak = 1 / (math.sqrt(2 * math.pi) * p.sigma0)
        assert abs(surv - peak / math.e) < 1e-12


class TestCombinedDensity:
    def test_pure_singlet_fraction(self):
        p = _params(fractions=(1.0, 0.0, 0.0))
        for v in (-0.2, 0.0, 0.4):
            assert combined_density(v, p.t0, p, "two_state") == singlet_density(v, p.t0, p)

    def test_normalization_random_params(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            fr = rng.dirichlet(np.ones(3))
            p = DensityParams(
                v_s=0.0, v_t=1.0, sigma0=1 / rng.uniform(2, 10), t0=1e-4,
                t1_t0=1e-4 / rng.uniform(0.05, 4), t1_tm=1e-4 / rng.uniform(0.05, 4),
                p_s=fr[0], p_t0=fr[1], p_tm=fr[2],
            )
            val, _ = quad(
                lambda v: combined_density(v, 1e-4, p, "three_state"),
                -6 * p.sigma0, 1 + 6 * p.sigma0, points=[0, 1], limit=200,
            )
            assert abs(val - 1.0) < 1e-6

    def test_undecayed_t0_fills_mid_region(self):
        # reference-device rates at t = 204 us: the three-state density puts
        # visibly more mass between the peaks than the two-state one
        t = 204e-6
        sig = math.sqrt(3.3 / 204)
        p3 = DensityParams(
            v_s=0, v_t=1, sigma0=sig, t0=t, t1_t0=170e-6, t1_tm=290e-3,
            p_s=0.25, p_t0=0.25, p_tm=0.5,
        )
        p2 = DensityParams(
            v_s=0, v_t=1, sigma0=sig, t0=t, t1_t0=170e-6, t1_tm=290e-3,
            p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        m3, _ = quad(lambda v: combined_density(v, t, p3, "three_state"), 0.3, 0.7, limit=200)
        m2, _ = quad(lambda v: combined_density(v, t, p2, "two_state"), 0.3, 0.7, limit=200)
        assert m3 > 5 * m2

    def test_two_state_requires_zero_t0_fraction(self):
        p = _params(fractions=(0.25, 0.25, 0.5))
        with pytest.raises(ValueError):
            combined_density(0.5, p.t0, p, "two_state")


class TestClassCdfs:
    CLASSES = (
        ("two_state", ReadoutBasis.PARITY),
        ("three_state", ReadoutBasis.PARITY),
        ("three_state", ReadoutBasis.SINGLET_TRIPLET),
    )

    def test_match_decay_time_quadrature(self):
        rng = np.random.default_rng(20)
        t = 1e-4
        k_max = 30.0
        for i in range(200):
            v_s = rng.uniform(-1.0, 1.0)
            dv = rng.uniform(0.1, 1.0) * (1.0 if i % 2 == 0 else -1.0)
            sigma = abs(dv) / rng.uniform(0.5, 20.0)
            # log-uniform decay exponents k = t/T1, endpoints included
            ks = 10.0 ** rng.uniform(-12.0, math.log10(k_max), 2)
            if i % 50 == 0:
                ks = np.array([1e-12, k_max] if i % 100 == 0 else [k_max, 1e-12])
            mode, basis = self.CLASSES[i % 3]
            fr = (0.5, 0.0, 0.5) if mode == "two_state" else tuple(rng.dirichlet([1, 1, 1]))
            p = DensityParams(
                v_s=v_s, v_t=v_s + dv, sigma0=sigma, t0=t, t1_t0=t / ks[0], t1_tm=t / ks[1],
                p_s=fr[0], p_t0=fr[1], p_tm=1.0 - fr[0] - fr[1],
            )
            low, high, _ = _class_cdfs(p, t, mode, basis)
            xs = rng.uniform(min(p.v_s, p.v_t) - 4 * sigma, max(p.v_s, p.v_t) + 4 * sigma, 3)
            for x, c_low, c_high in zip(xs, low(xs), high(xs)):
                ref_low, ref_high = _class_cdf_oracle(x, t, p, mode, basis)
                assert abs(c_low - ref_low) <= 1e-12, (i, x)
                assert abs(c_high - ref_high) <= 1e-12, (i, x)

    def test_limits(self):
        p = _params(v_s=1.0, v_t=0.0, snr=3.0, t1_t0=2e-4, fractions=(0.25, 0.25, 0.5))
        for mode, basis in self.CLASSES:
            for cdf in _class_cdfs(p, p.t0, mode, basis)[:2]:
                assert abs(cdf(-40.0)) < 1e-15 and abs(cdf(40.0) - 1.0) < 1e-15


# -- old-vs-new golden ----------------------------------------------------------

_PINNED_KS = (1e-12, 1e-6, 0.01, 0.5, 3.0, 30.0, 300.0)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _pinned_outputs():
    """sha256 of every density and class CDF on a fixed grid.

    The grid takes both signs of v_t - v_s, decay exponents k = t/T1 from
    1e-12 to 300, SNR down to 0.3 and v out to 40 sigma beyond the levels,
    with random points near the levels. A scalar v rounds its Gaussians
    differently from an array, so scalar calls are pinned apart from array
    calls.
    """
    t, t0 = 1e-4, 3.3e-6
    rng = np.random.default_rng(21)
    outputs = {}
    for (v_s, v_t), snr, (k, k_other) in itertools.product(
        ((0.0, 1.0), (0.5, -0.7)), (0.3, 1.0, 5.0, 40.0), zip(_PINNED_KS, _PINNED_KS[::-1])
    ):
        sigma = abs(v_t - v_s) / snr
        p = DensityParams(
            v_s=v_s, v_t=v_t, sigma0=sigma * math.sqrt(t / t0), t0=t0,
            t1_t0=t / k, t1_tm=t / k_other, p_s=0.25, p_t0=0.25, p_tm=0.5,
        )
        p2 = dataclasses.replace(p, p_s=0.5, p_t0=0.0)
        lo, hi = min(v_s, v_t), max(v_s, v_t)
        v = np.concatenate([
            np.linspace(lo - 40 * sigma, hi + 40 * sigma, 33),
            rng.uniform(lo - 3 * sigma, hi + 3 * sigma, 24),
            [v_s, v_t],
        ])
        fns = {
            "singlet_density": lambda x: singlet_density(x, t, p),
            "decay_tail": lambda x: decay_tail(x, t, p.t1_t0, p),
            "triplet_density": lambda x: triplet_density(x, t, p.t1_tm, p),
            "combined_density.two_state": lambda x: combined_density(x, t, p2, "two_state"),
            "combined_density.three_state": lambda x: combined_density(x, t, p, "three_state"),
        }
        for mode, basis in TestClassCdfs.CLASSES:
            cdfs = _class_cdfs(p2 if mode == "two_state" else p, t, mode, basis)
            for group, cdf in zip(("low", "high"), cdfs):
                fns[f"_class_cdfs.{mode}.{basis.value}.{group}"] = cdf
        for name, fn in fns.items():
            outputs.setdefault(name, []).append(fn(v))
            outputs.setdefault(name + ".scalar", []).extend(fn(float(x)) for x in v[::3])
    return {name: _digest(np.hstack(values)) for name, values in outputs.items()}


class TestPinnedOutputs:
    # recorded from the implementation with a masked tail and sigma
    # recomputed by every density and CDF call
    DIGESTS = {
        "singlet_density": "e55347df2c1e883bae09c40ec1af08ca94940ddd2fded242d37f4896595ee465",
        "singlet_density.scalar": "c6d26549969a951351188d8cf2bd61629d2f2249f2ee941f96468512c77d6f74",
        "decay_tail": "63bdf2792feaf673aa1284a2e53bbecee731ba89b8eda0f397315730bdac48b2",
        "decay_tail.scalar": "a604a823d84a9fb0ce33418217a5c3033bd9283dc08f3e3c02b3c36b2166be53",
        "triplet_density": "25ce3211ddac7aba2b70ad334c471fd0141429d20e34b893a89710c931d0b38c",
        "triplet_density.scalar": "e434f985d07eca40078e6d85d94e6161128b317b8f7fb96724d6ac5e2c63cec9",
        "combined_density.two_state": "3cd4e3add03fd92a2a8b5f4e936ef275f5152926b494c3e7a5585d669a394403",
        "combined_density.two_state.scalar": "bcb155af2839652e79d4395b4fc757d3d7d819de0abf36f4b551a7c6041d44a4",
        "combined_density.three_state": "4e8f2b5b40ebbcf2705b4013f188611b61d05667a95cd360849eefd9d1c04820",
        "combined_density.three_state.scalar": "b6055e44be3b119297a6f42b6237a197d667f1f7b4a9f8e4bb26beaa24f8aafa",
        "_class_cdfs.two_state.parity.low": "af495882bceac69e6d5cac539859c348722e2c0ac75cca27cc5bd426287551e3",
        "_class_cdfs.two_state.parity.low.scalar": "a51f086a2c7ec5d676c867b09c63742166b298c15d5a12083c8b7f3b136550dc",
        "_class_cdfs.two_state.parity.high": "4e64c99f105a57f7851b83807ec822ef100938d1cc1e80c934ccae00ba429a3f",
        "_class_cdfs.two_state.parity.high.scalar": "e4578812a5039a68338e3685425c96986bb4c84ea798cd59a00c503141663f9b",
        "_class_cdfs.three_state.parity.low": "a7a0a7752ce1b3f25697ffdd37b09f676b1687ae22652a3373d623f1de498d36",
        "_class_cdfs.three_state.parity.low.scalar": "5cdeec551f04b65c3e80fb81dc2ac27112a883ef2ee98036832329c5102d2060",
        "_class_cdfs.three_state.parity.high": "4e64c99f105a57f7851b83807ec822ef100938d1cc1e80c934ccae00ba429a3f",
        "_class_cdfs.three_state.parity.high.scalar": "e4578812a5039a68338e3685425c96986bb4c84ea798cd59a00c503141663f9b",
        "_class_cdfs.three_state.singlet_triplet.low": "af495882bceac69e6d5cac539859c348722e2c0ac75cca27cc5bd426287551e3",
        "_class_cdfs.three_state.singlet_triplet.low.scalar": "a51f086a2c7ec5d676c867b09c63742166b298c15d5a12083c8b7f3b136550dc",
        "_class_cdfs.three_state.singlet_triplet.high": "a3880258beaf2a8b3ba5b79bf970d288e82c022a710ec34284ff8adf17a76c01",
        "_class_cdfs.three_state.singlet_triplet.high.scalar": "0b9e23864bed8fa486cced5fc6531be2a171ef27e27ad5d81820b9a7573f977a",
    }

    def test_outputs_hold_the_recorded_values(self):
        # tier-1 turns a RuntimeWarning into an error, so this also shows
        # that the tail branch np.where discards raises none
        got = _pinned_outputs()
        assert got.keys() == self.DIGESTS.keys()
        assert [name for name in got if got[name] != self.DIGESTS[name]] == []


class TestReturnTypes:
    P3 = _params(t1_t0=2e-4, fractions=(0.25, 0.25, 0.5))
    P2 = _params(t1_tm=3e-4)
    FUNCTIONS = {
        "singlet_density": lambda v: singlet_density(v, 1e-4, TestReturnTypes.P3),
        "decay_tail": lambda v: decay_tail(v, 1e-4, 2e-4, TestReturnTypes.P3),
        "triplet_density": lambda v: triplet_density(v, 1e-4, 2e-4, TestReturnTypes.P3),
        "combined_density.two_state":
            lambda v: combined_density(v, 1e-4, TestReturnTypes.P2, "two_state"),
        "combined_density.three_state":
            lambda v: combined_density(v, 1e-4, TestReturnTypes.P3, "three_state"),
        # its array argument is the readout time
        "sigma_of_t": lambda t: sigma_of_t(0.3, 1e-4, t),
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("v", [0.4, 1, np.float64(0.4), np.array(0.4)])
    def test_scalar_gives_a_python_float(self, name, v):
        assert type(self.FUNCTIONS[name](v)) is float

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    def test_array_gives_an_array_of_its_shape(self, name, shape):
        out = self.FUNCTIONS[name](np.linspace(0.1, 0.9, 6).reshape(shape))
        assert type(out) is np.ndarray and out.shape == shape


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteTimes:
    P = _params(t1_t0=2e-4, fractions=(0.25, 0.25, 0.5))

    def test_sigma_of_t(self, bad):
        for t in (bad, np.array([1e-4, bad])):
            with pytest.raises(ValueError, match="t must be finite"):
                sigma_of_t(0.1, 1e-4, t)

    def test_singlet_density(self, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            singlet_density(0.5, bad, self.P)

    @pytest.mark.parametrize("fn", [decay_tail, triplet_density])
    @pytest.mark.parametrize("which", ["t", "t1"])
    def test_decay_tail_and_triplet_density(self, bad, fn, which):
        t, t1 = (bad, 2e-4) if which == "t" else (1e-4, bad)
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            fn(0.5, t, t1, self.P)

    @pytest.mark.parametrize("mode", ["two_state", "three_state"])
    def test_combined_density(self, bad, mode):
        p = self.P if mode == "three_state" else _params()
        with pytest.raises(ValueError, match="t must be finite"):
            combined_density(0.5, bad, p, mode)

    def test_analytic_fidelity(self, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            analytic_fidelity(self.P, bad, "three_state")


class TestAnalyticFidelity:
    # (mode, basis, parameters, t, F_m*, v_threshold) recorded from the
    # quadrature implementation that preceded the closed-form CDFs
    GOLDEN = [
        ("two_state", ReadoutBasis.PARITY,
         dict(v_s=0.0, v_t=1.0, sigma0=math.sqrt(3.3 / 340), t0=340e-6, t1_t0=170e-6,
              t1_tm=290e-3, p_s=0.5, p_t0=0.0, p_tm=0.5),
         340e-6, 0.9997533767490367, 0.39769570370473073),
        ("two_state", ReadoutBasis.PARITY,
         dict(v_s=1.0, v_t=0.2, sigma0=0.3, t0=1e-4, t1_t0=1e-4, t1_tm=2e-4,
              p_s=0.5, p_t0=0.0, p_tm=0.5),
         1e-4, 0.8232268555633788, 0.64810602799517),
        ("three_state", ReadoutBasis.PARITY,
         dict(v_s=0.0, v_t=1.0, sigma0=math.sqrt(3.3 / 204), t0=204e-6, t1_t0=170e-6,
              t1_tm=290e-3, p_s=0.25, p_t0=0.25, p_tm=0.5),
         204e-6, 0.8872292741625439, 0.7237047246464867),
        ("three_state", ReadoutBasis.PARITY,
         dict(v_s=0.5, v_t=-0.5, sigma0=0.2, t0=1e-4, t1_t0=5e-5, t1_tm=1e-3,
              p_s=0.3, p_t0=0.3, p_tm=0.4),
         2e-4, 0.9160855832490202, -0.09637720716145728),
        ("three_state", ReadoutBasis.SINGLET_TRIPLET,
         dict(v_s=0.0, v_t=1.0, sigma0=math.sqrt(3.3 / 204), t0=204e-6, t1_t0=170e-6,
              t1_tm=290e-3, p_s=0.25, p_t0=0.25, p_tm=0.5),
         204e-6, 0.9467129737729654, 0.27874580784661956),
        ("three_state", ReadoutBasis.SINGLET_TRIPLET,
         dict(v_s=2.0, v_t=1.0, sigma0=0.4, t0=1e-4, t1_t0=3e-4, t1_tm=2e-5,
              p_s=0.4, p_t0=0.2, p_tm=0.4),
         1e-4, 0.6652097541235878, 1.6616463425695214),
    ]

    @pytest.mark.parametrize("mode, basis, params, t, f_m, v_th", GOLDEN)
    def test_golden_values(self, mode, basis, params, t, f_m, v_th):
        p = DensityParams(**params)
        rep = analytic_fidelity(p, t, mode, basis)
        assert abs(rep.f_m_star - f_m) <= 1e-12
        # the optimum is flat, so the threshold is only weakly determined
        assert abs(rep.v_threshold - v_th) <= 1e-3 * sigma_of_t(p.sigma0, p.t0, t)

    def test_extreme_snr_reaches_unity(self):
        # SNR 1e9 without relaxation: the classes do not overlap at all
        p = _params(v_s=1.0, v_t=2.0, snr=1e9, t1_tm=1e9)
        rep = analytic_fidelity(p, p.t0, "two_state")
        assert abs(rep.f_m_star - 1.0) < 1e-12
        assert 1.0 < rep.v_threshold < 2.0

    def test_no_relaxation_equals_electrical(self):
        for snr in (2.0, 5.0, 9.0):
            p = _params(snr=snr, t1_tm=1e9, t1_t0=1e9)
            rep = analytic_fidelity(p, p.t0, "two_state")
            assert abs(rep.f_m_star - rep.f_e_star) < 1e-6
            assert abs(rep.f_m_star - fidelity_from_snr(snr, 0.0)) < 1e-6
            assert abs(rep.v_m_star - (2 * rep.f_m_star - 1)) < 1e-12

    def test_electrical_fidelity_frozen_value(self):
        assert abs(electrical_fidelity(2 * math.sqrt(2)) - 0.9213503964748574) < 1e-12

    def test_closed_form_is_lower_bound(self):
        # the optimised threshold can only beat the closed-form estimate
        for snr in (1.0, 4.0, 10.0):
            for gt in (0.05, 0.2, 0.5):
                p = _params(snr=snr, t1_tm=1e-4 / gt)
                rep = analytic_fidelity(p, 1e-4, "two_state")
                assert rep.f_m_star >= fidelity_from_snr(snr, gt) - 1e-6

    def test_closed_form_agreement_at_low_decay(self):
        # verified regime: the optimum and the closed form agree to 1e-4
        for snr in (1.0, 2.0, 4.0):
            for gt in (0.005, 0.01, 0.02):
                p = _params(snr=snr, t1_tm=1e-4 / gt)
                rep = analytic_fidelity(p, 1e-4, "two_state")
                assert abs(rep.f_m_star - fidelity_from_snr(snr, gt)) < 1e-4, (snr, gt)

    def test_threshold_satisfies_crossing_condition(self):
        # at the optimum the normalised low- and high-class densities cross
        t = 1e-4
        for mode, basis in TestClassCdfs.CLASSES:
            fractions = (0.5, 0.0, 0.5) if mode == "two_state" else (0.3, 0.3, 0.4)
            p = _params(snr=4.0, t1_t0=5e-4, t1_tm=1e-3, fractions=fractions)
            v = analytic_fidelity(p, t, mode, basis).v_threshold
            n_s = singlet_density(v, t, p)
            n_t0 = triplet_density(v, t, p.t1_t0, p)
            n_tm = triplet_density(v, t, p.t1_tm, p)
            if mode == "two_state":
                low, high = n_s, n_tm
            elif basis is ReadoutBasis.PARITY:
                low, high = 0.5 * (n_s + n_t0), n_tm
            else:
                low, high = n_s, (p.p_t0 * n_t0 + p.p_tm * n_tm) / (p.p_t0 + p.p_tm)
            assert abs(low - high) < 1e-6 * max(low, high), (mode, basis)

    def test_monotonicity_of_closed_forms(self):
        snrs = np.linspace(0.5, 12, 30)
        fe = [electrical_fidelity(s) for s in snrs]
        assert np.all(np.diff(fe) > 0)
        gts = np.linspace(0.0, 2.0, 30)
        fm = [fidelity_from_snr(5.0, g) for g in gts]
        assert np.all(np.diff(fm) < 0)

    def test_two_state_overestimates_three_state(self):
        t = 204e-6
        sig = math.sqrt(3.3 / 204)
        shared = dict(v_s=0.0, v_t=1.0, sigma0=sig, t0=t, t1_t0=170e-6, t1_tm=290e-3)
        p2 = DensityParams(**shared, p_s=0.5, p_t0=0.0, p_tm=0.5)
        p3 = DensityParams(**shared, p_s=0.25, p_t0=0.25, p_tm=0.5)
        f2 = analytic_fidelity(p2, t, "two_state").f_m_star
        f3 = analytic_fidelity(p3, t, "three_state", ReadoutBasis.PARITY).f_m_star
        assert f2 > f3

    def test_monte_carlo_sweep_converges_to_analytic(self):
        # the re-optimising threshold classifier estimates the same
        # optimal-threshold quantity the integral optimisation computes
        dt = 1e-5
        k = 0.1
        n_samples = 16
        t_read = n_samples * dt
        gamma = k / t_read
        params = sr.HmmParams.from_spin_model(
            [0.5, 0, 0.5], sr.RateSet(gamma_t0=0.0, gamma_tm=gamma), dt=dt, std=1.0
        )
        batch = sr.simulate_batch(params, 6000, n_samples, seed=31)
        rep = sr.fidelity_sweep(params, batch, [t_read], "threshold", ReadoutBasis.PARITY)[0]
        balanced = 0.5 * (rep.recall_per_state["odd"] + rep.recall_per_state["even"])
        p = _params(snr=math.sqrt(n_samples), t1_tm=1 / gamma)
        p = DensityParams(
            v_s=0, v_t=1, sigma0=1 / math.sqrt(n_samples), t0=t_read,
            t1_t0=t_read, t1_tm=1 / gamma, p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        expected = analytic_fidelity(p, t_read, "two_state").f_m_star
        perr = 1 - expected
        sigma = 0.5 * math.sqrt(2 * perr * (1 - perr) / 3000)
        assert abs(balanced - expected) < 3 * sigma


def _draw_window_averages(rng, n, t, params: DensityParams):
    """Generative oracle: sample averages by drawing decay times directly."""
    draws = np.empty(n)
    sig = sigma_of_t(params.sigma0, params.t0, t)
    dv = params.v_t - params.v_s
    for i in range(n):
        u = rng.random()
        if u < params.p_s:
            mu = params.v_s
        else:
            t1 = params.t1_t0 if u < params.p_s + params.p_t0 else params.t1_tm
            s = rng.exponential(t1)
            mu = params.v_t if s > t else params.v_s + (s / t) * dv
        draws[i] = rng.normal(mu, sig)
    return draws


class TestFitHistogram:
    def test_two_state_round_trip(self):
        rng = np.random.default_rng(42)
        t = 1e-4
        truth = DensityParams(
            v_s=0.0, v_t=1.0, sigma0=1 / 6, t0=t, t1_t0=t, t1_tm=2e-4,
            p_s=0.4, p_t0=0.0, p_tm=0.6,
        )
        draws = _draw_window_averages(rng, 10000, t, truth)
        centers, counts = build_histogram(draws, 101)
        init = DensityParams(
            v_s=-0.1, v_t=1.1, sigma0=0.2, t0=t, t1_t0=t, t1_tm=3e-4,
            p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        fitted, res = fit_histogram(centers, counts, t, "two_state", init)
        assert res.converged
        assert abs(fitted.v_s - truth.v_s) <= 3 * res.sigmas[0]
        assert abs(fitted.v_t - truth.v_t) <= 3 * res.sigmas[1]
        assert abs(fitted.t1_tm - truth.t1_tm) <= 0.15 * truth.t1_tm
        assert abs(fitted.p_s - truth.p_s) < 0.05

    def test_pure_singlet_degenerates(self):
        rng = np.random.default_rng(43)
        t = 1e-4
        truth = DensityParams(
            v_s=0.0, v_t=1.0, sigma0=1 / 6, t0=t, t1_t0=t, t1_tm=2e-4,
            p_s=1.0, p_t0=0.0, p_tm=0.0,
        )
        draws = _draw_window_averages(rng, 8000, t, truth)
        # seed a couple of far counts so both peak regions are populated
        draws = np.concatenate([draws, [0.95, 1.0, 1.05]])
        centers, counts = build_histogram(draws, 101, range_=(-0.6, 1.4))
        init = DensityParams(
            v_s=0.05, v_t=0.95, sigma0=0.2, t0=t, t1_t0=t, t1_tm=2e-4,
            p_s=0.7, p_t0=0.0, p_tm=0.3,
        )
        fitted, res = fit_histogram(centers, counts, t, "two_state", init)
        assert fitted.p_s > 0.98

    def test_three_state_fits_reference_rate_data_better(self):
        # window averages simulated from the six-state model at the
        # reference-device rates; the three-state density must beat the two-state one
        t = 204e-6
        dt = 10.2e-6
        params = sr.HmmParams.from_spin_model(
            [0.25, 0.25, 0.5],
            sr.RateSet(gamma_t0=1 / 170e-6, gamma_tm=1 / 290e-3),
            dt=dt,
            std=math.sqrt(3.3 / 10.2),
        )
        batch = sr.simulate_batch(params, 10000, 20, seed=44)
        avgs = batch.samples.mean(axis=1)
        centers, counts = build_histogram(avgs, 101)
        sig = math.sqrt(3.3 / 204)
        init3 = DensityParams(
            v_s=0, v_t=1, sigma0=sig, t0=t, t1_t0=150e-6, t1_tm=100e-3,
            p_s=0.3, p_t0=0.2, p_tm=0.5,
        )
        init2 = DensityParams(
            v_s=0, v_t=1, sigma0=sig, t0=t, t1_t0=150e-6, t1_tm=100e-3,
            p_s=0.5, p_t0=0.0, p_tm=0.5,
        )
        _, res3 = fit_histogram(centers, counts, t, "three_state", init3)
        _, res2 = fit_histogram(centers, counts, t, "two_state", init2)
        assert res3.residual_norm < res2.residual_norm

    def test_sparse_histogram_rejected(self):
        init = _params()
        with pytest.raises(ValueError):
            fit_histogram([0.0, 1.0], [5, 5], 1e-4, "two_state", init)

    @pytest.mark.parametrize("which, index, value", [
        ("counts", 30, np.nan), ("bin_centers", 60, np.inf), ("bin_centers", 30, np.nan),
    ])
    def test_non_finite_data_rejected(self, which, index, value):
        t = 1e-4
        centers = np.linspace(-0.5, 1.5, 61)
        counts = np.round(1000 * combined_density(centers, t, _params(t=t), "two_state"))
        data = {"bin_centers": centers, "counts": counts}
        data[which][index] = value
        with pytest.raises(ValueError, match=f"{which} must be finite"):
            fit_histogram(centers, counts, t, "two_state", _params(t=t))
