import cmath
import math

import numpy as np
import pytest

from oracles import integrator_tf
from tailsitter.dataio import read_csv, write_bode_csv
from tailsitter.lti import (
    ContinuousTF,
    PlantFitParams,
    StabilityMargins,
    butterworth2,
    fitted_plant,
    magnitude_slope,
    margins,
    notch,
    nyquist_stable,
    pid_tf,
    tf_eval,
    tf_series,
)

TWO_PI = 2.0 * math.pi
UNITY = ContinuousTF([1.0], [1.0])


def eval_oracle(num, den, delay, f):
    """Independent response evaluation via Horner on complex s."""
    s = 1j * TWO_PI * f
    n = sum(c * s**k for k, c in enumerate(num))
    d = sum(c * s**k for k, c in enumerate(den))
    return n / d * cmath.exp(-s * delay)


class TestEval:
    def test_integrator(self):
        h = tf_eval(integrator_tf(), 1.0 / TWO_PI)
        assert abs(abs(h) - 1.0) < 1e-12
        assert abs(math.degrees(cmath.phase(h)) + 90.0) < 1e-9

    def test_pure_delay_phase(self):
        d = ContinuousTF([1.0], [1.0], 0.021)
        h = tf_eval(d, 10.0)
        assert abs(abs(h) - 1.0) < 1e-12
        phase = math.degrees(cmath.phase(h))
        assert abs(phase - (-75.6 + 360.0)) < 1e-9 or abs(phase + 75.6) < 1e-9

    def test_published_lowpass_corner(self):
        # the flight-stack filter written with its published coefficients
        lf = ContinuousTF([1.0], [1.0, 0.00321, 0.00000531])
        mag_db = 20.0 * math.log10(abs(tf_eval(lf, 69.0)))
        assert abs(mag_db + 3.0) < 0.25

    def test_pole_on_axis_flagged(self):
        osc = ContinuousTF([1.0], [1.0, 0.0, 1.0 / (TWO_PI * 5.0) ** 2])
        h = tf_eval(osc, 5.0)
        assert np.isinf(abs(h))

    def test_requires_positive_freq(self):
        with pytest.raises(ValueError):
            tf_eval(UNITY, 0.0)


class TestSeries:
    def test_unity_neutral(self):
        a = butterworth2(12.0)
        b = tf_series(a, UNITY)
        np.testing.assert_allclose(a.num, b.num)
        np.testing.assert_allclose(a.den, b.den)

    def test_eval_homomorphism(self):
        rng = np.random.default_rng(21)
        a = tf_series(butterworth2(9.0), notch(14.0, 0.3, 0.1))
        b = tf_series(integrator_tf(2.5), ContinuousTF([1.0], [1.0], 0.004))
        ab = tf_series(a, b)
        for _ in range(1000):
            f = float(rng.uniform(0.01, 80.0))
            lhs = tf_eval(ab, f)
            rhs = tf_eval(a, f) * tf_eval(b, f)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_delays_add(self):
        a = ContinuousTF([1.0], [1.0], 0.01)
        b = ContinuousTF([1.0], [1.0], 0.011)
        assert tf_series(a, b).delay == pytest.approx(0.021)

    def test_associative_commutative(self):
        a = butterworth2(10.0)
        b = notch(14.0, 0.2, 0.05)
        c = integrator_tf(3.0)
        p1 = tf_series(tf_series(a, b), c)
        p2 = tf_series(a, tf_series(c, b))
        np.testing.assert_allclose(p1.num, p2.num, atol=1e-12)
        np.testing.assert_allclose(p1.den, p2.den, atol=1e-12)


class TestButterworth2:
    def test_matches_published_coefficients_within_2pct(self):
        b = butterworth2(69.0)
        assert b.den[0] == 1.0
        assert abs(b.den[1] / 0.00321 - 1.0) < 0.02
        assert abs(b.den[2] / 0.00000531 - 1.0) < 0.02

    def test_dc_gain_exactly_one(self):
        b = butterworth2(42.0)
        assert b.num[0] / b.den[0] == 1.0

    def test_corner_is_minus_3db(self):
        for fc in (5.0, 18.0, 69.0, 100.0):
            mag_db = 20.0 * math.log10(abs(tf_eval(butterworth2(fc), fc)))
            assert abs(mag_db + 3.0103) < 1e-3

    def test_maximally_flat(self):
        rng = np.random.default_rng(22)
        b = butterworth2(18.0)
        for _ in range(200):
            f = float(rng.uniform(0.5, 180.0))
            x = f / 18.0
            assert abs(abs(tf_eval(b, f)) ** 2 - 1.0 / (1.0 + x**4)) < 1e-9


class TestNotch:
    def test_center_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            f0 = float(rng.uniform(2.0, 50.0))
            k1 = float(rng.uniform(0.05, 0.6))
            k2 = k1 * float(rng.uniform(0.05, 0.9))
            h = tf_eval(notch(f0, k1, k2), f0)
            assert abs(abs(h) - k2 / k1) < 1e-9
            assert abs(cmath.phase(h)) < 1e-9

    def test_reference_depth(self):
        h = tf_eval(notch(14.0, 0.2, 0.05), 14.0)
        assert abs(20.0 * math.log10(abs(h)) + 12.0412) < 1e-3

    def test_unity_skirts(self):
        n = notch(14.0, 0.2, 0.05)
        assert n.num[0] / n.den[0] == 1.0  # DC
        assert n.num[-1] / n.den[-1] == 1.0  # high-frequency limit
        assert abs(abs(tf_eval(n, 1e5)) - 1.0) < 1e-6

    def test_phase_lag_at_half_center(self):
        # independent oracle: direct complex arithmetic at 7 Hz
        f0, k1, k2 = 14.0, 0.2, 0.05
        x = 7.0 / f0
        oracle = cmath.phase(complex(1 - x * x, k2 * x) /
                             complex(1 - x * x, k1 * x))
        got = cmath.phase(tf_eval(notch(f0, k1, k2), 7.0))
        assert abs(got - oracle) < 1e-12
        assert -5.8 < math.degrees(oracle) < -3.7

    def test_log_symmetry(self):
        n = notch(14.0, 0.25, 0.07)
        rng = np.random.default_rng(24)
        for _ in range(100):
            r = float(rng.uniform(1.0, 4.0))
            up = 20.0 * math.log10(abs(tf_eval(n, 14.0 * r)))
            dn = 20.0 * math.log10(abs(tf_eval(n, 14.0 / r)))
            assert abs(up - dn) < 1e-6

    def test_rejects_amplifying_shape(self):
        with pytest.raises(ValueError):
            notch(14.0, 0.05, 0.2)


class TestPid:
    def test_pure_proportional(self):
        c = pid_tf(0.7, 0.0, 0.0, 18.0)
        for f in (0.1, 1.0, 10.0, 100.0):
            assert abs(tf_eval(c, f) - 0.7) < 1e-9

    def test_low_frequency_integral_asymptote(self):
        c = pid_tf(0.09, 0.1, 0.01, 18.0)
        f = 1e-4
        assert abs(abs(tf_eval(c, f)) - 0.1 / (TWO_PI * f)) < 1e-3 * 0.1 / (TWO_PI * f)

    def test_derivative_branch_rolls_off(self):
        c = pid_tf(0.09, 0.1, 0.01, 18.0)
        # derivative branch alone: (C - kp - ki/s); past the corner its
        # magnitude must fall
        def deriv_mag(f):
            s = 1j * TWO_PI * f
            return abs(tf_eval(c, f) - 0.09 - 0.1 / s)

        assert deriv_mag(120.0) < deriv_mag(30.0)
        assert deriv_mag(30.0) < TWO_PI * 30.0 * 0.01  # below the unfiltered line

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            pid_tf(0.0, 0.0, 0.0, 18.0)


class TestFittedPlant:
    def test_resonance_parameters_reproduce_published_coefficients(self):
        ref = PlantFitParams.reference()
        peak_tf = ref.peak.tf()
        np.testing.assert_allclose(peak_tf.num, [1.0, 0.00239, 0.000129],
                                   rtol=1e-12)
        np.testing.assert_allclose(peak_tf.den, [1.0, 0.000341, 0.000129],
                                   rtol=1e-12)
        anti_tf = ref.anti.tf()
        np.testing.assert_allclose(anti_tf.num, [1.0, 0.000118, 0.0000348],
                                   rtol=1e-12)
        np.testing.assert_allclose(anti_tf.den, [1.0, 0.0013, 0.0000348],
                                   rtol=1e-12)

    def test_mode_frequencies(self):
        ref = PlantFitParams.reference()
        assert abs(ref.peak.freq_hz - 1.0 / math.sqrt(0.000129) / TWO_PI) < 1e-12
        assert abs(ref.anti.freq_hz - 1.0 / math.sqrt(0.0000348) / TWO_PI) < 1e-12
        assert abs(ref.peak.freq_hz - 14.0128) < 1e-3
        assert abs(ref.anti.freq_hz - 26.9793) < 1e-3

    def test_composition_against_factor_oracle(self):
        p = fitted_plant()
        factors = [
            ([1.0], [1.0, math.sqrt(2.0) / (TWO_PI * 69.0), 1.0 / (TWO_PI * 69.0) ** 2], 0.0),
            ([260.0, 3.764, 0.01362], [0.0, 1.0, 0.0637], 0.0),
            ([1.0, 0.00239, 0.000129], [1.0, 0.000341, 0.000129], 0.0),
            ([1.0, 0.000118, 0.0000348], [1.0, 0.0013, 0.0000348], 0.0),
            ([1.0], [1.0], 0.021),
        ]
        for f in (1.0, 6.8, 14.0128, 26.9793, 40.0):
            oracle = 1.0
            for num, den, delay in factors:
                oracle *= eval_oracle(num, den, delay, f)
            assert abs(tf_eval(p, f) - oracle) < 1e-9 * abs(oracle)

    def test_peak_dominates_anti(self):
        p = fitted_plant()
        assert abs(tf_eval(p, 14.0128)) > 10.0 * abs(tf_eval(p, 26.9793))

    def test_delay_range_validated(self):
        with pytest.raises(ValueError):
            PlantFitParams(delay_s=0.2)


class TestMargins:
    def test_pure_integrator_gain(self):
        m = margins(integrator_tf(10.0), 0.1, 50.0)
        assert abs(m.gain_crossover_hz - 10.0 / TWO_PI) < 1e-4
        assert abs(m.phase_margin_deg - 90.0) < 1e-3

    def test_integrator_with_delay(self):
        m = margins(ContinuousTF([10.0], [0.0, 1.0], 0.021), 0.1, 50.0)
        expected_pm = 90.0 - 360.0 * (10.0 / TWO_PI) * 0.021
        assert abs(m.phase_margin_deg - expected_pm) < 1e-3

    def test_margin_consistency(self):
        loop = tf_series(fitted_plant(),
                         tf_series(pid_tf(0.09, 0.1, 0.01, 18.0),
                                   notch(14.0128, 0.15, 0.018)))
        m = margins(loop)
        assert m.has_gain_crossover
        mag_db = 20.0 * math.log10(abs(tf_eval(loop, m.gain_crossover_hz)))
        assert abs(mag_db) < 1e-3
        # recompute the unwrapped phase independently: rational part brute
        # unwrapped on a fine ladder up to fc, delay added analytically
        f = np.linspace(1e-3, m.gain_crossover_hz, 20000)
        rational = ContinuousTF(loop.num, loop.den, 0.0)
        ph = np.degrees(np.unwrap(np.angle(tf_eval(rational, f))))
        pm_oracle = 180.0 + ph[-1] - 360.0 * m.gain_crossover_hz * loop.delay
        assert abs(m.phase_margin_deg - pm_oracle) < 1e-3
        # pinned to the last bit: the reference design loop, and a loop
        # whose phase never reaches -180 deg
        assert m == StabilityMargins(7.662492150494366, 33.776559811351234,
                                     11.066833411482854, 2.2227288542545436)
        assert margins(integrator_tf(10.0), 0.1, 50.0) == StabilityMargins(
            1.5915493936708942, 90.0, None, None)

    def test_no_crossover_is_explicit(self):
        m = margins(ContinuousTF([0.5], [1.0]), 0.1, 10.0)
        assert not m.has_gain_crossover
        assert m.gain_crossover_hz is None
        assert m.phase_margin_deg is None

    def test_gain_margin_at_phase_crossover(self):
        loop = tf_series(fitted_plant(),
                         tf_series(pid_tf(0.09, 0.1, 0.01, 18.0),
                                   notch(14.0128, 0.15, 0.018)))
        m = margins(loop)
        assert m.phase_crossover_hz is not None
        h = tf_eval(loop, m.phase_crossover_hz)
        assert abs(-20.0 * math.log10(abs(h)) - m.gain_margin_db) < 1e-6


class TestSlope:
    def test_integrator_slope(self):
        assert abs(magnitude_slope(integrator_tf(), 0.5, 20.0) + 20.0) < 0.01

    def test_flat(self):
        assert abs(magnitude_slope(ContinuousTF([2.0], [1.0]), 0.5, 20.0)) < 1e-9


class TestNyquist:
    def test_first_order_stable(self):
        assert nyquist_stable(ContinuousTF([10.0], [1.0, 1.0]))

    def test_delayed_integrator_unstable_at_high_gain(self):
        assert nyquist_stable(ContinuousTF([10.0], [0.0, 1.0], 0.021))
        assert not nyquist_stable(ContinuousTF([10.0], [0.0, 1.0], 0.3))

    def test_design_loop_verdicts(self):
        pid = pid_tf(0.09, 0.1, 0.01, 18.0)
        plant = fitted_plant()
        with_notch = tf_series(plant, tf_series(pid, notch(14.0128, 0.15, 0.018)))
        without = tf_series(plant, pid)
        assert nyquist_stable(with_notch)
        assert not nyquist_stable(without)


class TestFrequencyResponse:
    """The log grid of the Bode export."""

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_bode_csv(tmp_path / "bode.csv", UNITY, 1.0, 1.0)

    def test_density(self, tmp_path):
        _, rows = read_csv(write_bode_csv(tmp_path / "bode.csv", UNITY, 1.0, 100.0))
        assert rows.shape[0] >= 200
        assert np.all(np.diff(rows[:, 0]) > 0.0)
