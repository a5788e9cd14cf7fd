import cmath
import math

import numpy as np
import pytest

import oracles
from oracles import integrator_tf
from tailsitter import lti
from tailsitter.dataio import (BODE_BAND_HZ, BODE_POINTS_PER_DECADE, read_csv,
                               write_bode_csv)
from tailsitter.lti import (
    ContinuousTF,
    PlantFitParams,
    ResonanceParams,
    StabilityMargins,
    butterworth2,
    fitted_plant,
    magnitude_slope,
    margins,
    max_stable_gain,
    notch,
    nyquist_stable,
    pid_tf,
    tf_eval,
    tf_series,
)

TWO_PI = 2.0 * math.pi
UNITY = ContinuousTF([1.0], [1.0])


def _same_bits(a, b):
    """Equal to the last bit, signed zeros included."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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

    def test_overflowed_denominator_is_nan(self):
        # the denominator's real part overflows to inf - inf = NaN over a
        # zero imaginary part: NaN at a point, as on a grid and in numpy
        tf = ContinuousTF([1.0], [0.0, 0.0, 1e300, 0.0, 1e300])
        assert cmath.isnan(tf_eval(tf, 1e5))
        with np.errstate(over="ignore", invalid="ignore"):
            assert cmath.isnan(tf_eval(tf, np.array([1e5]))[0])
            assert cmath.isnan(oracles.complex_tf_eval(tf, 1e5))

    def test_requires_positive_freq(self):
        # zero, negative, NaN and infinite frequencies fail alike at a point
        # and on a grid
        for f in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite freq_hz > 0"):
                tf_eval(UNITY, f)
            with pytest.raises(ValueError, match="finite freq_hz > 0"):
                tf_eval(UNITY, np.array([1.0, f]))


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

    def test_blocked_contour_matches_whole_grid(self):
        # the contour is evaluated in four blocks; on the loop-shaping
        # candidate grid (PID gain scale x notch shape) the blocks equal one
        # tf_eval over the whole grid, and their wrap count equals the
        # winding of np.unwrap over the whole contour
        f = lti._log_grid(*lti.NYQUIST_BAND_HZ, lti.NYQUIST_POINTS_PER_DECADE, 64)
        for loop in _loop_shaping_candidates():
            whole = tf_eval(loop, f)
            assert _same_bits(np.concatenate(list(lti._nyquist_response(loop))),
                              whole)
            assert (lti.nyquist_encirclements(loop)
                    == oracles.unwrap_encirclements(whole, loop.den))

    def test_response_not_finite_has_no_count(self):
        # a PID gain of 1e300 overflows the loop's response on the grid:
        # there is no winding number, and the loop is not shown stable
        # (quietly: RuntimeWarnings fail this suite)
        loop = tf_series(fitted_plant(), pid_tf(1e300, 0.1, 0.01, 18.0))
        assert lti.nyquist_encirclements(loop) is None
        assert not nyquist_stable(loop)
        assert max_stable_gain(loop, 0.01, 8.0) == 0.0
        assert lti._encirclements([np.array([1.0, np.nan + 0j])], [1.0]) is None
        assert lti._encirclements([np.array([1.0, np.inf + 0j])], [1.0]) is None


def _loop_shaping_candidates():
    """The loop-shaping candidate grid: PID gain scale x notch shape."""
    plant = fitted_plant()
    peak_hz = PlantFitParams.reference().peak.freq_hz
    for g in (0.5, 0.7, 1.0, 1.2, 1.3, 1.5, 2.0):
        for k1, k2 in ((0.15, 0.018), (0.08, 0.01), (0.3, 0.03),
                       (0.3, 0.12), (0.15, 0.1)):
            comp = tf_series(pid_tf(g * 0.09, g * 0.1, g * 0.01, 18.0),
                             notch(peak_hz, k1, k2))
            yield tf_series(plant, comp)


def _random_identified_loops(n, seed):
    """Seeded loops of the identified-plant family: every plant parameter
    jittered within +-30 % of the reference, times the reference PID at a
    gain scale within a factor e of 1."""
    rng = np.random.default_rng(seed)
    ref = PlantFitParams.reference()

    def j(x, r=0.3):
        return float(x * math.exp(rng.uniform(-r, r)))

    for _ in range(n):
        p = PlantFitParams(
            lf_corner_hz=j(ref.lf_corner_hz),
            main_num=tuple(j(c) for c in ref.main_num),
            main_pole_tc=j(ref.main_pole_tc),
            peak=ResonanceParams(j(ref.peak.freq_hz), j(ref.peak.num_damp),
                                 j(ref.peak.den_damp)),
            anti=ResonanceParams(j(ref.anti.freq_hz), j(ref.anti.num_damp),
                                 j(ref.anti.den_damp)),
            delay_s=j(ref.delay_s))
        g = j(1.0, 1.0)
        yield tf_series(fitted_plant(p), pid_tf(g * 0.09, g * 0.1, g * 0.01, 18.0))


def _shipped_notch_free_loop(plant_cls):
    """Fitted plant times PID of the shipped pipeline, as design_pipeline
    builds it for its notch-free gain sweep, with the sweep run against
    ``plant_cls``."""
    from tailsitter.harness import PipelineConfig
    from tailsitter.sysid import estimate_frf, fit_plant_model, sweep_experiment

    cfg = PipelineConfig()
    plant = plant_cls(cfg.true_params)
    sw = sweep_experiment(plant, cfg.chirp, noise_std=cfg.noise_std,
                          seed=cfg.seed)
    frf = estimate_frf(sw.total_input, sw.measured, cfg.n_freqs,
                       cfg.chirp.f0, cfg.chirp.f1,
                       cycles_per_window=cfg.cycles_per_window,
                       correct_hold=True)
    fit = fit_plant_model(frf, seed=cfg.seed)
    return tf_series(fitted_plant(fit.params),
                     pid_tf(cfg.kp, cfg.ki, cfg.kd, cfg.deriv_corner_hz))


@pytest.fixture(scope="module")
def shipped_notch_free_loop():
    from tailsitter.plant import LinearAxisPlant

    return _shipped_notch_free_loop(LinearAxisPlant)


class TestMaxStableGain:
    def test_shipped_notch_free_loop_pinned(self, shipped_notch_free_loop):
        from tailsitter.harness import _max_stable_gain_crossover

        base = shipped_notch_free_loop
        assert repr(max_stable_gain(base, 0.01, 8.0)) == "0.2967041685917322"
        g, fc = _max_stable_gain_crossover(base)
        assert repr((g, fc)) == "(0.2967041685917322, 1.3522359485169553)"

    def test_plant_rate_cascade_keeps_its_pin(self):
        # the sweep against the plant-rate cascade gives the gain pinned
        # before the plant was realized at the control rate; the two differ
        # by 6.3e-9 relative, the fit's rounding
        from tailsitter.harness import _max_stable_gain_crossover

        base = _shipped_notch_free_loop(oracles.CascadeAxisPlant)
        assert repr(max_stable_gain(base, 0.01, 8.0)) == "0.29670416673016076"
        g, fc = _max_stable_gain_crossover(base)
        assert repr((g, fc)) == "(0.29670416673016076, 1.3522359485169553)"

    def test_shipped_verdicts_match_fresh_evaluation(self, shipped_notch_free_loop):
        # the scaled response k h gives the verdict of evaluating k L afresh
        base = shipped_notch_free_loop
        stable = lti._scaled_nyquist(base)
        gains = np.geomspace(0.01, 8.0, 200)
        verdicts = [stable(k) for k in gains]
        assert verdicts == [nyquist_stable(k * base) for k in gains]
        assert any(verdicts) and not all(verdicts)

    def test_candidate_verdicts_match_fresh_evaluation(self):
        gains = np.geomspace(0.01, 8.0, 12)
        for loop in _loop_shaping_candidates():
            stable = lti._scaled_nyquist(loop)
            assert ([stable(k) for k in gains]
                    == [nyquist_stable(k * loop) for k in gains])

    def test_stable_at_hi_returns_hi(self):
        assert max_stable_gain(ContinuousTF([10.0], [1.0, 1.0]), 0.01, 8.0) == 8.0

    def test_unstable_at_lo_returns_zero(self):
        from tailsitter.harness import _max_stable_gain_crossover

        # 1000/s at the smallest gain, with 0.3 s of delay: many encirclements
        loop = ContinuousTF([1e5], [0.0, 1.0], 0.3)
        assert not nyquist_stable(0.01 * loop)
        assert max_stable_gain(loop, 0.01, 8.0) == 0.0
        assert _max_stable_gain_crossover(loop) == (0.0, None)

    @pytest.mark.parametrize("lo, hi", [(0.0, 8.0), (8.0, 8.0), (1.0, 0.5)])
    def test_band_validation(self, lo, hi):
        with pytest.raises(ValueError):
            max_stable_gain(ContinuousTF([10.0], [1.0, 1.0]), lo, hi)


class TestFrequencyResponse:
    """The log grid of the Bode export."""

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_bode_csv(tmp_path / "bode.csv", UNITY, 1.0, 1.0)

    def test_density(self, tmp_path):
        _, rows = read_csv(write_bode_csv(tmp_path / "bode.csv", UNITY, 1.0, 100.0))
        assert rows.shape[0] >= 200
        assert np.all(np.diff(rows[:, 0]) > 0.0)


# Transfer functions whose responses hold exact zeros, negative and zero
# coefficients, integrators and delays: the signed-zero corners.
EDGE_TFS = (
    UNITY,
    ContinuousTF([-1.0], [1.0]),
    ContinuousTF([1.0], [-1.0]),
    ContinuousTF([2.0, 0.0, -1.0], [-1.0, 0.0, 0.25]),
    ContinuousTF([10.0], [1.0, 1.0]),
    ContinuousTF([-2.0], [0.0, 1.0], 0.02),
    ContinuousTF([-1.0, 0.0, 3.0], [1.0, 0.0, 1e-3]),
    ContinuousTF([0.0, -1.0], [1.0]),
    ContinuousTF([-0.0, 0.0, 2.0], [1.0, -0.0, 0.5], 0.004),
    ContinuousTF([1.0, -0.5], [0.0, 0.0, 1.0], 0.1),
    -1.0 * fitted_plant(),
)
ORACLE_GRIDS = {
    "nyquist": lti._NYQUIST_GRID,
    "margins": lti._log_grid(*lti.MARGINS_BAND_HZ, lti.MARGINS_POINTS_PER_DECADE, 16),
    "bode": lti._log_grid(*BODE_BAND_HZ, BODE_POINTS_PER_DECADE),
}


def _oracle_loops():
    yield from _loop_shaping_candidates()
    yield from _random_identified_loops(20, 30)
    yield from EDGE_TFS


class TestRealArithmetic:
    """The real-arithmetic evaluator and the wrap count give the floats and
    counts of numpy's complex evaluation and np.unwrap (``oracles``), to
    the last bit, so a drift on another Python or numpy build fails here."""

    def test_point_matches_complex_oracle(self):
        rng = np.random.default_rng(31)
        for loop in _oracle_loops():
            for tf in (loop, ContinuousTF(loop.num, loop.den, 0.0)):
                for f in ORACLE_GRIDS.values():
                    for x in rng.choice(f, 8).tolist():
                        got = tf_eval(tf, x)
                        assert type(got) is complex
                        assert _same_bits(got, oracles.complex_tf_eval(tf, x)), (tf, x)

    def test_grid_matches_complex_oracle(self):
        for loop in _oracle_loops():
            for f in ORACLE_GRIDS.values():
                assert _same_bits(tf_eval(loop, f), oracles.complex_tf_eval(loop, f))

    def test_signed_zero_parts_reach_the_result(self):
        # the corners are live: some edge responses carry an exact zero part
        parts = [z for tf in EDGE_TFS for x in (0.3, 7.0, 40.0)
                 for z in (tf_eval(tf, x).real, tf_eval(tf, x).imag)]
        assert any(math.copysign(1.0, z) < 0.0 for z in parts if z == 0.0)
        assert any(math.copysign(1.0, z) > 0.0 for z in parts if z == 0.0)

    def test_divide_matches_numpy(self):
        rng = np.random.default_rng(32)
        vals = np.concatenate([rng.normal(size=400) * 10.0 ** rng.integers(-8, 8, 400),
                               [0.0, -0.0, 1.0, -1.0]])
        for _ in range(2000):
            ar, ai, br, bi = rng.choice(vals, 4).tolist()
            if br == bi == 0.0:
                continue
            want = complex(np.asarray(complex(ar, ai)) / np.asarray(complex(br, bi)))
            assert _same_bits(complex(*lti._divide(ar, ai, br, bi)), want)

    def test_winding_matches_unwrap_oracle(self):
        gains = np.geomspace(0.01, 8.0, 25)
        for loop in _oracle_loops():
            h = oracles.complex_tf_eval(loop, lti._NYQUIST_GRID)
            blocks = list(lti._nyquist_response(loop))
            limit = max_stable_gain(loop, 0.01, 8.0)
            near = []
            if 0.0 < limit < 8.0:
                near = [limit, limit * (1.0 + 1e-12), limit * (1.0 - 1e-12),
                        math.nextafter(limit, math.inf)]
            for k in [*gains.tolist(), *near]:
                assert (lti._encirclements((k * hb for hb in blocks), loop.den)
                        == oracles.unwrap_encirclements(k * h, loop.den)), (loop, k)

    def test_wraps_across_block_boundaries(self):
        # the count is the same when every wrap falls on a block boundary
        wrapped = 0
        for loop in _loop_shaping_candidates():
            h = oracles.complex_tf_eval(loop, lti._NYQUIST_GRID)
            at = np.flatnonzero(np.abs(np.diff(np.angle(h + 1.0))) > math.pi) + 1
            wrapped += at.size > 0
            assert (lti._encirclements(np.split(h, at), loop.den)
                    == oracles.unwrap_encirclements(h, loop.den))
        assert wrapped >= 10

    def test_unwrap_boundary_steps(self):
        # 1 + h steps from angle -t to angle pi (or -pi, from a tiny
        # negative imaginary part).  np.unwrap leaves a step of exactly
        # +-pi alone, and one of the float after pi too (it adds to pi to
        # exactly 2 pi), and unwraps a larger one; so does the count
        ulp = math.nextafter(math.pi, math.inf) - math.pi
        counts = []
        for t, end in ((0.0, 0.0), (-1e-300, -1e-300), (ulp, 0.0),
                       (2.0 * ulp, 0.0), (-ulp, -1e-300)):
            h = np.array([complex(1.0, -t), complex(-1.0, end)]) - 1.0
            count = lti._encirclements([h], [1.0])
            assert count == oracles.unwrap_encirclements(h, [1.0]), (t, end)
            counts.append(count)
        # steps pi, -pi, the float after pi: none wraps; pi + 2 ulp and
        # -pi - ulp wrap
        assert counts == [1, -1, 1, -1, 1]

    def test_margins_bisects_on_floats(self, monkeypatch):
        # margins refines its crossovers at Python-float frequencies: the
        # evaluator sees a float or a 1-D grid, never a 0-d array
        seen = []
        polyval = lti._polyval_jw

        def recorded(coeffs, w):
            seen.append(type(w) if type(w) is float else np.ndim(w))
            return polyval(coeffs, w)

        monkeypatch.setattr(lti, "_polyval_jw", recorded)
        loop = next(_loop_shaping_candidates())
        m = margins(loop)
        assert m.gain_crossover_hz is not None and m.phase_crossover_hz is not None
        assert float in seen and 1 in seen
        assert set(seen) == {float, 1}
