import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import chirp_instantaneous_freq, frf_of_tf, integrator_tf
from tailsitter import sysid
from tailsitter.harness import PipelineConfig
from tailsitter.lti import PlantFitParams, ResonanceParams, fitted_plant, tf_eval
from tailsitter.plant import CONTROL_RATE_HZ, FlexibleModeParams, LinearAxisPlant
from tailsitter.sysid import (
    ChirpConfig,
    FRFEstimate,
    _FitObjective,
    _positive,
    chirp,
    estimate_frf,
    fit_plant_model,
    sweep_experiment,
)


@pytest.fixture(scope="module")
def reference_sweep():
    """One noiseless closed-loop sweep against the reference plant, shared."""
    ref = PlantFitParams.reference()
    plant = LinearAxisPlant(ref)
    cfg = ChirpConfig(1.0, 60.0, 60.0, 0.1)
    return sweep_experiment(plant, cfg, seed=1)


def _pipeline_frf(cfg: PipelineConfig):
    """The sweep and hold-corrected FRF that design_pipeline fits."""
    plant = LinearAxisPlant(cfg.true_params)
    sw = sweep_experiment(plant, cfg.chirp,
                          noise_std=cfg.noise_std, seed=cfg.seed)
    return estimate_frf(sw.total_input, sw.measured, cfg.n_freqs,
                        cfg.chirp.f0, cfg.chirp.f1,
                        cycles_per_window=cfg.cycles_per_window,
                        correct_hold=True)


def _cost(objective, z):
    """The fit costs of the rows of the ordered stack z: the sums of squares
    of the objective's residual rows."""
    return np.sum(objective(z) ** 2, axis=1)


def _log_decode(x):
    """The positive parameters of the log-parameter vector x, as the fit
    decoded it before it moved the ordered vector: every entry clipped to
    +-40 before the exponent, and the delay clamped to 0.1 s."""
    e = np.exp(np.clip(x, -40.0, 40.0))
    e[10] = min(e[10], 0.1)
    return e


def _params(e):
    """The PlantFitParams of the positive-parameter vector e."""
    e = e.tolist()
    return PlantFitParams(
        lf_corner_hz=sysid.KNOWN_LF_CORNER_HZ, main_num=tuple(e[0:3]),
        main_pole_tc=e[3], peak=ResonanceParams(*e[4:7]),
        anti=ResonanceParams(*e[7:10]), delay_s=e[10])


@pytest.fixture(scope="module")
def pipeline_frf():
    """The FRF of the shipped pipeline config (noiseless, seed 3)."""
    return _pipeline_frf(PipelineConfig())


class TestChirp:
    def test_starts_at_zero(self):
        u = chirp(ChirpConfig(1.0, 60.0, 60.0, 0.5))
        assert u[0] == 0.0

    def test_instantaneous_frequency_endpoints(self):
        cfg = ChirpConfig(1.0, 60.0, 60.0, 0.5)
        assert chirp_instantaneous_freq(cfg, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert chirp_instantaneous_freq(cfg, 60.0) == pytest.approx(60.0, rel=1e-12)

    def test_zero_crossing_frequency_track(self):
        cfg = ChirpConfig(1.0, 60.0, 60.0, 1.0)
        x = chirp(cfg)
        t = np.arange(x.size) / CONTROL_RATE_HZ
        # upward crossings, linearly interpolated between samples (raw
        # sample-index crossings quantize the period badly near 60 Hz)
        idx = np.flatnonzero((x[:-1] < 0.0) & (x[1:] >= 0.0))
        frac = -x[idx] / (x[idx + 1] - x[idx])
        crossings = t[idx] + frac / CONTROL_RATE_HZ
        periods = np.diff(crossings)
        f_est = 1.0 / periods
        t_mid = 0.5 * (crossings[:-1] + crossings[1:])
        mask = (t_mid > 1.0) & (t_mid < 55.0)
        f_true = chirp_instantaneous_freq(cfg, t_mid[mask])
        assert np.max(np.abs(f_est[mask] / f_true - 1.0)) < 0.01

    def test_degenerate_single_tone(self):
        cfg = ChirpConfig(5.0, 5.0, 2.0, 1.0)
        u = chirp(cfg)
        t = np.arange(u.size) / CONTROL_RATE_HZ
        np.testing.assert_allclose(u, np.sin(2 * np.pi * 5.0 * t),
                                   atol=1e-12)

    def test_band_energy_coverage(self):
        cfg = ChirpConfig(1.0, 60.0, 60.0, 1.0)
        u = chirp(cfg)
        spec = np.abs(np.fft.rfft(u)) ** 2
        freqs = np.fft.rfftfreq(u.size, 1.0 / 250.0)
        band = (freqs >= 0.8 * cfg.f0) & (freqs <= 1.25 * cfg.f1)
        assert np.sum(spec[band]) / np.sum(spec) >= 0.99

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChirpConfig(f0=10.0, f1=5.0)
        with pytest.raises(ValueError):
            ChirpConfig(f0=1.0, f1=200.0)


class TestEstimateFRF:
    def test_identity_system(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=5000)
        frf = estimate_frf(x, x, n_freqs=24, f_lo=2.0, f_hi=50.0)
        np.testing.assert_allclose(np.abs(frf.response), 1.0, atol=1e-9)
        np.testing.assert_allclose(frf.coherence, 1.0, atol=1e-9)

    def test_pure_delay(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=10000)
        u = x[5:]
        y = x[:-5]  # y delayed by 5 samples (20 ms)
        frf = estimate_frf(u, y, n_freqs=30, f_lo=1.0, f_hi=40.0)
        below = frf.freqs <= 30.0
        np.testing.assert_allclose(np.abs(frf.response)[below], 1.0, atol=0.02)
        expected = -360.0 * frf.freqs * 0.02
        got = frf.unwrapped_phase_deg()
        assert np.max(np.abs(got[below] - expected[below])) < 2.0

    def test_estimator_unbiased_on_linear_system(self):
        # the unbiasedness property needs every feature resolvable at the
        # configured window; the structural modes are ~1 % wide, so test on
        # the plant with those sections cancelled (num_damp == den_damp)
        from tailsitter.lti import ResonanceParams

        smooth = PlantFitParams(peak=ResonanceParams(14.0128, 0.2, 0.2),
                                anti=ResonanceParams(26.979, 0.2, 0.2))
        plant = LinearAxisPlant(smooth)
        sw = sweep_experiment(plant, ChirpConfig(1.0, 60.0, 60.0, 0.1),
                              seed=1)
        frf = estimate_frf(sw.total_input, sw.measured, n_freqs=64,
                           f_lo=1.0, f_hi=60.0, correct_hold=True)
        h_true = tf_eval(fitted_plant(smooth), frf.freqs)
        band = (frf.freqs >= 1.5) & (frf.freqs <= 50.0) & frf.trusted
        err_db = 20.0 * np.log10(np.abs(frf.response / h_true))
        err_ph = np.degrees(np.angle(frf.response / h_true))
        assert np.max(np.abs(err_db[band])) < 1.0
        assert np.max(np.abs(err_ph[band])) < 6.0

    def test_zero_excitation_gives_zero_coherence(self):
        rng = np.random.default_rng(53)
        u = np.zeros(4000)
        y = rng.normal(size=4000)
        frf = estimate_frf(u, y, n_freqs=16, f_lo=2.0, f_hi=40.0)
        assert np.all(frf.coherence == 0.0)
        assert not np.any(frf.trusted)

    def test_amplitude_linearity(self):
        # doubling the injection amplitude quadruples the input power
        # spectrum plateau (and leaves H unchanged)
        ref = PlantFitParams.reference()
        cfg1 = ChirpConfig(1.0, 60.0, 30.0, 0.05)
        cfg2 = ChirpConfig(1.0, 60.0, 30.0, 0.10)
        out = []
        for cfg in (cfg1, cfg2):
            plant = LinearAxisPlant(ref)
            sw = sweep_experiment(plant, cfg, seed=2)
            u = sw.total_input
            spec = np.abs(np.fft.rfft(u * np.hanning(u.size))) ** 2
            freqs = np.fft.rfftfreq(u.size, 1.0 / 250.0)
            band = (freqs > 5.0) & (freqs < 40.0)
            out.append(np.mean(spec[band]))
        assert out[1] / out[0] == pytest.approx(4.0, rel=0.10)

    def test_short_series_rejected(self):
        # no 16-sample window fits: a clear error, not a division by zero
        x = np.arange(10.0)
        with pytest.raises(ValueError, match="shorter than the 16-sample"):
            estimate_frf(x, x, n_freqs=4, f_lo=2.0, f_hi=40.0)
        x = np.sin(np.arange(16.0))
        frf = estimate_frf(x, x, n_freqs=4, f_lo=2.0, f_hi=40.0)
        assert frf.freqs.size == 4

    @pytest.mark.parametrize("u, y, f_hi, match", [
        (np.ones((64, 2)), np.ones((64, 2)), 40.0, "1-D"),
        (np.ones(64), np.r_[np.ones(63), np.nan], 40.0, "finite"),
        (np.r_[np.ones(63), np.inf], np.ones(64), 40.0, "finite"),
        (np.ones(64), np.ones(65), 40.0, "same length"),
        # the arrays carry no rate: the band is checked against the control rate
        (np.ones(64), np.ones(64), 0.5 * CONTROL_RATE_HZ, "Nyquist"),
    ])
    def test_malformed_input_rejected(self, u, y, f_hi, match):
        with pytest.raises(ValueError, match=match):
            estimate_frf(u, y, n_freqs=4, f_lo=2.0, f_hi=f_hi)

    def test_coherence_monotone_in_noise(self):
        ref = PlantFitParams.reference()
        cfg = ChirpConfig(1.0, 60.0, 20.0, 0.1)
        means = []
        for noise in (0.0, 0.01, 0.05, 0.2):
            vals = []
            for seed in range(10):
                plant = LinearAxisPlant(ref)
                sw = sweep_experiment(plant, cfg, noise_std=noise,
                                      seed=seed)
                frf = estimate_frf(sw.total_input, sw.measured, n_freqs=24,
                                   f_lo=1.5, f_hi=50.0)
                vals.append(np.mean(frf.coherence))
            means.append(np.mean(vals))
        assert all(a >= b - 1e-3 for a, b in zip(means, means[1:]))


class TestFit:
    def test_recovers_exact_synthetic_frf(self):
        ref = PlantFitParams.reference()
        freqs = np.logspace(0.0, math.log10(60.0), 64)
        frf = frf_of_tf(fitted_plant(ref), freqs)
        fit = fit_plant_model(frf, seed=5)
        assert fit.converged
        assert abs(fit.params.peak.freq_hz / ref.peak.freq_hz - 1.0) < 0.02
        assert abs(fit.params.anti.freq_hz / ref.anti.freq_hz - 1.0) < 0.02
        assert abs(fit.params.delay_s / ref.delay_s - 1.0) < 0.15

    def test_fit_idempotence(self):
        ref = PlantFitParams.reference()
        freqs = np.logspace(0.0, math.log10(60.0), 64)
        fit1 = fit_plant_model(frf_of_tf(fitted_plant(ref), freqs),
                               seed=6)
        fit2 = fit_plant_model(frf_of_tf(fitted_plant(fit1.params), freqs),
                               seed=6)
        h1 = tf_eval(fitted_plant(fit1.params), freqs)
        h2 = tf_eval(fitted_plant(fit2.params), freqs)
        err_db = 20.0 * np.log10(np.abs(h2 / h1))
        assert np.max(np.abs(err_db)) < 1.0

    def test_noisy_roundtrip_relaxed_tolerances(self):
        ref = PlantFitParams.reference()
        plant = LinearAxisPlant(ref)
        sw = sweep_experiment(plant, ChirpConfig(1.0, 60.0, 60.0, 0.1),
                              noise_std=0.005, seed=9)
        frf = estimate_frf(sw.total_input, sw.measured, 64, 1.0, 60.0,
                           cycles_per_window=60.0, correct_hold=True)
        fit = fit_plant_model(frf, seed=9)
        assert fit.converged
        assert abs(fit.params.peak.freq_hz / ref.peak.freq_hz - 1.0) < 0.04
        assert abs(fit.params.delay_s / ref.delay_s - 1.0) < 0.30

    def test_integrator_degeneracy(self):
        freqs = np.logspace(0.0, math.log10(60.0), 64)
        frf = frf_of_tf(integrator_tf(35.0), freqs)
        fit = fit_plant_model(frf, seed=7)
        h = tf_eval(fitted_plant(fit.params), freqs)
        err_db = 20.0 * np.log10(np.abs(h / frf.response))
        assert np.max(np.abs(err_db)) < 0.5
        assert abs(fit.params.main_num[0] / 35.0 - 1.0) < 0.05

    def test_untrusted_majority_rejected(self):
        freqs = np.logspace(0.0, math.log10(60.0), 32)
        frf = FRFEstimate(freqs, np.ones(32, dtype=complex),
                          np.full(32, 0.1))
        with pytest.raises(ValueError):
            fit_plant_model(frf)

    def test_zero_response_bin(self):
        # one bin with no response and no coherence, as estimate_frf emits
        # when a bin's windows carry no energy: the fit must not see log(0)
        ref = PlantFitParams.reference()
        freqs = np.logspace(0.0, math.log10(60.0), 64)
        exact = frf_of_tf(fitted_plant(ref), freqs)
        h = exact.response.copy()
        h[40] = 0.0
        coherence = exact.coherence.copy()
        coherence[40] = 0.0
        frf = FRFEstimate(freqs, h, coherence)
        assert np.isfinite(_cost(_FitObjective(frf), np.zeros(11)))
        fit = fit_plant_model(frf)
        assert fit.converged
        assert abs(fit.params.peak.freq_hz / ref.peak.freq_hz - 1.0) < 0.02
        # the same zero marked trusted is an error naming the bin
        with pytest.raises(ValueError, match="bin 40 "):
            fit_plant_model(FRFEstimate(freqs, h, exact.coherence))


class TestFitObjective:
    # (log-parameter vector, cost) on the shipped pipeline FRF, from the
    # composed-transfer-function cost the factored objective replaced, with
    # the vector decoded by _log_decode; the last two vectors hit its 0.1 s
    # delay clamp and both ends of its clip
    PINNED_COSTS = (
        ([5.3054, 1.0569, -4.5468, -2.8134, 2.6646, -1.6094, -2.7297,
          3.3145, -3.912, -1.6094, -3.9848], 3298.7210773264605),
        ([5.614, 1.5494, -4.2028, -3.1054, 2.2467, -1.5893, -2.4713,
          3.4672, -3.3689, -1.3842, -3.7929], 6309.471648382532),
        ([5.086, 0.7246, -4.1015, -2.7987, 2.908, -2.0224, -2.8607,
          2.9271, -4.1447, -1.3385, -4.429], 54083.784129530555),
        ([5.1451, 1.106, -4.7474, -2.8891, 2.598, -1.484, -2.8591,
          3.3961, -3.895, -1.4821, -3.9173], 3501.963035469555),
        ([5.8027, 0.8578, -4.1871, -2.9342, 2.3772, -1.2461, -2.8616,
          3.1982, -4.3286, -2.2389, -3.7945], 5732.314826595312),
        ([5.581, 1.3484, -4.3953, -2.7298, 2.6404, -1.5897, -3.5937,
          3.2936, -4.5003, -1.5851, -3.8785], 17.912099278473885),
        ([5.3054, 1.0569, -4.5468, -2.8134, 2.6646, -1.6094, -2.7297,
          3.3145, -3.912, -1.6094, -1.0], 2366146.4104336677),
        ([5.3054, 1.0569, -45.0, -2.8134, 2.6646, -1.6094, 41.5,
          3.3145, -3.912, -1.6094, -3.9848], 7412903.3986439565),
    )

    def test_factored_response_matches_fitted_plant(self):
        freqs = np.logspace(0.0, math.log10(60.0), 64)
        objective = _FitObjective(frf_of_tf(fitted_plant(), freqs))
        x0 = np.array(self.PINNED_COSTS[0][0])
        rng = np.random.default_rng(11)
        xs = [x0 + rng.normal(0.0, 1.0, x0.size) for _ in range(200)]
        for i in range(x0.size):  # each coordinate past either clip end
            for edge in (-45.0, 45.0):
                x = x0.copy()
                x[i] = edge
                xs.append(x)
        x = x0.copy()
        x[10] = math.log(0.5)  # a 0.5 s delay, past the 0.1 s clamp
        xs.append(x)
        w = 2.0 * np.pi * freqs

        def condition(coeffs):
            # rounding amplification of the expanded polynomial at s = jw
            terms = np.abs(coeffs)[:, None] * w ** np.arange(coeffs.size)[:, None]
            return terms.sum(axis=0) / np.abs(
                np.polynomial.polynomial.polyval(1j * w, coeffs))

        for x in xs:
            e = _log_decode(x)
            (h,), (delay,) = objective.rational_response(e)
            ref_params = _params(e)
            assert delay == ref_params.delay_s
            ref_tf = fitted_plant(ref_params)
            ref = tf_eval(ref_tf, freqs)
            got = h * np.exp(-1j * w * delay)
            # 1e-12, except near an undamped mode (a damping at the -40
            # clip), where the composed reference's own polynomial loses
            # digits (condition up to ~1e5) and its rounding bound applies
            tol = np.maximum(1e-12, 1e-15 * (condition(ref_tf.num)
                                             + condition(ref_tf.den)))
            assert np.all(np.abs(got - ref) / np.abs(ref) < tol)

    def test_costs_pinned_to_composed_model(self, pipeline_frf):
        objective = _FitObjective(pipeline_frf)
        for x, cost in self.PINNED_COSTS:
            r = objective.residual(_log_decode(np.array(x)))
            assert np.sum(r ** 2) == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("noise_std, seed, cost, peak_hz", [
        (0.0, 3, 17.91135665552254, 14.019400315858643),
        (0.05, 7, 13.71830769973025, 14.045471357929115),
    ])
    def test_pipeline_fit_pinned(self, pipeline_frf, monkeypatch, noise_std,
                                 seed, cost, peak_hz):
        # the shipped pipeline fit, pinned to the fit that evaluated
        # composed transfer functions, and one noisy case, pinned to the
        # ordered fit, which keeps the anti-resonance above the peak (15.1 Hz)
        cfg = PipelineConfig(noise_std=noise_std, seed=seed)
        frf = pipeline_frf if cfg == PipelineConfig() else _pipeline_frf(cfg)
        rows = []
        minimize = sysid.minimize

        def counted_minimize(fun, x0s):
            def counted(x):
                rows.append(len(x))
                return fun(x)
            return minimize(counted, x0s)

        monkeypatch.setattr(sysid, "minimize", counted_minimize)
        fit = fit_plant_model(frf, seed=seed)
        assert fit.converged
        assert fit.cost == pytest.approx(cost, rel=1e-9)
        assert fit.params.peak.freq_hz == pytest.approx(peak_hz, rel=1e-6)
        assert fit.evaluations == sum(rows)

    def test_stacked_rows_match_single_calls(self, pipeline_frf):
        # a row's cost and response do not depend on the stack it is in
        objective = _FitObjective(pipeline_frf)
        z0 = sysid._stage1_initial(pipeline_frf)
        rng = np.random.default_rng(12)
        zs = z0 + rng.normal(0.0, 1.0, (60, z0.size))
        zs[3, 2] = -45.0  # past the -40 clip of the exponent
        zs[7, 6] = 41.5  # past the clip of an entry below a gap
        zs[11, 10] = 25.0  # the delay gap past either end of its clip
        zs[40, 10] = -30.0
        for k in (1, 2, 5, 12, 60):
            stack = zs[:k]
            costs = _cost(objective, stack)
            h, delay = objective.rational_response(_positive(stack))
            assert costs.shape == delay.shape == (k,)
            for i, z in enumerate(stack):
                assert repr(float(costs[i])) == repr(
                    float(_cost(objective, z)[0]))
                h1, delay1 = objective.rational_response(_positive(z))
                assert np.array_equal(h[i], h1[0]) and delay[i] == delay1[0]
        assert np.all(objective.rational_response(_positive(zs))[1] < 0.1)


def _shipped_minimize_call(monkeypatch, frf, seed):
    """The objective and starts that fit_plant_model hands sysid.minimize."""
    seen = {}
    minimize = sysid.minimize

    def capture(fun, x0s):
        seen["fun"], seen["x0s"] = fun, list(x0s)
        return minimize(fun, x0s)

    monkeypatch.setattr(sysid, "minimize", capture)
    fit_plant_model(frf, seed=seed)
    monkeypatch.undo()
    assert len(seen["x0s"]) == sysid.FIT_RESTARTS
    return seen["fun"], seen["x0s"]


class TestMinimize:
    def test_rosenbrock(self):
        def residuals(x):
            return np.stack([10.0 * (x[:, 1] - x[:, 0] ** 2), 1.0 - x[:, 0]],
                            axis=1)

        starts = [np.array([-1.2, 1.0]), np.array([0.0, 0.0]),
                  np.array([2.0, -1.5])]
        for x, cost, _ in sysid.minimize(residuals, starts):
            assert cost <= 1e-20
            assert np.allclose(x, 1.0, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("noise_std, seed", [(0.0, 3), (0.05, 7)])
    def test_lockstep_matches_single_runs(self, pipeline_frf, monkeypatch,
                                          noise_std, seed):
        cfg = PipelineConfig(noise_std=noise_std, seed=seed)
        frf = pipeline_frf if cfg == PipelineConfig() else _pipeline_frf(cfg)
        fun, x0s = _shipped_minimize_call(monkeypatch, frf, seed)
        runs = sysid.minimize(fun, x0s)
        for x0, run in zip(x0s, runs):
            (alone,) = sysid.minimize(fun, [x0])
            assert repr(run[0].tolist()) == repr(alone[0].tolist())
            assert repr(run[1:]) == repr(alone[1:])

    def test_iteration_cap(self, pipeline_frf, monkeypatch):
        fun, x0s = _shipped_minimize_call(monkeypatch, pipeline_frf,
                                          PipelineConfig().seed)
        monkeypatch.setattr(sysid, "FIT_MAX_ITERATIONS", 3)
        rows = []

        def counted(x):
            rows.append(len(x))
            return fun(x)

        runs = sysid.minimize(counted, x0s)
        assert len(runs) == len(x0s)
        n = x0s[0].size
        assert all(points <= 1 + 3 * (n + 1) for _, _, points in runs)
        assert sum(points for _, _, points in runs) == sum(rows)

    def test_flat_residual_stops_at_start(self):
        # a zero Jacobian has no step to solve for: the run stops where it is
        x0 = np.array([0.5, -2.0, 3.0])
        ((x, cost, points),) = sysid.minimize(
            lambda x: np.ones((len(x), 4)), [x0])
        assert np.array_equal(x, x0) and cost == 4.0 and points == 1 + x0.size


class TestOrderedFit:
    @pytest.mark.parametrize("seed", range(8))
    def test_noisy_fit_keeps_mode_order(self, seed):
        cfg = PipelineConfig(noise_std=0.05, seed=seed)
        fit = fit_plant_model(_pipeline_frf(cfg), seed=seed)
        p, ref = fit.params, cfg.true_params
        FlexibleModeParams(p.peak, p.anti)  # raises if a pair is unordered
        assert p.anti.freq_hz > p.peak.freq_hz
        assert p.delay_s < 0.1
        assert abs(p.peak.freq_hz / ref.peak.freq_hz - 1.0) < 0.02

    def test_any_ordered_vector_maps_to_ordered_params(self):
        rng = np.random.default_rng(13)
        zs = np.concatenate([rng.normal(0.0, 1.0, (50, 11)),
                             rng.normal(0.0, 1e3, (50, 11)),
                             np.full((1, 11), 1e300), np.full((1, 11), -1e300)])
        for e in _positive(zs):
            # the logs the decode writes stay inside the clip of its exponent
            assert np.all(np.isfinite(e)) and np.all(e > 0.0)
            assert np.all(np.abs(np.log(e[4:])) < 40.0)
            p = _params(e)
            FlexibleModeParams(p.peak, p.anti)
            assert p.anti.freq_hz > p.peak.freq_hz and p.delay_s < 0.1


class TestSweepExperiment:
    def test_closed_loop_coherence(self, reference_sweep):
        # noiseless closed-loop sweep: coherence is excellent except right
        # on the two sub-resolution structural modes, where transient
        # ringing legitimately lowers it (13.9 Hz bin: 0.62, 26 Hz: 0.65)
        frf = estimate_frf(reference_sweep.total_input,
                           reference_sweep.measured,
                           n_freqs=32, f_lo=1.5, f_hi=40.0)
        assert np.mean(frf.coherence > 0.9) >= 0.85
        assert np.median(frf.coherence) > 0.97
        assert np.min(frf.coherence) > 0.55

    def test_divergence_reported_with_time(self):
        ref = PlantFitParams.reference()
        # a sign-flipped plant turns the stabilizing loop into positive
        # feedback, which diverges
        plant = LinearAxisPlant(replace(ref, main_num=tuple(-c for c in ref.main_num)))
        cfg = ChirpConfig(1.0, 60.0, 30.0, 0.1)
        sweep = sweep_experiment(plant, cfg)
        assert sweep.diverged_at >= 0.0
        # the sweep keeps the rows it recorded, one per channel and tick
        n = sweep.measured.size
        assert sweep.injected.size == sweep.total_input.size == n
        assert n < cfg.n_samples

    def test_prediction_consistency_across_gain_grid(self, reference_sweep):
        # margins from fitted parameters must predict simulated stability
        from tailsitter.control import RateLoopConfig, default_notch_config
        from tailsitter.lti import margins, nyquist_stable, pid_tf, tf_series
        from tailsitter.sim import TELEMETRY_HEADER, Scenario, run_linear_axis
        from tailsitter.metrics import max_growth_rate

        frf = estimate_frf(reference_sweep.total_input, reference_sweep.measured,
                           64, 1.0, 60.0, cycles_per_window=60.0,
                           correct_hold=True)
        fit = fit_plant_model(frf, seed=3)
        assert fit.converged
        plant_fit = fitted_plant(fit.params)
        notch_cfg = default_notch_config(fit.params.peak.freq_hz)
        for gamma, expect_stable in ((0.5, True), (0.8, True), (1.0, True),
                                     (2.0, False)):
            comp = tf_series(pid_tf(0.09 * gamma, 0.1 * gamma, 0.01 * gamma, 18.0),
                             notch_cfg.tf())
            loop = tf_series(plant_fit, comp)
            predicted = nyquist_stable(loop)
            m = margins(loop)
            assert predicted == expect_stable
            if predicted and m.has_gain_crossover:
                assert m.phase_margin_deg > 15.0
            sc = Scenario(
                name="grid", mode="linear-axis", duration_s=8.0, seed=3,
                rate_loop=RateLoopConfig(
                    kp=(0.09 * gamma,) * 3, ki=(0.1 * gamma,) * 3,
                    kd=(0.01 * gamma,) * 3,
                    notches=(None, notch_cfg, None)),
                initial_pitch_rate=0.01,
            )
            log = run_linear_axis(sc)
            t = log.telemetry[:, 0]
            w = log.telemetry[:, TELEMETRY_HEADER.index("w_meas_y")]
            tail = np.max(np.abs(w[t >= sc.duration_s - 2.0]))
            if expect_stable:
                growth = max_growth_rate(t, w, t_lo=1.0)
                assert growth < 0.05
                assert tail < 0.5 * sc.initial_pitch_rate
            else:
                # diverges onto the torque-limit limit cycle within a second
                assert tail > 100.0 * sc.initial_pitch_rate
