"""Acceptance gate: every criterion at its stated tolerance, one printed
PASS/FAIL line per check (run with ``pytest tests/test_acceptance.py -s``).

Two loop-shaping checks (phase margin in [36, 52] deg and magnitude slope
in [-22, -16] dB/dec) fail by design: the published plant coefficients and
PID gains yield at most ~34.6 deg of phase margin over the entire
functional notch parameter space and a slope of ~ -14 dB/dec.  See the
README reproduction notes; the bands are kept as stated rather than
loosened to fit.
"""

import cmath
import math
import time

import numpy as np
import pytest

from tailsitter import quat
from tailsitter.biquad import discretize_tustin
from tailsitter.control import default_notch_config
from tailsitter.harness import (
    _max_stable_gain_crossover,
    compare_runs,
    run_scenario,
)
from tailsitter.lti import (
    PlantFitParams,
    butterworth2,
    fitted_plant,
    magnitude_slope,
    margins,
    notch,
    pid_tf,
    tf_eval,
    tf_series,
)
from tailsitter.plant import (
    AircraftParams,
    LinearAxisPlant,
    RigidBodyState,
    default_aero_table,
    hover_state,
    mixer,
    step_dynamics,
)
from tailsitter.sysid import (
    ChirpConfig,
    TimeSeries,
    estimate_frf,
    fit_plant_model,
    sweep_experiment,
)


def check(name, ok, detail):
    print(f"ACCEPTANCE [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def design_loop():
    comp = tf_series(pid_tf(0.09, 0.1, 0.01, 18.0),
                     default_notch_config().tf())
    return tf_series(fitted_plant(), comp)


def refine_extremum(tf, f_lo, f_hi, sign):
    """Golden-section extremum of sign*|P| over [f_lo, f_hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = f_lo, f_hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = sign * abs(tf_eval(tf, c))
    fd = sign * abs(tf_eval(tf, d))
    for _ in range(200):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = sign * abs(tf_eval(tf, c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = sign * abs(tf_eval(tf, d))
        if b - a < 1e-7:
            break
    return 0.5 * (a + b)


class TestModelCoefficients:
    def test_resonance_extrema(self):
        t0 = time.time()
        plant = fitted_plant(PlantFitParams.reference())
        f_peak = refine_extremum(plant, 10.0, 18.0, +1.0)
        f_anti = refine_extremum(plant, 20.0, 35.0, -1.0)
        elapsed = time.time() - t0
        check("model_peak_14.01Hz", abs(f_peak - 14.01) <= 0.1,
              f"response maximum at {f_peak:.4f} Hz (14.01 +/- 0.1)")
        check("model_anti_26.98Hz", abs(f_anti - 26.98) <= 0.1,
              f"response minimum at {f_anti:.4f} Hz (26.98 +/- 0.1)")
        check("model_runtime", elapsed < 1.0, f"{elapsed:.3f} s (< 1 s)")


@pytest.fixture(scope="module")
def computed():
    t0 = time.time()
    loop = design_loop()
    m = margins(loop)
    slope = magnitude_slope(loop, 0.6, 14.0)
    return m, slope, time.time() - t0


class TestLoopShaping:

    def test_crossover(self, computed):
        m, _, _ = computed
        check("loopshape_crossover",
              m.has_gain_crossover and 5.8 <= m.gain_crossover_hz <= 7.8,
              f"gain crossover {m.gain_crossover_hz:.4f} Hz "
              "(reference 6.8, accepted [5.8, 7.8])")

    def test_phase_margin(self, computed):
        # documented reproduction gap: the published model and gains cannot
        # reach 36 deg with any functional notch (max ~34.6); kept as stated
        m, _, _ = computed
        check("loopshape_phase_margin",
              m.has_gain_crossover and 36.0 <= m.phase_margin_deg <= 52.0,
              f"phase margin {m.phase_margin_deg:.3f} deg "
              "(reference 44, accepted [36, 52])")

    def test_slope(self, computed):
        # documented reproduction gap: composed model + gains give ~ -14 dB/dec
        _, slope, _ = computed
        check("loopshape_slope", -22.0 <= slope <= -16.0,
              f"slope {slope:.3f} dB/dec over [0.6, 14] Hz "
              "(reference -19, accepted [-22, -16])")

    def test_runtime(self, computed):
        _, _, elapsed = computed
        check("loopshape_runtime", elapsed < 5.0, f"{elapsed:.2f} s (< 5 s)")


class TestNotchNecessity:
    def test_divergence_then_convergence(self, tmp_path):
        t0 = time.time()
        report = run_scenario("hover_notch_ab", tmp_path)
        elapsed = time.time() - t0
        results = {name: (ok, detail) for name, ok, detail in report.checks}
        ok, detail = results["notch_off_divergence"]
        check("notch_off_divergence", ok, detail)
        ok, detail = results["divergence_frequency"]
        check("divergence_frequency_14pm1", ok, detail)
        ok, detail = results["notch_on_convergence"]
        check("notch_on_convergence_3s", ok, detail)
        check("notch_ab_runtime", elapsed < 30.0, f"{elapsed:.1f} s (< 30 s)")


class TestBandwidthGain:
    def test_notch_buys_bandwidth(self):
        t0 = time.time()
        loop = design_loop()
        m = margins(loop)
        base = tf_series(fitted_plant(), pid_tf(0.09, 0.1, 0.01, 18.0))
        g_free, bw_free = _max_stable_gain_crossover(base)
        elapsed = time.time() - t0
        gain_pct = 100.0 * (m.gain_crossover_hz / bw_free - 1.0)
        check("bandwidth_gain_50pct", gain_pct >= 50.0,
              f"notch-enabled crossover {m.gain_crossover_hz:.3f} Hz vs "
              f"best stable notch-free {bw_free:.3f} Hz "
              f"(gain {g_free:.3f}): +{gain_pct:.0f} % (>= 50 % required)")
        check("bandwidth_runtime", elapsed < 60.0, f"{elapsed:.1f} s (< 60 s)")


class TestSysidRoundTrip:
    def test_identification_recovers_plant(self):
        t0 = time.time()
        ref = PlantFitParams.reference()
        plant = LinearAxisPlant(fitted_plant(), prewarp_hz=ref.peak.freq_hz)
        cfg = ChirpConfig(f0=1.0, f1=60.0, duration_s=60.0, amplitude=0.1,
                          sample_hz=250.0)
        sweep = sweep_experiment(plant, cfg, seed=1)
        frf = estimate_frf(sweep.total_input, sweep.measured, 64, 1.0, 60.0,
                           cycles_per_window=60.0, hold_rate_hz=250.0,
                           plant_rate_hz=1000.0)
        fit = fit_plant_model(frf, seed=3)
        elapsed = time.time() - t0

        check("sysid_fit_converged", fit.converged,
              f"cost/bin {fit.cost_per_bin:.3f}")
        p = fit.params
        peak_err = p.peak.freq_hz / ref.peak.freq_hz - 1.0
        check("sysid_peak_2pct", abs(peak_err) <= 0.02,
              f"peak {p.peak.freq_hz:.4f} Hz vs {ref.peak.freq_hz:.4f} "
              f"({100 * peak_err:+.2f} %)")
        delay_err = p.delay_s / ref.delay_s - 1.0
        check("sysid_delay_15pct", abs(delay_err) <= 0.15,
              f"delay {1e3 * p.delay_s:.2f} ms vs 21.00 ms "
              f"({100 * delay_err:+.1f} %)")
        band = (frf.freqs >= 1.5) & (frf.freqs <= 50.0) & frf.trusted
        h_fit = tf_eval(fitted_plant(p), frf.freqs)
        h_true = tf_eval(fitted_plant(), frf.freqs)
        err_db = 20.0 * np.log10(np.abs(h_fit / h_true))
        worst = float(np.max(np.abs(err_db[band])))
        check("sysid_composed_1db", worst <= 1.0,
              f"composed-TF match {worst:.3f} dB over trusted [1.5, 50] Hz")
        check("sysid_runtime", elapsed < 60.0, f"{elapsed:.1f} s (< 60 s)")


class TestTransition:
    def test_altitude_hold_and_stepback(self, tmp_path):
        t0 = time.time()
        report = run_scenario("transition", tmp_path)
        elapsed = time.time() - t0
        results = {name: (ok, detail) for name, ok, detail in report.checks}
        ok, detail = results["altitude_hold"]
        check("transition_altitude_2m", ok, detail)
        ok, detail = results["stepback_first_order"]
        check("transition_first_order", ok, detail)
        ok, detail = results["stepback_overshoot"]
        check("transition_overshoot", ok, detail)
        check("transition_runtime", elapsed < 60.0, f"{elapsed:.1f} s (< 60 s)")


class TestPropertySuite:
    def test_quaternion_double_cover_and_norm(self):
        rng = np.random.default_rng(71)

        def rand_q():
            v = rng.normal(size=4)
            return quat.Quaternion.from_array(v / np.linalg.norm(v),
                                              normalize=False)

        q = rand_q()
        for _ in range(10_000):
            q = q.multiply(rand_q())
        ok_norm = abs(q.norm - 1.0) < 1e-6
        qa, qb = rand_q(), rand_q()
        ok_cover = np.array_equal(quat.attitude_error(qa, qb),
                                  quat.attitude_error(qa, -qb))
        check("prop_quaternion", ok_norm and ok_cover,
              f"norm drift {abs(q.norm - 1.0):.2e} after 1e4 products; "
              "double cover exact")

    def test_notch_center_identity(self):
        rng = np.random.default_rng(72)
        worst = 0.0
        for _ in range(100):
            f0 = float(rng.uniform(2.0, 60.0))
            k1 = float(rng.uniform(0.05, 0.6))
            k2 = k1 * float(rng.uniform(0.05, 0.9))
            h = tf_eval(notch(f0, k1, k2), f0)
            worst = max(worst, abs(abs(h) - k2 / k1), abs(cmath.phase(h)))
        check("prop_notch_identity", worst < 1e-9,
              f"worst |N(jw0)| and phase deviation {worst:.2e}")

    def test_tustin_fidelity(self):
        fs = 250.0
        f = np.linspace(0.2, fs / 10.0, 100)
        worst_db = 0.0
        worst_ph = 0.0
        for tf, pre in ((default_notch_config().tf(), 14.0128),
                        (butterworth2(18.0), None),
                        (pid_tf(0.09, 0.1, 0.01, 18.0), None)):
            c = discretize_tustin(tf, fs, prewarp_hz=pre)
            ratio = c.response(f) / tf_eval(tf, f)
            worst_db = max(worst_db, float(np.max(np.abs(20 * np.log10(np.abs(ratio))))))
            worst_ph = max(worst_ph, float(np.max(np.abs(np.degrees(np.angle(ratio))))))
        check("prop_tustin", worst_db < 1.0 and worst_ph < 5.0,
              f"worst {worst_db:.3f} dB / {worst_ph:.3f} deg below fs/10")

    def test_rk4_order(self):
        params = AircraftParams()
        alpha = np.array([-math.pi, 0.0, math.pi])
        from tailsitter.plant import AeroTable
        table = AeroTable(alpha, np.array([0.0, 30.0]),
                          np.ones((3, 2)), 0.5 * np.ones((3, 2)))
        st0 = hover_state(params)
        st0 = RigidBodyState(st0.p, np.array([6.0, 0.0, -2.0]), st0.q,
                             np.array([2.0, 3.0, 1.5]))
        motors = np.array([0.7, 0.5, 0.4, 0.6])

        def run(dt):
            st = st0
            for _ in range(int(round(1.0 / dt))):
                st = step_dynamics(st, motors, dt, params, table)
            return st.as_vector()

        ref = run(0.000125)
        order = math.log2(np.linalg.norm(run(0.002) - ref)
                          / np.linalg.norm(run(0.001) - ref))
        check("prop_rk4_order", order >= 3.5, f"observed order {order:.2f}")

    def test_torque_free_conservation(self):
        params = AircraftParams(rate_damping=(0.0, 0.0, 0.0))
        table = default_aero_table()
        inertia = params.inertia
        st = RigidBodyState(np.zeros(3), np.zeros(3),
                            np.array([1.0, 0.0, 0.0, 0.0]),
                            np.array([0.3, 1.0, 0.2]))
        h0 = np.linalg.norm(inertia @ st.omega)
        e0 = 0.5 * st.omega @ inertia @ st.omega
        for _ in range(10_000):
            st = step_dynamics(st, np.zeros(4), 1e-3, params, table)
        drift = max(abs(np.linalg.norm(inertia @ st.omega) / h0 - 1.0),
                    abs(0.5 * st.omega @ inertia @ st.omega / e0 - 1.0))
        check("prop_torque_free", drift < 1e-8,
              f"|I w| and energy drift {drift:.2e} over 10 s")

    def test_hover_balance(self):
        params = AircraftParams()
        table = default_aero_table()
        st = hover_state(params)
        mc = mixer(np.zeros(3), params.hover_command, params)
        thrust_total = params.allocation_matrix()[0] @ mc.u
        nxt = step_dynamics(st, mc, 1e-3, params, table)
        ok = (abs(thrust_total - params.mass * params.gravity) < 1e-9
              and np.linalg.norm(nxt.v) < 1e-9
              and np.linalg.norm(nxt.omega) < 1e-9)
        check("prop_hover_balance", ok,
              f"hover thrust {thrust_total:.6f} N = m g "
              f"{params.mass * params.gravity:.6f} N; state drift "
              f"{np.linalg.norm(nxt.v):.2e}")

    def test_frf_unbiased_noiseless(self):
        rng = np.random.default_rng(73)
        tf = butterworth2(18.0)
        c = discretize_tustin(tf, 250.0)
        u = rng.normal(size=30 * 250)
        y = c.process_block(u)
        frf = estimate_frf(TimeSeries(250.0, u), TimeSeries(250.0, y),
                           n_freqs=32, f_lo=1.0, f_hi=25.0)
        err_db = 20.0 * np.log10(np.abs(frf.response / tf_eval(tf, frf.freqs)))
        worst = float(np.max(np.abs(err_db[frf.trusted])))
        check("prop_frf_unbiased", worst < 1.0,
              f"max magnitude error {worst:.3f} dB on a noiseless system")

    def test_determinism(self, tmp_path):
        a = run_scenario("hover_notch_ab", tmp_path / "a")
        b = run_scenario("hover_notch_ab", tmp_path / "b")
        diff = compare_runs(a.artifacts[0], b.artifacts[0])
        check("prop_determinism", diff.identical,
              "two runs with the same seed are bit-identical")
