import math

import numpy as np
import pytest

import oracles
from tailsitter import quat
from tailsitter.control import (
    AltitudeController,
    AltitudeLoopConfig,
    AttitudeController,
    AttitudeLoopConfig,
    NotchConfig,
    RateController,
    RateLoopConfig,
    altitude_ff_thrust,
    default_notch_config,
)
from tailsitter.lti import fitted_plant, tf_eval, tf_series
from tailsitter.plant import (FLAG_NO_AUTHORITY, FLAG_THRUST_SAT, AircraftParams,
                              default_aero_table)

DT = 1.0 / 250.0


@pytest.fixture(scope="module")
def params():
    return AircraftParams()


@pytest.fixture(scope="module")
def table():
    return default_aero_table()


class TestRateController:
    def test_zero_error_zero_output(self):
        c = RateController(RateLoopConfig())
        for _ in range(100):
            out = c.step(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_constant_error_proportional(self):
        cfg = RateLoopConfig(ki=(0.0, 0.0, 0.0))
        c = RateController(cfg)
        err = np.array([0.2, -0.1, 0.05])
        # measurement fixed at zero: derivative-of-measurement settles to 0
        for _ in range(1000):
            out = c.step(np.zeros(3), err)
        np.testing.assert_allclose(out, cfg.kp * err, atol=1e-9)

    def test_matches_continuous_compensator_response(self):
        cfg = RateLoopConfig.reference_pitch_design()
        for f in (0.5, 2.0, 6.8, 12.0, 20.0, 25.0):
            ctrl = RateController(cfg)
            t = np.arange(0, 6.0, DT)
            err = 0.01 * np.sin(2 * np.pi * f * t)
            out = np.empty_like(err)
            # drive with commanded rate (measurement zero) so the loop sees
            # the full compensator C = PID * notch on the error path minus
            # the derivative branch, which acts on the measurement only
            for i, e in enumerate(t):
                out[i] = ctrl.step(np.zeros(3), np.array([0.0, err[i], 0.0]))[1]
            tail = slice(-500, None)
            amp = (np.max(out[tail]) - np.min(out[tail])) / 0.02
            from tailsitter.lti import pid_tf
            expected_tf = tf_series(
                pid_tf(cfg.kp[1], cfg.ki[1], 0.0, cfg.deriv_corner_hz),
                cfg.notches[1].tf())
            expected = abs(tf_eval(expected_tf, f))
            assert amp == pytest.approx(expected, rel=0.12)

    def test_full_loop_transfer_matches_design(self):
        # feed the measurement port (command zero): the response must follow
        # the full C = PID + kd s B cascaded with the notch
        cfg = RateLoopConfig.reference_pitch_design()
        c_tf = oracles.compensator_tf(cfg, 1)
        for f in (2.0, 6.8, 14.0, 20.0, 25.0):
            ctrl = RateController(cfg)
            t = np.arange(0, 6.0, DT)
            meas = 0.01 * np.sin(2 * np.pi * f * t)
            out = np.empty_like(meas)
            for i in range(t.size):
                out[i] = ctrl.step(np.array([0.0, meas[i], 0.0]), np.zeros(3))[1]
            tail = slice(-500, None)
            amp = (np.max(out[tail]) - np.min(out[tail])) / 0.02
            expected = abs(tf_eval(c_tf, f))
            err_db = 20.0 * math.log10(amp / expected)
            assert abs(err_db) < 1.0

    def test_anti_windup_bounds_integrator(self):
        cfg = RateLoopConfig(output_limit=0.2)
        c = RateController(cfg)
        err = np.array([0.0, 4.0, 0.0])
        for _ in range(int(5.0 / DT)):
            c.step(np.zeros(3), err)
        # integrator never exceeds the state that maps to the output limit
        assert cfg.ki[1] * abs(c.integrator[1]) <= cfg.output_limit + 1e-9
        # recovery: error removed, output returns near zero without a
        # residual offset beyond 1 % of the limit after 3 time constants
        out = None
        for _ in range(int(3.0 / DT)):
            out = c.step(np.zeros(3), np.zeros(3))
        assert abs(out[1]) < 0.01 * cfg.output_limit

    def test_saturation_flag(self):
        c = RateController(RateLoopConfig(output_limit=0.1))
        c.step(np.zeros(3), np.array([0.0, 5.0, 0.0]))
        assert c.saturated[1]

    def test_rejects_nonfinite(self):
        c = RateController(RateLoopConfig())
        with pytest.raises(FloatingPointError):
            c.step(np.array([np.nan, 0, 0]), np.zeros(3))

    def test_sample_rate_pinned(self):
        from tailsitter.dataio import from_config
        from tailsitter.sim import Scenario

        with pytest.raises(ValueError):
            from_config(Scenario, {"name": "x", "rate_loop": {"sample_hz": 500.0}})

    def test_notch_toggle_requires_configuration(self):
        c = RateController(RateLoopConfig(notches=(None, None, None)))
        with pytest.raises(ValueError):
            c.set_notch_enabled(True, axis=1)


class TestFloatTick:
    """The float tick against the numpy-array one it replaced, bit for bit."""

    TICKS = 2000

    @pytest.mark.parametrize("seed, cfg", [
        (21, RateLoopConfig.reference_pitch_design()),
        (22, RateLoopConfig(output_limit=0.05, integrator_limit=0.02,
                            notches=(NotchConfig(9.0, 0.3, 0.05),
                                     default_notch_config(), None))),
        (23, RateLoopConfig(kp=(0.3, 0.09, 0.0), ki=(2.0, 0.1, 0.5),
                            kd=(0.0, 0.02, 0.01), output_limit=0.1,
                            notches=(None, default_notch_config(),
                                     NotchConfig(20.0, 0.2, 0.02)))),
    ])
    def test_rate_controller_matches_numpy_tick(self, seed, cfg):
        rng = np.random.default_rng(seed)
        old = oracles.NumpyRateController(cfg)
        new = RateController(cfg)
        notch_axes = [i for i, n in enumerate(cfg.notches) if n is not None]
        # rate scale per stretch of ticks: small, loop-sized and saturating
        scales = rng.choice([1e-3, 0.05, 0.5, 5.0], size=self.TICKS // 50)
        held = windup = toggles = 0
        for k in range(self.TICKS):
            if k % 50 == 0 and rng.random() < 0.5:
                axis = int(rng.choice(notch_axes))
                enabled = bool(rng.random() < 0.5)
                old.set_notch_enabled(enabled, axis)
                new.set_notch_enabled(enabled, axis)
                toggles += 1
            scale = scales[k // 50]
            meas = rng.normal(0.0, scale, 3)
            cmd = rng.normal(0.0, scale, 3) + (2.0 * scale if k % 400 < 200 else 0.0)
            before = list(new.integrator)
            out_old = old.step(meas, cmd)
            out_new = new.step(tuple(meas.tolist()), tuple(cmd.tolist()))
            # plain floats in, plain floats out: no numpy scalar leaks in
            # from the biquad coefficients
            assert all(type(v) is float for v in out_new + tuple(new.integrator))
            assert out_new == tuple(out_old.tolist())
            assert new.integrator == old.integrator.tolist()
            assert new.saturated == old.saturated.tolist()
            err = cmd - meas
            held += sum(s and b == a and e != 0.0 for s, b, a, e in
                        zip(new.saturated, before, new.integrator, err))
            windup += sum(abs(x) == cfg.integrator_limit for x in new.integrator)
        # the sequences reached the clamp with integration halted, the
        # integrator limit and both notch states
        assert held > 0 and windup > 0 and toggles > 0

    def test_attitude_error_matches_numpy(self):
        rng = np.random.default_rng(24)
        att = AttitudeController(AttitudeLoopConfig(gains=(4.0, 3.0, 2.0)))
        for k in range(self.TICKS):
            qc = oracles.normalize(rng.normal(size=4))
            # near, moderate and unrelated pairs
            spread = (1e-6, 1e-2, 1.0, None)[k % 4]
            qd = oracles.normalize(rng.normal(size=4) if spread is None
                                   else qc + spread * rng.normal(size=4))
            neg_c, neg_d = oracles.negate(qc), oracles.negate(qd)
            for a, b in ((qc, qd), (neg_c, qd), (qc, neg_d), (neg_c, neg_d)):
                xi = quat.attitude_error(a, b)
                assert all(type(v) is float for v in xi)
                assert xi == tuple(oracles.attitude_error(a, b).tolist())
                assert att.step(a, b) == tuple((np.array(att.gains)
                                                * oracles.attitude_error(a, b)).tolist())

    def test_normalize_matches_numpy(self):
        rng = np.random.default_rng(25)
        for k in range(self.TICKS):
            # unit-sized, RK4-renormalized, tiny and large vectors
            v = rng.normal(size=4) * (1.0, 1e-10, 1e8)[k % 3]
            if k % 5 == 0:
                v = v / np.linalg.norm(v) + rng.normal(scale=1e-15, size=4)
            q = quat.normalize(tuple(v.tolist()))
            assert all(type(c) is float for c in q)
            assert q == oracles.normalize(v)
            assert q == tuple((v / np.linalg.norm(v)).tolist())
        with pytest.raises(ValueError):
            quat.normalize((0.0, 1e-13, 0.0, 0.0))

    def test_euler_to_quat_matches_numpy_product(self):
        rng = np.random.default_rng(26)
        zeros = (0.0, -0.0, 1e-310, -1e-310)
        # signed and subnormal zeros, and half-angles whose cosine is negative
        angles = [(r, p, y) for r in zeros + (-4.0, 1.0)
                  for p in zeros + (0.5 * math.pi, -7.0)
                  for y in zeros + (2.0 * math.pi, -3.0)]
        angles += rng.uniform(-7.0, 7.0, (self.TICKS, 3)).tolist()
        for e in map(quat.EulerZXY._make, angles):
            q = quat.euler_zxy_to_quat(e)
            # repr tells the signed zeros apart
            assert repr(q) == repr(oracles.euler_zxy_product(e)), e


class TestNotchPlacement:
    def test_open_loop_resonance_suppression(self):
        cfg = RateLoopConfig.reference_pitch_design()
        plant = fitted_plant()
        f_peak = 1.0 / math.sqrt(0.000129) / (2.0 * math.pi)
        with_notch = tf_series(plant, oracles.compensator_tf(cfg, 1))
        no_notch_cfg = RateLoopConfig()
        without = tf_series(plant, oracles.compensator_tf(no_notch_cfg, 1))
        db_on = 20.0 * math.log10(abs(tf_eval(with_notch, f_peak)))
        db_off = 20.0 * math.log10(abs(tf_eval(without, f_peak)))
        assert db_on < -3.0
        assert db_off > 0.0


class TestAttitudeController:
    def test_zero_error(self):
        c = AttitudeController(AttitudeLoopConfig())
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.1, 1.2, -0.4))
        np.testing.assert_allclose(c.step(q, q), np.zeros(3), atol=1e-12)

    def test_ten_degree_pitch_error(self):
        c = AttitudeController(AttitudeLoopConfig(gains=(3.0, 3.0, 3.0)))
        q_meas = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 0.5, 0.0))
        q_cmd = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 0.5 + math.radians(10.0), 0.0))
        out = c.step(q_meas, q_cmd)
        assert abs(np.linalg.norm(out) - 3.0 * math.radians(10.0) / 2.0) < 1e-9

    def test_double_cover(self):
        c = AttitudeController(AttitudeLoopConfig())
        q_meas = quat.euler_zxy_to_quat(quat.EulerZXY(0.05, 1.5, 0.2))
        q_cmd = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 1.4, 0.1))
        np.testing.assert_array_equal(c.step(q_meas, q_cmd),
                                      c.step(q_meas, oracles.negate(q_cmd)))
        np.testing.assert_array_equal(c.step(q_meas, q_cmd),
                                      c.step(oracles.negate(q_meas), q_cmd))


def solve_thrust_brute(v_zd, q, speed, alpha, cfg, params, table):
    """Bisection oracle on the vertical force balance residual."""
    from tailsitter.plant import aero_forces

    rot = np.array(quat.rotation_rows(*q))
    r31 = rot[2, 0]
    f_az = 0.0
    if speed > 0.0:
        lift, drag, _ = aero_forces(alpha, speed, table, params)
        v_dir = rot @ np.array([math.cos(alpha), 0.0, math.sin(alpha)])
        y_v = rot[:, 1] - (rot[:, 1] @ v_dir) * v_dir
        z_v = np.cross(v_dir, y_v / np.linalg.norm(y_v))
        f_az = -drag * v_dir[2] - lift * z_v[2]

    def residual(t_n):
        return params.mass * cfg.ff_gain * v_zd - (
            params.mass * params.gravity + f_az + r31 * t_n)

    lo, hi = -500.0, 500.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(lo) * residual(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestAltitudeFeedforward:
    def test_hover_identity(self, params, table):
        cfg = AltitudeLoopConfig()
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        u, flag = altitude_ff_thrust(0.0, q, 0.0, 0.0, cfg, params, table)
        assert u == pytest.approx(params.hover_command, abs=1e-12)
        assert flag == 0

    def test_descent_decreases_thrust_monotonically(self, params, table):
        cfg = AltitudeLoopConfig()
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        us = [altitude_ff_thrust(v, q, 0.0, 0.0, cfg, params, table)[0]
              for v in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(us, us[1:]))

    def test_matches_brute_force_solve(self, params, table):
        cfg = AltitudeLoopConfig()
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.radians(45.0), 0.0))
        alpha = math.radians(40.0)
        u, flag = altitude_ff_thrust(-0.5, q, 10.0, alpha, cfg, params, table)
        t_oracle = solve_thrust_brute(-0.5, q, 10.0, alpha, cfg, params, table)
        assert u == pytest.approx(params.thrust_ratio * t_oracle, abs=1e-9)

    def test_no_vertical_authority_flag(self, params, table):
        cfg = AltitudeLoopConfig()
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 0.0, 0.0))  # level
        u, flag = altitude_ff_thrust(0.0, q, 0.0, 0.0, cfg, params, table)
        assert flag == FLAG_NO_AUTHORITY
        assert u == params.hover_command


class TestAltitudeController:
    def test_trim_output(self, params, table):
        ctrl = AltitudeController(AltitudeLoopConfig(), params, table)
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        u, flags = ctrl.step(50.0, 50.0, 0.0, q, 0.0, 0.0)
        assert u == pytest.approx(params.hover_command, abs=1e-12)
        assert flags == 0

    def test_velocity_command_clamped(self, params, table):
        cfg = AltitudeLoopConfig(v_z_limit=3.0)
        ctrl = AltitudeController(cfg, params, table)
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        # 10 m low: unclamped command would be -10 m/s, must clamp to -3
        u, _ = ctrl.step(40.0, 50.0, -3.0, q, 0.0, 0.0)
        u_ff, _ = altitude_ff_thrust(-3.0, q, 0.0, 0.0, cfg, params, table)
        # measured v_z equals the clamped command: PI error is zero
        assert u == pytest.approx(u_ff, abs=1e-12)

    def test_anti_windup_on_thrust_clamp(self, params, table):
        ctrl = AltitudeController(AltitudeLoopConfig(), params, table)
        q = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        for _ in range(2500):
            u, flags = ctrl.step(0.0, 100.0, 5.0, q, 0.0, 0.0)
        assert u == 1.0
        assert flags & FLAG_THRUST_SAT
        assert ctrl.integrator <= (1.0 / AltitudeLoopConfig().ki_vz) + 1e-9


class TestFeedforwardConsistency:
    def test_vertical_acceleration_tracks_command(self, params, table):
        # feedforward-only thrust at trim: vertical acceleration must match
        # the commanded value within 0.2 m/s^2 (model-matched case)
        from tailsitter.plant import TailsitterSim, SensorConfig, air_data

        cfg = AltitudeLoopConfig()
        sim = TailsitterSim(params, table, flex=None, delay_s=0.0,
                            sensor=SensorConfig(gyro_noise_std=0.0),
                            seed=0)
        att = AttitudeController(AttitudeLoopConfig())
        rate = RateController(RateLoopConfig.reference_pitch_design())
        q_cmd = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, math.pi / 2, 0.0))
        v_zd = 0.5  # descend at 0.5 m/s -> a_zd = 0.5 m/s^2
        w_meas = np.zeros(3)
        accels = []
        v_prev = sim.x[5]
        for k in range(int(2.0 / (1.0 / 250.0))):
            q = quat.normalize(sim.x[6:10])
            alpha, speed = air_data(quat.rotation_rows(*q), *sim.x[3:6])
            u_ff, _ = altitude_ff_thrust(v_zd, q, speed, alpha, cfg, params, table)
            torque = rate.step(w_meas, att.step(q, q_cmd))
            w_meas, _ = sim.step(torque, u_ff)
            v_now = sim.x[5]
            if k >= 125:  # skip the motor-lag transient
                accels.append((v_now - v_prev) * 250.0)
            v_prev = v_now
        assert abs(np.mean(accels) - v_zd * cfg.ff_gain) < 0.2


class TestCascadeDoubleCover:
    def test_sign_flip_invariance(self, params, table):
        att = AttitudeController(AttitudeLoopConfig())
        rate_a = RateController(RateLoopConfig.reference_pitch_design())
        rate_b = RateController(RateLoopConfig.reference_pitch_design())
        rng = np.random.default_rng(61)
        q_cmd = quat.euler_zxy_to_quat(quat.EulerZXY(0.1, 1.3, -0.2))
        q_meas = quat.euler_zxy_to_quat(quat.EulerZXY(0.0, 1.5, 0.0))
        w = rng.normal(0.0, 0.1, size=(50, 3))
        for k in range(50):
            ta = rate_a.step(w[k], att.step(q_meas, q_cmd))
            tb = rate_b.step(w[k], att.step(oracles.negate(q_meas),
                                            oracles.negate(q_cmd)))
            np.testing.assert_array_equal(ta, tb)
