import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import rotation_matrix, velocity_frame_force
from tailsitter import plant, quat
from tailsitter.harness import PipelineConfig, builtin_scenarios
from tailsitter.lti import PlantFitParams, butterworth2, fitted_plant, tf_eval
from tailsitter.biquad import discretize_tustin
from tailsitter.plant import (
    FLAG_AERO_CLAMP,
    FLAG_FF_CLAMP,
    SUBSTEPS,
    AeroTable,
    AircraftParams,
    RateSensor,
    SensorConfig,
    SimNumericsError,
    TailsitterSim,
    VibrationConfig,
    LinearAxisPlant,
    _derivatives,
    aero_forces,
    air_data,
    default_aero_table,
    hover_state,
    mixer,
    rotor_vibration,
    step_dynamics,
)
from tailsitter.sim import run_nonlinear


@pytest.fixture(scope="module")
def params():
    return AircraftParams()


@pytest.fixture(scope="module")
def table():
    return default_aero_table()


def flat_cl_table():
    """Tiny table with CL = 1, CD = 0.5 everywhere (analytic checks)."""
    a = np.array([-math.pi, 0.0, math.pi])
    v = np.array([0.0, 30.0])
    return AeroTable(a, v, np.ones((3, 2)), 0.5 * np.ones((3, 2)))


class TestAircraftParams:
    def test_copies_the_callers_arrays(self):
        inertia = np.diag((0.03, 0.008, 0.036))
        rotors = np.array([[0.0, 0.22, 0.09], [0.0, -0.22, 0.09],
                           [0.0, -0.22, -0.09], [0.0, 0.22, -0.09]])
        p = AircraftParams(inertia=inertia, rotor_positions=rotors)
        # the caller's arrays stay writeable, and writing them later leaves
        # the params as they were built
        inertia[0, 0] = 0.04
        rotors[0, 2] = 0.5
        assert p.inertia[0, 0] == 0.03
        assert p.rotor_positions[0, 2] == 0.09
        assert not (p.inertia.flags.writeable or p.rotor_positions.flags.writeable)


class TestAeroTable:
    def test_nodes_reproduced_exactly(self, table):
        for i in (0, 30, 72, 144):
            for j in range(table.v_grid.size):
                cl, cd, clamped = table.interpolate(table.alpha_grid[i],
                                                    table.v_grid[j])
                assert cl == pytest.approx(table.cl[i, j], abs=0)
                assert cd == pytest.approx(table.cd[i, j], abs=0)
                assert not clamped

    def test_clamp_flag(self, table):
        _, _, clamped = table.interpolate(0.1, 100.0)
        assert clamped
        _, _, clamped = table.interpolate(4.0, 5.0)
        assert clamped

    def test_drag_nonnegative_everywhere(self, table):
        assert np.all(table.cd >= 0.0)

    def test_rejects_negative_drag(self):
        with pytest.raises(ValueError):
            AeroTable([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)),
                      -np.ones((2, 2)))

    def test_prestall_lift_slope_monotone(self, table):
        band = np.abs(table.alpha_grid) < 0.2
        cl = table.cl[band, 0]
        assert np.all(np.diff(cl) > 0.0)



def edge_queries(grid):
    """Every node, node -/+ 1 ulp, every midpoint, and beyond both edges."""
    g = grid.tolist()
    out = [y for x in g for y in (x, math.nextafter(x, -math.inf),
                                  math.nextafter(x, math.inf))]
    out += [0.5 * (a + b) for a, b in zip(g, g[1:])]
    return out + [g[0] - 1.0, g[-1] + 1.0, -1e300, 1e300, -math.inf, math.inf,
                  0.0, -0.0, math.nan]


class TestKernelMatchesOracle:
    """The scalar kernel pieces against the list-and-min/max and list RK4
    forms they replaced (``tests/oracles.py``), by repr, so a -0.0 or a NaN
    shows."""

    @pytest.mark.parametrize("which", ["builtin", "random"])
    def test_interpolate(self, table, which):
        if which == "random":
            rng = np.random.default_rng(8)
            alphas = np.cumsum(rng.uniform(0.05, 1.0, 9)) - 3.0
            vs = np.cumsum(rng.uniform(0.5, 5.0, 4))
            table = AeroTable(alphas, vs, rng.normal(size=(9, 4)),
                              rng.uniform(0.0, 2.0, (9, 4)))
        reference = oracles.aero_lookup(table)
        for a in edge_queries(table.alpha_grid):
            for v in edge_queries(table.v_grid):
                assert repr(table.interpolate(a, v)) == repr(reference(a, v)), (a, v)

    def test_step_dynamics(self, params, table):
        rng = np.random.default_rng(11)
        for k in range(200):
            x = np.concatenate([rng.normal(0.0, 10.0, 3), rng.normal(0.0, 8.0, 3),
                                rng.normal(size=4), rng.normal(0.0, 3.0, 3)]).tolist()
            if k % 4 == 0:
                x[3:6] = 0.0, 0.0, 0.0  # no airspeed: no aero lookup
            # eta stays nonzero, so that the quaternion is never all zeros
            x = [-0.0 if i != 6 and rng.random() < 0.2 else c for i, c in enumerate(x)]
            motors = tuple(rng.uniform(0.0, 1.0, 4).tolist())
            dt = (1e-3, 4e-3)[k % 2]
            assert (repr(step_dynamics(x, motors, dt, params, table))
                    == repr(oracles.step_dynamics(x, motors, dt, params, table))), x

    @pytest.mark.parametrize("i, value", [(3, 1e200), (5, -1e200), (7, math.nan),
                                          (0, math.inf)])
    def test_step_dynamics_nonfinite(self, params, table, i, value):
        x = hover_state(params)
        x[i] = value
        for kernel in (step_dynamics, oracles.step_dynamics):
            with pytest.raises(SimNumericsError, match="non-finite"):
                kernel(x, (0.5, 0.5, 0.5, 0.5), 1e-3, params, table)

    def test_nan_query_is_nan_and_clamped(self, table):
        for a, v in ((math.nan, 5.0), (0.1, math.nan)):
            cl, cd, clamped = table.interpolate(a, v)
            assert math.isnan(cl) and math.isnan(cd) and clamped

    def test_single_node_grid_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            AeroTable([0.0], [0.0, 1.0], np.zeros((1, 2)), np.zeros((1, 2)))


class TestAeroForces:
    def test_zero_speed_zero_force(self, params):
        lift, drag, _ = aero_forces(1.2, 0.0, flat_cl_table(), params)
        assert lift == 0.0 and drag == 0.0

    def test_speed_squared_scaling(self, params):
        t = flat_cl_table()
        l1 = aero_forces(0.5, 5.0, t, params)[0]
        l2 = aero_forces(0.5, 10.0, t, params)[0]
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_hand_evaluated_node(self):
        # CL = 1.0, rho = 1.225, S = 0.12, V = 10 -> L = 7.35 N
        p = AircraftParams(wing_area=0.12)
        lift, _, _ = aero_forces(0.0, 10.0, flat_cl_table(), p)
        assert lift == pytest.approx(7.35, rel=1e-12)


def mix(torque, thrust, params):
    """(motor commands as an array, saturated) of ``mixer``."""
    *u, saturated = mixer(*torque, thrust, params)
    return np.array(u), saturated


class TestMixer:
    def test_hover_symmetry(self, params):
        u, saturated = mix((0.0, 0.0, 0.0), params.hover_command, params)
        np.testing.assert_allclose(u, params.hover_command * np.ones(4))
        assert not saturated

    def test_pure_pitch_structure(self, params):
        u, _ = mix((0.0, 0.3, 0.0), params.hover_command, params)
        z = params.rotor_positions[:, 2]
        up = u[z > 0]
        dn = u[z < 0]
        assert np.allclose(up, up[0]) and np.allclose(dn, dn[0])
        assert up[0] > params.hover_command > dn[0]
        assert np.sum(u) == pytest.approx(4.0 * params.hover_command)

    def test_allocation_round_trip(self, params):
        rng = np.random.default_rng(41)
        a = oracles.allocation_matrix(params)
        for _ in range(50):
            torque = rng.uniform(-0.2, 0.2, 3)
            thrust = rng.uniform(0.3, 0.7)
            u, saturated = mix(torque.tolist(), thrust, params)
            if saturated:
                continue
            achieved = a @ u
            assert abs(achieved[0] - thrust * params.thrust_coeff) < 1e-9
            np.testing.assert_allclose(achieved[1:], torque, atol=1e-9)

    def test_saturation_flagged_and_prioritized(self, params):
        u, saturated = mix((0.0, 50.0, 0.0), params.hover_command, params)
        assert saturated
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        # thrust total survives roll/pitch scaling
        total = np.sum(oracles.allocation_matrix(params)[0] @ u)
        assert total == pytest.approx(params.hover_command * params.thrust_coeff,
                                      rel=1e-9)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            AircraftParams(rotor_positions=np.zeros((4, 3)))

    def test_mix(self, params):
        rng = np.random.default_rng(4)
        cases = []
        # random demands, from inside the headroom to deep saturation
        for scale in (0.01, 0.1, 0.5, 2.0, 10.0):
            for _ in range(400):
                tx, ty, tz = rng.normal(0.0, scale, 3).tolist()
                cases.append((tx, ty, tz, float(rng.uniform(-0.2, 1.2))))
        # torques around the 1e-12 headroom threshold at thrust edges, where
        # the final clip to [0, 1] moves a command by less than the tolerance
        for thrust in (0.0, 1.0, 5e-324, 1e-13, 1.0 - 1e-13, 0.5):
            for scale in (1e-14, 3e-13, 5e-13, 1e-12, 2e-12, 1e-11):
                for _ in range(40):
                    tx, ty, tz = (scale * rng.choice([-1.0, 1.0], 3)
                                  * rng.uniform(0.5, 1.5, 3)).tolist()
                    cases.append((tx, ty, tz, thrust))
        cases += [(0.0, 0.0, 0.0, t) for t in (0.0, -0.0, 1.0, -1.0, 2.0, 0.5)]
        cases += [(-0.0, -0.0, -0.0, 0.5), (math.nan, 0.0, 0.0, 0.5),
                  (0.0, 0.0, math.nan, 0.5), (0.0, 0.0, 0.0, math.nan)]
        flags = set()
        for tx, ty, tz, thrust in cases:
            got = mixer(tx, ty, tz, thrust, params)
            assert repr(got) == repr(oracles.mix(tx, ty, tz, thrust, params)), (
                tx, ty, tz, thrust)
            flags.add(got[4])
        assert flags == {False, True}


MOTORS_OFF = (0.0, 0.0, 0.0, 0.0)


def step(x, motors, dt, params, table):
    """``step_dynamics``'s new state, as an array."""
    return np.array(step_dynamics(x, motors, dt, params, table)[0])


class TestDynamics:
    def test_hover_fixed_point(self, params, table):
        x = hover_state(params)
        u = mixer(0.0, 0.0, 0.0, params.hover_command, params)[:4]
        nxt = step(x, u, 1e-3, params, table)
        assert np.linalg.norm(nxt[3:6]) < 1e-9
        assert np.linalg.norm(nxt[10:13]) < 1e-9
        assert np.linalg.norm(nxt[0:3] - x[0:3]) < 1e-9

    def test_free_fall(self, params, table):
        nxt = step(hover_state(params), MOTORS_OFF, 1e-3, params, table)
        # drag on the few-mm/s velocity acquired within the step is ~1e-10 g
        assert nxt[5] == pytest.approx(params.gravity * 1e-3, abs=1e-8)

    def test_torque_free_conservation(self, table):
        p = AircraftParams(rate_damping=(0.0, 0.0, 0.0))
        inertia = p.inertia
        x = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.3, 1.0, 0.2]
        omega = np.array(x[10:13])
        h0 = np.linalg.norm(inertia @ omega)
        e0 = 0.5 * omega @ inertia @ omega
        for _ in range(10_000):
            x, _ = step_dynamics(x, MOTORS_OFF, 1e-3, p, table)
        omega = np.array(x[10:13])
        h1 = np.linalg.norm(inertia @ omega)
        e1 = 0.5 * omega @ inertia @ omega
        assert abs(h1 / h0 - 1.0) < 1e-8
        assert abs(e1 / e0 - 1.0) < 1e-8

    def test_rk4_convergence_order(self, params):
        # the trajectory must be smooth for an order measurement, so use a
        # constant-coefficient table (bilinear lookup has derivative kinks
        # at grid lines that cap the observed order)
        table = flat_cl_table()
        motors = (0.7, 0.5, 0.4, 0.6)
        x0 = hover_state(params)
        x0[3:6] = 6.0, 0.0, -2.0
        x0[10:13] = 2.0, 3.0, 1.5

        def run(dt, t_end=1.0):
            x = x0
            for _ in range(int(round(t_end / dt))):
                x, _ = step_dynamics(x, motors, dt, params, table)
            return np.array(x)

        ref = run(0.000125)
        e1 = np.linalg.norm(run(0.002) - ref)
        e2 = np.linalg.norm(run(0.001) - ref)
        order = math.log2(e1 / e2)
        assert order >= 3.5

    def test_lift_has_no_side_force_component(self, params, table):
        # force along the velocity-frame y axis must vanish by construction:
        # compare acceleration with drag-free vs full table at a side-slip-
        # free state and check the aero force lies in the x_v/z_v plane
        e = quat.EulerZXY(0.0, 0.6, 0.0)
        q = quat.euler_zxy_to_quat(e)
        v = np.array([8.0, 0.0, -1.0])
        nxt = step([0.0, 0.0, 0.0, *v, *q, 0.0, 0.0, 0.0], MOTORS_OFF, 1e-3, params,
                   table)
        accel = (nxt[3:6] - v) / 1e-3 - params.gravity * np.array([0, 0, 1.0])
        v_dir = v / np.linalg.norm(v)
        rot = np.array(quat.rotation_rows(*q))
        y_v = np.cross(np.cross(v_dir, rot[:, 1]), v_dir)
        # aero acceleration is orthogonal to the velocity-frame y axis
        assert abs(accel @ rot[:, 1]) < 1e-9


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def kernel_aero_force(q, v, params, table):
    """Aero force the kernel's derivatives apply at zero thrust and rates."""
    d = _derivatives(*v, *q, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0, 0.0), params, table)
    return params.mass * (np.array(d[0:3]) - [0.0, 0.0, params.gravity])


class TestAeroForceFrame:
    def test_body_y_velocity_component(self, params, table):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = random_unit_quat(rng)
            v = rotation_matrix(q) @ np.array([6.0, 2.5, 1.5])
            np.testing.assert_allclose(kernel_aero_force(q, v, params, table),
                                       velocity_frame_force(q, v, table, params),
                                       rtol=0.0, atol=1e-9)

    def test_pure_side_slip_fallback(self, params):
        # velocity along body y: the symmetry plane is undefined; the flat
        # table makes CL and CD independent of the ill-conditioned alpha
        table = flat_cl_table()
        rng = np.random.default_rng(18)
        for q in [np.array([1.0, 0.0, 0.0, 0.0])] + [random_unit_quat(rng)
                                                    for _ in range(10)]:
            v = 7.0 * rotation_matrix(q)[:, 1]
            f = kernel_aero_force(q, v, params, table)
            np.testing.assert_allclose(f, velocity_frame_force(q, v, table, params),
                                       rtol=0.0, atol=1e-9)
            qbar = 0.5 * params.air_density * 49.0 * params.wing_area
            assert np.linalg.norm(f) == pytest.approx(qbar * math.hypot(1.0, 0.5))

    def test_angle_of_attack_matches_body_velocity(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q = random_unit_quat(rng)
            v = rng.normal(scale=5.0, size=3)
            alpha, speed = air_data(quat.rotation_rows(*q.tolist()), *v.tolist())
            vb = rotation_matrix(q).T @ v
            assert alpha == pytest.approx(math.atan2(vb[2], vb[0]), abs=1e-12)
            assert speed == pytest.approx(np.linalg.norm(v), rel=1e-15)


# plants for the lifted realization: the reference (a 21-sample delay, 5
# ticks and 1 sample), the shipped pipeline's true plant, and delays of 19,
# 22 and 0 plant samples, which leave 3, 2 and 0 samples past whole ticks;
# 21.6 ms is no whole number of plant samples and rounds to 22
LIFTED_PLANTS = {
    "reference": PlantFitParams.reference(),
    "pipeline": PipelineConfig().true_params,
    "delay_19": replace(PlantFitParams.reference(), delay_s=0.019),
    "delay_21.6": replace(PlantFitParams.reference(), delay_s=0.0216),
    "delay_22": replace(PlantFitParams.reference(), delay_s=0.022),
    "no_delay": replace(PlantFitParams.reference(), delay_s=0.0),
}


class TestLinearAxisPlant:
    def test_step_input_reaches_constant_ramp(self):
        plant = LinearAxisPlant(PlantFitParams.reference())
        u = 0.01
        y = [plant.step(u) for _ in range(750)]  # 3 s of 4 ms ticks
        # integrator: late-time slope equals u * dc-gain of the non-integrating part
        slope = (y[-1] - y[-126]) / 0.5
        assert slope == pytest.approx(0.01 * 260.0, rel=0.02)

    def test_sinusoid_gain_at_resonance(self):
        ref = PlantFitParams.reference()
        plant = oracles.CascadeAxisPlant(ref)
        f = ref.peak.freq_hz
        t = np.arange(0, 10.0, 1e-3)
        u = 0.001 * np.sin(2 * np.pi * f * t)
        y = np.array([plant.process(v) for v in u])
        tail = slice(-2000, None)
        ratio = (np.max(y[tail]) - np.min(y[tail])) / (np.max(u[tail]) - np.min(u[tail]))
        assert ratio == pytest.approx(abs(tf_eval(fitted_plant(), f)), rel=0.02)

    def test_step_holds_the_command_over_one_tick(self):
        ticked = oracles.CascadeAxisPlant(PlantFitParams.reference())
        sampled = oracles.CascadeAxisPlant(PlantFitParams.reference())
        for u in np.random.default_rng(3).normal(0.0, 0.01, 50).tolist():
            y = [sampled.process(u) for _ in range(SUBSTEPS)]
            assert ticked.step(u) == y[-1]

    def test_discrete_realization_tracks_continuous_response(self):
        ref = PlantFitParams.reference()
        plant = oracles.CascadeAxisPlant(ref)
        f = np.linspace(0.5, 25.0, 80)
        ratio = plant.response(f) / tf_eval(fitted_plant(), f)
        assert np.max(np.abs(20.0 * np.log10(np.abs(ratio)))) < 1.0
        assert np.max(np.abs(np.degrees(np.angle(ratio)))) < 5.0

    @pytest.mark.parametrize("name", sorted(LIFTED_PLANTS))
    def test_response_equals_polyphase_sum(self, name):
        # the control-rate sections, tap and delay line realize the held
        # plant-rate cascade sampled at the end of each tick: its response
        # is the polyphase sum over the cascade, to 1e-9 relative up to the
        # 125 Hz Nyquist frequency of the control rate
        p = LIFTED_PLANTS[name]
        plant = LinearAxisPlant(p)
        oracle = oracles.CascadeAxisPlant(p)
        assert plant.delay_ticks == oracle.delay_samples // SUBSTEPS
        f = np.geomspace(0.01, 125.0, 20001)
        lifted = oracles.lifted_response(oracle, f)
        assert np.max(np.abs(plant.response(f) / lifted - 1.0)) < 1e-9

    @pytest.mark.parametrize("name", sorted(LIFTED_PLANTS))
    def test_outputs_match_the_plant_rate_cascade(self, name):
        # 15 000 ticks of random commands; the plants agree to 1e-9 of the
        # largest rate (about 2 rad/s here: the integrator wanders)
        p = LIFTED_PLANTS[name]
        plant = LinearAxisPlant(p)
        oracle = oracles.CascadeAxisPlant(p)
        u = np.random.default_rng(1).normal(0.0, 0.01, 15_000).tolist()
        y = np.array([plant.step(v) for v in u])
        y_ref = np.array([oracle.step(v) for v in u])
        assert np.max(np.abs(y - y_ref)) <= 1e-9 * np.max(np.abs(y_ref))

    def test_step_runs_no_plant_rate_cascade(self, monkeypatch):
        from tailsitter.biquad import BiquadCascade

        plant = LinearAxisPlant(PlantFitParams.reference())
        monkeypatch.setattr(BiquadCascade, "process", None)
        assert [plant.step(1.0) for _ in range(7)][-1] != 0.0

    def test_coinciding_lifted_poles_rejected(self):
        # a peak and an anti-resonance with one denominator: their lifted
        # poles coincide, so the cascade has double poles that no parallel
        # sum of second-order sections reproduces
        ref = PlantFitParams.reference()
        p = replace(ref, anti=replace(ref.anti, freq_hz=ref.peak.freq_hz,
                                      den_damp=ref.peak.den_damp))
        with pytest.raises(ValueError, match="no parallel realization"):
            LinearAxisPlant(p)
        # 0.1 % apart they are realized, as exactly as the reference
        near = replace(p, anti=replace(p.anti, freq_hz=1.001 * ref.peak.freq_hz))
        f = np.geomspace(0.01, 125.0, 2001)
        lifted = oracles.lifted_response(oracles.CascadeAxisPlant(near), f)
        assert np.max(np.abs(LinearAxisPlant(near).response(f) / lifted - 1.0)) < 1e-9


class TestNonlinearMatchesIdentifiedLowFrequency:
    def test_small_signal_pitch_response(self):
        # open-loop pitch torque -> rate on the rigid-body plant (flexible
        # modes and delay disabled) vs the second-order low-frequency core
        # of the identified model: gain / (s (1 + pole_tc s)); agreement
        # within 3 dB over [1, 5] Hz ties the physical parameters to the
        # identification
        from tailsitter.lti import ContinuousTF
        from tailsitter.plant import SensorConfig, TailsitterSim

        params = AircraftParams()
        approx = ContinuousTF([260.0], np.convolve([0.0, 1.0], [1.0, 0.0637]))
        for f in (1.0, 2.0, 5.0):
            sim = TailsitterSim(params, default_aero_table(), flex=None,
                                delay_s=0.0,
                                sensor=SensorConfig(gyro_noise_std=0.0),
                                seed=0)
            amp = 0.002
            rates = []
            n = int(4.0 * 250)
            for k in range(n):
                u = amp * math.sin(2.0 * math.pi * f * k / 250.0)
                sim.step(np.array([0.0, u, 0.0]), params.hover_command)
                rates.append(sim.x[11])
            tail = np.array(rates[-int(500 / f) :])
            gain = (np.max(tail) - np.min(tail)) / (2.0 * amp)
            expected = abs(tf_eval(approx, f))
            assert abs(20.0 * math.log10(gain / expected)) < 3.0


def sense(sensor, rates):
    """(N, 3) true rates fed at 1 kHz -> (N/4, 3) measured at the control
    rate: the sample of each tick's last substep, as TailsitterSim.step
    returns it."""
    out = [sensor.process(*row) for row in np.asarray(rates, dtype=float).tolist()]
    return np.array(out[SUBSTEPS - 1::SUBSTEPS])


class TestSensor:
    def test_constant_rate_passthrough(self):
        s = RateSensor(SensorConfig(gyro_noise_std=0.0), seed=0)
        out = sense(s, np.tile([0.3, -0.2, 0.1], (2000, 1)))
        np.testing.assert_allclose(out[-1], [0.3, -0.2, 0.1], atol=1e-6)
        assert out.shape[0] == 500

    def test_14hz_tone_attenuation_below_0p3db(self):
        s = RateSensor(SensorConfig(gyro_noise_std=0.0), seed=0)
        t = np.arange(0, 4.0, 1e-3)
        tone = np.sin(2 * np.pi * 14.0 * t)
        rates = np.column_stack([tone, tone, tone])
        out = sense(s, rates)[-250:]
        att_db = 20.0 * math.log10((np.max(out[:, 0]) - np.min(out[:, 0])) / 2.0)
        assert abs(att_db) < 0.3

    def test_noise_variance_reduction_matches_filter_power(self):
        cfg = SensorConfig(gyro_noise_std=0.02, corner_hz=100.0)
        s = RateSensor(cfg, seed=7)
        out = sense(s, np.zeros((200_000, 3)))
        measured_ratio = np.var(out[:, 0]) / cfg.gyro_noise_std**2
        # oracle: quadrature of the digital filter's squared magnitude
        filt = discretize_tustin(butterworth2(100.0), 1000.0)
        f = np.linspace(0.0, 500.0, 20001)
        h2 = np.abs(filt.response(f)) ** 2
        expected_ratio = np.trapezoid(h2, f) / 500.0
        assert abs(measured_ratio / expected_ratio - 1.0) < 0.10

    def test_deterministic_under_seed(self):
        rates = np.tile([0.1, 0.0, -0.1], (1000, 1))
        a = sense(RateSensor(SensorConfig(), seed=5), rates)
        b = sense(RateSensor(SensorConfig(), seed=5), rates)
        np.testing.assert_array_equal(a, b)


class TestVibration:
    def test_zero_amplitude(self):
        out = rotor_vibration(np.linspace(0, 1, 100), VibrationConfig(amplitude=0.0))
        assert np.all(out == 0.0)

    def test_band_confinement(self):
        cfg = VibrationConfig(amplitude=0.05, seed=3)
        t = np.arange(0, 20.0, 1e-3)
        sig = rotor_vibration(t, cfg)[:, 1]
        spec = np.abs(np.fft.rfft(sig)) ** 2
        freqs = np.fft.rfftfreq(sig.size, 1e-3)
        band = (freqs >= 74.0) & (freqs <= 91.0)
        assert np.sum(spec[band]) / np.sum(spec) > 0.99

    def test_vibration_reaches_measurement_chain(self):
        # closed-loop wiring check: with rotor vibration enabled the 250 Hz
        # gyro output carries 75-90 Hz content the clean run lacks
        from tailsitter.sim import Scenario, run_nonlinear

        logs = {}
        for amp in (0.0, 0.1):
            sc = Scenario(name="vib", mode="nonlinear", duration_s=3.0,
                          seed=4, vibration=VibrationConfig(amplitude=amp))
            logs[amp] = run_nonlinear(sc)

        def band_power(log):
            w = log.telemetry[:, 13]  # measured pitch rate
            spec = np.abs(np.fft.rfft(w - np.mean(w))) ** 2
            freqs = np.fft.rfftfreq(w.size, 1.0 / 250.0)
            return np.sum(spec[(freqs >= 70.0) & (freqs <= 95.0)])

        assert band_power(logs[0.1]) > 50.0 * band_power(logs[0.0])

    def test_attenuation_through_measurement_filter(self):
        # oracle: tone-weighted |B|^2 of the 69 Hz filter over the band;
        # direct evaluation gives 3.7..5.8 dB for tones in [75, 90] Hz
        cfg = VibrationConfig(amplitude=0.05, seed=3)
        t = np.arange(0, 20.0, 1e-3)
        sig = rotor_vibration(t, cfg)[:, 1]
        filt = discretize_tustin(butterworth2(69.0), 1000.0)
        out = oracles.process_block(filt, sig)
        att_db = 10.0 * math.log10(np.var(sig[2000:]) / np.var(out[2000:]))
        freqs = np.linspace(cfg.f_lo, cfg.f_hi, cfg.n_tones)
        expected = -10.0 * math.log10(
            np.mean(np.abs(filt.response(freqs)) ** 2))
        assert att_db == pytest.approx(expected, abs=0.5)
        assert att_db > 3.5


# State-log rows 62, 124 and 249 of the builtin transition (the states at
# t = 0.252, 0.5 and 1.0 s) as computed by the numpy-array implementation of
# the plant that the flat-state kernel replaced: t, p, v, q, omega, motors.
TRANSITION_GOLDEN = {
    62: [0.248, -6.597006531636318e-06, -4.928325206427879e-06,
         -49.999999999809155, -5.311461797733228e-05, -6.154690327777202e-05,
         1.2915691810870092e-09, 0.7071192307964406, -2.0714463048773433e-05,
         0.7070943309529758, -1.1955119685778537e-05, -0.00015704561439611238,
         0.0015910748358850264, -0.00036996000999584694, 0.5003061342512171,
         0.5004831646241064, 0.49959263703712303, 0.49961806856820906],
    124: [0.496, -3.040547805782191e-05, -4.200522110637087e-05,
          -49.999999998811816, -0.00022473370263159979, -0.00026748903333006683,
          1.3040165955639316e-08, 0.7070866284897227, -5.3205896569817394e-05,
          0.7071269300023603, -4.2960524760272584e-05, -5.444631397243804e-05,
          -0.005905382930268005, 0.00019469725426828733, 0.4998518238686718,
          0.5003883214959481, 0.500083375658491, 0.4996765183370536],
    249: [0.996, -0.00028730794350370495, -0.00034768572534107754,
          -49.99999999453906, -0.0008785121582260756, -0.0009773708807778896,
          -2.7687887807677695e-09, 0.7070456732378151, -6.265665018107604e-05,
          0.7071678807986879, -1.9912857183215042e-05, -0.00015733593969697134,
          -0.004011413301353549, 0.00035023411263882133, 0.49886019732695225,
          0.49907944701135193, 0.5011120889354047, 0.5009483208826826],
}


class TestKernel:
    @pytest.fixture(scope="class")
    def transition_first_second(self):
        sc = replace(builtin_scenarios()["transition"], duration_s=1.0)
        return run_nonlinear(sc), run_nonlinear(sc)

    def test_matches_numpy_implementation(self, transition_first_second):
        log, _ = transition_first_second
        for row, values in TRANSITION_GOLDEN.items():
            np.testing.assert_allclose(log.simlog[row, :18], values, rtol=0.0,
                                       atol=1e-9)
        flags = log.telemetry[:, -1].astype(int)
        assert not np.any(flags & (FLAG_AERO_CLAMP | FLAG_FF_CLAMP))

    def test_same_seed_bit_identical(self, transition_first_second):
        a, b = transition_first_second
        np.testing.assert_array_equal(a.telemetry, b.telemetry)
        np.testing.assert_array_equal(a.simlog, b.simlog)

    def test_block_noise_equals_per_sample_draws(self):
        # reference: one rng.normal(0, std, 3) draw per 1 kHz sample
        cfg = SensorConfig(gyro_noise_std=0.02)
        n = 2 * RateSensor.NOISE_BLOCK + 7  # crosses two block refills
        rates = np.random.default_rng(1).normal(0.0, 0.1, (n, 3))
        out = sense(RateSensor(cfg, seed=9), rates)
        rng = np.random.default_rng(9)
        filters = [discretize_tustin(butterworth2(cfg.corner_hz), 1000.0)
                   for _ in range(3)]
        ref = []
        for k, row in enumerate(rates):
            noisy = row + rng.normal(0.0, cfg.gyro_noise_std, 3)
            y = [f.process(x) for f, x in zip(filters, noisy)]
            if (k + 1) % 4 == 0:
                ref.append(y)
        np.testing.assert_array_equal(out, np.array(ref))

    def test_nonfinite_command_or_state_rejected(self, params, table):
        sim = TailsitterSim(params, table)
        with pytest.raises(SimNumericsError):
            sim.step([0.0, math.inf, 0.0], 0.5)
        x = hover_state(params)
        x[3] = 1e200
        sim = TailsitterSim(params, table, state=x)
        with pytest.raises(SimNumericsError):
            sim.step((0.0, 0.0, 0.0), params.hover_command)

    def test_layer_spans_see_the_kernel(self, params, table, monkeypatch):
        # the benchmark's --trace spans wrap these names wherever the package
        # binds them, so each substep must reach every stage by its name
        x = hover_state(params)
        x[3] = 5.0  # an airspeed, so that the aero lookup runs
        sim = TailsitterSim(params, table, state=x,
                            vibration=VibrationConfig(amplitude=0.1))
        counts = {}

        def counted(name, fn):
            counts[name] = 0

            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("step_dynamics", "mixer", "aero_forces", "rotor_vibration"):
            orig = getattr(plant, name)
            wrapped = counted(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and mod_name.split(".")[0] == "tailsitter":
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            monkeypatch.setattr(mod, key, wrapped)
        monkeypatch.setattr(RateSensor, "process",
                            counted("RateSensor.process", RateSensor.process))
        for _ in range(2):
            sim.step((0.0, 0.0, 0.0), params.hover_command)
        assert all(counts.values()), counts
