import dataclasses
import json

import numpy as np
import pytest

from tailsitter import cli, metrics
from tailsitter.control import (
    AltitudeLoopConfig,
    AttitudeLoopConfig,
    NotchConfig,
    RateLoopConfig,
    default_notch_config,
)
from tailsitter.dataio import (
    ConfigError,
    from_config,
    load_aero_table,
    read_csv,
    save_aero_table,
    tf_from_config,
    to_config,
    write_bode_csv,
    write_biquad_csv,
    write_csv,
)
from tailsitter.harness import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    PipelineConfig,
    builtin_scenarios,
    compare_runs,
    run_scenario,
    scenario_from_config,
    scenario_to_config,
)
from tailsitter.lti import PlantFitParams, ResonanceParams
from tailsitter.plant import (AircraftParams, SensorConfig, VibrationConfig,
                             default_aero_table)
from tailsitter.sim import Event, Scenario, run_linear_axis
from tailsitter.sysid import ChirpConfig


def short_ab_scenario(name="ab_short", enabled_at=6.0, duration=9.0, seed=1,
                      noise=0.0):
    return Scenario(
        name=name,
        mode="linear-axis",
        duration_s=duration,
        seed=seed,
        events=(
            Event(0.0, "notch", {"enabled": False}),
            Event(enabled_at, "notch", {"enabled": True}),
        ),
        rate_cfg=RateLoopConfig(
            kp=(0.054,) * 3, ki=(0.06,) * 3, kd=(0.006,) * 3,
            notches=(None, default_notch_config(), None)),
        initial_pitch_rate=0.01,
        meas_noise_std=noise,
        check_suite="notch_ab",
    )


class TestRunScenario:
    def test_builtin_notch_ab_passes(self, tmp_path):
        report = run_scenario("hover_notch_ab", tmp_path)
        assert report.passed
        assert (tmp_path / "hover_notch_ab_telemetry.csv").exists()
        assert (tmp_path / "hover_notch_ab_report.txt").exists()

    def test_metrics_recomputable_from_csv(self, tmp_path):
        report = run_scenario("hover_notch_ab", tmp_path)
        header, data = read_csv(tmp_path / "hover_notch_ab_telemetry.csv")
        t = data[:, 0]
        w = data[:, header.index("w_meas_y")]
        seg = (t >= 4.0) & (t < 10.0)
        f = metrics.dominant_frequency(w[seg], 1.0 / (t[1] - t[0]))
        assert f == report.metrics["divergence_dominant_hz"]

    def test_unknown_source_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario(tmp_path / "nope.json", tmp_path)

    def test_rate_step_reports_integrator_hump(self, tmp_path):
        # the type-2 loop must overshoot; the report records the design
        # target as a failing check with the computed value
        report = run_scenario("rate_step", tmp_path)
        assert 6.0 < report.metrics["worst_overshoot_pct"] < 16.0
        failed = {name for name, ok, _ in report.checks if not ok}
        assert failed == {"rate_step_overshoot"}
        assert report.metrics["rise_time_s"] < 0.5


class TestCompareRuns:
    def test_identical_seeds_bit_identical(self, tmp_path):
        a = run_scenario(short_ab_scenario(seed=4, noise=1e-4), tmp_path / "a")
        b = run_scenario(short_ab_scenario(seed=4, noise=1e-4), tmp_path / "b")
        diff = compare_runs(a.artifacts[0], b.artifacts[0])
        assert diff.identical

    def test_different_seeds_same_verdicts(self, tmp_path):
        a = run_scenario(short_ab_scenario(seed=4, noise=1e-4), tmp_path / "a")
        b = run_scenario(short_ab_scenario(seed=5, noise=1e-4), tmp_path / "b")
        diff = compare_runs(a.artifacts[0], b.artifacts[0])
        assert not diff.identical
        assert a.passed == b.passed
        for (na, oka, _), (nb, okb, _) in zip(a.checks, b.checks):
            assert na == nb and oka == okb

    def test_notch_toggle_changes_divergence_flag(self, tmp_path):
        diverging = Scenario(
            name="div", mode="linear-axis", duration_s=6.0, seed=1,
            events=(Event(0.0, "notch", {"enabled": False}),),
            rate_cfg=RateLoopConfig(
                kp=(0.054,) * 3, ki=(0.06,) * 3, kd=(0.006,) * 3,
                notches=(None, default_notch_config(), None)),
            initial_pitch_rate=0.01,
        )
        stable = Scenario(
            name="stab", mode="linear-axis", duration_s=6.0, seed=1,
            rate_cfg=diverging.rate_cfg,
            initial_pitch_rate=0.01,
        )
        ra = run_scenario(diverging, tmp_path / "a")
        rb = run_scenario(stable, tmp_path / "b")
        ha, wa = read_csv(tmp_path / "a" / "div_telemetry.csv")
        hb, wb = read_csv(tmp_path / "b" / "stab_telemetry.csv")
        col = ha.index("w_meas_y")
        ga = metrics.max_growth_rate(wa[:, 0], wa[:, col], t_lo=1.0)
        gb = metrics.max_growth_rate(wb[:, 0], wb[:, col], t_lo=1.0)
        assert ga > 0.1 and gb < 0.05

    def test_schema_mismatch_rejected(self, tmp_path):
        report = run_scenario(short_ab_scenario(), tmp_path)
        other = tmp_path / "other.csv"
        other.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            compare_runs(report.artifacts[0], other)


# short_ab_scenario(duration=4.0) in the format of dumps written by earlier
# versions, which must keep loading: diagonal inertia only, no gravity, and
# sensor and altitude sections without some of their fields
PARENT_FORMAT_AB_SHORT = {
    "name": "ab_short", "mode": "linear-axis", "duration_s": 4.0, "seed": 1,
    "aircraft": {
        "mass": 1.2, "inertia": [0.03, 0.008, 0.036], "wing_area": 0.1332,
        "air_density": 1.225,
        "rotor_positions": [[0.0, 0.22, 0.09], [0.0, -0.22, 0.09],
                            [0.0, -0.22, -0.09], [0.0, 0.22, -0.09]],
        "spin_directions": [1.0, -1.0, 1.0, -1.0], "rotor_torque_ratio": 0.015,
        "thrust_coeff": 23.544, "hover_command": 0.5, "motor_tau_s": 0.0637,
        "rate_damping": [0.02, 0.02, 0.03]},
    "events": [{"t": 0.0, "kind": "notch", "enabled": False},
               {"t": 6.0, "kind": "notch", "enabled": True}],
    "rate_loop": {
        "kp": [0.054, 0.054, 0.054], "ki": [0.06, 0.06, 0.06],
        "kd": [0.006, 0.006, 0.006], "deriv_corner_hz": 18.0,
        "notches": [None, {"center_hz": 14.012811389146233, "k1": 0.15,
                           "k2": 0.018}, None],
        "integrator_limit": 1.0, "output_limit": 1.0},
    "attitude_loop": {"gains": [4.0, 4.0, 2.0]},
    "altitude_loop": {"alt_gain": 1.0, "ff_gain": 1.0, "kp_vz": 0.15,
                      "ki_vz": 0.05, "v_z_limit": 3.0},
    "plant_params": {
        "lf_corner_hz": 69.0, "main_num": [260.0, 3.764, 0.01362],
        "main_pole_tc": 0.0637,
        "peak": {"freq_hz": 14.012811389146233, "num_damp": 0.2104277666118241,
                 "den_damp": 0.03002337590570377},
        "anti": {"freq_hz": 26.979289582865313, "num_damp": 0.020002873356813906,
                 "den_damp": 0.22037063867676335},
        "delay_s": 0.021},
    "flex_enabled": True, "delay_enabled": True,
    "sensor": {"gyro_noise_std": 0.005, "corner_hz": 100.0},
    "vibration": {"amplitude": 0.0, "f_lo": 75.0, "f_hi": 90.0, "n_tones": 5,
                  "seed": 0},
    "meas_noise_std": 0.0, "initial_altitude_m": 50.0,
    "initial_pitch_rate": 0.01, "aero_table_path": None,
    "check_suite": "notch_ab",
}


def every_field_scenario():
    """A scenario whose every field, nested ones too, is off its default."""
    return Scenario(
        name="every_field", mode="nonlinear", duration_s=3.0, seed=9,
        events=(Event(0.5, "altitude", {"alt": 51.0}),
                Event(1.0, "pitch_ramp", {"pitch_to": 1.2, "duration": 0.5}),
                Event(2.0, "attitude", {"roll": 0.1, "pitch": 1.5, "yaw": -0.1}),
                Event(2.5, "notch", {"enabled": False})),
        rate_cfg=RateLoopConfig(
            kp=(0.08, 0.09, 0.07), ki=(0.11, 0.1, 0.12), kd=(0.01, 0.011, 0.012),
            deriv_corner_hz=17.0,
            notches=(None, NotchConfig(13.5, 0.2, 0.02), None),
            integrator_limit=0.8, output_limit=0.9),
        attitude_cfg=AttitudeLoopConfig((3.0, 4.5, 2.5)),
        altitude_cfg=AltitudeLoopConfig(
            alt_gain=0.9, ff_gain=0.8, kp_vz=0.2, ki_vz=0.04, v_z_limit=2.5,
            min_vertical_authority=0.1),
        params=AircraftParams(
            mass=1.3, gravity=9.80665,
            inertia=[[0.03, 0.001, 0.0], [0.001, 0.008, 0.0002],
                     [0.0, 0.0002, 0.036]],
            wing_area=0.14, air_density=1.2,
            rotor_positions=[[0.01, 0.21, 0.09], [0.01, -0.21, 0.09],
                             [-0.01, -0.21, -0.09], [-0.01, 0.21, -0.09]],
            spin_directions=(-1.0, 1.0, -1.0, 1.0), rotor_torque_ratio=0.016,
            thrust_coeff=25.0, hover_command=0.51, motor_tau_s=0.06,
            rate_damping=(0.021, 0.022, 0.031)),
        plant_params=PlantFitParams(
            lf_corner_hz=70.0, main_num=(250.0, 3.7, 0.0135), main_pole_tc=0.064,
            peak=ResonanceParams(14.5, 0.22, 0.031),
            anti=ResonanceParams(27.5, 0.021, 0.23), delay_s=0.02),
        flex_enabled=False, delay_enabled=False,
        sensor_cfg=SensorConfig(gyro_noise_std=0.004, corner_hz=90.0),
        vibration_cfg=VibrationConfig(amplitude=0.01, f_lo=76.0, f_hi=89.0,
                                      n_tones=4, seed=2),
        meas_noise_std=0.001, initial_altitude_m=40.0, initial_pitch_rate=0.02,
        aero_table_path="table.csv", check_suite="transition",
    )


def every_field_pipeline():
    return PipelineConfig(
        chirp=ChirpConfig(2.0, 50.0, 30.0, 0.05, 200.0),
        true_params=PlantFitParams(delay_s=0.02,
                                   peak=ResonanceParams(14.5, 0.22, 0.031)),
        n_freqs=40, cycles_per_window=50.0, correct_hold=False, noise_std=0.01,
        seed=5, kp=0.08, ki=0.11, kd=0.012, deriv_corner_hz=17.0,
        notch_k1=0.16, notch_k2=0.017, skip_notch=True, slope_band=(0.5, 12.0))


def assert_same_fields(a, b, path=""):
    """Field-by-field equality, values and their types, through nesting."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name),
                               f"{path}.{f.name}")
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_fields(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert type(a) is type(b) and a == b, f"{path}: {a!r} != {b!r}"


# (scenario config, dotted path the error must name)
BAD_SCENARIOS = [
    ({"name": "x", "events": [{"t": 0.0, "kind": "warp_drive"}]}, "events[0]"),
    ({"name": "x", "rate_loop": {"kpp": 0.1}}, "rate_loop.kpp"),
    ({"name": "x", "aircraft": {"gravity": 9.8, "gravityy": 9.8}},
     "aircraft.gravityy"),
    ({"name": "x", "plant_params": {"peak": {"freq_hz": 14.0, "q": 1.0}}},
     "plant_params.peak.q"),
    ({"name": "x", "rate_loop": {"sample_hz": 500.0}}, "rate_loop.sample_hz"),
    ({"name": "x", "sensor": {"decimation": 8}}, "sensor.decimation"),
    ({"name": "x", "flex_enabled": "no"}, "flex_enabled"),
    ({"name": "x", "rate_loop": {"kp": [0.1, 0.1]}}, "rate_loop.kp"),
    ({"name": "x", "rate_loop": {"kp": [0.1, -0.1, 0.1]}}, "rate_loop"),
    ({"name": "x", "mode": "linear-axis",
      "events": [{"t": 1.0, "kind": "altitude", "alt": 60.0}]}, "events[0]"),
    ({"name": "x", "mode": "linear-axis", "events": [{"t": 1.0, "kind": "notch"}]},
     "events[0]"),
    ({"name": "x", "mode": "linear-axis",
      "events": [{"t": 1.0, "kind": "rate_cmd", "yy": 0.3}]}, "events[0]"),
    ({"name": "x", "mode": "linear-axis", "check_suite": "rate_stepp",
      "events": [{"t": 1.0, "kind": "rate_cmd", "y": 0.3}]}, "check_suite"),
    ({"name": "x", "mode": "linear-axis", "check_suite": "transition",
      "events": [{"t": 1.0, "kind": "notch", "enabled": True}]}, "check_suite"),
    ({"name": "x", "mode": "linear-axis", "check_suite": "rate_step"},
     "check_suite"),
    ({"name": "x", "mode": "linear-axis",
      "events": [{"t": 1.0, "kind": "inject_chirp", "f0": 1.0, "f1": 200.0,
                  "duration": 1.0, "amplitude": 0.1}]}, "events[0]"),
    # values that used to load and then crash or mislead mid-run
    ({"name": "r0", "duration_s": 6, "events": [
        {"t": 1, "kind": "pitch_ramp", "pitch_to": 1.4, "duration": 0}]},
     "events[0]"),
    ({"name": "nt", "aircraft": {"motor_tau_s": 0}}, "aircraft"),
    ({"name": "x", "duration_s": float("nan")}, "duration_s"),
    ({"name": "x", "mode": "linear-axis",
      "events": [{"t": 1.0, "kind": "rate_cmd", "y": float("inf")}]}, "events[0]"),
    ({"name": "x", "events": [{"t": 1.0, "kind": "altitude", "alt": float("nan")}]},
     "events[0]"),
    ({"name": "x", "events": [{"t": float("nan"), "kind": "altitude", "alt": 50.0}]},
     "events[0].t"),
    ({"name": "x", "rate_loop": {"kp": [0.1, float("inf"), 0.1]}}, "rate_loop.kp[1]"),
    ({"name": "x", "aircraft": {"inertia": [0.03, float("nan"), 0.036]}},
     "aircraft.inertia"),
]


class TestScenarioSerialization:
    def test_round_trip_preserves_behavior(self, tmp_path):
        sc = short_ab_scenario(duration=4.0)
        a = run_linear_axis(sc)
        for cfg in (scenario_to_config(sc), PARENT_FORMAT_AB_SHORT):
            sc2 = scenario_from_config(json.loads(json.dumps(cfg)))
            b = run_linear_axis(sc2)
            np.testing.assert_array_equal(a.telemetry, b.telemetry)
        # every field, nested ones included, survives config -> JSON -> config
        for cls, obj in ((Scenario, every_field_scenario()),
                         (PipelineConfig, every_field_pipeline())):
            loaded = from_config(cls, json.loads(json.dumps(to_config(obj))))
            assert_same_fields(obj, loaded, cls.__name__)
        sc = scenario_from_config(json.loads(json.dumps(
            scenario_to_config(every_field_scenario()))))
        assert sc.params.gravity == 9.80665
        assert sc.params.inertia[0, 1] == 0.001
        assert sc.altitude_cfg.min_vertical_authority == 0.1

    def test_bad_event_kind_rejected(self):
        for cfg, path in BAD_SCENARIOS:
            with pytest.raises(ConfigError) as exc:
                scenario_from_config(cfg)
            assert str(exc.value).startswith(path + ":"), (cfg, str(exc.value))

    def test_partial_section_keeps_defaults(self):
        sc = scenario_from_config({"name": "x", "rate_loop": {"kp": [0.1, 0.1, 0.1]}})
        assert sc.rate_cfg.kp == (0.1, 0.1, 0.1)
        assert sc.rate_cfg.notches == RateLoopConfig.reference_pitch_design().notches
        p = from_config(PipelineConfig, {"true_params": {"peak": {"freq_hz": 15.0}}})
        ref = PlantFitParams.reference()
        assert p.true_params.peak == ResonanceParams(15.0, ref.peak.num_damp,
                                                     ref.peak.den_damp)
        assert p.true_params.anti == ref.anti

    def test_aircraft_overrides(self):
        sc = scenario_from_config({
            "name": "heavy", "mode": "nonlinear", "duration_s": 1.0,
            "aircraft": {"mass": 2.0, "hover_command": 0.6,
                         "thrust_coeff": 2.0 * 9.81 / 0.6},
        })
        assert sc.params.mass == 2.0
        # hover identity still holds for the overridden airframe
        assert sc.params.thrust_coeff * sc.params.hover_command == pytest.approx(
            sc.params.mass * sc.params.gravity, rel=1e-12)
        cfg = scenario_to_config(sc)
        assert cfg["aircraft"]["mass"] == 2.0

    def test_aero_table_path(self, tmp_path):
        from tailsitter.dataio import save_aero_table
        from tailsitter.plant import default_aero_table
        from tailsitter.sim import run_nonlinear

        table_path = tmp_path / "table.csv"
        save_aero_table(table_path, default_aero_table())
        sc = scenario_from_config({
            "name": "tbl", "mode": "nonlinear", "duration_s": 0.5,
            "aero_table_path": str(table_path),
        })
        log = run_nonlinear(sc)
        assert log.diverged_at is None

    def test_chirp_injection_event(self, tmp_path):
        sc = Scenario(
            name="inj", mode="linear-axis", duration_s=6.0, seed=1,
            events=(Event(1.0, "inject_chirp",
                          {"f0": 2.0, "f1": 30.0, "duration": 4.0,
                           "amplitude": 0.05}),),
            rate_cfg=RateLoopConfig.reference_pitch_design(),
        )
        report = run_scenario(sc, tmp_path)
        header, tele = read_csv(tmp_path / "inj_telemetry.csv")
        t = tele[:, 0]
        torque = tele[:, header.index("torque_y")]
        w = tele[:, header.index("w_meas_y")]
        # injection appears on the torque channel and excites the plant
        assert np.max(np.abs(torque[(t >= 1.0) & (t < 5.0)])) > 0.04
        assert np.max(np.abs(w[(t >= 1.0) & (t < 5.0)])) > 0.05
        assert np.max(np.abs(w[t < 1.0])) < 1e-6

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError):
            Scenario(name="x", events=(
                Event(5.0, "notch", {"enabled": True}),
                Event(1.0, "notch", {"enabled": False}),
            ))


class TestDataIO:
    def test_bode_export_schema(self, tmp_path):
        path = write_bode_csv(tmp_path / "bode.csv", tf_from_config(
            {"plant": "reference"}), 0.5, 50.0)
        header, data = read_csv(path)
        assert header == ["freq_hz", "mag_db", "phase_deg"]
        # >= 100 points/decade over two decades
        assert data.shape[0] >= 200
        assert np.all(np.diff(data[:, 0]) > 0.0)
        # delay keeps unwrapped phase monotone negative at high frequency
        assert data[-1, 2] < -360.0
        # pinned to the last bit
        assert data[::50, 2].tolist() == [
            -102.92183915666762, -127.4052523677592, -169.49565404141362,
            -282.0322622592767, -482.24624232795423]

    def test_write_csv_bytes(self, tmp_path):
        # bool and int cells as 1/0 and decimal, floats at repr precision,
        # csv line ends; a float array and the same rows as tuples agree
        path = write_csv(tmp_path / "mixed.csv", ["a", "b", "c", "d"],
                         [(True, 3, np.float64(0.1), 2.5e-300),
                          (np.bool_(False), np.int64(-7), 1 / 3, float("nan"))])
        assert path.read_bytes() == (b"a,b,c,d\r\n1,3,0.1,2.5e-300\r\n"
                                     b"0,-7,0.3333333333333333,nan\r\n")
        arr = np.array([[0.1, -2.0, 1e20], [np.pi, 0.0, -1.5e-7]])
        expected = b"x,y,z\r\n0.1,-2.0,1e+20\r\n3.141592653589793,0.0,-1.5e-07\r\n"
        for rows in (arr, [tuple(r) for r in arr]):
            assert write_csv(tmp_path / "f.csv", ["x", "y", "z"],
                             rows).read_bytes() == expected

    def test_biquad_export_schema(self, tmp_path):
        from tailsitter.biquad import discretize_tustin
        from tailsitter.lti import notch

        c = discretize_tustin(notch(14.0, 0.2, 0.05), 250.0, prewarp_hz=14.0)
        path = write_biquad_csv(tmp_path / "biq.csv", c)
        header, data = read_csv(path)
        assert header == ["section", "b0", "b1", "b2", "a1", "a2"]
        assert data.shape[0] == len(c.sections)

    def test_aero_table_round_trip(self, tmp_path):
        from tailsitter.plant import default_aero_table

        table = default_aero_table()
        path = save_aero_table(tmp_path / "aero.csv", table)
        loaded = load_aero_table(path)
        np.testing.assert_array_equal(loaded.alpha_grid, table.alpha_grid)
        np.testing.assert_array_equal(loaded.cl, table.cl)
        np.testing.assert_array_equal(loaded.cd, table.cd)

    def test_json_error_carries_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  "mode": }\n')
        with pytest.raises(ConfigError) as exc:
            run_scenario(bad, tmp_path)
        assert "2:" in str(exc.value)

    def test_tf_config_forms(self):
        tf = tf_from_config({"num": [1.0], "den": [1.0, 0.1], "delay": 0.02})
        assert tf.delay == 0.02
        for bad in ({"nonsense": 1}, {"num": [1.0], "den": [1.0, 0.1], "dealy": 0.02},
                    {"plant": "reference", "delay": 0.02}):
            with pytest.raises(ConfigError):
                tf_from_config(bad)


class TestPipeline:
    def test_design_pipeline_artifacts_and_checks(self, tmp_path):
        from tailsitter.harness import PipelineConfig, design_pipeline
        from tailsitter.sysid import ChirpConfig

        cfg = PipelineConfig(chirp=ChirpConfig(1.0, 60.0, 30.0, 0.1, 250.0))
        report = design_pipeline(cfg, tmp_path)
        assert report.metrics["fit_converged"]
        for name in ("sweep_io.csv", "frf.csv", "fit_report.txt",
                     "bode_plant_fit.csv", "bode_compensator.csv",
                     "bode_open_loop.csv", "compensator_biquads_250hz.csv",
                     "design_pipeline_report.txt"):
            assert (tmp_path / name).exists()
        results = {n: ok for n, ok, _ in report.checks}
        assert results["fitted_peak_within_2pct"]
        assert results["bandwidth_gain"]
        header, _ = read_csv(tmp_path / "sweep_io.csv")
        assert header == ["t", "u_injected", "u_total", "omega_meas"]
        header, _ = read_csv(tmp_path / "frf.csv")
        assert header == ["freq_hz", "re", "im", "coherence"]
        # fit diagnostics sit on unindented lines, apart from the parameters
        lines = (tmp_path / "fit_report.txt").read_text().splitlines()
        evaluations = report.metrics["fit_evaluations"]
        assert evaluations > 0
        assert f"fit evaluations = {evaluations}" in lines
        costs = [l for l in lines if l.startswith("restart costs = ")]
        assert len(costs) == 1 and len(costs[0].split(", ")) == 5

    def test_skip_notch_flags_instability(self, tmp_path):
        from tailsitter.harness import PipelineConfig, design_pipeline
        from tailsitter.sysid import ChirpConfig

        cfg = PipelineConfig(chirp=ChirpConfig(1.0, 60.0, 30.0, 0.1, 250.0),
                             skip_notch=True)
        report = design_pipeline(cfg, tmp_path)
        assert report.metrics["loop_peak_mag_db"] > 0.0
        assert not report.metrics["closed_loop_stable"]
        results = {n: ok for n, ok, _ in report.checks}
        assert results["no_notch_flagged_unstable"]


class TestSaturationHonesty:
    def test_aggressive_altitude_step_logs_saturation(self, tmp_path):
        from tailsitter.sim import FLAG_THRUST_SAT

        sc = Scenario(
            name="alt_step", mode="nonlinear", duration_s=4.0, seed=2,
            events=(Event(1.0, "altitude", {"alt": 80.0}),),
            initial_altitude_m=50.0,
        )
        run_scenario(sc, tmp_path)
        header, tele = read_csv(tmp_path / "alt_step_telemetry.csv")
        flags = tele[:, header.index("flags")].astype(int)
        assert np.any(flags & FLAG_THRUST_SAT)
        # the state log carries the motor saturation flag column
        sim_header, sim = read_csv(tmp_path / "alt_step_simlog.csv")
        assert sim_header[-1] == "sat_flag"

    def test_aero_and_feedforward_clamp_bits(self, tmp_path):
        from tailsitter.plant import AeroTable, default_aero_table
        from tailsitter.sim import FLAG_AERO_CLAMP, FLAG_FF_CLAMP, run_nonlinear

        def flags(sc):
            return run_nonlinear(sc).telemetry[:, -1].astype(int)

        # a speed grid starting at 1 m/s clamps every query near hover; the
        # first ticks query nothing, below 1e-9 m/s
        t = default_aero_table()
        path = save_aero_table(tmp_path / "aero.csv", AeroTable(
            t.alpha_grid, [1.0, 20.0], t.cl[:, :2], t.cd[:, :2]))
        base = Scenario(name="clamps", duration_s=0.5, seed=2)
        assert not np.any(flags(base) & (FLAG_AERO_CLAMP | FLAG_FF_CLAMP))
        bits = flags(dataclasses.replace(base, aero_table_path=str(path)))
        assert np.all(bits[10:] & FLAG_AERO_CLAMP)
        # a steep climb command asks the feedforward for more than full thrust
        climb = dataclasses.replace(
            base, events=(Event(0.0, "altitude", {"alt": 60.0}),),
            altitude_cfg=AltitudeLoopConfig(ff_gain=10.0))
        assert np.any(flags(climb) & FLAG_FF_CLAMP)


class TestCli:
    def test_run_exit_codes(self, tmp_path, capsys):
        rc = cli.main(["run", "hover_notch_ab", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out

    def test_failing_check_exit_code(self, tmp_path):
        rc = cli.main(["run", "rate_step", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CHECK_FAILED

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc = cli.main(["run", str(missing), "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG_ERROR
        # each bad config fails at load time: exit 2, the dotted path, no
        # traceback and no artifact
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("t,a\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("t,a\n0.0,1.0\n0.1,2.0\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("t,a\n0.0,1.0\n0.1\n")
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("t,a,b\n0.0,1.0\n0.1,2.0\n")
        inf_table = tmp_path / "inf_table.csv"
        save_aero_table(inf_table, default_aero_table())
        rows = inf_table.read_text().splitlines()
        rows[1] = ",".join(rows[1].split(",")[:2] + ["inf", "0.0"])
        inf_table.write_text("\n".join(rows) + "\n")
        cases = [(["run"], cfg, path) for cfg, path in BAD_SCENARIOS]
        cases += [
            (["pipeline"], {"chirp": {"f0": -1.0}}, "chirp"),
            (["pipeline"], {"slope_bandd": [0.6, 14.0]}, "slope_bandd"),
            (["pipeline"], {"seed": 1.5}, "seed"),
            (["pipeline"], {"n_freqs": 0, "chirp": {"duration_s": 10.0}}, "n_freqs"),
            (["pipeline"], {"slope_band": [14.0, 0.6]}, "slope_band"),
            (["pipeline"], {"cycles_per_window": 0}, "cycles_per_window"),
            (["pipeline"], {"chirp": {"f0": 5.0, "f1": 5.0}}, "chirp"),
            (["pipeline"], {"notch_k1": 0.01}, "notch_k1"),
            (["pipeline"], {"chirp": {"duration_s": 10.0}}, "chirp"),
            (["pipeline"], {"noise_std": float("nan")}, "noise_std"),
            (["bode"], {"num": [1.0], "den": [1.0, 0.1], "dealy": 0.02}, "dealy"),
            (["bode"], {"num": [float("nan")], "den": [1.0, 0.1]}, "num"),
            (["bode"], {"num": [1.0], "den": [1.0, 0.1], "delay": [0.02]},
             "bad transfer-function config"),
            (["bode", "--f-lo", "10", "--f-hi", "1"], {"plant": "reference"},
             "--f-lo"),
            (["bode", "--f-lo", "0"], {"plant": "reference"}, "--f-lo"),
            (["margins", "--slope-band", "14", "0.6"], {"plant": "reference"},
             "--slope-band"),
            (["margins"], {"plant_params": {"delay": 0.02}}, "plant_params.delay"),
            (["compare", str(empty), str(empty)], None, str(empty)),
            (["compare", str(header_only), str(header_only)], None,
             str(header_only)),
            (["compare", str(ok), str(ragged)], None, str(ragged)),
            (["compare", str(ok), str(narrow)], None, str(narrow)),
            (["run"], {"name": "x", "aero_table_path": str(inf_table)},
             str(inf_table)),
        ]
        for i, (argv, cfg, path) in enumerate(cases):
            out = tmp_path / f"out{i}"
            if cfg is not None:
                cfg_path = tmp_path / f"cfg{i}.json"
                cfg_path.write_text(json.dumps(cfg))
                argv = argv + [str(cfg_path)]
            if argv[0] in ("run", "pipeline", "bode"):
                argv = argv + ["--out-dir", str(out)]
            capsys.readouterr()
            rc = cli.main(argv)
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG_ERROR, (argv, cfg, err)
            assert err.startswith(f"config error: {path}:"), (cfg, err)
            assert not out.exists(), argv

    def test_margins_command(self, tmp_path, capsys):
        cfg = tmp_path / "tf.json"
        cfg.write_text(json.dumps({"plant": "reference"}))
        rc = cli.main(["margins", str(cfg), "--slope-band", "0.6", "14"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "gain crossover" in out and "dB/dec" in out

    def test_bode_command(self, tmp_path):
        cfg = tmp_path / "tf.json"
        cfg.write_text(json.dumps({"num": [1.0], "den": [1.0, 0.01]}))
        rc = cli.main(["bode", str(cfg), "--out", str(tmp_path / "b.csv")])
        assert rc == EXIT_OK
        assert (tmp_path / "b.csv").exists()

    def test_compare_command(self, tmp_path, capsys):
        run_scenario(short_ab_scenario(duration=3.0), tmp_path)
        run_scenario(short_ab_scenario("ab_noisy", duration=3.0, noise=1e-4),
                     tmp_path)
        log = str(tmp_path / "ab_short_telemetry.csv")
        rc = cli.main(["compare", log, log])
        assert rc == EXIT_OK
        assert "bit-identical" in capsys.readouterr().out
        rc = cli.main(["compare", log, str(tmp_path / "ab_noisy_telemetry.csv")])
        assert rc == EXIT_CHECK_FAILED
        assert "verdict: differs" in capsys.readouterr().out

    def test_scenarios_dump(self, tmp_path, capsys):
        rc = cli.main(["scenarios", "--dump-dir", str(tmp_path)])
        assert rc == EXIT_OK
        for name in builtin_scenarios():
            assert (tmp_path / f"{name}.json").exists()

    def test_numerical_abort_exit_code(self, tmp_path, capsys):
        from tailsitter.harness import EXIT_NUMERICAL_ABORT

        # an oversized injection drives the sweep past its divergence guard
        # (20 s: a 10 s chirp is too short for the FRF windows and is
        # rejected at load time)
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps({"chirp": {"amplitude": 1e4,
                                             "duration_s": 20.0}}))
        rc = cli.main(["pipeline", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == EXIT_NUMERICAL_ABORT
        assert "numerical abort" in capsys.readouterr().err
