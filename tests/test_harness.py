import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from oracles import save_aero_table
from tailsitter import cli, harness, metrics, sim, sysid
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
)
from tailsitter.lti import PlantFitParams, ResonanceParams
from tailsitter.plant import (AircraftParams, SensorConfig, VibrationConfig,
                             default_aero_table)
from tailsitter.sim import (SIMLOG_HEADER, TELEMETRY_HEADER, Event, Scenario,
                            run_linear_axis, run_nonlinear)
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
        rate_loop=RateLoopConfig(
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

    @pytest.mark.parametrize("peak_hz, detail", [
        (None, "dominant oscillation 13.50 Hz (plant peak 14.01 +/- 1 Hz required)"),
        # the plant's mode and the notch both moved to 12 Hz: the notch-off
        # oscillation follows them, and the check centres on the plant peak
        (12.0, "dominant oscillation 11.83 Hz (plant peak 12.00 +/- 1 Hz required)"),
    ], ids=["stock", "peak_12hz"])
    def test_divergence_frequency_centres_on_plant_peak(self, tmp_path, peak_hz,
                                                        detail):
        cfg = to_config(builtin_scenarios()["hover_notch_ab"])
        if peak_hz is not None:
            cfg["plant_params"]["peak"]["freq_hz"] = peak_hz
            cfg["rate_loop"]["notches"][1]["center_hz"] = peak_hz
        report = run_scenario(from_config(Scenario, cfg), tmp_path)
        checks = {name: (ok, text) for name, ok, text in report.checks}
        assert checks["divergence_frequency"] == (True, detail)
        assert report.passed

    @pytest.mark.parametrize("source", ["hover_notch_ab", "rate_step", "transition",
                                        "first_tick_divergence"])
    def test_metrics_recomputable_from_csv(self, tmp_path, monkeypatch, source):
        # the checks read the arrays the run logged: the CSV files it wrote
        # must parse back to those arrays bit for bit, and the check suite
        # must give the same report from the parsed files
        if source == "first_tick_divergence":
            source = diverging_config(tmp_path, "transition", inertia=1e-12)
        runs = []
        for name in ("run_linear_axis", "run_nonlinear"):
            def capture(sc, run=getattr(harness, name)):
                runs.append((sc, run(sc)))
                return runs[-1][1]
            monkeypatch.setattr(harness, name, capture)
        out = tmp_path / "out"
        report = run_scenario(source, out)
        (sc, log), = runs

        parsed = {}
        for kind, header, logged in (("telemetry", TELEMETRY_HEADER, log.telemetry),
                                     ("simlog", SIMLOG_HEADER, log.simlog)):
            path = out / f"{sc.name}_{kind}.csv"
            if logged is None:
                assert not path.exists()
                parsed[kind] = None
                continue
            assert logged.ndim == 2 and logged.shape[1] == len(header)
            if len(logged):
                file_header, rows = read_csv(path)
                assert file_header == header
            else:  # read_csv rejects a header-only file
                assert path.read_bytes() == (",".join(header) + "\r\n").encode()
                rows = np.empty((0, len(header)))
            assert rows.shape == logged.shape
            assert np.array_equal(rows.view(np.uint64), logged.view(np.uint64))
            parsed[kind] = rows

        again = harness.RunReport(sc.name, {"diverged": log.diverged_at is not None})
        if log.diverged_at is not None:
            again.metrics["diverged_at_s"] = log.diverged_at
        harness.CHECK_SUITES[sc.check_suite](sc, parsed["telemetry"], again,
                                             parsed["simlog"])
        assert repr(again.metrics) == repr(report.metrics)
        assert repr(again.checks) == repr(report.checks)

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

    @staticmethod
    def dead_rate_loop(tmp_path):
        """The builtin rate_step with kp, ki and kd all 0: w_meas stays at 0."""
        sc = builtin_scenarios()["rate_step"]
        off = dataclasses.replace(sc.rate_loop, kp=(0.0,) * 3, ki=(0.0,) * 3,
                                  kd=(0.0,) * 3)
        report = run_scenario(dataclasses.replace(sc, rate_loop=off), tmp_path)
        return report, {name: (ok, detail) for name, ok, detail in report.checks}

    def test_rate_loop_that_never_responds_fails_rise(self, tmp_path):
        report, checks = self.dead_rate_loop(tmp_path)
        assert math.isnan(report.metrics["rise_time_s"])
        assert checks["rate_step_rise"] == (
            False, "the response never reached 90 % of the step "
                   "(a 10-90 % rise time <= 0.5 s required)")

    def test_zero_first_step_fails_rise_as_not_measured(self, tmp_path):
        # a first rate_cmd of 0 from rest has no rise to time: it must not
        # divide by the zero step and pass with "0.000 s"
        sc = dataclasses.replace(builtin_scenarios()["rate_step"], events=(
            Event(1.0, "rate_cmd", {"y": 0.0}), Event(3.0, "rate_cmd", {"y": 0.3})))
        report = run_scenario(sc, tmp_path)
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert math.isnan(report.metrics["rise_time_s"])
        assert checks["rate_step_rise"] == (
            False, "not measured: the first rate_cmd, at 1 s, is a zero step")
        assert math.isnan(metrics.rise_time([0.0, 1.0], [0.2, 0.2], 0.0, 0.2, 0.2))

    def test_first_step_without_y_is_a_zero_step(self, tmp_path):
        # the runner commands a missing "y" as 0 rad/s, so the rise check
        # must read it as the same zero step, not as a 0.3 rad/s one
        sc = dataclasses.replace(builtin_scenarios()["rate_step"], events=(
            Event(1.0, "rate_cmd", {"x": 0.3}), Event(3.0, "rate_cmd", {"y": 0.3})))
        report = run_scenario(sc, tmp_path)
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert checks["rate_step_rise"] == (
            False, "not measured: the first rate_cmd, at 1 s, is a zero step")

    def test_rate_loop_that_never_responds_fails_overshoot(self, tmp_path):
        # no excursion past the target is not 0 % overshoot when the
        # response never got near the target
        report, checks = self.dead_rate_loop(tmp_path)
        assert "worst_overshoot_pct" not in report.metrics
        assert checks["rate_step_overshoot"] == (
            False, "not measured: the response never reached 90 % of the step "
                   "at 1 s")

    @pytest.mark.parametrize("name, events, cut", [
        # the last step's response window runs past the 8 s log
        ("rate_step", [{"t": 7.9, "kind": "rate_cmd", "y": 0.3}],
         {"rate_step_overshoot": "[7.9, 9.7]", "rate_step_rise": "[7.9, 9.7]"}),
        # the notch-off spectrum window starts before the log
        ("hover_notch_ab", [{"t": 0.0, "kind": "notch", "enabled": True}],
         {"notch_off_divergence": "[-6, 0]", "divergence_frequency": "[-6, 0]"}),
    ])
    def test_window_outside_the_log_is_not_measured(self, tmp_path, capsys,
                                                    name, events, cut):
        cfg = to_config(builtin_scenarios()[name])
        cfg["events"] = events
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["run", str(path), "--out-dir", str(out)])
        assert caught == []
        assert rc == EXIT_CHECK_FAILED
        text = (out / f"{name}_report.txt").read_text()
        for check, window in cut.items():
            assert (f"[FAIL] {check}: not measured: the check window {window} s "
                    f"is not inside the {cfg['duration_s']:g} s run") in text


def diverging_config(tmp_path, name, inertia=1e-6):
    """A builtin scenario's dumped JSON, edited so the run diverges early."""
    assert cli.main(["scenarios", "--dump-dir", str(tmp_path)]) == EXIT_OK
    path = tmp_path / f"{name}.json"
    cfg = json.loads(path.read_text())
    if cfg["mode"] == "linear-axis":
        # a million times the identified gain: the pitch rate passes the
        # abort limit within the first tenth of a second
        cfg["plant_params"]["main_num"] = [
            1e6 * c for c in cfg["plant_params"]["main_num"]]
    else:
        # a vanishing inertia makes the rigid body non-finite in two ticks
        # (in the first at 1e-12)
        cfg["aircraft"]["inertia"] = [[inertia, 0.0, 0.0], [0.0, inertia, 0.0],
                                      [0.0, 0.0, inertia]]
    path.write_text(json.dumps(cfg))
    return path


class TestDivergedRun:
    """A run that diverges before its check windows reports, not raises."""

    @pytest.mark.parametrize("name, checks", [
        ("rate_step", {"rate_step_overshoot", "rate_step_rise"}),
        ("hover_notch_ab", {"notch_off_divergence", "divergence_frequency",
                            "notch_on_convergence"}),
        ("transition", {"altitude_hold", "stepback_first_order",
                        "stepback_overshoot"}),
    ])
    def test_unreached_checks_fail_with_divergence_time(self, tmp_path, capsys,
                                                        name, checks):
        path = diverging_config(tmp_path, name)
        out = tmp_path / "out"
        rc = cli.main(["run", str(path), "--out-dir", str(out)])
        assert rc == EXIT_CHECK_FAILED
        assert "overall: FAIL" in capsys.readouterr().out
        text = (out / f"{name}_report.txt").read_text()
        assert "diverged = True" in text
        for check in checks:
            assert f"[FAIL] {check}: not measured: the run diverged at diverged_at_s" in text

    def test_divergence_on_the_first_tick(self, tmp_path, capsys):
        # no row is logged: the logged arrays have no rows, the files only
        # their header, and the checks still report, as not measured
        path = diverging_config(tmp_path, "transition", inertia=1e-12)
        out = tmp_path / "out"
        rc = cli.main(["run", str(path), "--out-dir", str(out)])
        assert rc == EXIT_CHECK_FAILED
        assert "overall: FAIL" in capsys.readouterr().out
        text = (out / "transition_report.txt").read_text()
        assert "diverged_at_s = 0.0" in text
        for check in ("altitude_hold", "stepback_first_order", "stepback_overshoot"):
            assert (f"[FAIL] {check}: not measured: the run diverged at "
                    "diverged_at_s = 0 s") in text
        assert (out / "transition_simlog.csv").read_text().count("\n") == 1


# Telemetry rows of the builtin linear-axis runs as the numpy-array rate
# loop computed them against the plant-rate cascade (t, q_cmd, q_meas,
# w_cmd, w_meas, torque, thrust, flags): notch off and growing, just before
# the notch is enabled, and after; inside the first, second and third rate
# step.  The same rows from the control-rate plant are LIFTED_LINEAR_AXIS_GOLDEN.
LINEAR_AXIS_GOLDEN = {
    "hover_notch_ab": {
        500: [2.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              4.888080451932152e-05, 0.0, 0.0, -0.00013983221471797715, 0.0,
              0.0, 0.0],
        2499: [9.996, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, -0.008383874992052964, 0.0, 0.0, 0.003240013788636035,
               0.0, 0.0, 0.0],
        3000: [12.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, -0.0001630393737886362, 0.0, 0.0, -2.526306126089865e-05,
               0.0, 0.0, 0.0],
    },
    "rate_step": {
        300: [1.2, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0,
              0.24835306960479828, 0.0, 0.0, 0.0019907714822528884, 0.0, 0.0,
              0.0],
        875: [3.5, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.3, 0.0, 0.0,
              -0.3553209744030265, 0.0, 0.0, 0.0009062435913704222, 0.0, 0.0,
              0.0],
        1750: [7.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0,
               0.3123007382852578, 0.0, 0.0, -6.259834476003152e-05, 0.0, 0.0,
               0.0],
    },
}


# The rows of LINEAR_AXIS_GOLDEN from the control-rate realization of the
# plant; w_meas and torque moved by rounding, at most 4.3e-14 absolute.
LIFTED_LINEAR_AXIS_GOLDEN = {
    "hover_notch_ab": {
        500: [2.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              4.888080452011869e-05, 0.0, 0.0, -0.00013983221471849618, 0.0,
              0.0, 0.0],
        2499: [9.996, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, -0.008383874992095681, 0.0, 0.0, 0.00324001378864538,
               0.0, 0.0, 0.0],
        3000: [12.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.0, -0.00016303937378728584, 0.0, 0.0, -2.526306126094117e-05,
               0.0, 0.0, 0.0],
    },
    "rate_step": {
        300: [1.2, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0,
              0.24835306960479578, 0.0, 0.0, 0.001990771482252304, 0.0, 0.0,
              0.0],
        875: [3.5, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -0.3, 0.0, 0.0,
              -0.35532097440300686, 0.0, 0.0, 0.0009062435913532352, 0.0, 0.0,
              0.0],
        1750: [7.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0,
               0.3123007382852446, 0.0, 0.0, -6.259834475556422e-05, 0.0, 0.0,
               0.0],
    },
}


@pytest.mark.parametrize("name", sorted(LINEAR_AXIS_GOLDEN))
def test_linear_axis_golden_rows(name):
    log = run_linear_axis(builtin_scenarios()[name])
    for row, values in LIFTED_LINEAR_AXIS_GOLDEN[name].items():
        assert log.telemetry[row].tolist() == values, (name, row)


@pytest.mark.parametrize("name", sorted(LINEAR_AXIS_GOLDEN))
def test_plant_rate_cascade_keeps_linear_axis_golden_rows(name, monkeypatch):
    monkeypatch.setattr(sim, "LinearAxisPlant", oracles.CascadeAxisPlant)
    log = run_linear_axis(builtin_scenarios()[name])
    for row, values in LINEAR_AXIS_GOLDEN[name].items():
        assert log.telemetry[row].tolist() == values, (name, row)
    # the control-rate plant moves each logged value by rounding only
    lifted = LIFTED_LINEAR_AXIS_GOLDEN[name]
    for row, values in LINEAR_AXIS_GOLDEN[name].items():
        assert np.allclose(lifted[row], values, rtol=0.0, atol=1e-13), (name, row)


# Rows 0, 75, 150, 200 and 249 of a 1 s transition with a pitch ramp from
# 0.2 s to 0.6 s and a step back at 0.7 s, as the numpy `Quaternion` and
# `RigidBodyState` view that the float tuples replaced logged them: the
# ramp's start, middle and end, and after the step back.  Telemetry first,
# then the state log.
TRANSITION_1S_GOLDEN = [
    {0: [0.0, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0, 0.7071067811865476,
         -1.8681062248831208e-20, 0.7071067811865475, -1.6171145847433112e-20, 0.0,
         0.0, 0.0, 0.004266775052505329, -0.0016229830391616001,
         0.0010096928932726808, 0.0, 0.0, 0.0, 0.5, 0.0],
     75: [0.3, 0.7223639620597556, 0.0, 0.6915130557822694, 0.0,
          0.7072386534741487, -2.901117361454605e-05, 0.706974883502667,
          -1.6935618817557848e-05, 3.643728286777711e-05, -0.08666256219610532,
          6.203670190373178e-05, 0.001543610151949922, -0.017757833786673522,
          -0.002847118510876518, 0.0002307217816601187, -0.0013083842249696771,
          -0.0005499271823589659, 0.5000000245483199, 0.0],
     150: [0.6, 0.7660444431189781, 0.0, 0.6427876096865394, 0.0,
           0.7185105369783849, -5.3805410628290306e-05, 0.6955160699340146,
           -4.265622890322344e-05, 5.546681829030742e-05, -0.28566980427208916,
           0.00013366079455873813, 4.969449340048353e-05, -0.20820881345975262,
           0.001189283812454935, -0.0014461542951042944, -0.0008656135145142214,
           -0.0027391474312010076, 0.5002847954416587, 0.0],
     200: [0.8, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0,
           0.7319507581995871, -6.847131274325565e-05, 0.6813575276380893,
           -4.9128803812945344e-05, 5.327930303270567e-05, 0.14299886355771055,
           0.0001667327572057174, 0.0006398672271303345, -0.014338945812310195,
           -0.0015669575098956222, 0.00021569717513913767, -0.024595011256359857,
           0.0005210308451691469, 0.5015214233135873, 0.0],
     249: [0.996, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0,
           0.7295779833276588, -6.545992576141991e-05, 0.6838976251014918,
           -1.841423509529412e-05, 0.0001317587628535415, 0.1297063262957307,
           0.00011991558670547148, 0.0003923355841068646, 0.061279451182333314,
           -0.003885880922922557, 0.001714854409397127, 0.0207137083423399,
           0.0011942959456257506, 0.5012506765041287, 0.0]},
    {0: [0.0, 1.7426060594516456e-20, -6.449812937993245e-25, -50.0,
         8.713030297258228e-18, -6.448721672372582e-22, 7.105427357601002e-18,
         0.7071067811865476, -1.8681062248831208e-20, 0.7071067811865475,
         -1.6171145847433112e-20, -1.7739904675233973e-18, -5.5234518352591055e-17,
         -2.4630549048307602e-17, 0.4999999999999999, 0.49999999999999994,
         0.49999999999999994, 0.5000000000000001, 0.0],
     75: [0.3, -8.371898335820227e-06, -8.810642730798658e-06, -49.99999999970028,
          9.581423236141917e-06, -8.915728863050935e-05, 6.946563502493082e-09,
          0.7072386534741487, -2.901117361454605e-05, 0.706974883502667,
          -1.6935618817557848e-05, -5.3804775045293794e-05, -0.019062582907899202,
          -0.0006521570856042344, 0.4974465378257653, 0.4973065146197884,
          0.5026071902173851, 0.5026397627711316, 0.0],
     150: [0.6, 0.00285885178916719, -7.632402244611327e-05, -49.999987197079946,
           0.03476039867695031, -0.00039279544863513895, 0.00021639950561371007,
           0.7185105369783849, -5.3805410628290306e-05, 0.6955160699340146,
           -4.265622890322344e-05, 6.298469486935703e-05, -0.20746330198572,
           -0.00016680807823995798, 0.4946075046077726, 0.494835831915732,
           0.5059671389410315, 0.5050425078815349, 0.0],
     200: [0.8, 0.019143487380239008, -0.00018288616943062488, -49.99983697477462,
           0.14203699202000353, -0.0006883552929121142, 0.0014202947950525643,
           0.7319507581995871, -6.847131274325565e-05, 0.6813575276380893,
           -4.9128803812945344e-05, -0.00017766504928582065, -0.012417463331341708,
           0.00011751784346797317, 0.5078021458051827, 0.508134164248548,
           0.4940398397765905, 0.49419647755978685, 0.0],
     249: [0.996, 0.06040583592603939, -0.00034632351637346807, -49.99957865817532,
           0.27663305135542715, -0.0009690642310567302, 0.0007823034976509681,
           0.7295779833276588, -6.545992576141991e-05, 0.6838976251014918,
           -1.841423509529412e-05, -0.00015973343081081387, 0.05834658429701752,
           0.0003501417648630799, 0.49894799626092523, 0.49916313227473885,
           0.5039563630105464, 0.5037879448742164, 0.0]},
]


def test_nonlinear_golden_rows():
    sc = dataclasses.replace(builtin_scenarios()["transition"], duration_s=1.0, events=(
        Event(0.2, "pitch_ramp", {"pitch_to": math.radians(80.0), "duration": 0.4}),
        Event(0.7, "attitude", {"pitch": math.radians(90.0)})))
    log = run_nonlinear(sc)
    for logged, golden in zip((log.telemetry, log.simlog), TRANSITION_1S_GOLDEN):
        for row, values in golden.items():
            # repr tells a -0.0 from the logged +0.0
            assert repr(logged[row].tolist()) == repr(values), row



# Rows of the full builtin transition: during the 5-10 s pitch ramp (6.5 and
# 9.5 s), in forward flight (15 and 19.5 s), and after the step back at 20 s
# (21 and 31.996 s), where the aero lookup runs with the vehicle moving.
# Telemetry first, then the state log, flags included.
TRANSITION_FULL_GOLDEN = [
    {1625: [6.5, 0.7163019434246543, 0.0, 0.6977904598416802, 0.0, 0.7134241990185045,
            5.964203798149026e-05, 0.7007324069806983, 5.004667472391169e-05,
            -2.8189808668521808e-05, -0.016604622727617334, -0.0001515912521265725,
            -0.0013937432624162773, -0.01804424249659176, -0.0014701561467497185,
            -0.0007108029547340691, -0.00030287946637911625, -0.0003530423499069167,
            0.5000906386426243, 0.0],
     2375: [9.5, 0.7343225094356856, 0.0, 0.6788007455329417, 0.0, 0.7313283344830676,
            -1.1463539804878394e-05, 0.6820255605043706, 4.323781987315851e-05,
            0.00015266763837862906, -0.017739213666822646, -5.276089395112706e-05,
            -0.0026065267627780582, -0.014382020007374577, -0.0026354392937839163,
            0.0013922813493877193, 0.001223316150388075, -9.240842641568161e-06,
            0.5005080056221612, 0.0],
     3750: [15.0, 0.7372773368101241, 0.0, 0.6755902076156604, 0.0,
            0.7373429072384742, 1.0373013588960788e-05, 0.6755186426508976,
            -2.164727493086679e-05, -9.133028688527343e-05, 0.00037994325560549303,
            2.1878754717175043e-05, 0.0035152575501084067, 0.0008591139229575176,
            -0.0015646705552697466, 0.0009073162982162203, 0.00013503293859477435,
            0.00033336619285500235, 0.4982799620711654, 0.0],
     4875: [19.5, 0.7372773368101241, 0.0, 0.6755902076156604, 0.0,
            0.7373442088586581, 4.874141369329698e-06, 0.6755172217354386,
            2.7886854819616757e-05, 6.099398750984767e-05, 0.0004456563863377999,
            -4.5760385105378734e-05, 0.004140070656961643, 0.005229396131740968,
            0.004857110278074764, 0.0008431307820970993, -0.0035312604016396174,
            0.0020597625572326534, 0.49815706379117364, 0.0],
     5250: [21.0, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0,
            0.7089382206741293, -7.118008578923323e-05, 0.7052705822418194,
            -5.008018470262625e-06, 0.00018717357470211435, 0.010535599736936806,
            0.00010609880689375847, 0.0012800983123021892, 0.02094789531306187,
            -0.002528821589478057, 0.002494757885164806, 0.00028626544919481314,
            0.0014496426014488542, 0.5000729877930737, 0.0],
     7999: [31.996000000000002, 0.7071067811865476, 0.0, 0.7071067811865475, 0.0,
            0.7072075443960136, 4.50837074973553e-05, 0.707006001027785,
            -4.0342528970025714e-05, -0.0002413911841986026, 0.0005347247574381869,
            -6.345273428520273e-06, 0.002991841898212758, -0.0039602297525938995,
            -0.0008075858035936291, 0.00040008481667726156, 0.00023902568249090512,
            -0.000918997212080992, 0.49999956490285447, 0.0]},
    {1625: [6.5, 0.03730499126607985, -0.010410162442733193, -49.99997958368414,
            0.09720127310308868, 0.0002602090733875379, 4.3400582655966536e-05,
            0.7134241990185045, 5.964203798149026e-05, 0.7007324069806983,
            5.004667472391169e-05, 0.0003744251521319418, -0.01776342795251026,
            0.0008301933174391162, 0.5003258634247546, 0.4999277513600712,
            0.5001633440950736, 0.4998921138317218, 0.0],
     2375: [9.5, 1.750227695487765, -0.006859190446502095, -50.000006171917775,
            1.205888606218591, 0.002382069624297178, -0.00010331187906313743,
            0.7313283344830676, -1.1463539804878394e-05, 0.6820255605043706,
            4.323781987315851e-05, 0.00020396165837361404, -0.017326115874289127,
            -0.0011359849182051532, 0.4997275393675301, 0.5002894033878064,
            0.5012771629921609, 0.5007873394041897, 0.0],
     3750: [15.0, 13.184701753079155, -0.0007746368875646242, -49.99995415575913,
            2.4495506156557347, -0.00042701198566465453, 2.165171832262778e-05,
            0.7373429072384742, 1.0373013588960788e-05, 0.6755186426508976,
            -2.164727493086679e-05, -0.0002800615300170273, -0.0009653336024466963,
            0.000987362877383622, 0.4984355559621056, 0.4984377632943475,
            0.49811404644766566, 0.49816318258364817, 0.0],
     4875: [19.5, 24.345245078564528, -0.0007978387097083081, -49.99996056031978,
            2.492479847401593, -0.000835999470195547, -7.98387510228454e-06,
            0.7373442088586581, 4.874141369329698e-06, 0.6755172217354386,
            2.7886854819616757e-05, 5.030586697602148e-07, 0.006414346086598327,
            0.0004492449107084674, 0.49867965792956687, 0.49847088208474827,
            0.4975921667994049, 0.4978878595575975, 0.0],
     5250: [21.0, 27.954049938780873, -0.0007705064418368226, -49.99939783968462,
            2.1201306369150785, 0.00041321312447144845, 0.0005037837380921518,
            0.7089382206741293, -7.118008578923323e-05, 0.7052705822418194,
            -5.008018470262625e-06, -4.056672772381133e-06, 0.019869806324736367,
            -0.00043984496762180576, 0.49950577729675893, 0.4995245755554611,
            0.5002531539482442, 0.5007367377164889, 0.0],
     7999: [31.996000000000002, 38.45188585695353, -0.019729454783501542,
            -50.0000118017255, 0.5047863244535774, -0.0008931431377475388,
            2.844079881898586e-06, 0.7072075443960136, 4.50837074973553e-05,
            0.707006001027785, -4.0342528970025714e-05, 2.7769511792387365e-05,
            -0.003901474478161515, 0.00011029668227308025, 0.5008159177402465,
            0.5011168490864092, 0.499066703626665, 0.49899976564550236, 0.0]},
]


def test_nonlinear_golden_rows_full_flight():
    log = run_nonlinear(builtin_scenarios()["transition"])
    for logged, golden in zip((log.telemetry, log.simlog), TRANSITION_FULL_GOLDEN):
        for row, values in golden.items():
            assert repr(logged[row].tolist()) == repr(values), row

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
            rate_loop=RateLoopConfig(
                kp=(0.054,) * 3, ki=(0.06,) * 3, kd=(0.006,) * 3,
                notches=(None, default_notch_config(), None)),
            initial_pitch_rate=0.01,
        )
        stable = Scenario(
            name="stab", mode="linear-axis", duration_s=6.0, seed=1,
            rate_loop=diverging.rate_loop,
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
        rate_loop=RateLoopConfig(
            kp=(0.08, 0.09, 0.07), ki=(0.11, 0.1, 0.12), kd=(0.01, 0.011, 0.012),
            deriv_corner_hz=17.0,
            notches=(None, NotchConfig(13.5, 0.2, 0.02), None),
            integrator_limit=0.8, output_limit=0.9),
        attitude_loop=AttitudeLoopConfig((3.0, 4.5, 2.5)),
        altitude_loop=AltitudeLoopConfig(
            alt_gain=0.9, ff_gain=0.8, kp_vz=0.2, ki_vz=0.04, v_z_limit=2.5,
            min_vertical_authority=0.1),
        aircraft=AircraftParams(
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
        sensor=SensorConfig(gyro_noise_std=0.004, corner_hz=90.0),
        vibration=VibrationConfig(amplitude=0.01, f_lo=76.0, f_hi=89.0,
                                  n_tones=4, seed=2),
        meas_noise_std=0.001, initial_altitude_m=40.0, initial_pitch_rate=0.02,
        aero_table_path="table.csv", check_suite="transition",
    )


def every_field_pipeline():
    return PipelineConfig(
        chirp=ChirpConfig(2.0, 50.0, 30.0, 0.05),
        true_params=PlantFitParams(delay_s=0.02,
                                   peak=ResonanceParams(14.5, 0.22, 0.031)),
        n_freqs=40, cycles_per_window=50.0, noise_std=0.01,
        seed=5, kp=0.08, ki=0.11, kd=0.012, deriv_corner_hz=17.0,
        notch_k1=0.16, notch_k2=0.017, slope_band=(0.5, 12.0))


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
NAN = float("nan")


def builtin_config_with(name, key, value):
    """The config of the builtin scenario ``name`` with the dotted ``key`` set."""
    cfg = to_config(builtin_scenarios()[name])
    *sections, last = key.split(".")
    node = cfg
    for k in sections:
        node = node[k]
    node[last] = value
    return cfg


NAN_GUARDS = [
    ("Scenario.duration_s", lambda: Scenario(name="x", mode="linear-axis",
                                             duration_s=NAN),
     "duration_s: must be positive"),
    ("ChirpConfig.duration_s", lambda: ChirpConfig(duration_s=NAN),
     "duration and amplitude"),
    ("ChirpConfig.amplitude", lambda: ChirpConfig(amplitude=NAN),
     "duration and amplitude"),
    ("AircraftParams.mass", lambda: AircraftParams(mass=NAN), "mass and wing area"),
    ("AircraftParams.wing_area", lambda: AircraftParams(wing_area=NAN),
     "mass and wing area"),
    ("AircraftParams.motor_tau_s", lambda: AircraftParams(motor_tau_s=NAN),
     "motor_tau_s"),
    ("AircraftParams.gravity", lambda: AircraftParams(gravity=NAN), "gravity"),
    ("NotchConfig.center_hz", lambda: NotchConfig(NAN, 0.15, 0.018), "center_hz > 0"),
    ("RateLoopConfig.deriv_corner_hz", lambda: RateLoopConfig(deriv_corner_hz=NAN),
     "deriv_corner_hz"),
    ("RateLoopConfig.integrator_limit", lambda: RateLoopConfig(integrator_limit=NAN),
     "limits must be > 0"),
    ("RateLoopConfig.output_limit", lambda: RateLoopConfig(output_limit=NAN),
     "limits must be > 0"),
    ("AltitudeLoopConfig.v_z_limit", lambda: AltitudeLoopConfig(v_z_limit=NAN),
     "v_z_limit"),
    ("PipelineConfig.cycles_per_window",
     lambda: PipelineConfig(cycles_per_window=NAN), "cycles_per_window"),
    ("PipelineConfig.deriv_corner_hz", lambda: PipelineConfig(deriv_corner_hz=NAN),
     "deriv_corner_hz"),
    ("ResonanceParams.freq_hz", lambda: ResonanceParams(NAN, 0.1, 0.01),
     "resonance parameters"),
    ("PlantFitParams.lf_corner_hz",
     lambda: dataclasses.replace(PlantFitParams.reference(), lf_corner_hz=NAN),
     "corner frequency"),
    ("PlantFitParams.main_pole_tc",
     lambda: dataclasses.replace(PlantFitParams.reference(), main_pole_tc=NAN),
     "corner frequency"),
]


@pytest.mark.parametrize("make, message",
                         [pytest.param(m, msg, id=i) for i, m, msg in NAN_GUARDS])
def test_nan_fails_positive_value_guard(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# structural modes whose lifted poles coincide
COINCIDING_MODES = {"peak": {"freq_hz": 14.0, "num_damp": 0.2, "den_damp": 0.03},
                    "anti": {"freq_hz": 14.0, "num_damp": 0.02, "den_damp": 0.03}}

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
    # negative noise settings used to run as zero
    ({"name": "x", "sensor": {"gyro_noise_std": -1.0}}, "sensor"),
    ({"name": "x", "vibration": {"amplitude": -0.1}}, "vibration"),
    ({"name": "x", "mode": "linear-axis", "meas_noise_std": -1.0},
     "meas_noise_std"),
    # frequencies at or above the Nyquist frequency of the loop that
    # discretizes them used to crash the run after load
    ({"name": "x", "rate_loop": {"notches": [
        None, {"center_hz": 130.0, "k1": 0.15, "k2": 0.018}, None]}},
     "rate_loop.notches[1]"),
    ({"name": "x", "plant_params": {"peak": {"freq_hz": 600.0}}},
     "plant_params.peak.freq_hz"),
    ({"name": "x", "mode": "linear-axis", "plant_params": {"peak": {"freq_hz": 600.0}}},
     "plant_params.peak.freq_hz"),
    # a gyro filter and a structural mode the simulator refuses to build
    ({"name": "p", "mode": "nonlinear", "duration_s": 0.2, "sensor": {"corner_hz": 0.0}},
     "sensor"),
    # unprewarped Tustin puts a 600 Hz corner's -3 dB point at 344.8 Hz
    ({"name": "p", "mode": "nonlinear", "duration_s": 0.2,
      "sensor": {"corner_hz": 600.0}}, "sensor"),
    ({"name": "flexbad", "mode": "nonlinear", "duration_s": 1.0, "plant_params": {
        "peak": {"freq_hz": 14.0, "num_damp": 0.01, "den_damp": 0.2}}},
     "plant_params"),
    # a zero gravity divided the hover thrust ratio by zero mid-run
    ({"name": "g0", "mode": "nonlinear", "duration_s": 0.2, "aircraft": {"gravity": 0.0}},
     "aircraft"),
    # a run shorter than one control tick logged no row for its checks
    ({**to_config(builtin_scenarios()["transition"]), "duration_s": 1e-6}, "duration_s"),
    # a peak and an anti-resonance with one denominator: the linear-axis
    # plant has no parallel realization at the control rate
    ({"name": "x", "mode": "linear-axis", "plant_params": COINCIDING_MODES},
     "plant_params"),
    # coefficients that overflow the plant's discretization used to raise
    # from np.roots or butterworth2 mid-run
    ({"name": "x", "mode": "linear-axis",
      "plant_params": {"main_num": [1e300, 3.764, 0.01362]}}, "plant_params"),
    ({"name": "x", "mode": "linear-axis", "plant_params": {"lf_corner_hz": 1e300}},
     "plant_params"),
    # a derivative corner and an anti-resonance that overflowed their
    # filters' design with an OverflowError mid-run
    (builtin_config_with("rate_step", "rate_loop.deriv_corner_hz", 1e300),
     "rate_loop: deriv_corner_hz"),
    (builtin_config_with("transition", "plant_params.anti.freq_hz", 1e300),
     "plant_params.anti.freq_hz"),
]


class TestScenarioSerialization:
    def test_round_trip_preserves_behavior(self, tmp_path):
        sc = short_ab_scenario(duration=4.0)
        a = run_linear_axis(sc)
        for cfg in (to_config(sc), PARENT_FORMAT_AB_SHORT):
            sc2 = from_config(Scenario, json.loads(json.dumps(cfg)))
            b = run_linear_axis(sc2)
            np.testing.assert_array_equal(a.telemetry, b.telemetry)
        # every field, nested ones included, survives config -> JSON -> config
        for cls, obj in ((Scenario, every_field_scenario()),
                         (PipelineConfig, every_field_pipeline())):
            loaded = from_config(cls, json.loads(json.dumps(to_config(obj))))
            assert_same_fields(obj, loaded, cls.__name__)
        sc = from_config(Scenario, json.loads(json.dumps(
            to_config(every_field_scenario()))))
        assert sc.aircraft.gravity == 9.80665
        assert sc.aircraft.inertia[0, 1] == 0.001
        assert sc.altitude_loop.min_vertical_authority == 0.1

    def test_config_keys_are_field_names(self):
        keys = [f.name for f in dataclasses.fields(Scenario)]
        for sc in (*builtin_scenarios().values(), every_field_scenario()):
            assert list(to_config(sc)) == keys

    def test_bad_event_kind_rejected(self):
        for cfg, path in BAD_SCENARIOS:
            with pytest.raises(ConfigError) as exc:
                from_config(Scenario, cfg)
            assert str(exc.value).startswith(path + ":"), (cfg, str(exc.value))

    def test_partial_section_keeps_defaults(self):
        sc = from_config(Scenario, {"name": "x", "rate_loop": {"kp": [0.1, 0.1, 0.1]}})
        assert sc.rate_loop.kp == (0.1, 0.1, 0.1)
        assert sc.rate_loop.notches == RateLoopConfig.reference_pitch_design().notches
        p = from_config(PipelineConfig, {"true_params": {"peak": {"freq_hz": 15.0}}})
        ref = PlantFitParams.reference()
        assert p.true_params.peak == ResonanceParams(15.0, ref.peak.num_damp,
                                                     ref.peak.den_damp)
        assert p.true_params.anti == ref.anti

    def test_aircraft_overrides(self):
        sc = from_config(Scenario, {
            "name": "heavy", "mode": "nonlinear", "duration_s": 1.0,
            "aircraft": {"mass": 2.0, "hover_command": 0.6,
                         "thrust_coeff": 2.0 * 9.81 / 0.6},
        })
        assert sc.aircraft.mass == 2.0
        # hover identity still holds for the overridden airframe
        assert sc.aircraft.thrust_coeff * sc.aircraft.hover_command == pytest.approx(
            sc.aircraft.mass * sc.aircraft.gravity, rel=1e-12)
        cfg = to_config(sc)
        assert cfg["aircraft"]["mass"] == 2.0

    def test_aero_table_path(self, tmp_path):
        from tailsitter.plant import default_aero_table
        from tailsitter.sim import run_nonlinear

        table_path = tmp_path / "table.csv"
        save_aero_table(table_path, default_aero_table())
        sc = from_config(Scenario, {
            "name": "tbl", "mode": "nonlinear", "duration_s": 0.5,
            "aero_table_path": str(table_path),
        })
        log = run_nonlinear(sc)
        assert log.diverged_at is None

    def test_inject_chirp_is_unknown_kind(self):
        # the runner plays no sweep: the pipeline's sweep has its own loop
        with pytest.raises(ValueError, match="unknown event kind 'inject_chirp'"):
            Event(1.0, "inject_chirp", {"f0": 2.0, "f1": 30.0, "duration": 4.0,
                                        "amplitude": 0.05})

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

    @pytest.mark.parametrize("body, line", [
        (b"a,b\r\n1,2\r\n3\r\n", 3),           # narrower than the header
        (b"a,b\r\n1,2\r\n3,4,5\r\n", 3),       # wider than the header
        (b"a,b\r\n1,2,3\r\n4,5,6\r\n", 2),     # every row wider
        (b"a,b\r\n1,2\r\n\r\n3,x\r\n", 4),      # a non-number after a blank line
        (b"a,b\r\n\r\n\r\n1,2\r\n\r\n3\r\n", 6),
    ])
    def test_read_csv_bad_row_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{line}: "):
            read_csv(path)

    @pytest.mark.parametrize("body", [b"a,b\r\n", b"a,b\r\n\r\n\r\n"])
    def test_read_csv_header_only_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match="no data rows"):
            read_csv(path)

    def test_read_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"a,b\r\n\r\n1,2\r\n\r\n3.5,-4e-3\r\n\r\n")
        header, data = read_csv(path)
        assert header == ["a", "b"]
        assert data.tolist() == [[1.0, 2.0], [3.5, -0.004]]

    @pytest.mark.parametrize("rows, message", [
        ([(0.0, 0.0, 0.1, 0.05), (0.0, 5.0, 0.1, 0.05)], "two nodes"),
        ([(a, v, 0.1, -0.05) for a in (-1.0, 1.0) for v in (0.0, 5.0)],
         "nonnegative"),
    ])
    def test_aero_table_the_lookup_rejects_is_config_error(self, tmp_path, rows,
                                                           message):
        path = write_csv(tmp_path / "aero.csv", ["alpha_rad", "V_ms", "CL", "CD"],
                         rows)
        with pytest.raises(ConfigError, match=message):
            load_aero_table(path)

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
        # a bool is no delay, and a missing key is named
        for bad, message in (({"num": [1.0], "den": [1.0, 0.1], "delay": True},
                              "delay: expected float, got bool"),
                             ({"num": [1.0]}, "den: required")):
            with pytest.raises(ConfigError, match=message):
                tf_from_config(bad)


class TestPipeline:
    def test_design_pipeline_artifacts_and_checks(self, tmp_path):
        from tailsitter.harness import PipelineConfig, design_pipeline
        from tailsitter.sysid import ChirpConfig

        cfg = PipelineConfig(chirp=ChirpConfig(1.0, 60.0, 30.0, 0.1))
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
        assert len(costs) == 1
        assert len(costs[0].split(", ")) == sysid.FIT_RESTARTS

    def test_notch_free_loop_flagged_unstable(self, tmp_path):
        # the default run reports the notch-free loop the gain sweep starts
        # from: its resonance above 0 dB and its Nyquist instability, while
        # the notched loop is stable
        cfg = PipelineConfig(chirp=ChirpConfig(1.0, 60.0, 30.0, 0.1))
        report = harness.design_pipeline(cfg, tmp_path)
        assert report.metrics["notch_free_peak_mag_db"] > 0.0
        assert not report.metrics["notch_free_stable"]
        assert report.metrics["closed_loop_stable"]
        results = {n: ok for n, ok, _ in report.checks}
        assert results["no_notch_flagged_unstable"]

    @pytest.mark.parametrize("cfg", [
        {"noise_std": 1.0},
        {"true_params": {"main_num": [0.0, 0.0, 0.0]}},
    ], ids=["noise_1", "zero_gain"])
    def test_too_few_trusted_bins_fail_fit_converged(self, tmp_path, cfg):
        # both configs load and sweep; too few FRF bins are coherence-trusted
        # to fit, so the run fails fit_converged with a report instead of
        # ending with a traceback
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["pipeline", str(path), "--out-dir", str(out)]) \
            == EXIT_CHECK_FAILED
        text = (out / "design_pipeline_report.txt").read_text()
        trusted = re.search(r"^  frf_trusted_fraction = (\S+)$", text, re.M)
        share = float(trusted.group(1))
        assert share < sysid.MIN_TRUSTED_SHARE
        assert "  fit_converged = False\n" in text
        assert (f"[FAIL] fit_converged: not run: {share:.0%} of the FRF bins "
                "are coherence-trusted, the fit needs 50%") in text
        assert not (out / "fit_report.txt").exists()

    def test_stalled_fit_fails_fit_converged(self, tmp_path, monkeypatch):
        # with no cost low enough to converge, the shipped pipeline reports
        # the fit's cost and evaluations, fails fit_converged and stops
        # before it writes any parameters
        monkeypatch.setattr(sysid, "CONVERGENCE_COST_PER_BIN", 0.0)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--out-dir", str(out)]) == EXIT_CHECK_FAILED
        text = (out / "design_pipeline_report.txt").read_text()
        assert "  fit_converged = False\n" in text
        cost = re.search(r"^  fit_cost_per_bin = (\S+)$", text, re.M)
        assert float(cost.group(1)) > 0.0
        assert re.search(r"^  fit_evaluations = [1-9]\d*$", text, re.M)
        assert (f"[FAIL] fit_converged: fit stalled at cost/bin "
                f"{float(cost.group(1)):.2f}\n") in text
        assert sorted(p.name for p in out.iterdir()) == [
            "design_pipeline_report.txt", "frf.csv", "sweep_io.csv"]

    @pytest.mark.parametrize("gains", [
        {"kp": 100.0},
        {"kp": 1e-5, "ki": 1e-7, "kd": 0.0},
    ], ids=["kp_100", "kp_1e-5"])
    def test_loop_without_gain_crossover_fails_its_checks(self, tmp_path, gains):
        # both configs load; neither designed loop crosses 0 dB downward in
        # the margins band, so the checks that read the crossover fail with
        # a detail instead of ending the run with a traceback
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(gains))
        out = tmp_path / "out"
        assert cli.main(["pipeline", str(cfg), "--out-dir", str(out)]) \
            == EXIT_CHECK_FAILED
        text = (out / "design_pipeline_report.txt").read_text()
        no_fc = "no gain crossover in [0.05, 100] Hz"
        assert (f"[FAIL] crossover_band: {no_fc} "
                "(reference 6.8, accepted [5.8, 7.8])") in text
        assert (f"[FAIL] phase_margin_band: {no_fc} "
                "(reference 44, accepted [36, 52])") in text
        assert ("[FAIL] bandwidth_gain: not measured: the notched loop has "
                f"{no_fc}") in text
        assert "bandwidth_gain_pct" not in text

    @pytest.mark.parametrize("sweep, detail", [
        ((0.0, None), "the notch-free loop is unstable at every swept gain"),
        ((8.0, None), "the notch-free loop at its largest stable gain 8 has "
                      "no gain crossover in [0.05, 100] Hz"),
    ], ids=["unstable_at_lo", "no_crossover_at_hi"])
    def test_bandwidth_gain_not_measured_without_notch_free_crossover(
            self, tmp_path, monkeypatch, sweep, detail):
        from tailsitter.sysid import ChirpConfig

        monkeypatch.setattr(harness, "_max_stable_gain_crossover",
                            lambda loop: sweep)
        cfg = PipelineConfig(chirp=ChirpConfig(1.0, 60.0, 30.0, 0.1))
        report = harness.design_pipeline(cfg, tmp_path)
        results = {n: (ok, d) for n, ok, d in report.checks}
        assert results["bandwidth_gain"] == (False, f"not measured: {detail}")
        assert report.metrics["notch_free_max_gain"] == sweep[0]
        assert "bandwidth_gain_pct" not in report.metrics


class TestSaturationHonesty:
    def test_aggressive_altitude_step_logs_saturation(self, tmp_path):
        from tailsitter.plant import FLAG_THRUST_SAT

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
        from tailsitter.plant import (FLAG_AERO_CLAMP, FLAG_FF_AERO_CLAMP, FLAG_FF_CLAMP,
                                      AeroTable, default_aero_table)
        from tailsitter.sim import run_nonlinear

        def flags(sc):
            return run_nonlinear(sc).telemetry[:, -1].astype(int)

        # a speed grid starting at 1 m/s clamps every query near hover; the
        # first ticks query nothing, below 1e-9 m/s
        t = default_aero_table()
        path = save_aero_table(tmp_path / "aero.csv", AeroTable(
            t.alpha_grid, [1.0, 20.0], t.cl[:, :2], t.cd[:, :2]))
        base = Scenario(name="clamps", duration_s=0.5, seed=2)
        assert not np.any(flags(base) & (FLAG_AERO_CLAMP | FLAG_FF_CLAMP
                                         | FLAG_FF_AERO_CLAMP))
        bits = flags(dataclasses.replace(base, aero_table_path=str(path)))
        assert np.all(bits[10:] & FLAG_AERO_CLAMP)
        # the feedforward's own lookup clamps too, and says so
        assert np.all(bits[10:] & FLAG_FF_AERO_CLAMP)
        # a steep climb command asks the feedforward for more than full thrust
        climb = dataclasses.replace(
            base, events=(Event(0.0, "altitude", {"alt": 60.0}),),
            altitude_loop=AltitudeLoopConfig(ff_gain=10.0))
        assert np.any(flags(climb) & FLAG_FF_CLAMP)

    def test_motor_saturation_in_first_substep_only(self, monkeypatch):
        # the 21-sample delay line feeds substep 0 of tick k from tick k - 6
        # and substeps 1-3 from tick k - 5, so a full roll torque commanded
        # at tick 20 alone saturates substeps 1-3 of tick 25 and only
        # substep 0 of tick 26
        from tailsitter import plant, sim
        from tailsitter.plant import FLAG_MOTOR_SAT

        ticks = []

        class SpikeAtTick20(sim.RateController):
            def step(self, omega_meas, omega_cmd):
                torque = super().step(omega_meas, omega_cmd)
                ticks.append(None)
                return (1.0, *torque[1:]) if len(ticks) == 21 else torque

        saturated = []
        mixer = plant.mixer

        def recorded(*args):
            out = mixer(*args)
            saturated.append(out[-1])
            return out

        monkeypatch.setattr(sim, "RateController", SpikeAtTick20)
        monkeypatch.setattr(plant, "mixer", recorded)
        log = run_nonlinear(Scenario(name="spike", duration_s=0.2))
        # the first call sets the initial motor state; call 1 + k is substep k
        substeps = saturated[1:]
        assert len(substeps) == 4 * 50
        assert [i for i, s in enumerate(substeps) if s] == [101, 102, 103, 104]
        flags = log.telemetry[:, -1].astype(int)
        assert np.flatnonzero(flags & FLAG_MOTOR_SAT).tolist() == [25, 26]
        assert np.flatnonzero(log.simlog[:, -1]).tolist() == [25, 26]


def test_run_nonlinear_memory_bounded_by_logs():
    # the logs fill flat float buffers that become the arrays; the peak
    # traced memory of a run stays near their size plus a fixed slack
    sc = dataclasses.replace(builtin_scenarios()["transition"], duration_s=4.0)
    run_nonlinear(sc)  # fill the lazy caches outside the measurement
    tracemalloc.start()
    try:
        log = run_nonlinear(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    logs = log.telemetry.nbytes + log.simlog.nbytes
    assert logs == 1000 * (len(TELEMETRY_HEADER) + len(SIMLOG_HEADER)) * 8
    assert peak < 1.5 * logs + 512 * 1024, (peak, logs)


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
        missing_csv = tmp_path / "missing.csv"
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
            (["pipeline"], {"noise_std": -1.0}, "noise_std"),
            (["pipeline"], {"true_params": {"peak": {"freq_hz": 600.0}}},
             "true_params.peak.freq_hz"),
            (["pipeline"], {"skip_notch": True}, "skip_notch"),
            (["pipeline"], {"correct_hold": False}, "correct_hold"),
            (["pipeline"], {"chirp": {"sample_hz": 300.0}}, "chirp.sample_hz"),
            (["pipeline"], {"chirp": {"duration_s": 1e300}}, "chirp"),
            (["pipeline"], {"true_params": COINCIDING_MODES}, "true_params"),
            (["pipeline"], {"deriv_corner_hz": 1e300}, "deriv_corner_hz"),
            (["bode"], {"num": [1.0], "den": [1.0, 0.1], "dealy": 0.02}, "dealy"),
            (["bode"], {"num": [float("nan")], "den": [1.0, 0.1]}, "num"),
            (["bode"], {"num": [1.0], "den": [1.0, 0.1], "delay": [0.02]}, "delay"),
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
            (["compare", str(missing_csv), str(ok)], None, str(missing_csv)),
            (["run"], {"name": "x", "aero_table_path": str(missing_csv)},
             str(missing_csv)),
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

    def test_removed_skip_notch_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--skip-notch", "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "unrecognized arguments: --skip-notch" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize("cfg, loops", [
        ({"deriv_corner_hz": 1e-6}, "designed and notch-free"),
        ({"kp": 1e300}, "designed and notch-free"),
        ({"ki": 1e300}, "designed and notch-free"),
        ({"kd": 1e300}, "designed and notch-free"),
        ({"notch_k1": 1e300}, "designed"),
    ], ids=["deriv_corner_1e-6", "kp_1e300", "ki_1e300", "kd_1e300",
            "notch_k1_1e300"])
    def test_unbounded_loop_fails_loop_finite(self, tmp_path, capsys, cfg, loops):
        # each config loads and its fit converges, but the loop's response
        # is not finite on the Nyquist grid: the gains overflow it, and a
        # 1e-6 Hz derivative corner makes tf_eval flag low frequencies as on
        # a pole.  The run fails loop_finite after the fit report, where it
        # used to end in a traceback from the winding count
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["pipeline", str(path), "--out-dir", str(out)]) \
            == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        text = (out / "design_pipeline_report.txt").read_text()
        assert (f"[FAIL] loop_finite: {loops} open-loop response not finite on "
                "the Nyquist grid [0.0001, 500] Hz (an overflow, or a sample on "
                "a pole): nothing past the fit is measured\n") in text
        assert "closed_loop_stable" not in text
        assert sorted(p.name for p in out.iterdir()) == [
            "design_pipeline_report.txt", "fit_report.txt", "frf.csv",
            "sweep_io.csv"]

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

    def test_diverging_sweep_fails_a_check(self, tmp_path, capsys):
        # an oversized injection drives the sweep past its divergence guard
        # (20 s: a 10 s chirp is too short for the FRF windows and is
        # rejected at load time); the pipeline reports it like any failed
        # check and keeps the rows the sweep recorded
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps({"chirp": {"amplitude": 1e4,
                                             "duration_s": 20.0}}))
        out = tmp_path / "out"
        rc = cli.main(["pipeline", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_CHECK_FAILED
        assert capsys.readouterr().err == ""
        text = (out / "design_pipeline_report.txt").read_text()
        header, rows = read_csv(out / "sweep_io.csv")
        assert header == ["t", "u_injected", "u_total", "omega_meas"]
        assert rows.shape == (8, 4)
        # the divergence time is on the clock of the rows' t column: the
        # last row's time, counted from the chirp start
        assert "sweep_diverged_at_s = 0.028" in text
        reported = re.search(r"^  sweep_diverged_at_s = (.*)$", text, re.M)[1]
        assert reported == repr(float(rows[-1, 0]))
        assert "[FAIL] sweep_bounded: the response passed 50 rad/s at t = 0.028 s " in text
        assert not (out / "frf.csv").exists()
