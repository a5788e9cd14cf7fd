"""The four benchmark workloads: inputs from the seed, the timed operation,
and the checks each operation's outputs must pass.

Every check is computed here from what the operation wrote or returned:
CSV logs read back with numpy, margins against the reference evaluator in
``reference.py``.  ``RunReport.passed`` is not a criterion, because three
of the package's checks fail by design (see the package README).
"""

from __future__ import annotations

import ast
import hashlib
import math
import os
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref
from tailsitter import (biquad, control, dataio, harness, lti, metrics, plant,
                        quat, sim, sysid)

CONTROL_DT = 0.004  # telemetry and state logs are written at 250 Hz


def read_table(path):
    """(column index by name, float rows) of a CSV log."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: i for i, name in enumerate(header)}, data


def file_digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def verdict(report, name):
    return next(ok for check, ok, _ in report.checks if check == name)


def _expect_rows(problems, label, data, n):
    if data.shape[0] != n:
        problems.append(f"{label}: {data.shape[0]} rows, expected {n}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{label}: non-finite values")


class Transition:
    """One op: the builtin nonlinear ``transition`` scenario at the run seed."""

    name = "transition"

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir)
        self.scenario = harness.builtin_scenarios()["transition"]
        self.sim_seconds = self.scenario.duration_s
        self.round = [seed]

    def op(self, seed):
        return harness.run_scenario("transition", self.out_dir, seed=seed)

    def check(self, seed, report):
        sc = self.scenario
        problems = []
        n = int(round(sc.duration_s / CONTROL_DT))
        tcol, tele = read_table(self.out_dir / "transition_telemetry.csv")
        scol, log = read_table(self.out_dir / "transition_simlog.csv")
        _expect_rows(problems, "telemetry", tele, n)
        _expect_rows(problems, "state log", log, n)
        if report.metrics.get("diverged", True):
            problems.append("run diverged")
        if problems:
            return problems

        alt_err = np.max(np.abs(-log[:, scol["pz"]] - sc.initial_altitude_m))
        if not alt_err < 2.0:
            problems.append(f"max |altitude - {sc.initial_altitude_m} m| = "
                            f"{alt_err:.3f} m (< 2 m required)")

        for label, cols, data in (
                ("state", ("eta", "ex", "ey", "ez"), (scol, log)),
                ("measured", ("q_meas_eta", "q_meas_ex", "q_meas_ey",
                              "q_meas_ez"), (tcol, tele)),
                ("commanded", ("q_cmd_eta", "q_cmd_ex", "q_cmd_ey",
                               "q_cmd_ez"), (tcol, tele))):
            col, d = data
            q = d[:, [col[c] for c in cols]]
            err = np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0))
            if err > 1e-9:
                problems.append(f"{label} quaternion norm off unit by {err:.2e}")

        # angle of the body x (thrust) axis from vertical: 90 deg pitch is 0
        eta, ex, ey, ez = (log[:, scol[c]] for c in ("eta", "ex", "ey", "ez"))
        tilt = np.degrees(np.arccos(np.clip(-2.0 * (ex * ez - eta * ey),
                                            -1.0, 1.0)))
        t = log[:, scol["t"]]
        ramp = next(e for e in sc.events if e.kind == "pitch_ramp")
        step = next(e for e in sc.events if e.kind == "attitude")
        ramp_tilt = 90.0 - math.degrees(ramp.args["pitch_to"])
        before = tilt[(t >= step.t - 2.0) & (t < step.t)]
        if not np.all(np.abs(before - ramp_tilt) < 1.0):
            problems.append(f"tilt before the step-back spans "
                            f"[{before.min():.2f}, {before.max():.2f}] deg, "
                            f"expected {ramp_tilt:.1f} +/- 1")
        settled = tilt[t >= step.t + 3.0]
        if not np.max(settled) < 0.5:
            problems.append(f"tilt {np.max(settled):.3f} deg from the 90 deg "
                            "step-back command 3 s after the step (< 0.5)")
        return problems

    def digest(self, seed, report):
        return file_digest(report.artifacts)

    def verdicts(self, report):
        return {}


class LinearAxis:
    """One op: ``hover_notch_ab`` then ``rate_step`` on the identified plant.

    The seed scales the notch run's initial pitch rate and the rate-step
    amplitude; the loop stays linear, so the work and the checks' outcome
    do not depend on it.
    """

    name = "linear_axis"

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir)
        rng = random.Random(seed)
        builtin = harness.builtin_scenarios()
        self.notch_ab = replace(builtin["hover_notch_ab"],
                                initial_pitch_rate=rng.uniform(0.005, 0.02))
        amp = rng.uniform(0.2, 0.4)
        steps = builtin["rate_step"]
        self.rate_step = replace(steps, events=tuple(
            replace(e, args={"y": amp if k % 2 == 0 else -amp})
            for k, e in enumerate(steps.events)))
        self.sim_seconds = self.notch_ab.duration_s + self.rate_step.duration_s
        self.round = [seed]

    def op(self, seed):
        return (harness.run_scenario(self.notch_ab, self.out_dir),
                harness.run_scenario(self.rate_step, self.out_dir))

    def _telemetry(self, sc):
        col, data = read_table(self.out_dir / f"{sc.name}_telemetry.csv")
        return data[:, col["t"]], data[:, col["w_meas_y"]], data

    def check(self, seed, reports):
        problems = []
        sc = self.notch_ab
        t, w, data = self._telemetry(sc)
        _expect_rows(problems, sc.name, data, int(round(sc.duration_s / CONTROL_DT)))
        if problems:
            return problems
        enable = next(e.t for e in sc.events
                      if e.kind == "notch" and e.args["enabled"])
        seg = w[(t >= enable - 6.0) & (t < enable)]
        spec = np.abs(np.fft.rfft((seg - seg.mean()) * np.hanning(seg.size),
                                  8 * seg.size))
        freqs = np.fft.rfftfreq(8 * seg.size, CONTROL_DT)
        band = (freqs >= 5.0) & (freqs <= 40.0)
        f_dom = freqs[band][np.argmax(spec[band])]
        f_peak = sc.plant_params.peak.freq_hz
        if not abs(f_dom - f_peak) <= 1.0:
            problems.append(f"pre-enable oscillation at {f_dom:.2f} Hz, "
                            f"structural peak {f_peak:.2f} Hz (+/- 1 Hz)")
        before = np.max(np.abs(w[(t >= enable - 1.0) & (t < enable)]))
        after = np.max(np.abs(w[t >= sc.duration_s - 1.0]))
        if not after < 0.5 * before:
            problems.append(f"envelope {before:.4g} -> {after:.4g} rad/s after "
                            "the notch is enabled (must halve)")

        sc = self.rate_step
        t, w, data = self._telemetry(sc)
        _expect_rows(problems, sc.name, data, int(round(sc.duration_s / CONTROL_DT)))
        if problems:
            return problems
        prev = 0.0
        for e in sc.events:
            target = e.args["y"]
            m = t >= e.t
            frac = (w[m] - prev) / (target - prev)
            if not (np.any(frac >= 0.1) and np.any(frac >= 0.9)):
                problems.append(f"edge at {e.t} s never reaches 90 %")
            else:
                rise = t[m][np.argmax(frac >= 0.9)] - t[m][np.argmax(frac >= 0.1)]
                if not rise <= 0.5:
                    problems.append(f"edge at {e.t} s: 10-90 % rise {rise:.3f} s "
                                    "(<= 0.5 s required)")
            prev = target
        return problems

    def digest(self, seed, reports):
        return file_digest([a for r in reports for a in r.artifacts])

    def verdicts(self, reports):
        return {"rate_step_overshoot": verdict(reports[1], "rate_step_overshoot")}


def _read_fit_report(path):
    """PlantFitParams from the ``k = v`` lines of ``fit_report.txt``."""
    fields = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("  ") and line[2:3].isalpha() and " = " in line:
            key, value = line.strip().split(" = ", 1)
            fields[key] = ast.literal_eval(value)
    return dataio.plant_params_from_config(fields)


class DesignPipeline:
    """One op: ``design_pipeline`` on the shipped sweep, fit seed and gains.

    The seed draws the notch shape (k1, k2) placed on the identified peak.
    The fit seed stays at the shipped 3: the optimizer's evaluation count
    moves by +/-15 % with it, which would swamp the timing.  The PID gains
    stay shipped too, so the phase-margin and slope verdicts keep their
    by-design meaning.
    """

    name = "design_pipeline"

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir)
        rng = random.Random(seed)
        self.cfg = harness.PipelineConfig(notch_k1=rng.uniform(0.12, 0.2),
                                          notch_k2=rng.uniform(0.014, 0.024))
        self.round = [seed]

    def op(self, seed):
        return harness.design_pipeline(self.cfg, self.out_dir)

    def check(self, seed, report):
        cfg = self.cfg
        if not report.metrics.get("fit_converged"):
            return ["fit did not converge"]
        p = _read_fit_report(self.out_dir / "fit_report.txt")
        problems = []
        true_peak = cfg.true_params.peak.freq_hz
        if not abs(p.peak.freq_hz / true_peak - 1.0) <= 0.02:
            problems.append(f"fitted peak {p.peak.freq_hz:.3f} Hz vs true "
                            f"{true_peak:.3f} Hz (2 % required)")
        notch = (p.peak.freq_hz, cfg.notch_k1, cfg.notch_k2)
        loop = ref.identified_loop(p, cfg.kp, cfg.ki, cfg.kd,
                                   cfg.deriv_corner_hz, notch)
        loop_tf = lti.tf_series(
            lti.fitted_plant(p),
            lti.tf_series(lti.pid_tf(cfg.kp, cfg.ki, cfg.kd, cfg.deriv_corner_hz),
                          lti.notch(*notch)))
        mt = report.metrics
        reported = SimpleNamespace(
            gain_crossover_hz=mt.get("crossover_hz"),
            phase_margin_deg=mt.get("phase_margin_deg"),
            phase_crossover_hz=mt.get("phase_crossover_hz"),
            gain_margin_db=mt.get("gain_margin_db"))
        problems += ref.check_margins(loop, reported,
                                      lambda k: lti.nyquist_stable(k * loop_tf))
        problems += ref.check_slope(loop, mt["slope_db_per_decade"],
                                    *cfg.slope_band)

        col, bode = read_table(self.out_dir / "bode_open_loop.csv")
        f = bode[:, col["freq_hz"]]
        mag_err = np.max(np.abs(bode[:, col["mag_db"]]
                                - 20.0 * np.log10(loop.magnitude(f))))
        ph_err = np.max(np.abs(bode[:, col["phase_deg"]] - loop.phase_deg(f)))
        if mag_err > ref.GAIN_TOL_DB or ph_err > ref.PHASE_TOL_DEG:
            problems.append(f"open-loop Bode export off by {mag_err:.2e} dB, "
                            f"{ph_err:.2e} deg")

        _, sections = read_table(self.out_dir / "compensator_biquads_250hz.csv")
        sos = np.column_stack([sections[:, 1:4], np.ones(len(sections)),
                               sections[:, 4:6]])
        comp = ref.FactoredLoop(ref.compensator_factors(
            cfg.kp, cfg.ki, cfg.kd, cfg.deriv_corner_hz, notch))
        problems += ref.check_cascade(sos, 250.0, comp, p.peak.freq_hz,
                                      np.logspace(-1.0, math.log10(50.0), 200))
        return problems

    def digest(self, seed, report):
        return file_digest(report.artifacts)

    def verdicts(self, report):
        return {name: verdict(report, name)
                for name in ("phase_margin_band", "slope_band")}


class LoopShaping:
    """One op: margins, Nyquist verdict and slope of one candidate design.

    Candidates are every PID gain scale x notch (k1, k2) pair below, each
    value jittered by a seeded factor within +/-3 %, on the reference
    identified plant with the notch at its structural peak.  About half are
    closed-loop unstable: nearly all from gain scale 1.3 up, and the
    shallow (0.15, 0.1) notch from 0.7 up.
    """

    name = "loop_shaping"
    GAIN_SCALES = (0.5, 0.7, 1.0, 1.2, 1.3, 1.5, 2.0)
    NOTCH_SHAPES = ((0.15, 0.018), (0.08, 0.01), (0.3, 0.03), (0.3, 0.12),
                    (0.15, 0.1))
    PID = (0.09, 0.1, 0.01, 18.0)
    SLOPE_BAND = (0.6, 14.0)

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.params = lti.PlantFitParams.reference()
        self.plant_tf = lti.fitted_plant(self.params)

        def jitter(x):
            return x * math.exp(rng.uniform(-0.03, 0.03))

        self.round = [(jitter(g), jitter(k1), jitter(k2))
                      for g in self.GAIN_SCALES for k1, k2 in self.NOTCH_SHAPES]

    def op(self, candidate):
        g, k1, k2 = candidate
        kp, ki, kd, corner = self.PID
        comp = lti.tf_series(lti.pid_tf(g * kp, g * ki, g * kd, corner),
                             lti.notch(self.params.peak.freq_hz, k1, k2))
        loop = lti.tf_series(self.plant_tf, comp)
        return (loop, lti.margins(loop), lti.nyquist_stable(loop),
                lti.magnitude_slope(loop, *self.SLOPE_BAND))

    def check(self, candidate, result):
        g, k1, k2 = candidate
        loop_tf, m, stable, slope = result
        kp, ki, kd, corner = self.PID
        loop = ref.identified_loop(self.params, g * kp, g * ki, g * kd, corner,
                                   (self.params.peak.freq_hz, k1, k2))
        problems = ref.check_margins(loop, m,
                                     lambda k: lti.nyquist_stable(k * loop_tf))
        problems += ref.check_slope(loop, slope, *self.SLOPE_BAND)
        if m.gain_margin_db is not None and stable != (m.gain_margin_db > 0.0):
            problems.append(f"Nyquist says {'stable' if stable else 'unstable'} "
                            f"with gain margin {m.gain_margin_db:.3f} dB")
        return problems

    def digest(self, candidate, result):
        _, m, stable, slope = result
        return repr((m, stable, slope))

    def verdicts(self, result):
        return {}


WORKLOADS = {w.name: w for w in (Transition, LinearAxis, DesignPipeline,
                                 LoopShaping)}


# ---------------------------------------------------------------------------
# layer spans: (span name, owner, attribute); a class owner means a method

LAYER_SPANS = (
    ("plant.TailsitterSim.step", plant.TailsitterSim, "step"),
    ("plant.step_dynamics", plant, "step_dynamics"),
    ("plant.mixer", plant, "mixer"),
    ("plant.RateSensor.process", plant.RateSensor, "process"),
    ("plant.aero_forces", plant, "aero_forces"),
    ("plant.rotor_vibration", plant, "rotor_vibration"),
    ("plant.LinearAxisPlant.step", plant.LinearAxisPlant, "step"),
    ("biquad.BiquadCascade.process", biquad.BiquadCascade, "process"),
    ("biquad.discretize_tustin", biquad, "discretize_tustin"),
    ("control.RateController.step", control.RateController, "step"),
    ("control.AttitudeController.step", control.AttitudeController, "step"),
    ("control.AltitudeController.step", control.AltitudeController, "step"),
    ("quat.attitude_error", quat, "attitude_error"),
    ("quat.euler_zxy_to_quat", quat, "euler_zxy_to_quat"),
    ("quat.quat_to_euler_zxy", quat, "quat_to_euler_zxy"),
    ("lti.margins", lti, "margins"),
    ("lti.nyquist_stable", lti, "nyquist_stable"),
    ("lti.magnitude_slope", lti, "magnitude_slope"),
    ("lti.fitted_plant", lti, "fitted_plant"),
    ("lti.tf_eval", lti, "tf_eval"),
    ("sysid.sweep_experiment", sysid, "sweep_experiment"),
    ("sysid.estimate_frf", sysid, "estimate_frf"),
    ("sysid.fit_plant_model", sysid, "fit_plant_model"),
    ("sim.run_nonlinear", sim, "run_nonlinear"),
    ("sim.run_linear_axis", sim, "run_linear_axis"),
    ("dataio.write_csv", dataio, "write_csv"),
    ("dataio.read_csv", dataio, "read_csv"),
    ("harness.run_scenario", harness, "run_scenario"),
    ("harness.design_pipeline", harness, "design_pipeline"),
) + tuple(("metrics.all", metrics, f) for f in metrics.__all__)

# the objective fit_plant_model hands to scipy's minimize
FIT_OBJECTIVE = "sysid.fit_objective"


def span_names():
    names = []
    for name, _, _ in LAYER_SPANS:
        if name not in names:
            names.append(name)
    return names + [FIT_OBJECTIVE]


def install_layer_spans(tracer):
    for name, owner, attr in LAYER_SPANS:
        if isinstance(owner, type):
            tracer.patch_method(owner, attr, name)
        elif name == "dataio.write_csv":
            tracer.patch_function(owner, attr, name, after=lambda path: tracer.count(
                "dataio.write_csv.bytes", os.path.getsize(path)))
        else:
            tracer.patch_function(owner, attr, name)

    minimize = sysid.minimize

    def traced_minimize(fun, x0, *args, **kwargs):
        return minimize(tracer.wrap(FIT_OBJECTIVE, fun), x0, *args, **kwargs)

    tracer.patch_value(sysid, "minimize", traced_minimize)
