"""Tests of the benchmark's own arithmetic: span self times and the
reference evaluator.  Run with ``python3 -m pytest benchmarks``."""

import json
import math
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tailsitter import biquad, lti, sysid  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nested_self_times_add_up_to_the_root():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enabled = True

    def leaf(ns):
        clock.now += ns

    def middle():
        clock.now += 5
        tr.call("leaf", leaf, 10)
        clock.now += 1
        tr.call("leaf", leaf, 30)

    def root():
        clock.now += 2
        tr.call("middle", middle)
        clock.now += 7

    tr.call("root", root)
    st = tr.stats
    assert st["leaf"].calls == 2 and st["leaf"].self_ns == 40
    assert st["leaf"].median_ns() == 20
    assert st["middle"].calls == 1 and st["middle"].self_ns == 6
    assert list(st["middle"].durations_ns) == [46]
    assert st["root"].self_ns == 9 and list(st["root"].durations_ns) == [55]
    assert sum(s.self_ns for s in st.values()) == 55


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enabled = True

    def boom():
        clock.now += 3
        raise ValueError("x")

    def root():
        with pytest.raises(ValueError):
            tr.call("boom", boom)
        clock.now += 4

    tr.call("root", root)
    assert tr.stats["boom"].self_ns == 3
    assert tr.stats["root"].self_ns == 4
    assert tr._stack == []


def test_disabled_tracer_records_nothing():
    tr = Tracer(FakeClock())
    assert tr.wrap("f", lambda x: 2 * x)(4) == 8
    tr.count("bytes", 10)
    assert tr.stats == {} and tr.counters == {}


def test_patch_reaches_every_binding_and_unpatch_restores():
    orig = lti.tf_eval
    tr = Tracer()
    tr.patch_function(lti, "tf_eval", "lti.tf_eval")
    try:
        assert lti.tf_eval is not orig
        assert sysid.tf_eval is lti.tf_eval
        tr.enabled = True
        lti.fitted_plant()(3.0)  # ContinuousTF.__call__ looks up lti.tf_eval
        assert tr.stats["lti.tf_eval"].calls == 1
    finally:
        tr.unpatch()
    assert lti.tf_eval is orig and sysid.tf_eval is orig


def _hand_loop(k, tau):
    """k/s with delay tau: f_c = k/2pi, PM = 90 - 360 f_c tau,
    f_pc = 1/(4 tau), GM = 20 log10(2 pi f_pc / k)."""
    return (ref.FactoredLoop([ref.integrator(k)], tau),
            lti.ContinuousTF([k], [0.0, 1.0], tau))


def test_reference_evaluator_on_a_hand_solvable_loop():
    k, tau = 2.0 * math.pi * 2.0, 0.05
    loop, _ = _hand_loop(k, tau)
    fc = k / (2.0 * math.pi)
    assert abs(loop.magnitude(fc) - 1.0) < 1e-12
    assert abs((180.0 + loop.phase_deg(fc)) - (90.0 - 360.0 * fc * tau)) < 1e-9
    fpc = 1.0 / (4.0 * tau)
    assert abs(loop.phase_deg(fpc) + 180.0) < 1e-9
    assert abs(-20.0 * math.log10(loop.magnitude(fpc))
               - 20.0 * math.log10(2.0 * math.pi * fpc / k)) < 1e-9


def test_check_margins_accepts_the_exact_answer_and_rejects_a_wrong_one():
    k, tau = 2.0 * math.pi * 2.0, 0.05
    loop, tf = _hand_loop(k, tau)
    fpc = 1.0 / (4.0 * tau)
    exact = SimpleNamespace(gain_crossover_hz=2.0, phase_margin_deg=54.0,
                            phase_crossover_hz=fpc,
                            gain_margin_db=20.0 * math.log10(2.5))

    def scaled(g):
        return lti.nyquist_stable(g * tf)

    assert ref.check_margins(loop, exact, scaled) == []
    assert ref.check_margins(loop, lti.margins(tf), scaled) == []
    wrong_pm = SimpleNamespace(**{**vars(exact), "phase_margin_deg": 55.0})
    assert any("phase margin" in p
               for p in ref.check_margins(loop, wrong_pm, scaled))
    wrong_gm = SimpleNamespace(**{**vars(exact), "gain_margin_db": 7.0})
    problems = ref.check_margins(loop, wrong_gm, scaled)
    assert any("gain margin" in p for p in problems)
    assert any("still stable" in p for p in problems)


def test_factored_loop_matches_the_expanded_transfer_function():
    p = lti.PlantFitParams.reference()
    notch = (p.peak.freq_hz, 0.15, 0.018)
    loop = ref.identified_loop(p, 0.09, 0.1, 0.01, 18.0, notch)
    tf = lti.tf_series(lti.fitted_plant(p),
                       lti.tf_series(lti.pid_tf(0.09, 0.1, 0.01, 18.0),
                                     lti.notch(*notch)))
    f = np.logspace(-2, 2, 400)
    assert np.allclose(loop.response(f), lti.tf_eval(tf, f), rtol=1e-9)
    assert ref.check_slope(loop, lti.magnitude_slope(tf, 0.6, 14.0), 0.6, 14.0) == []


def test_check_cascade_on_a_tustin_design():
    p = lti.PlantFitParams.reference()
    notch = (p.peak.freq_hz, 0.15, 0.018)
    comp_tf = lti.tf_series(lti.pid_tf(0.09, 0.1, 0.01, 18.0), lti.notch(*notch))
    cascade = biquad.discretize_tustin(comp_tf, 250.0, prewarp_hz=notch[0])
    sos = [(*s.coefficients()[:3], 1.0, *s.coefficients()[3:])
           for s in cascade.sections]
    comp = ref.FactoredLoop(ref.compensator_factors(0.09, 0.1, 0.01, 18.0, notch))
    f = np.logspace(-1, math.log10(50.0), 100)
    assert ref.check_cascade(sos, 250.0, comp, notch[0], f) == []
    sos[1] = (sos[1][0] * 1.001, *sos[1][1:])
    assert ref.check_cascade(sos, 250.0, comp, notch[0], f) != []


def test_op_times_are_each_inputs_median_at_the_reference_speed():
    times = [("a", 3.0), ("b", 5.0), ("a", 1.0), ("c", 2.0), ("b", 7.0),
             ("a", 2.0)]
    assert sorted(run.median_by_input(times)) == [2.0, 2.0, 6.0]
    e2e = run.end_to_end(times, 2.0, 0.9)
    assert e2e["op_s"][0] == 1.0 and e2e["op_p90_s"][0] == 3.0
    assert e2e["setup_s"][0] == 0.9


def test_host_probe_slowdown_and_time_spent():
    ticks = iter(range(0, 10**9, 100_000))
    probe = hostspeed.HostProbe(clock=lambda: next(ticks))
    for _ in range(3):
        probe._probe()
    # each probe reads the clock three times, 100 us apart
    assert list(probe.samples_ns) == [100_000] * 3
    assert probe.spent_ns == 3 * 200_000
    assert probe.slowdown() == 100_000 / hostspeed.REF_PROBE_NS


def test_host_probe_timer_samples_and_stops():
    probe = hostspeed.HostProbe()
    probe.start(interval_s=0.01)
    try:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    finally:
        probe.stop()
    n = len(probe.samples_ns)
    assert n >= 5
    time.sleep(0.05)
    assert len(probe.samples_ns) == n
    assert signal.getsignal(signal.SIGALRM) is not probe._probe


def test_p90_is_nearest_rank():
    assert run.p90([3.0]) == 3.0
    assert run.p90([1.0, 2.0, 3.0]) == 3.0
    assert run.p90([float(i) for i in range(1, 101)]) == 90.0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"benchmarks"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = run.end_to_end([("a", 1.0), ("a", 2.0)], 1.0, 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()}
    tr = Tracer()
    layers = run.per_layer(tr, workloads.span_names(), [("a", 1.0)],
                           [("a", 1.0)], [(10, 0)])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in layers.items()}
