"""Benchmark of the tailsitter package: four workloads, one process, one thread.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: transition, linear_axis, design_pipeline, loop_shaping (see
README.md).  Each run repeats whole rounds of operations within
``--seconds`` (at least one round), checks every operation's outputs, and
prints the metrics with their units; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds alternate between untraced and traced, with a span
around each layer function, and the run reports the per-layer metrics.
End-to-end times are scaled to a fixed host speed by a probe kernel timed
throughout the run (``hostspeed.py``).

The package is imported from ``src/`` next to this directory and nowhere
else; artifacts go to a temporary directory there that is removed on exit.
"""

import os

# pinned before numpy loads so BLAS and OpenMP stay single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# a traced op may exceed its own layer self-time sum only by timer overhead
MAX_UNATTRIBUTED_SHARE = 0.01
TMP_PREFIX = ".bench-tmp-"
# span around each traced op; its self time is the benchmark's own glue
OP_ROOT = "bench.op"


def import_package():
    """Import tailsitter from this checkout's src/, or exit with status 2."""
    if not (SRC / "tailsitter" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'tailsitter'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tailsitter

    if Path(tailsitter.__file__).resolve().parent != SRC / "tailsitter":
        print(f"benchmark: imported tailsitter from {tailsitter.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("transition", "linear_axis", "design_pipeline",
                            "loop_shaping"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the package and build the inputs")
    return p.parse_args(argv)


def p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def median_by_input(times):
    """Each distinct input's median op time, from (input key, seconds) pairs."""
    by_key = {}
    for key, dt in times:
        by_key.setdefault(key, []).append(dt)
    return [statistics.median(v) for v in by_key.values()]


def metadata():
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (SRC / "tailsitter").glob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(args):
    """Median wall time of fresh processes that import and build inputs.

    Not scaled by the host probe: a set-up process may run on the other
    vCPU, whose speed the probe in this process does not see.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        # no timeout: with one, the wait polls and rounds up to 50 ms steps
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs whole rounds of a workload's ops and checks every one."""

    def __init__(self, workload, probe=None):
        self.wl = workload
        self.probe = probe  # op times exclude the time its probes took
        self.attempted = 0
        self.failed = 0
        self.times = []  # (input key, seconds) of every op that passed
        self.traced_times = []  # the same for traced ops
        self.digests = {}
        self.verdicts = {}
        self.failures = []
        self.traced_gaps = []  # (op wall ns, wall minus layer self times)

    def run_for(self, seconds, tracer=None, install=None):
        """Whole rounds, at least one, while another round of the length of
        the last still ends within ``seconds``.

        With a tracer, rounds alternate untraced and traced, ending on a
        traced one, so both kinds sample the same stretch of host load;
        ``install(tracer)`` adds the spans for each traced round and they
        are removed after it.
        """
        t_start = time.perf_counter()
        if self.probe is not None:
            self.probe.start()
        try:
            self._rounds(t_start, seconds, tracer, install)
        finally:
            if self.probe is not None:
                self.probe.stop()

    def _rounds(self, t_start, seconds, tracer, install):
        traced = False
        while True:
            t_round = time.perf_counter()
            if traced:
                install(tracer)
            try:
                for item in self.wl.round:
                    self._one(item, tracer if traced else None)
            finally:
                if traced:
                    tracer.unpatch()
            now = time.perf_counter()
            done = now + (now - t_round) > t_start + seconds
            if tracer is not None:
                done = done and traced
                traced = not traced
            if done:
                return

    def _one(self, item, tracer):
        key = repr(item)
        self.attempted += 1
        try:
            if tracer is None:
                spent = self.probe.spent_ns if self.probe else 0
                t0 = time.perf_counter()
                result = self.wl.op(item)
                dt = time.perf_counter() - t0
                if self.probe:
                    dt -= (self.probe.spent_ns - spent) / 1e9
            else:
                result, dt = self._traced_op(item, tracer)
            problems = self.wl.check(item, result)
            digest = self.wl.digest(item, result)
            if self.digests.setdefault(key, digest) != digest:
                problems.append("artifacts differ from an earlier op on the "
                                "same input")
            self.verdicts.update(self.wl.verdicts(result))
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.failures.append((key, problems))
        elif tracer is None:
            self.times.append((key, dt))
        else:
            self.traced_times.append((key, dt))

    def _traced_op(self, item, tracer):
        self_before = sum(st.self_ns for st in tracer.stats.values())
        tracer.enabled = True
        try:
            t0 = time.perf_counter_ns()
            result = tracer.call(OP_ROOT, self.wl.op, item)
            wall = time.perf_counter_ns() - t0
        finally:
            tracer.enabled = False
        self_sum = sum(st.self_ns for st in tracer.stats.values()) - self_before
        self.traced_gaps.append((wall, wall - self_sum))
        return result, wall / 1e9


def end_to_end(times, slowdown, setup_s):
    """End-to-end metrics, op times scaled to the reference host speed."""
    per_input = [t / slowdown for t in median_by_input(times)]
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(per_input), "s"),
        "op_p90_s": (p90(per_input), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }


def per_layer(tracer, span_names, untraced, traced, gaps):
    """Per-op layer metrics of the traced ops; ``gaps`` has one entry each."""
    n_ops = len(gaps)
    out = {}
    for name in span_names + [OP_ROOT]:
        st = tracer.stats.get(name)
        calls = st.calls if st else 0
        median_ns = st.median_ns() if st else 0.0
        self_ns = st.self_ns if st else 0
        out[f"{name}.calls"] = (calls / n_ops, "count")
        if name.startswith("dataio."):
            out[f"{name}.median_ms"] = (median_ns / 1e6, "ms")
        else:
            out[f"{name}.median_us"] = (median_ns / 1e3, "us")
        out[f"{name}.self_ms"] = (self_ns / n_ops / 1e6, "ms")
    out["dataio.write_csv.bytes"] = (
        tracer.counters.get("dataio.write_csv.bytes", 0) / n_ops, "B")
    t_un = statistics.median(median_by_input(untraced))
    t_tr = statistics.median(median_by_input(traced))
    out["trace.untraced_op_ms"] = (t_un * 1e3, "ms")
    out["trace.op_ms"] = (t_tr * 1e3, "ms")
    out["trace.overhead_pct"] = (100.0 * (t_tr / t_un - 1.0), "%")
    out["trace.attributed_pct"] = (
        100.0 * sum(st.self_ns for st in tracer.stats.values())
        / sum(wall for wall, _ in gaps), "%")
    out["trace.unattributed_ms"] = (max(g for _, g in gaps) / 1e6, "ms")
    out["trace.spans"] = (
        sum(st.calls for st in tracer.stats.values()) / n_ops, "count")
    return out


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its temporary artifact directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_package()
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as out:
            cls(args.seed, out)
        return 0

    meta = metadata()
    if not args.trace:
        setup_s = measure_setup(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=TMP_PREFIX) as out:
        wl = cls(args.seed, out)
        if not args.trace:
            runner = Runner(wl, HostProbe())
            runner.run_for(args.seconds)
            times = runner.times
            slowdown = runner.probe.slowdown()
            ok = bool(times)
            metrics = end_to_end(times, slowdown, setup_s) if ok else {}
        else:
            tracer = Tracer()
            runner = Runner(wl)
            runner.run_for(args.seconds, tracer, workloads.install_layer_spans)
            untraced, traced = runner.times, runner.traced_times
            gaps = runner.traced_gaps
            ok = bool(untraced) and bool(traced) and all(
                0 <= gap <= MAX_UNATTRIBUTED_SHARE * wall for wall, gap in gaps)
            metrics = per_layer(tracer, workloads.span_names(), untraced,
                                traced, gaps) if untraced and traced else {}

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# ops attempted {runner.attempted} failed {runner.failed}")
    for item, problems in runner.failures:
        print(f"# FAILED op {item}:")
        for line in "\n".join(problems).splitlines():
            print(f"#   {line}")
    for name, passed in sorted(runner.verdicts.items()):
        print(f"# reference verdict (red by design) {name}: "
              f"{'PASS' if passed else 'FAIL'}")
    if not args.trace and getattr(wl, "sim_seconds", None) and runner.times:
        rtf = (wl.sim_seconds * len(runner.times)
               / sum(dt for _, dt in runner.times))
        print(f"# sim_rtf = {rtf!r} simulated s per wall s")
    if not args.trace:
        print(f"# host slowdown = {slowdown!r} "
              f"({len(runner.probe.samples_ns)} probes)")
        if runner.times:
            print(f"# wall op_s = "
                  f"{statistics.median(median_by_input(runner.times))!r} s "
                  "(not scaled)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
