"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
A run that diverges, in a scenario or in the pipeline's sweep, writes its
report and fails a check there (exit 1).  ``compare`` exits 0 when the two
logs are identical and 1 when any column differs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import (BODE_BAND_HZ, ConfigError, from_config, load_json, tf_from_config,
                     to_config, write_bode_csv)
from .harness import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    PipelineConfig,
    builtin_scenarios,
    compare_runs,
    design_pipeline,
    run_scenario,
)
from .lti import magnitude_slope, margins


def _add_run_flags(p):
    p.add_argument("--out-dir", default="out", help="artifact directory")
    p.add_argument("--seed", type=int, default=None, help="override run seed")


def _check_band(flag, f_lo, f_hi):
    """A frequency band from the command line, as a config error if empty."""
    if not 0.0 < f_lo < f_hi < math.inf:
        raise ConfigError(f"{flag}: need 0 < F_LO < F_HI, got {f_lo:g} {f_hi:g}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="tailsitter",
        description="tail-sitter loop-shaping design and simulation toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario (builtin name or JSON file)")
    run_p.add_argument("scenario",
                       help=f"builtin ({', '.join(builtin_scenarios())}) or path")
    _add_run_flags(run_p)

    pipe_p = sub.add_parser("pipeline",
                            help="sweep -> identify -> design pipeline")
    pipe_p.add_argument("config", nargs="?", default=None,
                        help="optional pipeline JSON config")
    _add_run_flags(pipe_p)

    bode_p = sub.add_parser("bode", help="export Bode CSV for a TF config")
    bode_p.add_argument("tf_config", help="transfer-function JSON config")
    bode_p.add_argument("--out", default=None, help="output CSV path")
    bode_p.add_argument("--f-lo", type=float, default=BODE_BAND_HZ[0])
    bode_p.add_argument("--f-hi", type=float, default=BODE_BAND_HZ[1])
    bode_p.add_argument("--out-dir", default="out",
                        help="directory of bode.csv when --out is not given")

    marg_p = sub.add_parser("margins", help="stability margins of a TF config")
    marg_p.add_argument("tf_config")
    marg_p.add_argument("--slope-band", type=float, nargs=2, default=None,
                        metavar=("F_LO", "F_HI"))

    cmp_p = sub.add_parser("compare", help="diff two CSV logs")
    cmp_p.add_argument("log_a")
    cmp_p.add_argument("log_b")

    scen_p = sub.add_parser("scenarios",
                            help="list builtin scenarios or dump them as JSON")
    scen_p.add_argument("--dump-dir", default=None,
                        help="write each builtin scenario as a JSON file")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run_scenario(args.scenario, args.out_dir, seed=args.seed)
            sys.stdout.write(report.to_text())
            return EXIT_OK if report.passed else EXIT_CHECK_FAILED

        if args.command == "pipeline":
            cfg = (PipelineConfig() if args.config is None
                   else from_config(PipelineConfig, load_json(args.config)))
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            report = design_pipeline(cfg, args.out_dir)
            sys.stdout.write(report.to_text())
            return EXIT_OK if report.passed else EXIT_CHECK_FAILED

        if args.command == "bode":
            _check_band("--f-lo", args.f_lo, args.f_hi)
            tf = tf_from_config(load_json(args.tf_config))
            out = args.out or str(Path(args.out_dir) / "bode.csv")
            write_bode_csv(out, tf, args.f_lo, args.f_hi)
            print(f"wrote {out}")
            return EXIT_OK

        if args.command == "margins":
            if args.slope_band:
                _check_band("--slope-band", *args.slope_band)
            tf = tf_from_config(load_json(args.tf_config))
            m = margins(tf)
            if not m.has_gain_crossover:
                print("no gain crossover in the searched band")
            else:
                print(f"gain crossover: {m.gain_crossover_hz:.4f} Hz")
                print(f"phase margin:   {m.phase_margin_deg:.3f} deg")
                if m.gain_margin_db is not None:
                    print(f"phase crossover: {m.phase_crossover_hz:.4f} Hz")
                    print(f"gain margin:     {m.gain_margin_db:.3f} dB")
            if args.slope_band:
                s = magnitude_slope(tf, *args.slope_band)
                print(f"magnitude slope over {args.slope_band}: {s:.3f} dB/dec")
            return EXIT_OK

        if args.command == "compare":
            diff = compare_runs(args.log_a, args.log_b)
            sys.stdout.write(diff.to_text())
            return EXIT_OK if diff.identical else EXIT_CHECK_FAILED

        if args.command == "scenarios":
            for name, sc in builtin_scenarios().items():
                print(f"{name}: mode={sc.mode}, duration={sc.duration_s}s, "
                      f"checks={sc.check_suite}")
                if args.dump_dir:
                    path = Path(args.dump_dir) / f"{name}.json"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(json.dumps(to_config(sc), indent=2))
                    print(f"  wrote {path}")
            return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
