"""Command-line driver: run, suite, lemmas, sweep.

Exit codes: 0 on success, 2 when a verification verdict fails, 1 on usage or
configuration errors and on any other surro error, such as a run whose
iterates leave the floating-point range.
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import report
from .config import ConfigInvalid, assemble_sweep, load_config
from .errors import SurroError
from .runner import run_experiment, write_suite, write_sweep
from .suite import run_suite
from .sweep import sample_rate_sweep
from . import lemmas as lemma_suites

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT_FAIL = 2


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    bundle = run_experiment(cfg, args.out, plot=args.plot)
    print(f"{bundle.name}: wrote {bundle.trace_csv_path} and {bundle.rates_json_path}")
    if bundle.plot_svg_path is not None:
        print(f"{bundle.name}: wrote {bundle.plot_svg_path}")
    for check, verdict in bundle.verdicts.items():
        print(f"  {check:8s} {verdict}")
    if not bundle.passed:
        print(f"{bundle.name}: verdict FAILED")
        return EXIT_VERDICT_FAIL
    print(f"{bundle.name}: all verdicts pass")
    return EXIT_OK


def _cmd_suite(args) -> int:
    results = run_suite()
    path = write_suite(results, args.out)
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    print(f"wrote {path}")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VERDICT_FAIL
    print(f"all {len(results)} experiments pass")
    return EXIT_OK


def _cmd_lemmas(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_ERROR
    results = lemma_suites.run_all(trials=args.trials, seed=args.seed)
    for res in results:
        status = "ok" if res.passed else f"{len(res.failures)} counterexample(s)"
        print(f"{res.name:22s} trials={res.trials:<6d} {status}")
        for failure in res.failures:
            for key, value in failure.items():
                print(f"  {key} = {np.array2string(np.asarray(value), precision=17)}")
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERDICT_FAIL


def _cmd_sweep(args) -> int:
    name, model, ks, seeds = assemble_sweep(load_config(args.config))
    table = sample_rate_sweep(model, ks, seeds)
    sweep_path, summary_path = write_sweep(table, args.out)
    print(f"{name}: limiting rate {report.fmt(table.rho_pop)}")
    print(f"wrote {sweep_path} and {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surro",
        description="surrogate-minimization experiments with asymptotic-rate verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--plot", action="store_true", help="also write a log-error SVG plot")
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="run the registered verification experiments")
    p_suite.add_argument("--out", required=True, help="output directory for suite.json")
    p_suite.set_defaults(func=_cmd_suite)

    p_lem = sub.add_parser("lemmas", help="run the randomized linear-algebra property suites")
    p_lem.add_argument("--trials", type=int, default=1000)
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.set_defaults(func=_cmd_lemmas)

    p_sweep = sub.add_parser("sweep", help="sample-size sweep of finite-sample rates")
    p_sweep.add_argument("--config", required=True, help="path to a JSON sweep config")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _format_warning(message, *_) -> str:
    return f"warning: {message}\n"  # one line, without the source location


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except (ConfigInvalid, SurroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
