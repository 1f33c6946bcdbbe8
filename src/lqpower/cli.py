"""Command-line front end.

    lqpower optimize  [--config cfg.json] [--preset fig2] [--plot] [--out DIR]
    lqpower simulate  [--config cfg.json] [--seed N] [--samples N] [--out DIR]
    lqpower compare   --horizons 2:30 [--config cfg.json] [--plot] [--out DIR]
    lqpower sweep     --param sigma_d2 --values 0,0.01,0.05 [--out DIR]
    lqpower figure    {fig2|fig3|fig4} [--plot] [--out DIR]

Exit status is 0 on success; any invalid input produces a single
"error: ..." line on stderr and a nonzero exit (2 for a command line that
does not parse, 1 for any other error).  Each warning, such as an
optimizer run that stops at k_max short of a fixed point, prints one
"warning: ..." line on stderr and changes neither the exit status nor the
output files.
"""

from __future__ import annotations

import argparse
import re
import sys as _sys
import warnings

from . import experiments as exp


class _Parser(argparse.ArgumentParser):
    """argparse, with each usage error one "error: ..." line and exit 2.

    A separate value that starts with "-" and then a digit, a dot, inf or
    nan (--values -0.5,1) is read as a value, not as an unknown option: no
    option of this CLI looks like that.  argparse alone reads only a plain
    negative number, such as -0.5, as a value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the pattern argparse checks before it takes a "-" token for an option
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_common(parser: argparse.ArgumentParser, plot: bool = False) -> None:
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="master RNG seed (u64)")
    parser.add_argument("--samples", type=int, help="Monte Carlo replication count")
    parser.add_argument("--preset", choices=sorted(exp.PRESETS),
                        help="apply a figure preset before the config file")
    if plot:
        parser.add_argument("--plot", action="store_true",
                            help="also emit a gnuplot script for the outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lqpower",
        description="Energy-efficient transmit-power policies for remote LQ control")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("optimize", help="optimize one policy"), plot=True)
    _add_common(sub.add_parser("simulate",
                               help="optimize, then Monte Carlo-evaluate"))

    p_cmp = sub.add_parser("compare",
                           help="proposed vs full-power vs open-loop over horizons")
    _add_common(p_cmp, plot=True)
    p_cmp.add_argument("--horizons", default=",".join(map(str, exp.FIG4_HORIZONS)),
                       help="comma list and/or lo:hi ranges, e.g. 1,2,5:10 "
                            "(default: fig4's horizons)")

    p_sweep = sub.add_parser("sweep", help="re-optimize over one parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help=f"one of {', '.join(exp.SWEEP_PARAMETERS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (may be empty)")

    p_fig = sub.add_parser("figure", help="reproduce a reference figure's data")
    p_fig.add_argument("which", choices=("fig2", "fig3", "fig4"))
    _add_common(p_fig, plot=True)
    return parser


def _parse_horizons(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            bounds = [int(v) for v in part.split(":", 1)]
        except ValueError:
            raise exp.ConfigError(
                f"bad horizon {part!r} in {spec!r} (expected T or lo:hi)") from None
        if ":" in part:
            lo, hi = bounds
            if hi < lo:
                raise exp.ConfigError(f"empty horizon range {part!r} (hi < lo)")
            out.extend(range(lo, hi + 1))
        else:
            out.extend(bounds)
    if not out:
        raise exp.ConfigError(f"no horizons in {spec!r}")
    return out


def _parse_values(spec: str) -> list[float]:
    out = []
    for part in filter(None, map(str.strip, spec.split(","))):
        try:
            out.append(float(part))
        except ValueError:
            raise exp.ConfigError(
                f"bad value {part!r} in {spec!r} (expected a number)") from None
    return out


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=_sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # every occurrence, not only the first one from each line of code
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = _print_warning
        return _main(argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = exp.load_config(
            path=args.config,
            preset=args.preset or getattr(args, "which", None),   # figure's own by default
            seed=args.seed,
            samples=args.samples,
            output_dir=args.out,
        )
        if args.command == "optimize":
            res = exp.run_optimize(cfg)
        elif args.command == "simulate":
            res = exp.run_simulate(cfg)
        elif args.command == "compare":
            res = exp.run_compare(cfg, _parse_horizons(args.horizons))
        elif args.command == "sweep":
            res = exp.run_sweep(cfg, args.param, _parse_values(args.values))
        else:
            res = exp.run_figure(cfg, args.which)
        if getattr(args, "plot", False):
            res["files"].append(exp.emit_plot_script(
                res["files"], cfg.output_dir, getattr(args, "which", None)))
    # OSError: an unwritable --out; MemoryError: a horizon too long to allocate
    except (exp.ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    for f in res["files"]:
        print(f)
    return 0


if __name__ == "__main__":
    _sys.exit(main())
