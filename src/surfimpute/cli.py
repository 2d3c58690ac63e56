"""Command-line interface: simulate, mask, impute, eval, plot,
experiment.

Exit codes: 0 success, 1 domain error (bad data, a fit that cannot
start, missing file), 2 usage error.  A fit that stops at a non-finite
objective is a warning.  Every stochastic command requires --seed;
given identical flags and seed the output files are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields

import numpy as np

from .baselines import (
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
)
from .errors import ConfigError, GridMismatchError, SurfImputeError
from .evaluate import evaluate
from .experiments import run_chirp_experiment, run_turned_experiment
from .gp import fit_se, fit_sm, impute
from .gsm import fit_gsm, make_gsm_model
from .io import (
    parse_config,
    read_posterior_csv,
    read_profile_csv,
    write_posterior_csv,
    write_profile_csv,
)
from .optimize import OptConfig
from .plotting import write_svg
from .synthesis import (
    ChirpConfig,
    TurnedSimConfig,
    mask_gradient,
    mask_smallest_width_dales,
    simulate_chirp,
    simulate_turned,
)


def _seed(text: str) -> int:
    """The type of every --seed: numpy's generators refuse a negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


GP_MODELS = ("sm", "gsm", "se")
BASELINES = {"nn": impute_nn_mean, "medfilt": impute_median_filter, "idw": impute_idw}
_GP_RUN = ("--seed", "--posterior", "--max-iterations")
# The flags each variant reads.  None has a CLI default: one outside the
# chosen variant's row is a usage error, one left out takes the library's.
READS = {
    "sm": _GP_RUN + ("--q", "--restarts", "--init-rsm", "--init-rq"),
    "gsm": _GP_RUN + ("--n-latent", "--init-rq", "--wavelength-left", "--wavelength-right"),
    "se": _GP_RUN, "mean": (), "median": (), "nn": (),
    "medfilt": ("--window",), "idw": ("--power", "--radius"),
    "dales": ("--count", "--volume-threshold"), "gradient": ("--threshold",),
}
REQUIRED = ("--seed", "--threshold")  # wherever a row holds them
FLAGS = {
    "--seed": dict(type=_seed, help="required: seeds sm's restarts and the imputation draw"),
    "--posterior": dict(help="posterior CSV path, default <out>.posterior.csv"),
    "--max-iterations": dict(type=int, help="iteration cap of each fit run"),
    "--q": dict(type=int, help="mixture components"),
    "--restarts": dict(type=int, dest="n_restarts", metavar="RESTARTS", help="fit restarts"),
    "--init-rsm": dict(type=float, help="feature-spacing prior (mm), default Rsm of the "
                       "data, or a tenth of its span with fewer than two crossings"),
    "--init-rq": dict(type=float, help="amplitude prior (um), default Rq of the data; "
                      "a flat profile (Rq 0) is refused"),
    "--n-latent": dict(type=int, help="latent representatives"),
    "--wavelength-left": dict(type=float, help="expected wavelength at the left edge (mm)"),
    "--wavelength-right": dict(type=float, help="expected wavelength at the right edge (mm)"),
    "--window": dict(type=int, help="odd window size"),
    "--power": dict(type=float, help="distance exponent"),
    "--radius": dict(type=float, help="support radius (mm), default 10*dx"),
    "--count": dict(type=int, help="how many smallest-width dales to mask, default 5"),
    "--volume-threshold": dict(type=float, help="merge dales below this volume (um*mm)"),
    "--threshold": dict(type=float, help="required: absolute slope limit (um/mm)"),
}


def _config_schema(cls):
    # synthesis postpones its annotations, so a field's type is its name
    return {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}


def _load_sim_config(cls, path):
    if path is None:
        return cls()
    values = parse_config(path, _config_schema(cls))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _flag_values(parser: argparse.ArgumentParser):
    """Report a flag value the library rejects as a usage error (exit
    2): the library raises plain ValueError for bad arguments."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _add_variants(p: argparse.ArgumentParser, selector: str, variants) -> None:
    """Add ``selector``, which picks one of ``variants``, and the flags that
    those variants read, each with no default and a help naming its readers."""
    p.add_argument(selector, choices=variants, required=True)
    flag_of = {}
    for flag in dict.fromkeys(f for v in variants for f in READS[v]):
        readers = ", ".join(v for v in variants if flag in READS[v])
        kwargs = {**FLAGS[flag], "help": f"{readers}: {FLAGS[flag]['help']}"}
        flag_of[p.add_argument(flag, default=argparse.SUPPRESS, **kwargs).dest] = flag
    p.set_defaults(flag_of=flag_of)


def _given_flags(args, parser: argparse.ArgumentParser, selector: str, variant: str) -> dict:
    """The variant-specific flags typed, by the library parameter each sets."""
    typed = {flag: dest for dest, flag in args.flag_of.items() if hasattr(args, dest)}
    for flag in dict.fromkeys([*typed, *READS[variant]]):
        if flag not in READS[variant]:
            parser.error(f"{flag} is not read by {selector} {variant}")
        if flag in REQUIRED and flag not in typed:
            parser.error(f"{flag} is required for {selector} {variant}")
    return {dest: getattr(args, dest) for dest in typed.values()}


def cmd_simulate(args) -> int:
    if args.kind == "turned":
        config = _load_sim_config(TurnedSimConfig, args.config)
        profile = simulate_turned(config, args.seed)
    else:
        config = _load_sim_config(ChirpConfig, args.config)
        profile = simulate_chirp(config, args.seed)
    write_profile_csv(profile, args.out)
    print(f"wrote {profile.n} points to {args.out}")
    return 0


def cmd_mask(args, parser: argparse.ArgumentParser) -> int:
    given = _given_flags(args, parser, "--method", args.method)
    profile = read_profile_csv(args.infile)
    with _flag_values(parser):
        if args.method == "dales":
            masked = mask_smallest_width_dales(profile, given.pop("count", 5), **given)
        else:
            masked = mask_gradient(profile, **given)
    write_profile_csv(masked, args.out)
    print(f"masked = {masked.n_missing}")
    return 0


def cmd_impute(args, parser: argparse.ArgumentParser) -> int:
    given = _given_flags(args, parser, "--model", args.model)
    fit = {}
    if "max_iterations" in given:
        with _flag_values(parser):
            fit["config"] = OptConfig(max_iterations=given.pop("max_iterations"))
    profile = read_profile_csv(args.infile)
    if args.model not in GP_MODELS:
        with _flag_values(parser):
            if args.model in ("mean", "median"):
                filled = impute_constant(profile, args.model)
            else:
                filled = BASELINES[args.model](profile, **given)
        write_profile_csv(filled, args.out)
        print(f"imputed {profile.n_missing} points to {args.out}")
        return 0

    seed = given.pop("seed")
    base, ext = os.path.splitext(args.out)
    posterior_path = given.pop("posterior", None) or f"{base}.posterior{ext or '.csv'}"
    with _flag_values(parser):
        if args.model == "sm":
            model, _, traces = fit_sm(profile, seed=seed, **given, **fit)
        elif args.model == "se":
            model, _, traces = fit_se(profile, **fit)
        else:
            model, *traces = fit_gsm(profile, make_gsm_model(profile, **given), **fit)
    stopped = [t for t in traces if t.termination == "nonfinite"]
    if stopped:
        trace_path = f"{args.out}.trace.csv"
        stopped[0].write_csv(trace_path)
        print(f"warning: a run of the {args.model} fit stopped at iteration "
              f"{stopped[0].n_iterations}, where its objective is not finite; the fit "
              f"keeps its best finite iterate (objective trace: {trace_path})",
              file=sys.stderr)

    result = impute(profile, model, seed + 1)
    write_profile_csv(result.profile, args.out)
    write_posterior_csv(result.xm, result.post_mean, result.lo95,
                        result.hi95, posterior_path)
    print(f"imputed {len(result.xm)} points to {args.out}")
    print(f"posterior written to {posterior_path}")
    return 0


def _read_named(reader, path):
    """``reader(path)``, with the file named in a ConfigError, for the
    commands that read several files."""
    try:
        return reader(path)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _interval_for_mask(masked, posterior_path):
    xm, _, lo, hi = _read_named(read_posterior_csv, posterior_path)
    expected = masked.x[~masked.valid]
    if len(xm) != len(expected) or not np.array_equal(xm, expected):
        raise GridMismatchError(
            "posterior locations do not match the masked positions"
        )
    return lo, hi


def cmd_eval(args) -> int:
    truth, masked, imputed = (_read_named(read_profile_csv, path)
                              for path in (args.truth, args.masked, args.imputed))
    lo = hi = None
    if args.posterior is not None:
        lo, hi = _interval_for_mask(masked, args.posterior)
    report = evaluate(truth, masked, imputed, lo, hi)
    sys.stdout.write(report.to_text())
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write("metric,value\n")
            for line in report.lines():
                key, _, value = line.partition(" = ")
                fh.write(f"{key},{value}\n")
    return 0


def cmd_plot(args) -> int:
    masked = _read_named(read_profile_csv, args.infile)
    imputed = _read_named(read_profile_csv, args.imputed) if args.imputed else None
    truth = _read_named(read_profile_csv, args.truth) if args.truth else None
    band_lo = band_hi = None
    if args.posterior is not None:
        band_lo, band_hi = _interval_for_mask(masked, args.posterior)
    write_svg(args.out, masked, imputed, truth, band_lo, band_hi,
              title=args.title)
    print(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    if args.name == "turned":
        metrics = run_turned_experiment(args.seed, outdir=args.outdir)
    else:
        metrics = run_chirp_experiment(args.seed, outdir=args.outdir)
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfimpute",
        description="GP imputation of missing values in 1-D surface profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic profile")
    p.add_argument("--kind", choices=("turned", "chirp"), required=True)
    p.add_argument("--config", help="flat key=value parameter file")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=lambda a, _p: cmd_simulate(a))

    p = sub.add_parser("mask", help="flag points as missing")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_variants(p, "--method", ("dales", "gradient"))
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("impute", help="fill the missing points")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_variants(p, "--model", (*GP_MODELS, "mean", "median", *BASELINES))
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("eval", help="score an imputation against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--masked", required=True)
    p.add_argument("--imputed", required=True)
    p.add_argument("--posterior", default=None)
    p.add_argument("--out", default=None, help="also write metric,value CSV")
    p.set_defaults(func=lambda a, _p: cmd_eval(a))

    p = sub.add_parser("plot", help="render an SVG of profiles and bands")
    p.add_argument("--in", dest="infile", required=True,
                   help="profile CSV (its mask shades the spans)")
    p.add_argument("--imputed", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--posterior", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="")
    p.set_defaults(func=lambda a, _p: cmd_plot(a))

    p = sub.add_parser("experiment", help="run an end-to-end study")
    p.add_argument("--name", choices=("turned", "chirp"), required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=lambda a, _p: cmd_experiment(a))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # subparsers share the top-level parser for usage errors (exit 2)
    try:
        return args.func(args, parser)
    except (SurfImputeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
