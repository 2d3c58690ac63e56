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

GP_MODELS = ("sm", "gsm", "se")
BASELINE_MODELS = ("mean", "median", "nn", "medfilt", "idw")


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


def _seed(text: str) -> int:
    """The type of every --seed: numpy's generators refuse a negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _flag_values(parser: argparse.ArgumentParser):
    """Report a flag value the library rejects as a usage error (exit
    2): the library raises plain ValueError for bad arguments."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


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
    if args.method == "gradient" and args.threshold is None:
        parser.error("--threshold is required for --method gradient")
    profile = read_profile_csv(args.infile)
    with _flag_values(parser):
        if args.method == "dales":
            masked = mask_smallest_width_dales(profile, args.count,
                                               args.volume_threshold)
        else:
            masked = mask_gradient(profile, args.threshold)
    write_profile_csv(masked, args.out)
    print(f"masked = {masked.n_missing}")
    return 0


def _default_posterior_path(out: str) -> str:
    base, ext = os.path.splitext(out)
    return f"{base}.posterior{ext or '.csv'}"


def cmd_impute(args, parser: argparse.ArgumentParser) -> int:
    if args.init_rsm is not None and args.model != "sm":
        parser.error("--init-rsm is only read by model 'sm'")
    if args.init_rq is not None and args.model not in ("sm", "gsm"):
        parser.error("--init-rq is only read by models 'sm' and 'gsm'")
    profile = read_profile_csv(args.infile)
    if args.model in BASELINE_MODELS:
        with _flag_values(parser):
            if args.model in ("mean", "median"):
                filled = impute_constant(profile, args.model)
            elif args.model == "nn":
                filled = impute_nn_mean(profile)
            elif args.model == "medfilt":
                filled = impute_median_filter(profile, window=args.window)
            else:
                filled = impute_idw(profile, power=args.power,
                                    radius=args.radius)
        write_profile_csv(filled, args.out)
        print(f"imputed {profile.n_missing} points to {args.out}")
        return 0

    if args.seed is None:
        parser.error(f"--seed is required for model {args.model!r}")
    with _flag_values(parser):
        opt = OptConfig(max_iterations=args.max_iterations)
        if args.model == "sm":
            model, _, traces = fit_sm(
                profile, q=args.q, config=opt, seed=args.seed,
                init_rsm=args.init_rsm, init_rq=args.init_rq,
                n_restarts=args.restarts,
            )
        elif args.model == "se":
            model, _, traces = fit_se(profile, config=opt)
        else:
            model0 = make_gsm_model(
                profile,
                n_latent=args.n_latent,
                rq0=args.init_rq,
                wavelength_left=args.wavelength_left,
                wavelength_right=args.wavelength_right,
            )
            model, trace = fit_gsm(profile, model0, opt)
            traces = [trace]
    stopped = [t for t in traces if t.termination == "nonfinite"]
    if stopped:
        trace_path = f"{args.out}.trace.csv"
        stopped[0].write_csv(trace_path)
        print(f"warning: a run of the {args.model} fit stopped at iteration "
              f"{stopped[0].n_iterations}, where its objective is not finite; the fit "
              f"keeps its best finite iterate (objective trace: {trace_path})",
              file=sys.stderr)

    result = impute(profile, model, args.seed + 1)
    write_profile_csv(result.profile, args.out)
    posterior_path = args.posterior or _default_posterior_path(args.out)
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
    p.add_argument("--method", choices=("dales", "gradient"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=5,
                   help="dales: how many smallest-width dales to mask")
    p.add_argument("--volume-threshold", type=float, default=0.0,
                   help="dales: merge dales below this volume (um*mm)")
    p.add_argument("--threshold", type=float, default=None,
                   help="gradient: absolute slope limit (um/mm)")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("impute", help="fill the missing points")
    p.add_argument("--model", required=True,
                   choices=GP_MODELS + BASELINE_MODELS)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, help="required for GP models")
    p.add_argument("--posterior",
                   help="posterior CSV path (GP models; default <out>.posterior.csv)")
    p.add_argument("--init-rsm", type=float, default=None,
                   help="sm: feature-spacing prior (mm), default Rsm of the data")
    p.add_argument("--init-rq", type=float, default=None,
                   help="sm, gsm: amplitude prior (um), default Rq of the data")
    p.add_argument("--q", type=int, default=5, help="sm: mixture components")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--restarts", type=int, default=3, help="sm: fit restarts")
    p.add_argument("--n-latent", type=int, default=100,
                   help="gsm: latent representatives")
    p.add_argument("--wavelength-left", type=float, default=None,
                   help="gsm: expected wavelength at the left edge (mm)")
    p.add_argument("--wavelength-right", type=float, default=None,
                   help="gsm: expected wavelength at the right edge (mm)")
    p.add_argument("--window", type=int, default=5,
                   help="medfilt: odd window size")
    p.add_argument("--power", type=float, default=2.0, help="idw exponent")
    p.add_argument("--radius", type=float, default=None,
                   help="idw support radius (mm), default 10*dx")
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
