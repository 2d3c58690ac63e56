"""End-to-end synthetic studies: turned profile (stationary spectral
mixture) and chirp profile (non-stationary generalized spectral
mixture), each against the classical baselines.

Each run_* function handles one seed and returns a flat metrics dict;
acceptance takes medians across seeds.  Pass ``outdir`` to also write
the CSVs, report, and an SVG for inspection.
"""

from __future__ import annotations

import os

import numpy as np

from .baselines import (
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
)
from .evaluate import evaluate
from .gp import fit_sm, impute
from .gsm import fit_gsm, latent_eval, make_gsm_model
from .io import write_posterior_csv, write_profile_csv
from .optimize import OptConfig
from .plotting import write_svg
from .profile import Profile, rsm
from .synthesis import (
    ChirpConfig,
    TurnedSimConfig,
    chirp_wavelength_at,
    mask_gradient,
    mask_smallest_width_dales,
    simulate_chirp,
    simulate_turned,
    watershed_dales,
)


def _scored(tag: str, model_name: str, truth: Profile, masked: Profile,
            result, metrics: dict, outdir: str | None) -> dict:
    """``metrics`` plus every score from ``evaluate``: the band's
    coverage, the RMSE of the sampled fill, of the posterior mean and of
    each baseline.  With ``outdir``, also write the profiles, the
    posterior, an SVG and a report of the metrics and the sampled fill's
    ``EvalReport``."""
    report = evaluate(truth, masked, result.profile, result.lo95, result.hi95)
    fills = {
        f"{model_name}_mean": masked.with_filled(result.post_mean),
        "mean": impute_constant(masked, "mean"),
        "median": impute_constant(masked, "median"),
        "nn": impute_nn_mean(masked),
        "medfilt": impute_median_filter(masked),
        "idw": impute_idw(masked, radius=30.0 * masked.dx),
    }
    metrics = {**metrics, "coverage": report.coverage,
               f"rmse_{model_name}_sample": report.rmse}
    for name, filled in fills.items():
        metrics[f"rmse_{name}"] = evaluate(truth, masked, filled).rmse

    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, tag)
        write_profile_csv(truth, f"{path}_truth.csv")
        write_profile_csv(masked, f"{path}_masked.csv")
        write_profile_csv(result.profile, f"{path}_imputed.csv")
        write_posterior_csv(result.xm, result.post_mean, result.lo95,
                            result.hi95, f"{path}_posterior.csv")
        write_svg(f"{path}.svg", masked, result.profile, truth, result.lo95,
                  result.hi95, title=tag)
        lines = [f"{k} = {v}" for k, v in sorted(metrics.items())]
        lines += ["", "sampled-fill report:"] + report.lines()
        with open(f"{path}_report.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return metrics


def run_turned_experiment(seed: int, n: int = 2000, dale_count: int = 5,
                          q: int = 5, max_iterations: int = 100,
                          n_restarts: int = 2,
                          outdir: str | None = None) -> dict:
    """Simulate a turned profile, mask the smallest-width dales, fit a
    spectral mixture, impute by posterior sampling, score against the
    baselines.  One seed; returns a metrics dict."""
    config = TurnedSimConfig(n=n)
    truth = simulate_turned(config, seed)
    # prune at half the largest dale volume: texture dales of a periodic
    # profile share one volume scale, noise dales sit orders below it
    raw_dales = watershed_dales(truth)
    volume_threshold = 0.5 * max(d.volume for d in raw_dales)
    masked = mask_smallest_width_dales(truth, dale_count, volume_threshold)

    opt = OptConfig(max_iterations=max_iterations)
    model, _, _ = fit_sm(masked, q=q, config=opt, seed=seed,
                         n_restarts=n_restarts)
    result = impute(masked, model, seed + 1)

    metrics = {
        "seed": seed,
        "n": n,
        "masked_fraction": float(np.mean(~masked.valid)),
        "rsm_imputed": rsm(result.profile),
        "rsm_truth": rsm(truth),
    }
    return _scored(f"turned_seed{seed}", "sm", truth, masked, result, metrics,
                   outdir)


def run_chirp_experiment(seed: int, dx: float = 1e-4, n: int = 1250,
                         mask_quantile: float = 0.50,
                         n_latent: int = 100, max_iterations: int = 300,
                         outdir: str | None = None) -> dict:
    """Simulate a chirp, mask the high-gradient points (quantile of the
    fine-wavelength third picks the threshold), fit a one-component
    non-stationary model with a ramp-initialized frequency latent,
    score against the baselines.  One seed; returns a metrics dict."""
    config = ChirpConfig(dx=dx, n=n)
    truth = simulate_chirp(config, seed)

    third = n // 3
    slope = np.gradient(truth.z, truth.dx)
    threshold = float(np.quantile(np.abs(slope[:third]), mask_quantile))
    masked = mask_gradient(truth, threshold)
    miss = ~masked.valid

    wavelengths_mm = [
        chirp_wavelength_at(config, np.array([truth.x[0]]))[0],
        chirp_wavelength_at(config, np.array([truth.x[-1]]))[0],
    ]
    # second differences cannot see noise that is smooth at sample scale
    # (the simulated noise correlates over hundreds of steps), so start
    # the noise variance high and let the fit shrink it; approaching the
    # true level from above keeps the data term well conditioned
    noise0 = 1e-3 * float(np.var(masked.valid_z()))
    model0 = make_gsm_model(
        masked,
        n_latent=n_latent,
        wavelength_left=wavelengths_mm[0],
        wavelength_right=wavelengths_mm[1],
        noise0=noise0,
    )
    opt = OptConfig(max_iterations=max_iterations)
    model, trace = fit_gsm(masked, model0, opt)
    result = impute(masked, model, seed + 1)

    f_fit = latent_eval(model.f, result.xm)
    f_true = 1.0 / chirp_wavelength_at(config, result.xm)
    freq_ok = float(np.mean(np.abs(f_fit - f_true) / f_true <= 0.25))
    metrics = {
        "seed": seed,
        "n": n,
        "masked_fraction": float(np.mean(miss)),
        "masked_third_fraction": float(np.mean(miss[:third])),
        "threshold": threshold,
        "freq_within_25pct": freq_ok,
        "fit_iterations": trace.n_iterations,
    }
    return _scored(f"chirp_seed{seed}", "gsm", truth, masked, result, metrics,
                   outdir)
