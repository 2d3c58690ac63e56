"""Workloads of the surfimpute benchmark.

A workload turns a seed into a batch of masked profiles (input
generation, done the way ``surfimpute.experiments`` does it), runs one
profile through the library (the timed pipeline) and scores the
outcome against the truth.  Every workload is a closed loop: one
caller, one profile at a time, which is how the CLI and the studies
use the library.  The library only ever sees the generated profile.

- ``turned``: the stationary study.  The spectral-mixture fit's grid
  objective (Cholesky plus the explicit inverse) does most of the work;
  the GSM code is idle.
- ``chirp``: the non-stationary study.  The GSM objective's elementwise
  covariance, gradient sums and latent layer do most of the work; the
  SM grid path is idle.
- ``fill``: "fit once, fill many".  Each profile is filled with the
  simulator's own kernel, so no fit runs: read CSV, impute (dense
  covariance, one large factorization with many right-hand sides, the
  joint draw), write CSVs, baselines.  A change that helps the fits but
  costs the posterior shows here.

The study sizes are scaled down from the paper's (turned n=2000, chirp
n=1250 with 100 latent representatives) so that a batch large enough
to make the quality numbers steady fits in one run.  The fit settings
(Q, restarts, iteration caps, masks, initialisation) are the studies'.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from surfimpute import baselines, gp, gsm, io, synthesis
from surfimpute.errors import InsufficientFeaturesError
from surfimpute.kernels import NoiseParams, PeriodicParams, SEParams
from surfimpute.optimize import OptConfig
from surfimpute.profile import Profile, rsm

# nominal coverage of the central band the library reports
NOMINAL = 0.95


@dataclass(frozen=True)
class Case:
    """One generated input: the profile seed drives the simulation, the
    fit restarts and (plus one) the posterior draw, as in the studies."""

    seed: int
    truth: Profile
    masked: Profile
    path: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    result: gp.ImputationResult
    fills: dict
    model: object = None


def profile_seeds(seed: int):
    """Profile seeds of a batch: a block of 1000 per workload seed."""
    return range(1000 * seed, 1000 * seed + 1000)


def baseline_fills(masked: Profile) -> dict:
    """The five baselines at the studies' settings."""
    return {
        "mean": baselines.impute_constant(masked, "mean"),
        "median": baselines.impute_constant(masked, "median"),
        "nn": baselines.impute_nn_mean(masked),
        "medfilt": baselines.impute_median_filter(masked),
        "idw": baselines.impute_idw(masked, radius=30.0 * masked.dx),
    }


def mask_turned(truth: Profile, dale_count: int, band) -> Profile | None:
    """The turned study's mask: the narrowest dales after pruning at
    half the largest dale volume.  None when the profile has too few
    dales or the masked share falls outside ``band``: keeping the share
    in a fixed band keeps the problem size, and so the cost of a
    profile, comparable from one seed to the next."""
    raw = synthesis.watershed_dales(truth)
    threshold = 0.5 * max(d.volume for d in raw)
    try:
        masked = synthesis.mask_smallest_width_dales(truth, dale_count, threshold)
    except InsufficientFeaturesError:
        return None
    return masked if band[0] <= np.mean(~masked.valid) <= band[1] else None


@dataclass(frozen=True)
class Turned:
    name: ClassVar[str] = "turned"
    n: int = 300
    dale_count: int = 1
    # the study masks about 11 % of its n=2000 profiles
    band: tuple = (0.10, 0.20)
    q: int = 5
    max_iterations: int = 100
    n_restarts: int = 2
    batch: int = 24

    def generate(self, seed: int, workdir: str) -> list:
        cases = []
        for s in profile_seeds(seed):
            truth = synthesis.simulate_turned(synthesis.TurnedSimConfig(n=self.n), s)
            masked = mask_turned(truth, self.dale_count, self.band)
            if masked is None:
                continue
            cases.append(Case(s, truth, masked))
            if len(cases) == self.batch:
                return cases
        raise RuntimeError("too few maskable turned profiles in a seed block")

    def process(self, case: Case, workdir: str) -> Outcome:
        model, _, _ = gp.fit_sm(
            case.masked, q=self.q, config=OptConfig(max_iterations=self.max_iterations),
            seed=case.seed, n_restarts=self.n_restarts,
        )
        return Outcome(gp.impute(case.masked, model, case.seed + 1), {})


@dataclass(frozen=True)
class Chirp:
    name: ClassVar[str] = "chirp"
    n: int = 300
    dx: float = 1e-4
    n_latent: int = 25
    max_iterations: int = 300
    mask_quantile: float = 0.50
    batch: int = 12

    def generate(self, seed: int, workdir: str) -> list:
        config = synthesis.ChirpConfig(dx=self.dx, n=self.n)
        cases = []
        for s in profile_seeds(seed)[: self.batch]:
            truth = synthesis.simulate_chirp(config, s)
            slope = np.gradient(truth.z, truth.dx)
            threshold = float(np.quantile(np.abs(slope[: self.n // 3]), self.mask_quantile))
            masked = synthesis.mask_gradient(truth, threshold)
            ends = synthesis.chirp_wavelength_at(config, truth.x[[0, -1]])
            f_true = 1.0 / synthesis.chirp_wavelength_at(config, truth.x[~masked.valid])
            cases.append(Case(s, truth, masked, extra={"wavelengths": ends, "f_true": f_true}))
        return cases

    def process(self, case: Case, workdir: str) -> Outcome:
        masked = case.masked
        # the study's start: noise high, approached from above
        noise0 = 1e-3 * float(np.var(masked.valid_z()))
        left, right = case.extra["wavelengths"]
        model0 = gsm.make_gsm_model(masked, n_latent=self.n_latent, wavelength_left=left,
                                    wavelength_right=right, noise0=noise0)
        model, _ = gsm.fit_gsm(masked, model0, OptConfig(max_iterations=self.max_iterations))
        return Outcome(gp.impute(masked, model, case.seed + 1), {}, model)


@dataclass(frozen=True)
class Fill:
    name: ClassVar[str] = "fill"
    n: int = 1000
    dale_count: int = 8
    band: tuple = (0.34, 0.40)
    batch: int = 4

    def model(self) -> gp.GPModel:
        """The simulator's own periodic + coloured-noise kernel."""
        c = synthesis.TurnedSimConfig(n=self.n)
        return gp.GPModel(PeriodicParams(c.sigma2, c.theta, c.period),
                          NoiseParams("colored", c.noise_sigma2, c.noise_theta))

    def generate(self, seed: int, workdir: str) -> list:
        cases = []
        for s in profile_seeds(seed):
            truth = synthesis.simulate_turned(synthesis.TurnedSimConfig(n=self.n), s)
            masked = mask_turned(truth, self.dale_count, self.band)
            if masked is None:
                continue
            path = os.path.join(workdir, f"fill_{s}.csv")
            io.write_profile_csv(masked, path)
            cases.append(Case(s, truth, masked, path))
            if len(cases) == self.batch:
                return cases
        raise RuntimeError("too few maskable fill profiles in a seed block")

    def process(self, case: Case, workdir: str) -> Outcome:
        profile = io.read_profile_csv(case.path)
        result = gp.impute(profile, self.model(), case.seed + 1)
        stem = os.path.join(workdir, f"filled_{case.seed}")
        io.write_profile_csv(result.profile, stem + ".csv")
        io.write_posterior_csv(result.xm, result.post_mean, result.lo95, result.hi95,
                               stem + "_posterior.csv")
        return Outcome(result, baseline_fills(profile))


WORKLOADS = {w.name: w for w in (Turned(), Chirp(), Fill())}


def warm_up(case: Case) -> None:
    """One cheap imputation through the shared posterior code, so that
    lazy imports and first-call costs land in set-up, not in a profile."""
    var = float(np.var(case.masked.valid_z()))
    model = gp.GPModel(SEParams(var, 10.0 * case.masked.dx), NoiseParams("white", 0.01 * var))
    gp.impute(case.masked, model, 0)


# ---------------------------------------------------------------------------
# correctness and scoring


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_filled(label: str, masked: Profile, filled: Profile) -> list:
    problems = []
    if not _same_bits(filled.z[masked.valid], masked.z[masked.valid]):
        problems.append(f"{label}: valid heights changed")
    if np.isnan(filled.z).any():
        problems.append(f"{label}: NaN in the filled heights")
    if not filled.valid.all():
        problems.append(f"{label}: some flags are still false")
    return problems


def check(case: Case, outcome: Outcome) -> list:
    """Problems with one filled profile; empty when it is correct."""
    r = outcome.result
    problems = _check_filled("impute", case.masked, r.profile)
    # NaN fails both comparisons, so it is caught here too
    if not (np.all(r.lo95 <= r.post_mean) and np.all(r.post_mean <= r.hi95)):
        problems.append("impute: band does not bracket the posterior mean")
    for name, filled in outcome.fills.items():
        problems += _check_filled(f"baseline {name}", case.masked, filled)
    return problems


def _rmse(values: np.ndarray, truth: np.ndarray) -> float:
    err = values - truth
    return float(np.sqrt(np.mean(err * err)))


def score(case: Case, outcome: Outcome) -> dict:
    """Quality numbers of one profile; ``rmse_<name>`` are the baselines'."""
    miss = ~case.masked.valid
    zt = case.truth.z[miss]
    r = outcome.result
    inside = (zt >= r.lo95) & (zt <= r.hi95)
    # interval (Winkler) score of the central band: its width plus 2/alpha
    # times the distance by which the truth falls outside it
    outside = np.clip(r.lo95 - zt, 0.0, None) + np.clip(zt - r.hi95, 0.0, None)
    out = {
        "seed": case.seed,
        "n_missing": int(np.count_nonzero(miss)),
        "n_covered": int(np.count_nonzero(inside)),
        "coverage": float(np.mean(inside)),
        "interval_score": float(np.mean(r.hi95 - r.lo95 + outside * 2.0 / (1.0 - NOMINAL))),
        "gp_rmse_mean": _rmse(r.post_mean, zt),
        "gp_rmse_sample": _rmse(r.profile.z[miss], zt),
        "rsm_imputed": rsm(r.profile),
        "rsm_truth": rsm(case.truth),
    }
    fills = outcome.fills or baseline_fills(case.masked)
    for name, filled in fills.items():
        out[f"rmse_{name}"] = _rmse(filled.z[miss], zt)
    if "f_true" in case.extra:
        f_fit = gsm.latent_eval(outcome.model.f, r.xm)
        f_true = case.extra["f_true"]
        out["freq_within_25pct"] = float(np.mean(np.abs(f_fit - f_true) / f_true <= 0.25))
    return out


def quality(scores: list) -> dict:
    """Batch quality: medians over profiles, pooled band coverage."""
    def med(key):
        return float(np.median([s[key] for s in scores]))

    best_baseline = min(med(k) for k in scores[0] if k.startswith("rmse_"))
    coverage = sum(s["n_covered"] for s in scores) / sum(s["n_missing"] for s in scores)
    out = {
        "rmse_mean_um": med("gp_rmse_mean"),
        "rmse_sample_um": med("gp_rmse_sample"),
        "rmse_vs_best_baseline": med("gp_rmse_mean") / best_baseline,
        "interval_score_um": med("interval_score"),
        "coverage_95": coverage,
        "coverage_gap": abs(coverage - NOMINAL),
        "rsm_rel_err": float(np.median(
            [abs(s["rsm_imputed"] - s["rsm_truth"]) / s["rsm_truth"] for s in scores])),
    }
    if "freq_within_25pct" in scores[0]:
        out["freq_miss_frac"] = 1.0 - float(np.mean([s["freq_within_25pct"] for s in scores]))
    return out
