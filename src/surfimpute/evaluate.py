"""Scoring an imputation against the ground truth.

Pointwise metrics (RMSE, MAE, interval coverage) are computed only over
the masked positions; texture metrics (Rq, Rsm) compare the completed
profile with the truth as a whole, since that is how a filled profile
would actually be used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    MustImputeFirstError,
    NoProfileElementsError,
    NothingToImputeError,
)
from .profile import Profile, rq, rsm


@dataclass(frozen=True)
class EvalReport:
    n_total: int
    n_missing: int
    n_valid: int
    rmse: float
    mae: float
    delta_rq: float
    delta_rsm: float  # nan when Rsm is undefined for either profile
    coverage: float  # nan when no interval was supplied

    def lines(self):
        out = [
            f"n_total = {self.n_total}",
            f"n_missing = {self.n_missing}",
            f"n_valid = {self.n_valid}",
            f"rmse = {self.rmse:.6g}",
            f"mae = {self.mae:.6g}",
            f"delta_rq = {self.delta_rq:.6g}",
            f"delta_rsm = {self.delta_rsm:.6g}",
            f"coverage = {self.coverage:.6g}",
        ]
        return out

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _require_same_positions(name: str, a: Profile, b: Profile) -> None:
    if a.n != b.n or not np.array_equal(a.x, b.x):
        raise GridMismatchError(f"{name} is not on the truth grid")


def evaluate(truth: Profile, masked: Profile, imputed: Profile,
             lo95=None, hi95=None) -> EvalReport:
    """Score ``imputed`` against ``truth`` at the positions ``masked``
    flags invalid.

    ``lo95``/``hi95`` are optional posterior interval edges at exactly
    the masked positions (in grid order); when given, coverage is the
    fraction of true heights inside the closed interval.
    """
    if not np.all(truth.valid):
        raise MustImputeFirstError("truth profile must be complete")
    if not np.all(imputed.valid):
        raise MustImputeFirstError("imputed profile must be complete")
    _require_same_positions("masked profile", truth, masked)
    _require_same_positions("imputed profile", truth, imputed)
    miss = ~masked.valid
    n_missing = int(np.count_nonzero(miss))
    if n_missing == 0:
        raise NothingToImputeError("mask has no missing points to score")

    err = imputed.z[miss] - truth.z[miss]
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))

    delta_rq = rq(imputed) - rq(truth)
    try:
        delta_rsm = rsm(imputed) - rsm(truth)
    except NoProfileElementsError:
        delta_rsm = float("nan")

    coverage = float("nan")
    if lo95 is not None or hi95 is not None:
        if lo95 is None or hi95 is None:
            raise ValueError("supply both interval edges or neither")
        lo = np.asarray(lo95, dtype=float)
        hi = np.asarray(hi95, dtype=float)
        if lo.shape != (n_missing,) or hi.shape != (n_missing,):
            raise ValueError(
                f"interval edges must have one value per masked point "
                f"({n_missing})"
            )
        zt = truth.z[miss]
        coverage = float(np.mean((zt >= lo) & (zt <= hi)))

    return EvalReport(
        n_total=truth.n,
        n_missing=n_missing,
        n_valid=truth.n - n_missing,
        rmse=rmse,
        mae=mae,
        delta_rq=float(delta_rq),
        delta_rsm=float(delta_rsm),
        coverage=coverage,
    )
