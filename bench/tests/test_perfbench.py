"""Tests of the benchmark itself: span arithmetic, the printed metric
names, the correctness check, and agreement with the studies."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from surfimpute import experiments, gp  # noqa: E402
from tracing import SETUP, Span, layer_metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# the three workloads at sizes that run in a few seconds
QUICK = {
    "turned": workloads.Turned(n=300, dale_count=1, max_iterations=5, batch=2),
    "chirp": workloads.Chirp(n=250, n_latent=8, max_iterations=10, batch=2),
    "fill": workloads.Fill(n=400, dale_count=3, band=(0.05, 0.95), batch=2),
}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("synthesis.mask", 0.0, 2.0, None, SETUP),
        Span("synthesis.mask", 0.5, 1.5, 0, SETUP),  # nested: counted once
        Span("gp.fit", 10.0, 20.0, None, 0),
        Span("optimize.maximize", 11.0, 19.0, 2, 0, {"best": 5.0, "termination": "converged"}),
        Span("optimize.eval", 12.0, 14.0, 3, 0),
        Span("linalg.chol", 12.5, 13.0, 4, 0, {"n": 1000, "jitter": 0.0}),
        Span("linalg.solve", 13.0, 13.5, 4, 0, {"n": 1000, "k": 10}),
        Span("optimize.eval", 15.0, 18.0, 3, 0),
        Span("linalg.chol", 15.0, 16.0, 7, 0, {"n": 1000, "jitter": 1e-10}),
        Span("gsm.fit", 30.0, 34.0, None, 1),
        Span("optimize.maximize", 30.0, 34.0, 9, 1, {"best": -1.0, "termination": "nonfinite"}),
        Span("optimize.eval", 31.0, 33.0, 10, 1),
        Span("linalg.solve", 31.0, 32.0, 11, 1, {"n": 100, "k": 1}),
    ]
    m = layer_metrics(spans)
    per = 0.5  # two traced profiles
    assert m["synthesis.mask_s"] == pytest.approx(2.0)
    assert m["gp.fit_s"] == pytest.approx(10.0 * per)
    assert m["gsm.fit_s"] == pytest.approx(4.0 * per)
    # maximize spans minus their evaluations: (8 - 5) + (4 - 2)
    assert m["optimize.self_s"] == pytest.approx((3.0 + 2.0) * per)
    # evaluations minus their linear algebra: (2 - 1) + (3 - 1) under gp, 2 - 1 under gsm
    assert m["gp.objective_self_s"] == pytest.approx(3.0 * per)
    assert m["gsm.objective_self_s"] == pytest.approx(1.0 * per)
    assert m["gp.chol_calls"] == pytest.approx(2 * per)
    assert m["gp.chol_s"] == pytest.approx(1.5 * per)
    assert m["gp.chol_gflop"] == pytest.approx(2 * 1000**3 / 3 * 1e-9 * per)
    assert m["gp.solve_gflop"] == pytest.approx(2 * 1000**2 * 10 * 1e-9 * per)
    assert m["gsm.solve_s"] == pytest.approx(1.0 * per)
    assert m["gsm.solve_gflop"] == pytest.approx(2 * 100**2 * 1e-9 * per)
    assert m["gp.jitter_retries"] == pytest.approx(1 * per)
    assert m["optimize.nonfinite_stops"] == pytest.approx(1 * per)
    assert m["optimize.evals"] == pytest.approx(3 * per)
    assert m["optimize.eval_s"] == pytest.approx(2.0)
    assert m["optimize.best_restart_eval_ratio"] == pytest.approx(1.0)
    assert m["optimize.final_objective"] == pytest.approx((5.0 - 1.0) / 2)


def _run(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, QUICK[name])
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(QUICK))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_exactly_the_declared_metrics(name, trace, monkeypatch, capsys):
    code, result = _run(name, trace, monkeypatch, capsys)
    kind = "per_layer" if trace else "end_to_end"
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED[kind]
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace and name == "fill":
        assert result["metrics"]["optimize.evals"]["value"] == 0


@pytest.mark.parametrize("name", sorted(QUICK))
def test_a_corrupted_fill_fails_the_run(name, monkeypatch, capsys):
    real = gp.impute

    def corrupting(profile, model, seed):
        result = real(profile, model, seed)
        z = result.profile.z.copy()
        z[np.flatnonzero(profile.valid)[0]] += 1e-9
        return dataclasses.replace(result, profile=dataclasses.replace(result.profile, z=z))

    monkeypatch.setattr(gp, "impute", corrupting)
    code, result = _run(name, 0, monkeypatch, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_check_flags_a_band_that_misses_the_mean(tmp_path):
    case = QUICK["fill"].generate(5, str(tmp_path))[0]
    outcome = QUICK["fill"].process(case, str(tmp_path))
    assert workloads.check(case, outcome) == []
    outcome.result = dataclasses.replace(outcome.result, lo95=outcome.result.post_mean + 1.0)
    assert workloads.check(case, outcome) == ["impute: band does not bracket the posterior mean"]


def _same_at_print_precision(ours: dict, study: dict, pairs):
    for mine, theirs in pairs:
        assert f"{ours[mine]:.6g}" == f"{study[theirs]:.6g}", (mine, theirs)


BASELINE_KEYS = [(f"rmse_{b}", f"rmse_{b}") for b in ("mean", "median", "nn", "medfilt", "idw")]


def test_turned_scores_match_the_study(tmp_path):
    w = workloads.WORKLOADS["turned"]
    case = w.generate(1, str(tmp_path))[0]
    ours = workloads.score(case, w.process(case, str(tmp_path)))
    study = experiments.run_turned_experiment(
        case.seed, n=w.n, dale_count=w.dale_count, q=w.q,
        max_iterations=w.max_iterations, n_restarts=w.n_restarts)
    _same_at_print_precision(ours, study, [
        ("coverage", "coverage"), ("gp_rmse_mean", "rmse_sm_mean"),
        ("gp_rmse_sample", "rmse_sm_sample"), ("rsm_imputed", "rsm_imputed"),
        ("rsm_truth", "rsm_truth")] + BASELINE_KEYS)


def test_chirp_scores_match_the_study(tmp_path):
    w = workloads.WORKLOADS["chirp"]
    case = w.generate(1, str(tmp_path))[0]
    ours = workloads.score(case, w.process(case, str(tmp_path)))
    study = experiments.run_chirp_experiment(
        case.seed, dx=w.dx, n=w.n, mask_quantile=w.mask_quantile,
        n_latent=w.n_latent, max_iterations=w.max_iterations)
    _same_at_print_precision(ours, study, [
        ("coverage", "coverage"), ("gp_rmse_mean", "rmse_gsm_mean"),
        ("gp_rmse_sample", "rmse_gsm_sample"),
        ("freq_within_25pct", "freq_within_25pct")] + BASELINE_KEYS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
