"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with -s to see the verdict lines on success; they are also embedded
in the assertion message on failure.  Budgets are wall-clock seconds on
a single core; every stochastic piece is seeded.
"""

import contextlib
import io
import math
import statistics
import time

import numpy as np
import scipy.linalg

from surfimpute import (
    GsmModel,
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
    profile_from_arrays,
    read_profile_csv,
    rq,
    write_profile_csv,
)
from surfimpute.cli import main
from surfimpute.experiments import run_chirp_experiment, run_turned_experiment
from surfimpute.gp import _GridMllObjective, sample_posterior
from surfimpute.gsm import (
    LatentFunctionSpec,
    PointwiseLatents,
    _GsmObjective,
    _latent_factor,
    gsm_cov,
)
from surfimpute.kernels import (
    NoiseParams,
    PeriodicParams,
    SEParams,
    SMParams,
    build_cov,
    raw_vector,
)
from surfimpute.profile import SurfaceDataset, split_dataset

from oracles import fd_gradient, posterior


def _verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _dataset(xa, za):
    xa = np.asarray(xa, dtype=float)
    za = np.asarray(za, dtype=float)
    return SurfaceDataset(xa=xa, za=za, xm=np.zeros(0),
                          idx_a=np.arange(len(xa)), idx_m=np.zeros(0, int))


def _prof(vals, dx=1.0):
    z = np.asarray(vals, dtype=float)
    valid = np.isfinite(z)
    return profile_from_arrays(dx * np.arange(len(z)), z, valid)


def test_ac1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # stationary mixture objective, Q = 2, n = 50
    n = 50
    x = 0.05 * np.arange(n)
    z = 2.0 * np.sin(2.0 * np.pi * x / 0.5) + 0.3 * rng.standard_normal(n)
    prof = profile_from_arrays(x, z, np.ones(n, dtype=bool))
    kernel0 = SMParams([4.0, 0.4], [2.0, 4.0], [0.04, 0.16])
    noise0 = NoiseParams("white", 0.05)
    sm_obj = _GridMllObjective(split_dataset(prof), prof.dx, kernel0, noise0)
    raw0 = np.concatenate([raw_vector(kernel0), raw_vector(noise0)])
    sm_err = 0.0
    for _ in range(5):
        raw = raw0 + rng.uniform(-0.3, 0.3, len(raw0))
        _, an = sm_obj(raw)
        fd = fd_gradient(lambda r: sm_obj(r)[0], raw)
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        sm_err = max(sm_err, float(np.max(np.abs(an - fd) / scale)))

    # non-stationary objective, P = 8 latent representatives, n = 30
    p, n = 8, 30
    x = np.linspace(0.0, 1.0, n)
    z = 1.2 * np.cos(2.0 * np.pi * 3.0 * x) + 0.1 * rng.standard_normal(n)
    x_l = np.linspace(0.0, 1.0, p)
    se = SEParams(1.0, 0.3)
    fac = _latent_factor(se.theta, x_l)

    def latent(mean, sd, transform="log", scale=1.0):
        # random values at x_l, stored as their whitened coordinates
        u = mean + sd * rng.standard_normal(p)
        v = scipy.linalg.solve_triangular(fac, u - mean, lower=True)
        return LatentFunctionSpec(x_l, v, mean, se, transform, scale)

    model = GsmModel(w=latent(math.log(1.2), 0.2), lam=latent(math.log(0.25), 0.1),
                     f=latent(-0.85, 0.2, "logit", 10.0), noise_sigma2=0.05)
    gsm_obj = _GsmObjective(model, _dataset(x, z - np.mean(z)))
    x0 = gsm_obj.pack(model)
    gsm_err = 0.0
    for _ in range(5):
        raw = x0 + rng.uniform(-0.2, 0.2, len(x0))
        _, an = gsm_obj(raw)
        fd = fd_gradient(lambda r: gsm_obj(r)[0], raw)
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        gsm_err = max(gsm_err, float(np.max(np.abs(an - fd) / scale)))

    el = time.perf_counter() - t0
    _verdict("AC-1 gradient correctness",
             sm_err < 1e-5 and gsm_err < 1e-4 and el < 30.0,
             f"sm rel {sm_err:.2e}, gsm rel {gsm_err:.2e}, {el:.1f}s")


def test_ac2_posterior_exactness():
    t0 = time.perf_counter()
    n = 50
    x = 0.05 * np.arange(n)
    z = 2.0 * np.sin(2.0 * np.pi * x / 0.8) + 0.5 * np.cos(
        2.0 * np.pi * x / 0.23)
    prof = profile_from_arrays(x, z, np.ones(n, dtype=bool))
    ds = split_dataset(prof)
    prior_var = 4.0
    post = posterior(ds, SEParams(prior_var, 0.05),
                     NoiseParams("white", 1e-12), ds.xa)
    mean_err = float(np.max(np.abs(post.mean - ds.za)))
    var_max = float(np.max(np.diagonal(post.cov)))
    el = time.perf_counter() - t0
    _verdict("AC-2 posterior exactness",
             mean_err <= 1e-6 * rq(prof)
             and var_max < 1e-8 * prior_var and el < 1.0,
             f"mean err {mean_err:.2e} um, var max {var_max:.2e}, {el:.2f}s")


def test_ac3_turned_profile_recovery():
    t0 = time.perf_counter()
    runs = [run_turned_experiment(seed) for seed in (1, 2, 3, 4, 5)]
    el = time.perf_counter() - t0

    def med(key):
        return statistics.median(r[key] for r in runs)

    coverage = med("coverage")
    rmse_sm = med("rmse_sm_mean")
    rmse_nn = med("rmse_nn")
    rsm_med = med("rsm_imputed")
    _verdict("AC-3 turned-profile recovery",
             coverage >= 0.85 and rmse_sm < rmse_nn
             and abs(rsm_med - 0.1) <= 0.1 * 0.1 and el < 600.0,
             f"coverage {coverage:.3f}, rmse {rmse_sm:.3f} vs nn "
             f"{rmse_nn:.3f}, rsm {rsm_med:.4f} mm, {el:.0f}s")


def test_ac4_chirp_recovery():
    t0 = time.perf_counter()
    runs = [run_chirp_experiment(seed) for seed in (1, 2, 3)]
    el = time.perf_counter() - t0

    def med(key):
        return statistics.median(r[key] for r in runs)

    gsm = med("rmse_gsm_mean")
    rivals = {k: med(f"rmse_{k}") for k in ("mean", "nn", "medfilt", "idw")}
    freq = med("freq_within_25pct")
    third_ok = all(0.30 <= r["masked_third_fraction"] <= 0.60 for r in runs)
    _verdict("AC-4 chirp recovery",
             all(gsm < v for v in rivals.values()) and freq >= 0.70
             and third_ok and el < 900.0,
             f"gsm {gsm:.3f} vs best rival {min(rivals.values()):.3f}, "
             f"freq ok {freq:.3f}, {el:.0f}s")


def test_ac5_kernel_identities_and_psd():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 1.0, 32)
    theta = 0.17
    # the GSM kernel with w = 1 and f = 0 is the Gibbs kernel
    gibbs = PointwiseLatents(np.ones(32), np.full(32, theta), np.zeros(32))
    id_gibbs = float(np.max(np.abs(
        gsm_cov(xs, xs, gibbs, gibbs) - build_cov(SEParams(1.0, theta), xs))))
    p_sm = SMParams([1.3, 0.6, 2.2], [1.0, 3.5, 0.2], [0.1, 0.04, 0.9])
    id_sm = abs(build_cov(p_sm, [0.37])[0, 0] - float(np.sum(p_sm.weights)))
    p_per = PeriodicParams(10.0, 0.8, 0.1)
    id_per = abs(build_cov(p_per, [0.25], [0.25 + p_per.period])[0, 0] - p_per.sigma2)
    id_err = max(id_gibbs, id_sm, id_per)

    rng = np.random.default_rng(505)
    worst = 0.0  # most negative eigenvalue relative to the diagonal scale
    for draw in range(100):
        n = int(rng.integers(2, 65))
        pts = np.sort(rng.uniform(0.0, 2.0, n))
        family = draw % 5
        if family == 0:
            cov = build_cov(SEParams(rng.uniform(0.1, 10.0),
                                     rng.uniform(0.02, 0.5)), pts)
        elif family == 1:
            cov = build_cov(PeriodicParams(rng.uniform(0.1, 10.0),
                                           rng.uniform(0.2, 2.0),
                                           rng.uniform(0.05, 0.5)), pts)
        elif family == 2:
            q = int(rng.integers(1, 4))
            cov = build_cov(SMParams(rng.uniform(0.1, 5.0, q),
                                     rng.uniform(0.0, 20.0, q),
                                     rng.uniform(0.0, 10.0, q)), pts)
        elif family == 3:
            gibbs = PointwiseLatents(np.ones(n), rng.uniform(0.02, 0.5, n), np.zeros(n))
            cov = gsm_cov(pts, pts, gibbs, gibbs)
        else:
            lat = PointwiseLatents(rng.uniform(0.1, 10.0, n),
                                   rng.uniform(0.02, 0.5, n),
                                   rng.uniform(0.0, 20.0, n))
            cov = gsm_cov(pts, pts, lat, lat)
        rel = float(np.linalg.eigvalsh(cov)[0] / np.max(np.diagonal(cov)))
        worst = min(worst, rel)

    el = time.perf_counter() - t0
    _verdict("AC-5 kernel identities and positive semidefiniteness",
             id_err < 1e-12 and worst >= -1e-8 and el < 30.0,
             f"identity err {id_err:.1e}, min rel eig {worst:.1e}, {el:.1f}s")


def test_ac6_sampling_statistics():
    t0 = time.perf_counter()
    n = 24
    x = 0.1 * np.arange(n)
    z = 1.5 * np.sin(2.0 * np.pi * x / 0.9) + 0.4 * np.cos(
        2.0 * np.pi * x / 0.31)
    valid = np.ones(n, dtype=bool)
    valid[[8, 12, 17]] = False
    ds = split_dataset(profile_from_arrays(
        x, np.where(valid, z, np.nan), valid))
    post = posterior(ds, SEParams(2.0, 0.25), NoiseParams("white", 0.05),
                     ds.xm)
    draws = sample_posterior(post, seed=606, count=10_000)

    se = np.sqrt(np.diagonal(post.cov) / draws.shape[0])
    mean_dev = np.abs(draws.mean(axis=0) - post.mean)
    mean_ok = bool(np.all(mean_dev <= 4.0 * se))
    emp = np.cov(draws.T)
    frob = float(np.linalg.norm(emp - post.cov)
                 / np.linalg.norm(post.cov))
    el = time.perf_counter() - t0
    _verdict("AC-6 sampling statistics",
             draws.shape == (10_000, 3) and mean_ok and frob <= 0.10
             and el < 10.0,
             f"max mean dev {float(np.max(mean_dev / se)):.2f} se, "
             f"cov frobenius {frob:.3f}, {el:.1f}s")


def test_ac7_baseline_contracts():
    t0 = time.perf_counter()
    nan = float("nan")
    checks = []

    filled = impute_constant(_prof([1.0, nan, 3.0]), "mean")
    checks.append(("constant mean", filled.z[1] == 2.0))
    filled = impute_constant(_prof([1.0, nan, 2.0, 100.0]), "median")
    checks.append(("constant median", filled.z[1] == 2.0))
    full = _prof([1.0, 2.0, 3.0])
    filled = impute_constant(full, "mean")
    checks.append(("constant identity",
                   np.array_equal(filled.z, full.z) and filled.valid.all()))

    filled = impute_nn_mean(_prof([2.0, nan, 4.0]))
    checks.append(("nn midpoint", filled.z[1] == 3.0))
    filled = impute_nn_mean(_prof([1.0, nan, nan, nan, nan, nan, 3.0]))
    checks.append(("nn 5-gap plateau",
                   np.array_equal(filled.z[1:6], np.full(5, 2.0))))
    filled = impute_nn_mean(_prof([nan, nan, 7.0, 8.0]))
    checks.append(("nn one-sided prefix",
                   np.array_equal(filled.z[:2], np.full(2, 7.0))))

    filled = impute_median_filter(_prof([1.0, nan, 5.0]), window=3)
    checks.append(("medfilt even median", filled.z[1] == 3.0))
    filled = impute_median_filter(
        _prof([0.0, 0.0, nan, nan, nan, 0.0, 0.0]), window=5)
    checks.append(("medfilt plateau fill",
                   np.array_equal(filled.z, np.zeros(7))))

    for power in (1.0, 3.7):
        filled = impute_idw(_prof([2.0, nan, 4.0]), power=power, radius=2.0)
        checks.append((f"idw symmetric p={power}", filled.z[1] == 3.0))
    filled = impute_idw(_prof([0.0, nan, nan, 3.0]), power=1.0, radius=2.5)
    checks.append(("idw weighted", filled.z[1] == 1.0 and filled.z[2] == 2.0))

    el = time.perf_counter() - t0
    bad = [name for name, good in checks if not good]
    _verdict("AC-7 baseline contracts",
             not bad and el < 5.0,
             f"{len(checks)} examples exact, {el:.2f}s"
             if not bad else f"failing: {', '.join(bad)}")


def test_ac8_determinism_and_io(tmp_path):
    t0 = time.perf_counter()

    def run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return main(argv)

    # CSV write -> read -> write is byte stable
    rng = np.random.default_rng(808)
    n = 64
    z = rng.standard_normal(n)
    valid = rng.uniform(size=n) > 0.2
    prof = profile_from_arrays(0.01 * np.arange(n),
                               np.where(valid, z, np.nan), valid)
    pa, pb = tmp_path / "rt-a.csv", tmp_path / "rt-b.csv"
    write_profile_csv(prof, pa)
    write_profile_csv(read_profile_csv(pa), pb)
    round_trip_ok = pa.read_bytes() == pb.read_bytes()

    # identical command + seed -> identical bytes, through the whole chain
    config = tmp_path / "sim.txt"
    config.write_text("n = 400\n")
    stages_ok = True
    outputs = {}
    for tag in ("one", "two"):
        sim = tmp_path / f"sim-{tag}.csv"
        masked = tmp_path / f"masked-{tag}.csv"
        filled = tmp_path / f"filled-{tag}.csv"
        post = tmp_path / f"post-{tag}.csv"
        stages_ok &= run(["simulate", "--kind", "turned", "--config",
                          str(config), "--seed", "12", "--out",
                          str(sim)]) == 0
        stages_ok &= run(["mask", "--method", "dales", "--count", "3",
                          "--in", str(sim), "--out", str(masked)]) == 0
        stages_ok &= run(["impute", "--model", "sm", "--seed", "11",
                          "--q", "2", "--max-iterations", "30",
                          "--restarts", "1", "--in", str(masked),
                          "--out", str(filled), "--posterior",
                          str(post)]) == 0
        outputs[tag] = tuple(p.read_bytes()
                             for p in (sim, masked, filled, post))
    identical = outputs["one"] == outputs["two"]

    el = time.perf_counter() - t0
    _verdict("AC-8 determinism and round-trip stability",
             round_trip_ok and stages_ok and identical and el < 120.0,
             f"round trip {'ok' if round_trip_ok else 'BROKEN'}, "
             f"pipeline bytes {'identical' if identical else 'DIFFER'}, "
             f"{el:.1f}s")
