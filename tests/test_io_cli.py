"""Text formats, the scorer, the SVG renderer, and the CLI entry point.

CLI commands are driven in-process through main(argv); stdout/stderr are
captured with redirect_* so no pytest capture fixtures are needed.
"""

import argparse
import contextlib
import io
import itertools
import math
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfimpute import (
    ConfigError,
    GridMismatchError,
    MustImputeFirstError,
    NothingToImputeError,
    OptConfig,
    Profile,
    evaluate,
    fit_gsm,
    fit_se,
    fit_sm,
    impute,
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
    make_grid,
    make_gsm_model,
    mask_smallest_width_dales,
    parse_config,
    profile_from_arrays,
    read_posterior_csv,
    read_profile_csv,
    render_svg,
    rq,
    write_posterior_csv,
    write_profile_csv,
    write_svg,
)
from surfimpute import cli
from surfimpute.cli import main
from surfimpute.io import POSTERIOR_HEADER, PROFILE_HEADER
from surfimpute.plotting import masked_runs
from surfimpute.profile import GRID_REL_TOL
from surfimpute.synthesis import ChirpConfig, TurnedSimConfig

from oracles import masked_runs as scanned_runs
from oracles import refuse_the_second_factorization

_SPAN_RE = re.compile(r'<rect class="masked-span" data-x0="([^"]+)" data-x1="([^"]+)"')


def svg_masked_spans(svg_text):
    """The masked spans (x0, x1 in mm) that an SVG carries as attributes."""
    return [(float(a), float(b)) for a, b in _SPAN_RE.findall(svg_text)]


def run_cli(argv):
    """Returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_usage_error(argv):
    """argparse usage failures exit via SystemExit; returns the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
    return exc_info.value.code


def toy_profile(n=40, gaps=((10, 16), (25, 28)), seed=0, period=0.5):
    """Masked noisy sine plus its complete truth counterpart."""
    rng = np.random.default_rng(seed)
    x = 0.05 * np.arange(n)
    z = 3.0 * np.sin(2.0 * np.pi * x / period) + 0.05 * rng.standard_normal(n)
    valid = np.ones(n, dtype=bool)
    for a, b in gaps:
        valid[a:b] = False
    zm = z.copy()
    zm[~valid] = np.nan
    masked = profile_from_arrays(x, zm, valid)
    truth = profile_from_arrays(x, z, np.ones(n, dtype=bool))
    return masked, truth


# ---------------------------------------------------------------------------
# profile CSV


def test_profile_csv_round_trip_bitwise(tmp_path):
    masked, _ = toy_profile()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_profile_csv(masked, p1)
    back = read_profile_csv(p1)
    write_profile_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.x, masked.x)
    assert np.array_equal(back.valid, masked.valid)
    assert np.array_equal(back.z[back.valid], masked.z[masked.valid])
    # invalid samples are stored as the literal nan
    for line in p1.read_text().splitlines()[1:]:
        xs, zs, flag = line.split(",")
        if flag == "0":
            assert zs == "nan"
        else:
            assert math.isfinite(float(zs))


@st.composite
def masked_profiles(draw):
    n = draw(st.integers(1, 40))
    grid = make_grid(draw(st.floats(-100.0, 100.0)), draw(st.floats(1e-5, 10.0)), n)
    z = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Profile(grid, np.array(z), np.array(valid))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(profile=masked_profiles())
def test_profile_csv_round_trip_on_random_profiles(profile, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    write_profile_csv(profile, path)
    back = read_profile_csv(path)
    assert back.n == profile.n and back.grid.x0 == profile.grid.x0
    if profile.n > 1:
        # the file stores positions, not the spacing: the reader fits it
        assert abs(back.dx - profile.dx) <= GRID_REL_TOL * profile.dx
    assert same_bits(back.x, profile.x)
    assert np.array_equal(back.valid, profile.valid)
    assert same_bits(back.z[back.valid], profile.z[profile.valid])
    assert np.all(np.isnan(back.z[~back.valid]))


def test_profile_csv_rejects_malformed(tmp_path):
    def attempt(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ConfigError) as exc_info:
            read_profile_csv(p)
        return exc_info.value

    err = attempt("wrong,header,here\n0,1,1\n")
    assert err.line == 1
    err = attempt("x_mm,z_um,valid\n0,1\n")
    assert err.line == 2
    err = attempt("x_mm,z_um,valid\n0,1,1\n1,oops,1\n")
    assert err.line == 3
    err = attempt("x_mm,z_um,valid\n0,1,2\n")
    assert err.line == 2 and "0 or 1" in str(err)
    # a row claiming valid must carry a finite height
    err = attempt("x_mm,z_um,valid\n0,nan,1\n")
    assert err.line == 2
    err = attempt("x_mm,z_um,valid\n")
    assert "no data rows" in str(err) and err.line is None


def test_posterior_csv_round_trip_and_errors(tmp_path):
    rng = np.random.default_rng(3)
    xm = np.sort(rng.uniform(0.0, 1.0, 7))
    mean = rng.standard_normal(7)
    lo = mean - rng.uniform(0.1, 1.0, 7)
    hi = mean + rng.uniform(0.1, 1.0, 7)
    p = tmp_path / "post.csv"
    write_posterior_csv(xm, mean, lo, hi, p)
    bx, bm, bl, bh = read_posterior_csv(p)
    for got, want in zip((bx, bm, bl, bh), (xm, mean, lo, hi)):
        assert np.array_equal(got, want)

    with pytest.raises(ValueError, match="match query points"):
        write_posterior_csv(xm, mean[:3], lo, hi, p)

    bad = tmp_path / "bad.csv"
    bad.write_text("not,the,right,header\n")
    with pytest.raises(ConfigError) as exc_info:
        read_posterior_csv(bad)
    assert exc_info.value.line == 1
    bad.write_text("x_mm,post_mean,post_lo95,post_hi95\n0,1,2\n")
    with pytest.raises(ConfigError) as exc_info:
        read_posterior_csv(bad)
    assert exc_info.value.line == 2


# ---------------------------------------------------------------------------
# flat key = value configs


def test_parse_config_reads_flat_keys(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(
        "# simulator parameters\n"
        "\n"
        "n = 250\n"
        "dx = 2e-3\n"
        "label = run-a\n"
        "enabled = yes\n"
    )
    schema = {"n": int, "dx": float, "label": str,
              "enabled": lambda s: s == "yes", "absent": float}
    got = parse_config(p, schema)
    assert got == {"n": 250, "dx": 2e-3, "label": "run-a", "enabled": True}
    # missing keys are for the caller to default, not an error
    assert "absent" not in got


def test_parse_config_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "c.txt"

    def attempt(text):
        p.write_text(text)
        with pytest.raises(ConfigError) as exc_info:
            parse_config(p, {"n": int})
        return exc_info.value

    err = attempt("# ok\nm = 3\n")
    assert err.line == 2 and "'m'" in str(err)
    err = attempt("n = 1\nn = 2\n")
    assert err.line == 2 and "duplicate" in str(err)
    err = attempt("just words\n")
    assert err.line == 1 and "key = value" in str(err)
    err = attempt("n = 2.5\n")
    assert err.line == 1 and "'n'" in str(err)


@pytest.mark.parametrize("reader, head", [
    (read_profile_csv, PROFILE_HEADER),
    (read_posterior_csv, POSTERIOR_HEADER),
    (lambda path: parse_config(path, {"n": int}), "n = 1"),
], ids=["profile", "posterior", "config"])
def test_readers_report_undecodable_bytes_at_their_line(tmp_path, reader, head):
    # a Latin-1 e-acute on line 3, after a blank line
    p = tmp_path / "f.txt"
    p.write_bytes(head.encode() + b"\n\n0,\xe9,1\n")
    with pytest.raises(ConfigError) as exc_info:
        reader(p)
    assert exc_info.value.line == 3
    assert str(exc_info.value) == "line 3: not UTF-8 text: byte 0xe9 cannot be decoded"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_and_shifted():
    masked, truth = toy_profile()
    miss = ~masked.valid

    report = evaluate(truth, masked, truth)
    assert report.rmse == 0.0 and report.mae == 0.0
    assert report.delta_rq == 0.0 and report.delta_rsm == 0.0
    assert math.isnan(report.coverage)
    assert report.n_missing == int(np.count_nonzero(miss))
    assert report.n_total == truth.n
    assert report.n_valid == truth.n - report.n_missing

    # +1 um at every masked point: mae = rmse = 1 exactly
    shifted = profile_from_arrays(
        truth.x, np.where(miss, truth.z + 1.0, truth.z),
        np.ones(truth.n, dtype=bool))
    report = evaluate(truth, masked, shifted)
    assert report.mae == 1.0 and report.rmse == 1.0

    # closed-interval coverage over the masked points only
    zt = truth.z[miss]
    lo = zt - 1.0
    hi = zt.copy()
    hi[0] = zt[0] - 0.5  # push one true height outside
    report = evaluate(truth, masked, truth, lo, hi)
    assert report.coverage == (len(zt) - 1) / len(zt)


def test_evaluate_matches_direct_computation():
    rng = np.random.default_rng(11)
    masked, truth = toy_profile(n=60, gaps=((12, 20), (40, 43)), seed=4)
    miss = ~masked.valid
    zi = truth.z + rng.standard_normal(truth.n)
    imputed = profile_from_arrays(truth.x, zi, np.ones(truth.n, dtype=bool))
    lo = truth.z[miss] - rng.uniform(0.0, 2.0, miss.sum())
    hi = truth.z[miss] + rng.uniform(0.0, 2.0, miss.sum())

    report = evaluate(truth, masked, imputed, lo, hi)
    err = zi[miss] - truth.z[miss]
    assert abs(report.rmse - np.sqrt(np.mean(err ** 2))) < 1e-12
    assert abs(report.mae - np.mean(np.abs(err))) < 1e-12
    assert abs(report.delta_rq - (rq(imputed) - rq(truth))) < 1e-12
    inside = (truth.z[miss] >= lo) & (truth.z[miss] <= hi)
    assert report.coverage == np.mean(inside)


def test_evaluate_validates_inputs():
    masked, truth = toy_profile()
    n = truth.n
    complete = np.ones(n, dtype=bool)

    # faults of the data are domain errors (CLI exit 1), not ValueError
    with pytest.raises(MustImputeFirstError, match="complete"):
        evaluate(masked, masked, truth)
    with pytest.raises(MustImputeFirstError, match="complete"):
        evaluate(truth, masked, masked)
    with pytest.raises(NothingToImputeError, match="no missing"):
        evaluate(truth, truth, truth)

    other = profile_from_arrays(truth.x + 1.0, truth.z, complete)
    with pytest.raises(GridMismatchError):
        evaluate(truth, masked, other)

    miss = int(np.count_nonzero(~masked.valid))
    with pytest.raises(ValueError, match="both interval edges"):
        evaluate(truth, masked, truth, np.zeros(miss), None)
    with pytest.raises(ValueError, match="per masked point"):
        evaluate(truth, masked, truth, np.zeros(miss - 1), np.zeros(miss - 1))

    # undefined Rsm (no qualified crossings) degrades to nan, not an error
    flat = profile_from_arrays(truth.x, np.ones(n), complete)
    flat_masked = profile_from_arrays(
        truth.x, np.where(masked.valid, 1.0, np.nan), masked.valid)
    report = evaluate(flat, flat_masked, flat)
    assert math.isnan(report.delta_rsm) and report.rmse == 0.0


# ---------------------------------------------------------------------------
# SVG rendering


def test_masked_runs_index_pairs():
    assert masked_runs(np.array([True, True])) == []
    assert masked_runs(np.array([False, False])) == [(0, 2)]
    v = np.array([False, True, True, False, False, True, False])
    assert masked_runs(v) == [(0, 1), (3, 5), (6, 7)]
    # every mask up to 10 samples, against the per-point scan
    for n in range(11):
        for flags in itertools.product((False, True), repeat=n):
            valid = np.array(flags, dtype=bool)
            runs = masked_runs(valid)
            assert runs == scanned_runs(valid), flags
            assert all(type(i) is int for run in runs for i in run)


def test_render_svg_deterministic_and_well_formed(tmp_path):
    masked, truth = toy_profile()
    first = render_svg(masked, truth=truth, title="check & see")
    second = render_svg(masked, truth=truth, title="check & see")
    assert first == second
    root = ET.fromstring(first)
    assert root.tag.endswith("svg")

    path = tmp_path / "plot.svg"
    write_svg(path, masked, truth=truth, title="check & see")
    assert path.read_text() == first

    # one polyline per contiguous valid run, one for the truth curve
    assert first.count('class="profile"') == 3
    assert first.count('class="truth"') == 1
    assert first.count('class="band"') == 0

    # markup in the title is escaped, ampersands first
    title = 'a < b & c > d; &amp; "e"'
    svg = render_svg(masked, truth=truth, title=title)
    assert 'a &lt; b &amp; c &gt; d; &amp;amp; "e"</text>' in svg
    assert ET.fromstring(svg).find("{*}text[@class='title']").text == title

    # a complete profile draws a single unbroken polyline
    single = render_svg(truth)
    assert single.count('class="profile"') == 1


def test_render_svg_band_and_span_parse_back():
    masked, truth = toy_profile()
    mean = truth.z[~masked.valid]
    svg = render_svg(masked, imputed=truth, truth=truth,
                     band_lo=mean - 1.0, band_hi=mean + 1.0)
    # two masked gaps -> two band polygons (the band never bridges gaps)
    assert svg.count('class="band"') == 2
    assert svg.count('class="imputed"') == 1

    spans = svg_masked_spans(svg)
    runs = masked_runs(masked.valid)
    assert len(spans) == len(runs) == 2
    for (x0, x1), (a, b) in zip(spans, runs):
        assert x0 == float(masked.x[a])
        assert x1 == float(masked.x[b - 1])

    # the band sits at the masked positions: one value per masked point
    for lo, hi in ((mean[:2], mean), (mean, mean[:-1]), (np.append(mean, 0.0), mean)):
        with pytest.raises(ValueError, match="one value per masked point"):
            render_svg(masked, band_lo=lo, band_hi=hi)


# ---------------------------------------------------------------------------
# CLI: simulate, mask


def test_cli_simulate_turned_deterministic(tmp_path):
    config = tmp_path / "sim.txt"
    config.write_text("n = 200\ndx = 2e-3\n")
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    for out in (out1, out2):
        code, stdout, _ = run_cli([
            "simulate", "--kind", "turned", "--config", str(config),
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert "wrote 200 points" in stdout
    assert out1.read_bytes() == out2.read_bytes()
    assert read_profile_csv(out1).n == 200


def test_cli_simulate_chirp_default_rows(tmp_path):
    out = tmp_path / "chirp.csv"
    code, _, _ = run_cli([
        "simulate", "--kind", "chirp", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x_mm,z_um,valid"
    assert len(lines) == 1 + 5000


def test_cli_simulate_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "sim.txt"
    config.write_text("n = 100\namplitud = 5\n")
    out = tmp_path / "p.csv"
    code, _, stderr = run_cli([
        "simulate", "--kind", "chirp", "--config", str(config),
        "--seed", "1", "--out", str(out),
    ])
    assert code == 1
    assert "amplitud" in stderr and "line 2" in stderr
    assert not out.exists()


def test_cli_mask_dales_and_gradient(tmp_path):
    config = tmp_path / "sim.txt"
    config.write_text("n = 800\n")
    sim = tmp_path / "sim.csv"
    run_cli(["simulate", "--kind", "turned", "--config", str(config),
             "--seed", "2", "--out", str(sim)])

    out = tmp_path / "masked.csv"
    code, stdout, _ = run_cli([
        "mask", "--method", "dales", "--count", "5",
        "--in", str(sim), "--out", str(out),
    ])
    assert code == 0
    masked = read_profile_csv(out)
    # five smallest-width dales -> five contiguous masked runs
    assert len(masked_runs(masked.valid)) == 5
    assert f"masked = {masked.n_missing}" in stdout
    assert masked.n_missing == int(np.count_nonzero(~masked.valid))
    # masking flags points but never touches retained heights
    sim_back = read_profile_csv(sim)
    assert np.array_equal(masked.x, sim_back.x)
    assert np.array_equal(masked.z[masked.valid], sim_back.z[masked.valid])

    code, stdout, _ = run_cli([
        "mask", "--method", "gradient", "--threshold", "1e18",
        "--in", str(sim), "--out", str(out),
    ])
    assert code == 0 and "masked = 0" in stdout

    assert cli_usage_error([
        "mask", "--method", "gradient", "--in", str(sim), "--out", str(out),
    ]) == 2


# ---------------------------------------------------------------------------
# CLI: impute


def test_cli_impute_baseline_delegates(tmp_path):
    x = np.array([0.0, 1.0, 2.0])
    z = np.array([1.0, np.nan, 3.0])
    valid = np.array([True, False, True])
    toy = profile_from_arrays(x, z, valid)
    src = tmp_path / "toy.csv"
    write_profile_csv(toy, src)

    out = tmp_path / "filled.csv"
    code, stdout, _ = run_cli([
        "impute", "--model", "mean", "--in", str(src), "--out", str(out),
    ])
    assert code == 0 and "imputed 1 points" in stdout
    got = read_profile_csv(out)
    want = impute_constant(toy, "mean")
    assert np.array_equal(got.z, want.z)
    assert got.z[1] == 2.0 and got.valid.all()
    # rows that were valid come through untouched
    assert np.array_equal(got.z[valid], z[valid])


def test_cli_impute_sm_deterministic(tmp_path):
    masked, _ = toy_profile(n=120, gaps=((40, 46), (80, 84)), seed=9,
                            period=0.5)
    src = tmp_path / "masked.csv"
    write_profile_csv(masked, src)

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sm-{tag}.csv"
        code, stdout, _ = run_cli([
            "impute", "--model", "sm", "--seed", "5", "--q", "2",
            "--max-iterations", "40", "--restarts", "1",
            "--in", str(src), "--out", str(out),
        ])
        assert code == 0
        assert "imputed 10 points" in stdout
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()

    # posterior lands next to the output under the default name
    post = tmp_path / "sm-a.posterior.csv"
    assert post.exists()
    xm, mean, lo, hi = read_posterior_csv(post)
    assert np.array_equal(xm, masked.x[~masked.valid])
    assert np.all(lo <= mean) and np.all(mean <= hi)

    filled = read_profile_csv(outs[0])
    assert filled.valid.all()
    assert np.array_equal(filled.z[masked.valid], masked.z[masked.valid])


def test_cli_impute_gsm_saves_model(tmp_path):
    n = 48
    x = 0.01 * np.arange(n)
    z = 2.0 * np.cos(2.0 * np.pi * x / 0.2)
    valid = np.ones(n, dtype=bool)
    valid[20:24] = False
    zm = np.where(valid, z, np.nan)
    src = tmp_path / "masked.csv"
    write_profile_csv(profile_from_arrays(x, zm, valid), src)

    out = tmp_path / "gsm.csv"
    code, stdout, _ = run_cli([
        "impute", "--model", "gsm", "--seed", "4", "--n-latent", "6",
        "--max-iterations", "8", "--wavelength-left", "0.2",
        "--wavelength-right", "0.2", "--in", str(src), "--out", str(out),
    ])
    assert code == 0 and "imputed 4 points" in stdout
    assert read_profile_csv(out).valid.all()
    # the filled profile and its posterior are the only outputs
    assert {p.name for p in tmp_path.iterdir()} == {"masked.csv", "gsm.csv",
                                                     "gsm.posterior.csv"}


def test_cli_impute_usage_errors(tmp_path):
    masked, _ = toy_profile()
    src = tmp_path / "masked.csv"
    write_profile_csv(masked, src)
    out = tmp_path / "out.csv"

    # GP models draw the imputation sample, so the seed is mandatory
    assert cli_usage_error([
        "impute", "--model", "sm", "--in", str(src), "--out", str(out),
    ]) == 2
    assert cli_usage_error([
        "impute", "--model", "pchip", "--seed", "1",
        "--in", str(src), "--out", str(out),
    ]) == 2

    code, _, stderr = run_cli([
        "impute", "--model", "mean", "--in", str(tmp_path / "absent.csv"),
        "--out", str(out),
    ])
    assert code == 1 and "error:" in stderr


def test_cli_fit_from_a_non_finite_start_is_a_fit_failure(tmp_path):
    # heights near 1e160 overflow the start variance: the data's fault,
    # not the flags', and no numpy warning precedes the one error line
    masked, _ = toy_profile()
    huge = profile_from_arrays(masked.x, 1e160 * masked.z, masked.valid)
    src = tmp_path / "huge.csv"
    write_profile_csv(huge, src)
    for model, fit in (("se", "GP"), ("sm", "GP"), ("gsm", "GSM")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stderr = run_main(["impute", "--model", model, "--seed", "1", "--in",
                                     str(src), "--out", str(tmp_path / "o.csv")])
        assert code == 1, model
        assert stderr == f"error: {fit} fit could not start: the height variance overflows\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("model", ["sm", "gsm"])
def test_cli_nonfinite_stop_warns_and_writes_the_trace(tmp_path, monkeypatch, model):
    # the first step of the first run is refused: the fit keeps its start,
    # and the CLI imputes with it, warns once and writes that run's trace
    refuse_the_second_factorization(monkeypatch)
    masked, _ = toy_profile()
    src = tmp_path / "masked.csv"
    write_profile_csv(masked, src)
    out = tmp_path / f"{model}.csv"
    size = {"sm": ["--q", "2"], "gsm": ["--n-latent", "6"]}[model]
    code, stdout, stderr = run_cli(["impute", "--model", model, "--seed", "1", *size,
                                    "--max-iterations", "3",
                                    "--in", str(src), "--out", str(out)])
    trace_path = tmp_path / f"{model}.csv.trace.csv"
    assert code == 0
    assert stderr == (f"warning: a run of the {model} fit stopped at iteration 1, where its "
                      "objective is not finite; the fit keeps its best finite iterate "
                      f"(objective trace: {trace_path})\n")
    assert f"imputed {masked.n_missing} points" in stdout
    assert read_profile_csv(out).valid.all()
    xm = read_posterior_csv(tmp_path / f"{model}.posterior.csv")[0]
    assert np.array_equal(xm, masked.x[~masked.valid])
    data = trace_path.read_bytes()
    assert b"\r" not in data
    rows = data.decode().splitlines()
    assert rows[0] == "iteration,objective"
    assert len(rows) == 2 and rows[1].startswith("0,") and math.isfinite(float(rows[1][2:]))


def variant_commands():
    """(command, selector, {variant: row}, {flag: action}) of each command
    whose flags depend on a variant, from the parser's own actions: a flag
    declared with no default (argparse.SUPPRESS) is variant-specific."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, p in commands.choices.items():
        specific = {a.option_strings[0]: a for a in p._actions
                    if a.default is argparse.SUPPRESS and not isinstance(a, argparse._HelpAction)}
        if specific:
            (selector,) = [a for a in p._actions if a.choices and a.required]
            rows = {v: cli.READS[v] for v in selector.choices}
            yield command, selector.option_strings[0], rows, specific


# a value each variant-specific flag accepts on toy_profile
FLAG_VALUES = {
    "--seed": "1", "--max-iterations": "2", "--q": "1", "--restarts": "1",
    "--init-rsm": "0.5", "--init-rq": "3", "--n-latent": "4", "--wavelength-left": "0.5",
    "--wavelength-right": "0.5", "--window": "5", "--power": "2", "--radius": "0.5",
    "--count": "1", "--volume-threshold": "0", "--threshold": "1e18",
}


def test_cli_a_flag_outside_its_variants_row_is_refused_before_any_file(tmp_path):
    commands = list(variant_commands())
    assert {c for c, *_ in commands} == {"impute", "mask"}
    absent, out = str(tmp_path / "absent.csv"), str(tmp_path / "out.csv")
    pairs = 0
    for command, selector, rows, specific in commands:
        # every variant-specific flag sits in some row, and its help names
        # the variants that read it
        for flag, action in specific.items():
            readers = [v for v, row in rows.items() if flag in row]
            assert readers, (command, flag)
            assert action.help.startswith(", ".join(readers) + ": "), (flag, action.help)
        assert {f for row in rows.values() for f in row} == set(specific), command
        for variant, row in rows.items():
            for flag in set(specific) - set(row):
                value = FLAG_VALUES.get(flag, str(tmp_path / "p.csv"))
                code, stderr = run_main([command, selector, variant, flag, value,
                                         "--in", absent, "--out", out])
                errors = [line for line in stderr.splitlines() if "error:" in line]
                assert code == 2, (variant, flag)
                assert errors == [f"surfimpute: error: {flag} is not read by "
                                  f"{selector} {variant}"], (variant, flag)
                assert list(tmp_path.iterdir()) == [], (variant, flag)
                pairs += 1
    # impute: 8 models x 13 flags, less the 20 in rows; mask: 2 x 3, less 3
    assert pairs == 84 + 3


def test_cli_every_variant_accepts_every_flag_of_its_row(tmp_path):
    masked, truth = toy_profile()
    inputs = {"impute": tmp_path / "masked.csv", "mask": tmp_path / "truth.csv"}
    write_profile_csv(masked, inputs["impute"])
    write_profile_csv(truth, inputs["mask"])
    for command, selector, rows, _ in variant_commands():
        for variant, row in rows.items():
            out = tmp_path / f"{variant}.csv"
            values = {**FLAG_VALUES, "--posterior": str(tmp_path / f"{variant}.post.csv")}
            argv = [command, selector, variant, *(x for f in row for x in (f, values[f]))]
            code, stderr = run_main(argv + ["--in", str(inputs[command]), "--out", str(out)])
            assert (code, stderr) == (0, ""), (variant, stderr)
            assert out.exists()


def test_cli_adds_nothing_to_the_library_defaults(tmp_path):
    # a flag the user leaves out takes the library's default: the CLI
    # writes the bytes of the direct library call at its defaults
    masked, truth = toy_profile()
    src, complete = tmp_path / "masked.csv", tmp_path / "truth.csv"
    write_profile_csv(masked, src)
    write_profile_csv(truth, complete)
    profile = read_profile_csv(src)
    short = OptConfig(max_iterations=3)
    fits = {
        "sm": lambda: fit_sm(profile, config=short, seed=5)[0],
        "se": lambda: fit_se(profile, config=short)[0],
        "gsm": lambda: fit_gsm(profile, make_gsm_model(profile), short)[0],
    }
    for model, fit in fits.items():
        got, want = tmp_path / f"{model}.csv", tmp_path / f"{model}-lib.csv"
        assert run_main(["impute", "--model", model, "--seed", "5", "--max-iterations", "3",
                         "--in", str(src), "--out", str(got)]) == (0, "")
        result = impute(profile, fit(), 6)
        write_profile_csv(result.profile, want)
        write_posterior_csv(result.xm, result.post_mean, result.lo95, result.hi95,
                            tmp_path / "lib.posterior.csv")
        assert got.read_bytes() == want.read_bytes(), model
        assert ((tmp_path / f"{model}.posterior.csv").read_bytes()
                == (tmp_path / "lib.posterior.csv").read_bytes()), model
    baselines = {
        "mean": lambda: impute_constant(profile, "mean"),
        "median": lambda: impute_constant(profile, "median"),
        "nn": lambda: impute_nn_mean(profile),
        "medfilt": lambda: impute_median_filter(profile),
        "idw": lambda: impute_idw(profile),
    }
    runs = [(["impute", "--model", m, "--in", str(src)], fill) for m, fill in baselines.items()]
    runs.append((["mask", "--method", "dales", "--count", "2", "--in", str(complete)],
                  lambda: mask_smallest_width_dales(read_profile_csv(complete), 2)))
    for argv, fill in runs:
        got, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert run_main(argv + ["--out", str(got)]) == (0, ""), argv
        write_profile_csv(fill(), want)
        assert got.read_bytes() == want.read_bytes(), argv


def test_sim_config_fields_parse_to_their_declared_types(tmp_path):
    for cls in (TurnedSimConfig, ChirpConfig):
        default = cls()
        path = tmp_path / f"{cls.__name__}.txt"
        # every value written as an integer where it is one, so a float
        # field must convert "2" to 2.0 and an int field keep it an int
        path.write_text("".join(f"{f.name} = {getattr(default, f.name):g}\n"
                                for f in fields(cls)))
        config = cli._load_sim_config(cls, path)
        assert config == default
        for f in fields(cls):
            assert type(getattr(config, f.name)).__name__ == f.type, f.name


def test_cli_medfilt_closes_a_long_end_gap(tmp_path):
    z = np.arange(2101.0)
    valid = z < 100
    src = tmp_path / "masked.csv"
    write_profile_csv(Profile(make_grid(0.0, 1e-3, len(z)), np.where(valid, z, np.nan), valid),
                      src)
    out = tmp_path / "medfilt.csv"
    code, stdout, stderr = run_cli(["impute", "--model", "medfilt", "--window", "5",
                                    "--in", str(src), "--out", str(out)])
    assert (code, stderr) == (0, "")
    assert "imputed 2001 points" in stdout
    filled = read_profile_csv(out)
    assert filled.valid.all() and np.array_equal(filled.z[:100], z[:100])


# ---------------------------------------------------------------------------
# CLI: eval, plot


def eval_fixture(tmp_path):
    masked, truth = toy_profile()
    miss = ~masked.valid
    shifted = profile_from_arrays(
        truth.x, np.where(miss, truth.z + 1.0, truth.z),
        np.ones(truth.n, dtype=bool))
    paths = {}
    for name, prof in (("truth", truth), ("masked", masked),
                       ("imputed", shifted)):
        paths[name] = tmp_path / f"{name}.csv"
        write_profile_csv(prof, paths[name])
    post = tmp_path / "post.csv"
    zt = truth.z[miss]
    write_posterior_csv(masked.x[miss], zt, zt - 2.0, zt + 2.0, post)
    return paths, post


def test_cli_eval_stdout_and_csv(tmp_path):
    paths, post = eval_fixture(tmp_path)
    metrics_path = tmp_path / "metrics.csv"
    code, stdout, _ = run_cli([
        "eval", "--truth", str(paths["truth"]), "--masked",
        str(paths["masked"]), "--imputed", str(paths["imputed"]),
        "--posterior", str(post), "--out", str(metrics_path),
    ])
    assert code == 0
    report = dict(line.split(" = ") for line in stdout.strip().splitlines())
    assert float(report["rmse"]) == 1.0
    assert float(report["mae"]) == 1.0
    assert float(report["coverage"]) == 1.0
    assert int(report["n_missing"]) == 9

    lines = metrics_path.read_text().splitlines()
    assert lines[0] == "metric,value"
    as_csv = dict(line.split(",") for line in lines[1:])
    assert set(as_csv) == set(report)
    assert float(as_csv["rmse"]) == 1.0

    # without a posterior the coverage is reported as nan
    code, stdout, _ = run_cli([
        "eval", "--truth", str(paths["truth"]), "--masked",
        str(paths["masked"]), "--imputed", str(paths["imputed"]),
    ])
    assert code == 0 and "coverage = nan" in stdout


def test_cli_eval_rejects_mismatched_inputs(tmp_path):
    paths, post = eval_fixture(tmp_path)
    other = tmp_path / "other.csv"
    masked = read_profile_csv(paths["masked"])
    shifted_grid = profile_from_arrays(
        masked.x + 0.5, np.where(masked.valid, 1.0, np.nan), masked.valid)
    write_profile_csv(shifted_grid, other)
    code, _, stderr = run_cli([
        "eval", "--truth", str(paths["truth"]), "--masked", str(other),
        "--imputed", str(paths["imputed"]),
    ])
    assert code == 1 and "grid" in stderr

    # posterior rows must sit exactly on the masked positions
    bad_post = tmp_path / "bad-post.csv"
    xm = masked.x[~masked.valid] + 1e-3
    write_posterior_csv(xm, xm * 0, xm * 0 - 1, xm * 0 + 1, bad_post)
    code, _, stderr = run_cli([
        "eval", "--truth", str(paths["truth"]), "--masked",
        str(paths["masked"]), "--imputed", str(paths["imputed"]),
        "--posterior", str(bad_post),
    ])
    assert code == 1 and "posterior locations" in stderr


def test_cli_plot_writes_parseable_svg(tmp_path):
    paths, post = eval_fixture(tmp_path)
    out = tmp_path / "fig.svg"
    code, stdout, _ = run_cli([
        "plot", "--in", str(paths["masked"]), "--imputed",
        str(paths["imputed"]), "--truth", str(paths["truth"]),
        "--posterior", str(post), "--out", str(out), "--title", "turned",
    ])
    assert code == 0 and f"wrote {out}" in stdout
    svg = out.read_text()
    ET.fromstring(svg)
    masked = read_profile_csv(paths["masked"])
    assert len(svg_masked_spans(svg)) == len(masked_runs(masked.valid))
    assert svg.count('class="band"') == 2

    code, _, stderr = run_cli([
        "plot", "--in", str(tmp_path / "absent.csv"), "--out", str(out),
    ])
    assert code == 1 and "error:" in stderr


def test_cli_plot_refuses_a_band_off_the_masked_positions(tmp_path):
    # rows at x = 1.0, a valid sample, and 1.002, off the grid: eval
    # refuses them, and plot must too rather than draw a band there
    paths, _ = eval_fixture(tmp_path)
    post = tmp_path / "off.csv"
    write_posterior_csv([1.0, 1.002], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], post)
    out = tmp_path / "fig.svg"
    for argv in (["eval", "--truth", str(paths["truth"]), "--masked", str(paths["masked"]),
                  "--imputed", str(paths["imputed"]), "--posterior", str(post)],
                 ["plot", "--in", str(paths["masked"]), "--posterior", str(post),
                  "--out", str(out)]):
        code, stderr = run_main(argv)
        assert code == 1 and "posterior locations do not match" in stderr, argv[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, config, code", [
    (["impute", "--model", "sm", "--seed", "1", "--max-iterations", "0"], None, 2),
    # the flag is checked before the input is read
    (["impute", "--model", "sm", "--seed", "1", "--max-iterations", "0",
      "--in", "absent.csv"], None, 2),
    (["impute", "--model", "sm", "--seed", "1", "--q", "0"], None, 2),
    (["impute", "--model", "sm", "--seed", "1", "--restarts", "0"], None, 2),
    (["impute", "--model", "sm", "--seed", "1", "--init-rsm", "-1"], None, 2),
    (["impute", "--model", "sm", "--seed", "1", "--q", "1", "--init-rsm", "1e-300"], None, 2),
    (["impute", "--model", "sm", "--seed", "1", "--init-rq", "inf"], None, 2),
    (["impute", "--model", "gsm", "--seed", "1", "--init-rq", "inf"], None, 2),
    (["impute", "--model", "gsm", "--seed", "1", "--wavelength-left", "1e-320"], None, 2),
    (["impute", "--model", "gsm", "--seed", "1", "--n-latent", "1"], None, 2),
    (["impute", "--model", "medfilt", "--window", "4"], None, 2),
    (["impute", "--model", "idw", "--power", "-1"], None, 2),
    (["impute", "--model", "idw", "--power", "nan"], None, 2),
    (["impute", "--model", "idw", "--power", "inf"], None, 2),
    (["impute", "--model", "idw", "--radius", "nan"], None, 2),
    (["impute", "--model", "idw", "--radius", "0"], None, 2),
    (["mask", "--method", "dales", "--count", "-1"], None, 2),
    (["mask", "--method", "dales", "--volume-threshold", "nan"], None, 2),
    (["mask", "--method", "gradient", "--threshold", "-1"], None, 2),
    (["simulate", "--kind", "turned", "--seed", "1"], "sigma2 = -1", 1),
    (["simulate", "--kind", "chirp", "--seed", "1"], "n = 0", 1),
], ids=["max-iterations", "max-iterations-absent-input", "q", "restarts", "init-rsm",
        "init-rsm-tiny", "init-rq-inf", "gsm-init-rq-inf", "gsm-wavelength-tiny", "n-latent",
        "window", "power", "power-nan", "power-inf", "radius-nan", "radius-zero", "count",
        "volume-threshold-nan", "threshold", "sim-sigma2", "sim-n"])
def test_cli_rejected_values_exit_without_a_traceback(tmp_path, argv, config, code):
    masked, truth = toy_profile()
    src = tmp_path / "in.csv"
    write_profile_csv(masked if argv[0] == "impute" else truth, src)
    out = tmp_path / "out.csv"
    if "--in" in argv:  # a file under tmp_path that is never written
        argv = [*argv[:-1], str(tmp_path / argv[-1])]
    elif config is None:
        argv = argv + ["--in", str(src)]
    else:
        (tmp_path / "sim.txt").write_text(config + "\n")
        argv = argv + ["--config", str(tmp_path / "sim.txt")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            got = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            got = exc.code
    assert got == code
    assert "error: " in err.getvalue() and "Traceback" not in err.getvalue()
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "turned", "--seed", "-1"],
    ["experiment", "--name", "turned", "--seed", "-1"],
    ["impute", "--model", "sm", "--seed", "-1"],
    # impute seeds its draw with seed + 1, after the fit
    ["impute", "--model", "gsm", "--seed", "-2", "--n-latent", "6", "--max-iterations", "2"],
], ids=["simulate", "experiment", "impute-sm", "impute-gsm"])
def test_cli_negative_seed_is_a_usage_error(tmp_path, argv):
    masked, _ = toy_profile()
    src = tmp_path / "in.csv"
    write_profile_csv(masked, src)
    out = tmp_path / "out.csv"
    if argv[0] == "experiment":
        argv = argv + ["--outdir", str(tmp_path / "study")]
    else:
        argv = argv + (["--in", str(src)] if argv[0] == "impute" else []) + ["--out", str(out)]
    code, stderr = run_main(argv)
    assert code == 2
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--seed: expected a non-negative integer" in errors[0]
    assert "Traceback" not in stderr
    assert not out.exists() and not (tmp_path / "study").exists()


def test_cli_usage_errors_exit_2():
    assert cli_usage_error([]) == 2
    assert cli_usage_error(["frobnicate"]) == 2
    assert cli_usage_error(["simulate", "--kind", "turned"]) == 2


# ---------------------------------------------------------------------------
# malformed files and data faults: exit 1 with a line number, no traceback


def run_main(argv):
    """(exit code, stderr) of main, usage errors included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("case", ["in-directory", "out-directory", "utf16-profile",
                                  "binary-config"])
def test_cli_unreadable_files_exit_1_with_one_error_line(tmp_path, case):
    masked, _ = toy_profile()
    src = tmp_path / "in.csv"
    write_profile_csv(masked, src)
    out = tmp_path / "out.csv"
    argv = ["impute", "--model", "mean", "--in", str(src), "--out", str(out)]
    line = None
    if case == "in-directory":
        argv[4] = str(tmp_path)
    elif case == "out-directory":
        out = tmp_path / "outdir"
        out.mkdir()
        argv[6] = str(out)
    elif case == "utf16-profile":
        # a UTF-16 byte-order mark in front of the header
        src.write_bytes(b"\xff\xfe" + src.read_bytes())
        line = 1
    else:
        config = tmp_path / "sim.txt"
        config.write_bytes(b"n = 100\n# \xff\n")
        argv = ["simulate", "--kind", "chirp", "--config", str(config),
                "--seed", "1", "--out", str(out)]
        line = 2
    code, stderr = run_main(argv)
    assert code == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    if line is not None:
        assert f"error: line {line}: not UTF-8 text" in stderr
    assert not out.is_file()


def grid_csv_lines():
    """Header and ten rows at x = i / 100; rows 4 and 5 (lines 6 and 7)
    are missing."""
    rows = [f"{i / 100!r},{math.sin(0.3 * i)!r},1" for i in range(10)]
    rows[4:6] = ["0.04,nan,0", "0.05,nan,0"]
    return [PROFILE_HEADER, *rows]


def posterior_csv_lines():
    """Header and ten rows at the abscissas of ``grid_csv_lines``."""
    rows = [f"{i / 100!r},{math.sin(0.3 * i)!r},-1.5,1.5" for i in range(10)]
    return [POSTERIOR_HEADER, *rows]


def _perturbed(lines):
    lines[4] = "0.0251" + lines[4][lines[4].index(","):]
    return lines


def _field(row, field, value):
    """A corruption that sets field ``field`` of line ``row`` to ``value``."""
    def corrupt(lines):
        fields = lines[row].split(",")
        fields[field] = value
        lines[row] = ",".join(fields)
        return lines
    return corrupt


def _duplicated(lines):
    return lines[:4] + [lines[3]] + lines[4:]


def _reversed(lines):
    return lines[:1] + lines[:0:-1]


@pytest.mark.parametrize("reader, corrupt, line, message", [
    ("profile", _perturbed, 5, "not a uniform grid"),
    ("profile", _duplicated, 5, "strictly increasing"),
    ("profile", _reversed, 3, "strictly increasing"),
    ("profile", _field(3, 0, "nan"), 4, "must be finite"),
    ("posterior", _duplicated, 5, "strictly increasing"),
    ("posterior", _reversed, 3, "strictly increasing"),
    ("posterior", _field(3, 0, "nan"), 4, "abscissa must be finite"),
    ("posterior", _field(3, 0, "-inf"), 4, "abscissa must be finite"),
    ("posterior", _field(6, 2, "nan"), 7, "values must be finite"),
    ("posterior", _field(2, 3, "inf"), 3, "values must be finite"),
], ids=["perturbed-x", "duplicated-row", "reversed-rows", "nan-x",
        "posterior-duplicated-row", "posterior-reversed-rows", "posterior-nan-x",
        "posterior-inf-x", "posterior-nan-edge", "posterior-inf-edge"])
def test_malformed_abscissa_is_a_config_error_at_its_line(tmp_path, reader, corrupt, line,
                                                          message):
    lines = grid_csv_lines() if reader == "profile" else posterior_csv_lines()
    assert lines[4].startswith("0.03,")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(corrupt(list(lines))) + "\n")
    read = read_profile_csv if reader == "profile" else read_posterior_csv
    with pytest.raises(ConfigError, match=message) as exc_info:
        read(bad)
    assert exc_info.value.line == line
    if reader == "profile":
        runs = [["impute", "--model", "nn", "--in", str(bad),
                 "--out", str(tmp_path / "o.csv")]]
        error = f"error: line {line}: "
    else:
        # eval and plot read the posterior last and name it
        paths, _ = eval_fixture(tmp_path)
        inputs = ["--truth", str(paths["truth"]), "--imputed", str(paths["imputed"]),
                  "--posterior", str(bad)]
        runs = [["eval", "--masked", str(paths["masked"]), *inputs],
                ["plot", "--in", str(paths["masked"]), *inputs,
                 "--out", str(tmp_path / "p.svg")]]
        error = f"error: {bad}: line {line}: "
    for argv in runs:
        code, stderr = run_main(argv)
        assert code == 1 and stderr.startswith(error), (argv[0], stderr)
        assert stderr.count("\n") == 1 and "Traceback" not in stderr


def test_dropped_row_is_reported_where_the_step_breaks(tmp_path):
    # the gap moves the mean step off every step; the error names the
    # row after the dropped one (line 6), not the first row
    lines = grid_csv_lines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(ConfigError, match="not a uniform grid") as exc_info:
        read_profile_csv(bad)
    assert exc_info.value.line == 6


@pytest.mark.parametrize("argv, code", [
    (["--model", "gsm", "--wavelength-left", "0.1", "--wavelength-right", "0.1"], 1),
    (["--model", "sm", "--init-rsm", "0.1"], 1),
    (["--model", "gsm", "--wavelength-left", "0.1", "--wavelength-right", "0.1",
      "--init-rq", "0"], 2),
    (["--model", "sm", "--init-rsm", "0.1", "--init-rq", "-1"], 2),
    (["--model", "sm", "--init-rsm", "0"], 2),
], ids=["gsm-flat-data", "sm-flat-data", "gsm-rq-flag", "sm-rq-flag", "sm-rsm-flag"])
def test_zero_rq_of_the_data_is_a_domain_error_and_a_bad_flag_a_usage_error(
        tmp_path, argv, code):
    flat = profile_from_arrays(0.01 * np.arange(40), np.ones(40))
    src = tmp_path / "flat.csv"
    write_profile_csv(flat, src)
    got, stderr = run_main(["impute", "--seed", "1", *argv, "--in", str(src),
                            "--out", str(tmp_path / "o.csv")])
    assert got == code and "error: " in stderr
    assert ("Rq is 0" in stderr) == (code == 1)


def test_cli_mask_gradient_on_a_one_row_profile_is_a_data_fault(tmp_path):
    src = tmp_path / "one.csv"
    src.write_text(f"{PROFILE_HEADER}\n0.0,1.5,1\n")
    out = tmp_path / "out.csv"
    code, stderr = run_main(["mask", "--method", "gradient", "--threshold", "1",
                             "--in", str(src), "--out", str(out)])
    assert code == 1 and "error: gradient masking needs at least two points" in stderr
    assert not out.exists()


def test_cli_eval_and_plot_name_the_file_of_a_malformed_csv(tmp_path):
    paths, post = eval_fixture(tmp_path)
    for role in ("truth", "masked", "imputed", "posterior"):
        bad = tmp_path / f"bad-{role}.csv"
        lines = (post if role == "posterior" else paths[role]).read_text().splitlines()
        lines[3] = lines[3].replace(",", ",abc,", 1)
        bad.write_text("\n".join(lines) + "\n")
        files = {**{k: str(v) for k, v in paths.items()}, "posterior": str(post)}
        files[role] = str(bad)
        inputs = ["--truth", files["truth"], "--imputed", files["imputed"],
                  "--posterior", files["posterior"]]
        for argv in (["eval", "--masked", files["masked"], *inputs],
                     ["plot", "--in", files["masked"], *inputs,
                      "--out", str(tmp_path / "p.svg")]):
            code, stderr = run_main(argv)
            assert code == 1 and f"error: {bad}: line 4: " in stderr, (argv[0], stderr)


def test_cli_eval_reports_incomplete_or_unmasked_profiles_as_data_faults(tmp_path):
    masked, truth = toy_profile()
    paths = {}
    for name, prof in (("truth", truth), ("masked", masked)):
        paths[name] = str(tmp_path / f"{name}.csv")
        write_profile_csv(prof, paths[name])
    for truth_path, masked_path, imputed_path, message in [
        (paths["masked"], paths["masked"], paths["truth"], "must be complete"),
        (paths["truth"], paths["masked"], paths["masked"], "must be complete"),
        (paths["truth"], paths["truth"], paths["truth"], "no missing points"),
    ]:
        code, stderr = run_main(["eval", "--truth", truth_path, "--masked",
                                 masked_path, "--imputed", imputed_path])
        assert code == 1 and message in stderr


def corrupt_rows(rows, profile, kind, data):
    """Apply one corruption; returns (rows, first changed row, faulty).

    ``faulty`` is False only where the result is still a well-formed
    profile (e.g. a valid row flagged missing, or nan stored as the
    height of a missing row).
    """
    n = len(rows)
    draw = data.draw
    if kind == "drop":
        j = draw(st.integers(1, n - 2), label="row")
        return rows[:j] + rows[j + 1:], j, True
    if kind == "duplicate":
        j = draw(st.integers(0, n - 1), label="row")
        return rows[:j + 1] + rows[j:], j, True
    if kind == "swap":
        i = draw(st.integers(0, n - 2), label="row")
        j = draw(st.integers(i + 1, n - 1), label="other row")
        out = list(rows)
        out[i], out[j] = out[j], out[i]
        return out, i, True
    j = draw(st.integers(0, n - 1), label="row")
    fields = rows[j].split(",")
    valid = bool(profile.valid[j])
    if kind == "perturb-x":
        frac = draw(st.floats(0.01, 0.9) | st.floats(-0.9, -0.01), label="shift")
        fields[0] = repr(float(profile.x[j] + frac * profile.dx))
        faulty = True
    elif kind == "flag":
        fields[2] = draw(st.sampled_from(["0", "1", "2", "-1", "1.0", "yes", ""]),
                         label="flag")
        faulty = fields[2] not in ("0", "1") or (fields[2] == "1" and not valid)
    else:
        col = draw(st.integers(0, 2), label="field")
        fields[col] = {"text": "abc", "nan": "nan", "inf": "inf"}[kind]
        # a missing row may store any height that parses
        faulty = not (col == 1 and not valid and kind != "text")
    out = list(rows)
    out[j] = ",".join(fields)
    return out, j, faulty


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["drop", "duplicate", "swap", "text", "nan", "inf",
                             "flag", "perturb-x"]),
       role=st.sampled_from(["masked", "truth", "imputed"]), data=st.data())
def test_cli_corrupted_profile_files_exit_cleanly(kind, role, data,
                                                  tmp_path_factory):
    # impute reads the masked file; eval reads all three, one corrupted
    masked, truth = toy_profile()
    profiles = {"masked": masked, "truth": truth,
                "imputed": impute_constant(masked, "mean")}
    tmp = tmp_path_factory.mktemp("corrupt")
    paths = {}
    for name, prof in profiles.items():
        paths[name] = tmp / f"{name}.csv"
        write_profile_csv(prof, paths[name])
    lines = paths[role].read_text().splitlines()
    rows, first, faulty = corrupt_rows(lines[1:], profiles[role], kind, data)
    paths[role].write_text("\n".join([lines[0], *rows]) + "\n")

    runs = [["eval", "--truth", str(paths["truth"]), "--masked",
             str(paths["masked"]), "--imputed", str(paths["imputed"])]]
    if role == "masked":
        runs.append(["impute", "--model", "nn", "--in", str(paths["masked"]),
                     "--out", str(tmp / "out.csv")])
    for argv in runs:
        code, stderr = run_main(argv)
        assert "Traceback" not in stderr
        if faulty:
            # data rows start at line 2; a row's fault may only show at
            # the row after it (a shifted step, a duplicate, a swap)
            assert code == 1
            # eval reads three files and names the one at fault
            named = f"{paths[role]}: " if argv[0] == "eval" else ""
            assert any(f"error: {named}line {first + k}: " in stderr
                       for k in (2, 3)), stderr
        else:
            assert code in (0, 1, 2)
            assert code == 0 or "error: " in stderr
