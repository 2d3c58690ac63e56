"""The end-to-end studies at small settings: the files ``outdir`` holds."""

import pytest

from surfimpute.experiments import run_chirp_experiment, run_turned_experiment

STUDIES = {
    "turned": (run_turned_experiment, "turned_seed3",
               dict(seed=3, n=300, dale_count=1, max_iterations=10, n_restarts=1)),
    "chirp": (run_chirp_experiment, "chirp_seed2",
              dict(seed=2, n=300, n_latent=10, max_iterations=10)),
}
SUFFIXES = {"_truth.csv", "_masked.csv", "_imputed.csv", "_posterior.csv", ".svg",
            "_report.txt"}


@pytest.mark.parametrize("name", list(STUDIES))
def test_outdir_holds_every_file_twice_the_same_and_the_returned_metrics(tmp_path, name):
    run, tag, settings = STUDIES[name]
    first = run(**settings, outdir=str(tmp_path / "first"))
    second = run(**settings, outdir=str(tmp_path / "second"))
    assert first == second
    expected = {tag + s for s in SUFFIXES}
    assert {p.name for p in (tmp_path / "first").iterdir()} == expected
    for file in expected:
        assert (tmp_path / "first" / file).read_bytes() == \
            (tmp_path / "second" / file).read_bytes(), file

    report = (tmp_path / "first" / f"{tag}_report.txt").read_text().split("\n\n")[0]
    pairs = dict(line.split(" = ") for line in report.splitlines())
    assert pairs.keys() == first.keys()
    for key, value in first.items():
        assert type(value)(pairs[key]) == value, key
