"""Gradient-ascent maximizer and the finite-difference oracle."""

import numpy as np
import pytest

from surfimpute import OptConfig
from surfimpute.optimize import EPS, STEP, OptTrace, maximize, maximize_restarts

from oracles import fd_gradient


def neg_quadratic_1d(x):
    v = -((x[0] - 3.0) ** 2)
    return v, np.array([-2.0 * (x[0] - 3.0)])


def bowl(x):
    v = -x[0] ** 2 - 10.0 * x[1] ** 2
    return v, np.array([-2.0 * x[0], -20.0 * x[1]])


def test_maximize_finds_1d_optimum():
    # neg_quadratic_1d in units of 5 x: Adam's moves do not depend on the
    # gradient's scale, so a fixed step STEP in x is a step 5 STEP there
    def fun(x):
        v, g = neg_quadratic_1d(5.0 * x)
        return v, 5.0 * g

    x, trace = maximize(fun, np.array([0.0]), OptConfig(max_iterations=2000))
    assert abs(5.0 * x[0] - 3.0) < 1e-3
    assert trace.termination == "max_iterations"


def test_correlated_quadratic_matches_closed_form():
    # f(x) = -0.5 x^T A x + b^T x, maximum at A^-1 b
    a = np.array([[3.0, 1.2], [1.2, 2.0]])
    b = np.array([1.0, -2.0])
    x_star = np.linalg.solve(a, b)

    def fun(x):
        return -0.5 * x @ a @ x + b @ x, b - a @ x

    x, trace = maximize(fun, np.zeros(2), OptConfig())
    assert trace.n_iterations <= 500
    assert np.max(np.abs(x - x_star)) < 1e-3


def test_maximize_deterministic():
    runs = []
    for _ in range(2):
        x, trace = maximize(bowl, np.array([1.0, 1.0]),
                            OptConfig(max_iterations=200))
        runs.append((x.copy(), list(trace.objectives)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_maximize_rejects_nonfinite_start():
    def fun(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(ValueError):
        maximize(fun, np.array([0.0]))


def test_maximize_survives_nonfinite_mid_run():
    # objective blows up away from the start; best finite iterate returned
    def fun(x):
        if abs(x[0]) > 0.5:
            return float("-inf"), np.zeros(1)
        return -x[0] ** 2 + 0.0, np.array([-2.0 * x[0] + 4.0])  # pushes right

    x, trace = maximize(fun, np.array([0.0]), OptConfig(max_iterations=300))
    assert np.isfinite(max(trace.objectives))
    assert trace.termination == "nonfinite"


def test_flat_objective_keeps_a_fixed_step_to_the_cap():
    # no iterate ever improves on the start, yet every step stays full:
    # the step never shrinks and the run ends only at the cap
    g = np.array([0.5, -2.0, 1e-3])
    cap = 40
    cfg = OptConfig(max_iterations=cap)
    seen = []

    def fun(x):
        seen.append(x.copy())
        return 0.0, g

    x, trace = maximize(fun, np.zeros(3), cfg)
    moves = np.diff(np.array(seen), axis=0)
    assert moves.shape == (cap, 3)
    expected = STEP * g / (np.abs(g) + EPS)
    np.testing.assert_allclose(moves, np.broadcast_to(expected, moves.shape),
                               rtol=1e-12, atol=0.0)
    assert trace.n_iterations == cap
    assert len(trace.objectives) == cap + 1
    assert trace.termination == "max_iterations"
    assert np.array_equal(x, np.zeros(3))


def test_trace_csv_round_trip(tmp_path):
    # LF line ends, as every CSV the package writes, and values that
    # read back bitwise
    _, trace = maximize(bowl, np.array([1.0, 1.0]), OptConfig(max_iterations=50))
    values = trace.objectives + [-1.0 / 3.0, -0.0, 5e-324, -1.7976931348623157e308]
    path = tmp_path / "trace.csv"
    OptTrace(objectives=values).write_csv(path)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode().split("\n")
    assert lines[0] == "iteration,objective" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [int(i) for i, _ in rows] == list(range(len(values)))
    back = np.array([float(v) for _, v in rows])
    assert np.array_equal(back.view(np.uint64), np.array(values).view(np.uint64))


def test_config_validation():
    with pytest.raises(ValueError):
        OptConfig(max_iterations=0)


def test_fd_gradient_linear():
    g = fd_gradient(lambda x: 2.0 * x[0] + 3.0 * x[1], np.array([0.3, -0.7]))
    assert np.max(np.abs(g - [2.0, 3.0])) < 1e-9


def test_fd_gradient_quadratic():
    g = fd_gradient(lambda x: x[0] ** 2, np.array([1.0]))
    assert abs(g[0] - 2.0) < 1e-8


def test_quadratic_gradient_norm_small_at_convergence():
    # each quadratic in units of 2 x, so that the fixed step STEP in x is
    # a step 2 STEP in the quadratic's own coordinates
    rng = np.random.default_rng(1)
    cfg = OptConfig(max_iterations=20000)
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        a = m @ m.T + 0.5 * np.eye(3)
        b = rng.standard_normal(3)
        x_star = np.linalg.solve(a, b)

        def fun(u, a=a, b=b):
            x = 2.0 * u
            return -0.5 * x @ a @ x + b @ x, 2.0 * (b - a @ x)

        x = 2.0 * maximize(fun, np.zeros(3), cfg)[0]
        grad_norm = np.linalg.norm(b - a @ x)
        assert grad_norm < 1e-4 * (1.0 + np.linalg.norm(x_star))


def test_restarts_deterministic_and_not_worse():
    def fun(x):
        return bowl(x)

    x0 = np.array([1.0, 1.0])
    cfg = OptConfig(max_iterations=150)
    xa, ta, traces_a = maximize_restarts(fun, x0, cfg, n_restarts=3, seed=42)
    xb, tb, traces_b = maximize_restarts(fun, x0, cfg, n_restarts=3, seed=42)
    assert np.array_equal(xa, xb)
    assert len(traces_a) == 3
    single, ts = maximize(fun, x0, cfg)
    assert max(ta.objectives) >= max(ts.objectives) - 1e-12
