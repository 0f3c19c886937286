import warnings

import numpy as np
import pytest

from stabledyn.systems import (LINEAR_A, SYSTEMS, generate_transitions,
                               grid_starts, linear_step, load_transitions, lorenz_rhs,
                               rk4_step, saturated_rhs, save_transitions,
                               sde_diffusion, sde_drift, simulate,
                               solve_discrete_lyapunov, srk2_step, system_step)


def test_rk4_matches_fourth_order_taylor_on_linear_decay():
    # x' = -x from 1.0 with h = 0.1: the step is the degree-4 Taylor
    # polynomial of exp(-h), which is 0.9048375 exactly in decimal
    out = rk4_step(lambda x: -x, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(0.9048375, abs=1e-15)


def _saturated_endpoint(h, T, stepper):
    x = np.array([0.2, 0.1])
    for _ in range(round(T / h)):
        x = stepper(x, h)
    return x


def test_rk4_error_shrinks_sixteenfold_per_halving():
    from stabledyn.systems import saturated_rhs
    step = lambda x, h: rk4_step(saturated_rhs, x, h)
    ref = _saturated_endpoint(1e-4, 2.0, step)
    e1 = np.linalg.norm(_saturated_endpoint(0.1, 2.0, step) - ref)
    e2 = np.linalg.norm(_saturated_endpoint(0.05, 2.0, step) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_zero_diffusion_reduces_srk2_to_heun():
    from stabledyn.systems import saturated_rhs
    rng = np.random.default_rng(0)
    x = np.array([1.3, -0.4])
    h = 0.05
    got = srk2_step(saturated_rhs, lambda s: np.zeros((2, 2)), x, h, rng)
    k1 = h * saturated_rhs(x)
    k2 = h * saturated_rhs(x + k1)
    assert np.array_equal(got, x + 0.5 * (k1 + k2))


def test_srk2_drift_order_is_two():
    from stabledyn.systems import saturated_rhs
    rng = np.random.default_rng(1)
    zero = lambda s: np.zeros((2, 2))
    step = lambda x, h: srk2_step(saturated_rhs, zero, x, h, rng)
    rk4 = lambda x, h: rk4_step(saturated_rhs, x, h)
    ref = _saturated_endpoint(1e-4, 2.0, rk4)
    e1 = np.linalg.norm(_saturated_endpoint(0.2, 2.0, step) - ref)
    e2 = np.linalg.norm(_saturated_endpoint(0.1, 2.0, step) - ref)
    assert 3.3 < e1 / e2 < 4.7


def test_srk2_constant_coefficient_moments():
    # constant drift mu and diffusion c*I collapse the scheme to
    # x + h*mu + c*dW, so the increment moments are exact
    mu = np.array([0.3, -0.2])
    c = np.array([0.5, 0.8])
    h = 0.05
    rng = np.random.default_rng(2)
    N = 20000
    inc = np.empty((N, 2))
    for i in range(N):
        inc[i] = srk2_step(lambda x: mu, lambda x: np.diag(c),
                           np.zeros(2), h, rng)
    assert np.allclose(inc.mean(0), h * mu, atol=4e-3)
    assert np.allclose(inc.var(0), c * c * h, rtol=0.1)


def test_linear_step_noiseless_and_noisy():
    x = np.array([2.0, -3.0])
    assert np.array_equal(linear_step(x, None), LINEAR_A @ x)
    with pytest.raises(ValueError):
        linear_step(x, None, b=0.1)
    rng = np.random.default_rng(3)
    out = linear_step(x, rng, b=0.1)
    w = np.random.default_rng(3).standard_normal()
    assert np.allclose(out, LINEAR_A @ x + 0.1 * x * w, rtol=1e-15)


def test_sde_drift_vanishes_at_origin():
    assert np.array_equal(sde_drift(np.zeros(2)), np.zeros(2))
    d = sde_diffusion(np.array([0.5, 2.0]))
    assert np.array_equal(d, np.diag([np.sin(0.5), 2.0]))
    with pytest.raises(ValueError):
        system_step("sde", np.ones(2))


def test_sde_field_hand_values():
    # at (1,0) the radius is 1, so the field reads (-1-1+0, 0-0+1)
    assert sde_drift(np.array([1.0, 0.0])) == pytest.approx([-2.0, 1.0], abs=1e-15)
    d = sde_diffusion(np.array([np.pi / 2, 1.0]))
    assert np.diag(d) == pytest.approx([1.0, 1.0], abs=1e-15)


def test_saturated_field_hand_values():
    assert np.array_equal(saturated_rhs(np.zeros(2)), np.zeros(2))
    # the input saturates at +-1: active at 0.5, clipped at 2 and -3
    assert saturated_rhs(np.array([0.5, 0.0]))[1] == pytest.approx(-np.sin(0.5) - 1.0)
    assert saturated_rhs(np.array([2.0, 0.0]))[1] == pytest.approx(-np.sin(2.0) - 2.0)
    assert saturated_rhs(np.array([-3.0, 0.0]))[1] == pytest.approx(np.sin(3.0) + 2.0)


def test_saturated_reference_v_decreases_after_transient():
    # V = p^2 + v^2/2 + 1 - cos p is a certificate for the continuous flow;
    # early steps may climb while the trajectory whirls, so only the tail of
    # each rollout is held to monotone decrease
    rng = np.random.default_rng(21)
    for _ in range(20):
        traj = simulate("saturated", rng.uniform(-6, 6, size=2), 200)
        p, v = traj[:, 0], traj[:, 1]
        V = p * p + 0.5 * v * v + 1.0 - np.cos(p)
        assert np.all(np.diff(V[170:]) <= 1e-12)
        assert V[-1] < 1e-8


def test_lorenz_field_hand_values_and_boundedness():
    assert np.array_equal(lorenz_rhs(np.zeros(3)), np.zeros(3))
    f = lorenz_rhs(np.ones(3))
    assert f == pytest.approx([0.0, 26.0, 1.0 - 8.0 / 3.0], abs=1e-15)
    traj = simulate("lorenz", np.ones(3), 3000)
    assert np.abs(traj).max() < 100.0


def test_unknown_system_rejected():
    with pytest.raises((ValueError, KeyError)):
        system_step("vanderpol", np.ones(2))


def test_simulate_shapes():
    traj = simulate("saturated", [1.0, 0.0], 30)
    assert traj.shape == (31, 2)
    assert np.isfinite(traj).all()
    traj3 = simulate("lorenz", np.ones(3), 50)
    assert traj3.shape == (51, 3)
    assert np.isfinite(traj3).all()


def test_scalar_lyapunov_solutions():
    # a=0.9, b=0: p (1 - a^2) = q  ->  p = 1/0.19
    P = solve_discrete_lyapunov(np.array([[0.9]]), 0.0, np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(1.0 / 0.19, rel=1e-14)
    # a=b=0.5: p (1 - 0.25 - 0.25) = 1  ->  p = 2
    P = solve_discrete_lyapunov(np.array([[0.5]]), 0.5, np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(2.0, rel=1e-14)


def test_lyapunov_matrix_residual_and_definiteness():
    B = 0.1
    Q = np.eye(2)
    P = solve_discrete_lyapunov(LINEAR_A, B, Q)
    res = LINEAR_A.T @ P @ LINEAR_A + (B * B) * P - P + Q
    assert np.abs(res).max() < 1e-10
    assert np.min(np.linalg.eigvalsh(P)) > 0.0


def test_unstable_map_has_no_certificate():
    # 0.81 + 0.25 > 1: second moments grow, no PD solution
    with pytest.raises(ValueError):
        solve_discrete_lyapunov(np.array([[0.9]]), 0.5, np.array([[1.0]]))


def test_nan_map_has_no_certificate():
    # P = [[nan]] fails no "<= 0" test, yet certifies nothing
    with pytest.raises(np.linalg.LinAlgError):
        solve_discrete_lyapunov(np.array([[np.nan]]), 0.0, np.eye(1))


def test_misshaped_matrices_are_refused_by_name():
    I2 = np.eye(2)
    for args, name in (((np.array([[0.9, 1.0]]), 0.0, np.eye(1)), "A"),
                       ((LINEAR_A, np.array([[0.1, 0.2]]), I2), "B"),
                       ((LINEAR_A, 0.1, np.ones((3, 2))), "Q")):
        with pytest.raises(ValueError, match=f"^{name} "):
            solve_discrete_lyapunov(*args)


def test_grid_covers_square_without_origin():
    starts = grid_starts(-6.0, 6.0, 14)
    assert starts.shape == (196, 2)
    assert len(np.unique(starts, axis=0)) == 196
    assert starts.min() == -6.0 and starts.max() == 6.0
    assert np.linalg.norm(starts, axis=1).min() > 0.4


def test_linear_transitions_follow_the_map():
    X, Y, meta = generate_transitions("linear", steps=3, grid_points=3)
    assert X.shape == (27, 2) and Y.shape == (27, 2)
    for xr, yr in zip(X, Y):
        assert np.array_equal(yr, LINEAR_A @ xr)
    assert meta["system"] == "linear" and meta["steps"] == 3
    assert meta["grid"] == {"lo": -6.0, "hi": 6.0, "points": 3}


def test_single_trajectory_regenerates_from_stream_seed():
    X, Y, meta = generate_transitions("linear", seed=7, steps=5,
                                      grid_points=4, b=0.3)
    starts = grid_starts(-6.0, 6.0, 4)
    i = 9
    traj = simulate("linear", starts[i], 5, seed=7 + i, b=0.3)
    sl = slice(i * 5, (i + 1) * 5)
    assert np.array_equal(X[sl], traj[:-1])
    assert np.array_equal(Y[sl], traj[1:])


@pytest.mark.parametrize("system, points", [
    ("saturated", 4), ("sde", 3), ("linear", 4), ("linear-stoch", 4),
])
def test_every_grid_trajectory_regenerates_from_its_stream_seed(system, points):
    # sde's 3-point grid holds the origin
    steps, seed = 6, 11
    X, Y, _ = generate_transitions(system, seed=seed, steps=steps, grid_points=points)
    starts = grid_starts(-6.0, 6.0, points)
    for i, start in enumerate(starts):
        traj = simulate(system, start, steps, seed=seed + i)
        rows = slice(i * steps, (i + 1) * steps)
        assert np.array_equal(X[rows], traj[:-1]) and np.array_equal(Y[rows], traj[1:])


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_batched_simulate_row_is_the_one_start_run(system):
    dim = SYSTEMS[system].dim
    starts = np.random.default_rng(8).uniform(-4.0, 4.0, size=(5, dim))
    starts[2] = 0.0
    batch = simulate(system, starts, 12, seed=30)
    assert batch.shape == (5, 13, dim)
    for i, start in enumerate(starts):
        one = simulate(system, start, 12, seed=30 + i)
        assert np.array_equal(batch[i], one)
        assert np.array_equal(np.signbit(batch[i]), np.signbit(one))


def test_sde_grid_through_the_origin_warns_nothing():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        X, Y, _ = generate_transitions("sde", seed=2, steps=4, grid_points=3)
    origin = np.flatnonzero((X == 0.0).all(axis=1))
    assert origin.size
    # the drift and the diffusion both vanish there, so the state stays put
    assert np.array_equal(Y[origin], np.zeros((origin.size, 2)))


@pytest.mark.parametrize("system, x0, kw", [
    ("saturated", 1.0, {}), ("saturated", np.ones((2, 2, 2)), {}),
    ("saturated", np.ones(3), {}), ("lorenz", np.ones(2), {}),
    ("saturated", np.ones((4, 3)), {}), ("saturated", np.ones((0, 2)), {}),
    ("saturated", [np.inf, 1.0], {}), ("sde", [np.nan, 1.0], dict(seed=0)),
    ("linear-stoch", [[1.0, 2.0], [np.nan, 1.0]], dict(seed=0)),
], ids=["ndim-0", "ndim-3", "three-coords", "lorenz-two-coords", "batch-three-coords",
        "empty-batch", "inf", "nan", "nan-in-batch"])
def test_simulate_refuses_a_start_it_cannot_step_by_name(system, x0, kw):
    with pytest.raises(ValueError, match="^x0 "):
        simulate(system, x0, 3, **kw)


def test_lorenz_dataset_is_one_long_trajectory():
    X, Y, meta = generate_transitions("lorenz", steps=120)
    assert X.shape == (120, 3)
    assert np.array_equal(X[1:], Y[:-1])
    assert np.array_equal(X[0], np.ones(3))
    assert meta["grid"] is None and meta["h"] == 0.01


def test_saved_transitions_round_trip_bit_exactly(tmp_path):
    X, Y, meta = generate_transitions("sde", seed=2, steps=4, grid_points=3)
    p = tmp_path / "data.csv"
    save_transitions(p, X, Y, meta)
    X2, Y2, meta2 = load_transitions(p)
    assert np.array_equal(X, X2)
    assert np.array_equal(Y, Y2)
    assert meta2 == meta


@pytest.mark.parametrize("text, match", [
    ("", "line 1: need the header"),
    ("x1,y1,x2,y2\n1,2,3,4\n", "line 1: need the header"),
    ("x1,x2,y1,y2\n1,2,3\n", "line 2: 3 values, the header names 4"),
    ("x1,x2,y1,y2\n1,2,3,4,5\n", "line 2: 5 values, the header names 4"),
    ("x1,x2,y1,y2\n1,2,3,4\n1,2,3,4\n1,2,3\n", "line 4: 3 values"),
    ("x1,x2,y1,y2\n1,2,3,four\n", "line 2: could not convert"),
    ("x1,x2,y1,y2\n", "holds no transition rows"),
], ids=["empty", "header-order", "short-row", "long-row", "ragged", "text", "no-rows"])
def test_a_malformed_transitions_file_is_refused_by_line(tmp_path, text, match):
    p = tmp_path / "data.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_transitions(p)


def test_linear_stoch_is_the_linear_map_with_its_own_gain():
    X, Y, meta = generate_transitions("linear-stoch", seed=4, steps=5, grid_points=3)
    X2, Y2, meta2 = generate_transitions("linear", seed=4, steps=5, grid_points=3, b=0.1)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
    assert meta["b"] == 0.1 and meta == {**meta2, "system": "linear-stoch"}
    assert generate_transitions("linear", steps=2, grid_points=2)[2]["b"] == 0.0


@pytest.mark.parametrize("system, kw", [
    ("saturated", dict(h=float("nan"))), ("saturated", dict(h=0.0)),
    ("saturated", dict(h=-0.1)), ("saturated", dict(h=float("inf"))),
    ("linear", dict(b=float("inf"))), ("linear", dict(b=float("nan"))),
], ids=["h-nan", "h-zero", "h-negative", "h-inf", "b-inf", "b-nan"])
def test_simulate_refuses_a_step_or_gain_that_cannot_simulate(system, kw):
    (name,) = kw
    with pytest.raises(ValueError, match=f"^{name} must be"):
        simulate(system, np.ones(2), 3, seed=0, **kw)


@pytest.mark.parametrize("system, kw", [
    ("saturated", dict(b=0.5)), ("lorenz", dict(b=0.0)), ("linear", dict(h=0.3)),
    ("linear-stoch", dict(h=0.1)),
], ids=["saturated-b", "lorenz-b", "linear-h", "linear-stoch-h"])
def test_a_step_or_gain_the_system_never_reads_is_refused_by_name(system, kw):
    # taken silently, it would equal the run without it and yet be recorded
    (name,) = kw
    dim = SYSTEMS[system].dim
    with pytest.raises(ValueError, match=f"^{name} is not read by the {system} system"):
        simulate(system, np.ones(dim), 3, seed=0, **kw)
    with pytest.raises(ValueError, match=f"^{name} is not read"):
        generate_transitions(system, steps=2, grid_points=2, **kw)


@pytest.mark.parametrize("points", [0, -3])
def test_grid_count_below_one_is_refused_by_name(points):
    with pytest.raises(ValueError, match="grid_points must be at least 1"):
        generate_transitions("saturated", steps=2, grid_points=points)


@pytest.mark.parametrize("steps,named", [(2.5, "an integer, got 2.5"), (True, "an integer, got True"),
                                         ("3", "an integer, got '3'")])
def test_a_step_count_that_is_not_an_integer_is_refused_by_name(steps, named):
    # 2.5 used to end in numpy's TypeError, and True simulated one step
    with pytest.raises(ValueError, match=f"^steps must be {named}"):
        simulate("linear", np.ones(2), steps)
    with pytest.raises(ValueError, match=f"^steps must be {named}"):
        generate_transitions("linear", steps=steps, grid_points=2)
