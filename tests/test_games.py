"""Game catalog, drift/payoff evaluation, and Isaacs condition checks."""

import json

import numpy as np
import pytest

import latticegames as lg
from latticegames.games import CATALOG, drift_affine, drift_zero, game_from_dict, payoff_linear
from oracles import check_isaacs


def test_g1_shape():
    spec = lg.g1()
    assert spec.d == 1
    assert spec.T == 1.0
    assert spec.u_grid == (-1.0, 0.0, 1.0)
    assert spec.v_grid == (-0.5, 0.0, 0.5)
    assert spec.R == 1.0 and spec.M1 == 1.5 and spec.K1 == 0.0


def test_g1_drift_values():
    spec = lg.g1()
    assert spec.drift(0.0, [0.3], 1.0, 0.5).tolist() == [1.5]
    assert spec.drift(0.7, [-2.0], -1.0, 0.5).tolist() == [-0.5]


def test_g1_closed_form():
    spec = lg.g1()
    assert spec.closed_form(0.0, [2.0]) == 1.5
    assert spec.closed_form(0.0, [0.25]) == 0.0
    assert spec.closed_form(1.0, [0.25]) == 0.25
    assert spec.closed_form(0.5, [-1.0]) == 0.75


def test_g2_drift_values():
    spec = lg.g2()
    # f = (v*x2 - u, u*x1 + v)
    f = spec.drift(0.0, [2.0, -1.0], 1.0, -1.0)
    assert f.tolist() == [0.0, 1.0]


def test_payoff():
    spec = lg.g1()
    assert spec.payoff([-0.75]) == 0.75
    spec2 = lg.g2()
    assert spec2.payoff([3.0, 4.0]) == 5.0


def test_payoff_batch_matches_scalar():
    spec = lg.g2()
    states = np.array([[0.0, 1.0], [3.0, 4.0], [-1.0, -1.0]])
    batch = lg.payoff_batch(spec, states)
    singles = [spec.payoff(x) for x in states]
    assert batch.tolist() == singles


def test_drift_batch_matches_scalar():
    rng = np.random.default_rng(0)
    for spec in (lg.g1(), lg.g2()):
        states = rng.uniform(-2, 2, size=(7, spec.d))
        for u in spec.u_grid:
            for v in spec.v_grid:
                batch = lg.drift_batch(spec, 0.3, states, u, v)
                rows = np.stack([spec.drift(0.3, x, u, v) for x in states])
                assert np.array_equal(batch, rows)


def test_isaacs_holds_on_catalog():
    # both catalog drifts are control-separable, so minmax == maxmin exactly
    for name in CATALOG:
        rep = check_isaacs(lg.load_game(name), n_samples=100, seed=3)
        assert rep.max_gap == 0.0
        assert rep.n_samples == 100


def test_isaacs_reports_gap_when_violated():
    # coupled control term u*v makes the order of commitment matter
    spec = lg.GameSpec(
        name="coupled", d=1, T=1.0,
        drift=lambda t, x, u, v: np.array([u * v]),
        u_grid=(-1.0, 1.0), v_grid=(-1.0, 1.0),
        payoff=lambda x: abs(float(np.atleast_1d(x)[0])),
        R=1.0, M1=1.0, K1=0.0)
    rep = check_isaacs(spec, n_samples=50, seed=0)
    assert rep.max_gap > 0.1


def test_check_isaacs_deterministic():
    spec = lg.g1()
    a = check_isaacs(spec, n_samples=64, seed=9)
    b = check_isaacs(spec, n_samples=64, seed=9)
    assert a.max_gap == b.max_gap


def test_gamespec_validation():
    kw = dict(name="x", d=1, T=1.0, drift=drift_zero(), u_grid=(0.0,),
              v_grid=(0.0,), payoff=lambda x: 0.0, R=1.0, M1=1.0, K1=0.0)
    with pytest.raises(lg.GameSpecError):
        lg.GameSpec(**{**kw, "d": 0})
    with pytest.raises(lg.GameSpecError):
        lg.GameSpec(**{**kw, "T": 0.0})
    with pytest.raises(lg.GameSpecError):
        lg.GameSpec(**{**kw, "u_grid": ()})
    with pytest.raises(lg.GameSpecError):
        lg.GameSpec(**{**kw, "M1": -1.0})
    with pytest.raises(lg.GameSpecError):
        lg.GameSpec(**{**kw, "K1": -0.5})


def test_affine_drift_factory():
    f = drift_affine(a=[[0.0, 1.0], [-1.0, 0.0]], bu=[[1.0], [0.0]],
                     bv=[[0.0], [1.0]], c=[0.5, -0.5])
    out = f(0.0, np.array([1.0, 2.0]), 2.0, -1.0)
    # A x + Bu u + Bv v + c = (2, -1) + (2, 0) + (0, -1) + (0.5, -0.5)
    assert np.allclose(out, [4.5, -2.5])


def test_payoff_linear():
    g = payoff_linear([2.0, -1.0])
    assert g(np.array([3.0, 4.0])) == 2.0


def test_game_from_dict_roundtrip(tmp_path):
    data = {
        "d": 1, "T": 1.0,
        "drift": {"kind": "control_sum"},
        "u_grid": [-1.0, 0.0, 1.0], "v_grid": [-0.5, 0.0, 0.5],
        "payoff": {"kind": "norm"},
        "R": 1.0, "M1": 1.5, "K1": 0.0,
    }
    spec = game_from_dict(data, name="mine")
    assert spec.name == "mine"
    assert spec.drift(0.0, [0.0], 1.0, 0.5).tolist() == [1.5]

    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    spec2 = lg.load_game(path)
    assert spec2.d == 1 and spec2.M1 == 1.5


def test_game_from_dict_rejects_bad_input():
    with pytest.raises(lg.GameSpecError):
        game_from_dict({"d": 1})
    with pytest.raises(lg.GameSpecError):
        game_from_dict({"d": 1, "T": 1.0, "drift": {"kind": "nope"},
                        "u_grid": [0.0], "v_grid": [0.0],
                        "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0})


AFFINE_1D = {"kind": "affine", "a": [[0]], "bu": [[1]], "bv": [[1]], "c": [0]}


@pytest.mark.parametrize("fields", [
    pytest.param({"T": "abc"}, id="T-abc"),
    pytest.param({"d": "two"}, id="d-two"),
    pytest.param({"u_grid": 5}, id="u_grid-5"),
    pytest.param({"v_grid": [["a"]]}, id="v_grid-value3"),
    pytest.param({"M1": None}, id="M1-None"),
    pytest.param({"drift": {**AFFINE_1D, "a": [["x"]]}}, id="drift-value5"),
    # d is a JSON integer, not a float or a boolean
    pytest.param({"d": 1.7}, id="d-1.7"),
    pytest.param({"d": True}, id="d-true"),
    # a grid entry has as many numbers as its player's drift channel
    pytest.param({"u_grid": [[0.5, 1.0]]}, id="control_sum-vector-u"),
    pytest.param({"d": 2, "drift": {"kind": "rotation_mix"}, "v_grid": [[1, 0]]},
                 id="rotation_mix-vector-v"),
    pytest.param({"drift": AFFINE_1D, "u_grid": [[1, -0.5], [-1, 0.5]]}, id="affine-wide-u"),
    pytest.param({"drift": {**AFFINE_1D, "bu": [[1, 1]]}}, id="affine-scalar-u"),
    pytest.param({"drift": {**AFFINE_1D, "bv": [[1, 1]]}, "v_grid": [[1, 0, 0]]},
                 id="affine-wide-v"),
    # a number is a JSON number: float() would read true as 1.0 and "2.5" as 2.5
    pytest.param({"T": True}, id="T-true"),
    pytest.param({"M1": True}, id="M1-true"),
    pytest.param({"K1": False}, id="K1-false"),
    pytest.param({"R": "2.5"}, id="R-string"),
    pytest.param({"u_grid": ["1", "-1"]}, id="u_grid-strings"),
    pytest.param({"u_grid": [True, False]}, id="u_grid-booleans"),
    pytest.param({"u_grid": "12"}, id="u_grid-string"),
    pytest.param({"drift": {**AFFINE_1D, "c": [True]}}, id="affine-c-true"),
    pytest.param({"payoff": {"kind": "constant", "value": True}}, id="constant-value-true"),
    pytest.param({"payoff": {"kind": "norm", "center": ["0.5"]}}, id="norm-center-string"),
])
def test_game_from_dict_wraps_malformed_fields(fields):
    data = {"d": 1, "T": 1, "drift": {"kind": "control_sum"}, "u_grid": [0], "v_grid": [1],
            "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0, **fields}
    with pytest.raises(lg.GameSpecError, match="malformed game definition"):
        game_from_dict(data)


def test_game_from_dict_takes_controls_of_the_drift_width():
    data = {"d": 1, "T": 1, "drift": {**AFFINE_1D, "bu": [[1, 2]]}, "u_grid": [[1, -0.5]],
            "v_grid": [[0.5]], "payoff": {"kind": "norm"}, "R": 1, "M1": 1, "K1": 0}
    spec = game_from_dict(data)
    assert spec.u_grid == ((1.0, -0.5),) and spec.v_grid == (0.5,)
    # 0 x + (1 * 1 + 2 * -0.5) + 1 * v: v moves the drift
    for v in (0.5, -0.5):
        assert lg.drift_batch(spec, 0.0, np.array([[2.0]]), spec.u_grid[0], v).tolist() == [[v]]
    # the zero drift reads no control: entries of any width
    spec = game_from_dict({**data, "drift": {"kind": "zero"}, "u_grid": [[1, 2, 3], 0]})
    assert spec.u_grid == ((1.0, 2.0, 3.0), 0.0)


def test_load_game_unknown_source():
    with pytest.raises(lg.GameSpecError):
        lg.load_game("not_a_game_or_file")
