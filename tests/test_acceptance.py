"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every expected value is either closed-form arithmetic on declared constants
or is cross-checked in-test against an independent oracle implemented here
with no package code on the oracle path.
"""

import json
import math
import warnings

import numpy as np
import pytest

import latticegames as lg
from latticegames.chain import LatticeDomain
from latticegames.cli import main as cli_main
from oracles import solve_rk4

H_SWEEP = (0.1, 0.05, 0.025, 0.0125)
X0_SET = (0.0, 0.5, -0.5, 1.0, -1.0)
C2 = math.sqrt(1.5) * math.e   # sqrt(M1) * sqrt(T e^{2T}) for the 1-d catalog game
C1 = math.e                    # sqrt(d) * C
GUARANTEE = math.e * math.sqrt(0.075)  # C sqrt(Theta) at h = 0.05


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def closed_form_value(x0: float) -> float:
    return max(abs(x0) - 0.5, 0.0)


# ---------------------------------------------------------------------------
# independent oracles for the catalog closed form (no package code used)


def upwind_oracle(dx: float, box: float = 4.0, T: float = 1.0):
    """Monotone Godunov scheme for the eroding-front limit equation.

    Backward value V(tau = T - t) obeys V_tau = -0.5 |V_x| from V(0) = |x|;
    the Rouy-Tourin gradient keeps the scheme monotone at Courant 0.25.
    """
    xs = np.arange(-round(box / dx), round(box / dx) + 1) * dx
    V = np.abs(xs)
    dt = 0.5 * dx
    for _ in range(round(T / dt)):
        dm = np.zeros_like(V)
        dp = np.zeros_like(V)
        dm[1:] = (V[1:] - V[:-1]) / dx
        dp[:-1] = (V[1:] - V[:-1]) / dx
        grad = np.maximum(np.maximum(dm, 0.0), np.maximum(-dp, 0.0))
        V = V - dt * 0.5 * grad
    return xs, V


def window_min_oracle(x0: float, radius: float = 0.5) -> float:
    """Terminal-payoff enumeration: the minimizer can place the endpoint
    anywhere in [x0 - radius, x0 + radius] whatever the maximizer does (the
    drift ranges over u + v with |u| <= 1 dominating |v| <= 0.5), and the
    maximizer can prevent anything closer, so Val(0, x0) = min |endpoint|."""
    ys = np.linspace(x0 - radius, x0 + radius, 1_000_001)
    return float(np.min(np.abs(ys)))


@pytest.fixture(scope="module")
def oracle_checked():
    """Closed form validated by both oracles before any bound test uses it."""
    xs, V = upwind_oracle(1e-3)
    for x0 in X0_SET:
        want = closed_form_value(x0)
        got = float(V[round((x0 - xs[0]) / 1e-3)])
        # the scheme is exact off the rarefaction fan; the fan at |x| = 0.5
        # smears like sqrt(dx), so the kink points carry a wider tolerance
        tol = 1.5e-2 if abs(abs(x0) - 0.5) < 1e-9 else 1e-3
        assert abs(got - want) <= tol, (x0, got, want)
        assert abs(window_min_oracle(x0) - want) <= 1e-6, x0
    return True


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="module")
def sweep():
    """Upper and lower t=0 slices for the four-mesh certification sweep."""
    spec = lg.g1()
    out = {}
    for h in H_SWEEP:
        dom = lg.truncate_domain(spec, [-1.0, 1.0], h)
        out[h] = (
            lg.solve_backward(spec, dom, kind="upper", checkpoints=[0.0]).slice_at(0.0),
            lg.solve_backward(spec, dom, kind="lower", checkpoints=[0.0]).slice_at(0.0),
        )
    return spec, out


def sweep_errors(slices, which):
    errs = {}
    for h, pair in slices.items():
        grid = pair[0 if which == "upper" else 1]
        errs[h] = max(abs(grid.value_at([x0]) - closed_form_value(x0)) for x0 in X0_SET)
    return errs


@pytest.fixture(scope="module")
def dense_eta():
    """h=0.05 upper feedback table, shared by the coupling criteria."""
    spec = lg.g1()
    dom = lg.truncate_domain(spec, [-1.0, 1.0], 0.05)
    return spec, lg.feedback_table(spec, dom)


@pytest.fixture(scope="module")
def chains_10k():
    """10^4 constant-rate chain replicas: controls (1, 0.5), drift 1.5, h=0.1."""
    spec = lg.g1()
    up, vp = (lambda t, y: 1.0), (lambda t, y: 0.5)
    return spec, 0.1, [
        lg.simulate_chain(spec, up, vp, 0.0, 0.1, rng=lg.replica_rng(5, i))
        for i in range(10_000)
    ]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_mesh_bound_certification(oracle_checked, sweep):
    spec, slices = sweep
    worst = []
    for h, (upper, _) in slices.items():
        bound = C2 * math.sqrt(h)
        errs = [abs(upper.value_at([x0]) - closed_form_value(x0)) for x0 in X0_SET]
        worst.append((h, max(errs), bound))
    ok = all(e <= b for _, e, b in worst)
    detail = "; ".join(f"h={h}: err={e:.4f} <= {b:.4f}" for h, e, b in worst)
    report(1, ok, detail)


def test_criterion_02_convergence_order(sweep):
    spec, slices = sweep
    errs = sweep_errors(slices, "upper")
    hs = np.array(sorted(errs, reverse=True))
    es = np.array([errs[h] for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    nonincreasing = bool(np.all(np.diff(es) <= 1e-15))
    ok = slope >= 0.5 and nonincreasing
    report(2, ok, f"LS order {slope:.3f} >= 0.5; errors {np.round(es, 4).tolist()} nonincreasing")


def test_criterion_03_lower_value_suite(sweep):
    spec, slices = sweep
    bound_ok, order_ok, gaps = True, True, []
    errs = sweep_errors(slices, "lower")
    for h, (upper, lower) in slices.items():
        if errs[h] > C2 * math.sqrt(h):
            bound_ok = False
        gaps.append(float(np.max(lower.values - upper.values)))
    hs = np.array(sorted(errs, reverse=True))
    es = np.array([errs[h] for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    order_ok = slope >= 0.5 and bool(np.all(np.diff(es) <= 1e-15))
    dominated = max(gaps) <= 1e-8
    ok = bound_ok and order_ok and dominated
    report(3, ok, f"lower errs {np.round(es, 4).tolist()} within bound, order {slope:.3f}, "
                  f"max(lower-upper)={max(gaps):.2e} <= 1e-8")


def test_criterion_04_viscosity_rate(oracle_checked):
    spec = lg.g1()
    dom = lg.truncate_domain(spec, [-1.0, 1.0], 0.01, pad=1.5)
    rows = []
    for sigma in (0.4, 0.2, 0.1):
        psi = lg.solve_viscous(spec, dom, sigma, checkpoints=[0.0]).slice_at(0.0)
        err = max(abs(psi.value_at([x0]) - closed_form_value(x0)) for x0 in X0_SET)
        rows.append((sigma, err, C1 * sigma + 0.02))
    ok = all(e <= b for _, e, b in rows)
    report(4, ok, "; ".join(f"sigma={s}: err={e:.4f} <= {b:.4f}" for s, e, b in rows))


def test_criterion_05_strategy_guarantee(dense_eta):
    spec, eta = dense_eta
    part = lg.Partition.uniform(0.0, 1.0, 0.01)
    eta0 = eta.value0.value_at([0.0])
    panel = lg.run_extremal_shift_batch(spec, eta, part, [0.0], lg.standard_adversaries(spec),
                                        n_replicas=10_000, seed=0)
    rows = []
    for name, batch in zip(panel.adversaries, panel.split()):
        est = lg.OutcomeEstimate.from_outcomes(batch.outcomes)
        rows.append((name, est.mean, eta0 + GUARANTEE + 3 * est.std_error))
    ok = all(m <= thr for _, m, thr in rows)
    report(5, ok, "; ".join(f"{n}: mean={m:.4f} <= {t:.4f}" for n, m, t in rows))


def test_criterion_06_oracle_equivalence():
    spec = lg.GameSpec(
        name="tiny", d=1, T=0.1,
        drift=lambda t, x, u, v: (u + v) * np.ones_like(x),
        u_grid=(-1.0, 1.0), v_grid=(-0.5, 0.5),
        payoff=lg.payoff_norm(), R=1.0, M1=1.5, K1=0.0, vectorized=True)
    dom = LatticeDomain(h=0.5, lo=(-2,), hi=(2,))  # 5-point box
    cps = [0.0, 0.05, 0.1]
    res = solve_rk4(spec, dom, dt=1e-3, checkpoints=cps)

    # independent oracle: dense per-pair generator matrices on the same box
    # (outward moves frozen to self-loops), classical RK4 at dt/100
    states = dom.states()[:, 0]
    n = len(states)
    mats = {}
    for u in spec.u_grid:
        for v in spec.v_grid:
            L = np.zeros((n, n))
            f = u + v
            rate = abs(f) / 0.5
            for j in range(n):
                k = j + (1 if f > 0 else -1)
                if abs(f) > 0 and 0 <= k < n:
                    L[j, k] += rate
                    L[j, j] -= rate
            mats[(u, v)] = L

    def minimax_rhs(eta):
        best = None
        for u in spec.u_grid:
            worst = None
            for v in spec.v_grid:
                cand = mats[(u, v)] @ eta
                worst = cand if worst is None else np.maximum(worst, cand)
            best = worst if best is None else np.minimum(best, worst)
        return best

    dt = 1e-5
    eta = np.abs(states).astype(float)
    t = spec.T
    recorded = {cps[-1]: eta.copy()}
    # in remaining time s = T - t the value solves d(eta)/ds = +H[eta]
    for _ in range(round(spec.T / dt)):
        k1 = minimax_rhs(eta)
        k2 = minimax_rhs(eta + 0.5 * dt * k1)
        k3 = minimax_rhs(eta + 0.5 * dt * k2)
        k4 = minimax_rhs(eta + dt * k3)
        eta = eta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t -= dt
        for c in cps:
            if abs(t - c) < dt / 2:
                recorded[c] = eta.copy()

    diff = max(float(np.max(np.abs(res.slice_at(c).values - recorded[c]))) for c in cps)
    report(6, diff <= 1e-6, f"max |solver - independent integrator| = {diff:.2e} <= 1e-6")


def test_criterion_07_generator_identities():
    rng = np.random.default_rng(7)
    worst = {"linear": 0.0, "quadratic": 0.0, "rowsum": 0.0, "drift": 0.0}
    for i in range(1000):
        spec = lg.g1() if i % 2 == 0 else lg.g2()
        h = float(rng.uniform(0.02, 0.9))
        t = float(rng.uniform(0.0, spec.T))
        x = rng.uniform(-2.0, 2.0, size=spec.d)
        u = spec.u_grid[rng.integers(len(spec.u_grid))]
        v = spec.v_grid[rng.integers(len(spec.v_grid))]
        a = rng.uniform(-2.0, 2.0, size=spec.d)

        b2, sigma2 = lg.chain_characteristics(spec, t, x, u, v, h)
        f = np.atleast_1d(np.asarray(spec.drift(t, x, u, v), dtype=float))

        lin = lg.apply_generator(lambda y: float(a @ y), spec, t, x, u, v, h)
        quad = lg.apply_generator(lambda y: float((y - a) @ (y - a)), spec, t, x, u, v, h)
        const = lg.apply_generator(lambda y: 1.0, spec, t, x, u, v, h)

        worst["linear"] = max(worst["linear"], abs(lin - float(a @ b2)))
        worst["quadratic"] = max(worst["quadratic"],
                                 abs(quad - (sigma2 + 2.0 * float((x - a) @ b2))))
        worst["rowsum"] = max(worst["rowsum"], abs(const))
        worst["drift"] = max(worst["drift"], float(np.max(np.abs(b2 - f))))
    ok = all(v <= 1e-12 for v in worst.values())
    report(7, ok, "; ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (all <= 1e-12)")


def test_criterion_08_hamiltonian_lipschitz():
    spec = lg.g1()
    # unit mesh: there the provable contraction factor equals 3*M1 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dom = LatticeDomain(h=1.0, lo=(-5,), hi=(5,))
        scale = 1.0 + np.linalg.norm(dom.states(), axis=1)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            t = float(rng.uniform(0.0, 1.0))
            rho1 = rng.standard_normal(dom.n_points) * scale
            rho2 = rng.standard_normal(dom.n_points) * scale
            h1 = lg.hamiltonian_field(rho1, spec, t, dom, "upper")
            h2 = lg.hamiltonian_field(rho2, spec, t, dom, "upper")
            lhs = lg.weighted_norm(lg.ValueGrid(t, dom, h1 - h2))
            rhs = 3.0 * spec.M1 * lg.weighted_norm(lg.ValueGrid(t, dom, rho1 - rho2))
            worst = max(worst, lhs - rhs)
    report(8, worst <= 1e-9, f"max(lhs - 3*M1*rhs) = {worst:.2e} <= 1e-9 over 100 pairs")


def test_criterion_09_martingale_and_coupling(chains_10k, dense_eta):
    spec, h, paths = chains_10k
    cps = [0.2, 0.4, 0.6, 0.8, 1.0]
    lin = lg.martingale_residual(paths, spec, h, "linear", [2.0], cps)
    quad = lg.martingale_residual(paths, spec, h, "quadratic", [0.3], cps)
    resid_ok = bool(np.all(lin.ci_contains_zero)) and bool(np.all(quad.ci_contains_zero))

    # constant drift c = 1.5: exact E(Y(t)-Y(s))^2 = c^2 D^2 + c h D
    c, s, t = 1.5, 0.3, 0.5
    exact = c**2 * (t - s) ** 2 + c * h * (t - s)
    mom = lg.moment_growth_check(paths, s, t, spec, h=h, exact=exact)
    moment_ok = bool(mom.matches_exact) and bool(mom.within_bound)

    # coupling inequality E g_{l+1} <= (1 + beta*delta) E g_l + slack*delta:
    # the fitted slack must stay below the certified noise level m0_2 and
    # shrink as the partition diameter halves
    spec5, eta = dense_eta
    beta, m0_2 = 2.0, 0.075
    fitted = {}
    for diam in (0.04, 0.02):
        part = lg.Partition.uniform(0.0, 1.0, diam)
        batch = lg.run_extremal_shift_batch(spec5, eta, part, [0.0],
                                            [lg.MirrorAdversary()],
                                            n_replicas=4000, seed=11)
        eg = batch.sq_gap.mean(axis=0)
        excess = eg[1:] - (1.0 + beta * diam) * eg[:-1]
        fitted[diam] = float(np.max(np.maximum(excess, 0.0)) / diam)
    coupling_ok = (fitted[0.04] <= m0_2 and fitted[0.02] <= m0_2
                   and fitted[0.02] <= fitted[0.04] + 1e-12)

    ok = resid_ok and moment_ok and coupling_ok
    report(9, ok,
           f"residuals 0 in 3-sigma at {len(cps)} checkpoints (max means "
           f"{lin.max_abs_mean:.3f}/{quad.max_abs_mean:.3f}); E(dY)^2={mom.empirical:.4f} "
           f"vs exact {exact:.4f} in 3SE; fitted slack {fitted[0.04]:.3f} -> "
           f"{fitted[0.02]:.3f} <= m0_2={m0_2}")


def test_criterion_10_determinism(tmp_path):
    base = ["--game", "g1", "--partition-diam", "0.02", "--replicas", "200",
            "--adversaries", "constant,random"]
    outs = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["solve", "--game", "g1", "--out", str(out)]) == 0
        assert cli_main(["simulate", *base, "--out", str(out)]) == 0
        assert cli_main(["converge", "--game", "g1", "--h", "0.1", "0.05",
                         "--out", str(out)]) == 0
        outs[name] = out
    identical = all(
        (outs["a"] / f).read_bytes() == (outs["b"] / f).read_bytes()
        for f in ("eta_upper_t0.csv", "bounds.json", "simulate.csv", "converge.csv"))
    report(10, identical, f"reruns byte-identical: {identical}")
