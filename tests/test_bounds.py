"""Certified constants: closed-form anchors, scaling laws, sampled checks."""

import json
import math

import pytest

import latticegames as lg
from latticegames.bounds import SAMPLE_BOX


def test_beta_anchors():
    assert lg.beta(lg.g1()) == pytest.approx(2.0)   # K1 = 0
    assert lg.beta(lg.g2()) == pytest.approx(4.0)   # K1 = 1
    spec = lg.GameSpec(
        name="k", d=1, T=1.0,
        drift=lambda t, x, u, v: 0.5 * x * u,
        u_grid=(-1.0, 1.0), v_grid=(0.0,),
        payoff=lg.payoff_norm(), R=1.0, M1=2.0, K1=0.5, vectorized=True)
    assert lg.beta(spec) == pytest.approx(3.0)


def test_assemble_g1_anchors():
    rep = lg.assemble(lg.g1(), 0.04)
    assert rep.game == "g1"
    assert rep.kappa == 0.0
    assert rep.m0_1 == 0.0
    assert rep.m0_2 == pytest.approx(1.5 * 0.04)
    assert rep.theta == pytest.approx(rep.kappa + rep.m0_1 + rep.m0_2, abs=1e-15)
    assert rep.beta == pytest.approx(2.0)
    assert rep.c == pytest.approx(math.e)          # sqrt(T e^{2T}) at T=1
    assert rep.c1 == pytest.approx(math.e)         # d = 1
    assert rep.c2 == pytest.approx(math.sqrt(1.5) * math.e)
    assert rep.c2 == pytest.approx(3.3292017284021664)
    assert rep.bound_thm2 == pytest.approx(0.6658403456804334)
    assert rep.guarantee_thm1 == pytest.approx(math.e * math.sqrt(0.06))
    assert rep.bound_visc is None
    assert rep.sigma is None


def test_mesh_error_scaling_is_square_root():
    spec = lg.g1()
    a = lg.assemble(spec, 0.01)
    b = lg.assemble(spec, 0.04)
    assert b.bound_thm2 == pytest.approx(2.0 * a.bound_thm2, rel=1e-15)


def test_viscous_bound_linear_in_sigma():
    spec = lg.g1()
    assert lg.assemble(spec, 0.05, sigma=0.0).bound_visc == 0.0
    a = lg.assemble(spec, 0.05, sigma=0.1).bound_visc
    b = lg.assemble(spec, 0.05, sigma=0.2).bound_visc
    assert b == pytest.approx(2.0 * a, rel=1e-15)
    assert a == pytest.approx(spec.R * math.e * 0.1)


def test_empirical_never_exceeds_certified():
    for spec, h in ((lg.g1(), 0.05), (lg.g2(), 0.02)):
        rep = lg.assemble(spec, h)
        assert rep.empirical_m0_2 <= rep.m0_2 * (1 + 1e-12)
        assert rep.empirical_m0_2 > 0.0


def test_empirical_m0_2_tight_for_box_capped_drift():
    # g1 attains |f| = M1 whenever |u + v| = 1.5, so the sampled sup is exact
    rep = lg.assemble(lg.g1(), 0.05)
    assert rep.empirical_m0_2 == pytest.approx(rep.m0_2, rel=1e-12)


@pytest.mark.parametrize("h", [1.0, 2.0, 0.0, -0.1, math.nan, math.inf])
def test_coarse_mesh_guard(h):
    # the certified constants need 0 < h < 1
    with pytest.raises(lg.GameSpecError):
        lg.assemble(lg.g1(), h)


def test_report_serialization_roundtrip():
    rep = lg.assemble(lg.g1(), 0.05, sigma=0.2, seed=3)
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["game"] == "g1"
    assert d["seed"] == 3
    assert d["bound_visc"] == pytest.approx(rep.bound_visc)
    txt = rep.to_text()
    assert "guarantee_thm1=" in txt
    assert txt.endswith("\n")
    # None renders as empty in text mode
    assert "bound_visc=\n" in lg.assemble(lg.g1(), 0.05).to_text()


def test_seed_changes_samples_not_certified_numbers():
    a = lg.assemble(lg.g1(), 0.05, seed=0)
    b = lg.assemble(lg.g1(), 0.05, seed=1)
    assert a.bound_thm2 == b.bound_thm2
    assert a.guarantee_thm1 == b.guarantee_thm1
    assert a.empirical_m0_2 <= a.m0_2 * (1 + 1e-12)
    assert b.empirical_m0_2 <= b.m0_2 * (1 + 1e-12)
    assert SAMPLE_BOX == 2.0
