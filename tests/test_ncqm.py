from fractions import Fraction as F

import pytest

from bihermite import ncqm
from bihermite.coeffs import Coeff, I
from bihermite.deform import deformed_lowering, deformed_raising
from bihermite.ncqm import (
    AlphaPoint,
    alpha_matrix,
    build_dictionary,
    ncqm_commutator_suite,
    qp_representation_suite,
)
from bihermite.weyl import WeylOp, commutator


def test_alpha_point_pythagorean_values():
    pt = AlphaPoint.make(F(3, 5))
    assert pt.beta_im == F(4, 5) and pt.theta == F(24, 25)
    pt = AlphaPoint.make(F(5, 13))
    assert pt.beta_im == F(12, 13) and pt.theta == F(120, 169)
    pt = AlphaPoint.make(F(8, 17))
    assert pt.beta_im == F(15, 17) and pt.theta == F(240, 289)


def test_alpha_point_rejects_irrational_root_in_exact_mode():
    with pytest.raises(ValueError, match="float backend"):
        AlphaPoint.make(F(1, 3))
    # the same point is fine on the float backend
    pt = AlphaPoint.make(1 / 3)
    assert pt.beta_im == pytest.approx((8 / 9) ** 0.5)


def test_alpha_point_backend_is_the_type_of_alpha():
    pt = AlphaPoint.make(0.6)
    assert not pt.exact and isinstance(pt.alpha, float) and isinstance(pt.beta_im, float)
    assert not Coeff.lift(pt.theta).exact and not alpha_matrix(pt).is_exact()
    pt = AlphaPoint.make(F(3, 5))
    assert pt.exact and pt.beta_im == F(4, 5)
    assert Coeff.lift(pt.theta).exact and alpha_matrix(pt).is_exact()


def test_alpha_points_with_equal_values_are_equal_and_hash_alike():
    a, b = AlphaPoint.make(F(3, 5)), AlphaPoint.make(F(6, 10))
    assert a == b and hash(a) == hash(b)
    assert AlphaPoint.make(F(3, 5)) != AlphaPoint.make(0.6)
    x, y = AlphaPoint.make(float("0.3")), AlphaPoint.make(float("0.3"))
    assert x == y and hash(x) == hash(y)


def test_alpha_point_domain():
    for bad in (0, 1, -1, F(7, 5)):
        with pytest.raises(ValueError):
            AlphaPoint.make(bad)


def test_theta_one_needs_float():
    # theta = 1 forces alpha^2 = 1/2, which has no exact representative
    with pytest.raises(ValueError):
        AlphaPoint.make(F(1, 2)).theta  # 1/2 itself has irrational beta
    pt = AlphaPoint.make(0.5**0.5)
    assert pt.theta == pytest.approx(1.0)


def test_alpha_matrix_is_hermitian_with_unit_row_norm():
    pt = AlphaPoint.make(F(3, 5))
    g = alpha_matrix(pt)
    assert g.conj_transpose() == g
    assert g.g11 * g.g11 + g.g12 * g.g12.conj() == Coeff(1)


def test_ncqm_suite_exact_points():
    for a in (F(3, 5), F(5, 13), F(8, 17)):
        rep = ncqm_commutator_suite(AlphaPoint.make(a))
        assert rep.ok, (a, rep.payload)


def test_ncqm_suite_float_point():
    rep = ncqm_commutator_suite(AlphaPoint.make(0.3))
    assert rep.ok


def _failed(rep):
    return [c["relation"] for c in rep.payload["checks"] if not c["ok"]]


def test_ncqm_suite_fails_on_a_sign_flipped_cross_commutator(monkeypatch):
    pt = AlphaPoint.make(F(3, 5))
    g = alpha_matrix(pt)
    a1, _ = deformed_lowering(g)
    _, ad2 = deformed_raising(g)

    def flipped(x, y):
        out = commutator(x, y)
        return -out if (x, y) == (a1, ad2) else out

    monkeypatch.setattr(ncqm, "commutator", flipped)
    rep = ncqm_commutator_suite(pt)
    assert rep.summary == "deformed-ladder commutators at alpha = 3/5: fail"
    assert _failed(rep) == ["[a1_alpha, ad2_alpha] == i*theta"]


def test_ncqm_suite_fails_when_a_lowering_operator_misses_the_vacuum(monkeypatch):
    real = ncqm.deformed_lowering

    def shifted(g):
        # a scalar commutes with everything, so only the vacuum row can see it
        low1, low2 = real(g)
        return low1 + WeylOp.scalar(1), low2

    monkeypatch.setattr(ncqm, "deformed_lowering", shifted)
    rep = ncqm_commutator_suite(AlphaPoint.make(F(3, 5)))
    assert rep.status == "fail" and _failed(rep) == ["vacuum: a1_alpha(1) == 0"]


def test_qp_suite_fails_on_a_sign_flipped_position_commutator(monkeypatch):
    itheta = WeylOp.scalar(I * F(3, 5))

    def flipped(x, y):
        out = commutator(x, y)
        return -out if out == itheta else out

    monkeypatch.setattr(ncqm, "commutator", flipped)
    rep = qp_representation_suite(F(3, 5), F(16, 15))
    assert rep.status == "fail"
    assert _failed(rep) == ["branch +1: [Q1, Q2] == i*theta", "branch -1: [Q1, Q2] == i*theta"]


def test_theta_consistency_with_cross_commutator():
    pt = AlphaPoint.make(F(5, 13))
    g = alpha_matrix(pt)
    a1, _ = deformed_lowering(g)
    _, ad2 = deformed_raising(g)
    c = commutator(a1, ad2)
    assert c == WeylOp.scalar(Coeff(0, pt.theta))


def test_qp_suite_independent_parameters():
    rep = qp_representation_suite(F(3, 5), F(16, 15))
    assert rep.ok, [c for c in rep.payload["checks"] if not c["ok"]]


def test_qp_suite_equal_parameters_includes_modified_bosons():
    rep = qp_representation_suite(F(3, 5), F(3, 5))
    assert rep.ok
    names = [c["relation"] for c in rep.payload["checks"]]
    assert any("[A1, Ad2] == i*theta" in n for n in names)


def test_qp_frozen_momentum_commutator():
    d = build_dictionary(theta=F(3, 5), gamma=F(16, 15), branch=1)
    got = commutator(d["P1"], d["P2"])
    assert got == WeylOp.scalar(Coeff(0, F(16, 15)))
    got = commutator(d["Q1"], d["Q2"])
    assert got == WeylOp.scalar(Coeff(0, F(3, 5)))
    got = commutator(d["Q1"], d["P1"])
    assert got == WeylOp.scalar(Coeff(0, 1))


def test_qp_both_branches_differ_but_both_work():
    d1 = build_dictionary(theta=F(3, 5), gamma=F(16, 15), branch=1)
    d2 = build_dictionary(theta=F(3, 5), gamma=F(16, 15), branch=-1)
    assert d1["P1"] != d2["P1"]
    for d in (d1, d2):
        assert commutator(d["P1"], d["P2"]) == WeylOp.scalar(Coeff(0, F(16, 15)))


def test_qp_rejects_irrational_kappa_in_exact_mode():
    # kappa = 1 - 1/6 = 5/6 is not a rational square
    with pytest.raises(ValueError, match="float backend"):
        build_dictionary(theta=F(1, 2), gamma=F(1, 3))
    rep = qp_representation_suite(0.5, 1 / 3)
    assert rep.ok


def test_qp_rejects_gamma_reciprocal_theta():
    with pytest.raises(ValueError, match="excluded"):
        build_dictionary(theta=F(1, 2), gamma=2)
    # at kappa = 0 both sign branches coincide and P1 = Q2/theta
    with pytest.raises(ValueError, match="excluded"):
        build_dictionary(theta=0.5, gamma=2.0)
    with pytest.raises(ValueError, match="excluded"):
        qp_representation_suite(0.5, 2.0)


@pytest.mark.parametrize("theta, gamma", [(F(1, 2), 3), (0.5, 3.0)], ids=["exact", "float"])
def test_qp_rejects_negative_kappa(theta, gamma):
    for branch in (1, -1):
        with pytest.raises(ValueError, match="must be nonnegative"):
            build_dictionary(theta=theta, gamma=gamma, branch=branch)
    with pytest.raises(ValueError, match="must be nonnegative"):
        qp_representation_suite(theta, gamma)


def test_build_dictionary_alpha_route():
    d = build_dictionary(alpha=F(3, 5))
    for name in (
        "a1",
        "ad2",
        "q1",
        "p2",
        "J1",
        "J4",
        "a1_alpha",
        "ad2_alpha",
        "A1",
        "Ad2",
        "Q1",
        "P2",
        "J3_alpha",
        "X1",
        "Y",
        "Z3",
    ):
        assert name in d, name
    # Q/P built from the deformed ladders still satisfy the table
    assert commutator(d["Q1"], d["Q2"]) == WeylOp.scalar(Coeff(0, F(24, 25)))
    assert commutator(d["Q1"], d["P1"]) == WeylOp.scalar(Coeff(0, 1))
    assert commutator(d["P1"], d["P2"]) == WeylOp.scalar(Coeff(0, F(24, 25)))


@pytest.mark.parametrize(
    "alpha, rescaled",
    [(0.5**0.5, False), (-(0.5**0.5), False), (F(3, 5), True), (F(-20, 29), True), (0.6, True)],
    ids=str,
)
def test_build_dictionary_has_the_rescaled_basis_away_from_theta_one(alpha, rescaled):
    # theta = 1 and theta = -1 (alpha = +-1/sqrt2) are where rescale is singular
    d = build_dictionary(alpha=alpha)
    assert all(name in d for name in ("X1", "X2", "X3", "Y"))
    assert [name in d for name in ("Z1", "Z2", "Z3")] == [rescaled] * 3


def test_build_dictionary_entries_rederivable():
    d = build_dictionary(alpha=F(3, 5))
    d2 = build_dictionary(alpha=F(3, 5))
    for name in d:
        assert d[name] == d2[name]


def test_build_dictionary_rejects_mixed_parameters():
    with pytest.raises(ValueError):
        build_dictionary(alpha=F(3, 5), theta=F(1, 2), gamma=F(1, 2))

