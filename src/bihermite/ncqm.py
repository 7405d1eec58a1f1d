"""Noncommutative position/momentum operators over the hermitian
one-parameter deformation family (``AlphaPoint``, defined in ``deform``).

Position/momentum pairs Q_i, P_i realizing

    [Q_i, P_j] = i delta_ij,  [Q_1, Q_2] = i theta,  [P_1, P_2] = i gamma

are built two ways: from the deformed ladder operators (theta == gamma), and
from the canonical pairs through the (c, d) substitution with
kappa = 1 - gamma*theta, which covers independent theta and gamma and has
two equally valid sign branches.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import Coeff, I, rational_sqrt
from .deform import AlphaPoint, alpha_matrix, deformed_lowering, deformed_raising
from .lie import basis_change, bilinear_generators, rescale
from .poly import BiPoly
from .report import Report, Tally
from .weyl import WeylOp, _qp_from_ladders, commutator, position_momentum_ops

__all__ = [
    "build_dictionary",
    "ncqm_commutator_suite",
    "qp_representation_suite",
]


def _exact_params(*values) -> bool:
    """The backend of a parameter set: float when any parameter is a float."""
    return not any(isinstance(v, float) for v in values)


def _qp_from_canonical(theta, gamma, branch: int) -> dict[str, WeylOp]:
    """Q_i, P_i from the canonical pairs via the (c, d) substitution.

    c = (1 + s sqrt(kappa))/2 and d = (1 - s sqrt(kappa))/theta with
    kappa = 1 - gamma*theta and branch sign s.  kappa must be positive on
    both backends: at kappa = 0 (gamma == 1/theta) the branches coincide.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    exact = _exact_params(theta, gamma)
    theta, gamma = (Fraction(theta), Fraction(gamma)) if exact else (float(theta), float(gamma))
    if not theta:
        raise ValueError("theta must be nonzero")
    kappa = 1 - gamma * theta
    if not kappa:
        raise ValueError("gamma = 1/theta is excluded")
    if kappa < 0:
        raise ValueError("kappa = 1 - gamma*theta must be nonnegative")
    root = rational_sqrt(kappa) if exact else kappa**0.5
    if root is None:
        raise ValueError(
            f"sqrt(kappa) is irrational for (theta, gamma) = ({theta}, {gamma}); "
            "use the float backend"
        )
    c = (1 + branch * root) / 2
    d = (1 - branch * root) / theta
    # the canonical pairs are exact: carry them to the parameters' backend
    qp = position_momentum_ops()
    q1, q2, p1, p2 = (qp[name] * theta**0 for name in ("q1", "q2", "p1", "p2"))
    half_theta = theta / 2
    return {
        "Q1": q1 - p2 * half_theta,
        "Q2": q2 + p1 * half_theta,
        "P1": p1 * c + q2 * d,
        "P2": p2 * c - q1 * d,
    }


def _modified_bosons(qp: dict[str, WeylOp]) -> dict[str, WeylOp]:
    """A_i = (Q_i + i P_i)/sqrt2 and Ad_i = (Q_i - i P_i)/sqrt2, on the backend of Q/P."""
    half_rt2 = Coeff(0, 0, Fraction(1, 2))
    ops = {}
    for mode in (1, 2):
        q, p = qp[f"Q{mode}"], qp[f"P{mode}"]
        ops[f"A{mode}"] = (q + p * I) * half_rt2
        ops[f"Ad{mode}"] = (q - p * I) * half_rt2
    return ops


def build_dictionary(alpha=None, theta=None, gamma=None, branch: int = 1) -> dict[str, WeylOp]:
    """The named operators of a parameter point, on the float backend when a
    parameter is a float.

    Always includes the bare ladder operators, canonical q/p pairs, and the
    undeformed bilinears J1..J4, which hold no parameter and are exact on
    both backends.  With alpha it adds the deformed ladder set,
    the deformed bilinears, Q/P built from them, and the X/Y (and, away from
    theta = +-1, rescaled Z) bases.  With (theta, gamma) it adds Q/P from the
    canonical substitution on the requested sign branch, plus the derived
    A_i = (Q_i + i P_i)/sqrt2 pairs.
    """
    if alpha is not None and (theta is not None or gamma is not None):
        raise ValueError("pass either alpha or (theta, gamma), not both")
    ops: dict[str, WeylOp] = {
        "a1": WeylOp.a(1),
        "a2": WeylOp.a(2),
        "ad1": WeylOp.adag(1),
        "ad2": WeylOp.adag(2),
    }
    ops.update(position_momentum_ops())
    bare = bilinear_generators()
    ops.update(zip(bare.names, bare.ops))

    if alpha is not None:
        point = alpha if isinstance(alpha, AlphaPoint) else AlphaPoint.make(alpha)
        g = alpha_matrix(point)
        low1, low2 = deformed_lowering(g)
        rai1, rai2 = deformed_raising(g)
        ops.update(
            {
                "a1_alpha": low1,
                "a2_alpha": low2,
                "ad1_alpha": rai1,
                "ad2_alpha": rai2,
                # the deformed ladder set realizes the modified-boson relations
                "A1": low1,
                "A2": low2,
                "Ad1": rai1,
                "Ad2": rai2,
            }
        )
        q1, p1 = _qp_from_ladders(low1, rai1)
        q2, p2 = _qp_from_ladders(low2, rai2)
        ops.update({"Q1": q1, "P1": p1, "Q2": q2, "P2": p2})
        jbasis = bilinear_generators(point)
        ops.update({f"{name}_alpha": op for name, op in zip(jbasis.names, jbasis.ops)})
        xbasis = basis_change(jbasis)
        ops.update(dict(zip(xbasis.names, xbasis.ops)))
        if point.theta * point.theta != 1:  # rescale is singular at theta = +-1
            zbasis = rescale(xbasis)
            ops.update(dict(zip(zbasis.names, zbasis.ops)))
    elif theta is not None or gamma is not None:
        if theta is None or gamma is None:
            raise ValueError("theta and gamma must be given together")
        qp = _qp_from_canonical(theta, gamma, branch)
        ops.update(qp)
        ops.update(_modified_bosons(qp))
    return ops


def _check(t: Tally, name, got: WeylOp, want: WeylOp) -> dict:
    ok = t.compare(got, want, {"relation": name})
    return {"relation": name, "ok": ok, "got": got.pretty(), "expected": want.pretty()}


def ncqm_commutator_suite(point: AlphaPoint) -> Report:
    """Commutators of the deformed ladder operators at one alpha point.

    [a_i, ad_i] = 1, all annihilator and all creator pairs commute, and the
    cross commutator [a_1, ad_2] equals i*theta (its mirror -i*theta).
    """
    g = alpha_matrix(point)
    a1, a2 = deformed_lowering(g)
    ad1, ad2 = deformed_raising(g)
    # the expected values are printed on the point's backend
    one = WeylOp.scalar(point.theta**0)
    zero = WeylOp.zero()
    itheta = WeylOp.scalar(I * Coeff.lift(point.theta))
    t = Tally()
    checks = [
        _check(t, "[a1_alpha, ad1_alpha] == 1", commutator(a1, ad1), one),
        _check(t, "[a2_alpha, ad2_alpha] == 1", commutator(a2, ad2), one),
        _check(t, "[a1_alpha, a2_alpha] == 0", commutator(a1, a2), zero),
        _check(t, "[ad1_alpha, ad2_alpha] == 0", commutator(ad1, ad2), zero),
        _check(t, "[a1_alpha, ad2_alpha] == i*theta", commutator(a1, ad2), itheta),
        _check(t, "[a2_alpha, ad1_alpha] == -i*theta", commutator(a2, ad1), -itheta),
    ]
    for name, lowering in (("a1_alpha", a1), ("a2_alpha", a2)):
        image = lowering.apply(BiPoly.one())
        relation = f"vacuum: {name}(1) == 0"
        ok = t.compare(image, BiPoly.zero(), {"relation": relation})
        checks.append({"relation": relation, "ok": ok, "got": image.pretty()})
    return t.report(
        f"deformed-ladder commutators at alpha = {point.alpha}",
        {"alpha": str(point.alpha), "theta": str(point.theta), "checks": checks},
    )


def qp_representation_suite(theta, gamma) -> Report:
    """Verify the Q/P commutation table on both sign branches, on the float
    backend when theta or gamma is a float.

    [Q_i, P_j] = i delta_ij, [Q_1, Q_2] = i theta, [P_1, P_2] = i gamma; when
    theta == gamma the derived A_i also satisfy the modified-boson relations.
    """
    exact = _exact_params(theta, gamma)
    th, ga = (Coeff.lift(Fraction(x) if exact else float(x)) for x in (theta, gamma))
    # the expected values are printed on the parameters' backend
    i_unit = I * th**0
    zero = WeylOp.zero()
    t = Tally()
    checks = []
    for branch in (1, -1):
        qp = _qp_from_canonical(theta, gamma, branch)
        q1, q2, p1, p2 = qp["Q1"], qp["Q2"], qp["P1"], qp["P2"]
        tag = f"branch {branch:+d}: "
        checks += [
            _check(t, tag + "[Q1, P1] == i", commutator(q1, p1), WeylOp.scalar(i_unit)),
            _check(t, tag + "[Q2, P2] == i", commutator(q2, p2), WeylOp.scalar(i_unit)),
            _check(t, tag + "[Q1, P2] == 0", commutator(q1, p2), zero),
            _check(t, tag + "[Q2, P1] == 0", commutator(q2, p1), zero),
            _check(t, tag + "[Q1, Q2] == i*theta", commutator(q1, q2), WeylOp.scalar(i_unit * th)),
            _check(t, tag + "[P1, P2] == i*gamma", commutator(p1, p2), WeylOp.scalar(i_unit * ga)),
        ]
        if th == ga:
            bosons = _modified_bosons(qp)
            a1, a2, ad1, ad2 = bosons["A1"], bosons["A2"], bosons["Ad1"], bosons["Ad2"]
            one = WeylOp.scalar(th**0)
            checks += [
                _check(t, tag + "[A1, Ad1] == 1", commutator(a1, ad1), one),
                _check(t, tag + "[A2, Ad2] == 1", commutator(a2, ad2), one),
                _check(t, tag + "[A1, A2] == 0", commutator(a1, a2), zero),
                _check(
                    t, tag + "[A1, Ad2] == i*theta", commutator(a1, ad2), WeylOp.scalar(i_unit * th)
                ),
            ]
    return t.report(
        f"Q/P representation at (theta, gamma) = ({theta}, {gamma})",
        {"theta": str(theta), "gamma": str(gamma), "checks": checks},
    )
