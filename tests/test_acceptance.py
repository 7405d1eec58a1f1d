"""Acceptance suite: one test per exit criterion, each printing a pass line.

Every identity here is exact (rational equality) unless a float tolerance is
called out explicitly.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""

import random
import time
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest

from bihermite.coeffs import Coeff
from bihermite.deform import (
    GL2,
    biorthogonality_check,
    deformed_generating_series,
    deformed_hermite,
    eigenvalue_structure_check,
    intertwine_check,
    monomial_to_hermite,
    rep_laws_check,
    rep_matrix,
)
from bihermite.hermite import (
    generating_series_complex,
    generating_series_real,
    hermite_operator,
    hermite_rodrigues,
    hermite_sum,
    normalizer_sq,
    real_hermite,
)
from bihermite.lie import (
    basis_change,
    bilinear_generators,
    classify,
    rescale,
    structure_constants,
    theta_one_limit_table,
)
from bihermite.linalg import identity_matrix, mat_inverse, mat_mul
from bihermite.ncqm import AlphaPoint, alpha_matrix, ncqm_commutator_suite, qp_representation_suite
from bihermite.poly import BiPoly, inner_product, real_inner_product
from bihermite.weyl import WeylOp, commutator


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_triple_construction_equality():
    start = time.monotonic()
    count = 0
    for total in range(11):
        for m in range(total + 1):
            n = total - m
            h = hermite_sum(m, n)
            assert h == hermite_rodrigues(m, n), (m, n)
            assert h == hermite_operator(m, n), (m, n)
            count += 1
    elapsed = time.monotonic() - start
    assert count == 66
    assert elapsed < 5.0, f"expected under 5 s, took {elapsed:.2f} s"
    ok(1, f"explicit sum, Rodrigues and operator routes agree exactly for all "
          f"m+n <= 10 ({count} polynomials, {elapsed:.2f} s)")


def test_criterion_02_orthonormality():
    keys = [(m, t - m) for t in range(9) for m in range(t + 1)]
    polys = {mn: hermite_sum(*mn) for mn in keys}
    for m, n in keys:
        for k, l in keys:
            got = inner_product(polys[(m, n)], polys[(k, l)])
            want = Coeff(normalizer_sq(m, n)) if (m, n) == (k, l) else Coeff(0)
            assert got == want, ((m, n), (k, l), str(got))
    ok(2, f"<H[m,n], H[k,l]> = m! n! delta delta exactly for all m+n, k+l <= 8 "
          f"({len(keys) ** 2} pairs, zero tolerance)")


def test_criterion_03_real_orthogonality():
    polys = [real_hermite(n) for n in range(9)]
    for m in range(9):
        for n in range(9):
            got = real_inner_product(polys[m], polys[n])
            want = Coeff(2**n * factorial(n)) if m == n else Coeff(0)
            assert got == want  # the coefficient of sqrt(pi)
    ok(3, "integral of H_m H_n exp(-x^2) = sqrt(pi) 2^n n! delta_mn exactly "
          "for m, n <= 8, sqrt(pi) symbolic")


def test_criterion_04_generating_functions():
    N = 8
    S = generating_series_complex(N)
    for total in range(N + 1):
        for k in range(total + 1):
            l = total - k
            assert S.coeff(k, l) * (factorial(k) * factorial(l)) == hermite_sum(k, l)
    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    D = deformed_generating_series(g, N)
    for total in range(N + 1):
        for k in range(total + 1):
            l = total - k
            assert D.coeff(k, l) * (factorial(k) * factorial(l)) == deformed_hermite(g, k, l)
    R = generating_series_real(N)
    for total in range(N + 1):
        for k in range(total + 1):
            l = total - k
            want = real_hermite(k, 0) * real_hermite(l, 1)
            assert R.coeff(k, l) * (factorial(k) * factorial(l)) == want
    ok(4, "plain, deformed and real-product generating series reproduce the "
          "polynomial tables exactly for all k+l <= 8")


def _random_rational_gl2(rng):
    while True:
        entries = [
            Coeff(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(4)
        ]
        try:
            return GL2(*entries)
        except ValueError:
            continue


def test_criterion_05_representation_matrix_laws():
    rng = random.Random(20260810)
    pairs = [( _random_rational_gl2(rng), _random_rational_gl2(rng)) for _ in range(3)]
    for L in range(6):
        assert rep_matrix(GL2.identity(), L).entries == identity_matrix(L + 1)
        for g, h in pairs:
            Mg = rep_matrix(g, L).entries
            assert mat_mul(Mg, rep_matrix(h, L).entries) == rep_matrix(g @ h, L).entries
            assert rep_matrix(g, L).adjoint() == rep_matrix(g.conj_transpose(), L)
            assert mat_inverse(Mg) == rep_matrix(g.inverse(), L).entries
    for g, h in pairs:
        assert rep_laws_check(g, h, 3).ok
    ok(5, "M(identity) = I, products, weighted adjoints and inverses of "
          "M(g, L) all exact for random rational matrices, L <= 5")


def test_criterion_06_biorthogonality_theorem():
    start = time.monotonic()
    for a in (F(3, 5), F(5, 13)):
        g = alpha_matrix(AlphaPoint.make(a))
        rep = biorthogonality_check(g, 4)
        assert rep.ok, (a, rep.payload["violations"][:3])
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"expected under 10 s, took {elapsed:.2f} s"
    ok(6, f"dual pairings are exact Kronecker deltas for alpha in {{3/5, 5/13}}, "
          f"all L, M <= 4 including cross-level blocks ({elapsed:.2f} s)")


def test_criterion_07_eigenvalue_structure():
    generic = GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1))
    triangular = (GL2.diagonal(2, 3), GL2(2, 1, 0, 3), GL2.diagonal(F(1, 2), -3))
    for g in triangular + (generic, GL2(2, 1, -1, 4)):
        rep = eigenvalue_structure_check(g, 4)
        assert rep.ok and rep.payload["mode"] == "exact-power-sums"
        # p_1 .. p_(L+1) at each level L <= 4
        assert rep.payload["power_sums"] == 15 and "tolerance" not in rep.payload
    ok(7, "eigenvalues of M(g, L) are the products of the eigenvalues of g, with "
          "multiplicity (L <= 4): for triangular g, a generic complex g and a "
          "defective g by literal equality of power sums")


def test_criterion_08_intertwining():
    for total in range(9):
        for m in range(total + 1):
            n = total - m
            assert monomial_to_hermite(BiPoly.monomial(m, n)) == hermite_sum(m, n)
    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    rep = intertwine_check(g, 5)
    assert rep.ok
    ok(8, "exp(-d/dz d/dzbar) sends z^m zbar^n to H[m,n] exactly (m+n <= 8) "
          "and intertwines M(g, L) with the deformed action for L <= 5")


def test_criterion_09_ncqm_commutators():
    for a in (F(3, 5), F(5, 13), F(8, 17)):
        rep = ncqm_commutator_suite(AlphaPoint.make(a))
        assert rep.ok, (a, rep.payload)
    from bihermite.deform import deformed_lowering, deformed_raising

    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    a1 = deformed_lowering(g)[0]
    ad2 = deformed_raising(g)[1]
    assert commutator(a1, ad2) == WeylOp.scalar(Coeff(0, F(24, 25)))
    ok(9, "deformed-ladder commutation relations exact at alpha in "
          "{3/5, 5/13, 8/17}; cross commutator equals (24/25)i at alpha = 3/5")


def test_criterion_10_qp_representation():
    rep = qp_representation_suite(F(3, 5), F(16, 15))
    assert rep.ok, [c for c in rep.payload["checks"] if not c["ok"]]
    branches = {c["relation"].split(":")[0] for c in rep.payload["checks"]}
    assert branches == {"branch +1", "branch -1"}
    ok(10, "[Q_i, P_j] = i delta, [Q1, Q2] = (3/5)i, [P1, P2] = (16/15)i "
           "exact on both sign branches at (theta, gamma) = (3/5, 16/15)")


def test_criterion_11_lie_suite():
    point = AlphaPoint.make(F(3, 5))
    theta = F(24, 25)
    i1 = Coeff(0, 1)

    jb = bilinear_generators(point)
    sc = structure_constants(jb)
    assert sc.closed and sc.jacobi_ok()

    def vec(*pairs):
        out = [Coeff(0)] * 4
        for idx, val in pairs:
            out[idx] = val
        return out

    assert sc.bracket(0, 1) == vec((2, i1))
    assert sc.bracket(1, 2) == vec((0, i1))
    assert sc.bracket(2, 3) == vec((0, i1 * theta))
    assert sc.bracket(3, 0) == vec((2, i1 * theta))
    assert sc.bracket(2, 0) == vec((1, i1), (3, i1 * theta))
    assert sc.bracket(1, 3) == vec()

    xb = basis_change(jb)
    scx = structure_constants(xb)
    assert scx.closed and scx.jacobi_ok()
    c = Coeff(F(49, 625))
    assert scx.bracket(0, 1) == vec((2, Coeff(1)))
    assert scx.bracket(1, 2) == vec((0, c))
    assert scx.bracket(2, 0) == vec((1, c))

    scz = structure_constants(rescale(xb))
    assert scz.closed and scz.jacobi_ok()
    assert scz.bracket(0, 1) == vec((2, Coeff(1)))
    assert scz.bracket(1, 2) == vec((0, Coeff(1)))
    assert scz.bracket(2, 0) == vec((1, Coeff(1)))
    assert classify(scz) == "su2_plus_u1"

    for a in (F(5, 13), F(8, 17)):
        zb = rescale(basis_change(bilinear_generators(AlphaPoint.make(a))))
        assert classify(structure_constants(zb)) == "su2_plus_u1"

    limit = theta_one_limit_table(basis_change(bilinear_generators(AlphaPoint.make(0.5**0.5))))
    assert all(r < 1e-10 for r in limit.residuals.values())
    assert limit.jacobi_ok()
    assert classify(limit) == "heisenberg_plus_u1"
    ok(11, "deformed bracket table exact at alpha = 3/5, split-basis factor "
           "1 - theta^2 = 49/625, rescaled table is su(2), classification is "
           "su2_plus_u1 for 0 < theta < 1 and heisenberg_plus_u1 at theta = 1 "
           "(float residuals < 1e-10), Jacobi exact throughout")


def test_criterion_12_dual_matrix_scaling():
    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    # the sign-flipped hermitian partner g' is adj(g), since g11 = g22
    assert GL2(g.g11, -g.g12, -g.g21, g.g22) == GL2(g.g22, -g.g12, -g.g21, g.g11)
    assert g.det == Coeff(F(-7, 25))
    # its inverse law is M(adj g, L) M(g, L) = det(g)^L I
    assert rep_laws_check(g, g, 4).ok
    ok(12, "partner-matrix product M(g', L) M(g, L) = (-7/25)^L I exact for "
           "alpha = 3/5, L <= 4")


def _gauss_hermite_inner(a, b, c, d, nodes, weights):
    """Quadrature oracle: integral of conj(z^a zbar^b) z^c zbar^d against
    exp(-|z|^2)/pi, via an exact-degree product Gauss rule."""
    x = nodes[:, None]
    y = nodes[None, :]
    z = x + 1j * y
    zc = x - 1j * y
    f = (zc**a) * (z**b) * (z**c) * (zc**d)
    w = weights[:, None] * weights[None, :]
    return (w * f).sum() / np.pi


def test_criterion_13_moment_rule_vs_quadrature():
    nodes, weights = np.polynomial.hermite.hermgauss(25)  # exact through degree 49
    checked = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    exact = inner_product(BiPoly.monomial(a, b), BiPoly.monomial(c, d))
                    quad = _gauss_hermite_inner(a, b, c, d, nodes, weights)
                    want = complex(exact.to_complex())
                    scale = max(1.0, abs(want))
                    assert abs(quad - want) / scale <= 1e-8, (a, b, c, d, want, quad)
                    checked += 1
    # a handful of adaptive-quadrature spot checks on top of the fixed rule
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = random.Random(13)
    for _ in range(6):
        a, b, c, d = (rng.randint(0, 4) for _ in range(4))
        exact = inner_product(BiPoly.monomial(a, b), BiPoly.monomial(c, d)).to_complex()

        def integrand(y, x, part):
            z = complex(x, y)
            val = (z.conjugate() ** a) * (z**b) * (z**c) * (z.conjugate() ** d)
            val *= np.exp(-(x * x + y * y)) / np.pi
            return val.real if part == "re" else val.imag

        re, _ = scipy_integrate.dblquad(integrand, -7, 7, -7, 7, args=("re",), epsabs=1e-11)
        im, _ = scipy_integrate.dblquad(integrand, -7, 7, -7, 7, args=("im",), epsabs=1e-11)
        scale = max(1.0, abs(exact))
        assert abs(complex(re, im) - exact) / scale <= 1e-8, (a, b, c, d)
    ok(13, f"moment-rule inner products match numerical quadrature within "
           f"relative 1e-8 for all monomial degrees <= 6 ({checked} cases, "
           f"plus adaptive spot checks)")
