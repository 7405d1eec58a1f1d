"""Backend contract: every scalar a routine returns is on its input's backend.

The library reads the backend off the values, so a constant that a routine
builds itself (a zero, a one, the seed of a recurrence) must come out on the
backend of what it was given.  An exact constant left in a float result is
invisible to the identity checks, which compare across backends with
`close`, so these tests look at each returned scalar's backend directly.
"""

from fractions import Fraction as F
from math import lcm

import pytest

from bihermite import (
    GL2,
    AlphaPoint,
    Coeff,
    RepMatrix,
    basis_change,
    bilinear_generators,
    build_dictionary,
    deform,
    deformed_generating_series,
    deformed_hermite,
    dual_family,
    intertwine_check,
    level_basis,
    rep_laws_check,
    rep_matrix,
    rescale,
    structure_constants,
)
from bihermite.linalg import charpoly, mat_inverse, mat_mul, nullspace, solve_in_span
from bihermite.poly import SparseMap

# non-real entries, with a sqrt2 slot on the exact backend
G = GL2(Coeff(1, 1), Coeff(2), Coeff(F(1, 3), -1, 1), Coeff(3, -1))
BACKENDS = {"exact": G, "float": GL2(*(c.to_float() for c in G.entries()))}
ALPHAS = {"exact": F(3, 5), "float": 0.6}
THETAS = {"exact": F(3, 5), "float": 0.6}


def scalars(obj):
    """Every Coeff in a value, a sparse map, a matrix or a nested list."""
    if isinstance(obj, Coeff):
        yield obj
    elif isinstance(obj, SparseMap):
        yield from obj.terms.values()
    elif isinstance(obj, RepMatrix):
        yield from scalars(obj.entries)
    else:
        for x in obj:
            yield from scalars(x)


def assert_on_backend(results: dict, backend: str):
    """Each labelled result holds at least one scalar, and all on backend."""
    exact = backend == "exact"
    wrong = {
        label: sorted({"exact" if c.exact else "float" for c in values})
        for label, values in ((k, list(scalars(v))) for k, v in results.items())
        if not values or any(c.exact != exact for c in values)
    }
    assert wrong == {}, f"not all on the {backend} backend"


@pytest.mark.parametrize("backend", BACKENDS)
def test_level_matrices_stay_on_the_backend(backend):
    g = BACKENDS[backend]
    results = {}
    for L in (0, 1, 3):
        M = rep_matrix(g, L)
        results |= {
            f"M(g, {L})": M,
            f"mat_inverse(M(g, {L}))": mat_inverse(M.entries),
            f"M(g, {L}).adjoint()": M.adjoint(),
            f"mat_mul(M(g, {L}), M(g, {L}))": mat_mul(M.entries, M.entries),
        }
    assert_on_backend(results, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_level_checks_walk_on_the_backend(monkeypatch, backend):
    # every matrix the level laws and the intertwiner walk, the identity of
    # the identity law included, and every slot of the walks' lists: exact
    # on both backends, since a float g is walked at the dyadic value it holds
    g = BACKENDS[backend]
    walked, slots = {}, set()

    def recording(walk):
        def run(G, radical):
            walked[f"{walk.__name__} {len(walked)}"] = list(G.entries())
            for level in walk(G, radical):
                for vector in level:
                    for m in vector:
                        slots.update(map(type, m.values() if isinstance(m, dict) else m))
                yield level

        return run

    for name in ("_level_walk", "_raised_walk"):
        monkeypatch.setattr(deform, name, recording(getattr(deform, name)))
    assert rep_laws_check(g, g, 3).ok and intertwine_check(g, 3).ok
    assert len(walked) == 7 + 2
    assert_on_backend(walked, "exact")
    assert slots == {int}
    # G = q_g g, each float slot read as the Fraction it is: q_g is a power
    # of 2 and G is integral
    dyadic = [c if c.exact else Coeff(F(c.a), F(c.b)) for c in g.entries()]
    qg = lcm(*(c.q for c in dyadic))
    assert walked["_raised_walk 0"] == walked["_level_walk 2"] == [c * qg for c in dyadic]
    assert backend == "exact" or qg & (qg - 1) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_linear_algebra_stays_on_the_backend(backend):
    m1 = rep_matrix(BACKENDS[backend], 1).entries
    m3 = rep_matrix(BACKENDS[backend], 3).entries
    # a third column equal to the sum of the first two: one free column
    dependent = [row + [row[0] + row[1]] for row in m1]
    columns = [{r: m3[r][k] for r in range(4)} for k in range(4)]
    with_free = columns[:2] + [{r: columns[0][r] + columns[1][r] for r in range(4)}]
    target = {r: columns[0][r] * m3[0][0] + columns[1][r] for r in range(4)}
    results = {
        "charpoly(M(g, 1))": charpoly(m1),
        "charpoly(M(g, 3))": charpoly(m3),
        "mat_inverse(M(g, 3))": mat_inverse(m3),
        "nullspace": nullspace(dependent),
        "solve_in_span, independent": solve_in_span(columns, target)[0],
        "solve_in_span, a free column": solve_in_span(with_free, target)[0],
    }
    assert_on_backend(results, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_deformed_families_stay_on_the_backend(backend):
    g = BACKENDS[backend]
    results = {
        f"deformed_hermite(g, {k}, {l})": deformed_hermite(g, k, l)
        for k in range(3)
        for l in range(3 - k)
    }
    for L in (0, 1, 3):
        results[f"level_basis({L}, g)"] = level_basis(L, g)
        results[f"dual_family(g, {L})"] = dual_family(g, L).polys
    series = deformed_generating_series(g, 3)
    results["deformed_generating_series(g, 3)"] = list(series.terms.values())
    assert_on_backend(results, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_structure_constants_stay_on_the_backend(backend):
    jbasis = bilinear_generators(AlphaPoint.make(ALPHAS[backend]))
    xbasis = basis_change(jbasis)
    results = {
        f"{label} table": list(structure_constants(basis).table.values())
        for label, basis in (("J", jbasis), ("X", xbasis), ("Z", rescale(xbasis)))
    }
    assert_on_backend(results, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_operator_dictionaries_stay_on_the_backend(backend):
    names = [f"{op}{i}" for op in ("Q", "P", "A", "Ad") for i in (1, 2)]
    by_alpha = build_dictionary(alpha=ALPHAS[backend])
    # gamma is a Fraction on both: one float parameter puts the set in float
    by_theta = build_dictionary(theta=THETAS[backend], gamma=F(16, 15))
    results = {f"alpha route {name}": by_alpha[name] for name in names}
    results |= {f"(theta, gamma) route {name}": by_theta[name] for name in names}
    assert_on_backend(results, backend)
