"""Layer microbenchmarks: public calls of each module timed in isolation.

Runs inside a worker interpreter that has imported ``bihermite``.  Each call
is repeated in batches long enough for the clock, and the median time per
call over the batches is reported; a call that takes longer than a batch is
its own batch, repeated three times.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import bihermite as bh
from bihermite import linalg

BATCH_S = 0.002
BUDGET_S = 0.2
MIN_BATCHES = 3


def per_call(fn) -> float:
    """Median seconds per call of fn()."""
    n = 1
    while True:
        t = perf_counter()
        for _ in range(n):
            fn()
        dt = perf_counter() - t
        if dt >= BATCH_S:
            break
        n *= 4
    samples = [dt / n]
    deadline = perf_counter() + BUDGET_S
    while len(samples) < MIN_BATCHES or (perf_counter() < deadline and len(samples) < 50):
        t = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t) / n)
    return statistics.median(samples)


def _coeff(parts, exact=True) -> bh.Coeff:
    return bh.Coeff(*(Fraction(p) for p in parts), exact=exact)


def gl2(inputs) -> bh.GL2:
    return bh.GL2(*(bh.parse_coeff(tok) for tok in inputs["g"]))


def run(inputs: dict) -> dict:
    """Every microbenchmark metric, keyed by its per-layer metric name."""
    us, ms = 1e6, 1e3
    out = {}
    a, b = (_coeff(p) for p in inputs["coeff_qi"])
    r, s = (_coeff(p) for p in inputs["coeff_sqrt2"])
    fa, fb = a.to_float(), b.to_float()
    k = inputs["coeff_int"]
    out["coeffs.mul_qi_us"] = per_call(lambda: a * b) * us
    out["coeffs.mul_int_us"] = per_call(lambda: a * k) * us
    out["coeffs.mul_sqrt2_us"] = per_call(lambda: r * s) * us
    out["coeffs.mul_float_us"] = per_call(lambda: fa * fb) * us
    out["coeffs.add_us"] = per_call(lambda: a + b) * us
    out["coeffs.inverse_us"] = per_call(a.inverse) * us

    g = gl2(inputs)
    i, j = inputs["poly_index"]
    p, q = bh.deformed_hermite(g, i, j), bh.deformed_hermite(g, j, i)
    out["poly.bipoly_mul_us"] = per_call(lambda: p * q) * us
    out["poly.inner_product_us"] = per_call(lambda: bh.inner_product(p, q)) * us

    r1, r2 = bh.deformed_raising(g)
    l1, l2 = bh.deformed_lowering(g)
    left, right = r1 * l2, r2 * l1
    word = r1 * r1 * r2
    target = bh.hermite_sum(2, 2)
    out["weyl.mul_us"] = per_call(lambda: left * right) * us
    out["weyl.apply_us"] = per_call(lambda: word.apply(target)) * us

    m, n = inputs["hermite_pairs"][-1]
    out["hermite.hermite_sum_us"] = per_call(lambda: bh.hermite_sum(m, n)) * us
    out["hermite.orthonormality_ms.L10"] = per_call(lambda: bh.orthonormality_check(10)) * ms

    for L in inputs["rep_levels"]:
        out[f"deform.rep_matrix_ms.L{L}"] = per_call(lambda: bh.rep_matrix(g, L)) * ms
    out["deform.level_basis_ms.L8"] = per_call(lambda: bh.level_basis(8, g)) * ms
    m8 = bh.rep_matrix(g, 8).entries
    out["linalg.mat_inverse_ms.L8"] = per_call(lambda: linalg.mat_inverse(m8)) * ms

    point = bh.AlphaPoint.make(Fraction(inputs["alpha"]))
    theta, gamma = (Fraction(x) for x in inputs["qp"])
    out["ncqm.build_dictionary_ms"] = per_call(lambda: bh.build_dictionary(alpha=point)) * ms
    out["ncqm.qp_suite_ms"] = per_call(lambda: bh.qp_representation_suite(theta, gamma)) * ms

    xbasis = bh.basis_change(bh.bilinear_generators(point))
    zbasis = bh.rescale(xbasis)
    sc = bh.structure_constants(zbasis)
    out["lie.structure_constants_ms"] = per_call(lambda: bh.structure_constants(zbasis)) * ms
    out["lie.jacobi_ok_ms"] = per_call(sc.jacobi_ok) * ms
    out["lie.classify_ms"] = per_call(lambda: bh.classify(sc)) * ms
    out["lie.report_ms"] = per_call(lambda: bh.lie_report(point)) * ms

    vectors = [op.terms for op in xbasis.ops]
    bracket = bh.commutator(xbasis.ops[0], xbasis.ops[1]).terms
    out["linalg.solve_in_span_us"] = per_call(lambda: linalg.solve_in_span(vectors, bracket)) * us
    return out


def _coeff_text(c: bh.Coeff) -> list[str]:
    return [str(c.re), str(c.im), str(c.re2), str(c.im2)]


def outputs(inputs: dict) -> dict:
    """Library results on the microbenchmark inputs, for the independent oracle."""
    g = gl2(inputs)
    return {
        "rep_matrix": {
            str(L): [[_coeff_text(c) for c in row] for row in bh.rep_matrix(g, L).entries]
            for L in inputs["rep_levels"]
        },
        "hermite_sum": {
            f"{m},{n}": [[a, b2, *_coeff_text(c)] for (a, b2), c in bh.hermite_sum(m, n).terms.items()]
            for m, n in inputs["hermite_pairs"]
        },
    }
