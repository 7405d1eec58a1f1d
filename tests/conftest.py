"""Shared hypothesis strategies for the property tests, and the dense view
of gram's sparse rows."""

from fractions import Fraction

import hypothesis.strategies as st

from bihermite import BiPoly, Coeff, GL2, WeylOp

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)

coeffs = st.builds(Coeff, small_fractions, small_fractions)

nonzero_coeffs = coeffs.filter(bool)

# every slot of Q(i, sqrt2), each one zero often, so that products reach
# both the Gaussian and the full formula, with zero parts and halves
_slots = st.one_of(st.just(Fraction(0)), small_fractions)
radical_coeffs = st.builds(Coeff, _slots, _slots, _slots, _slots)


def _float_coeff(re, im, form):
    c = Coeff(re, im, exact=False)
    # negation and conjugation leave signed zeros in the radical slots
    return {"plain": c, "neg": -c, "conj": c.conj()}[form]


float_coeffs = st.builds(
    _float_coeff,
    st.floats(-8, 8, allow_nan=False) | st.sampled_from([0.0, -0.0]),
    st.floats(-8, 8, allow_nan=False) | st.sampled_from([0.0, -0.0]),
    st.sampled_from(["plain", "neg", "conj"]),
)

bipolys = st.dictionaries(
    keys=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    values=coeffs,
    max_size=4,
).map(BiPoly)

weylops = st.dictionaries(
    keys=st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
    ),
    values=coeffs,
    max_size=3,
).map(WeylOp)


def _gl2_or_none(entries):
    try:
        return GL2(*entries)
    except ValueError:
        return None


def gl2s(entries):
    """Invertible GL2 matrices with entries drawn from a coefficient strategy."""
    return st.tuples(entries, entries, entries, entries).map(_gl2_or_none).filter(
        lambda g: g is not None
    )


invertible_gl2 = gl2s(coeffs)


def dense_gram(rows, width) -> list:
    """gram's sparse rows {j: entry} as a dense matrix of width columns, an
    absent entry the exact zero.  Each row's columns must be in order and in
    range."""
    assert all(list(row) == sorted(row) and all(0 <= j < width for j in row) for row in rows)
    return [[row.get(j, Coeff(0)) for j in range(width)] for row in rows]
