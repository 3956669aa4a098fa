import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import inversion_sign
from plethax import (
    EvalPoint,
    SparsePolynomial,
    a_beta,
    a_beta_eval,
    compositions,
    h_eval,
    h_poly,
    p_poly,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    staircase,
)
from plethax.polynomials import permutation_sign


@st.composite
def poly_st(draw, n_vars=3, max_terms=5, max_exp=4, max_coeff=6):
    terms = draw(
        st.dictionaries(
            st.tuples(*([st.integers(0, max_exp)] * n_vars)),
            st.integers(-max_coeff, max_coeff),
            max_size=max_terms,
        )
    )
    return SparsePolynomial(n_vars, terms)


def test_compositions_counts_and_order():
    assert list(compositions(2, 3)) == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    for total, length in [(4, 3), (5, 2), (0, 4)]:
        seen = list(compositions(total, length))
        assert len(seen) == math.comb(total + length - 1, length - 1)
        assert len(set(seen)) == len(seen)
        assert all(sum(c) == total and len(c) == length for c in seen)


def test_polynomial_drops_zero_terms():
    f = SparsePolynomial(2, {(1, 0): 3, (0, 1): 0})
    assert (0, 1) not in f.terms
    g = f - f
    assert g.is_zero and g.terms == {}
    assert SparsePolynomial(2, [((1, 1), 2), ((1, 1), -2)]).is_zero


def test_polynomial_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        SparsePolynomial(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        SparsePolynomial(2) + SparsePolynomial(3)
    with pytest.raises(TypeError):
        SparsePolynomial(2) + 7


def test_grevlex_render_order():
    f = SparsePolynomial(
        3,
        {
            (2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1,
            (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1,
        },
    )
    order = [e for e, _ in f.sorted_terms()]
    assert order == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    ]
    assert f.render().splitlines()[0] == "1 * x1^2"
    assert SparsePolynomial(2).render() == "0"
    assert SparsePolynomial(2, {(0, 0): 5}).render() == "5"


def test_records_round_trip():
    f = SparsePolynomial(3, {(2, 0, 1): -4, (0, 0, 0): 7})
    assert SparsePolynomial.from_records(3, f.to_records()) == f


@given(poly_st(), poly_st(), poly_st())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f - f == SparsePolynomial.zero(3)
    assert -(-f) == f


def test_h_poly_golden():
    f = h_poly(2, 3)
    assert f.terms == {
        (2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1,
        (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1,
    }
    assert len(h_poly(3, 4).terms) == math.comb(3 + 3, 3)
    with pytest.raises(ValueError):
        h_poly(0, 3)


def test_p_poly_golden():
    assert p_poly(3, 2).terms == {(3, 0): 1, (0, 3): 1}
    with pytest.raises(ValueError):
        p_poly(0, 2)


def test_plethysm_scales_exponents():
    f = plethysm_pr(h_poly(2, 2), 3)
    assert f.terms == {(6, 0): 1, (3, 3): 1, (0, 6): 1}
    assert plethysm_pr(p_poly(2, 3), 3) == p_poly(6, 3)
    with pytest.raises(ValueError):
        plethysm_pr(f, 0)


@given(poly_st(max_exp=3, max_terms=4), poly_st(max_exp=3, max_terms=4),
       st.integers(1, 3))
def test_plethysm_is_a_ring_map(f, g, r):
    assert plethysm_pr(f * g, r) == plethysm_pr(f, r) * plethysm_pr(g, r)
    assert plethysm_pr(f + g, r) == plethysm_pr(f, r) + plethysm_pr(g, r)


def test_a_beta_vandermonde():
    # (x1 - x2)(x1 - x3)(x2 - x3) expanded
    f = a_beta((2, 1, 0))
    assert f.terms == {
        (2, 1, 0): 1, (2, 0, 1): -1, (1, 2, 0): -1,
        (1, 0, 2): 1, (0, 2, 1): 1, (0, 1, 2): -1,
    }
    # repeated exponents collapse the determinant
    assert a_beta((3, 1, 1)).is_zero
    with pytest.raises(ValueError):
        a_beta((1, -1))
    with pytest.raises(ValueError):
        a_beta(tuple(range(9)))
    assert len(a_beta(tuple(range(9)), max_vars=9).terms) == math.factorial(9)


def test_a_beta_antisymmetry():
    assert a_beta((5, 2, 0)) == -a_beta((2, 5, 0))
    assert a_beta((5, 2, 0)) == a_beta((0, 5, 2))


def test_schur_21_from_alternant_ratio():
    # a_(4,2,0) should equal a_(2,1,0) * s_(2,1) in three variables
    s21 = SparsePolynomial(
        3,
        {
            (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
            (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
        },
    )
    assert a_beta((2, 1, 0)) * s21 == a_beta((4, 2, 0))


def test_eval_point_validation():
    with pytest.raises(ValueError):
        EvalPoint((1, 2), prime=97)
    with pytest.raises(ValueError):
        EvalPoint((-1,))
    pt = EvalPoint((5, 7))
    assert pt.values == (5, 7)


def test_seeded_points_are_deterministic():
    a = seeded_points(3, 4, seed=11)
    b = seeded_points(3, 4, seed=11)
    assert a == b
    assert seeded_points(3, 4, seed=12) != a
    assert all(len(pt.values) == 3 for pt in a)


@given(st.integers(2, 5), st.integers(0, 10**6), st.data())
def test_a_beta_eval_matches_symbolic(n, seed, data):
    beta = tuple(
        data.draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
    )
    point = seeded_points(n, 1, seed)[0]
    assert a_beta_eval(beta, point) == a_beta(beta).evaluate(point)


@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 10**6))
def test_h_eval_matches_expansion(n, m, seed):
    point = seeded_points(n, 1, seed)[0]
    if m == 0:
        assert h_eval(point.values, 0) == 1
    else:
        assert h_eval(point.values, m) == h_poly(m, n).evaluate(point)


def test_staircase_and_shifted_beta():
    assert staircase(4) == (3, 2, 1, 0)
    assert shifted_beta((2, 1), 4) == (5, 3, 1, 0)
    assert shifted_beta((), 3) == staircase(3)
    with pytest.raises(ValueError):
        shifted_beta((1, 1, 1), 2)


def test_evaluate_rejects_wrong_arity():
    with pytest.raises(ValueError):
        h_poly(2, 3).evaluate(EvalPoint((1, 2)))


@pytest.mark.parametrize("n", range(7))
def test_permutation_sign_matches_brute_force_inversion_count(n):
    for perm in itertools.permutations(range(n)):
        assert permutation_sign(perm) == inversion_sign(perm)
