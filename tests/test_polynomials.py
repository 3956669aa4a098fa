import ast
import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    eliminated_alternant_eval,
    inversion_sign,
    naive_alternant_product,
)
from plethax import (
    DEFAULT_PRIME,
    EvalPoint,
    Partition,
    SchurExpansion,
    SparsePolynomial,
    a_beta,
    a_beta_eval,
    compositions,
    h_eval,
    h_poly,
    p_poly,
    partitions_of,
    plethysm_pr,
    polynomials,
    seeded_points,
    shifted_beta,
    staircase,
)
from plethax.polynomials import GuardError, permutation_sign, straighten_product


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


def test_compositions_checks_arguments_at_the_call():
    for total, length in [(2, -1), (-1, 2)]:
        with pytest.raises(ValueError, match="nonnegative total and length"):
            compositions(total, length)


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


@pytest.mark.parametrize(
    "terms, bad",
    [
        ({(1.5, 0): 1}, "1.5"),
        ({(1, "2"): 1}, "'2'"),
        ({(1, 0): 2.5}, "2.5"),
        ({(1, 0): "3"}, "'3'"),
    ],
    ids=["exponent-float", "exponent-str", "coefficient-float", "coefficient-str"],
)
def test_polynomial_rejects_non_integral_entries(terms, bad):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer entry, got {bad}")):
        SparsePolynomial(2, terms)


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
        EvalPoint((-1,))
    with pytest.raises(ValueError):
        EvalPoint((DEFAULT_PRIME,))
    pt = EvalPoint((5, 7))
    assert pt.values == (5, 7)
    assert pt.prime == DEFAULT_PRIME


@pytest.mark.parametrize(
    "call",
    [
        lambda: SchurExpansion({Partition((1,)): 1.5}),
        lambda: a_beta((1.5, 0)),
        lambda: EvalPoint((1.5, 2)),
        lambda: a_beta_eval((1.5, 0), EvalPoint((3, 5))),
        lambda: h_eval((1.5, 2), 2),
    ],
    ids=["schur-coefficient", "a_beta", "eval-point", "a_beta_eval", "h_eval"],
)
def test_entry_points_reject_non_integral_entries(call):
    with pytest.raises(ValueError, match=re.escape("expected an integer entry, got 1.5")):
        call()


def test_seeded_points_are_deterministic():
    a = seeded_points(3, 4, seed=11)
    b = seeded_points(3, 4, seed=11)
    assert a == b
    assert seeded_points(3, 4, seed=12) != a
    assert all(len(pt.values) == 3 for pt in a)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_seeded_points_equal_checked_points(seed):
    """seeded_points skips the constructor's checks; its points are the
    ones the checking constructor builds from the same coordinates."""
    for n in range(15):
        for point in seeded_points(n, 5, seed):
            checked = EvalPoint(point.values)
            assert point == checked and hash(point) == hash(checked)
            assert type(point.values) is tuple and len(point.values) == n
            assert all(type(v) is int for v in point.values)


@given(st.integers(2, 5), st.integers(0, 10**6), st.data())
def test_a_beta_eval_matches_symbolic(n, seed, data):
    beta = tuple(
        data.draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
    )
    point = seeded_points(n, 1, seed)[0]
    assert a_beta_eval(beta, point) == a_beta(beta).evaluate(point)


@st.composite
def alternant_case_st(draw):
    """(beta, point) with N <= 14: beta unsorted, with zeros, shaped both
    wide and tall, and in about a quarter of the cases with a repeated
    entry; a point that in about a quarter of the cases repeats a
    coordinate, and in another quarter has a zero one."""
    n = draw(st.integers(0, 14))
    top = draw(st.integers(max(n - 1, 0), 3 * n + 4))
    beta = draw(st.permutations(range(top + 1)))[:n]
    values = draw(
        st.lists(st.integers(1, 2**31 - 2), min_size=n, max_size=n, unique=True)
    )
    degenerate = draw(st.sampled_from(["none", "none", "beta", "point", "zero"]))
    if n >= 2 and degenerate in ("beta", "point"):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if degenerate == "beta":
            beta[i] = beta[j]
        else:
            values[i] = values[j]
    if n and degenerate == "zero":
        values[draw(st.integers(0, n - 1))] = 0
    return tuple(beta), EvalPoint(tuple(values))


@given(alternant_case_st())
def test_a_beta_eval_matches_elimination(case):
    beta, point = case
    assert a_beta_eval(beta, point) == eliminated_alternant_eval(beta, point)


@pytest.mark.parametrize(
    "lam, size",
    [((), 0), ((3,), 1), ((1, 1, 1), 1), ((4, 2, 1), 3), ((2, 1, 1, 1, 1), 2),
     ((5, 5), 2), ((1,) * 7, 1)],
)
def test_a_beta_eval_takes_the_smaller_jacobi_trudi_determinant(
    monkeypatch, lam, size
):
    sizes = []
    det = polynomials._det_mod

    def recording(rows, p):
        sizes.append(len(rows))
        return det(rows, p)

    monkeypatch.setattr(polynomials, "_det_mod", recording)
    point = seeded_points(8, 1, seed=3)[0]
    beta = shifted_beta(lam, 8)[::-1]
    assert a_beta_eval(beta, point) == eliminated_alternant_eval(beta, point)
    assert sizes == [size]


def test_a_beta_eval_rejects_bad_exponents():
    point = seeded_points(3, 1, seed=0)[0]
    with pytest.raises(ValueError, match="point has 3 coordinates, need 2"):
        a_beta_eval((1, 0), point)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        a_beta_eval((2, -1, 0), point)
    assert a_beta_eval((), EvalPoint(())) == 1


@given(
    st.integers(1, 5),
    st.integers(0, 6),
    st.integers(0, 10**6),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
def test_h_eval_matches_expansion(n, m, seed, shifts):
    """h_eval works modulo the prime: shifting each coordinate by a
    multiple of it, to a negative value or to one of at least the prime,
    changes nothing."""
    point = seeded_points(n, 1, seed)[0]
    shifted = [v + k * DEFAULT_PRIME for v, k in zip(point.values, shifts)]
    if m == 0:
        assert h_eval(point.values, 0) == h_eval(shifted, 0) == 1
    else:
        expected = h_poly(m, n).evaluate(point)
        assert h_eval(point.values, m) == h_eval(shifted, m) == expected


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


@st.composite
def symmetric_st(draw, n_vars):
    """h_m[p_r], or a product of one to three power sums, in n_vars variables."""
    if draw(st.booleans()):
        return plethysm_pr(h_poly(draw(st.integers(1, 3)), n_vars), draw(st.integers(1, 3)))
    f = p_poly(draw(st.integers(1, 3)), n_vars)
    for r in draw(st.lists(st.integers(1, 3), max_size=2)):
        f = f * p_poly(r, n_vars)
    return f


@given(st.data())
def test_straighten_product_matches_naive_product(data):
    n = data.draw(st.integers(1, 6), label="n")
    beta = data.draw(st.tuples(*[st.integers(0, 7)] * n), label="beta")
    f = data.draw(symmetric_st(n), label="f")
    naive = naive_alternant_product(beta, f)
    straight = straighten_product(beta, f)

    assert all(
        list(v) == sorted(set(v), reverse=True) and c for v, c in straight.items()
    )
    total = SparsePolynomial.zero(n)
    for v, c in straight.items():
        total = total + a_beta(v).scale(c)
    assert total.terms == naive
    assert len(naive) == math.factorial(n) * len(straight)

    # Perturb one coefficient of the right-hand side, on a vector of the
    # product or on a new decreasing vector of the same degree.
    extra = sum(beta) + sum(next(iter(f.terms))) - n * (n - 1) // 2
    candidates = list(straight)
    if extra >= 0:
        lam = data.draw(st.sampled_from(list(partitions_of(extra, max_length=n))), label="lam")
        candidates.append(shifted_beta(lam.parts, n))
    if not candidates:
        return
    v = data.draw(st.sampled_from(candidates), label="v")
    rhs = dict(straight)
    rhs[v] = rhs.get(v, 0) + data.draw(st.sampled_from([-2, -1, 1, 3]), label="delta")
    naive_rhs = SparsePolynomial.zero(n)
    for w, c in rhs.items():
        naive_rhs = naive_rhs + a_beta(w).scale(c)
    naive_diff = SparsePolynomial(n, naive) - naive_rhs
    diff = {
        w: straight.get(w, 0) - rhs.get(w, 0)
        for w in set(straight) | set(rhs)
        if straight.get(w, 0) != rhs.get(w, 0)
    }
    first = min(diff, key=lambda w: w[::-1])
    assert naive_diff.sorted_terms()[0] == (first, diff[first])


def test_straighten_product_golden():
    # a_{(2,1,0)} * p_2 = a_{(4,1,0)} + a_{(2,3,0)} + a_{(2,1,2)}
    #                   = a_{(4,1,0)} - a_{(3,2,0)}: sorting (2,3,0) takes
    #                   one swap, and (2,1,2) has a repeated entry.
    assert straighten_product((2, 1, 0), p_poly(2, 3)) == {(4, 1, 0): 1, (3, 2, 0): -1}
    # Unsorted beta straightens too: a_{(0,1,2)} = -a_{(2,1,0)}.
    assert straighten_product((0, 1, 2), p_poly(2, 3)) == {(4, 1, 0): -1, (3, 2, 0): 1}
    assert straighten_product((1, 1, 0), h_poly(2, 3)) == {}
    assert straighten_product((), SparsePolynomial(0, {(): 5})) == {(): 5}


def test_straighten_product_shares_the_alternant_guard():
    beta = staircase(9)
    f = h_poly(1, 9)
    with pytest.raises(GuardError) as straight:
        straighten_product(beta, f)
    with pytest.raises(GuardError) as alternant:
        a_beta(beta)
    assert str(straight.value) == str(alternant.value) == (
        "9-variable alternant is past the guard (8); "
        "pass max_vars=9 to force the symbolic expansion"
    )
    assert straighten_product(beta, f, max_vars=9) == {(9, 7, 6, 5, 4, 3, 2, 1, 0): 1}
    with pytest.raises(ValueError, match="f has 3 variables, beta has 2 entries"):
        straighten_product((1, 0), p_poly(1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        straighten_product((1, -1), p_poly(1, 2))


def test_polynomials_imports_nothing_from_plethax():
    """The oracle module stays independent of the code it checks."""
    tree = ast.parse(Path(polynomials.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported
    assert not [
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "plethax"
    ]
