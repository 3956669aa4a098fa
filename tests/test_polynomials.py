import ast
import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    eliminated_alternant_eval,
    evaluate,
    inversion_sign,
    leibniz_det_mod,
    naive_alternant_product,
    p_poly,
    sorted_terms,
)
from plethax import (
    DEFAULT_PRIME,
    LabelledAbacus,
    Partition,
    SchurExpansion,
    SkewPartition,
    SparsePolynomial,
    a_beta,
    a_beta_eval,
    compositions,
    enumerate_supersets,
    h_eval,
    h_poly,
    partitions_of,
    plethysm_pr,
    polynomials,
    r_decompose,
    seeded_points,
    shifted_beta,
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
    order = [e for e, _ in sorted_terms(f)]
    assert order == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
    ]


@given(poly_st(), poly_st(), poly_st())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert f - f == SparsePolynomial.zero(3)
    assert f.scale(-1).scale(-1) == f


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
    assert a_beta((5, 2, 0)) == a_beta((2, 5, 0)).scale(-1)
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
    for values in ((-1,), (DEFAULT_PRIME,)):
        with pytest.raises(ValueError, match=re.escape("coordinates must lie in [0, prime)")):
            a_beta_eval((0,), values)
    assert a_beta_eval((1, 0), (5, 7)) == 5 - 7 + DEFAULT_PRIME


@pytest.mark.parametrize(
    "call",
    [
        lambda: SchurExpansion({Partition((1,)): 1.5}),
        lambda: SchurExpansion({(1.5,): 1}),
        lambda: a_beta((1.5, 0)),
        lambda: a_beta_eval((1, 0), (1.5, 2)),
        lambda: a_beta_eval((1.5, 0), (3, 5)),
        lambda: h_eval((1.5, 2), 2),
    ],
    ids=["schur-coefficient", "schur-shape", "a_beta", "eval-point", "a_beta_eval", "h_eval"],
)
def test_entry_points_reject_non_integral_entries(call):
    with pytest.raises(ValueError, match=re.escape("expected an integer entry, got 1.5")):
        call()


_W = LabelledAbacus((1, 0, 2, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r_decompose(SkewPartition(Partition((2,)), Partition()), 0),
         "strip size must be positive, got 0"),
        (lambda: enumerate_supersets(Partition(), 0, 1), "strip size must be positive, got 0"),
        (lambda: enumerate_supersets(Partition(), 1, -1), "strip count must be nonnegative, got -1"),
        (lambda: h_eval((1, 2), -1), "degree must be nonnegative, got -1"),
        (lambda: SparsePolynomial(-1), "n_vars must be nonnegative, got -1"),
        (lambda: _W.slot(-1), "slot index must be nonnegative, got -1"),
        (lambda: _W.position(4), "no bead labelled 4 (have 1..3)"),
        (lambda: _W.r_move(1, 0), "shift distance must be positive, got 0"),
        (lambda: _W.left_r_move(3, 1), "slot 2 is occupied by bead 2"),
        (lambda: _W.swap(2, 2), "swap needs two distinct beads"),
    ],
    ids=[
        "r_decompose-size", "supersets-size", "supersets-count", "h_eval-degree",
        "n_vars", "slot", "position", "r_move", "left_r_move", "swap",
    ],
)
def test_public_edge_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_seeded_points_are_deterministic():
    a = seeded_points(3, 4, seed=11)
    b = seeded_points(3, 4, seed=11)
    assert a == b
    assert seeded_points(3, 4, seed=12) != a
    assert all(len(pt) == 3 for pt in a)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
def test_seeded_points_equal_checked_points(seed):
    """seeded_points returns the coordinate tuples a_beta_eval checks for:
    n ints in [0, DEFAULT_PRIME) each."""
    for n in range(15):
        for point in seeded_points(n, 5, seed):
            assert type(point) is tuple and len(point) == n
            assert all(type(v) is int and 0 <= v < DEFAULT_PRIME for v in point)


@given(st.integers(2, 5), st.integers(0, 10**6), st.data())
def test_a_beta_eval_matches_symbolic(n, seed, data):
    beta = tuple(
        data.draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
    )
    point = seeded_points(n, 1, seed)[0]
    assert a_beta_eval(beta, point) == evaluate(a_beta(beta), point)


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
    return tuple(beta), tuple(values)


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
    calls = []
    det = polynomials._det_mod

    def recording(rows, lanes, p):
        calls.append((len(rows), lanes))
        return det(rows, lanes, p)

    monkeypatch.setattr(polynomials, "_det_mod", recording)
    point = seeded_points(8, 1, seed=3)[0]
    beta = shifted_beta(lam, 8)[::-1]
    assert a_beta_eval(beta, point) == eliminated_alternant_eval(beta, point)
    assert calls == [(size, 1)]


def lanes_of(matrices):
    """Same-size matrices held entrywise, as _det_mod takes them: entry
    (i, j) lists every matrix's (i, j) entry."""
    n = len(matrices[0])
    return [[[a[i][j] for a in matrices] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "rows, det",
    [
        ([[0, 1], [1, 0]], DEFAULT_PRIME - 1),
        ([[0, 2, 1], [3, 0, 0], [0, 1, 0]], 3),
        # singular: rows 2 and 3 agree up to a factor, found after a swap
        ([[0, 1, 1], [1, 0, 0], [2, 0, 0]], 0),
        ([[0, 0], [0, 5]], 0),
        # 5x5 and up are eliminated, so these reach the swap itself
        ([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0], [0, 1, 0, 0, 2], [0, 0, 0, 1, 0],
          [3, 0, 0, 0, 1]], DEFAULT_PRIME - 7),  # one swap, at column 1
        ([[0, 1, 1, 0, 0], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0], [0, 0, 0, 1, 0],
          [0, 0, 0, 0, 1]], 0),  # a swap at column 0, then singular at 2
        ([[0, 2, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
          [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 1]], 1),  # swaps at 0 and 3
    ],
)
def test_det_mod_swaps_rows_past_a_zero_pivot(rows, det):
    assert leibniz_det_mod(rows, DEFAULT_PRIME) == det
    assert polynomials._det_mod(lanes_of([rows]), 1, DEFAULT_PRIME) == [det]


@st.composite
def zero_corner_matrix_st(draw):
    """A 1x1 to 5x5 matrix of small entries whose top-left entry is 0, so
    elimination starts by looking for a row to swap in."""
    n = draw(st.integers(1, 5))
    rows = [
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(n)
    ]
    rows[0][0] = 0
    return rows


@given(zero_corner_matrix_st())
def test_det_mod_matches_leibniz_on_zero_pivots(rows):
    expected = leibniz_det_mod(rows, DEFAULT_PRIME)
    assert polynomials._det_mod(lanes_of([rows]), 1, DEFAULT_PRIME) == [expected]


@st.composite
def dense_matrix_st(draw):
    """A 0x0 to 6x6 matrix with entries anywhere in [0, DEFAULT_PRIME), so
    the closed forms (sizes 0 to 4) and elimination (5 up) both see large
    products."""
    n = draw(st.integers(0, 6))
    entry = st.integers(0, DEFAULT_PRIME - 1)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@example([])
@given(dense_matrix_st())
def test_det_mod_matches_leibniz_on_dense_matrices(rows):
    expected = leibniz_det_mod(rows, DEFAULT_PRIME)
    assert polynomials._det_mod(lanes_of([rows]), 1, DEFAULT_PRIME) == [expected]


@st.composite
def lane_matrices_st(draw):
    """Two to five 0x0 to 6x6 matrices of one size: one whose entries lie
    anywhere in [0, DEFAULT_PRIME), so the closed forms (sizes 0 to 4) and
    elimination (5 up) see large products; one of small entries with a 0 in
    its top-left corner, so elimination starts by looking for a row to swap
    in, and is often singular; and up to three more of either kind, in a
    drawn order."""
    n = draw(st.integers(0, 6))

    def matrix(entry):
        return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]

    dense = st.integers(0, DEFAULT_PRIME - 1)
    small = st.integers(0, 3)
    corner = matrix(small)
    if n:
        corner[0][0] = 0
    matrices = [matrix(dense), corner]
    extra = draw(st.lists(st.sampled_from([dense, small]), max_size=3))
    matrices += [matrix(entry) for entry in extra]
    return draw(st.permutations(matrices))


@example([[[0, 1], [1, 0]], [[5, 7], [11, 13]]])
@example([[[0] * 5] * 5, [[3 ** (i * j) for j in range(5)] for i in range(5)]])
@given(lane_matrices_st())
def test_det_mod_matches_leibniz_lane_by_lane(matrices):
    rows = lanes_of(matrices)
    before = [[entry[:] for entry in row] for row in rows]
    expected = [leibniz_det_mod(a, DEFAULT_PRIME) for a in matrices]
    assert polynomials._det_mod(rows, len(matrices), DEFAULT_PRIME) == expected
    assert rows == before


@st.composite
def shapes_st(draw, n):
    """Up to four partitions of at most n parts, each in about half the
    cases no longer than its first part (the h side of _alternants_at) and
    otherwise longer (the e side)."""
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        if n >= 2 and draw(st.booleans()):
            depth = draw(st.integers(2, n))
            width = draw(st.integers(1, depth - 1))
        else:
            depth = draw(st.integers(0, n))
            width = draw(st.integers(depth, 2 * n + 2)) if depth else 0
        rest = draw(st.lists(st.integers(1, max(width, 1)), min_size=max(depth - 1, 0),
                             max_size=max(depth - 1, 0)))
        shapes.append(((width,) + tuple(sorted(rest, reverse=True))) if depth else ())
    return shapes


@st.composite
def shapes_at_points_st(draw, n_vars):
    """(shapes, points): shapes_st's shapes and one to three points with
    distinct nonzero coordinates."""
    n = draw(n_vars)
    point = st.lists(st.integers(1, 2**31 - 2), min_size=n, max_size=n, unique=True)
    return draw(shapes_st(n)), draw(st.lists(point.map(tuple), min_size=1, max_size=3))


def assert_alternants_at_match_elimination(shapes, points):
    # One table serves every shape, as the modular verifier uses it, on the
    # points alone and all together; the Vandermonde times each
    # determinant is the full alternant.
    n = len(points[0])
    a_delta = [polynomials._vandermonde(x) for x in points]
    tables = [polynomials._alternants_at([x]) for x in points]
    tables.append(polynomials._alternants_at(points))
    for lam in shapes:
        expected = [eliminated_alternant_eval(shifted_beta(lam, n), x) for x in points]
        lanes = [det for table in tables[:-1] for det in table(lam)]
        assert len(lanes) == len(points)
        for dets in (lanes, tables[-1](lam)):
            assert [a * d % DEFAULT_PRIME for a, d in zip(a_delta, dets)] == expected


@given(shapes_at_points_st(st.integers(0, 14)))
def test_alternants_at_takes_shapes(case):
    assert_alternants_at_match_elimination(*case)


@settings(max_examples=10)
@given(shapes_at_points_st(st.just(24)))
def test_alternants_at_takes_shapes_at_24_variables(case):
    assert_alternants_at_match_elimination(*case)


@st.composite
def lanes_at_shapes_st(draw):
    """(shapes, points): shapes_st's shapes and 1 to 20 points of 0 to 10
    coordinates anywhere in [0, DEFAULT_PRIME), one of which repeats a
    coordinate (given two) and one of which has a zero one (given one)."""
    n = draw(st.integers(0, 10))
    count = draw(st.integers(1, 20))
    coordinate = st.integers(0, DEFAULT_PRIME - 1)
    points = [draw(st.lists(coordinate, min_size=n, max_size=n)) for _ in range(count)]
    repeated, zeroed = draw(st.permutations(range(max(count, 2))))[:2]
    if n >= 2 and repeated < count:
        i, j = draw(st.permutations(range(n)))[:2]
        points[repeated][i] = points[repeated][j]
    if n and zeroed < count:
        points[zeroed][draw(st.integers(0, n - 1))] = 0
    return draw(shapes_st(n)), [tuple(x) for x in points]


@given(lanes_at_shapes_st())
def test_alternants_at_lanes_match_one_lane_tables(case):
    shapes, points = case
    table = polynomials._alternants_at(points)
    for lam in shapes:
        assert table(lam) == [polynomials._alternants_at([x])(lam)[0] for x in points]


def test_a_beta_eval_rejects_bad_exponents():
    point = seeded_points(3, 1, seed=0)[0]
    with pytest.raises(ValueError, match="point has 3 coordinates, need 2"):
        a_beta_eval((1, 0), point)
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        a_beta_eval((2, -1, 0), point)
    assert a_beta_eval((), ()) == 1


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
    shifted = [v + k * DEFAULT_PRIME for v, k in zip(point, shifts)]
    if m == 0:
        assert h_eval(point, 0) == h_eval(shifted, 0) == 1
    else:
        expected = evaluate(h_poly(m, n), point)
        assert h_eval(point, m) == h_eval(shifted, m) == expected


def test_staircase_and_shifted_beta():
    assert shifted_beta((), 4) == (3, 2, 1, 0)
    assert shifted_beta((2, 1), 4) == (5, 3, 1, 0)
    with pytest.raises(ValueError):
        shifted_beta((1, 1, 1), 2)


def test_evaluate_rejects_wrong_arity():
    with pytest.raises(ValueError):
        evaluate(h_poly(2, 3), (1, 2))


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
    assert sorted_terms(naive_diff)[0] == (first, diff[first])


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
    beta = shifted_beta((), 9)
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


def test_package_source_has_no_assert_statements():
    """Invariants raise errors that python -O keeps; an assert would vanish."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(polynomials.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
