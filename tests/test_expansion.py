import ast
import copy
import inspect
import math
import pickle
import random
import re
from collections import Counter
from itertools import product, takewhile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    eliminated_alternant_eval,
    expand_iterated_by_single_factors,
    iterated_by_shapes,
    naive_alternant_product,
    p_poly,
    single_strip_rule,
    sorted_terms,
    verify_process_by_regeneration,
    young_rule,
)
from plethax import expansion, polynomials, process
from plethax import (
    Composition,
    LabelledAbacus,
    Partition,
    SchurExpansion,
    SparsePolynomial,
    Successful,
    a_beta,
    h_eval,
    h_poly,
    partitions_of,
    pmn_expand,
    pmn_expand_iterated,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    verify_against_oracle,
    verify_process_identity,
)
from plethax.polynomials import DEFAULT_PRIME, GuardError


def test_schur_expansion_drops_zeros_and_merges():
    e = SchurExpansion([(Partition((2,)), 1), (Partition((2,)), -1)])
    assert len(e) == 0 and e.coefficient(Partition((2,))) == 0
    e = SchurExpansion([(Partition((2,)), 1), (Partition((2,)), 2)])
    assert e.coefficient(Partition((2,))) == 3


def test_schur_expansion_checks_its_shapes():
    e = SchurExpansion({(2,): 1})
    assert e == SchurExpansion({Partition((2,)): 1}) and type(e[0][0]) is Partition
    assert SchurExpansion([((2, 0), 1), ((2,), 2)]) == SchurExpansion({(2,): 3})
    with pytest.raises(ValueError, match="weakly decreasing: 1 before 2"):
        SchurExpansion({(1, 2): 1})


def test_expansions_are_checked_tuples():
    """An expansion compares, hashes and iterates as the tuple of its terms
    in display order, and copies and pickles; tuple.__new__ builds one
    without the checks or the sort."""
    e = pmn_expand(Partition(), 2, 2)
    terms = ((Partition((4,)), 1), (Partition((3, 1)), -1), (Partition((2, 2)), 1))
    assert e == terms and hash(e) == hash(terms) and tuple(e) == terms
    assert e.items() == list(e) == list(terms)
    assert dict(e) == {(4,): 1, (3, 1): -1, (2, 2): 1}
    shapes = [(5,), (4,), (3, 2), (3, 1), (2, 2), (2, 1, 1), (1,)]
    assert [e.coefficient(lam) for lam in shapes] == [0, 1, 0, -1, 1, 0, 0]
    assert SchurExpansion(terms[::-1]) == e
    assert tuple.__new__(SchurExpansion, terms[::-1]) != e
    copies = [copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))]
    assert copies == [e] * 3 and {type(c) for c in copies} == {SchurExpansion}


def test_schur_expansion_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        SchurExpansion({Partition((2,)): 1, Partition((1,)): 1})


def test_schur_expansion_item_order_and_records():
    e = SchurExpansion(
        {Partition((2, 2)): 1, Partition((4,)): 1, Partition((3, 1)): -1}
    )
    assert e.support() == [Partition((4,)), Partition((3, 1)), Partition((2, 2))]
    assert e.to_records() == [
        {"partition": [4], "coeff": 1},
        {"partition": [3, 1], "coeff": -1},
        {"partition": [2, 2], "coeff": 1},
    ]


def test_pmn_expand_goldens():
    assert pmn_expand(Partition(), 2, 2) == SchurExpansion(
        {Partition((4,)): 1, Partition((3, 1)): -1, Partition((2, 2)): 1}
    )
    assert repr(pmn_expand(Partition(), 2, 2)) == (
        "SchurExpansion({(4): 1, (3,1): -1, (2,2): 1})"
    )
    assert pmn_expand(Partition((1,)), 1, 1) == SchurExpansion(
        {Partition((2,)): 1, Partition((1, 1)): 1}
    )
    assert pmn_expand(Partition((2, 1)), 3, 0) == SchurExpansion(
        {Partition((2, 1)): 1}
    )


def test_pmn_expand_m1_equals_single_strip_rule():
    for size in range(0, 5):
        for mu in partitions_of(size):
            for r in range(1, 5):
                got = dict(pmn_expand(mu, r, 1).items())
                assert got == single_strip_rule(mu, r)


def test_pmn_expand_r1_equals_young_rule():
    for size in range(0, 5):
        for mu in partitions_of(size):
            for m in range(1, 5):
                got = dict(pmn_expand(mu, 1, m).items())
                assert got == young_rule(mu, m)


def test_iterated_single_factor_matches_pmn_expand():
    for mu in [Partition(), Partition((2, 1))]:
        assert pmn_expand_iterated(
            mu, Partition((2,)), Partition((2,))
        ) == pmn_expand(mu, 2, 2)


def test_iterated_golden_p2_squared():
    # s_() * (p_2 o h_1)^2 is the Schur expansion of p_2 * p_2
    got = pmn_expand_iterated(Partition(), Partition((2, 2)), Partition((1,)))
    assert got == SchurExpansion(
        {
            Partition((4,)): 1,
            Partition((3, 1)): -1,
            Partition((2, 2)): 2,
            Partition((2, 1, 1)): -1,
            Partition((1, 1, 1, 1)): 1,
        }
    )
    # cross-check against alternant arithmetic in four variables
    n = 4
    lhs = a_beta(shifted_beta((), n)) * p_poly(2, n) * p_poly(2, n)
    rhs = SparsePolynomial.zero(n)
    for lam, c in got.items():
        rhs = rhs + a_beta(shifted_beta(lam.parts, n)).scale(c)
    assert lhs == rhs


def apply_factor(coeffs, r, m):
    grown = {}
    for lam, c in coeffs.items():
        for tau, s in pmn_expand(lam, r, m).items():
            grown[tau] = grown.get(tau, 0) + c * s
    return {lam: c for lam, c in grown.items() if c}


def test_iterated_factor_order_is_immaterial():
    mu = Partition((1,))
    forward = apply_factor(apply_factor({mu: 1}, 2, 2), 1, 2)
    backward = apply_factor(apply_factor({mu: 1}, 1, 2), 2, 2)
    assert forward == backward
    assert pmn_expand_iterated(
        mu, Partition((2, 1)), Partition((2,))
    ) == SchurExpansion(forward)


@st.composite
def partition_st(draw, min_size, max_size):
    size = draw(st.integers(min_size, max_size))
    return draw(st.sampled_from(list(partitions_of(size))))


@given(partition_st(0, 3), partition_st(1, 5), partition_st(1, 3))
def test_iterated_fold_matches_fold_by_shapes(mu, rho, nu):
    assert (
        pmn_expand_iterated(mu, rho, nu).items()
        == iterated_by_shapes(mu, rho, nu).items()
    )


@given(
    partition_st(0, 3),
    partition_st(1, 5).filter(lambda rho: rho.parts[0] <= 4),
    partition_st(1, 3),
)
@example(Partition(), Partition((3, 2, 1)), Partition((2, 2)))
@example(Partition((1,)), Partition((3, 1)), Partition((3, 1)))
def test_iterated_fold_order_matches_single_factors_in_index_order(mu, rho, nu):
    # pmn_expand_iterated takes the factors smallest r*m first, the oracle
    # in (i, j) order.
    assert pmn_expand_iterated(mu, rho, nu) == expand_iterated_by_single_factors(
        mu, rho, nu
    )


def assert_passes_public_constructor(result):
    """The result is nonempty, keyed by Partition and of one degree, and the
    public constructor, which merges, drops zeros, checks the degree and
    sorts, gives back the same terms in the same order."""
    assert type(result) is SchurExpansion
    assert all(type(lam) is Partition for lam, _ in result)
    assert len({lam.size for lam, _ in result}) == 1
    assert result == SchurExpansion(list(result))


@given(
    partition_st(0, 4),
    st.integers(1, 5),
    st.integers(0, 3),
    partition_st(1, 5),
    partition_st(1, 3),
)
def test_expansions_built_unchecked_pass_the_public_constructor(mu, r, m, rho, nu):
    assert_passes_public_constructor(pmn_expand(mu, r, m))
    assert_passes_public_constructor(pmn_expand_iterated(mu, rho, nu))


def test_iterated_fold_builds_no_checked_partitions(checked_partitions):
    mu, rho, nu = Partition(), Partition((3, 2, 1)), Partition((2, 2))
    assert len(pmn_expand_iterated(mu, rho, nu)) == 1207
    assert len(pmn_expand(mu, 4, 6)) == 84
    assert checked_partitions == [(), (3, 2, 1), (2, 2)]


def test_iterated_requires_nonempty_factors():
    with pytest.raises(ValueError):
        pmn_expand_iterated(Partition(), Partition(), Partition((1,)))
    with pytest.raises(ValueError):
        pmn_expand_iterated(Partition(), Partition((1,)), Partition())


def z(rho):
    """z_rho = prod_i i^(m_i) * m_i!, m_i the number of parts equal to i."""
    return math.prod(i**k * math.factorial(k) for i, k in Counter(rho.parts).items())


def test_iterated_fold_gives_orthogonal_characters():
    # h_1 = p_1, so s_() * prod_i (p_{rho_i} o h_1) is p_rho, and its
    # coefficient of s_lam is the character chi^lam(rho).  The columns of
    # the character table are orthogonal with norms z_rho (Macdonald I.7),
    # a reference that shares nothing with the strip search.
    one = Partition((1,))
    for n in range(1, 10):
        rhos = list(partitions_of(n))
        chi = {rho: dict(pmn_expand_iterated(Partition(), rho, one)) for rho in rhos}
        for rho, sigma in product(rhos, repeat=2):
            inner = sum(c * chi[sigma].get(lam, 0) for lam, c in chi[rho].items())
            assert inner == (z(rho) if rho == sigma else 0), (rho, sigma)


def test_verify_symbolic_passes():
    report = verify_against_oracle(Partition(), 2, 2, 4, mode="symbolic")
    assert report.ok and report.mode == "symbolic"
    assert report.terms == 3
    report = verify_against_oracle(Partition((2, 1)), 2, 1, 5, mode="symbolic")
    assert report.ok


def test_verify_modular_passes_and_is_stable():
    a = verify_against_oracle(Partition((2, 1)), 3, 2, 9, mode="modular", seed=42)
    b = verify_against_oracle(Partition((2, 1)), 3, 2, 9, mode="modular", seed=42)
    assert a.ok and a == b
    assert a.seed == 42 and a.points == 20


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_against_oracle(Partition((2,)), 2, 2, 5)  # needs >= 6 vars
    with pytest.raises(ValueError):
        verify_against_oracle(Partition(), 0, 1, 3)
    with pytest.raises(ValueError):
        verify_against_oracle(Partition(), 1, 1, 1, mode="nonsense")


def _no_strip_search(mu, r, m):
    raise RuntimeError("the strip search ran before the argument checks")


@pytest.mark.parametrize(
    "args, mode, error, message",
    [
        ((Partition(), 400, 2, 800), "symbolic", GuardError,
         "800-variable alternant is past the guard (8)"),
        ((Partition(), 1, 1, 1), "nonsense", ValueError, "unknown mode 'nonsense'"),
        # The bound comes before the mode name.
        ((Partition((2,)), 2, 2, 5), "nonsense", ValueError,
         "need at least |mu| + r*m = 6 variables, got 5"),
        # 20 points of a 20000-variable e table each
        ((Partition(), 1, 1, 20000), "modular", GuardError,
         "8000000000 modular table entries exceeds the enumeration budget 10000000"),
    ],
    ids=["guard", "mode", "bound", "modular-guard"],
)
def test_verify_checks_arguments_before_the_strip_search(
    monkeypatch, args, mode, error, message
):
    monkeypatch.setattr(expansion, "pmn_expand", _no_strip_search)
    with pytest.raises(error, match=re.escape(message)):
        verify_against_oracle(*args, mode=mode)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((Partition(), 400, 2, 30), GuardError,
         "123342579812668842265883443200000000 pairs exceeds the enumeration budget"),
        ((Partition((2, 1)), 1, 1, 1), ValueError, "(2,1) needs at least 2 beads, got 1"),
        ((Partition((10**9,)), 1, 1, 1), GuardError,
         "1000000001 abacus slots exceeds the enumeration budget 10000000"),
    ],
    ids=["pairs-guard", "bead-count", "slots-guard"],
)
def test_verify_process_checks_arguments_before_the_strip_search(
    monkeypatch, args, error, message
):
    monkeypatch.setattr(expansion, "pmn_expand", _no_strip_search)
    with pytest.raises(error, match=re.escape(message)):
        verify_process_identity(*args)


@pytest.mark.parametrize("verify", [verify_against_oracle, verify_process_identity])
@pytest.mark.parametrize("r, m", [(0, 1), (1, 0), (-1, 2)])
def test_verifiers_share_the_factor_check(verify, r, m):
    with pytest.raises(ValueError, match="r and m must be positive"):
        verify(Partition(), r, m, 4)


@pytest.mark.parametrize("n_beads", [0, -2])
def test_verify_process_needs_a_bead(n_beads):
    with pytest.raises(ValueError, match=re.escape(f"need at least one bead, got {n_beads}")):
        verify_process_identity(Partition(), 1, 2, n_beads)


def test_verify_modular_builds_one_table_over_all_points(monkeypatch):
    tables, values = [], []
    build = expansion._alternants_at

    def counting(points):
        tables.append(points)
        alternants = build(points)

        def value(lam):
            dets = alternants(lam)
            values.append((lam, dets))
            return dets

        return value

    monkeypatch.setattr(expansion, "_alternants_at", counting)
    report = verify_against_oracle(Partition((2, 1)), 3, 2, 9, mode="modular", seed=42)
    assert report.ok
    assert tables == [seeded_points(9, 20, 42)]
    assert len(set(tables[0])) == 20
    assert len(values) == report.terms + 1
    for lam, dets in values:
        assert dets == [build([x])(lam)[0] for x in tables[0]]


def test_verify_process_reads_each_labelling_once(monkeypatch):
    read = []
    sign = LabelledAbacus.sign

    def counting(self):
        read.append(self.slots)
        return sign(self)

    monkeypatch.setattr(LabelledAbacus, "sign", counting)
    mu = Partition((1,))
    report = verify_process_identity(mu, 2, 2, 5)
    assert report.ok and report.n_pairs == 1800
    # The labellings of mu and of the three support shapes, each read once.
    labellings = math.factorial(5) * (1 + len(pmn_expand(mu, 2, 2)))
    assert len(read) == len(set(read)) <= labellings
    assert 3 * len(read) < report.n_pairs


def test_verify_process_runs_each_pair_once(monkeypatch):
    """One run per pair, the sweep's own: no pair run twice, no epsilon
    call, and nothing remembered within a call or across calls."""
    runs, epsilon_calls = [], []
    run, epsilon = process.run_process, process.epsilon

    def counting(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    def counting_epsilon(*args):
        epsilon_calls.append(args)
        return epsilon(*args)

    monkeypatch.setattr(process, "run_process", counting)
    for owner in (process, expansion):
        monkeypatch.setattr(owner, "epsilon", counting_epsilon)
    for _ in range(2):
        runs.clear()
        report = verify_process_identity(Partition((1,)), 2, 2, 5)
        assert report.ok and (report.n_pairs, report.n_aborted) == (1800, 1440)
        assert len(runs) == report.n_pairs == 1800
        assert len({(w.slots, beta.entries) for w, beta, _ in runs}) == 1800
    assert epsilon_calls == []


def test_verify_modular_reaches_24_variables():
    report = verify_against_oracle(Partition(), 4, 6, 24, mode="modular")
    assert report.ok, report.detail
    assert report.detail == "all 20 seeded points agree"


@given(
    st.sampled_from([p for s in range(0, 4) for p in partitions_of(s)]),
    st.integers(1, 3),
    st.integers(1, 2),
)
def test_verify_modular_random_cases(mu, r, m):
    n = mu.size + r * m
    report = verify_against_oracle(mu, r, m, n, mode="modular", seed=7)
    assert report.ok, report.detail


def test_verify_process_identity_golden():
    report = verify_process_identity(Partition((1,)), 2, 2, 5)
    assert report.ok
    assert report.n_pairs == 1800
    assert report.n_aborted == 1440
    assert report.n_completed == 360
    assert "cancel" in report.detail and "regroup" in report.detail


@pytest.mark.parametrize(
    "mu,r,m,n",
    [
        (Partition(), 1, 1, 2),
        (Partition(), 2, 1, 3),
        (Partition((2,)), 2, 1, 3),
        (Partition((1, 1)), 1, 2, 3),
        (Partition((2, 1)), 2, 1, 4),
    ],
)
def test_verify_process_identity_small_cases(mu, r, m, n):
    report = verify_process_identity(mu, r, m, n)
    assert report.ok, report.detail
    assert report.n_pairs == report.n_aborted + report.n_completed


def _flip_first_sign(real):
    def flipped(mu, r, m):
        (lam, c), *rest = real(mu, r, m).items()
        return SchurExpansion([(lam, -c)] + rest)

    return flipped


def _drop_first_term(real):
    def dropped(mu, r, m):
        return SchurExpansion(real(mu, r, m).items()[1:])

    return dropped


def test_verify_symbolic_reports_first_discrepancy(monkeypatch):
    monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
    report = verify_against_oracle(Partition(), 2, 2, 4, mode="symbolic")
    assert not report.ok
    assert (report.terms, report.seed, report.points) == (3, None, 0)
    assert report.detail == "first discrepancy: coefficient 2 on exponents (7, 2, 1, 0)"


def test_exact_route_past_the_guard_agrees_with_modular(monkeypatch):
    cases = [
        (mu, r, m, n)
        for size in range(4)
        for mu in partitions_of(size)
        for r in range(1, 5)
        for m in range(1, 4)
        for n in (size + r * m, size + r * m + 2)
    ]
    assert len(cases) == 168 and max(n for *_, n in cases) == 17
    for flipped in (False, True):
        if flipped:
            monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
        for mu, r, m, n in cases:
            for mode in ("symbolic", "modular"):
                report = verify_against_oracle(mu, r, m, n, mode=mode, max_vars=24)
                assert report.ok != flipped, (mode, report)


def _double_every_term(real):
    def doubled(mu, r, m):
        return SchurExpansion([(lam, 2 * c) for lam, c in real(mu, r, m).items()])

    return doubled


@pytest.mark.parametrize("perturb", [None, _flip_first_sign, _drop_first_term, _double_every_term])
@pytest.mark.parametrize(
    "mu,r,m,n",
    [(Partition(), 2, 2, 4), (Partition((1,)), 1, 3, 5), (Partition((2, 1)), 2, 1, 6)],
)
def test_verify_symbolic_detail_matches_full_monomial_expansion(monkeypatch, perturb, mu, r, m, n):
    """The report reads as if both sides were multiplied out monomial by monomial."""
    if perturb is not None:
        monkeypatch.setattr(expansion, "pmn_expand", perturb(pmn_expand))
    lhs = SparsePolynomial(
        n, naive_alternant_product(shifted_beta(mu.parts, n), plethysm_pr(h_poly(m, n), r))
    )
    diff = lhs
    for lam, c in expansion.pmn_expand(mu, r, m).items():
        diff = diff - a_beta(shifted_beta(lam.parts, n)).scale(c)
    report = verify_against_oracle(mu, r, m, n, mode="symbolic")
    assert diff.is_zero == (perturb is None) == report.ok
    if diff.is_zero:
        assert report.detail == f"exact match on {len(lhs.terms)} monomials"
    else:
        exps, coeff = sorted_terms(diff)[0]
        assert report.detail == f"first discrepancy: coefficient {coeff} on exponents {exps}"


def test_symbolic_guard_trips_before_building_h_m():
    # h_20 in 30 variables has C(49, 29) > 10**13 terms.
    with pytest.raises(GuardError, match="30-variable alternant is past the guard"):
        verify_against_oracle(Partition(), 1, 20, 30)


def test_verify_modular_reports_first_mismatching_point(monkeypatch):
    monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
    report = verify_against_oracle(Partition(), 2, 2, 4, mode="modular")
    assert not report.ok
    assert (report.terms, report.seed, report.points) == (3, 0, 20)
    assert report.detail == (
        "mismatch at point 0: lhs 350141721 != rhs 1383076305 (mod 2147483647)"
    )


@pytest.mark.parametrize(
    "mu, r, m, sizes_at_least, lhs, rhs",
    [((), 4, 6, 4, 462570842, 209184291), ((1, 1, 1, 1), 3, 4, 5, 1350455635, 930969168)],
)
def test_verify_modular_reports_first_mismatch_through_large_determinants(
    monkeypatch, mu, r, m, sizes_at_least, lhs, rhs
):
    """At N=24 the shapes of mu=() r=4 m=6 take 4x4 closed forms, and those
    of mu=(1,1,1,1) r=3 m=4 also 5x5 to 7x7 eliminations; the report names
    the full alternant sums of the first mismatching point, as elimination
    of each 24x24 alternant gives them."""
    mu, n, p = Partition(mu), 24, DEFAULT_PRIME
    sizes = Counter()
    det = polynomials._det_mod

    def recording(rows, lanes, p):
        sizes[len(rows)] += 1
        return det(rows, lanes, p)

    monkeypatch.setattr(polynomials, "_det_mod", recording)
    monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
    report = verify_against_oracle(mu, r, m, n, mode="modular")
    assert not report.ok
    assert sizes[4] and max(sizes) >= sizes_at_least
    x = seeded_points(n, 20, 0)[0]
    eliminated = eliminated_alternant_eval(shifted_beta(mu.parts, n), x) * h_eval(
        [pow(v, r, p) for v in x], m
    ) % p
    summed = sum(
        c * eliminated_alternant_eval(shifted_beta(lam.parts, n), x)
        for lam, c in expansion.pmn_expand(mu, r, m).items()
    ) % p
    assert (eliminated, summed) == (lhs, rhs)
    assert report.detail == f"mismatch at point 0: lhs {lhs} != rhs {rhs} (mod {p})"


@pytest.mark.parametrize("k", [None, 0, 1, 7, 19])
def test_verify_modular_degenerate_points_agree(monkeypatch, k):
    """A point that repeats a coordinate has a_delta = 0, so both sides are
    0 there and it agrees even on a wrong expansion; the first point with
    distinct coordinates reports its full alternant sums.  k is the number
    of such points before that one (None: all 20 repeat a coordinate)."""
    mu, r, m, n, p = Partition((1,)), 2, 2, 5, DEFAULT_PRIME
    points = [(x[0],) + x[:-1] for x in seeded_points(n, 20, 6)]
    if k is not None:
        points[k] = seeded_points(n, 20, 5)[k]
    monkeypatch.setattr(expansion, "seeded_points", lambda n_vars, count, seed: points[:count])
    monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
    report = verify_against_oracle(mu, r, m, n, mode="modular")
    if k is None:
        assert report.ok and report.detail == "all 20 seeded points agree"
        return
    x = points[k]
    lhs = eliminated_alternant_eval(shifted_beta(mu.parts, n), x) * h_eval(
        [pow(v, r, p) for v in x], m
    ) % p
    rhs = sum(
        c * eliminated_alternant_eval(shifted_beta(lam.parts, n), x)
        for lam, c in expansion.pmn_expand(mu, r, m).items()
    ) % p
    assert lhs != rhs and not report.ok
    assert report.detail == f"mismatch at point {k}: lhs {lhs} != rhs {rhs} (mod {p})"


def test_verify_process_reports_broken_sign_law(monkeypatch):
    monkeypatch.setattr(expansion, "pmn_expand", _flip_first_sign(pmn_expand))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (3, 1, 2)
    assert report.detail == "sign law broken on a completed pair with shape (3)"


def test_verify_process_reports_image_outside_support(monkeypatch):
    monkeypatch.setattr(expansion, "pmn_expand", _drop_first_term(pmn_expand))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (3, 1, 2)
    assert report.detail == (
        "completed pair landed on (3), outside the expansion support"
    )


def _patched(attr, make):
    """A fault that replaces expansion.<attr> by make(the real one)."""

    def inject(monkeypatch):
        monkeypatch.setattr(expansion, attr, make(getattr(expansion, attr)))

    return inject


def _partner_fault(fault):
    """A fault on epsilon's partners: fault(w, beta, partner) is handed back
    in place of the true partner of (w, beta).  It is applied at both seams
    of the partner map, expansion._partner(w, beta, r, outcome), which
    verify_process_identity calls on the run enumerate_pairs made, and
    expansion.epsilon(w, beta, r), which the regenerating reference calls,
    so both verifiers see the same partners."""

    def inject(monkeypatch):
        partner, epsilon = expansion._partner, expansion.epsilon
        monkeypatch.setattr(
            expansion,
            "_partner",
            lambda w, beta, r, outcome: fault(w, beta, partner(w, beta, r, outcome)),
        )
        monkeypatch.setattr(
            expansion, "epsilon", lambda w, beta, r: fault(w, beta, epsilon(w, beta, r))
        )

    return inject


def _partner_to_itself(w, beta, partner):
    return w, beta


def test_verify_process_reports_partner_keeping_sign(monkeypatch):
    _partner_fault(_partner_to_itself)(monkeypatch)
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 1, 1)
    assert report.detail == "partner does not reverse sign"


def _partner_except(pair, replacement):
    """The partner of one pair replaced."""
    return lambda w, beta, partner: replacement if (w, beta) == pair else partner


# (321, (0,0,2)) and (213, (1,1,0)) share sign +1 and their weight; the
# partner of the second, (123, (2,0,0)), is handed to the first as well.
_PARTNER_NOT_MAPPING_BACK = (
    (LabelledAbacus((3, 2, 1)), Composition((0, 0, 2))),
    (LabelledAbacus((1, 2, 3)), Composition((2, 0, 0))),
)


def test_verify_process_reports_partner_not_mapping_back(monkeypatch):
    _partner_fault(_partner_except(*_PARTNER_NOT_MAPPING_BACK))(monkeypatch)
    report = verify_process_identity(Partition(), 1, 2, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (8, 7, 1)
    assert report.detail == "pairing is not an involution"


_COMPLETED_PARTNERS = [
    # The first pair's own partner (12, (1,1)) comes up fifth and maps back
    # to a pair that is open with another partner.
    (
        (LabelledAbacus((2, 1)), Composition((0, 2))),
        (LabelledAbacus((0, 1, 2)), Composition((0, 0))),
        (5, 3, 2),
    ),
    # The last pair's own partner (21, (1,1)) came up second, so both stay
    # open after the last pair.
    (
        (LabelledAbacus((1, 2)), Composition((2, 0))),
        (LabelledAbacus((0, 2, 1)), Composition((0, 0))),
        (6, 4, 2),
    ),
]


@pytest.mark.parametrize("pair,partner,counts", _COMPLETED_PARTNERS)
def test_verify_process_reports_completed_partner(monkeypatch, pair, partner, counts):
    """Moving a bead over the other with both its moves spent reverses the
    sign and keeps the weight, but the partner then completes, so it never
    comes up among the aborted pairs to map back."""
    _partner_fault(_partner_except(pair, partner))(monkeypatch)
    report = verify_process_identity(Partition(), 1, 2, 2)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == counts
    assert report.detail == "pairing is not an involution"


def _partner_keeping_the_budget(w, beta, partner):
    return partner[0], beta


def test_verify_process_reports_partner_changing_weight(monkeypatch):
    _partner_fault(_partner_keeping_the_budget)(monkeypatch)
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 1, 1)
    assert report.detail == "partner changes the weight"


def _partner_carrying(base):
    """The true partner with `base` added to one budget entry and 1 taken
    from the next.  At r=1 the packed weight in base `base` stays the same,
    but the exponent tuples differ: the larger entry carries into the next
    variable."""

    def fault(w, beta, partner):
        w2, beta2 = partner
        entries = list(beta2.entries)
        j = next((j for j in range(1, len(entries)) if entries[j]), None)
        if j is None:
            return partner
        entries[j - 1] += base
        entries[j] -= 1
        return w2, Composition(tuple(entries))

    return fault


# mu=() r=1 m=2 on 3 beads packs weights in base 0 + 3 + 1*2.
_CARRY_CASE, _CARRY_BASE = (Partition(), 1, 2, 3), 5


def test_verify_process_reports_partner_changing_weight_by_a_carry(monkeypatch):
    _partner_fault(_partner_carrying(_CARRY_BASE))(monkeypatch)
    report = verify_process_identity(*_CARRY_CASE)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (1, 1, 0)
    assert report.detail == "partner changes the weight"


def _partner_budget_resized(resize):
    return lambda w, beta, partner: (partner[0], Composition(resize(partner[1].entries)))


@pytest.mark.parametrize("resize", [lambda e: e[:-1], lambda e: e + (0,)], ids=["short", "long"])
def test_verify_process_rejects_a_partner_budget_of_the_wrong_length(monkeypatch, resize):
    _partner_fault(_partner_budget_resized(resize))(monkeypatch)
    n = len(resize((0, 0, 0)))
    with pytest.raises(ValueError, match=f"^budget has {n} entries for 3 beads$"):
        verify_process_identity(Partition((1,)), 2, 1, 3)


def _images_cycled(real):
    """Completed images relabelled by the 3-cycle 1 -> 2 -> 3 -> 1, which
    keeps their shape and their sign, as the cycle is even, but moves every
    bead's slot to another label."""

    def cycled(mu, n_beads, r, m):
        for w, beta, trace in real(mu, n_beads, r, m):
            if trace.successful:
                slots = tuple(x % 3 + 1 if x else 0 for x in trace.outcome.abacus.slots)
                trace = trace._replace(outcome=Successful(LabelledAbacus(slots)))
            yield w, beta, trace

    return cycled


def test_verify_process_reports_completed_pair_changing_weight(monkeypatch):
    monkeypatch.setattr(expansion, "enumerate_pairs", _images_cycled(expansion.enumerate_pairs))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (1, 0, 1)
    assert report.detail == "weight not conserved on a completed pair with shape (1,1,1)"


def _first_pair(successful, times):
    """enumerate_pairs with its first completed pair, or its first aborted
    one when successful is false, yielded `times` times."""

    def make(real):
        def patched(mu, n_beads, r, m):
            first = True
            for pair in real(mu, n_beads, r, m):
                if first and pair[2].successful == successful:
                    first = False
                    yield from [pair] * times
                else:
                    yield pair

        return patched

    return make


def test_verify_process_reports_a_missed_labelling(monkeypatch):
    monkeypatch.setattr(
        expansion, "enumerate_pairs", _first_pair(True, 0)(expansion.enumerate_pairs)
    )
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (17, 6, 11)
    assert report.detail == "completed pairs miss 1 labellings of (1,1,1)"


def test_verify_process_reports_a_shared_image(monkeypatch):
    monkeypatch.setattr(
        expansion, "enumerate_pairs", _first_pair(True, 2)(expansion.enumerate_pairs)
    )
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 0, 2)
    assert report.detail == "two completed pairs share the image LabelledAbacus((0, 2, 3, 1))"


def _first_image_with_an_extra_bead(real):
    """The first completed image with a bead n_beads + 1 put below the
    others, one slot lower: the same shape on one bead more, which is no
    labelling of it."""

    def patched(mu, n_beads, r, m):
        first = True
        for w, beta, trace in real(mu, n_beads, r, m):
            if first and trace.successful:
                first = False
                slots = (n_beads + 1,) + trace.outcome.abacus.slots
                trace = trace._replace(outcome=Successful(LabelledAbacus(slots)))
            yield w, beta, trace

    return patched


def _pairs_on_one_more_bead(with_own):
    """enumerate_pairs run on n_beads + 1 beads, after the pairs on n_beads
    when with_own is set: the images are the support shapes on one bead
    more, which are no labellings of them, even when all n_beads! of their
    labellings are hit as well."""

    def make(real):
        def patched(mu, n_beads, r, m):
            if with_own:
                yield from real(mu, n_beads, r, m)
            yield from real(mu, n_beads + 1, r, m)

        return patched

    return make


def _outcome(verify, case):
    try:
        return verify(*case)
    except ValueError as error:
        return type(error), str(error)


_VERIFY_PROCESS_STRATA = [
    (mu, r, m, n)
    for n in range(1, 6)
    for size in range(4)
    for mu in partitions_of(size)
    if len(mu) <= n
    for r in (1, 2, 3)
    for m in (1, 2, 3)
]


def test_verify_process_matches_regeneration_on_the_strata(monkeypatch):
    """The bijection checked by count gives the reports of the check by
    regenerating every labelling, on the benchmark's verify-process cases,
    and each partner read off an aborted pair's own run is the one epsilon
    finds by running the pair again."""
    partner = expansion._partner
    agreed = []

    def checked(w, beta, r, outcome):
        read_off = partner(w, beta, r, outcome)
        agreed.append(read_off == process.epsilon(w, beta, r))
        return read_off

    monkeypatch.setattr(expansion, "_partner", checked)
    assert len(_VERIFY_PROCESS_STRATA) == 279
    n_aborted = 0
    for case in _VERIFY_PROCESS_STRATA:
        report = verify_process_identity(*case)
        assert report == verify_process_by_regeneration(*case), case
        n_aborted += report.n_aborted
    assert len(agreed) == n_aborted > 0 and all(agreed)


_CASE = (Partition((1,)), 2, 1, 3)

# Each fault with the case it runs on, the report's (pairs, aborted,
# completed) counts or ValueError, and its detail or error message.
_PROCESS_FAULTS = [
    pytest.param(_patched("pmn_expand", _flip_first_sign), _CASE, (3, 1, 2),
                 "sign law broken on a completed pair with shape (3)", id="flip-first-sign"),
    pytest.param(_patched("pmn_expand", _drop_first_term), _CASE, (3, 1, 2),
                 "completed pair landed on (3), outside the expansion support",
                 id="drop-first-term"),
    pytest.param(_partner_fault(_partner_to_itself), _CASE, (2, 1, 1),
                 "partner does not reverse sign", id="partner-keeping-sign"),
    pytest.param(_partner_fault(_partner_except(*_PARTNER_NOT_MAPPING_BACK)),
                 (Partition(), 1, 2, 3), (8, 7, 1), "pairing is not an involution",
                 id="partner-not-mapping-back"),
    *[
        pytest.param(_partner_fault(_partner_except(pair, partner)), (Partition(), 1, 2, 2),
                     counts, "pairing is not an involution", id=f"completed-partner-{name}")
        for (pair, partner, counts), name in zip(_COMPLETED_PARTNERS, ("first", "last"))
    ],
    pytest.param(_partner_fault(_partner_keeping_the_budget), _CASE, (2, 1, 1),
                 "partner changes the weight", id="partner-changing-weight"),
    pytest.param(_partner_fault(_partner_carrying(_CARRY_BASE)), _CARRY_CASE, (1, 1, 0),
                 "partner changes the weight", id="partner-changing-weight-by-a-carry"),
    pytest.param(_partner_fault(_partner_budget_resized(lambda e: e[:-1])), _CASE, ValueError,
                 "budget has 2 entries for 3 beads", id="partner-budget-short"),
    pytest.param(_partner_fault(_partner_budget_resized(lambda e: e + (0,))), _CASE, ValueError,
                 "budget has 4 entries for 3 beads", id="partner-budget-long"),
    pytest.param(_patched("enumerate_pairs", _images_cycled), _CASE, (1, 0, 1),
                 "weight not conserved on a completed pair with shape (1,1,1)",
                 id="images-cycled"),
    pytest.param(_patched("enumerate_pairs", _first_pair(True, 0)), _CASE, (17, 6, 11),
                 "completed pairs miss 1 labellings of (1,1,1)", id="missed-labelling"),
    pytest.param(_patched("enumerate_pairs", _first_pair(True, 2)), _CASE, (2, 0, 2),
                 "two completed pairs share the image LabelledAbacus((0, 2, 3, 1))",
                 id="shared-image"),
    # The involution lookup keeps one entry per pair, so a repeated aborted
    # pair shows only in the signed weights of the aborted pairs.
    pytest.param(_patched("enumerate_pairs", _first_pair(False, 2)), _CASE, (19, 7, 12),
                 "aborted pairs do not cancel", id="repeated-aborted"),
    pytest.param(_patched("enumerate_pairs", _first_pair(False, 0)), _CASE, (17, 5, 12),
                 "pairing is not an involution", id="dropped-aborted"),
    pytest.param(_patched("enumerate_pairs", _first_image_with_an_extra_bead),
                 (Partition(), 1, 1, 1), (1, 0, 1),
                 "weight not conserved on a completed pair with shape (1)", id="extra-bead-N1"),
    pytest.param(_patched("enumerate_pairs", _first_image_with_an_extra_bead), _CASE, (1, 0, 1),
                 "weight not conserved on a completed pair with shape (1,1,1)", id="extra-bead"),
    pytest.param(_patched("enumerate_pairs", _pairs_on_one_more_bead(False)),
                 (Partition(), 1, 1, 1), (4, 2, 2),
                 "completed pairs miss 1 labellings of (1)", id="wider-N1"),
    pytest.param(_patched("enumerate_pairs", _pairs_on_one_more_bead(False)),
                 (Partition(), 1, 2, 2), (36, 30, 6),
                 "completed pairs miss 2 labellings of (2)", id="wider"),
    pytest.param(_patched("enumerate_pairs", _pairs_on_one_more_bead(True)),
                 (Partition(), 1, 1, 1), (5, 2, 3),
                 "completed pairs miss 0 labellings of (1)", id="own-and-wider-N1"),
    pytest.param(_patched("enumerate_pairs", _pairs_on_one_more_bead(True)),
                 (Partition(), 1, 2, 2), (42, 34, 8),
                 "completed pairs miss 0 labellings of (2)", id="own-and-wider"),
]


@pytest.mark.parametrize("inject, case, counts, detail", _PROCESS_FAULTS)
def test_verify_process_matches_regeneration_under_faults(monkeypatch, inject, case, counts, detail):
    """Each fault gives its pinned report, and the reference's."""
    inject(monkeypatch)
    report = _outcome(verify_process_identity, case)
    assert report == _outcome(verify_process_by_regeneration, case)
    if counts is ValueError:
        assert report == (ValueError, detail)
    else:
        assert not report.ok
        assert (report.n_pairs, report.n_aborted, report.n_completed) == counts
        assert report.detail == detail


def test_every_replay_failure_is_pinned_by_a_fault():
    """Each failure detail the replay returns begins a pinned detail."""
    tree = ast.parse(inspect.getsource(expansion))
    replay = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "first_failure"
    )
    prefixes = set()
    for node in ast.walk(replay):
        value = node.value if isinstance(node, ast.Return) else None
        if isinstance(value, ast.JoinedStr):
            parts = takewhile(lambda part: isinstance(part, ast.Constant), value.values)
            prefixes.add("".join(part.value for part in parts))
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            prefixes.add(value.value)
    pinned = [param.values[3] for param in _PROCESS_FAULTS]
    unpinned = [p for p in prefixes if not p or not any(d.startswith(p) for d in pinned)]
    assert len(prefixes) >= 8 and unpinned == []


_FAULT_KINDS = ("drop", "repeat", "image", "partner", "budget")


def _random_fault(kind, seed, rate):
    """One kind of fault, put on each pair with the given rate by a generator
    seeded from (seed, w.slots, beta.entries), so both verifiers see the
    same faults: the pair dropped or repeated, its completed image or its
    partner relabelled, or one unit of its partner's budget moved to a
    random entry."""

    def draw(w, beta):
        rng = random.Random(repr((seed, w.slots, beta.entries)))
        return rng if rng.random() < rate else None

    def relabelled(u, rng):
        labels = rng.sample(range(1, u.n_beads + 1), u.n_beads)
        return LabelledAbacus(tuple(labels[x - 1] if x else 0 for x in u.slots))

    def pairs(real):
        def patched(mu, n_beads, r, m):
            for w, beta, trace in real(mu, n_beads, r, m):
                rng = draw(w, beta)
                if rng is None:
                    yield w, beta, trace
                    continue
                if kind == "image" and trace.successful:
                    image = relabelled(trace.outcome.abacus, rng)
                    trace = trace._replace(outcome=Successful(image))
                yield from [(w, beta, trace)] * {"drop": 0, "repeat": 2}.get(kind, 1)

        return patched

    def partner(w, beta, true_partner):
        rng = draw(w, beta)
        w2, beta2 = true_partner
        if rng is None:
            return true_partner
        if kind == "partner":
            return relabelled(w2, rng), beta2
        entries = list(beta2.entries)
        entries[rng.choice([k for k, e in enumerate(entries) if e])] -= 1
        entries[rng.randrange(len(entries))] += 1
        return w2, Composition(tuple(entries))

    if kind in ("partner", "budget"):
        return _partner_fault(partner)
    return _patched("enumerate_pairs", pairs)


_RANDOM_FAULT_CASES = [
    (mu, r, m, n)
    for size in range(3)
    for mu in partitions_of(size)
    for r in (1, 2)
    for m in (1, 2)
    for n in range(max(len(mu), 1), 4)
]


def test_verify_process_matches_regeneration_under_random_faults(monkeypatch):
    rng = random.Random(26)
    reached = set()
    for seed in range(300):
        case, kind = rng.choice(_RANDOM_FAULT_CASES), rng.choice(_FAULT_KINDS)
        with monkeypatch.context() as patch:
            _random_fault(kind, seed, rng.choice((0.1, 0.3, 0.6)))(patch)
            report = _outcome(verify_process_identity, case)
            assert report == _outcome(verify_process_by_regeneration, case), (seed, kind, case)
        if not report.ok:
            # The detail with its numbers and shapes taken out.
            reached.add(re.sub(r"\d+|\(.*", "", report.detail))
    assert len(reached) >= 6, reached
