import math
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    expand_iterated_by_single_factors,
    iterated_by_shapes,
    naive_alternant_product,
    p_poly,
    single_strip_rule,
    sorted_terms,
    verify_process_by_regeneration,
    young_rule,
)
from plethax import expansion, process
from plethax import (
    Composition,
    LabelledAbacus,
    Partition,
    SchurExpansion,
    SparsePolynomial,
    Successful,
    a_beta,
    h_poly,
    partitions_of,
    pmn_expand,
    pmn_expand_iterated,
    plethysm_pr,
    shifted_beta,
    verify_against_oracle,
    verify_process_identity,
)
from plethax.polynomials import GuardError


def test_schur_expansion_drops_zeros_and_merges():
    e = SchurExpansion([(Partition((2,)), 1), (Partition((2,)), -1)])
    assert len(e) == 0 and e.coefficient(Partition((2,))) == 0
    e = SchurExpansion([(Partition((2,)), 1), (Partition((2,)), 2)])
    assert e.coefficient(Partition((2,))) == 3


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
    assert result == SchurExpansion(list(result.coeffs.items()))
    assert all(result.coeffs.values())
    assert len({lam.size for lam in result.coeffs}) == 1


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
        chi = {rho: pmn_expand_iterated(Partition(), rho, one).coeffs for rho in rhos}
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
    a = verify_against_oracle(
        Partition((2, 1)), 3, 2, 9, mode="modular", seed=42, points=6
    )
    b = verify_against_oracle(
        Partition((2, 1)), 3, 2, 9, mode="modular", seed=42, points=6
    )
    assert a.ok and a == b
    assert a.seed == 42 and a.points == 6


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_against_oracle(Partition((2,)), 2, 2, 5)  # needs >= 6 vars
    with pytest.raises(ValueError):
        verify_against_oracle(Partition(), 0, 1, 3)
    with pytest.raises(ValueError):
        verify_against_oracle(Partition(), 1, 1, 1, mode="nonsense")


@pytest.mark.parametrize("points", [0, -1])
def test_verify_modular_needs_a_point(points):
    with pytest.raises(ValueError, match=f"need at least one point, got {points}"):
        verify_against_oracle(Partition(), 1, 2, 3, mode="modular", points=points)


@pytest.mark.parametrize("verify", [verify_against_oracle, verify_process_identity])
@pytest.mark.parametrize("r, m", [(0, 1), (1, 0), (-1, 2)])
def test_verifiers_share_the_factor_check(verify, r, m):
    with pytest.raises(ValueError, match="r and m must be positive"):
        verify(Partition(), r, m, 4)


@pytest.mark.parametrize("n_beads", [0, -2])
def test_verify_process_needs_a_bead(n_beads):
    with pytest.raises(ValueError, match=re.escape(f"need at least one bead, got {n_beads}")):
        verify_process_identity(Partition(), 1, 2, n_beads)


def test_verify_modular_builds_one_table_per_point(monkeypatch):
    tables, values = [], []
    build = expansion._alternants_at

    def counting(point):
        tables.append(point)
        alternant = build(point)

        def value(beta):
            values.append(beta)
            return alternant(beta)

        return value

    monkeypatch.setattr(expansion, "_alternants_at", counting)
    report = verify_against_oracle(
        Partition((2, 1)), 3, 2, 9, mode="modular", seed=42, points=6
    )
    assert report.ok
    assert len(tables) == len(set(tables)) == 6
    assert len(values) == 6 * (report.terms + 1)


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
    """One sweep run per pair and one epsilon run per aborted pair, with no
    run repeated, and none remembered within a call or across calls."""
    runs = []
    run = process.run_process

    def counting(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(process, "run_process", counting)
    for _ in range(2):
        runs.clear()
        report = verify_process_identity(Partition((1,)), 2, 2, 5)
        assert report.ok and (report.n_pairs, report.n_aborted) == (1800, 1440)
        assert len(runs) == report.n_pairs + report.n_aborted == 3240


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
    report = verify_against_oracle(mu, r, m, n, mode="modular", seed=7, points=3)
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
                report = verify_against_oracle(
                    mu, r, m, n, mode=mode, points=3, max_vars=24
                )
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
    report = verify_against_oracle(Partition(), 2, 2, 4, mode="modular", points=5)
    assert not report.ok
    assert (report.terms, report.seed, report.points) == (3, 0, 5)
    assert report.detail == (
        "mismatch at point 0: lhs 350141721 != rhs 1383076305 (mod 2147483647)"
    )


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


def _epsilon_to_itself(real):
    return lambda w, beta, r: (w, beta)


def test_verify_process_reports_partner_keeping_sign(monkeypatch):
    monkeypatch.setattr(expansion, "epsilon", _epsilon_to_itself(expansion.epsilon))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 1, 1)
    assert report.detail == "partner does not reverse sign"


def _epsilon_except(pair, partner):
    """epsilon with the partner of one pair replaced."""

    def make(real):
        def patched(w, beta, r):
            return partner if (w, beta) == pair else real(w, beta, r)

        return patched

    return make


# (321, (0,0,2)) and (213, (1,1,0)) share sign +1 and their weight; the
# partner of the second, (123, (2,0,0)), is handed to the first as well.
_PARTNER_NOT_MAPPING_BACK = (
    (LabelledAbacus((3, 2, 1)), Composition((0, 0, 2))),
    (LabelledAbacus((1, 2, 3)), Composition((2, 0, 0))),
)


def test_verify_process_reports_partner_not_mapping_back(monkeypatch):
    monkeypatch.setattr(
        expansion, "epsilon", _epsilon_except(*_PARTNER_NOT_MAPPING_BACK)(expansion.epsilon)
    )
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
    monkeypatch.setattr(expansion, "epsilon", _epsilon_except(pair, partner)(expansion.epsilon))
    report = verify_process_identity(Partition(), 1, 2, 2)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == counts
    assert report.detail == "pairing is not an involution"


def _epsilon_keeping_the_budget(real):
    return lambda w, beta, r: (real(w, beta, r)[0], beta)


def test_verify_process_reports_partner_changing_weight(monkeypatch):
    monkeypatch.setattr(expansion, "epsilon", _epsilon_keeping_the_budget(expansion.epsilon))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 1, 1)
    assert report.detail == "partner changes the weight"


def _partner_budget_resized(resize):
    def make(real):
        def resized(w, beta, r):
            w2, beta2 = real(w, beta, r)
            return w2, Composition(resize(beta2.entries))

        return resized

    return make


@pytest.mark.parametrize("resize", [lambda e: e[:-1], lambda e: e + (0,)], ids=["short", "long"])
def test_verify_process_rejects_a_partner_budget_of_the_wrong_length(monkeypatch, resize):
    monkeypatch.setattr(expansion, "epsilon", _partner_budget_resized(resize)(expansion.epsilon))
    n = len(resize((0, 0, 0)))
    with pytest.raises(ValueError, match=f"^budget has {n} entries for 3 beads$"):
        verify_process_identity(Partition((1,)), 2, 1, 3)


def _images_cycled(real):
    def cycled(mu, n_beads, r, m):
        for w, beta, trace in real(mu, n_beads, r, m):
            if trace.successful:
                slots = tuple(x % 3 + 1 if x else 0 for x in trace.outcome.abacus.slots)
                trace = trace._replace(outcome=Successful(LabelledAbacus(slots)))
            yield w, beta, trace

    return cycled


def test_verify_process_reports_completed_pair_changing_weight(monkeypatch):
    """Relabelling a completed image by the 3-cycle 1 -> 2 -> 3 -> 1 keeps
    its shape and its sign, as the cycle is even, but moves every bead's
    slot to another label."""
    monkeypatch.setattr(expansion, "enumerate_pairs", _images_cycled(expansion.enumerate_pairs))
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (1, 0, 1)
    assert report.detail == "weight not conserved on a completed pair with shape (1,1,1)"


def _first_completed_pair(times):
    """enumerate_pairs with its first completed pair yielded `times` times."""

    def make(real):
        def patched(mu, n_beads, r, m):
            first = True
            for pair in real(mu, n_beads, r, m):
                if first and pair[2].successful:
                    first = False
                    yield from [pair] * times
                else:
                    yield pair

        return patched

    return make


def test_verify_process_reports_a_missed_labelling(monkeypatch):
    monkeypatch.setattr(
        expansion, "enumerate_pairs", _first_completed_pair(0)(expansion.enumerate_pairs)
    )
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (17, 6, 11)
    assert report.detail == "completed pairs miss 1 labellings of (1,1,1)"


def test_verify_process_reports_a_shared_image(monkeypatch):
    monkeypatch.setattr(
        expansion, "enumerate_pairs", _first_completed_pair(2)(expansion.enumerate_pairs)
    )
    report = verify_process_identity(Partition((1,)), 2, 1, 3)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == (2, 0, 2)
    assert report.detail == "two completed pairs share the image LabelledAbacus((0, 2, 3, 1))"


def _first_image_with_an_extra_bead(real):
    """The first completed image with a bead n_beads + 1 put below the
    others, one slot lower: the same shape on one bead more."""

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
    more, which are no labellings of them."""

    def make(real):
        def patched(mu, n_beads, r, m):
            if with_own:
                yield from real(mu, n_beads, r, m)
            yield from real(mu, n_beads + 1, r, m)

        return patched

    return make


@pytest.mark.parametrize(
    "make,counts,detail",
    [
        (
            _first_image_with_an_extra_bead,
            (1, 0, 1),
            "weight not conserved on a completed pair with shape (1)",
        ),
        (_pairs_on_one_more_bead(False), (4, 2, 2), "completed pairs miss 1 labellings of (1)"),
        (_pairs_on_one_more_bead(True), (5, 2, 3), "completed pairs miss 0 labellings of (1)"),
    ],
    ids=["extra-bead", "wider", "own-and-wider"],
)
def test_verify_process_reports_images_on_another_bead_count(monkeypatch, make, counts, detail):
    """An image of a support shape on n_beads + 1 beads is no labelling of
    it, even when all of its n_beads! labellings are hit as well."""
    monkeypatch.setattr(expansion, "enumerate_pairs", make(expansion.enumerate_pairs))
    report = verify_process_identity(Partition(), 1, 1, 1)
    assert not report.ok
    assert (report.n_pairs, report.n_aborted, report.n_completed) == counts
    assert report.detail == detail


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


def test_verify_process_matches_regeneration_on_the_strata():
    """The bijection checked by count gives the reports of the check by
    regenerating every labelling, on the benchmark's verify-process cases."""
    assert len(_VERIFY_PROCESS_STRATA) == 279
    for case in _VERIFY_PROCESS_STRATA:
        assert verify_process_identity(*case) == verify_process_by_regeneration(*case), case


@pytest.mark.parametrize(
    "attr,make,case",
    [
        ("pmn_expand", _flip_first_sign, (Partition((1,)), 2, 1, 3)),
        ("pmn_expand", _drop_first_term, (Partition((1,)), 2, 1, 3)),
        ("epsilon", _epsilon_to_itself, (Partition((1,)), 2, 1, 3)),
        ("epsilon", _epsilon_except(*_PARTNER_NOT_MAPPING_BACK), (Partition(), 1, 2, 3)),
        *[
            ("epsilon", _epsilon_except(pair, partner), (Partition(), 1, 2, 2))
            for pair, partner, _ in _COMPLETED_PARTNERS
        ],
        ("epsilon", _epsilon_keeping_the_budget, (Partition((1,)), 2, 1, 3)),
        ("epsilon", _partner_budget_resized(lambda e: e[:-1]), (Partition((1,)), 2, 1, 3)),
        ("epsilon", _partner_budget_resized(lambda e: e + (0,)), (Partition((1,)), 2, 1, 3)),
        ("enumerate_pairs", _images_cycled, (Partition((1,)), 2, 1, 3)),
        ("enumerate_pairs", _first_completed_pair(0), (Partition((1,)), 2, 1, 3)),
        ("enumerate_pairs", _first_completed_pair(2), (Partition((1,)), 2, 1, 3)),
        ("enumerate_pairs", _first_image_with_an_extra_bead, (Partition((1,)), 2, 1, 3)),
        ("enumerate_pairs", _pairs_on_one_more_bead(False), (Partition(), 1, 2, 2)),
        ("enumerate_pairs", _pairs_on_one_more_bead(True), (Partition(), 1, 2, 2)),
    ],
    ids=[
        "flip-first-sign",
        "drop-first-term",
        "partner-keeping-sign",
        "partner-not-mapping-back",
        "completed-partner-first",
        "completed-partner-last",
        "partner-changing-weight",
        "partner-budget-short",
        "partner-budget-long",
        "images-cycled",
        "missed-labelling",
        "shared-image",
        "extra-bead",
        "wider",
        "own-and-wider",
    ],
)
def test_verify_process_matches_regeneration_under_faults(monkeypatch, attr, make, case):
    monkeypatch.setattr(expansion, attr, make(getattr(expansion, attr)))
    report = _outcome(verify_process_identity, case)
    assert report == _outcome(verify_process_by_regeneration, case)
    assert isinstance(report, tuple) or not report.ok
