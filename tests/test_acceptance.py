"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
check is a separate test so the suite reports them individually; the
printed lines summarize the same outcomes for log scraping.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from math import comb, factorial

from oracles import single_strip_rule, young_rule
from plethax import (
    Composition,
    LabelledAbacus,
    Partition,
    SkewPartition,
    SparsePolynomial,
    a_beta,
    all_abaci,
    canonical_abacus,
    enumerate_pairs,
    epsilon,
    partitions_of,
    pmn_expand,
    r_decompose,
    run_process,
    sgn_r,
    shifted_beta,
    verify_against_oracle,
    weight_with_budget,
)

W_533221 = LabelledAbacus((0, 4, 0, 2, 5, 0, 1, 6, 0, 0, 3))
W_SIGNED = LabelledAbacus((5, 0, 6, 4, 1, 0, 0, 3, 0, 2))


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL {label}")
        raise
    print(f"criterion {number:02d} PASS {label}")


def test_criterion_01_strip_chain_golden():
    with criterion(1, "strip-chain sign golden, sub-millisecond"):
        outer = Partition((8, 6, 6, 5, 5, 1))
        inner = Partition((5, 3, 3, 2, 2, 1))
        skew = SkewPartition(outer, inner)
        chain = r_decompose(skew, 5)
        assert chain.shapes == (
            inner,
            Partition((5, 4, 4, 4, 3, 1)),
            Partition((5, 5, 5, 5, 5, 1)),
            outer,
        )
        assert chain.tops == (2, 2, 1)
        assert chain.bottoms == (5, 5, 3)
        assert chain.strip_signs == (-1, -1, 1)
        assert chain.sign == 1 and sgn_r(skew, 5) == 1

        r_decompose(skew, 5)  # warm up
        best = min(
            _timed(lambda: r_decompose(skew, 5)) for _ in range(3)
        )
        assert best < 0.001, f"decomposition took {best * 1e3:.3f} ms"


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_abacus_readings_golden():
    with criterion(2, "labelled-abacus readings golden"):
        assert W_SIGNED.sign() == -1

        assert W_533221.sigma() == (3, 6, 1, 5, 2, 4)
        sigma = W_533221.sigma()
        # cycle structure (1 3)(2 6 4 5)
        assert sigma[0] == 3 and sigma[2] == 1
        assert sigma[1] == 6 and sigma[5] == 4 and sigma[3] == 5 and sigma[4] == 2
        assert W_533221.sign() == 1
        assert W_533221.weight() == (6, 3, 10, 1, 4, 7)
        assert W_533221.shape() == Partition((5, 3, 3, 2, 2, 1))

        moved = W_533221.r_move(2, 5)
        sig_w = W_533221.sigma()
        sig_v = moved.sigma()
        inverse = {label: rank for rank, label in enumerate(sig_w)}
        composite = tuple(sig_v[inverse[x]] for x in range(1, 7))
        # the 4-cycle (2 5 1 6) and nothing else
        assert composite == (6, 5, 3, 4, 1, 2)


def test_criterion_03_scanning_process_golden():
    with criterion(3, "scanning-process runs golden"):
        gammas = [
            Partition((5, 3, 3, 2, 2, 1)),
            Partition((5, 4, 4, 4, 3, 1)),
            Partition((5, 5, 5, 5, 5, 1)),
            Partition((8, 6, 6, 5, 5, 1)),
        ]
        first = run_process(W_533221, (0, 2, 0, 0, 1, 0), 5)
        assert first.successful
        assert first.shapes() == gammas

        second = run_process(W_533221, (0, 2, 1, 0, 0, 0), 5)
        assert second.successful
        assert [s.bead for s in second.moves][:2] == [2, 2]
        assert second.shapes()[1] == gammas[1]
        assert second.outcome.abacus.render_pairs() == "1:4,4:5,6:1,7:6,13:2,15:3"

        third = run_process(W_533221, (0, 2, 0, 1, 0, 0), 5)
        assert not third.successful
        assert third.outcome.position == 1
        assert (third.outcome.bead, third.outcome.blocker) == (4, 1)
        partner, beta2 = epsilon(W_533221, (0, 2, 0, 1, 0, 0), 5)
        assert beta2 == Composition((1, 2, 0, 0, 0, 0))
        assert partner == W_533221.swap(4, 1)


def test_criterion_04_symbolic_identity_sweep():
    with criterion(4, "symbolic alternant identity sweep"):
        start = time.perf_counter()
        cases = 0
        for size in range(0, 4):
            for mu in partitions_of(size):
                for r, m in product((1, 2, 3), repeat=2):
                    n = mu.size + r * m
                    if n > 8:
                        continue
                    report = verify_against_oracle(mu, r, m, n, mode="symbolic")
                    assert report.ok, (mu, r, m, report.detail)
                    cases += 1
        elapsed = time.perf_counter() - start
        assert cases == 50
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_criterion_05_modular_identity_samples():
    with criterion(5, "modular alternant identity samples"):
        start = time.perf_counter()
        rng = random.Random(20240819)
        for index in range(10):
            r = rng.randint(1, 4)
            m = rng.randint(1, 4)
            mu = rng.choice(list(partitions_of(rng.randint(0, 4))))
            n = mu.size + r * m
            assert n <= 20
            report = verify_against_oracle(mu, r, m, n, mode="modular", seed=index)
            assert report.ok, (mu, r, m, report.detail)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"samples took {elapsed:.1f}s"


@lru_cache(maxsize=None)
def _process_sweep():
    """Replay every (abacus, budget) pair for N <= 4, |mu| <= 4, r, m <= 3.

    Returns aggregate statistics consumed by the involution and bijection
    checks, plus the wall-clock time of the whole sweep.
    """
    start = time.perf_counter()
    aborted_checked = completed_checked = 0
    count_law_holds = True
    for n in range(1, 5):
        for size in range(0, 5):
            for mu in partitions_of(size, max_length=n):
                for r, m in product((1, 2, 3), repeat=2):
                    n_aborted = n_completed = n_pairs = 0
                    images: dict[Partition, set] = {}
                    for w, beta, trace in enumerate_pairs(mu, n, r, m):
                        n_pairs += 1
                        if trace.successful:
                            n_completed += 1
                            final = trace.outcome.abacus
                            lam = final.shape()
                            assert final.weight() == weight_with_budget(
                                w, beta, r
                            )
                            assert final.sign() == sgn_r(
                                SkewPartition(lam, mu), r
                            ) * w.sign()
                            images.setdefault(lam, set()).add(final)
                            completed_checked += 1
                        else:
                            n_aborted += 1
                            w2, beta2 = epsilon(w, beta, r)
                            assert w2.sign() == -w.sign()
                            assert weight_with_budget(
                                w2, beta2, r
                            ) == weight_with_budget(w, beta, r)
                            assert epsilon(w2, beta2, r) == (w, beta)
                            aborted_checked += 1
                    if n_pairs != factorial(n) * comb(m + n - 1, n - 1):
                        count_law_holds = False
                    if n_aborted + n_completed != n_pairs:
                        count_law_holds = False
                    # the completed images must be exactly the labellings of
                    # the decomposable supersets that fit on n beads, each
                    # hit exactly once
                    targets = {
                        lam: s
                        for lam, s in pmn_expand(mu, r, m).items()
                        if len(lam) <= n
                    }
                    assert set(images) == set(targets)
                    for lam in targets:
                        assert images[lam] == set(all_abaci(lam, n))
                    assert sum(
                        len(bucket) for bucket in images.values()
                    ) == n_completed
    elapsed = time.perf_counter() - start
    return aborted_checked, completed_checked, count_law_holds, elapsed


def test_criterion_06_involution_sweep():
    with criterion(6, "pairing involution sweep"):
        aborted_checked, _, _, elapsed = _process_sweep()
        assert aborted_checked > 5_000
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_criterion_07_completion_bijection_sweep():
    with criterion(7, "completion bijection sweep"):
        _, completed_checked, count_law_holds, elapsed = _process_sweep()
        assert completed_checked > 2_000
        assert count_law_holds
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_criterion_08_specialization_oracles():
    with criterion(8, "single-strip and horizontal-strip specializations"):
        for size in range(0, 5):
            for mu in partitions_of(size):
                for m in range(1, 5):
                    assert dict(pmn_expand(mu, 1, m).items()) == young_rule(mu, m)
                for r in range(1, 5):
                    assert dict(pmn_expand(mu, r, 1).items()) == single_strip_rule(
                        mu, r
                    )


def test_criterion_09_pinned_expansion_golden():
    with criterion(9, "pinned expansion golden"):
        expansion = pmn_expand(Partition(), 2, 2)
        assert dict(expansion.items()) == {
            Partition((4,)): 1,
            Partition((3, 1)): -1,
            Partition((2, 2)): 1,
        }
        assert verify_against_oracle(Partition(), 2, 2, 4, mode="symbolic").ok


def test_criterion_10_alternant_equals_signed_abacus_sum():
    with criterion(10, "alternant equals signed abacus sum"):
        for n in range(1, 5):
            for size in range(0, 5):
                for lam in partitions_of(size, max_length=n):
                    lhs = a_beta(shifted_beta(lam.parts, n))
                    rhs = SparsePolynomial.zero(n)
                    for u in all_abaci(lam, n):
                        rhs = rhs + SparsePolynomial.monomial(
                            n, u.weight(), u.sign()
                        )
                    assert lhs == rhs, (lam, n)
                    assert rhs.terms[shifted_beta(lam.parts, n)] == canonical_abacus(
                        lam, n
                    ).sign()
