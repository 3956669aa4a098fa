import ast
import math
import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import plethax
from oracles import partner_by_swap, scan_by_r_move
from test_abacus import abacus_st
from plethax import (
    Composition,
    LabelledAbacus,
    Monomial,
    Partition,
    Successful,
    Unsuccessful,
    all_abaci,
    canonical_abacus,
    compositions,
    enumerate_pairs,
    epsilon,
    k_set,
    partitions_of,
    psi,
    run_process,
    weight_with_budget,
)
from plethax.polynomials import GuardError


def test_composition_basics():
    beta = Composition((0, 2, 0, 0, 1, 0))
    assert beta.total == 3
    assert beta.entry(2) == 2
    assert len(beta) == 6
    assert str(beta) == "(0,2,0,0,1,0)"
    with pytest.raises(ValueError):
        Composition((1, -1))
    with pytest.raises(ValueError):
        beta.entry(7)


@pytest.mark.parametrize("entries, bad", [((1.5,), "1.5"), ((0, "2"), "'2'"), ((2.0, 1), "2.0")])
def test_composition_rejects_non_integral_entries(entries, bad):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer entry, got {bad}")):
        Composition(entries)


def test_run_budget_length_must_match(abacus_533221):
    with pytest.raises(ValueError):
        run_process(abacus_533221, (1, 0), 2)
    with pytest.raises(ValueError):
        run_process(abacus_533221, (0,) * 6, 0)


def test_zero_budget_completes_immediately(abacus_533221):
    trace = run_process(abacus_533221, (0,) * 6, 5)
    assert trace.successful
    assert trace.outcome.abacus == abacus_533221
    assert trace.steps == ()
    assert trace.shapes() == [abacus_533221.shape()]


def test_golden_run_two_beads(abacus_533221):
    trace = run_process(abacus_533221, (0, 2, 0, 0, 1, 0), 5)
    assert trace.successful
    assert trace.outcome.abacus.render_pairs() == "1:4,6:1,7:6,9:5,10:3,13:2"
    assert [s.bead for s in trace.moves] == [2, 5, 2]
    assert [s.position for s in trace.moves] == [3, 4, 8]
    assert [p.parts for p in trace.shapes()] == [
        (5, 3, 3, 2, 2, 1),
        (5, 4, 4, 4, 3, 1),
        (5, 5, 5, 5, 5, 1),
        (8, 6, 6, 5, 5, 1),
    ]
    assert [s.strip_top for s in trace.moves] == [2, 2, 1]
    assert [s.alpha for s in trace.moves] == [
        (0, 1, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0),
    ]


def test_golden_run_three_moves(abacus_533221):
    trace = run_process(abacus_533221, (0, 2, 1, 0, 0, 0), 5)
    assert trace.successful
    assert [s.bead for s in trace.moves] == [2, 2, 3]
    assert trace.outcome.abacus.render_pairs() == "1:4,4:5,6:1,7:6,13:2,15:3"


def test_golden_aborted_run(abacus_533221):
    trace = run_process(abacus_533221, (0, 2, 0, 1, 0, 0), 5)
    assert not trace.successful
    assert trace.outcome == Unsuccessful(bead=4, blocker=1, position=1)
    assert trace.steps[-1].action == "collided"


def test_scan_actions_are_recorded(abacus_533221):
    trace = run_process(abacus_533221, (0, 2, 0, 0, 1, 0), 5)
    by_action = {}
    for step in trace.steps:
        by_action.setdefault(step.action, []).append(step.position)
    assert by_action["moved"] == [3, 4, 8]
    assert 0 in by_action["skip-empty"]
    assert 1 in by_action["skip-exhausted"]
    assert "collided" not in by_action


def test_record_steps_false_keeps_outcome(abacus_533221):
    for beta in [(0, 2, 0, 0, 1, 0), (0, 2, 0, 1, 0, 0)]:
        full = run_process(abacus_533221, beta, 5)
        bare = run_process(abacus_533221, beta, 5, record_steps=False)
        assert bare.steps == ()
        assert bare.outcome == full.outcome


def test_epsilon_golden(abacus_533221):
    partner, beta2 = epsilon(abacus_533221, (0, 2, 0, 1, 0, 0), 5)
    assert partner.render_pairs() == "1:1,3:2,4:5,6:4,7:6,10:3"
    assert beta2 == Composition((1, 2, 0, 0, 0, 0))


def test_epsilon_tiny_hand_run():
    # two beads, r=1: bead 2 at slot 0 wants one step but bead 1 blocks it
    w = LabelledAbacus((2, 1))
    partner, beta2 = epsilon(w, (0, 1), 1)
    assert partner == LabelledAbacus((1, 2))
    assert beta2 == Composition((1, 0))
    back, beta3 = epsilon(partner, beta2, 1)
    assert back == w and beta3 == Composition((0, 1))


def test_epsilon_rejects_completed_pairs(abacus_533221):
    with pytest.raises(ValueError):
        epsilon(abacus_533221, (0, 2, 0, 0, 1, 0), 5)


def test_psi_golden_and_guard(abacus_533221):
    final = psi(abacus_533221, (0, 2, 0, 0, 1, 0), 5)
    assert final.shape() == Partition((8, 6, 6, 5, 5, 1))
    with pytest.raises(ValueError):
        psi(abacus_533221, (0, 2, 0, 1, 0, 0), 5)


def test_enumerate_pairs_count():
    mu = Partition((1,))
    pairs = list(enumerate_pairs(mu, 3, 2, 2))
    assert len(pairs) == math.factorial(3) * math.comb(2 + 2, 2)
    ws, betas, traces = zip(*pairs)
    assert all(w.shape() == mu for w in ws)
    assert all(b.total == 2 for b in betas)
    assert all(t.steps == () for t in traces)


def test_enumeration_budget_guard(monkeypatch):
    monkeypatch.setenv("PLETHAX_BUDGET", "35")
    with pytest.raises(GuardError):
        enumerate_pairs(Partition(), 3, 1, 2)
    monkeypatch.setenv("PLETHAX_BUDGET", "36")
    assert len(list(enumerate_pairs(Partition(), 3, 1, 2))) == 36


@pytest.mark.parametrize(
    "enumerate_, count, what",
    [
        (lambda: enumerate_pairs(Partition(), 3, 1, 2), 36, "pairs"),
        (lambda: all_abaci(Partition((1,)), 3), 6, "labellings"),
        (lambda: k_set(Partition(), Partition((2,)), 3, 2, 1), 6, "labellings"),
    ],
    ids=["enumerate_pairs", "all_abaci", "k_set"],
)
def test_budget_guard_trips_at_the_call(monkeypatch, enumerate_, count, what):
    monkeypatch.setenv("PLETHAX_BUDGET", "5")
    message = (
        f"{count} {what} exceeds the enumeration budget 5; "
        "set PLETHAX_BUDGET higher to proceed"
    )
    with pytest.raises(GuardError, match=f"^{re.escape(message)}$") as caught:
        enumerate_()
    assert caught.value.what == f"{count} {what} exceeds the enumeration budget 5"


def test_k_set_goldens():
    seqs = k_set(Partition(), Partition((2,)), 2, 2, 1)
    assert len(seqs) == math.factorial(2)
    for seq in seqs:
        assert len(seq) == 2
        assert seq[0].shape() == Partition()
        assert seq[-1].shape() == Partition((2,))
    assert k_set(Partition(), Partition((1, 1)), 2, 1, 2) == []
    assert k_set(Partition(), Partition((1,)), 2, 2, 1) == []


@pytest.mark.parametrize(
    "mu,lam,n,r,m",
    [
        (Partition(), Partition((2, 2)), 3, 2, 2),
        (Partition((1,)), Partition((3, 1, 1)), 3, 2, 2),
        (Partition((2, 1)), Partition((2, 1, 1, 1)), 4, 2, 1),
        (Partition((1,)), Partition((3, 2)), 3, 2, 2),
    ],
)
def test_k_set_size_and_final_labellings(mu, lam, n, r, m):
    seqs = k_set(mu, lam, n, r, m)
    assert len(seqs) in (0, math.factorial(n))
    if seqs:
        finals = {seq[-1] for seq in seqs}
        assert finals == set(all_abaci(lam, n))
        for seq in seqs:
            assert len(seq) == m + 1
            assert [v.shape().size for v in seq] == [
                mu.size + r * j for j in range(m + 1)
            ]


def test_weight_with_budget(abacus_533221):
    inv = weight_with_budget(abacus_533221, (0, 2, 0, 1, 0, 0), 5)
    assert inv == abacus_533221.weight() * Monomial({2: 10, 4: 5})


def small_cases(max_beads=3, max_m=2, max_r=2, max_mu=2):
    for n in range(1, max_beads + 1):
        for size in range(0, max_mu + 1):
            for mu in partitions_of(size, max_length=n):
                for r, m in product(range(1, max_r + 1), range(0, max_m + 1)):
                    yield mu, n, r, m


def test_epsilon_is_a_sign_reversing_weight_preserving_involution():
    checked = 0
    for mu, n, r, m in small_cases():
        for w in all_abaci(mu, n):
            for entries in compositions(m, n):
                trace = run_process(w, entries, r, record_steps=False)
                if trace.successful:
                    continue
                w2, beta2 = epsilon(w, entries, r)
                assert w2.sign() == -w.sign()
                assert weight_with_budget(w2, beta2, r) == weight_with_budget(
                    w, entries, r
                )
                back, beta3 = epsilon(w2, beta2, r)
                assert back == w and beta3 == Composition(tuple(entries))
                part2 = run_process(w2, beta2, r, record_steps=False)
                assert isinstance(part2.outcome, Unsuccessful)
                assert part2.outcome.position == trace.outcome.position
                checked += 1
    assert checked > 100


def test_psi_preserves_weight_and_lands_on_grown_shapes():
    for mu, n, r, m in small_cases():
        images = {}
        for w in all_abaci(mu, n):
            for entries in compositions(m, n):
                trace = run_process(w, entries, r, record_steps=False)
                if not trace.successful:
                    continue
                final = trace.outcome.abacus
                assert final.weight() == weight_with_budget(w, entries, r)
                assert final.shape().size == mu.size + r * m
                images.setdefault(final.shape(), []).append(final)
        for lam, finals in images.items():
            # no two completed pairs share a final labelling
            assert len(set(finals)) == len(finals)
            assert set(finals) == set(all_abaci(lam, n))


@given(
    st.sampled_from(list(partitions_of(3)) + list(partitions_of(4))),
    st.integers(1, 3),
    st.integers(0, 3),
    st.data(),
)
def test_trace_moves_scan_rightward_with_descending_tops(mu, r, m, data):
    n = max(len(mu), 3)
    w = data.draw(st.sampled_from(list(all_abaci(mu, n))))
    entries = data.draw(st.sampled_from(list(compositions(m, n))))
    trace = run_process(w, entries, r)
    if not trace.successful:
        return
    sources = [s.position for s in trace.moves]
    tops = [s.strip_top for s in trace.moves]
    assert sources == sorted(sources) and len(set(sources)) == len(sources)
    assert tops == sorted(tops, reverse=True)
    assert len(trace.moves) == sum(entries)


def test_package_checks_invariants_without_assert():
    """Invariant checks raise real errors, which `python -O` keeps."""
    for path in sorted(Path(plethax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert found == [], f"{path.name} asserts on lines {found}"


@given(abacus_st(), st.integers(1, 4), st.booleans(), st.data())
def test_slot_list_scan_matches_r_move_scan(w, r, record_steps, data):
    """Same steps, step abaci and alphas, strip tops and outcome as the scan
    that builds one abacus per move."""
    beta = data.draw(
        st.lists(st.integers(0, 3), min_size=w.n_beads, max_size=w.n_beads)
    )
    trace = run_process(w, beta, r, record_steps)
    assert trace == scan_by_r_move(w, beta, r, record_steps)


@given(abacus_st(), st.integers(1, 4), st.data())
def test_epsilon_matches_the_partner_built_by_swap(w, r, data):
    beta = data.draw(
        st.lists(st.integers(0, 3), min_size=w.n_beads, max_size=w.n_beads)
    )
    trace = run_process(w, beta, r, record_steps=False)
    assume(not trace.successful)
    w2, beta2 = epsilon(w, beta, r)
    ref, ref_beta = partner_by_swap(w, trace.beta, r, trace.outcome)
    assert (w2.slots, w2.n_beads) == (ref.slots, ref.n_beads)
    assert beta2.entries == ref_beta.entries


def test_scan_order_guard_fires_on_an_undercounted_abacus():
    """On a consistent abacus a later move lands right of an earlier one and
    passes no bead the earlier one did not, so strip tops never rise and the
    guard cannot fire.  An abacus that holds more beads than it counts makes
    a top exceed the bead count; both scans refuse it the same way."""
    w = LabelledAbacus.__new__(LabelledAbacus)
    w.slots, w.n_beads = (1, 0, 2, 3), 1
    for scan in (run_process, scan_by_r_move):
        with pytest.raises(RuntimeError, match="move from slot 0 breaks the scan order"):
            scan(w, (1,), 1)


@pytest.mark.parametrize("beta", [(1, 0, 3), (1,)])
def test_weight_with_budget_rejects_a_budget_of_the_wrong_length(beta):
    with pytest.raises(ValueError, match=f"budget has {len(beta)} entries for 2 beads"):
        weight_with_budget(LabelledAbacus((0, 1, 0, 2)), beta, 2)
