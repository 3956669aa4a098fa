import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import beads_between, inversion_sign
from plethax import (
    Collision,
    LabelledAbacus,
    Partition,
    all_abaci,
    bead_positions,
    canonical_abacus,
    partitions_of,
    weight_with_budget,
)
from plethax.polynomials import GuardError


@st.composite
def abacus_st(draw, max_beads=5, max_extra=4):
    n = draw(st.integers(1, max_beads))
    labels = draw(st.permutations(range(1, n + 1)))
    positions = draw(
        st.lists(
            st.integers(0, n + max_extra), min_size=n, max_size=n, unique=True
        )
    )
    return LabelledAbacus.from_positions(zip(positions, labels))


def test_constructor_validates_labels():
    with pytest.raises(ValueError):
        LabelledAbacus((1, 1))
    with pytest.raises(ValueError):
        LabelledAbacus((1, 3))
    with pytest.raises(ValueError):
        LabelledAbacus((-1, 2))
    assert LabelledAbacus((1, 2, 0, 0)).slots == (1, 2)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: LabelledAbacus([1.5]), "1.5"),
        (lambda: LabelledAbacus(("1",)), "'1'"),
        (lambda: LabelledAbacus.from_positions([(0.5, 1)]), "0.5"),
        (lambda: LabelledAbacus.from_positions([(0, 1.0)]), "1.0"),
    ],
    ids=[
        "slots-float",
        "slots-str",
        "position-float",
        "label-float",
    ],
)
def test_non_integral_entries_are_rejected(build, bad):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer entry, got {bad}")):
        build()


def test_from_positions_rejects_duplicates():
    with pytest.raises(ValueError):
        LabelledAbacus.from_positions([(0, 1), (0, 2), (1, 3)])
    with pytest.raises(ValueError):
        LabelledAbacus.from_positions([(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        LabelledAbacus.from_positions([(-1, 1)])


@pytest.mark.parametrize("label", [0, -2])
def test_from_positions_rejects_labels_below_one(label):
    with pytest.raises(ValueError, match=f"^bead labels must be at least 1, got {label}$"):
        LabelledAbacus.from_positions([(0, 1), (1, label), (2, 2)])


def test_golden_readings(abacus_533221):
    w = abacus_533221
    assert w.n_beads == 6
    assert w.sigma() == (3, 6, 1, 5, 2, 4)
    assert w.sign() == 1
    assert w.shape() == Partition((5, 3, 3, 2, 2, 1))
    assert w.support() == (10, 7, 6, 4, 3, 1)
    assert w.weight() == (6, 3, 10, 1, 4, 7)
    assert w.render() == ".4.25.16..3"
    assert str(LabelledAbacus((1, 0, 2))) == "1.2"
    assert w.render_pairs() == "1:4,3:2,4:5,6:1,7:6,10:3"
    assert w.position(3) == 10
    assert w.slot(6) == 1


def test_shape_builds_no_checked_partition(abacus_533221, checked_partitions):
    shape = abacus_533221.shape()
    assert checked_partitions == []
    assert shape == Partition((5, 3, 3, 2, 2, 1))


def test_golden_sign_example(abacus_sign_example):
    w = abacus_sign_example
    assert w.sigma() == (2, 3, 1, 4, 6, 5)
    assert w.sign() == -1


def test_canonical_abacus():
    w = canonical_abacus(Partition((5, 3, 3, 2, 2, 1)), 6)
    assert w.support() == (10, 7, 6, 4, 3, 1)
    assert [w.slot(p) for p in w.support()] == [1, 2, 3, 4, 5, 6]
    assert w.sigma() == (1, 2, 3, 4, 5, 6)
    assert w.sign() == 1
    assert w.shape() == Partition((5, 3, 3, 2, 2, 1))
    assert canonical_abacus(Partition(), 3).weight() == (2, 1, 0)
    with pytest.raises(ValueError):
        canonical_abacus(Partition((2, 1, 1)), 2)


def test_r_move_golden(abacus_533221):
    out = abacus_533221.r_move(4, 5)
    assert out == Collision(bead=4, blocker=1, position=6)
    moved = abacus_533221.r_move(2, 5)
    assert isinstance(moved, LabelledAbacus)
    assert moved.shape() == Partition((5, 4, 4, 4, 3, 1))
    assert moved.sign() == -abacus_533221.sign()
    assert moved.tth_rightmost(2) == 2
    assert beads_between(abacus_533221, 3, 8) == 3


def test_beads_between_requires_increasing_bounds(abacus_533221):
    with pytest.raises(ValueError):
        beads_between(abacus_533221, 8, 3)
    with pytest.raises(ValueError):
        beads_between(abacus_533221, 4, 4)


def test_beads_between_counts_no_slot_below_zero():
    w = LabelledAbacus((0, 1, 0, 2, 3))
    assert beads_between(w, -3, 1) == 0
    assert beads_between(w, -1, 4) == 2
    assert beads_between(w, -9, 9) == 3


@given(abacus_st(), st.integers(1, 4), st.data())
def test_r_move_round_trip_and_sign(w, r, data):
    positions = w.positions()
    assert positions == tuple(w.slots.index(label) for label in range(1, w.n_beads + 1))
    assert w.weight() == positions
    beta = data.draw(st.lists(st.integers(0, 3), min_size=w.n_beads, max_size=w.n_beads))
    assert weight_with_budget(w, beta, r) == tuple(
        p + r * e for p, e in zip(positions, beta)
    )
    for bead in range(1, w.n_beads + 1):
        out = w.r_move(bead, r)
        if isinstance(out, Collision):
            assert w.slot(w.position(out.bead) + r) == out.blocker
            continue
        x = w.position(bead)
        jumped = beads_between(w, x, x + r)
        assert out.sign() == (-1) ** jumped * w.sign()
        assert out.weight() == tuple(
            p + r * (label == bead) for label, p in enumerate(positions, start=1)
        )
        assert out.left_r_move(bead, r) == w


@given(abacus_st())
def test_left_r_move_guards(w):
    bead = w.tth_rightmost(w.n_beads)  # leftmost bead
    r = w.position(bead) + 1
    with pytest.raises(ValueError):
        w.left_r_move(bead, r)


@given(abacus_st())
def test_swap_flips_sign(w):
    if w.n_beads < 2:
        return
    swapped = w.swap(1, 2)
    assert swapped.sign() == -w.sign()
    assert swapped.support() == w.support()
    assert swapped.swap(1, 2) == w


def test_tth_rightmost(abacus_533221):
    ranks = [abacus_533221.tth_rightmost(t) for t in range(1, 7)]
    assert ranks == [3, 6, 1, 5, 2, 4]
    with pytest.raises(ValueError):
        abacus_533221.tth_rightmost(0)
    with pytest.raises(ValueError):
        abacus_533221.tth_rightmost(7)


def test_render_spacing_breaks_past_nine_beads():
    ten = canonical_abacus(Partition(), 10)
    assert " " in ten.render()
    assert "10" in ten.render()


@pytest.mark.parametrize("lam", [Partition(), Partition((2, 1)), Partition((3, 3))])
def test_all_abaci_enumeration(lam):
    n = max(len(lam), 3)
    seen = list(all_abaci(lam, n))
    assert len(seen) == math.factorial(n)
    assert len(set(seen)) == len(seen)
    assert seen[0] == canonical_abacus(lam, n)
    assert all(w.shape() == lam for w in seen)


def test_all_abaci_guard():
    # 10! labellings fit the default enumeration budget of 10,000,000; 11! do not.
    first = next(all_abaci(Partition(), 10))
    assert first == canonical_abacus(Partition(), 10)
    with pytest.raises(GuardError, match="^39916800 labellings exceeds the enumeration budget"):
        all_abaci(Partition(), 11)


@given(st.integers(0, 6), st.data())
def test_abaci_signs_split_evenly(size, data):
    lam = data.draw(st.sampled_from(list(partitions_of(size))))
    n = max(len(lam), 2)
    signs = [w.sign() for w in all_abaci(lam, n)]
    assert signs.count(1) == signs.count(-1) == math.factorial(n) // 2


def test_sigma_lists_labels_right_to_left():
    for w in itertools.islice(all_abaci(Partition((2, 2)), 3), 0, 24, 5):
        labels = [w.slot(p) for p in w.support()]
        assert w.sigma() == tuple(labels)


@pytest.mark.parametrize("n", range(7))
def test_sign_matches_brute_force_inversion_count(n):
    for lam in (Partition(), Partition((3, 1, 1))):
        if len(lam) > n:
            continue
        for w in all_abaci(lam, n):
            assert w.sign() == inversion_sign(w.sigma())


def _check_moved(out, w):
    assert out == LabelledAbacus(out.slots)
    assert isinstance(out.slots, tuple)
    assert out.n_beads == w.n_beads
    assert out.slots[-1] != 0


@given(abacus_st(), st.integers(1, 4))
def test_moves_build_valid_trimmed_abaci(w, r):
    for bead in range(1, w.n_beads + 1):
        out = w.r_move(bead, r)
        if isinstance(out, LabelledAbacus):
            _check_moved(out, w)
        y = w.position(bead)
        if y >= r and not w.slot(y - r):
            _check_moved(w.left_r_move(bead, r), w)
        for other in range(bead + 1, w.n_beads + 1):
            _check_moved(w.swap(bead, other), w)


@pytest.mark.parametrize("lam", [Partition(), Partition((2, 1)), Partition((3, 3, 1))])
def test_all_abaci_matches_from_positions(lam):
    n = max(len(lam), 4)
    positions = bead_positions(lam, n)
    expected = {
        LabelledAbacus.from_positions(zip(positions, perm))
        for perm in itertools.permutations(range(1, n + 1))
    }
    assert set(all_abaci(lam, n)) == expected
