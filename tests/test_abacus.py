import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import inversion_sign, monomial_powers, monomial_text
from plethax import (
    Collision,
    LabelledAbacus,
    Monomial,
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
        (lambda: Monomial.from_vector([1.7]), "1.7"),
        (lambda: Monomial({1: 2.5}), "2.5"),
        (lambda: Monomial({"1": 2}), "'1'"),
    ],
    ids=[
        "slots-float",
        "slots-str",
        "position-float",
        "label-float",
        "vector-float",
        "exponent-float",
        "variable-str",
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


def test_golden_readings(abacus_533221):
    w = abacus_533221
    assert w.n_beads == 6
    assert w.sigma() == (3, 6, 1, 5, 2, 4)
    assert w.sign() == 1
    assert w.shape() == Partition((5, 3, 3, 2, 2, 1))
    assert w.support() == (10, 7, 6, 4, 3, 1)
    assert w.weight() == Monomial(
        {1: 6, 2: 3, 3: 10, 4: 1, 5: 4, 6: 7}
    )
    assert w.render() == ".4.25.16..3"
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
    assert canonical_abacus(Partition(), 3).weight() == Monomial({1: 2, 2: 1})
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
    assert abacus_533221.beads_between(3, 8) == 3


def test_beads_between_requires_increasing_bounds(abacus_533221):
    with pytest.raises(ValueError):
        abacus_533221.beads_between(8, 3)
    with pytest.raises(ValueError):
        abacus_533221.beads_between(4, 4)


def test_beads_between_counts_no_slot_below_zero():
    w = LabelledAbacus((0, 1, 0, 2, 3))
    assert w.beads_between(-3, 1) == 0
    assert w.beads_between(-1, 4) == 2
    assert w.beads_between(-9, 9) == 3


@given(abacus_st(), st.integers(1, 4), st.data())
def test_r_move_round_trip_and_sign(w, r, data):
    positions = w.positions()
    assert positions == tuple(w.slots.index(label) for label in range(1, w.n_beads + 1))
    assert w.weight() == Monomial.from_vector(positions)
    beta = data.draw(st.lists(st.integers(0, 3), min_size=w.n_beads, max_size=w.n_beads))
    assert weight_with_budget(w, beta, r).vector(w.n_beads) == tuple(
        p + r * e for p, e in zip(positions, beta)
    )
    for bead in range(1, w.n_beads + 1):
        out = w.r_move(bead, r)
        if isinstance(out, Collision):
            assert w.slot(w.position(out.bead) + r) == out.blocker
            continue
        x = w.position(bead)
        jumped = w.beads_between(x, x + r)
        assert out.sign() == (-1) ** jumped * w.sign()
        assert out.weight() == w.weight() * Monomial({bead: r})
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


def test_monomial_algebra():
    m = Monomial({2: 3, 1: 6})
    assert str(m) == "x1^6 x2^3"
    assert m.degree == 9
    assert m.exponent(5) == 0
    assert m * Monomial({2: 1, 7: 2}) == Monomial({1: 6, 2: 4, 7: 2})
    assert Monomial({1: 0}) == Monomial({})
    assert tuple(Monomial.from_vector((2, 0, 1)).items()) == ((1, 2), (3, 1))
    assert m.vector(4) == (6, 3, 0, 0)
    with pytest.raises(ValueError):
        Monomial({1: -2})
    with pytest.raises(ValueError):
        m.vector(1)


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


pairs_st = st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)), max_size=8)


@given(pairs_st, pairs_st)
def test_monomial_matches_dict_model(pairs_a, pairs_b):
    a, b = Monomial(pairs_a), Monomial(pairs_b)
    model_a, model_b = monomial_powers(pairs_a), monomial_powers(pairs_b)
    assert (a == b) == (model_a == model_b)
    if model_a == model_b:
        assert hash(a) == hash(b)
    assert a == Monomial(model_a)
    assert tuple(a.items()) == tuple(sorted(model_a.items()))
    for var in range(1, 9):
        assert a.exponent(var) == model_a.get(var, 0)
    assert a.degree == sum(model_a.values())
    assert a.vector(6) == tuple(model_a.get(v, 0) for v in range(1, 7))
    assert Monomial.from_vector(a.vector(6)) == a
    product_model = monomial_powers([*model_a.items(), *model_b.items()])
    assert a * b == Monomial(product_model)
    assert tuple((a * b).items()) == tuple(sorted(product_model.items()))
    assert str(a) == monomial_text(model_a)
    assert repr(a) == f"Monomial({tuple(sorted(model_a.items()))!r})"


def test_monomial_error_messages():
    with pytest.raises(ValueError, match=r"^variable index must be >= 1, got 0$"):
        Monomial({0: 1})
    with pytest.raises(ValueError, match=r"^exponent must be nonnegative, got -2$"):
        Monomial([(3, -2)])
    with pytest.raises(ValueError, match=r"^exponent must be nonnegative, got -1$"):
        Monomial.from_vector((2, 0, -1))
    m = Monomial({2: 1, 5: 2, 7: 1})
    with pytest.raises(ValueError, match=r"^variable x5 does not fit in 3 variables$"):
        m.vector(3)


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
