import ast
import copy
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from oracles import (
    chain_sign_by_search,
    count_monotone_chains,
    is_border_strip,
    is_horizontal_strip,
    skew_bottom,
    skew_top,
    strip_sign,
    strips_below,
    subpartitions,
    supersets_by_shapes,
)
from plethax import partitions
from plethax import (
    BorderStripChain,
    Partition,
    SkewPartition,
    bead_positions,
    canonical_abacus,
    enumerate_supersets,
    partition_from_positions,
    partitions_of,
    r_decompose,
    sgn_r,
)
from plethax.partitions import _bead_mask, _mask_shape


@st.composite
def partition_st(draw, max_size=8):
    n = draw(st.integers(0, max_size))
    return draw(st.sampled_from(list(partitions_of(n))))


def test_constructor_normalizes_trailing_zeros():
    assert Partition((4, 2, 0, 0)) == Partition((4, 2))
    assert Partition(()) == Partition((0, 0))
    assert len(Partition((4, 2, 0, 0))) == 2


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((3, 5, 1))
    with pytest.raises(ValueError):
        Partition((3, -1))
    with pytest.raises(ValueError):
        Partition((3, 0, 2))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: Partition((1.5,)), "1.5"),
        (lambda: Partition(("2",)), "'2'"),
        (lambda: Partition((3, 2.0)), "2.0"),
        (lambda: partition_from_positions((2.5, 0)), "2.5"),
        (lambda: partition_from_positions(("1", 0)), "'1'"),
    ],
    ids=["part-float", "part-str", "part-integral-float", "position-float", "position-str"],
)
def test_non_integral_entries_are_rejected(build, bad):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer entry, got {bad}")):
        build()


def test_partitions_are_checked_tuples(checked_partitions):
    """A shape compares, hashes and indexes as the tuple of its parts, keeps
    its repr and str, checks a generator input, and copies and pickles
    through its checks; tuple.__new__ builds one without them."""
    lam = Partition((2, 1))
    assert lam == (2, 1) and hash(lam) == hash((2, 1))
    assert type(lam.parts) is tuple and lam.parts == (2, 1)
    assert (repr(lam), str(lam), f"{lam}") == ("Partition((2, 1))", "(2,1)", "(2,1)")
    assert (lam[0], lam[-1], lam[1:]) == (2, 1, (1,))
    assert sorted([Partition((1, 1)), Partition((2,))]) == [(1, 1), (2,)]
    assert Partition(p for p in (3, 1, 0)) == (3, 1)
    with pytest.raises(ValueError, match="weakly decreasing: 1 before 3"):
        Partition(p for p in (1, 3))
    assert checked_partitions == [(2, 1), (1, 1), (2,), (3, 1)]
    unchecked = tuple.__new__(Partition, (4, 2))
    assert len(checked_partitions) == 4
    assert type(unchecked) is Partition and unchecked.size == 6
    copies = [copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))]
    assert checked_partitions[4:] == [(2, 1)] * 3
    assert copies == [lam] * 3 and {type(c) for c in copies} == {Partition}
    edited = pickle.dumps(lam).replace(b"K\x02K\x01", b"K\x01K\x02")
    with pytest.raises(ValueError, match="weakly decreasing: 1 before 2"):
        pickle.loads(edited)


def test_part_accessor():
    lam = Partition((5, 3, 3))
    assert [lam.part(i) for i in range(1, 6)] == [5, 3, 3, 0, 0]
    with pytest.raises(ValueError):
        lam.part(0)


def test_partitions_of_counts():
    # p(0)..p(8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    assert [len(list(partitions_of(n))) for n in range(9)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22,
    ]
    assert list(partitions_of(4, max_length=2)) == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
    ]


def test_partitions_of_builds_no_checked_partition(checked_partitions):
    sixes = list(partitions_of(6))
    assert checked_partitions == []
    assert [lam.parts for lam in sixes] == [
        (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
    ]


def test_partitions_of_checks_arguments_at_the_call():
    with pytest.raises(ValueError, match="cannot partition a negative integer"):
        partitions_of(-1)
    with pytest.raises(ValueError, match="max_length must be nonnegative, got -1"):
        partitions_of(2, -1)


def test_partitions_of_rejects_negative_max_length():
    with pytest.raises(ValueError, match="max_length must be nonnegative, got -1"):
        list(partitions_of(2, -1))


def test_skew_requires_containment():
    with pytest.raises(ValueError):
        SkewPartition(Partition((2, 2)), Partition((3,)))


def test_skew_repr_str_and_equality():
    skew = SkewPartition(Partition((3, 1)), Partition((1,)))
    assert repr(skew) == "SkewPartition(Partition((3, 1)), Partition((1,)))"
    assert str(skew) == "(3,1)/(1)"
    same = SkewPartition(Partition([3, 1]), Partition([1]))
    assert skew == same and hash(skew) == hash(same)


def test_top_bottom():
    big = SkewPartition(Partition((8, 6, 6, 5, 5, 1)), Partition((5, 5, 5, 5, 5, 1)))
    assert (skew_top(big), skew_bottom(big)) == (1, 3)
    hook = SkewPartition(Partition((3, 1)), Partition((1, 1)))
    assert (skew_top(hook), skew_bottom(hook)) == (1, 1)
    same = SkewPartition(Partition((3, 1)), Partition((3, 1)))
    assert (skew_top(same), skew_bottom(same)) == (0, 0)


def test_is_border_strip():
    assert is_border_strip(
        SkewPartition(Partition((8, 6, 6, 5, 5, 1)), Partition((5, 5, 5, 5, 5, 1))), 5
    )
    # a full 2x2 square contains a diagonal pair
    assert not is_border_strip(SkewPartition(Partition((2, 2)), Partition()), 4)
    # disconnected pair of cells
    assert not is_border_strip(SkewPartition(Partition((2, 1)), Partition((1,))), 2)
    # vertical domino
    assert is_border_strip(SkewPartition(Partition((1, 1)), Partition()), 2)


@pytest.mark.parametrize(
    "positions, message",
    [
        ((3, 3), "bead positions must be distinct, got (3, 3)"),
        ((2, -1), "bead positions must be nonnegative, got (2, -1)"),
    ],
)
def test_partition_from_positions_names_bad_positions(positions, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        partition_from_positions(positions)


@given(partition_st(), st.integers(0, 10) | st.just(70))
def test_bead_positions_round_trip(lam, extra):
    n = len(lam) + extra
    pos = bead_positions(lam, n)
    assert all(a > b for a, b in zip(pos, pos[1:]))
    assert partition_from_positions(pos) == lam
    # the bead mask holds the same positions, also past 64 bits
    mask = _bead_mask(lam, n)
    assert mask == sum(1 << p for p in pos)
    assert _mask_shape(mask) == lam
    assert canonical_abacus(lam, n).shape() == lam


def test_border_strip_with_top_goldens():
    # one peel moves the bead of the strip's top row r slots left
    def peel(outer, inner, r):
        return r_decompose(SkewPartition(Partition(outer), Partition(inner)), r)

    chain = peel((8, 6, 6, 5, 5, 1), (5, 5, 5, 5, 5, 1), 5)
    assert (chain.tops, chain.bottoms) == ((1,), (3,))
    assert chain.shapes == (Partition((5, 5, 5, 5, 5, 1)), Partition((8, 6, 6, 5, 5, 1)))
    chain = peel((2, 2), (1, 1), 2)
    assert (chain.shapes, chain.tops, chain.bottoms) == (
        (Partition((1, 1)), Partition((2, 2))), (1,), (2,)
    )
    # the bead of row 1 would land on row 2's bead
    assert peel((2, 1, 1), (1, 1), 2) is None
    # the bead of row 1 would land below slot 0
    assert peel((2, 2), (), 4) is None


@pytest.mark.parametrize("size", range(1, 8))
def test_border_strip_with_top_matches_cell_scan(size):
    # the strip the bead peel finds must be the one cell-based search finds
    for lam in partitions_of(size):
        for r in range(1, size + 1):
            tops = set()
            for nu in strips_below(lam, r):
                skew = SkewPartition(lam, nu)
                t = skew_top(skew)
                assert t not in tops  # at most one strip per top row
                tops.add(t)
                chain = r_decompose(skew, r)
                assert (chain.shapes, chain.tops, chain.bottoms) == (
                    (nu, lam), (t,), (skew_bottom(skew),)
                )


def test_cell_level_oracles_call_no_strip_code():
    """The cell-level strip readers share no code with the bead-position
    strip code they check: no name they use, or that an oracle they call
    uses, is one of it."""
    checked = {"_add_strips", "_bead_mask", "_mask_shape", "bead_positions",
               "r_decompose", "enumerate_supersets"}
    tree = ast.parse(Path(oracles.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = ["skew_top", "skew_bottom", "skew_cells", "strip_sign", "is_border_strip"]
    used = set()
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name and name not in used:
                used.add(name)
                if name in defs:
                    todo.append(name)
    assert {"skew_cells", "skew_top"} <= used
    assert not used & checked


def test_r_decompose_golden_chain(chain_endpoints):
    inner, outer = chain_endpoints
    chain = r_decompose(SkewPartition(outer, inner), 5)
    assert chain is not None
    assert chain.shapes == (
        inner,
        Partition((5, 4, 4, 4, 3, 1)),
        Partition((5, 5, 5, 5, 5, 1)),
        outer,
    )
    assert chain.tops == (2, 2, 1)
    assert chain.bottoms == (5, 5, 3)
    assert chain.strip_signs == (-1, -1, 1)
    assert chain.sign == 1
    assert sgn_r(SkewPartition(outer, inner), 5) == 1


def test_r_decompose_small_goldens():
    chain = r_decompose(SkewPartition(Partition((2, 2)), Partition()), 2)
    assert chain.shapes == (Partition(), Partition((1, 1)), Partition((2, 2)))
    assert chain.tops == (1, 1)
    assert chain.strip_signs == (-1, -1)
    assert sgn_r(SkewPartition(Partition((2, 1, 1)), Partition()), 2) == 0
    empty = r_decompose(SkewPartition(Partition((3, 1)), Partition((3, 1))), 4)
    assert empty.d == 0 and empty.sign == 1


def test_r_decompose_rejects_non_multiple_sizes():
    assert r_decompose(SkewPartition(Partition((3,)), Partition()), 2) is None


def test_r_decompose_reads_no_cell_level_reference(monkeypatch, chain_endpoints):
    inner, outer = chain_endpoints
    goldens = [
        (SkewPartition(outer, inner), 5, BorderStripChain(
            5,
            (inner, Partition((5, 4, 4, 4, 3, 1)), Partition((5, 5, 5, 5, 5, 1)), outer),
            (2, 2, 1),
            (5, 5, 3),
        )),
        (SkewPartition(Partition((2, 2)), Partition()), 2, BorderStripChain(
            2, (Partition(), Partition((1, 1)), Partition((2, 2))), (1, 1), (2, 2)
        )),
        (SkewPartition(Partition((3, 1)), Partition((3, 1))), 4, BorderStripChain(
            4, (Partition((3, 1)),), (), ()
        )),
        (SkewPartition(Partition((2, 1, 1)), Partition()), 2, None),
        (SkewPartition(Partition((3,)), Partition()), 2, None),
    ]

    def refuse(*args):
        raise RuntimeError("r_decompose read the cell-level reference")

    # The cell-level readers live in tests/oracles.py, out of the package's
    # reach; the one cell-level check left in the package is containment.
    monkeypatch.setattr(Partition, "contains", refuse)
    for skew, r, chain in goldens:
        assert r_decompose(skew, r) == chain


def assert_strips_read_off_cells(chain, inner, outer):
    """Each strip of the chain, read cell by cell, has the chain's size, top,
    bottom and sign, and the tops weakly decrease."""
    assert (chain.shapes[0], chain.shapes[-1]) == (inner, outer)
    for k in range(chain.d):
        strip = SkewPartition(chain.shapes[k + 1], chain.shapes[k])
        assert strip.size == chain.r
        assert is_border_strip(strip, chain.r)
        assert skew_top(strip) == chain.tops[k]
        assert skew_bottom(strip) == chain.bottoms[k]
        assert strip_sign(strip) == chain.strip_signs[k]
    assert all(a >= b for a, b in zip(chain.tops, chain.tops[1:]))


def test_chain_fields_are_consistent(chain_endpoints):
    inner, outer = chain_endpoints
    chain = r_decompose(SkewPartition(outer, inner), 5)
    assert chain._fields == ("r", "shapes", "tops", "bottoms")
    assert chain.r == 5
    assert_strips_read_off_cells(chain, inner, outer)


@pytest.mark.parametrize("size", range(0, 8))
def test_decomposition_agrees_with_exhaustive_search(size):
    for lam in partitions_of(size):
        for mu in subpartitions(lam):
            gap = lam.size - mu.size
            for r in range(1, max(gap, 1) + 1):
                skew = SkewPartition(lam, mu)
                chains = count_monotone_chains(lam, mu, r)
                assert chains in (0, 1)
                chain = r_decompose(skew, r)
                assert (chain is not None) == (chains == 1)
                if chain is not None:
                    assert_strips_read_off_cells(chain, mu, lam)
                assert sgn_r(skew, r) == chain_sign_by_search(lam, mu, r)


@given(st.integers(9, 12), st.integers(0, 200), st.data())
def test_decomposition_agrees_on_larger_shapes(size, pick, data):
    shapes = list(partitions_of(size))
    lam = shapes[pick % len(shapes)]
    mu = data.draw(st.sampled_from(list(subpartitions(lam))))
    r = data.draw(st.integers(1, max(lam.size - mu.size, 1)))
    assert sgn_r(SkewPartition(lam, mu), r) == chain_sign_by_search(lam, mu, r)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_r_decompose_undoes_enumerate_supersets_past_64_bits(r):
    # mu's first bead sits on slot 62 + len(lam) - 1 or higher, so every
    # mask the peel walks is 64 to 79 bits wide
    mu = Partition((62, 3))
    for m in (1, 2, 3):
        for lam, sign in enumerate_supersets(mu, r, m):
            chain = r_decompose(SkewPartition(lam, mu), r)
            assert chain.sign == sign
            assert (chain.shapes[0], chain.shapes[-1]) == (mu, lam)
            assert all(a >= b for a, b in zip(chain.tops, chain.tops[1:]))


@given(partition_st(max_size=6), partition_st(max_size=6))
def test_sgn_1_detects_horizontal_strips(lam, mu):
    if not lam.contains(mu):
        return
    value = sgn_r(SkewPartition(lam, mu), 1)
    assert value in (0, 1)
    assert (value == 1) == is_horizontal_strip(lam, mu)


def test_enumerate_supersets_goldens():
    assert enumerate_supersets(Partition((1,)), 1, 1) == [
        (Partition((2,)), 1),
        (Partition((1, 1)), 1),
    ]
    assert enumerate_supersets(Partition(), 2, 2) == [
        (Partition((4,)), 1),
        (Partition((3, 1)), -1),
        (Partition((2, 2)), 1),
    ]
    assert enumerate_supersets(Partition((2, 1)), 3, 0) == [(Partition((2, 1)), 1)]
    big = dict(enumerate_supersets(Partition((5, 3, 3, 2, 2, 1)), 5, 3))
    assert big[Partition((8, 6, 6, 5, 5, 1))] == 1


@given(partition_st(max_size=5), st.integers(1, 4), st.integers(0, 3))
def test_enumerate_supersets_is_exact_and_complete(mu, r, m):
    result = enumerate_supersets(mu, r, m)
    listed = {lam: s for lam, s in result}
    assert len(listed) == len(result)
    parts = [lam.parts for lam, _ in result]
    assert parts == sorted(parts, reverse=True)
    for lam in partitions_of(mu.size + r * m):
        expected = sgn_r(SkewPartition(lam, mu), r) if lam.contains(mu) else 0
        assert listed.get(lam, 0) == expected


@pytest.mark.parametrize(
    "mu", [mu for k in range(6) for mu in partitions_of(k)], ids=str
)
def test_enumerate_supersets_matches_checked_shape_search(mu):
    for r in range(1, 7):
        for m in range(4):
            assert enumerate_supersets(mu, r, m) == supersets_by_shapes(mu, r, m)


@pytest.mark.parametrize(
    "mu", [mu for k in range(5) for mu in partitions_of(k)], ids=str
)
def test_add_strips_with_surplus_beads_matches_checked_shape_search(mu):
    # The iterated fold passes every factor len(mu) + |rho|*|nu| beads,
    # more than the fewest that hold its shapes.  With a surplus of 64 the
    # top bead sits past slot 63, so every mask is wider than 64 bits.
    def mask(positions):
        return sum(1 << p for p in positions)

    for r in range(1, 7):
        for m in range(1, 4):
            for surplus in (1, 2, 5, 64):
                n = len(mu) + r * m + surplus
                expected = [
                    (mask(bead_positions(lam, n)), sign)
                    for lam, sign in supersets_by_shapes(mu, r, m, n)
                ]
                start = mask(bead_positions(mu, n))
                # The search order is its own; only enumerate_supersets sorts.
                found = partitions._add_strips({start: 1}, r, m)
                assert sorted(found.items(), reverse=True) == expected


@given(
    st.integers(0, 4).flatmap(
        lambda k: st.dictionaries(
            st.sampled_from(list(partitions_of(k))),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=4,
        )
    ),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(0, 2),
)
@example({Partition((2,)): 1, Partition((1, 1)): -1}, 1, 1, 0)
def test_add_strips_sums_many_sources_and_drops_zeros(sources, r, m, surplus):
    # Sources of one size share children, so opposite coefficients cancel;
    # the example's child (2,1) sums to 1 - 1 = 0 and must be dropped.
    n = max(map(len, sources)) + r * m + surplus
    masks = {_bead_mask(mu, n): c for mu, c in sources.items()}
    expected: dict[int, int] = {}
    for mu, c in sources.items():
        for lam, sign in supersets_by_shapes(mu, r, m, n):
            key = _bead_mask(lam, n)
            expected[key] = expected.get(key, 0) + c * sign
    expected = {mask: c for mask, c in expected.items() if c}
    found = partitions._add_strips(masks, r, m)
    assert found == expected
    assert 0 not in found.values()
    if m == 0:
        assert found == masks
