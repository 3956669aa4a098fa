"""Integer partitions, skew shapes, and border-strip combinatorics.

Partitions are weakly decreasing tuples of positive integers.  Row indices
are 1-based throughout, with ``part(i) == 0`` past the last row, so skew
shapes, strip tops and strip bottoms read the way Young diagrams are drawn.

Strip moves work on bead masks: a partition seen through n beads is the
strictly decreasing sequence ``part(j) + n - j`` of bead slots, held as the
set bits of one int.  Adding or removing a strip of size r moves one bead
r slots, which flips two bits, and the strip's sign, top and bottom rows
are bit counts.  The superset enumeration grows strips this way, the chain
decomposition peels them, and both read shapes back off the mask.
"""

from dataclasses import dataclass

from .polynomials import _integer


class Partition(tuple):
    """A weakly decreasing sequence of positive integers: the tuple of its
    parts, which it compares, hashes, indexes and sorts as.

    Trailing zeros are stripped on construction, so inputs differing only by
    attached zeros compare equal.  Increasing adjacent entries or negative
    entries raise ValueError.  The checks run in __init__, so shapes known
    to be valid are built unchecked with tuple.__new__(Partition, parts).
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        cleaned = [_integer(p) for p in parts]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        return tuple.__new__(cls, cleaned)

    def __init__(self, parts=()):
        if any(p < 0 for p in self):
            raise ValueError(f"partition entries must be nonnegative: {list(self)}")
        for a, b in zip(self, self[1:]):
            if a < b:
                raise ValueError(
                    f"partition entries must be weakly decreasing: {a} before {b}"
                )

    parts = property(tuple)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """Row length at 1-based row i; zero beyond the last row."""
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        return self[i - 1] if i <= len(self) else 0

    def contains(self, other) -> bool:
        """Containment of Young diagrams, row by row."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def __repr__(self):
        return f"Partition({tuple(self)!r})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self) + ")"


def partitions_of(n: int, max_length: int | None = None):
    """An iterator over all partitions of n (optionally with at most
    max_length rows).  The arguments are checked at the call; the
    partitions are generated lazily.

    Output is in decreasing lexicographic order, starting at (n).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    limit = n if max_length is None else min(max_length, n)

    # The recursion only appends parts no larger than the last one, so every
    # prefix is already weakly decreasing and positive.
    def rec(remaining, cap, rows_left, prefix):
        if remaining == 0:
            yield tuple.__new__(Partition, prefix)
            return
        if rows_left == 0:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, rows_left - 1, prefix + [p])

    return rec(n, n, limit, [])


class SkewPartition:
    """A nested pair of partitions inner <= outer, read as outer/inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        if not outer.contains(inner):
            raise ValueError(f"{inner} is not contained in {outer}")
        self.outer = outer
        self.inner = inner

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __eq__(self, other):
        return (
            isinstance(other, SkewPartition)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewPartition({self.outer!r}, {self.inner!r})"

    def __str__(self):
        return f"{self.outer}/{self.inner}"


def bead_positions(lam: Partition, n_beads: int) -> tuple[int, ...]:
    """Strictly decreasing runner positions part(j) + n - j encoding lam.

    Requires n_beads >= len(lam); rows past the last are zero parts.
    """
    if n_beads < len(lam):
        raise ValueError(f"{lam} needs at least {len(lam)} beads, got {n_beads}")
    return tuple(lam.part(j) + n_beads - j for j in range(1, n_beads + 1))


def partition_from_positions(positions) -> Partition:
    """Recover the partition encoded by a set of distinct runner positions."""
    given = tuple(map(_integer, positions))
    if len(set(given)) != len(given):
        raise ValueError(f"bead positions must be distinct, got {given}")
    if any(y < 0 for y in given):
        raise ValueError(f"bead positions must be nonnegative, got {given}")
    return _mask_shape(sum(1 << y for y in given))


@dataclass(frozen=True)
class BorderStripChain:
    """A nested chain of shapes whose consecutive differences are r-border
    strips with weakly decreasing tops.

    shapes runs from the inner shape up to the outer one, so it has one more
    entry than tops, bottoms and strip_signs.
    """

    r: int
    shapes: tuple[Partition, ...]
    tops: tuple[int, ...]
    bottoms: tuple[int, ...]

    @property
    def d(self) -> int:
        """Number of strips in the chain."""
        return len(self.shapes) - 1

    @property
    def strip_signs(self) -> tuple[int, ...]:
        """(-1) ** (bottom - top) for each strip."""
        return tuple(-1 if (b - t) % 2 else 1 for t, b in zip(self.tops, self.bottoms))

    @property
    def sign(self) -> int:
        return -1 if (sum(self.bottoms) - sum(self.tops)) % 2 else 1


def r_decompose(skew: SkewPartition, r: int) -> BorderStripChain | None:
    """The unique border-strip chain from inner to outer, or None.

    Peels on the bead masks (see _bead_mask) of outer and inner on
    len(outer) beads.  The last strip of a valid chain is forced to have the
    skew's top, so its bead sits on the highest slot where the two masks
    differ; moving that bead r slots left and repeating finds the chain or
    proves there is none.  The strip's top row is the beads at and above
    that slot before the move, and its bottom row the beads at and above the
    landing slot after it.  When the highest differing slot holds one of
    inner's beads instead, the shape has a row shorter than inner's, which
    no peel lengthens, so there is no chain.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    if skew.size % r:
        return None
    n = len(skew.outer)
    mask, goal = _bead_mask(skew.outer, n), _bead_mask(skew.inner, n)
    shapes, tops, bottoms = [skew.outer], [], []
    for _ in range(skew.size // r):
        p = (mask ^ goal).bit_length() - 1
        if p < r or not mask >> p & 1 or mask >> p - r & 1:
            return None
        tops.insert(0, (mask >> p).bit_count())
        mask ^= (1 | 1 << r) << p - r
        bottoms.insert(0, (mask >> p - r).bit_count())
        shapes.insert(0, _mask_shape(mask))
    if mask != goal:
        return None
    return BorderStripChain(r, tuple(shapes), tuple(tops), tuple(bottoms))


def sgn_r(skew: SkewPartition, r: int) -> int:
    """Product of strip signs along the unique chain, or 0 when there is none."""
    chain = r_decompose(skew, r)
    return 0 if chain is None else chain.sign


def enumerate_supersets(mu: Partition, r: int, m: int) -> list[tuple[Partition, int]]:
    """All lam obtained from mu by adding m strips of size r along a chain
    with weakly decreasing tops, paired with the chain sign.

    Output is sorted in decreasing lexicographic order of lam.  Chain
    uniqueness means the strip search of _add_strips, started from mu's
    mask alone, reaches every valid lam exactly once.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    if m < 0:
        raise ValueError(f"strip count must be nonnegative, got {m}")
    n = len(mu) + r * m
    return _terms(_add_strips({_bead_mask(mu, n): 1}, r, m))


def _terms(masks: dict[int, int]) -> list[tuple[Partition, int]]:
    """The (shape, coefficient) pairs of a map from bead masks on one bead
    count, shapes in decreasing lexicographic order: masks on one bead
    count decrease exactly when their shapes do."""
    return [(_mask_shape(mask), c) for mask, c in sorted(masks.items(), reverse=True)]


def _bead_mask(lam: Partition, n_beads: int) -> int:
    """The bead set of lam on n_beads beads as an int: bit p is set when
    slot p holds a bead, so the bits are bead_positions(lam, n_beads)."""
    return sum(1 << p for p in bead_positions(lam, n_beads))


def _mask_shape(mask: int) -> Partition:
    """The shape of a bead mask.  The beads filling slots 0, 1, ... are its
    zero rows; past them, the bead at slot p has p minus the beads below it
    as its row."""
    mask >>= (mask ^ (mask + 1)).bit_length() - 1
    below = mask.bit_count()
    parts = []
    while mask:
        p = mask.bit_length() - 1
        mask ^= 1 << p
        below -= 1
        parts.append(p - below)
    return tuple.__new__(Partition, parts)


def _add_strips(masks: dict[int, int], r: int, m: int) -> dict[int, int]:
    """The strip search of enumerate_supersets on bead masks (see
    _bead_mask), summed: each source's coefficient times the chain sign,
    added up over the masks m r-strips above it, zero sums dropped, in the
    search's order.  m == 0 returns the sources.  A shape keeps its source's
    bead count, which must be at least its rows plus r*m.

    Each strip moves one bead r slots right, from slot p to the free slot
    p + r, so the beads that can move are `mask & ~(mask >> r)`, and its
    sign is (-1) ** (the beads on the r - 1 slots it jumps).  Its top row
    is one more than the beads above p + r, so after it the moved bead is
    the top-th from the top, and a next strip from slot q tops out no lower
    exactly when q + r lies above p + r, that is q > p.  So a chain's beads
    start on rising slots, and a stack holds each partial chain with the
    slot its next bead must start above.
    """
    if m == 0:
        return dict(masks)
    gap = (1 << (r - 1)) - 1  # the r - 1 slots a strip jumps, shifted to slot 0
    move = 1 | 1 << r  # a strip's two changed slots, shifted to slot 0
    out: dict[int, int] = {}
    get = out.get
    for source, c in masks.items():
        leaves = set()
        stack = [(source, m, 0, c)]
        while stack:
            mask, left, floor, sign = stack.pop()
            movable = (mask & ~(mask >> r)) >> floor << floor
            while movable:
                p = movable.bit_length() - 1
                movable ^= 1 << p
                child = mask ^ move << p
                child_sign = -sign if (mask >> p + 1 & gap).bit_count() & 1 else sign
                if left > 1:
                    stack.append((child, left - 1, p, child_sign))
                elif child in leaves:
                    raise RuntimeError("two strip chains reached the same shape")
                else:
                    leaves.add(child)
                    out[child] = get(child, 0) + child_sign
    return {mask: c for mask, c in out.items() if c}
