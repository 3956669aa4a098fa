"""Integer partitions, skew shapes, and border-strip combinatorics.

Partitions are weakly decreasing tuples of positive integers.  Row indices
are 1-based throughout, with ``part(i) == 0`` past the last row, so skew
shapes, strip tops and strip bottoms read the way Young diagrams are drawn.

Strip lookup works on bead positions: a partition seen through n beads is
the strictly decreasing sequence ``part(j) + n - j``, and removing a strip
of size r is the same as shifting one bead r slots to the left.  That makes
the chain peeling and the superset enumeration cheap and collision-free.
"""

from dataclasses import dataclass

from .polynomials import _integer


class Partition:
    """A weakly decreasing sequence of positive integers.

    Trailing zeros are stripped on construction, so inputs differing only by
    attached zeros compare equal.  Increasing adjacent entries or negative
    entries raise ValueError.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        cleaned = [_integer(p) for p in parts]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if any(p < 0 for p in cleaned):
            raise ValueError(f"partition entries must be nonnegative: {cleaned}")
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(
                    f"partition entries must be weakly decreasing: {a} before {b}"
                )
        self.parts = tuple(cleaned)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap a weakly decreasing tuple of positive ints as is."""
        out = cls.__new__(cls)
        out.parts = parts
        return out

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def part(self, i: int) -> int:
        """Row length at 1-based row i; zero beyond the last row."""
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def contains(self, other) -> bool:
        """Containment of Young diagrams, row by row."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts!r})"

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


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

    def rec(remaining, cap, rows_left, prefix):
        if remaining == 0:
            yield Partition(prefix)
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
    return _shape_at(sorted(given, reverse=True))


def _shape_at(positions) -> Partition:
    """The shape of strictly decreasing nonnegative positions: row j is
    positions[j-1] - (n - j), so it is a partition and is not re-checked."""
    n = len(positions)
    parts = [y + j for j, y in enumerate(positions, 1 - n)]
    while parts and not parts[-1]:
        parts.pop()
    return Partition._unchecked(tuple(parts))


def _peel(pos: tuple[int, ...], idx: int, r: int) -> tuple[tuple[int, ...], int] | None:
    """Strictly decreasing pos with the bead at index idx moved r slots left,
    and the index it lands at (the strip's bottom row minus 1), or None when
    the landing slot is taken or negative."""
    target = pos[idx] - r
    land = idx + 1
    while land < len(pos) and pos[land] > target:
        land += 1
    if target < 0 or pos[land : land + 1] == (target,):
        return None
    return pos[:idx] + pos[idx + 1 : land] + (target,) + pos[land:], land - 1


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

    Peels on len(outer) beads: the last strip of a valid chain is forced to
    have the skew's top, the first bead off inner's position, so moving that
    bead r slots left and recursing finds the chain or proves there is none.
    A bead left of inner's is a row shorter than inner's, and peeling never
    lengthens a row, so only the end is compared with inner.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    if skew.size % r:
        return None
    n = len(skew.outer)
    pos, goal = bead_positions(skew.outer, n), bead_positions(skew.inner, n)
    shapes, tops, bottoms = [skew.outer], [], []
    t = 0  # tops weakly increase: a move leaves the beads above it in place
    for _ in range(skew.size // r):
        while pos[t] == goal[t]:
            t += 1
        peeled = _peel(pos, t, r) if pos[t] > goal[t] else None
        if peeled is None:
            return None
        pos, landing = peeled
        shapes.insert(0, _shape_at(pos))
        tops.insert(0, t + 1)
        bottoms.insert(0, landing + 1)
    if pos != goal:
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
    uniqueness means a depth-first search over strip additions (each new top
    at most the previous one) reaches every valid lam exactly once.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    if m < 0:
        raise ValueError(f"strip count must be nonnegative, got {m}")
    n = len(mu) + r * m
    return [
        (_shape_at(pos), sign)
        for pos, sign in _add_strips(bead_positions(mu, n), r, m)
    ]


def _add_strips(
    positions: tuple[int, ...], r: int, m: int
) -> list[tuple[tuple[int, ...], int]]:
    """enumerate_supersets on bead positions: the positions of every shape
    m r-strips above the one at `positions`, with the chain sign, in
    decreasing lexicographic order (which is the shapes' order too).

    Every shape keeps the bead count len(positions), which must be at least
    the rows of the starting shape plus r*m, so no strip runs out of beads.

    Each strip moves one bead r slots right in place, the mirror of _peel:
    the bead at index idx lands at index `land` after jumping the idx - land
    beads between, so the strip's top row is land + 1 and its sign is
    (-1) ** (idx - land).  A bead jumps at most r - 1 others, so no bead
    past index max_top + r - 2 can make a strip with top at most max_top.
    """
    found: list[tuple[tuple[int, ...], int]] = []

    def extend(pos: tuple[int, ...], left: int, max_top: int, sign: int):
        if left == 0:
            found.append((pos, sign))
            return
        for idx in range(min(len(pos), max_top + r - 1)):
            target = pos[idx] + r
            land = idx
            while land and pos[land - 1] < target:
                land -= 1
            if land >= max_top or land and pos[land - 1] == target:
                continue
            newpos = pos[:land] + (target,) + pos[land:idx] + pos[idx + 1 :]
            extend(newpos, left - 1, land + 1, -sign if (idx - land) % 2 else sign)

    extend(positions, m, len(positions), 1)
    if len({pos for pos, _ in found}) != len(found):
        raise RuntimeError("two strip chains reached the same shape")
    found.sort(reverse=True)
    return found
