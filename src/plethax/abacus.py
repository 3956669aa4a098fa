"""Labelled abaci: N beads labelled 1..N on a runner of slots 0, 1, 2, ...

An abacus carries three readings at once.  Listing the labels from the
rightmost bead to the leftmost gives a permutation, whose sign is the sign
of the abacus.  Each bead contributes its slot index as the exponent of the
variable named by its label, giving the weight monomial, which is held as
its exponent tuple.  And the slot indices themselves, read right to left as
``position - n + rank``, give the shape.  Moving a bead r slots to the
right grows the shape by an r-border strip; moving it left removes one.

Abaci are value types: every operation returns a new abacus, and equality
ignores trailing empty slots.
"""

from itertools import permutations
from math import factorial
from typing import NamedTuple

from .partitions import Partition, _mask_shape, bead_positions
from .polynomials import _check_budget, _integer, permutation_sign


class Collision(NamedTuple):
    """A blocked rightward move: `blocker` already occupies slot `position`."""

    bead: int
    blocker: int
    position: int


class LabelledAbacus:
    """Immutable runner of slots holding beads labelled 1..N (0 = empty)."""

    __slots__ = ("slots", "n_beads")

    def __init__(self, slots=()):
        cleaned = [_integer(x) for x in slots]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        labels = sorted(x for x in cleaned if x != 0)
        n = len(labels)
        if labels != list(range(1, n + 1)):
            raise ValueError(
                f"beads must be labelled 1..{n} exactly once each, got {labels}"
            )
        self.slots = tuple(cleaned)
        self.n_beads = n

    @classmethod
    def from_positions(cls, items):
        """Build from (position, label) pairs; repeated slots and labels < 1 raise."""
        filled: dict[int, int] = {}
        for pos, label in items:
            pos = _integer(pos)
            if pos < 0:
                raise ValueError(f"slot index must be nonnegative, got {pos}")
            if pos in filled:
                raise ValueError(f"two beads on slot {pos}")
            label = _integer(label)
            if label < 1:
                raise ValueError(f"bead labels must be at least 1, got {label}")
            filled[pos] = label
        size = max(filled) + 1 if filled else 0
        _check_budget(size, "abacus slots")
        slots = [0] * size
        for pos, label in filled.items():
            slots[pos] = label
        return cls(slots)

    def slot(self, i: int) -> int:
        """Label on slot i, 0 when empty (slots past the stored end are empty)."""
        if i < 0:
            raise ValueError(f"slot index must be nonnegative, got {i}")
        return self.slots[i] if i < len(self.slots) else 0

    def position(self, bead: int) -> int:
        """Slot index of the bead with the given label."""
        self._check_label(bead)
        return self.slots.index(bead)

    def support(self) -> tuple[int, ...]:
        """Occupied slot indices in decreasing order (rank 1 = rightmost)."""
        return tuple(
            i for i in range(len(self.slots) - 1, -1, -1) if self.slots[i]
        )

    def sigma(self) -> tuple[int, ...]:
        """One-line permutation: entry t is the label of the t-th rightmost bead."""
        return tuple(filter(None, reversed(self.slots)))

    def sign(self) -> int:
        """Sign of sigma()."""
        return permutation_sign([label - 1 for label in reversed(self.slots) if label])

    def shape(self) -> Partition:
        return _mask_shape(sum(1 << i for i, label in enumerate(self.slots) if label))

    def positions(self) -> tuple[int, ...]:
        """Slot of each bead: entry l-1 is the slot of the bead labelled l."""
        out = [0] * self.n_beads
        for i, label in enumerate(self.slots):
            if label:
                out[label - 1] = i
        return tuple(out)

    def weight(self) -> tuple[int, ...]:
        """Exponent tuple of the monomial prod_l x_l ** position(l): the
        same tuple as positions(), trailing zeros kept."""
        return self.positions()

    def r_move(self, bead: int, r: int):
        """Shift a bead r slots rightward; a LabelledAbacus, or a Collision
        when the landing slot is occupied."""
        self._check_shift(r)
        y = self.position(bead)
        target = y + r
        occupant = self.slot(target)
        if occupant:
            return Collision(bead=bead, blocker=occupant, position=target)
        return self._placed((y, target), (0, bead))

    def left_r_move(self, bead: int, r: int) -> "LabelledAbacus":
        """Shift a bead r slots leftward; raises when blocked or off the runner."""
        self._check_shift(r)
        y = self.position(bead)
        if y < r:
            raise ValueError(f"bead {bead} on slot {y} cannot shift {r} left")
        target = y - r
        occupant = self.slot(target)
        if occupant:
            raise ValueError(
                f"slot {target} is occupied by bead {occupant}"
            )
        return self._placed((y, target), (0, bead))

    def swap(self, bead_a: int, bead_b: int) -> "LabelledAbacus":
        """Exchange the slots of two beads."""
        if bead_a == bead_b:
            raise ValueError("swap needs two distinct beads")
        return self._placed(
            (self.position(bead_a), self.position(bead_b)), (bead_b, bead_a)
        )

    def tth_rightmost(self, t: int) -> int:
        """Label of the t-th rightmost bead, i.e. sigma()[t-1]."""
        if not 1 <= t <= self.n_beads:
            raise ValueError(f"rank must be in 1..{self.n_beads}, got {t}")
        return self.sigma()[t - 1]

    def render(self) -> str:
        """Dotted-strip picture: one token per slot, '.' for empty.

        Tokens are joined directly when every label is a single digit and
        with spaces otherwise.
        """
        tokens = [str(x) if x else "." for x in self.slots]
        sep = "" if self.n_beads <= 9 else " "
        return sep.join(tokens)

    def render_pairs(self) -> str:
        """Stable 'position:label' listing, positions ascending."""
        return ",".join(
            f"{i}:{x}" for i, x in enumerate(self.slots) if x
        )

    def _placed(self, positions, labels) -> "LabelledAbacus":
        """Copy with labels[k] on slot positions[k] (0 empties it), trimmed;
        callers keep each label 1..n on one slot, so nothing is re-checked."""
        slots = list(self.slots)
        slots += [0] * (max(positions, default=-1) + 1 - len(slots))
        for pos, label in zip(positions, labels):
            slots[pos] = label
        while slots and not slots[-1]:
            slots.pop()
        return LabelledAbacus._unchecked(tuple(slots), self.n_beads)

    @classmethod
    def _unchecked(cls, slots: tuple[int, ...], n_beads: int) -> "LabelledAbacus":
        """Wrap a trimmed slot tuple holding each label 1..n_beads once, as is."""
        out = cls.__new__(cls)
        out.slots = slots
        out.n_beads = n_beads
        return out

    def _check_label(self, bead: int):
        if not 1 <= bead <= self.n_beads:
            raise ValueError(f"no bead labelled {bead} (have 1..{self.n_beads})")

    @staticmethod
    def _check_shift(r: int):
        if r < 1:
            raise ValueError(f"shift distance must be positive, got {r}")

    def __eq__(self, other):
        return isinstance(other, LabelledAbacus) and self.slots == other.slots

    def __hash__(self):
        return hash(self.slots)

    def __repr__(self):
        return f"LabelledAbacus({self.slots!r})"

    def __str__(self):
        return self.render()


def canonical_abacus(mu: Partition, n_beads: int) -> LabelledAbacus:
    """The identity labelling of mu: bead j sits on slot mu_j + n - j."""
    positions = bead_positions(mu, n_beads)
    return LabelledAbacus.from_positions(
        (pos, label) for label, pos in enumerate(positions, start=1)
    )


def all_abaci(lam: Partition, n_beads: int):
    """An iterator over all n! labellings of the runner positions of lam.

    The first abacus is canonical_abacus(lam, n_beads).  The count n! is
    checked against pair_budget() at the call, which raises GuardError
    past it; the labellings are generated lazily.
    """
    _check_budget(factorial(n_beads), "labellings")
    canonical = canonical_abacus(lam, n_beads)
    positions = canonical.support()
    return (
        canonical._placed(positions, perm)
        for perm in permutations(range(1, n_beads + 1))
    )
