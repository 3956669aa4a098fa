"""Labelled abaci: N beads labelled 1..N on a runner of slots 0, 1, 2, ...

An abacus carries three readings at once.  Listing the labels from the
rightmost bead to the leftmost gives a permutation, whose sign is the sign
of the abacus.  Each bead contributes its slot index as the exponent of the
variable named by its label, giving the weight monomial.  And the slot
indices themselves, read right to left as ``position - n + rank``, give the
shape.  Moving a bead r slots to the right grows the shape by an r-border
strip; moving it left removes one.

Abaci are value types: every operation returns a new abacus, and equality
ignores trailing empty slots.
"""

from dataclasses import dataclass
from itertools import permutations

from .partitions import Partition, bead_positions, partition_from_positions
from .polynomials import permutation_sign


@dataclass(frozen=True, slots=True)
class Collision:
    """A blocked rightward move: `blocker` already occupies slot `position`."""

    bead: int
    blocker: int
    position: int


class Monomial:
    """A product of variable powers stored as (variable, exponent) pairs.

    Variables are 1-based and zero exponents are never stored, so the empty
    monomial is the constant 1.
    """

    __slots__ = ("_powers",)

    def __init__(self, powers=()):
        merged: dict[int, int] = {}
        items = powers.items() if isinstance(powers, dict) else powers
        for var, exp in items:
            var = int(var)
            exp = int(exp)
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"exponent must be nonnegative, got {exp}")
            merged[var] = merged.get(var, 0) + exp
        self._powers = tuple(sorted((v, e) for v, e in merged.items() if e))

    @classmethod
    def from_vector(cls, exponents):
        """Monomial with exponents[i] on variable i+1."""
        return cls((i + 1, e) for i, e in enumerate(exponents))

    def exponent(self, var: int) -> int:
        for v, e in self._powers:
            if v == var:
                return e
        return 0

    def items(self):
        return iter(self._powers)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self._powers)

    def vector(self, n_vars: int) -> tuple[int, ...]:
        """Dense exponent tuple for variables 1..n_vars."""
        out = [0] * n_vars
        for v, e in self._powers:
            if v > n_vars:
                raise ValueError(f"variable x{v} does not fit in {n_vars} variables")
            out[v - 1] = e
        return tuple(out)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial(self._powers + other._powers)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._powers == other._powers

    def __hash__(self):
        return hash(self._powers)

    def __repr__(self):
        return f"Monomial({self._powers!r})"

    def __str__(self):
        if not self._powers:
            return "1"
        return " ".join(
            f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self._powers
        )


class LabelledAbacus:
    """Immutable runner of slots holding beads labelled 1..N (0 = empty)."""

    __slots__ = ("slots", "n_beads")

    def __init__(self, slots=()):
        cleaned = [int(x) for x in slots]
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
        """Build from (position, label) pairs; duplicate positions are rejected."""
        filled: dict[int, int] = {}
        for pos, label in items:
            pos = int(pos)
            if pos < 0:
                raise ValueError(f"slot index must be nonnegative, got {pos}")
            if pos in filled:
                raise ValueError(f"two beads on slot {pos}")
            filled[pos] = int(label)
        size = max(filled) + 1 if filled else 0
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
        return tuple(self.slots[i] for i in self.support())

    def sign(self) -> int:
        """Sign of sigma()."""
        return permutation_sign([label - 1 for label in self.sigma()])

    def shape(self) -> Partition:
        return partition_from_positions(self.support())

    def weight(self) -> Monomial:
        """Product over beads of x_label ** position."""
        return Monomial(
            (label, pos) for pos, label in enumerate(self.slots) if label
        )

    def r_move(self, bead: int, r: int):
        """Shift a bead r slots rightward; a LabelledAbacus, or a Collision
        when the landing slot is occupied."""
        self._check_shift(r)
        y = self.position(bead)
        target = y + r
        occupant = self.slot(target)
        if occupant:
            return Collision(bead=bead, blocker=occupant, position=target)
        slots = list(self.slots) + [0] * (target + 1 - len(self.slots))
        slots[y] = 0
        slots[target] = bead
        return LabelledAbacus(slots)

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
        slots = list(self.slots)
        slots[y] = 0
        slots[target] = bead
        return LabelledAbacus(slots)

    def swap(self, bead_a: int, bead_b: int) -> "LabelledAbacus":
        """Exchange the slots of two beads."""
        if bead_a == bead_b:
            raise ValueError("swap needs two distinct beads")
        pa = self.position(bead_a)
        pb = self.position(bead_b)
        slots = list(self.slots)
        slots[pa], slots[pb] = slots[pb], slots[pa]
        return LabelledAbacus(slots)

    def beads_between(self, lo: int, hi: int) -> int:
        """Number of beads on slots strictly between lo and hi (lo < hi)."""
        if lo >= hi:
            raise ValueError(f"need lo < hi, got {lo} >= {hi}")
        return sum(1 for i in range(lo + 1, min(hi, len(self.slots))) if self.slots[i])

    def tth_rightmost(self, t: int) -> int:
        """Label of the t-th rightmost bead, i.e. sigma()[t-1]."""
        if not 1 <= t <= self.n_beads:
            raise ValueError(f"rank must be in 1..{self.n_beads}, got {t}")
        return self.slots[self.support()[t - 1]]

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


def all_abaci(lam: Partition, n_beads: int, max_beads: int = 9):
    """Yield all n! labellings of the runner positions of lam.

    The first abacus yielded is canonical_abacus(lam, n_beads).  Guarded at
    max_beads (default 9) because the count is n_beads factorial; pass a
    bigger max_beads deliberately to go past it.
    """
    if n_beads > max_beads:
        raise ValueError(
            f"{n_beads}! abaci is past the guard ({max_beads}); "
            f"pass max_beads={n_beads} to force enumeration"
        )
    positions = bead_positions(lam, n_beads)
    for perm in permutations(range(1, n_beads + 1)):
        yield LabelledAbacus.from_positions(zip(positions, perm))

