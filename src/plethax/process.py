"""The bead-scanning process on (abacus, move budget) pairs.

run_process walks the runner slot by slot.  Whenever the scan reaches a
bead whose budget entry is still positive, the bead is shifted r slots to
the right, its budget entry drops by one, and the scan continues from the
next slot; landing on an occupied slot aborts the run.  The budget
exhausting itself completes the run.

Aborted pairs cancel in couples: `epsilon` swaps the two colliding beads
and shifts budget mass between them, reversing the sign of the abacus while
keeping its combined weight.  Completed pairs correspond one-to-one with
labelled abaci of the grown shapes via `psi`.  Together these two maps are
the engine behind the expansion module.
"""

from math import comb, factorial
from typing import NamedTuple

from .abacus import LabelledAbacus, all_abaci
from .partitions import Partition, SkewPartition, r_decompose
from .polynomials import _check_budget, _integer, compositions


class Composition(tuple):
    """Fixed-length tuple of nonnegative move counts, indexed by bead label.
    It compares and hashes as the plain tuple `entries` returns."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(map(_integer, entries))
        if any(e < 0 for e in entries):
            raise ValueError(f"move counts must be nonnegative: {entries}")
        return tuple.__new__(cls, entries)

    entries = property(tuple)

    @property
    def total(self) -> int:
        return sum(self)

    def entry(self, bead: int) -> int:
        """Move count of the bead with the given 1-based label."""
        if not 1 <= bead <= len(self):
            raise ValueError(f"no entry for bead {bead}")
        return self[bead - 1]

    def __repr__(self):
        return f"Composition(entries={tuple(self)!r})"

    def __str__(self):
        return "(" + ",".join(str(e) for e in self) + ")"


def _composition(beta, n_beads: int) -> Composition:
    """Coerce a budget and check it has one entry per bead."""
    beta = beta if isinstance(beta, Composition) else Composition(beta)
    if len(beta) != n_beads:
        raise ValueError(f"budget has {len(beta)} entries for {n_beads} beads")
    return beta


class ProcessStep(NamedTuple):
    """One scan event: what happened at slot `position`.

    action is one of 'skip-empty', 'skip-exhausted', 'moved', 'collided'.
    abacus and alpha are the state after the event; strip_top is the rank of
    the landing slot for 'moved' steps and None otherwise.
    """

    position: int
    bead: int
    action: str
    abacus: LabelledAbacus
    alpha: tuple[int, ...]
    strip_top: int | None = None


class Successful(NamedTuple):
    abacus: LabelledAbacus


class Unsuccessful(NamedTuple):
    bead: int
    blocker: int
    position: int


# A NamedTuple's own constructor is a Python function around tuple.__new__,
# Composition's own one checks every entry, and LabelledAbacus._unchecked is
# a call too.  run_process, _partner and enumerate_pairs run once per pair or
# per sweep, so they build the same objects as those would, without the call.
_new = tuple.__new__
_object = object.__new__


class ProcessTrace(NamedTuple):
    initial: LabelledAbacus
    beta: Composition
    r: int
    steps: tuple[ProcessStep, ...]
    outcome: Successful | Unsuccessful

    @property
    def successful(self) -> bool:
        return isinstance(self.outcome, Successful)

    @property
    def moves(self) -> tuple[ProcessStep, ...]:
        return tuple(s for s in self.steps if s.action == "moved")

    def shapes(self) -> list[Partition]:
        """Shape trajectory: initial shape, then after each move."""
        return [self.initial.shape()] + [s.abacus.shape() for s in self.moves]


def run_process(w: LabelledAbacus, beta, r: int, record_steps: bool = True):
    """Scan the runner and spend the budget; returns the full ProcessTrace.

    The scan runs on one mutable list of slots, padded to the farthest slot
    a bead can reach, so a move is two writes and the landing test is one
    lookup.  Abaci are built only for recorded steps and for the final
    abacus of a completed run.  With record_steps=False the steps tuple is
    left empty (the outcome and the move bookkeeping are unchanged), which
    the bulk sweeps rely on.
    """
    if beta.__class__ is not Composition or len(beta) != w.n_beads:
        beta = _composition(beta, w.n_beads)
    if r < 1:
        raise ValueError(f"shift distance must be positive, got {r}")

    alpha = list(beta)
    remaining = sum(alpha)
    if remaining == 0:
        return _new(ProcessTrace, (w, beta, r, (), _new(Successful, (w,))))

    # Each move shifts one bead r slots, so r * remaining slots of padding
    # hold every landing.  The rightmost bead sits on slot end - 1.
    end = len(w.slots)
    slots = list(w.slots) + [0] * (r * remaining)
    steps: list[ProcessStep] = []
    last_top = w.n_beads + 1
    for i, bead in enumerate(slots):
        if not bead:
            if record_steps:
                steps.append(_step(w, slots, end, alpha, i, 0, "skip-empty"))
        elif not alpha[bead - 1]:
            if record_steps:
                steps.append(_step(w, slots, end, alpha, i, bead, "skip-exhausted"))
        else:
            target = i + r
            blocker = slots[target]
            if blocker:
                if record_steps:
                    steps.append(_step(w, slots, end, alpha, i, bead, "collided"))
                outcome = _new(Unsuccessful, (bead, blocker, i))
                return _new(ProcessTrace, (w, beta, r, tuple(steps), outcome))
            slots[i] = 0
            slots[target] = bead
            alpha[bead - 1] -= 1
            remaining -= 1
            if target >= end:
                end = target + 1
            # Rank of the landing slot: 1 + the beads to its right.
            right = slots[target + 1:end]
            top = 1 + len(right) - right.count(0)
            # Completed runs realise the strictly-increasing-source /
            # weakly-decreasing-top pattern that indexes move sequences; the
            # sources increase as the scan does, so only the tops are checked.
            if top > last_top:
                raise RuntimeError(f"move from slot {i} breaks the scan order")
            last_top = top
            if record_steps:
                steps.append(_step(w, slots, end, alpha, i, bead, "moved", top))
            if remaining == 0:
                outcome = _new(Successful, (_abacus(w, slots, end),))
                return _new(ProcessTrace, (w, beta, r, tuple(steps), outcome))
    raise RuntimeError("scan passed every bead with budget left")


def _step(w, slots, end, alpha, i, bead, action, top=None) -> ProcessStep:
    """The scan's state after the event at slot i, as a recorded step."""
    return ProcessStep(i, bead, action, _abacus(w, slots, end), tuple(alpha), top)


def _abacus(w: LabelledAbacus, slots: list[int], end: int) -> LabelledAbacus:
    """w's beads placed as on the scan's slot list, whose last bead is on
    slot end - 1."""
    return LabelledAbacus._unchecked(tuple(slots[:end]), w.n_beads)


def epsilon(w: LabelledAbacus, beta, r: int):
    """Partner of an aborted pair: swap the colliding beads and move the
    collision's slack between their budget entries.

    Returns (abacus, composition).  The partner aborts at the same scan
    position with the same two beads, has opposite sign and the same
    combined weight, and epsilon applied twice gives back the input.
    Raises ValueError on pairs whose run completes.  Each call runs the
    process once and reads the partner off its collision with _partner;
    verify_process_identity and the CLI's trace read it off the run they
    already have, without calling epsilon.
    """
    trace = run_process(w, beta, r, record_steps=False)
    if trace.successful:
        raise ValueError("epsilon is defined only for aborted pairs")
    return _partner(w, trace.beta, r, trace.outcome)


def _partner(w: LabelledAbacus, beta: Composition, r: int, outcome: Unsuccessful):
    """epsilon's partner of (w, beta), read off the collision its run ended
    in, without running the process again.  The two beads' slots are found
    once each and swapped in one copy of w's slot tuple."""
    bead, blocker, _ = outcome
    slots = list(w.slots)
    at_bead = slots.index(bead)
    at_blocker = slots.index(blocker)
    delta, rest = divmod(at_blocker - at_bead, r)
    entries = list(beta)
    entries[bead - 1] -= delta
    entries[blocker - 1] += delta
    if delta <= 0 or rest or entries[bead - 1] < 0:
        raise RuntimeError(f"collision of beads {bead} and {blocker} has no partner")
    slots[at_bead] = blocker
    slots[at_blocker] = bead
    partner = _object(LabelledAbacus)
    partner.slots = tuple(slots)
    partner.n_beads = w.n_beads
    return partner, _new(Composition, entries)


def psi(w: LabelledAbacus, beta, r: int) -> LabelledAbacus:
    """Final abacus of a completed run; raises ValueError on aborted pairs."""
    trace = run_process(w, beta, r, record_steps=False)
    if not trace.successful:
        raise ValueError("psi is defined only for completed pairs")
    return trace.outcome.abacus


def enumerate_pairs(mu: Partition, n_beads: int, r: int, m: int):
    """An iterator of (abacus, composition, trace) over every labelling of
    mu times every budget of total m.

    Labellings come in the order of all_abaci, each with all its budgets in
    a row.  The budgets are built once and shared by every labelling, so a
    budget yielded twice is the same Composition object.  The number of
    pairs is n! * C(m+n-1, n-1); past pair_budget() the call raises
    GuardError before any pair is run.
    """
    _check_budget(factorial(n_beads) * comb(m + n_beads - 1, n_beads - 1), "pairs")
    budgets = [_new(Composition, entries) for entries in compositions(m, n_beads)]
    return (
        (w, beta, run_process(w, beta, r, record_steps=False))
        for w in all_abaci(mu, n_beads)
        for beta in budgets
    )


def k_set(mu: Partition, lam: Partition, n_beads: int, r: int, m: int):
    """All move sequences (w0, ..., wm) from shape mu to shape lam where step
    j shifts one bead of w(j-1) exactly r slots right, from source slots that
    strictly increase with j.

    Either empty or of size n_beads factorial: the shape chain of any valid
    sequence is forced, so each final labelling extends backwards uniquely
    by undoing one strip per step, rightmost rank first.  Past
    pair_budget() labellings, all_abaci raises GuardError.
    """
    if lam.size - mu.size != r * m or not lam.contains(mu):
        return []
    chain = r_decompose(SkewPartition(lam, mu), r)
    if chain is None:
        return []
    sequences = []
    for final in all_abaci(lam, n_beads):
        seq = [final]
        sources = []
        v = final
        for t in reversed(chain.tops):
            bead = v.tth_rightmost(t)
            v = v.left_r_move(bead, r)
            sources.append(v.position(bead))
            seq.append(v)
        seq.reverse()
        sources.reverse()
        if seq[0].shape() != mu or any(a >= b for a, b in zip(sources, sources[1:])):
            raise RuntimeError(f"undoing the chain from {final!r} breaks the order")
        sequences.append(tuple(seq))
    return sequences


def weight_with_budget(w: LabelledAbacus, beta, r: int) -> tuple[int, ...]:
    """The invariant the process conserves, as an exponent tuple: weight(w)
    times x^(r * beta), so entry l-1 is the slot of bead l plus r times its
    budget entry."""
    beta = _composition(beta, w.n_beads)
    return tuple(p + r * e for p, e in zip(w.positions(), beta))
