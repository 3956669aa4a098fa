"""Brute-force reference implementations, used only to cross-check.

Everything here works cell by cell on Young diagrams and by exhaustive
search over partitions, deliberately avoiding the bead-position shortcuts
the package uses, so the two routes fail independently.  The three
exceptions are references for faster package code: naive_alternant_product
multiplies every monomial out, eliminated_alternant_eval reduces the full
N x N alternant matrix mod p, and scan_by_r_move runs the bead-scanning
process on immutable abaci, one r_move per move.
"""

from itertools import combinations

from plethax import (
    Collision,
    Composition,
    Partition,
    ProcessStep,
    ProcessTrace,
    SkewPartition,
    Successful,
    Unsuccessful,
    a_beta,
    is_border_strip,
    partitions_of,
    strip_sign,
)


def subpartitions(lam: Partition):
    """Every partition contained in lam."""

    def rec(row, cap, prefix):
        if row > len(lam):
            yield Partition(prefix)
            return
        for p in range(min(cap, lam.part(row)), -1, -1):
            yield from rec(row + 1, p, prefix + [p])

    yield from rec(1, lam.part(1), [])


def strips_below(shape: Partition, r: int) -> list[Partition]:
    """Inner shapes nu such that shape/nu is an r-border strip, by scanning
    every partition of |shape| - r."""
    if shape.size < r:
        return []
    out = []
    for nu in partitions_of(shape.size - r):
        if shape.contains(nu) and is_border_strip(SkewPartition(shape, nu), r):
            out.append(nu)
    return out


def count_monotone_chains(outer: Partition, inner: Partition, r: int) -> int:
    """Number of strip chains from inner to outer whose tops weakly decrease
    bottom-up, by exhaustive peel."""
    if (outer.size - inner.size) % r:
        return 0

    def rec(shape, min_top):
        if shape == inner:
            return 1
        total = 0
        for nu in strips_below(shape, r):
            if not nu.contains(inner):
                continue
            strip = SkewPartition(shape, nu)
            if strip.top >= min_top:
                total += rec(nu, strip.top)
        return total

    return rec(outer, 1)


def chain_sign_by_search(outer: Partition, inner: Partition, r: int) -> int:
    """Sign of the unique monotone chain found by exhaustive peel, or 0."""
    if (outer.size - inner.size) % r:
        return 0

    def rec(shape, min_top):
        if shape == inner:
            return [1]
        signs = []
        for nu in strips_below(shape, r):
            if not nu.contains(inner):
                continue
            strip = SkewPartition(shape, nu)
            if strip.top >= min_top:
                signs.extend(
                    strip_sign(strip) * s for s in rec(nu, strip.top)
                )
        return signs

    signs = rec(outer, 1)
    assert len(signs) <= 1
    return signs[0] if signs else 0


def is_horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """lam/mu has at most one cell per column: mu interleaves lam."""
    if not lam.contains(mu):
        return False
    return all(mu.part(i) >= lam.part(i + 1) for i in range(1, len(lam) + 1))


def young_rule(mu: Partition, m: int) -> dict[Partition, int]:
    """Adding m cells, no two in a column: every horizontal strip, weight 1."""
    return {
        lam: 1
        for lam in partitions_of(mu.size + m)
        if is_horizontal_strip(lam, mu)
    }


def single_strip_rule(mu: Partition, r: int) -> dict[Partition, int]:
    """Adding one r-border strip: cell-based scan with the ribbon sign."""
    out = {}
    for lam in partitions_of(mu.size + r):
        if not lam.contains(mu):
            continue
        skew = SkewPartition(lam, mu)
        if is_border_strip(skew, r):
            out[lam] = strip_sign(skew)
    return out


def inversion_sign(seq) -> int:
    """(-1) to the number of pairs i < j with seq[i] > seq[j], pair by pair."""
    inversions = sum(
        1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def monomial_powers(pairs) -> dict[int, int]:
    """A monomial as a plain {variable: exponent} dict: repeated variables
    add up and zero exponents are left out."""
    powers: dict[int, int] = {}
    for var, exp in pairs:
        powers[var] = powers.get(var, 0) + exp
    return {var: exp for var, exp in powers.items() if exp}


def monomial_text(powers: dict[int, int]) -> str:
    """'x1^6 x2^3' style, variables ascending; '1' for the empty monomial."""
    if not powers:
        return "1"
    return " ".join(
        f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in sorted(powers.items())
    )


def naive_alternant_product(beta, f) -> dict[tuple[int, ...], int]:
    """Terms of a_beta * f with every monomial written out: the n! terms
    of the alternant times each term of f, with no guard on n."""
    return (a_beta(beta, max_vars=len(beta)) * f).terms


def eliminated_alternant_eval(beta, point) -> int:
    """det(values_i ^ beta_j) modulo the point's prime, by Gaussian
    elimination on the whole N x N matrix."""
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    if len(point.values) != n:
        raise ValueError(
            f"point has {len(point.values)} coordinates, need {n}"
        )
    p = point.prime
    rows = [[pow(v, b, p) for b in beta] for v in point.values]
    det = 1
    for col in range(n):
        pivot = next((k for k in range(col, n) if rows[k][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        lead = rows[col][col]
        det = det * lead % p
        inv = pow(lead, -1, p)
        for k in range(col + 1, n):
            factor = rows[k][col] * inv % p
            if factor:
                rk = rows[k]
                rc = rows[col]
                for j in range(col, n):
                    rk[j] = (rk[j] - factor * rc[j]) % p
    return det % p


def scan_by_r_move(w, beta, r: int, record_steps: bool = True) -> ProcessTrace:
    """The bead-scanning process one immutable abacus per move: each move is
    LabelledAbacus.r_move, and every step records the abacus it reached."""
    beta = beta if isinstance(beta, Composition) else Composition(tuple(beta))
    if len(beta) != w.n_beads:
        raise ValueError(
            f"budget has {len(beta)} entries for {w.n_beads} beads"
        )
    if r < 1:
        raise ValueError(f"shift distance must be positive, got {r}")

    alpha = list(beta.entries)
    remaining = sum(alpha)
    steps = []
    v = w
    if remaining == 0:
        return ProcessTrace(w, beta, r, (), Successful(v))

    last_source = -1
    last_top = w.n_beads + 1
    limit = max(w.support(), default=0) + r * remaining
    i = 0
    while i <= limit:
        bead = v.slot(i)
        if bead == 0:
            if record_steps:
                steps.append(ProcessStep(i, 0, "skip-empty", v, tuple(alpha)))
        elif alpha[bead - 1] == 0:
            if record_steps:
                steps.append(
                    ProcessStep(i, bead, "skip-exhausted", v, tuple(alpha))
                )
        else:
            moved = v.r_move(bead, r)
            if isinstance(moved, Collision):
                if record_steps:
                    steps.append(
                        ProcessStep(i, bead, "collided", v, tuple(alpha))
                    )
                return ProcessTrace(
                    w, beta, r, tuple(steps), Unsuccessful(bead, moved.blocker, i)
                )
            alpha[bead - 1] -= 1
            remaining -= 1
            v = moved
            right = v.slots[i + r + 1:]
            top = 1 + len(right) - right.count(0)
            if not (i > last_source and top <= last_top):
                raise RuntimeError(f"move from slot {i} breaks the scan order")
            last_source, last_top = i, top
            if record_steps:
                steps.append(
                    ProcessStep(i, bead, "moved", v, tuple(alpha), strip_top=top)
                )
            if remaining == 0:
                return ProcessTrace(w, beta, r, tuple(steps), Successful(v))
        i += 1
    raise RuntimeError("scan passed every bead with budget left")
