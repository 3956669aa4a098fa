"""Brute-force reference implementations, used only to cross-check.

Everything here works cell by cell on Young diagrams and by exhaustive
search over partitions, deliberately avoiding the bead-position shortcuts
the package uses, so the two routes fail independently.  The exceptions
are references for faster package code: naive_alternant_product
multiplies every monomial out, eliminated_alternant_eval reduces the full
N x N alternant matrix mod p, scan_by_r_move runs the bead-scanning
process on immutable abaci, one r_move per move, partner_by_swap reads
epsilon's partner off a collision through LabelledAbacus.position and
.swap, supersets_by_shapes checks every shape the strip search reaches
as a Partition, iterated_by_shapes folds the factors of an iterated
expansion one enumerate_supersets call per shape, and
verify_process_by_regeneration checks the process replay's bijection by
regenerating every labelling of the support shapes.
"""

from itertools import combinations

from plethax import (
    Collision,
    Composition,
    Partition,
    ProcessStep,
    ProcessTrace,
    SchurExpansion,
    SkewPartition,
    Successful,
    Unsuccessful,
    a_beta,
    enumerate_supersets,
    is_border_strip,
    partitions_of,
    strip_sign,
)
from plethax import expansion
from plethax.abacus import all_abaci
from plethax.process import _budget_weight, _composition


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


def partner_by_swap(w, beta, r: int, outcome):
    """epsilon's partner of an aborted pair (w, beta), read off the collision
    `outcome` its run ended in: the colliding beads trade slots through
    LabelledAbacus.swap, and the bead's budget entry hands the r-steps
    between their slots, found by LabelledAbacus.position, to the blocker."""
    bead, blocker = outcome.bead, outcome.blocker
    delta, rest = divmod(w.position(blocker) - w.position(bead), r)
    entries = list(beta.entries)
    entries[bead - 1] -= delta
    entries[blocker - 1] += delta
    if delta <= 0 or rest or entries[bead - 1] < 0:
        raise RuntimeError(f"collision of beads {bead} and {blocker} has no partner")
    return w.swap(bead, blocker), Composition(tuple(entries))


def supersets_by_shapes(
    mu: Partition, r: int, m: int, n_beads: int | None = None
) -> list[tuple[Partition, int]]:
    """The strip search of enumerate_supersets with a checked Partition
    built at every leaf and the shapes sorted by their parts.  It rebuilds
    the sorted bead set at every node and scans every bead, on n_beads
    beads (default len(mu) + r*m, the fewest that hold every shape)."""
    if m == 0:
        return [(mu, 1)]
    n = len(mu) + r * m if n_beads is None else n_beads
    found = []

    def extend(pos, left, max_top, sign):
        if left == 0:
            found.append((Partition(y - (n - j) for j, y in enumerate(pos, 1)), sign))
            return
        posset = set(pos)
        for idx, y in enumerate(pos):
            target = y + r
            if target in posset:
                continue
            jumped = sum(1 for q in pos if y < q < target)
            t = idx + 1 - jumped
            if t > max_top:
                continue
            newpos = tuple(sorted((posset - {y}) | {target}, reverse=True))
            extend(newpos, left - 1, t, -sign if jumped % 2 else sign)

    extend(tuple(mu.part(j) + n - j for j in range(1, n + 1)), m, n, 1)
    found.sort(key=lambda entry: entry[0].parts, reverse=True)
    return found


def iterated_by_shapes(mu: Partition, rho: Partition, nu: Partition) -> SchurExpansion:
    """s_mu * prod (p_{rho_i} o h_{nu_j}), one factor at a time, each factor
    expanding every shape of the last through enumerate_supersets."""
    current = {mu: 1}
    for r in rho.parts:
        for m in nu.parts:
            grown = {}
            for lam, c in current.items():
                for tau, s in enumerate_supersets(lam, r, m):
                    grown[tau] = grown.get(tau, 0) + c * s
            current = {lam: c for lam, c in grown.items() if c}
    return SchurExpansion(current)


def verify_process_by_regeneration(
    mu: Partition, r: int, m: int, n_beads: int
) -> "expansion.ProcessIdentityReport":
    """verify_process_identity with each weight built per pair by
    _budget_weight, each image's shape built by LabelledAbacus.shape(), and
    the bijection checked by comparing the images of each support shape
    with the set of all its labellings from all_abaci.  It calls
    pmn_expand, enumerate_pairs and epsilon through the expansion module,
    so a test that patches them there patches both verifiers."""
    expansion._check_factor(r, m)
    if n_beads < 1:
        raise ValueError(f"need at least one bead, got {n_beads}")
    sign_of = {
        lam: c for lam, c in expansion.pmn_expand(mu, r, m).items() if len(lam) <= n_beads
    }
    n_pairs = n_aborted = n_completed = 0

    def first_failure():
        nonlocal n_pairs, n_aborted, n_completed
        readings = {}

        def read(u):
            reading = readings.get(u.slots)
            if reading is None:
                reading = readings[u.slots] = (u.positions(), u.sign())
            return reading

        aborted, unmatched, images, open_pairs = {}, {}, {}, {}
        w_read = None
        for w, beta, trace in expansion.enumerate_pairs(mu, n_beads, r, m):
            n_pairs += 1
            if w is not w_read:
                w_read = w
                positions, sign = read(w)
            weight = _budget_weight(positions, beta.entries, r)
            if trace.successful:
                n_completed += 1
                unmatched[weight] = unmatched.get(weight, 0) + sign
                image = trace.outcome.abacus
                lam = image.shape()
                if lam not in sign_of:
                    return f"completed pair landed on {lam}, outside the expansion support"
                image_positions, image_sign = read(image)
                if image_sign != sign_of[lam] * sign:
                    return f"sign law broken on a completed pair with shape {lam}"
                if image_positions != weight:
                    return f"weight not conserved on a completed pair with shape {lam}"
                bucket = images.setdefault(lam, set())
                if image in bucket:
                    return f"two completed pairs share the image {image!r}"
                bucket.add(image)
            else:
                n_aborted += 1
                aborted[weight] = aborted.get(weight, 0) + sign
                w2, beta2 = expansion.epsilon(w, beta, r)
                positions2, sign2 = read(w2)
                if sign2 != -sign:
                    return "partner does not reverse sign"
                beta2 = _composition(beta2, w2.n_beads)
                if _budget_weight(positions2, beta2.entries, r) != weight:
                    return "partner changes the weight"
                key, partner = (w.slots, beta.entries), (w2.slots, beta2.entries)
                if partner not in open_pairs:
                    open_pairs[key] = partner
                elif open_pairs.pop(partner) != key:
                    return "pairing is not an involution"
        if open_pairs:
            return "pairing is not an involution"
        if any(aborted.values()):
            return "aborted pairs do not cancel"
        for lam, c in sign_of.items():
            hits = images.get(lam, set())
            expected = set(all_abaci(lam, n_beads))
            if hits != expected:
                return f"completed pairs miss {len(expected - hits)} labellings of {lam}"
            for u in expected:
                u_positions, u_sign = read(u)
                unmatched[u_positions] = unmatched.get(u_positions, 0) - c * u_sign
        if any(unmatched.values()):
            return "completed pairs do not regroup into the signed shape sums"
        return None

    failure = first_failure()
    return expansion.ProcessIdentityReport(
        failure is None,
        mu,
        r,
        m,
        n_beads,
        n_pairs,
        n_aborted,
        n_completed,
        failure
        or f"{n_aborted} aborted pairs cancel, {n_completed} completed pairs regroup",
    )
