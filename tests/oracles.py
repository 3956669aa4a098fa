"""Brute-force reference implementations, used only to cross-check.

Everything here works cell by cell on Young diagrams and by exhaustive
search over partitions, deliberately avoiding the bead-position shortcuts
the package uses, so the two routes fail independently; a test keeps the
cell-level strip readers (skew_top, skew_bottom, skew_cells, strip_sign,
is_border_strip) off the strip code they check.  The exceptions are
references for faster package code: naive_alternant_product
multiplies every monomial out, eliminated_alternant_eval reduces the full
N x N alternant matrix mod p, leibniz_det_mod sums a determinant's n!
permutation products, scan_by_r_move runs the bead-scanning
process on immutable abaci, one r_move per move, partner_by_swap reads
epsilon's partner off a collision through LabelledAbacus.position and
.swap, supersets_by_shapes checks every shape the strip search reaches
as a Partition, iterated_by_shapes folds the factors of an iterated
expansion one enumerate_supersets call per shape,
expand_iterated_by_single_factors folds them one public pmn_expand call
per term in (i, j) lexicographic order, and
verify_process_by_regeneration checks the process replay's bijection by
regenerating every labelling of the support shapes.
"""

from itertools import combinations, permutations
from math import prod

from plethax import (
    DEFAULT_PRIME,
    Collision,
    Composition,
    Partition,
    ProcessStep,
    ProcessTrace,
    SchurExpansion,
    SkewPartition,
    SparsePolynomial,
    Successful,
    Unsuccessful,
    a_beta,
    enumerate_supersets,
    partitions_of,
    pmn_expand,
)
from plethax import expansion
from plethax.abacus import all_abaci
from plethax.process import _composition


def skew_top(skew: SkewPartition) -> int:
    """Least 1-based row where outer and inner differ; 0 if they are equal."""
    for i in range(1, len(skew.outer) + 1):
        if skew.outer.part(i) != skew.inner.part(i):
            return i
    return 0


def skew_bottom(skew: SkewPartition) -> int:
    """Greatest 1-based row where outer and inner differ; 0 if equal."""
    for i in range(len(skew.outer), 0, -1):
        if skew.outer.part(i) != skew.inner.part(i):
            return i
    return 0


def skew_cells(skew: SkewPartition) -> list[tuple[int, int]]:
    """All (row, column) cells of the skew diagram, 1-based."""
    return [
        (i, j)
        for i in range(1, len(skew.outer) + 1)
        for j in range(skew.inner.part(i) + 1, skew.outer.part(i) + 1)
    ]


def strip_sign(skew: SkewPartition) -> int:
    """(-1) ** (bottom - top), the sign a border strip contributes."""
    return -1 if (skew_bottom(skew) - skew_top(skew)) % 2 else 1


def is_border_strip(skew: SkewPartition, r: int) -> bool:
    """True when the skew diagram is r edge-connected cells with no 2x2 descent.

    A border strip never contains both (i, j) and (i+1, j+1); together with
    edge-connectivity that pins the familiar ribbon shape.
    """
    if r < 1:
        raise ValueError(f"strip size must be positive, got {r}")
    cells = skew_cells(skew)
    if len(cells) != r:
        return False
    cellset = set(cells)
    for (i, j) in cells:
        if (i + 1, j + 1) in cellset:
            return False
    seen = {cells[0]}
    frontier = [cells[0]]
    while frontier:
        i, j = frontier.pop()
        for nbr in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nbr in cellset and nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == len(cells)


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
            top = skew_top(SkewPartition(shape, nu))
            if top >= min_top:
                total += rec(nu, top)
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
            top = skew_top(strip)
            if top >= min_top:
                signs.extend(strip_sign(strip) * s for s in rec(nu, top))
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


def leibniz_det_mod(rows, p: int) -> int:
    """Determinant mod p as the signed sum over permutations of the products
    rows[i][perm[i]]."""
    return sum(
        inversion_sign(perm) * prod(row[j] for row, j in zip(rows, perm))
        for perm in permutations(range(len(rows)))
    ) % p


def p_poly(r: int, n_vars: int) -> SparsePolynomial:
    """Power sum x1^r + ... + xN^r."""
    if r < 1:
        raise ValueError(f"degree must be positive, got {r}")
    terms = []
    for i in range(n_vars):
        exps = [0] * n_vars
        exps[i] = r
        terms.append((tuple(exps), 1))
    return SparsePolynomial(n_vars, terms)


def sorted_terms(f: SparsePolynomial) -> list[tuple[tuple[int, ...], int]]:
    """Terms of f in graded reverse-lexicographic order, largest first."""
    return sorted(f.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0][::-1]))


def evaluate(f: SparsePolynomial, values) -> int:
    """Value of f at the coordinate tuple values, reduced modulo
    DEFAULT_PRIME, one monomial at a time."""
    if len(values) != f.n_vars:
        raise ValueError(
            f"point has {len(values)} coordinates, need {f.n_vars}"
        )
    p = DEFAULT_PRIME
    total = 0
    for exps, coeff in f.terms.items():
        term = coeff % p
        for v, e in zip(values, exps):
            if e:
                term = term * pow(v, e, p) % p
        total = (total + term) % p
    return total


def naive_alternant_product(beta, f) -> dict[tuple[int, ...], int]:
    """Terms of a_beta * f with every monomial written out: the n! terms
    of the alternant times each term of f, with no guard on n."""
    return (a_beta(beta, max_vars=len(beta)) * f).terms


def eliminated_alternant_eval(beta, values) -> int:
    """det(values_i ^ beta_j) modulo DEFAULT_PRIME, by Gaussian elimination
    on the whole N x N matrix."""
    beta = tuple(int(b) for b in beta)
    n = len(beta)
    if len(values) != n:
        raise ValueError(
            f"point has {len(values)} coordinates, need {n}"
        )
    p = DEFAULT_PRIME
    rows = [[pow(v, b, p) for b in beta] for v in values]
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


def beads_between(w, lo: int, hi: int) -> int:
    """Beads of the abacus w on slots strictly between lo and hi (lo < hi);
    slots start at 0."""
    if lo >= hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    return sum(1 for i in range(max(lo + 1, 0), min(hi, len(w.slots))) if w.slots[i])


def budget_weight(positions, entries, r: int) -> tuple[int, ...]:
    """Exponent tuple of weight_with_budget from an abacus's positions() and
    a budget of as many entries: slot of bead l plus r times its entry."""
    return tuple([p + r * e for p, e in zip(positions, entries)])


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


def expand_iterated_by_single_factors(
    mu: Partition, rho: Partition, nu: Partition
) -> SchurExpansion:
    """s_mu * prod (p_{rho_i} o h_{nu_j}), the factors taken in (i, j)
    lexicographic order, each expanding every term of the last through the
    public pmn_expand."""
    current = {mu: 1}
    for r in rho.parts:
        for m in nu.parts:
            grown = {}
            for lam, c in current.items():
                for tau, s in pmn_expand(lam, r, m).items():
                    grown[tau] = grown.get(tau, 0) + c * s
            current = {lam: c for lam, c in grown.items() if c}
    return SchurExpansion(current)


def verify_process_by_regeneration(
    mu: Partition, r: int, m: int, n_beads: int
) -> "expansion.ProcessIdentityReport":
    """verify_process_identity with each weight built per pair by
    budget_weight, each image's shape built by LabelledAbacus.shape(), and
    the bijection checked by comparing the images of each support shape
    with the set of all its labellings from all_abaci, and each partner
    found by running the pair again in epsilon.  It calls pmn_expand,
    enumerate_pairs and epsilon through the expansion module, so a test
    that patches the first two there patches both verifiers; the verifier
    reads partners through expansion._partner, so a fault in the partner
    map is patched into both of those names."""
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
            weight = budget_weight(positions, beta.entries, r)
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
                if budget_weight(positions2, beta2.entries, r) != weight:
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
