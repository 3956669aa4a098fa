"""Schur expansions of s_mu * (p_r o h_m) products, and their verification.

pmn_expand turns the strip chain enumeration into a signed Schur expansion;
pmn_expand_iterated folds one strip factor at a time, so products over two
partitions of factors reduce to repeated single-factor expansions.

The two verify_* entry points check the expansion against routes that do
not share its code path: verify_against_oracle checks the alternant
identity (exactly, by straightening, or at seeded modular points), while
verify_process_identity replays the bead-scanning process pair by pair.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import factorial
from operator import mul

from .partitions import (
    Partition,
    _add_strips,
    _bead_mask,
    _terms,
    bead_positions,
    enumerate_supersets,
)
from .polynomials import (
    DEFAULT_PRIME,
    _alternants_at,
    _check_budget,
    _integer,
    _vandermonde,
    alternant_guard,
    h_eval,
    h_poly,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    straighten_product,
)
from .process import Composition, Successful, _composition, _partner, enumerate_pairs
# all_abaci, sgn_r, SparsePolynomial, a_beta, a_beta_eval, epsilon and
# weight_with_budget are not used here; they stay bound because the benchmark
# (bench/tracing.py, bench/test_bench.py) reaches them by name in this module.
from .abacus import all_abaci  # noqa: F401
from .partitions import sgn_r  # noqa: F401
from .polynomials import SparsePolynomial, a_beta, a_beta_eval  # noqa: F401
from .process import epsilon, weight_with_budget  # noqa: F401


class SchurExpansion(tuple):
    """An integer combination of Schur functions: the tuple of its
    (partition, coefficient) terms, partitions lexicographically
    decreasing, which it compares, hashes and iterates as.

    The constructor takes a dict or an iterable of (shape, coefficient)
    pairs.  It checks each shape as a Partition and each coefficient as an
    integer, merges repeated shapes and drops zero coefficients; all shapes
    left must share one size (the terms of a homogeneous symmetric function
    do).  Terms known to be valid and sorted are wrapped unchecked with
    tuple.__new__(SchurExpansion, terms).
    """

    __slots__ = ()

    def __new__(cls, coeffs=None):
        merged: dict[Partition, int] = {}
        for lam, c in coeffs.items() if isinstance(coeffs, dict) else coeffs or ():
            lam = Partition(lam)
            merged[lam] = merged.get(lam, 0) + _integer(c)
        terms = sorted(((lam, c) for lam, c in merged.items() if c), reverse=True)
        sizes = {lam.size for lam, _ in terms}
        if len(sizes) > 1:
            raise ValueError(f"mixed homogeneous degrees: {sorted(sizes)}")
        return tuple.__new__(cls, terms)

    def coefficient(self, lam: Partition) -> int:
        # Binary search: the terms' shapes run from above lam to at most lam.
        i = bisect_left(self, True, key=lambda term: term[0] <= lam)
        return self[i][1] if i < len(self) and self[i][0] == lam else 0

    def items(self) -> list[tuple[Partition, int]]:
        """The terms as a list."""
        return list(self)

    def support(self) -> list[Partition]:
        return [lam for lam, _ in self]

    def __repr__(self):
        body = ", ".join(f"{lam}: {c}" for lam, c in self)
        return f"SchurExpansion({{{body}}})"

    def to_records(self) -> list[dict]:
        """JSON-ready term list in display order."""
        return [{"partition": list(lam), "coeff": c} for lam, c in self]


def pmn_expand(mu: Partition, r: int, m: int) -> SchurExpansion:
    """Schur expansion of s_mu * (p_r o h_m): signed sum over the shapes
    reachable from mu by m strips of size r along a top-monotone chain."""
    return tuple.__new__(SchurExpansion, enumerate_supersets(mu, r, m))


def pmn_expand_iterated(mu: Partition, rho: Partition, nu: Partition) -> SchurExpansion:
    """Schur expansion of s_mu * prod_{i,j} (p_{rho_i} o h_{nu_j}).

    Factors are applied one at a time, smallest r*m first, ties broken by r
    and then m; any order gives the same expansion since the factors
    commute, and the small factors first keep the intermediate sums small.
    The fold runs on bead masks over len(mu) + |rho|*|nu| beads, enough
    for every factor: each factor is one _add_strips call on the whole
    signed sum of the last, and shapes are read off only for the result.
    """
    if len(rho) == 0 or len(nu) == 0:
        raise ValueError("both factor partitions must be non-empty")
    n = len(mu) + rho.size * nu.size
    current = {_bead_mask(mu, n): 1}
    for _, r, m in sorted((r * m, r, m) for r in rho for m in nu):
        current = _add_strips(current, r, m)
    return tuple.__new__(SchurExpansion, _terms(current))


def _check_factor(r: int, m: int):
    if r < 1 or m < 1:
        raise ValueError("r and m must be positive")


@dataclass(frozen=True, slots=True)
class VerificationReport:
    ok: bool
    mode: str
    mu: Partition
    r: int
    m: int
    n_vars: int
    seed: int | None = None
    points: int = 0
    terms: int = 0
    detail: str = ""


def verify_against_oracle(
    mu: Partition,
    r: int,
    m: int,
    n_vars: int,
    mode: str = "symbolic",
    seed: int = 0,
    max_vars: int = 8,
) -> VerificationReport:
    """Check a_{mu+delta} * (p_r o h_m) == sum of signed a_{lam+delta} over
    the expansion of pmn_expand(mu, r, m).

    mode 'symbolic' is exact in the alternant basis: the left side is
    straightened into signed a_v with v decreasing (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3; see straighten_product) and
    compared with the expansion vector by vector.  Each a_v has N!
    monomials with disjoint supports, so the report counts N! per vector
    and names the grevlex-first monomial of a difference, as a full
    expansion would.  It is guarded at max_vars variables.
    mode 'modular' compares values at 20 seeded points, fixed by `seed`:
    one _alternants_at over all 20, applied to the parts of mu and of
    every shape, gives each shape's 20 values at once, and no exponent
    vector is built or sorted.  Each value is an alternant divided by the
    Vandermonde a_delta(x), the factor both sides share, so the sums
    c_lam * det_lam are taken over the lanes, and then the points are
    walked in order: det_mu * h_m(x^r) is compared with the sum, and
    a_delta is computed only where those differ.  The point agrees when
    a_delta is 0 mod p, and otherwise the report names both sides times
    a_delta, the full alternant values.  Both sides need n_vars at least
    |mu| + r*m so no shape in the sum is truncated.  The modular route is
    guarded at pair_budget() table entries, counted as 20 * n_vars**2,
    since the e table takes about n_vars**2 steps per point.  Every check
    on the arguments, both guards included, runs before the strip search.
    """
    _check_factor(r, m)
    bound = mu.size + r * m
    if n_vars < bound:
        raise ValueError(
            f"need at least |mu| + r*m = {bound} variables, got {n_vars}"
        )
    if mode == "symbolic":
        # Trip the guard before the strip search and before h_m's
        # C(m+N-1, N-1) terms are built.
        alternant_guard(n_vars, max_vars)
    elif mode == "modular":
        # 20 points, one e table lane each
        _check_budget(20 * n_vars**2, "modular table entries")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    expansion = pmn_expand(mu, r, m)

    if mode == "symbolic":
        lhs = straighten_product(
            shifted_beta(mu, n_vars),
            plethysm_pr(h_poly(m, n_vars), r),
            max_vars=max_vars,
        )
        diff = dict(lhs)
        for lam, c in expansion:
            key = shifted_beta(lam, n_vars)
            left = diff.pop(key, 0) - c
            if left:
                diff[key] = left
        ok = not diff
        if ok:
            detail = f"exact match on {factorial(n_vars) * len(lhs)} monomials"
        else:
            # diff is sum c_v a_v over decreasing v of one degree, so its
            # grevlex-first monomial is the v with the smallest reversal,
            # and its coefficient is c_v.
            exps = min(diff, key=lambda v: v[::-1])
            detail = f"first discrepancy: coefficient {diff[exps]} on exponents {exps}"
        seed, points = None, 0
    else:
        p, points = DEFAULT_PRIME, 20
        xs = seeded_points(n_vars, points, seed)
        jacobi_trudi = _alternants_at(xs)
        sums = [0] * points
        for lam, c in expansion:
            sums = [(s + c * det) % p for s, det in zip(sums, jacobi_trudi(lam))]
        for index, (values, det_mu, rhs) in enumerate(zip(xs, jacobi_trudi(mu), sums)):
            # Both sides carry the factor a_delta(values), so the
            # determinants are compared.  As p is prime, the full sides
            # differ exactly where these do and a_delta is nonzero.
            lhs = det_mu * h_eval([pow(v, r, p) for v in values], m) % p
            if lhs != rhs and (a_delta := _vandermonde(values)):
                ok = False
                detail = (
                    f"mismatch at point {index}: "
                    f"lhs {a_delta * lhs % p} != rhs {a_delta * rhs % p} (mod {p})"
                )
                break
        else:
            ok, detail = True, f"all {points} seeded points agree"
    return VerificationReport(
        ok, mode, mu, r, m, n_vars, seed, points, len(expansion), detail
    )


@dataclass(frozen=True, slots=True)
class ProcessIdentityReport:
    ok: bool
    mu: Partition
    r: int
    m: int
    n_beads: int
    n_pairs: int
    n_aborted: int
    n_completed: int
    detail: str = ""


def verify_process_identity(
    mu: Partition, r: int, m: int, n_beads: int
) -> ProcessIdentityReport:
    """Replay the scanning process over every pair and check both halves of
    the cancellation argument.

    Aborted pairs must cancel term by term under epsilon (partner aborted,
    sign reversed, combined weight kept, involution).  Completed pairs must
    biject onto the labelled abaci of the expansion support, keeping the
    weight and matching the chain sign on every image.  That their signed
    weights regroup into the signed abacus sums of those shapes follows
    from the bijection, each pair cancelling its own image, so it is not
    tallied.

    The run enumerate_pairs makes is the only run per pair: an aborted
    pair's epsilon partner is read off the collision that ended that run,
    by _partner, as epsilon itself reads it.  Every partner must itself be
    an enumerated aborted pair, so the involution is checked by lookup: a
    pair whose partner is still open closes it if the partner maps back,
    and any pair left open at the end has no partner mapping back to it.

    Each distinct labelling is read once per call: its weight key, its
    largest position, its sign and its positions sorted down are kept by
    slots, for the labellings of mu (partners among them) and the completed
    images, at most n_beads! * (1 + support size) of them.  Each budget is
    read once per call too, keyed by itself.

    A weight, the exponent tuple whose entry l-1 is the slot of bead l plus
    r times its budget entry, is packed into one int whose base-b digit l-1
    is that entry, with b = mu_1 + n_beads + r*m: every labelling of mu and
    every completed run has its n_beads slots below b, and so has every
    entry of a legitimate weight.  A tuple of another length or with an
    entry outside 0..b-1 stays a tuple, which no int equals, so two weights
    are equal exactly when their tuples are.  The weight of (u, beta) is
    read as code(u) + code(r * beta) only when the largest slot of u plus r
    times the largest entry of beta is below b, so that no digit carries;
    otherwise its tuple is built, and packed when it fits.  The involution
    is keyed the same way, by code(u) + b**n_beads * code(r * beta), which
    tells distinct (slots, beta) apart where no digit carries, and by the
    tuple (slots, beta) elsewhere.

    The support shapes are keyed by their bead positions on n_beads beads,
    and a completed image by its positions reading sorted down, so no shape
    is built.  An image that misses every key has its shape read: it lies
    outside the support, or it is a support shape on another bead count,
    which is no labelling of that shape and fails the shape's bijection.
    So every image counted under a key is a labelling of its shape, distinct
    from the others by the bucket check, and the shape's n_beads!
    labellings are all hit exactly when n_beads! images are counted.

    Support shapes with more rows than beads cannot occur as images (a shape
    on n_beads beads has at most n_beads rows) and contribute nothing in
    n_beads variables, so they are left out of the bijection targets.

    Every check on the arguments runs before the strip search: r and m, the
    bead count, then, at the enumerate_pairs call, the pair guard, the
    labelling guard and whether mu fits on n_beads beads.
    """
    _check_factor(r, m)
    if n_beads < 1:
        raise ValueError(f"need at least one bead, got {n_beads}")
    pairs = enumerate_pairs(mu, n_beads, r, m)
    expansion = pmn_expand(mu, r, m)
    sign_of = {lam: c for lam, c in expansion if len(lam) <= n_beads}

    n_aborted = n_completed = 0

    def first_failure():
        nonlocal n_aborted, n_completed
        base = mu.part(1) + n_beads + r * m
        places = [base**l for l in range(n_beads)]
        high = base**n_beads  # the place of r * beta in an involution key

        def pack(exponents):
            """The int with digit l-1 exponents[l-1], or the tuple itself
            when it does not fit in n_beads digits."""
            if len(exponents) == n_beads and 0 <= min(exponents) and max(exponents) < base:
                return sum(map(mul, exponents, places))
            return exponents

        # (weight key, largest position or base, sign, positions sorted
        # down) by slots, for every labelling read so far.  A labelling
        # whose positions do not pack has base as its largest position, so
        # its weights are always built as tuples.
        readings: dict[tuple[int, ...], tuple] = {}

        def read(u):
            positions = u.positions()
            code = pack(positions)
            top = base if isinstance(code, tuple) else max(positions)
            reading = readings[u.slots] = (
                code, top, u.sign(), tuple(sorted(positions, reverse=True))
            )
            return reading

        # (code of r * beta, that code moved to the key's upper digits, r
        # times the largest entry, or 0, 0, base when r * beta does not
        # pack) by budget.
        budgets: dict[Composition, tuple] = {}

        def budget(beta):
            shift = pack(tuple([r * e for e in beta]))
            if isinstance(shift, tuple):
                row = budgets[beta] = (0, 0, base)
            else:
                row = budgets[beta] = (shift, shift * high, r * max(beta))
            return row

        def unpacked(u, beta):
            """Weight key and involution key of (u, beta) when a digit of
            their packed sum could carry."""
            weight = pack(tuple([p + r * e for p, e in zip(u.positions(), beta)]))
            return weight, (u.slots, beta)

        # (shape, chain sign, image slots) by the bead positions of the
        # shape, for the support shapes, in expansion order; an image of a
        # support shape on another bead count adds its own key and marks
        # the shape strayed.
        targets = {
            bead_positions(lam, n_beads): (lam, c, set()) for lam, c in sign_of.items()
        }
        support = list(targets.values())
        strayed = set()
        # Signed weights of the aborted pairs by weight key.
        aborted: dict[int | tuple, int] = {}
        # Aborted pairs whose partner has not come up yet, by involution
        # key, with the key of that partner.
        open_pairs: dict[int | tuple, int | tuple] = {}
        w_read = None
        # Each pair is counted as aborted or completed before it is checked.
        for w, beta, trace in pairs:
            # enumerate_pairs yields each labelling for all budgets in a row.
            if w is not w_read:
                w_read = w
                code, top, sign, _ = readings.get(w.slots) or read(w)
            shift, shift_key, reach = budgets.get(beta) or budget(beta)
            if top + reach < base:
                weight, key = code + shift, code + shift_key
            else:
                weight, key = unpacked(w, beta)
            outcome = trace.outcome
            if isinstance(outcome, Successful):
                n_completed += 1
                image = outcome.abacus
                image_slots = image.slots
                image_code, _, image_sign, image_key = (
                    readings.get(image_slots) or read(image)
                )
                target = targets.get(image_key)
                if target is None:
                    lam = image.shape()
                    if lam not in sign_of:
                        return f"completed pair landed on {lam}, outside the expansion support"
                    target = targets[image_key] = (lam, sign_of[lam], set())
                    strayed.add(lam)
                lam, c, bucket = target
                if image_sign != c * sign:
                    return f"sign law broken on a completed pair with shape {lam}"
                if image_code != weight:
                    return f"weight not conserved on a completed pair with shape {lam}"
                if image_slots in bucket:
                    return f"two completed pairs share the image {image!r}"
                bucket.add(image_slots)
            else:
                n_aborted += 1
                aborted[weight] = aborted.get(weight, 0) + sign
                w2, beta2 = _partner(w, beta, r, outcome)
                code2, top2, sign2, _ = readings.get(w2.slots) or read(w2)
                if sign2 != -sign:
                    return "partner does not reverse sign"
                if beta2.__class__ is not Composition or len(beta2) != w2.n_beads:
                    beta2 = _composition(beta2, w2.n_beads)
                shift2, shift_key2, reach2 = budgets.get(beta2) or budget(beta2)
                if top2 + reach2 < base:
                    weight2, partner = code2 + shift2, code2 + shift_key2
                else:
                    weight2, partner = unpacked(w2, beta2)
                if weight2 != weight:
                    return "partner changes the weight"
                if partner not in open_pairs:
                    open_pairs[key] = partner
                elif open_pairs.pop(partner) != key:
                    return "pairing is not an involution"
        if open_pairs:
            return "pairing is not an involution"
        if any(aborted.values()):
            return "aborted pairs do not cancel"
        labellings = factorial(n_beads)
        for lam, _, hits in support:
            if len(hits) != labellings or lam in strayed:
                return f"completed pairs miss {labellings - len(hits)} labellings of {lam}"
        return None

    failure = first_failure()
    return ProcessIdentityReport(
        failure is None,
        mu,
        r,
        m,
        n_beads,
        n_aborted + n_completed,
        n_aborted,
        n_completed,
        failure
        or f"{n_aborted} aborted pairs cancel, {n_completed} completed pairs regroup",
    )
