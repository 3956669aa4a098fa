"""Schur expansions of s_mu * (p_r o h_m) products, and their verification.

pmn_expand turns the strip chain enumeration into a signed Schur expansion;
pmn_expand_iterated folds one strip factor at a time, so products over two
partitions of factors reduce to repeated single-factor expansions.

The two verify_* entry points check the expansion against routes that do
not share its code path: verify_against_oracle checks the alternant
identity (exactly, by straightening, or at seeded modular points), while
verify_process_identity replays the bead-scanning process pair by pair.
"""

from dataclasses import dataclass
from math import factorial
from operator import add

from .partitions import (
    Partition,
    _add_strips,
    _shape_at,
    bead_positions,
    enumerate_supersets,
)
from .polynomials import (
    _alternants_at,
    _integer,
    alternant_guard,
    h_eval,
    h_poly,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    straighten_product,
)
from .process import _composition, enumerate_pairs, epsilon
# all_abaci, sgn_r, SparsePolynomial, a_beta, a_beta_eval and
# weight_with_budget are not used here; they stay bound because the benchmark
# (bench/tracing.py, bench/test_bench.py) reaches them by name in this module.
from .abacus import all_abaci  # noqa: F401
from .partitions import sgn_r  # noqa: F401
from .polynomials import SparsePolynomial, a_beta, a_beta_eval  # noqa: F401
from .process import weight_with_budget  # noqa: F401


class SchurExpansion:
    """An integer combination of Schur functions, keyed by partition.

    All partitions present must share one size (the terms of a homogeneous
    symmetric function do); zero coefficients are dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned: dict[Partition, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        for lam, c in items:
            c = cleaned.pop(lam, 0) + _integer(c)
            if c:
                cleaned[lam] = c
        sizes = {lam.size for lam in cleaned}
        if len(sizes) > 1:
            raise ValueError(f"mixed homogeneous degrees: {sorted(sizes)}")
        self.coeffs = cleaned

    @classmethod
    def _unchecked(cls, coeffs: dict) -> "SchurExpansion":
        """Wrap a dict of shapes of one size to nonzero ints as is."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def coefficient(self, lam: Partition) -> int:
        return self.coeffs.get(lam, 0)

    def items(self) -> list[tuple[Partition, int]]:
        """(partition, coefficient) pairs, partitions lexicographically decreasing."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].parts, reverse=True)

    def support(self) -> list[Partition]:
        return [lam for lam, _ in self.items()]

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, SchurExpansion) and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"{lam}: {c}" for lam, c in self.items())
        return f"SchurExpansion({{{body}}})"

    def to_records(self) -> list[dict]:
        """JSON-ready term list in display order."""
        return [
            {"partition": list(lam.parts), "coeff": c} for lam, c in self.items()
        ]


def pmn_expand(mu: Partition, r: int, m: int) -> SchurExpansion:
    """Schur expansion of s_mu * (p_r o h_m): signed sum over the shapes
    reachable from mu by m strips of size r along a top-monotone chain."""
    return SchurExpansion._unchecked(dict(enumerate_supersets(mu, r, m)))


def pmn_expand_iterated(mu: Partition, rho: Partition, nu: Partition) -> SchurExpansion:
    """Schur expansion of s_mu * prod_{i,j} (p_{rho_i} o h_{nu_j}).

    Factors are applied one at a time, smallest r*m first, ties broken by r
    and then m; any order gives the same expansion since the factors
    commute, and the small factors first keep the intermediate sums small.
    The fold runs on bead positions over len(mu) + |rho|*|nu| beads, enough
    for every factor, and reads off shapes only for the result.
    """
    if len(rho) == 0 or len(nu) == 0:
        raise ValueError("both factor partitions must be non-empty")
    n = len(mu) + rho.size * nu.size
    factors = sorted((r * m, r, m) for r in rho.parts for m in nu.parts)
    current = {bead_positions(mu, n): 1}
    for _, r, m in factors:
        grown: dict[tuple[int, ...], int] = {}
        for pos, c in current.items():
            for tau, s in _add_strips(pos, r, m):
                grown[tau] = grown.get(tau, 0) + c * s
        current = {pos: c for pos, c in grown.items() if c}
    return SchurExpansion._unchecked({_shape_at(pos): c for pos, c in current.items()})


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
    points: int = 20,
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
    mode 'modular' compares values at `points` seeded points: one
    _alternants_at(point) per point, applied to the parts of mu and of
    every shape, so no exponent vector is built or sorted.  Both sides
    need n_vars at least |mu| + r*m so no shape in the sum is truncated.
    """
    _check_factor(r, m)
    bound = mu.size + r * m
    if n_vars < bound:
        raise ValueError(
            f"need at least |mu| + r*m = {bound} variables, got {n_vars}"
        )
    expansion = pmn_expand(mu, r, m)

    if mode == "symbolic":
        # Trip the guard before h_m's C(m+N-1, N-1) terms are built.
        alternant_guard(n_vars, max_vars)
        lhs = straighten_product(
            shifted_beta(mu.parts, n_vars),
            plethysm_pr(h_poly(m, n_vars), r),
            max_vars=max_vars,
        )
        diff = dict(lhs)
        for lam, c in expansion.items():
            key = shifted_beta(lam.parts, n_vars)
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
    elif mode == "modular":
        if points < 1:
            raise ValueError(f"need at least one point, got {points}")
        for index, point in enumerate(seeded_points(n_vars, points, seed)):
            p = point.prime
            alternant = _alternants_at(point)
            lhs_val = (
                alternant(mu.parts)
                * h_eval([pow(v, r, p) for v in point.values], m)
                % p
            )
            rhs_val = 0
            for lam, c in expansion.coeffs.items():
                rhs_val = (rhs_val + c * alternant(lam.parts)) % p
            if lhs_val != rhs_val:
                ok = False
                detail = (
                    f"mismatch at point {index}: "
                    f"lhs {lhs_val} != rhs {rhs_val} (mod {p})"
                )
                break
        else:
            ok, detail = True, f"all {points} seeded points agree"
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
    biject onto the labelled abaci of the expansion support, matching the
    chain sign on every image, and their signed weights must regroup into
    the signed abacus sums of those shapes.

    Each pair's process is run once by enumerate_pairs, and epsilon once
    per aborted pair.  Every partner must itself be an enumerated aborted
    pair, so the involution is checked by lookup: a pair whose partner is
    still open closes it if the partner maps back, and any pair left open
    at the end has no partner mapping back to it.

    Each distinct labelling is read once per call: its bead positions and
    its sign are kept by slots, for the labellings of mu (partners among
    them) and the completed images, at most n_beads! * (1 + support size)
    of them.  A weight is the exponent tuple whose entry l-1 is the slot of
    bead l plus r times its budget entry; the shift r * beta is computed
    once per call for each budget, keyed by its entries.

    The support shapes are keyed by their bead positions on n_beads beads,
    and a completed image by its positions reading sorted down, so no shape
    is built.  An image that misses every key has its shape read: it lies
    outside the support, or it is a support shape on another bead count,
    which is no labelling of that shape and fails the shape's bijection.
    So every image counted under a key is a labelling of its shape, distinct
    from the others by the bucket check, and the shape's n_beads!
    labellings are all hit exactly when n_beads! images are counted.  The
    regroup tally runs over those images.

    Support shapes with more rows than beads cannot occur as images (a shape
    on n_beads beads has at most n_beads rows) and contribute nothing in
    n_beads variables, so they are left out of the bijection targets.
    """
    _check_factor(r, m)
    if n_beads < 1:
        raise ValueError(f"need at least one bead, got {n_beads}")
    expansion = pmn_expand(mu, r, m)
    sign_of = {
        lam: c for lam, c in expansion.items() if len(lam) <= n_beads
    }

    n_pairs = n_aborted = n_completed = 0

    def first_failure():
        nonlocal n_pairs, n_aborted, n_completed
        # (positions, sign) by slots, for every labelling read so far.
        readings: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}

        def read(u):
            reading = readings.get(u.slots)
            if reading is None:
                reading = readings[u.slots] = (u.positions(), u.sign())
            return reading

        # r * beta by budget entries.
        shifts: dict[tuple[int, ...], tuple[int, ...]] = {}

        def weight_of(positions, entries):
            shift = shifts.get(entries)
            if shift is None:
                shift = shifts[entries] = tuple([r * e for e in entries])
            return tuple(map(add, positions, shift))

        # (shape, chain sign, images) by the bead positions of the shape, for
        # the support shapes, in expansion order; an image of a support shape
        # on another bead count adds its own key and marks the shape strayed.
        targets = {
            bead_positions(lam, n_beads): (lam, c, set()) for lam, c in sign_of.items()
        }
        support = list(targets.values())
        strayed = set()
        # Signed weights by exponent tuple: the aborted pairs, and the
        # completed pairs minus the signed abacus sums of the support shapes.
        aborted: dict[tuple[int, ...], int] = {}
        unmatched: dict[tuple[int, ...], int] = {}
        # Aborted pairs whose partner has not come up yet, keyed by
        # (slots, budget entries), with the key of that partner.
        open_pairs: dict[tuple, tuple] = {}
        w_read = None
        for w, beta, trace in enumerate_pairs(mu, n_beads, r, m):
            n_pairs += 1
            # enumerate_pairs yields each labelling for all budgets in a row.
            if w is not w_read:
                w_read = w
                positions, sign = read(w)
            entries = beta.entries
            weight = weight_of(positions, entries)
            if trace.successful:
                n_completed += 1
                unmatched[weight] = unmatched.get(weight, 0) + sign
                image = trace.outcome.abacus
                image_positions, image_sign = read(image)
                image_key = tuple(sorted(image_positions, reverse=True))
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
                if image_positions != weight:
                    return f"weight not conserved on a completed pair with shape {lam}"
                if image in bucket:
                    return f"two completed pairs share the image {image!r}"
                bucket.add(image)
            else:
                n_aborted += 1
                aborted[weight] = aborted.get(weight, 0) + sign
                w2, beta2 = epsilon(w, beta, r)
                positions2, sign2 = read(w2)
                if sign2 != -sign:
                    return "partner does not reverse sign"
                entries2 = _composition(beta2, w2.n_beads).entries
                if weight_of(positions2, entries2) != weight:
                    return "partner changes the weight"
                key, partner = (w.slots, entries), (w2.slots, entries2)
                if partner not in open_pairs:
                    open_pairs[key] = partner
                elif open_pairs.pop(partner) != key:
                    return "pairing is not an involution"
        if open_pairs:
            return "pairing is not an involution"
        if any(aborted.values()):
            return "aborted pairs do not cancel"
        labellings = factorial(n_beads)
        for lam, c, hits in support:
            if len(hits) != labellings or lam in strayed:
                return f"completed pairs miss {labellings - len(hits)} labellings of {lam}"
            for u in hits:
                u_positions, u_sign = read(u)
                unmatched[u_positions] = unmatched.get(u_positions, 0) - c * u_sign
        if any(unmatched.values()):
            return "completed pairs do not regroup into the signed shape sums"
        return None

    failure = first_failure()
    return ProcessIdentityReport(
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
