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

from .abacus import Monomial, all_abaci
from .partitions import (
    Partition,
    _add_strips,
    _shape_at,
    bead_positions,
    enumerate_supersets,
    sgn_r,
)
# SparsePolynomial, a_beta and a_beta_eval are not used here; they stay
# bound because the benchmark (bench/tracing.py, bench/test_bench.py)
# reaches them by name in this module.
from .polynomials import (  # noqa: F401
    SparsePolynomial,
    _alternants_at,
    a_beta,
    a_beta_eval,
    alternant_guard,
    h_eval,
    h_poly,
    plethysm_pr,
    seeded_points,
    shifted_beta,
    straighten_product,
)
from .process import enumerate_pairs, epsilon, weight_with_budget


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
            c = cleaned.pop(lam, 0) + int(c)
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

    @classmethod
    def from_records(cls, records):
        return cls(
            (Partition(rec["partition"]), rec["coeff"]) for rec in records
        )


def pmn_expand(mu: Partition, r: int, m: int) -> SchurExpansion:
    """Schur expansion of s_mu * (p_r o h_m): signed sum over the shapes
    reachable from mu by m strips of size r along a top-monotone chain."""
    return SchurExpansion._unchecked(dict(enumerate_supersets(mu, r, m)))


def pmn_expand_iterated(mu: Partition, rho: Partition, nu: Partition) -> SchurExpansion:
    """Schur expansion of s_mu * prod_{i,j} (p_{rho_i} o h_{nu_j}).

    Factors are applied one at a time in (i, j) lexicographic order; any
    order gives the same expansion since the factors commute.  The fold runs
    on bead positions over len(mu) + |rho|*|nu| beads, enough for every
    factor, and reads off shapes only for the result.
    """
    if len(rho) == 0 or len(nu) == 0:
        raise ValueError("both factor partitions must be non-empty")
    n = len(mu) + rho.size * nu.size
    current = {bead_positions(mu, n): 1}
    for r in rho.parts:
        for m in nu.parts:
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
    mode 'modular' compares values at `points` seeded points.  Both sides
    need n_vars at least |mu| + r*m so no shape in the sum is truncated.
    """
    _check_factor(r, m)
    bound = mu.size + r * m
    if n_vars < bound:
        raise ValueError(
            f"need at least |mu| + r*m = {bound} variables, got {n_vars}"
        )
    expansion = pmn_expand(mu, r, m)
    mu_beta = shifted_beta(mu.parts, n_vars)

    if mode == "symbolic":
        # Trip the guard before h_m's C(m+N-1, N-1) terms are built.
        alternant_guard(n_vars, max_vars)
        lhs = straighten_product(
            mu_beta, plethysm_pr(h_poly(m, n_vars), r), max_vars=max_vars
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
        betas = [(shifted_beta(lam.parts, n_vars), c) for lam, c in expansion.items()]
        for index, point in enumerate(seeded_points(n_vars, points, seed)):
            p = point.prime
            alternant = _alternants_at(point)
            lhs_val = (
                alternant(mu_beta)
                * h_eval([pow(v, r, p) for v in point.values], m, p)
                % p
            )
            rhs_val = 0
            for beta, c in betas:
                rhs_val = (rhs_val + c * alternant(beta)) % p
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
        # Signed weights by weight monomial: the aborted pairs, and the
        # completed pairs minus the signed abacus sums of the support shapes.
        aborted: dict[Monomial, int] = {}
        unmatched: dict[Monomial, int] = {}
        images: dict[Partition, set] = {}
        # Aborted pairs whose partner has not come up yet, keyed by
        # (slots, budget entries), with the key of that partner.
        open_pairs: dict[tuple, tuple] = {}
        w_signed = None
        for w, beta, trace in enumerate_pairs(mu, n_beads, r, m):
            n_pairs += 1
            weight = weight_with_budget(w, beta, r)
            # enumerate_pairs yields each labelling for all budgets in a row.
            if w is not w_signed:
                w_signed, sign = w, w.sign()
            if trace.successful:
                n_completed += 1
                unmatched[weight] = unmatched.get(weight, 0) + sign
                image = trace.outcome.abacus
                lam = image.shape()
                if lam not in sign_of:
                    return f"completed pair landed on {lam}, outside the expansion support"
                if image.sign() != sign_of[lam] * sign:
                    return f"sign law broken on a completed pair with shape {lam}"
                if image.weight() != weight:
                    return f"weight not conserved on a completed pair with shape {lam}"
                bucket = images.setdefault(lam, set())
                if image in bucket:
                    return f"two completed pairs share the image {image!r}"
                bucket.add(image)
            else:
                n_aborted += 1
                aborted[weight] = aborted.get(weight, 0) + sign
                w2, beta2 = epsilon(w, beta, r)
                if w2.sign() != -sign:
                    return "partner does not reverse sign"
                if weight_with_budget(w2, beta2, r) != weight:
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
            expected = set(all_abaci(lam, n_beads, max_beads=n_beads))
            if hits != expected:
                return f"completed pairs miss {len(expected - hits)} labellings of {lam}"
            for u in expected:
                weight = u.weight()
                unmatched[weight] = unmatched.get(weight, 0) - c * u.sign()
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
