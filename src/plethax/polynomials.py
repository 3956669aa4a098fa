"""Exact sparse polynomials over the integers, plus alternant determinants
and modular evaluation.

This module is the reference side of every identity check in the package:
it expands complete homogeneous sums, power-sum substitutions and the
determinants det(x_i^{b_j}) directly, and straightens products of an
alternant with a symmetric polynomial into the alternant basis, without
touching the strip or abacus machinery, so agreement between the two
routes is meaningful.

Everything is exact.  Coefficients are Python ints; the modular path exists
only to evaluate alternants too large to expand, at seeded points modulo
one fixed prime.  There each alternant is the Vandermonde determinant times
a Jacobi-Trudi determinant of at most min(rows, columns) of its shape, over
e_k and h_k tables built once per point.

The package's size guards live here too, as this module imports nothing
from the package; each raises GuardError naming its budget.
"""

import os
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from operator import add, index
from typing import ClassVar

DEFAULT_PRIME = 2_147_483_647  # 2**31 - 1
DEFAULT_PAIR_BUDGET = 10_000_000


def compositions(total: int, length: int):
    """An iterator over every tuple of `length` nonnegative ints summing to
    `total`; the arguments are checked at the call."""
    if total < 0 or length < 0:
        raise ValueError("compositions need nonnegative total and length")
    if length == 0:
        return iter([()] if total == 0 else [])

    def generate(n):
        for bars in combinations(range(n), length - 1):
            prev = -1
            parts = []
            for b in bars:
                parts.append(b - prev - 1)
                prev = b
            parts.append(n - prev - 1)
            yield tuple(parts)

    return generate(total + length - 1)


def _integer(value) -> int:
    """value as an int; a non-integral value such as 1.5 or '2' raises
    ValueError instead of being truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"expected an integer entry, got {value!r}") from None


def _integers(values) -> tuple[int, ...]:
    """values as a tuple of ints, converted in one pass; on a non-integral
    entry _integer names the first one."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple(map(_integer, values))


class GuardError(ValueError):
    """A size guard tripped: `what` names it and its budget, and the message
    adds how to lift it."""

    def __init__(self, what: str, hint: str):
        super().__init__(f"{what}; {hint}")
        self.what = what


def pair_budget() -> int:
    """Enumeration cap; override with the PLETHAX_BUDGET environment variable,
    which must hold a positive integer."""
    raw = os.environ.get("PLETHAX_BUDGET")
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"PLETHAX_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _check_budget(count: int, what: str):
    """Raise GuardError when count items of the named kind are past
    pair_budget()."""
    budget = pair_budget()
    if count > budget:
        raise GuardError(
            f"{count} {what} exceeds the enumeration budget {budget}",
            "set PLETHAX_BUDGET higher to proceed",
        )


def alternant_guard(n_vars: int, max_vars: int) -> None:
    """Raise GuardError when n_vars is past the exact alternant routes'
    guard of max_vars variables."""
    if n_vars > max_vars:
        raise GuardError(
            f"{n_vars}-variable alternant is past the guard ({max_vars})",
            f"pass max_vars={n_vars} to force the symbolic expansion",
        )


def _grevlex_key(exponents):
    return (-sum(exponents), tuple(reversed(exponents)))


class SparsePolynomial:
    """Multivariate polynomial as a map from exponent tuples to nonzero ints."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        if n_vars < 0:
            raise ValueError(f"n_vars must be nonnegative, got {n_vars}")
        self.n_vars = n_vars
        cleaned: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                exps = tuple(map(_integer, exps))
                if len(exps) != n_vars:
                    raise ValueError(
                        f"exponent tuple {exps} does not have {n_vars} entries"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = cleaned.get(exps, 0) + _integer(coeff)
                if coeff:
                    cleaned[exps] = coeff
                else:
                    cleaned.pop(exps, None)
        self.terms = cleaned

    @classmethod
    def _unchecked(cls, n_vars: int, terms: dict):
        """Wrap a dict of n_vars-long exponent tuples to nonzero ints as is."""
        out = cls.__new__(cls)
        out.n_vars = n_vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n_vars: int):
        return cls(n_vars)

    @classmethod
    def monomial(cls, n_vars: int, exponents, coeff: int = 1):
        return cls(n_vars, {tuple(exponents): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded reverse-lexicographic order, largest first."""
        return sorted(self.terms.items(), key=lambda kv: _grevlex_key(kv[0]))

    def scale(self, c: int):
        terms = {e: c * v for e, v in self.terms.items()} if c else {}
        return SparsePolynomial._unchecked(self.n_vars, terms)

    def _check_compatible(self, other):
        if not isinstance(other, SparsePolynomial):
            raise TypeError(f"expected SparsePolynomial, got {type(other).__name__}")
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"mixed variable counts: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        acc = dict(self.terms)
        for e, v in other.terms.items():
            s = acc.get(e, 0) + v
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return SparsePolynomial._unchecked(self.n_vars, acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        self._check_compatible(other)
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                acc[key] = get(key, 0) + c1 * c2
        return SparsePolynomial._unchecked(
            self.n_vars, {e: v for e, v in acc.items() if v}
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def evaluate(self, point: "EvalPoint") -> int:
        """Value at the point, reduced modulo the point's prime."""
        if len(point.values) != self.n_vars:
            raise ValueError(
                f"point has {len(point.values)} coordinates, need {self.n_vars}"
            )
        p = point.prime
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff % p
            for v, e in zip(point.values, exps):
                if e:
                    term = term * pow(v, e, p) % p
            total = (total + term) % p
        return total

    def __repr__(self):
        return f"SparsePolynomial({self.n_vars}, {self.terms!r})"


def h_poly(m: int, n_vars: int) -> SparsePolynomial:
    """Complete homogeneous sum of degree m: one term per exponent vector."""
    if m < 1:
        raise ValueError(f"degree must be positive, got {m}")
    return SparsePolynomial._unchecked(
        n_vars, dict.fromkeys(compositions(m, n_vars), 1)
    )


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


def plethysm_pr(g: SparsePolynomial, r: int) -> SparsePolynomial:
    """Substitute x_i -> x_i^r into g, i.e. multiply every exponent by r."""
    if r < 1:
        raise ValueError(f"substitution degree must be positive, got {r}")
    return SparsePolynomial._unchecked(
        g.n_vars,
        {tuple(e * r for e in exps): coeff for exps, coeff in g.terms.items()},
    )


def permutation_sign(perm) -> int:
    """Sign of a permutation of 0..n-1 in one-line form, from its cycle
    lengths: each cycle of even length flips it."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _permutation_signs(n: int) -> tuple[int, ...]:
    """Signs aligned with the iteration order of itertools.permutations."""
    return tuple(permutation_sign(p) for p in permutations(range(n)))


def _alternant_exponents(beta, max_vars: int) -> tuple[int, ...]:
    """beta as a tuple of nonnegative ints, within the max_vars guard."""
    beta = _integers(beta)
    if any(b < 0 for b in beta):
        raise ValueError(f"exponents must be nonnegative: {beta}")
    alternant_guard(len(beta), max_vars)
    return beta


def a_beta(beta, max_vars: int = 8) -> SparsePolynomial:
    """The alternant det(x_i^{beta_j}) expanded as a signed sum over
    permutations of beta.

    Zero when beta has a repeated entry.  Guarded at max_vars variables
    (the expansion has n! terms); pass a bigger max_vars deliberately.
    """
    beta = _alternant_exponents(beta, max_vars)
    n = len(beta)
    if len(set(beta)) < n:
        return SparsePolynomial.zero(n)
    return SparsePolynomial._unchecked(
        n, dict(zip(permutations(beta), _permutation_signs(n)))
    )


def straighten_product(beta, f: SparsePolynomial, max_vars: int = 8) -> dict:
    """a_beta * f for a symmetric f, in the alternant basis.

    Returns {v: c} with every v strictly decreasing and every c nonzero, so
    that a_beta * f == sum of c * a_v.  Each term c_a x^a of f contributes
    c_a * a_{beta+a} (Macdonald, Symmetric Functions and Hall Polynomials,
    I.3), and a_{beta+a} is sorted into decreasing order: zero on a repeated
    entry, else the sign of the sorting permutation times a_v.  No monomial
    of the n!-term alternants is built; each a_v stands for n! of them, with
    disjoint supports for distinct v.  f is not checked for symmetry.  The
    guard is a_beta's, so both exact routes trip at the same size.
    """
    beta = _alternant_exponents(beta, max_vars)
    n = len(beta)
    if f.n_vars != n:
        raise ValueError(f"f has {f.n_vars} variables, beta has {n} entries")
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        v = tuple(map(add, beta, exps))
        if len(set(v)) < n:
            continue
        order = sorted(range(n), key=v.__getitem__, reverse=True)
        key = tuple(v[i] for i in order)
        c = out.get(key, 0) + permutation_sign(order) * coeff
        if c:
            out[key] = c
        else:
            del out[key]
    return out


@dataclass(frozen=True, slots=True)
class EvalPoint:
    """Coordinates for modular evaluation, all reduced modulo `prime`."""

    values: tuple[int, ...]
    prime: ClassVar[int] = DEFAULT_PRIME

    def __post_init__(self):
        object.__setattr__(self, "values", _integers(self.values))
        if any(not 0 <= v < self.prime for v in self.values):
            raise ValueError("coordinates must lie in [0, prime)")

    @classmethod
    def _unchecked(cls, values: tuple[int, ...]) -> "EvalPoint":
        """Wrap a tuple of ints in [0, prime) as is."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        return out


def seeded_points(n_vars: int, count: int, seed: int) -> list[EvalPoint]:
    """Deterministic evaluation points: uniform coordinates from `seed`."""
    rng = random.Random(seed)
    return [
        EvalPoint._unchecked(tuple(rng.randrange(DEFAULT_PRIME) for _ in range(n_vars)))
        for _ in range(count)
    ]


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant of a square matrix modulo p, by elimination in place."""
    n = len(rows)
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


def _alternants_at(point: EvalPoint):
    """beta -> det(values_i ^ beta_j) modulo the point's prime, for every
    nonnegative beta with one entry per coordinate.

    Sorting beta into decreasing order costs the sign of the sort (a
    repeated entry gives 0) and leaves lam + delta.  Then
    a_{lam+delta} = a_delta * det(h_{lam_i-i+j}) = a_delta * det(e_{lam'_i-i+j})
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3.4-3.5), and
    the smaller of the two determinants is taken.  The Vandermonde a_delta
    and e_0..e_N are computed once per point; h_k grows by the recurrence
    h_k = sum_i (-1)^(i-1) e_i h_(k-i) as far as the largest beta asks.
    """
    p = point.prime
    values = point.values
    n = len(values)
    a_delta = 1
    for i, v in enumerate(values):
        for u in values[i + 1:]:
            a_delta = a_delta * (v - u) % p
    # e_k from the coefficients of prod (1 + v t).
    e = [1] + [0] * n
    for v in values:
        for k in range(n, 0, -1):
            e[k] = (e[k] + v * e[k - 1]) % p
    signed_e = [(-1) ** (i - 1) * e[i] for i in range(n + 1)]
    h = [1]

    def h_at(k):
        return h[k] if k >= 0 else 0

    def e_at(k):
        return e[k] if 0 <= k <= n else 0

    def alternant(beta) -> int:
        beta = _integers(beta)
        if len(beta) != n:
            raise ValueError(f"point has {n} coordinates, need {len(beta)}")
        if beta and min(beta) < 0:
            raise ValueError(f"exponents must be nonnegative: {beta}")
        order = sorted(range(n), key=beta.__getitem__, reverse=True)
        lam = [beta[j] - (n - 1 - i) for i, j in enumerate(order)]
        if any(a < b for a, b in zip(lam, lam[1:])):
            return 0
        while lam and lam[-1] == 0:
            lam.pop()
        width = lam[0] if lam else 0
        if len(lam) <= width:
            for k in range(len(h), width + len(lam)):
                h.append(
                    sum(signed_e[i] * h[k - i] for i in range(1, min(k, n) + 1)) % p
                )
            parts, entry = lam, h_at
        else:
            parts = [sum(1 for a in lam if a > j) for j in range(width)]
            entry = e_at
        size = len(parts)
        rows = [
            [entry(parts[i] - i + j) for j in range(size)] for i in range(size)
        ]
        return permutation_sign(order) * a_delta * _det_mod(rows, p) % p

    return alternant


def a_beta_eval(beta, point: EvalPoint) -> int:
    """det(values_i ^ beta_j) modulo the point's prime, as a_delta times a
    Jacobi-Trudi determinant (see _alternants_at).  Exponents must be
    nonnegative."""
    return _alternants_at(point)(beta)


def h_eval(values, m: int) -> int:
    """Complete homogeneous sum of degree m at the given coordinates, modulo
    DEFAULT_PRIME.

    h_0..h_m open the series prod_v 1/(1 - v*t); the factor of each
    coordinate v is h_k += v * h_(k-1) for k = 1..m in turn.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    prime = DEFAULT_PRIME
    h = [1] + [0] * m
    for v in _integers(values):
        for k in range(1, m + 1):
            h[k] = (h[k] + v * h[k - 1]) % prime
    return h[m]


def staircase(n_vars: int) -> tuple[int, ...]:
    """(n-1, n-2, ..., 1, 0)."""
    return tuple(range(n_vars - 1, -1, -1))


def shifted_beta(parts, n_vars: int) -> tuple[int, ...]:
    """Exponent vector part_i + n - i for i = 1..n, with missing parts zero."""
    parts = tuple(parts)
    if len(parts) > n_vars:
        raise ValueError(
            f"{len(parts)} parts do not fit in {n_vars} variables"
        )
    return tuple(
        (parts[i - 1] if i <= len(parts) else 0) + n_vars - i
        for i in range(1, n_vars + 1)
    )
