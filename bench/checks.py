"""Checks of plethax outputs that share no code with plethax.

Nothing here imports plethax.  Every function takes plain data (tuples,
dicts, the text a command printed) and raises CheckError when the output is
wrong.  The checks rest on facts proved independently of the paper's
abacus argument:

- principal specialization: s_lam(1, q, ..., q^(n-1)) is given by the
  hook-content formula, and h_m(1, t, ..., t^(n-1)) is the Gaussian binomial
  [n+m-1, m] at t, so for t = q^r the expansion of s_mu * (p_r o h_m) must
  specialize to s_mu(...) * [n+m-1, m]_{q^r};
- the exponential specialization (p_1 -> 1, p_k -> 0 for k >= 2) sends s_lam
  to f^lam / |lam|!, and p_r o h_m to 0 when r >= 2 and to 1/m! when r = 1;
- a chain of border strips can be read off cell by cell;
- the scanning process can be replayed slot by slot from its definition.
"""

import re
from math import comb, factorial, prod


class CheckError(AssertionError):
    """An output of the program is wrong."""


def fail(message):
    raise CheckError(message)


def require(condition, message):
    if not condition:
        fail(message)


# -- partitions ------------------------------------------------------------


def is_partition(parts) -> bool:
    return all(p > 0 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def conjugate(parts) -> tuple:
    return tuple(
        sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)
    )


def hook_lengths(parts) -> list:
    conj = conjugate(parts)
    return [
        parts[i] - j + conj[j] - i - 1
        for i in range(len(parts))
        for j in range(parts[i])
    ]


def standard_tableaux(parts) -> int:
    """f^lam by the hook-length formula."""
    return factorial(sum(parts)) // prod(hook_lengths(parts))


def principal_schur(parts, n: int, q: int) -> int:
    """s_lam(1, q, ..., q^(n-1)) by the hook-content formula."""
    if len(parts) > n:
        return 0
    num = q ** sum(i * p for i, p in enumerate(parts))
    for i, p in enumerate(parts):
        for j in range(p):
            num *= q ** (n + j - i) - 1
    den = prod(q**h - 1 for h in hook_lengths(parts))
    value, rest = divmod(num, den)
    require(rest == 0, f"hook-content quotient of {parts} is not integral")
    return value


def gaussian_binomial(a: int, b: int, t: int) -> int:
    """[a, b] evaluated at the integer t >= 2."""
    num = prod(t ** (a - b + i) - 1 for i in range(1, b + 1))
    den = prod(t**i - 1 for i in range(1, b + 1))
    return num // den


def check_expansion(terms, mu, factors, qs=(2, 3)):
    """Check a signed Schur expansion of s_mu * prod (p_r o h_m).

    terms: (parts, coeff) pairs; factors: (r, m) pairs, one per plethysm
    factor.  Checks shapes and degrees, the principal specialization at each
    q in qs, and the hook-length sum.
    """
    mu = tuple(mu)
    degree = sum(mu) + sum(r * m for r, m in factors)
    shapes = set()
    for parts, coeff in terms:
        parts = tuple(parts)
        require(is_partition(parts), f"{parts} is not a partition")
        require(sum(parts) == degree, f"{parts} does not have size {degree}")
        require(coeff != 0, f"zero coefficient on {parts}")
        require(parts not in shapes, f"{parts} appears twice")
        shapes.add(parts)
    n = max(degree, 1)
    for q in qs:
        got = sum(c * principal_schur(tuple(p), n, q) for p, c in terms)
        want = principal_schur(mu, n, q) * prod(
            gaussian_binomial(n + m - 1, m, q**r) for r, m in factors
        )
        require(got == want, f"principal specialization at q={q}: {got} != {want}")
    got = sum(c * standard_tableaux(tuple(p)) for p, c in terms)
    if any(r >= 2 for r, _ in factors):
        want = 0
    else:
        want = (
            standard_tableaux(mu)
            * factorial(degree)
            // (factorial(sum(mu)) * prod(factorial(m) for _, m in factors))
        )
    require(got == want, f"hook-length sum {got} != {want}")


# -- the benchmark's own expansion support --------------------------------


def supersets(mu, r: int, m: int) -> dict:
    """Shapes reached from mu by m r-strips with weakly decreasing tops,
    with the chain sign: the support of s_mu * (p_r o h_m).

    Works on bead positions: adding a strip moves one bead r slots right,
    the strip's top row is the bead's rank after the move, and the strip's
    height is the number of beads jumped.
    """
    n = len(mu) + r * m
    start = tuple(
        (mu[j] if j < len(mu) else 0) + n - 1 - j for j in range(n)
    )
    found = {}

    def extend(pos, left, max_top, sign):
        if left == 0:
            found[shape_of(pos)] = sign
            return
        occupied = set(pos)
        for y in pos:
            target = y + r
            if target in occupied:
                continue
            jumped = sum(1 for q in pos if y < q < target)
            top = 1 + sum(1 for q in pos if q > target)
            if top > max_top:
                continue
            moved = tuple(sorted((occupied - {y}) | {target}, reverse=True))
            extend(moved, left - 1, top, -sign if jumped % 2 else sign)

    extend(start, m, n, 1)
    return found


def shape_of(positions) -> tuple:
    desc = sorted(positions, reverse=True)
    n = len(desc)
    return tuple(p for p in (desc[j] - (n - 1 - j) for j in range(n)) if p)


def monomials_of_alternant_sum(support, n: int) -> int:
    """Monomial count of sum_lam (+-1) a_{lam+delta} in n variables.

    The alternants of distinct shapes have disjoint supports of n! monomials
    each, and shapes with more than n rows vanish.
    """
    return factorial(n) * sum(1 for lam in support if len(lam) <= n)


def check_symbolic_report(report, support, n: int):
    """report: dict with ok, terms, detail of verify_against_oracle(symbolic)."""
    require(report["ok"] is True, f"symbolic verify failed: {report['detail']}")
    if "terms" in report:  # the plain output does not print it
        require(report["terms"] == len(support), f"{report['terms']} terms, want {len(support)}")
    want = monomials_of_alternant_sum(support, n)
    require(
        report["detail"] == f"exact match on {want} monomials",
        f"detail {report['detail']!r}, want {want} monomials",
    )


def check_process_report(report, support, n: int, m: int):
    """report: dict with ok, pairs, aborted, completed of verify_process_identity."""
    require(report["ok"] is True, f"process verify failed: {report.get('detail')}")
    pairs = factorial(n) * comb(m + n - 1, n - 1)
    require(report["pairs"] == pairs, f"{report['pairs']} pairs, want {pairs}")
    require(report["aborted"] % 2 == 0, f"odd aborted count {report['aborted']}")
    completed = monomials_of_alternant_sum(support, n)
    require(
        report["completed"] == completed,
        f"{report['completed']} completed pairs, want {completed}",
    )
    require(
        report["aborted"] + report["completed"] == pairs,
        "aborted and completed pairs do not add up",
    )


# -- strip chains ----------------------------------------------------------


def check_chain(outer, inner, r: int, sign: int, chain, want_sign: int):
    """chain: dict with shapes, tops, bottoms, strip_signs (as printed) of a
    skew shape that has a chain, whose sign the benchmark found to be
    want_sign."""
    require(sign == want_sign and chain is not None, f"sign {sign}, want {want_sign}")
    shapes = [tuple(s) for s in chain["shapes"]]
    tops, bottoms, signs = chain["tops"], chain["bottoms"], chain["strip_signs"]
    d = len(shapes) - 1
    require(shapes[0] == tuple(inner), f"chain starts at {shapes[0]}, not {inner}")
    require(shapes[-1] == tuple(outer), f"chain ends at {shapes[-1]}, not {outer}")
    require(len(tops) == len(bottoms) == len(signs) == d, "chain lists differ in length")
    for k in range(d):
        small, big = shapes[k], shapes[k + 1]
        require(is_partition(big), f"{big} is not a partition")
        rows = max(len(small), len(big))
        row = lambda lam, i: lam[i] if i < len(lam) else 0  # noqa: E731
        cells = set()
        for i in range(rows):
            require(row(small, i) <= row(big, i), f"{small} is not inside {big}")
            cells.update((i, j) for j in range(row(small, i), row(big, i)))
        require(len(cells) == r, f"step {k + 1} adds {len(cells)} cells, not {r}")
        require(
            not any((i + 1, j + 1) in cells for i, j in cells),
            f"step {k + 1} holds a 2x2 block",
        )
        seen, frontier = set(), [min(cells)]
        while frontier:
            i, j = frontier.pop()
            if (i, j) in seen:
                continue
            seen.add((i, j))
            frontier.extend(
                c for c in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)) if c in cells
            )
        require(seen == cells, f"step {k + 1} is not connected")
        top = min(i for i, _ in cells) + 1
        bottom = max(i for i, _ in cells) + 1
        require(tops[k] == top and bottoms[k] == bottom, f"step {k + 1} rows misreported")
        require(signs[k] == (-1) ** (bottom - top), f"step {k + 1} sign misreported")
        if k:
            require(tops[k] <= tops[k - 1], "tops do not weakly decrease")
    require(prod(signs) == sign, "sign is not the product of the strip signs")


# -- the scanning process ----------------------------------------------------


def abacus_sign(positions: dict) -> int:
    """Sign of the labels read from the rightmost bead to the leftmost."""
    labels = [b for _, b in sorted(((p, b) for b, p in positions.items()), reverse=True)]
    inversions = sum(
        1 for i in range(len(labels)) for j in range(i + 1, len(labels)) if labels[i] > labels[j]
    )
    return -1 if inversions % 2 else 1


def replay(positions: dict, beta, r: int):
    """Run the scanning process from its definition.

    Returns ("successful", final positions) or ("collided", bead, blocker,
    slot) where slot is the scan position of the blocked bead.
    """
    at = {p: b for b, p in positions.items()}
    left = list(beta)
    remaining = sum(left)
    if remaining == 0:
        return ("successful", dict(positions))
    i, limit = 0, max(at) + r * remaining
    while i <= limit:
        bead = at.get(i)
        if bead and left[bead - 1]:
            if i + r in at:
                return ("collided", bead, at[i + r], i)
            del at[i]
            at[i + r] = bead
            left[bead - 1] -= 1
            remaining -= 1
            if remaining == 0:
                return ("successful", {b: p for p, b in at.items()})
        i += 1
    fail("scan ended with budget left")


def check_trace(positions: dict, beta, r: int, printed: dict):
    """printed: outcome, and final (successful) or collision and the
    epsilon partner (unsuccessful), as label -> position dicts."""
    n = len(positions)
    outcome = replay(positions, beta, r)
    require(printed["outcome"] == outcome[0], f"outcome {printed['outcome']}, want {outcome[0]}")
    weight = {b: positions[b] + r * beta[b - 1] for b in positions}
    if outcome[0] == "successful":
        final = printed["final"]
        require(final == weight, "final abacus does not conserve weight")
        return
    require(printed["collision"] == outcome[1:], f"collision {printed['collision']}, want {outcome[1:]}")
    partner, partner_beta = printed["epsilon"]
    require(len(partner_beta) == n and min(partner_beta) >= 0, "bad partner budget")
    require(sorted(partner.values()) == sorted(positions.values()), "partner moved the slots")
    require(
        {b: partner[b] + r * partner_beta[b - 1] for b in partner} == weight,
        "partner does not conserve weight",
    )
    require(abacus_sign(partner) == -abacus_sign(positions), "partner keeps the sign")
    again = replay(partner, partner_beta, r)
    require(
        again[0] == "collided" and again[3] == outcome[3] and {again[1], again[2]} == {outcome[1], outcome[2]},
        "partner does not abort at the same slot with the same beads",
    )


# -- reading printed output --------------------------------------------------


def parse_parts(text: str) -> tuple:
    """'(3,1)' or '3,1' or '' -> (3, 1)."""
    body = text.strip().strip("()")
    return tuple(int(t) for t in body.split(",") if t.strip())


_PLAIN_TERM = re.compile(r"([+-]?)\s*(?:(\d+)\*)?s\[([\d,]*)\]")
_LATEX_TERM = re.compile(r"([+-]?)\s*(?:(\d+)\\,)?s_\{\(([\d,]*)\)\}")


def parse_expansion(text: str, fmt: str) -> list:
    """Terms of an expansion printed by `expand` in plain or latex format."""
    text = text.strip()
    if text == "0":
        return []
    pattern = _PLAIN_TERM if fmt == "plain" else _LATEX_TERM
    terms, consumed = [], 0
    for match in pattern.finditer(text):
        require(not text[consumed:match.start()].strip(), f"unparsed output {text!r}")
        sign, coeff, parts = match.groups()
        value = int(coeff) if coeff else 1
        terms.append((parse_parts(parts), -value if sign == "-" else value))
        consumed = match.end()
    require(terms and not text[consumed:].strip(), f"unparsed output {text!r}")
    return terms


def parse_sgn_plain(text: str):
    """(sign, chain dict or None) from the plain output of `sgn`."""
    lines = text.strip().splitlines()
    sign = int(lines[0])
    if sign == 0:
        return 0, None
    shapes = [list(parse_parts(s)) for s in lines[1].removeprefix("chain: ").split(" -> ")]
    tops, bottoms, signs = [], [], []
    for line in lines[2:]:
        match = re.fullmatch(r"strip \d+: top (\d+) bottom (\d+) sign ([+-]\d)", line)
        require(match is not None, f"unparsed line {line!r}")
        tops.append(int(match[1]))
        bottoms.append(int(match[2]))
        signs.append(int(match[3]))
    return sign, {"shapes": shapes, "tops": tops, "bottoms": bottoms, "strip_signs": signs}


def parse_pairs(text: str) -> dict:
    """'pos:label,...' -> {label: position}."""
    out = {}
    for chunk in text.split(","):
        pos, label = chunk.split(":")
        out[int(label)] = int(pos)
    return out


def parse_render(text: str) -> dict:
    """A dotted runner picture of at most 9 beads -> {label: position}."""
    return {int(t): i for i, t in enumerate(text) if t != "."}


def parse_trace_plain(text: str) -> dict:
    lines = text.strip().splitlines()
    fields = {}
    for line in lines:
        key, _, value = line.partition(": ")
        fields[key] = value
    if "final" in fields:
        return {"outcome": "successful", "final": parse_render(fields["final"])}
    match = re.search(r"at i=(\d+): bead (\d+) collides with bead (\d+)", text)
    require(match is not None, "no outcome line")
    return {
        "outcome": "collided",
        "collision": (int(match[2]), int(match[3]), int(match[1])),
        "epsilon": (
            parse_render(fields["epsilon abacus"]),
            parse_parts(fields["epsilon beta"]),
        ),
    }


def parse_trace_json(result: dict) -> dict:
    if result["outcome"] == "successful":
        return {"outcome": "successful", "final": parse_pairs(result["final"])}
    c = result["collision"]
    return {
        "outcome": "collided",
        "collision": (c["bead"], c["blocker"], c["position"]),
        "epsilon": (parse_pairs(result["epsilon"]["abacus"]), tuple(result["epsilon"]["beta"])),
    }
