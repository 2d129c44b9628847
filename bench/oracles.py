"""Checks of gausslab's outputs, computed apart from gausslab.

Each checker takes the op (with the facts its inputs were built from), the
exit code and the parsed JSON document, and returns a list of problems; an
empty list means the output is right.  Nothing here imports gausslab, and no
copy of an earlier output is stored: every expected value is recomputed
from the definitions with plain loops.
"""

from __future__ import annotations

import math

from workloads import eulerian_row, gaussian_coeffs

# -- sequence shapes, by plain loops ----------------------------------------------


def unimodal(c: list[int]) -> bool:
    peak = c.index(max(c)) if c else 0
    rising = all(c[i] <= c[i + 1] for i in range(peak))
    falling = all(c[i] >= c[i + 1] for i in range(peak, len(c) - 1))
    return rising and falling


def log_concave(c: list[int]) -> bool:
    return all(c[k] * c[k] >= c[k - 1] * c[k + 1] for k in range(1, len(c) - 1))


def palindromic(c: list[int], center: int) -> bool:
    padded = c + [0] * (center + 1 - len(c))
    return len(c) <= center + 1 and padded == padded[::-1]


def gamma_expand(gammas: list[int], n: int) -> list[int]:
    """sum_k gamma_k X^k (1 + X)^(n - 2k), as a coefficient list of length n + 1."""
    out = [0] * (n + 1)
    for k, g in enumerate(gammas):
        for t in range(n - 2 * k + 1):
            out[k + t] += g * math.comb(n - 2 * k, t)
    return out


def _ints(strings) -> list[int] | None:
    if not isinstance(strings, list) or not all(isinstance(s, str) for s in strings):
        return None
    return [int(s) for s in strings]


# -- gauss ------------------------------------------------------------------------


def check_gauss(op: dict, rc, doc: dict) -> list[str]:
    a, b = op["a"], op["b"]
    where = f"gauss {a} {b} --method {op['method']}"
    if rc != 0:
        return [f"{where}: exit code {rc}"]
    problems = []
    for key, want in (("command", "gauss"), ("a", a), ("b", b), ("method", op["method"])):
        if doc.get(key) != want:
            problems.append(f"{where}: {key} is {doc.get(key)!r}")
    coeffs = _ints(doc.get("coeffs"))
    if coeffs is None:
        return problems + [f"{where}: coeffs missing"]
    if coeffs != gaussian_coeffs(a, b):
        problems.append(f"{where}: coefficients differ from the product formula")
    if sum(coeffs) != math.comb(a + b, a):
        problems.append(f"{where}: coefficients sum to {sum(coeffs)}, not C({a + b},{a})")
    if len(coeffs) != a * b + 1 or not palindromic(coeffs, a * b):
        problems.append(f"{where}: not palindromic of degree {a * b}")
    if not unimodal(coeffs):
        problems.append(f"{where}: not unimodal")
    return problems


# -- certify ----------------------------------------------------------------------


def check_check(op: dict, rc, doc: dict) -> list[str]:
    where = f"check ({op['family']}, degree {len(op['coeffs']) - 1})"
    c = op["coeffs"]
    if _ints(doc.get("coeffs")) != c:
        return [f"{where}: echoed coefficients differ from the input"]
    center = len(c) - 1
    if doc.get("center") != center:
        return [f"{where}: center {doc.get('center')!r}, not {center}"]
    checks = doc.get("checks") or {}
    is_palindromic = palindromic(c, center)
    want = {
        "unimodal": unimodal(c),
        "mode": c.index(max(c)) if unimodal(c) else None,
        "log_concave": log_concave(c),
        "palindromic": is_palindromic,
        "real_rooted": op["real_rooted"],
    }
    problems = [
        f"{where}: {key} is {checks.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if checks.get(key, "missing") != value
    ]
    if is_palindromic:
        gammas = _ints(checks.get("gamma"))
        if gammas is None or gamma_expand(gammas, center) != c:
            problems.append(f"{where}: gamma vector does not re-expand to the input")
        elif checks.get("gamma_nonnegative") != all(g >= 0 for g in gammas):
            problems.append(f"{where}: gamma_nonnegative disagrees with the gammas")
    elif checks.get("gamma") is not None or checks.get("gamma_nonnegative") is not False:
        problems.append(f"{where}: gamma reported for a non-palindromic input")
    expected_rc = 0 if all(v is not False for v in checks.values()) else 1
    if rc != expected_rc:
        problems.append(f"{where}: exit code {rc}, expected {expected_rc}")
    return problems


def check_eulerian(op: dict, rc, doc: dict) -> list[str]:
    n = op["n"]
    where = f"eulerian {n}"
    problems = [] if rc == 0 else [f"{where}: exit code {rc}"]
    coeffs = _ints(doc.get("coeffs")) or []
    if sum(coeffs) != math.factorial(n):
        problems.append(f"{where}: coefficients do not sum to {n}!")
    if coeffs != eulerian_row(n):
        problems.append(f"{where}: coefficients differ from the closed form")
    # Eulerian polynomials are palindromic, gamma-nonnegative, real-rooted
    # and unimodal, and their coefficients sum to n!.
    checks = doc.get("checks") or {}
    for key in (
        "palindromic",
        "unimodal",
        "real_rooted",
        "coefficient_sum_is_factorial",
        "gamma_nonnegative",
    ):
        if checks.get(key) is not True:
            problems.append(f"{where}: {key} is {checks.get(key)!r}")
    return problems


# -- report -------------------------------------------------------------------------

RULES = ("ColumnFill", "RowFillTranspose", "MinBaseValue", "MaxWt")


def _level(a: int, b: int, k: int) -> list[tuple[int, ...]]:
    """Weight-k partitions with a parts in [0, b], ascending lexicographically."""
    out = []

    def rec(prefix: list[int], cap: int, left: int, slots: int) -> None:
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(cap, left) + 1):
            if left - v <= v * (slots - 1):
                prefix.append(v)
                rec(prefix, v, left - v, slots - 1)
                prefix.pop()

    for first in range(min(b, k) + 1):
        if k - first <= first * (a - 1):
            rec([first], first, k - first, a - 1)
    return out


def _increments(p: tuple[int, ...], b: int) -> list[tuple[int, ...]]:
    """Partitions one cell above p: add 1 to one part, staying decreasing in the box."""
    out = []
    for i, x in enumerate(p):
        if x < (b if i == 0 else p[i - 1]):
            out.append(p[:i] + (x + 1,) + p[i + 1:])
    return out


def _conjugate(p: tuple[int, ...], width: int) -> tuple[int, ...]:
    return tuple(sum(1 for x in p if x > j) for j in range(width))


def _column_fill(p: tuple[int, ...], b: int) -> tuple[int, ...]:
    j = next(i for i, x in enumerate(p) if x < b)
    return p[:j] + (p[j] + 1,) + p[j + 1:]


def apply_rule(rule: str, p: tuple[int, ...], b: int):
    """The rule's image of p, or None where its choice ties."""
    a = len(p)
    if rule == "ColumnFill":
        return _column_fill(p, b)
    if rule == "RowFillTranspose":
        return _conjugate(_column_fill(_conjugate(p, b), a), a)
    candidates = _increments(p, b)
    if rule == "MinBaseValue":
        # The first part is the most significant base-(b+1) digit, so the
        # smallest value raises the last part that can be raised.
        return candidates[-1]
    weights = [max((i + 1) * x for i, x in enumerate(c)) for c in candidates]
    if weights.count(max(weights)) > 1:
        return None
    return candidates[weights.index(max(weights))]


def audit(rule: str, a: int, b: int) -> dict:
    """First collision or tie of a rule below the middle level, as report prints it."""
    middle = a * b // 2
    entry = {"rule": rule, "a": a, "b": b, "outcome": "InjectiveUpToMiddle", "k": None,
             "witnesses": [], "image": None, "candidates": [], "levels_checked": middle}
    for k in range(middle):
        seen: dict = {}
        for p in _level(a, b, k):
            image = apply_rule(rule, p, b)
            if image is None:
                return dict(entry, outcome="Undefined", k=k, witnesses=[list(p)],
                            candidates=[list(c) for c in _increments(p, b)],
                            levels_checked=k + 1)
            if image in seen:
                return dict(entry, outcome="Collision", k=k,
                            witnesses=[list(seen[image]), list(p)], image=list(image),
                            levels_checked=k + 1)
            seen[image] = p
    return entry


def _audit_shape(entry: dict) -> list[str]:
    """Witnesses on one level k below ab/2; collisions distinct, image one cell up."""
    a, b, k = entry.get("a"), entry.get("b"), entry.get("k")
    where = f"audit {entry.get('rule')} ({a},{b})"
    witnesses = [tuple(w) for w in entry.get("witnesses") or []]
    outcome = entry.get("outcome")
    if outcome == "InjectiveUpToMiddle":
        return [] if not witnesses else [f"{where}: witnesses on a clean audit"]
    if not isinstance(k, int) or not 2 * k < a * b:
        return [f"{where}: level {k!r} is not below ab/2"]
    problems = []
    for w in witnesses:
        if len(w) != a or sum(w) != k or any(x > y for x, y in zip(w[1:], w)) or w[0] > b:
            problems.append(f"{where}: witness {list(w)} is not a level-{k} partition")
    if outcome == "Collision":
        image = tuple(entry.get("image") or ())
        if len(witnesses) != 2 or witnesses[0] == witnesses[1]:
            problems.append(f"{where}: collision without two distinct witnesses")
        elif any(image not in _increments(w, b) for w in witnesses):
            problems.append(f"{where}: image {list(image)} is not one cell above each witness")
    elif outcome == "Undefined":
        if len(witnesses) != 1:
            problems.append(f"{where}: undefined input without one witness")
    else:
        problems.append(f"{where}: unknown outcome {outcome!r}")
    return problems


def expected_verdict(rule: str, a: int, b: int) -> set[str]:
    """Claim verdicts as the acceptance criteria state them."""
    middle = a * b // 2
    if rule == "ColumnFill":
        return {"Confirmed"} if a >= 2 and b >= 2 and 2 * b - 2 < middle else {"NotApplicable"}
    if rule == "RowFillTranspose":
        return {"Confirmed"} if a >= 2 and b >= 2 and 2 * a - 2 < middle else {"NotApplicable"}
    if rule == "MinBaseValue":
        return {"NotAFailure"} if a >= 3 and b >= 2 and b < middle else {"NotApplicable"}
    return {"Confirmed"} if a >= 2 and b >= 2 else {"NotAFailure", "NotApplicable"}


def check_report(op: dict, rc, doc: dict) -> list[str]:
    argv = op["argv"]
    amax, bmax = int(argv[argv.index("--amax") + 1]), int(argv[argv.index("--bmax") + 1])
    problems = [] if rc == 0 else [f"report: exit code {rc}"]
    if doc.get("command") != "report" or (doc.get("amax"), doc.get("bmax")) != (amax, bmax):
        return problems + ["report: wrong command or box range"]
    sections = doc.get("sections") or {}
    boxes = [(a, b) for a in range(1, amax + 1) for b in range(1, bmax + 1)]

    grid = sections.get("gaussian", {}).get("grid") or []
    if [(c.get("a"), c.get("b")) for c in grid] != boxes:
        problems.append("report: the Gaussian grid does not cover every box once")
    for cell in grid:
        a, b = cell.get("a"), cell.get("b")
        if cell.get("four_way_agreement") is not True:
            problems.append(f"report: G({a},{b}) routes disagree")
        if cell.get("unimodal") is not True:
            problems.append(f"report: G({a},{b}) not unimodal")
        if cell.get("darga") != a * b:
            problems.append(f"report: darga of G({a},{b}) is {cell.get('darga')!r}")
        if cell.get("stated_rule_agrees") is not (a == b):
            problems.append(f"report: stated rule agreement wrong at ({a},{b})")

    injections = sections.get("injections", {})
    audits = injections.get("audits") or []
    keys = [(rule, a, b) for rule in RULES for a, b in boxes]
    if [(e.get("rule"), e.get("a"), e.get("b")) for e in audits] != keys:
        problems.append("report: audits do not cover every rule and box once")
    for entry in audits:
        problems += _audit_shape(entry)
        rule, a, b = entry.get("rule"), entry.get("a"), entry.get("b")
        if rule in RULES and entry != audit(rule, a, b):
            problems.append(f"report: audit {rule} ({a},{b}) differs from a fresh audit")
        if rule == "MaxWt" and a >= 2 and b >= 2:
            first = [1] + [0] * (a - 1)
            if (entry.get("outcome"), entry.get("k"), entry.get("witnesses")) != (
                "Undefined", 1, [first]
            ):
                problems.append(f"report: MaxWt ({a},{b}) is not undefined at k=1 on {first}")

    claims = injections.get("claims") or []
    if [(c.get("rule"), c.get("a"), c.get("b")) for c in claims] != keys:
        problems.append("report: claims do not cover every rule and box once")
    by_key = {(e.get("rule"), e.get("a"), e.get("b")): e for e in audits}
    for claim in claims:
        key = (claim.get("rule"), claim.get("a"), claim.get("b"))
        where = f"claim {key[0]} ({key[1]},{key[2]})"
        if key[0] not in RULES:
            continue
        verdict = claim.get("verdict")
        if verdict not in expected_verdict(*key):
            problems.append(f"{where}: verdict {verdict!r}")
        if claim.get("first_failure") != by_key.get(key):
            problems.append(f"{where}: first failure differs from the audit")
        at_level = None
        if verdict != "NotApplicable":
            at_level = (claim.get("first_failure") or {}).get("k") == claim.get("claimed_k")
        if claim.get("first_failure_at_claimed_level") is not at_level:
            problems.append(f"{where}: first_failure_at_claimed_level is wrong")

    posets = sections.get("posets", {})
    sperner = posets.get("sperner_n4") or {}
    # Dedekind's M(4) = 168 antichains; the middle layer C(4,2) = 6 is the
    # only one of largest size.
    if (sperner.get("max_size"), sperner.get("num_maximum"), sperner.get("total_antichains")) != (
        "6", "1", "168"
    ):
        problems.append(f"report: Sperner n=4 gives {sperner}")
    for section in ("posets", "paths"):
        flags = {k: v for k, v in sections.get(section, {}).items() if isinstance(v, bool)}
        if not flags or not all(flags.values()):
            problems.append(f"report: {section} section has a false flag: {flags}")
    for section in ("gaussian", "injections"):
        if sections.get(section, {}).get("pass") is not True:
            problems.append(f"report: {section} section does not pass")
    if doc.get("pass") is not True:
        problems.append("report: overall pass is not true")
    return problems


CHECKERS = {
    "report": check_report,
    "gauss": check_gauss,
    "check": check_check,
    "eulerian": check_eulerian,
}
