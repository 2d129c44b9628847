"""Command-line surface: every verification as a subcommand with JSON output.

All subcommands are thin adapters over the library; no combinatorial logic
lives here.  Output JSON is deterministic (stable key order, big integers as
decimal strings, no timestamps), so identical invocations are byte-identical.

Each handler returns its JSON fields and whether its checked property holds;
``main`` alone writes the one JSON document, with ``v`` and ``command``, to stdout
and picks the exit code: 0 the property holds, 1 it is false, 2 a usage, domain or
output error (``ValueError``, ``OverflowError`` or ``OSError``), 3 a predicted size
past its limit, refused before any handler runs (``_admit``).  ``report`` and
``injection-audit`` print one injections section and fail on its verdict.
``check`` prints the ``criteria.shape_checks`` fields of the tests its flags name
(all five by default), and ``eulerian`` all of them; symmetry is about half the
darga, a polynomial's one center.  Exit 2 covers an
empty box range, ``gauss --koh-rule`` or ``--terms`` without ``--method koh``,
``stirling n`` and ``bruhat n`` with n < 1, ``lym n`` with n < 0, malformed or too
deeply nested JSON, ``check`` of the zero polynomial, which has no darga, an
overflowed packed slot, and a stdout that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import criteria, injectlab, pathlab, polycore, posetlab, qgauss
from .polycore import IntPoly

SCHEMA_VERSION = 1

# What a handler returns: its JSON fields and whether its checked property holds.
Result = tuple[dict, bool]


def _parse_json(text: str, what: str):
    """``text`` as JSON; a malformed or too deeply nested one is a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} not valid JSON: {exc}") from exc


def _parse_coeffs(text: str) -> IntPoly:
    data = _parse_json(text, "coefficients are")
    if not isinstance(data, list):
        raise ValueError("coefficients must be a JSON array")
    return IntPoly.from_json(data)


# -- gauss -----------------------------------------------------------------------


def _cmd_gauss(args) -> Result:
    a, b = args.a, args.b
    if args.method != "koh" and (args.koh_rule or args.terms):
        raise ValueError("--koh-rule and --terms need --method koh")
    body = {"a": a, "b": b, "method": args.method}
    if args.method == "quotient":
        poly = qgauss.gaussian_quotient(a, b)
    elif args.method == "pascal":
        poly = qgauss.gaussian_pascal(a, b)
    elif args.method == "enum":
        poly = qgauss.level_counts(a, b)
    else:
        rule = args.koh_rule or "calibrated"
        poly, terms = qgauss.koh_sum(a, b, qgauss.KOH_RULES[rule])
        body["rule"] = rule
        if args.terms:
            body["terms"] = [t.to_json_dict() for t in terms]
    body["coeffs"] = poly.to_json()
    return body, True


# -- check -----------------------------------------------------------------------


def _cmd_check(args) -> Result:
    poly = _parse_coeffs(args.coeffs)
    if poly.is_zero:
        # Refused whatever the flags: zero has no darga, so no center.
        raise ValueError("check needs a nonzero polynomial")
    names = [name for name in criteria.SHAPE_TESTS if getattr(args, name)] or criteria.SHAPE_TESTS
    checks = criteria.shape_checks(poly, names)
    body = {"coeffs": poly.to_json(), "center": polycore.darga(poly), "checks": checks}
    return body, criteria.holds(checks)


# -- injection audits --------------------------------------------------------------


def _box_range(args) -> tuple[int, int]:
    """``--amax`` and ``--bmax``, refused if the range is empty."""
    if args.amax < 1 or args.bmax < 1:
        raise ValueError(f"need --amax and --bmax >= 1, got {args.amax} and {args.bmax}")
    return args.amax, args.bmax


def _injections(amax: int, bmax: int, rules: tuple) -> dict:
    """The injections section of ``report`` and ``injection-audit``: each rule's
    audit of every box in range, the documented claim replayed on each audit,
    and the verdict over both."""
    audits = injectlab.audit_all(amax, bmax, rules)
    claims = [injectlab.check_claim(r) for r in audits]
    return {
        "audits": [dataclasses.asdict(r) for r in audits],
        "claims": [dataclasses.asdict(c) for c in claims],
        "pass": criteria.injections_hold(audits, claims),
    }


def _cmd_injection_audit(args) -> Result:
    amax, bmax = _box_range(args)
    rules = injectlab.RULES if args.rule == "all" else (injectlab.RULES[int(args.rule) - 1],)
    section = _injections(amax, bmax, rules)
    return {"amax": amax, "bmax": bmax, **section}, section["pass"]


# -- poset commands ------------------------------------------------------------------


def _antichain_summary(search: posetlab.SpernerSearch) -> dict:
    return {
        "max_size": str(search.max_size),
        "num_maximum": str(search.num_maximum),
        "total_antichains": str(search.total_antichains),
    }


def _cmd_sperner(args) -> Result:
    n = args.n
    # C(n, floor(n/2)) = C(n, ceil(n/2)): both middle layers have the bound's size.
    bound = str(posetlab.sperner_bound(n))
    body = {"n": n, "bound": bound, "middle_layer_sizes": [bound, bound]}
    if not args.exhaustive:
        return body, True
    search = posetlab.max_antichain(n)
    body["exhaustive"] = {**_antichain_summary(search), "bound_holds": search.bound_holds}
    return body, criteria.sperner_holds(search)


def _cmd_lym(args) -> Result:
    family = _parse_json(args.antichain, "antichain is")
    if not isinstance(family, list) or not all(
        isinstance(subset, list) and all(type(x) is int for x in subset) for subset in family
    ):
        raise ValueError("antichain must be a JSON array of arrays of integers")
    total = posetlab.lym_sum(family, args.n)
    body = {
        "n": args.n,
        "sum": f"{total.numerator}/{total.denominator}",
        "bound_holds": total <= 1,
        "tight": total == 1,
    }
    return body, total <= 1


def _cmd_bruhat(args) -> Result:
    # The weak order's rank is inv, so its rank histogram is the inversion polynomial.
    hist = posetlab.inversion_polynomial(args.n)
    holds = hist == qgauss.q_factorial(args.n)
    body = {
        "n": args.n,
        "rank_histogram": hist.to_json(),
        "matches_q_factorial": holds,
        "num_covers": posetlab.weak_order_covers(args.n),
    }
    return body, holds


def _cmd_stirling(args) -> Result:
    row = posetlab.stirling_row(args.n)
    unimodal = criteria.shape_checks(row, ["unimodal"])["unimodal"]
    body = {"n": args.n, "row": row.to_json(), "unimodal": unimodal, "bell": str(sum(row.coeffs))}
    return body, unimodal


def _cmd_eulerian(args) -> Result:
    poly = posetlab.eulerian(args.n)
    checks = criteria.eulerian_checks(poly)
    return {"n": args.n, "coeffs": poly.to_json(), "checks": checks}, criteria.holds(checks)


# -- path commands ---------------------------------------------------------------------


def _cmd_paths_fab(args) -> Result:
    count, closed = criteria.free_walk_counts(args.a, args.b, args.n)
    body = {
        "a": args.a,
        "b": args.b,
        "n": args.n,
        "count": str(count),
        "closed_form": str(closed),
        "agree": count == closed,
    }
    return body, count == closed


def _cmd_paths_monotone(args) -> Result:
    cert = pathlab.monotone_injection(args.n, args.k)
    body = {
        "n": args.n,
        "k": args.k,
        "source_count": str(cert.source_count),
        "image_count": str(cert.image_count),
        "injective": cert.injective,
        "images_in_target": cert.images_in_target,
        "line": {"offset": cert.offset},
    }
    if args.show_map:
        body["map"] = [
            {"source": [list(v) for v in src_path], "image": [list(v) for v in img]}
            for src_path, img in cert.mapping
        ]
    return body, criteria.monotone_injection_holds(cert)


def _cmd_paths_sagan(args) -> Result:
    seq = pathlab.sagan_sequence(args.n, args.k)
    unimodal = criteria.shape_checks(seq, ["unimodal"])["unimodal"]
    body = {"n": args.n, "k": args.k, "sequence": seq.to_json(), "unimodal": unimodal}
    return body, unimodal


# -- the one-document report --------------------------------------------------------------


def _cmd_report(args) -> Result:
    amax, bmax = _box_range(args)
    # The poset and path checks run first, so that their enumerations peak
    # before the audit objects are alive rather than on top of them.
    sperner = posetlab.max_antichain(4)
    posets = {
        "sperner_n4": _antichain_summary(sperner),
        "lym_middle_layer_tight_n4": criteria.lym_holds(4),
        "inversion_polynomial_matches_q_factorial_n_le_5": criteria.inversions_hold(5),
        "stirling_rows_unimodal_n_le_8": criteria.stirling_rows_hold(8),
        "eulerian_suite_n_le_7": criteria.eulerian_suite_holds(7),
    }
    posets["pass"] = criteria.sperner_holds(sperner) and criteria.holds(posets)
    paths = {
        "free_walk_counts_match_closed_form": criteria.free_walks_hold(4, 12),
        "monotone_reflection_injective": criteria.monotone_injections_hold(10),
        "binomial_product_sequences_unimodal": criteria.sagan_sequences_hold(16),
    }
    paths["pass"] = criteria.holds(paths)
    shapes = {
        "g22_unimodal_palindromic_not_log_concave": criteria.g22_shape_holds(),
        "shift_identity_weight_families_m_le_8": criteria.weight_families_shift_hold(8),
    }
    shapes["pass"] = criteria.holds(shapes)
    grid = criteria.gaussian_grid(amax, bmax)
    calibrated = criteria.calibration_holds()
    sections = {
        "gaussian": {
            "grid": grid,
            "calibration_selects_calibrated_rule_a_b_le_6": calibrated,
            "pass": criteria.gaussian_grid_holds(grid) and calibrated,
        },
        "injections": _injections(amax, bmax, injectlab.RULES),
        "posets": posets,
        "paths": paths,
        "shapes": shapes,
    }
    holds = all(s["pass"] for s in sections.values())
    return {"amax": amax, "bmax": bmax, "sections": sections, "pass": holds}, holds


# -- admission ---------------------------------------------------------------------------
#
# ``main`` predicts from the arguments alone the size of what a command will
# build and refuses it, exit 3, past its limit, before any handler runs.  The
# predictions are closed forms with early exits, so refusals are cheap; an
# argument outside its domain (a negative side, k > n) costs nothing here and is
# left to its handler's exit 2.  Each limit sits where one call takes seconds at
# most (CPython 3.11 on one x86-64 machine): stirling 2000 takes 2.5 s, eulerian
# 35 4.8 s, paths sagan 10000 32 s and the exhaustive antichain search 122 s at
# n = 6; sperner prints C(n, n/2) in time quadratic in n; bruhat builds n! and
# paths fab about n^3 / 3 walk-table entries; paths monotone builds C(n, k) + C(n, k+1)
# paths of n + 1 vertices, at most as many as at n = 14, k = 6.  A gauss route may
# cost no more than at its anchor box: quotient 300x300 takes 6 s, pascal 150x150
# 4.4 s, koh 25x25 1.1 s and enum 11x11 0.2 s.  A report or injection-audit range
# may hold at most BOX_PARTS_LIMIT parts over all its boxes, a per partition of an
# a-by-b box: 115,149,423 up to 12x12, 484,073,550 up to 13x13.  A report's grid
# also sums koh under both rules on every box in range, and that work may be at most
# GRID_KOH_LIMIT times koh's at its anchor: 12x12 costs 0.03 of it, 1x25 0.84 (3.5 s),
# 1x29 3.98 (9.0 s, 145 MiB) and the refused 1x30 5.74 (12.6 s, 186 MiB).
BOX_PARTS_LIMIT = 150_000_000
GRID_KOH_LIMIT = 4
N_LIMITS = {"sperner": 100_000, "sperner --exhaustive": 5, "stirling": 1_000,
            "eulerian": 30, "bruhat": 8, "paths fab": 18, "paths sagan": 2_000}
GAUSS_ANCHORS = {"quotient": (300, 300), "pascal": (150, 150), "enum": (11, 11), "koh": (25, 25)}


def _comb(n: int, k: int, cap) -> int:
    """C(n, k), or a number past ``cap`` once C(n - k + i, i) is, i <= min(k, n - k):
    each step at least doubles it, so the loop is short."""
    c, k = int(0 <= k <= n), min(k, n - k)
    for i in range(1, k + 1 if c else 0):
        c = c * (n - k + i) // i
        if c > cap:
            break
    return c


def _box_parts(amax: int, bmax: int, cap) -> int:
    """Parts of the partitions of every box up to (amax, bmax), a C(a+b, a) a box:
    sum_a a (C(a+bmax+1, a+1) - 1), largest a first, stopped once past ``cap``."""
    total = 0
    for a in range(amax if bmax > 0 else 0, 0, -1):
        total += a * (_comb(a + bmax + 1, a + 1, cap + 1) - 1)
        if total > cap:
            break
    return total


def _gauss_cost(method: str, a: int, b: int, cap) -> tuple[int, ...]:
    """The (work, memory) of a gauss route on the (a, b) box, each up to a constant factor."""
    a, b = max(a, 0), max(b, 0)
    # Bits of C(a+b, a), which bounds every coefficient: C(n, m) <= min(2^n, n^m).
    bits = min(a + b, min(a, b) * (a + b).bit_length())
    coeff, slot = 10 + bits // 30, 1 + bits // 8  # a Python int, in 4-byte words; a packed slot
    if method == "quotient":  # step i of b: (a + 1) i coefficients, and one list slice for
        # each of min(i, (a - 1) i + 1) residue classes: i of them, but 1 at a = 1 and 0 at a = 0
        slices = b * (b + 1) // 2 if a > 1 else a * b
        return 96 * slices + b * (b + 1) * (a + 1) * coeff, ((a + 1) * b + 1) * coeff
    if method == "pascal":  # b passes over a + 1 packed ints, 48 bytes as objects
        row = b * a * (a + 1) // 2 + a + 1  # slots held: cell k holds k b + 1
        return row * (b + 1) * slot + 48 * (a + 1) * (b + 1), row * slot + 48 * (a + 1)
    if method == "enum":  # a words a partition, and a weight tally of ab + 1 entries
        return (a * _comb(a + b, a, cap) + 16 * (a * b + 1),)
    # koh: p(b) < e^(pi sqrt(2b/3)) / b^(3/4) terms (past any limit by b = 10^6) of degree
    # at most d (ab, or b^2 by the stated rule), from q-Pascal rows of at most d slots a side.
    d, m = max(a, b) * b, min(b, 10**6)
    terms = math.ceil(math.exp(min(math.pi * math.sqrt(2 * m / 3), 99)) / max(m, 1) ** 0.75)
    return terms * (8 * b + d * d * slot), d * d * slot


GAUSS_LIMITS = {m: _gauss_cost(m, a, b, math.inf) for m, (a, b) in GAUSS_ANCHORS.items()}


def _grid_koh_cost(amax: int, bmax: int, cap) -> int:
    """The koh work of both rules on every box up to (amax, bmax), by ``_gauss_cost``:
    largest b first, stopped once past ``cap``."""
    total = 0
    for b in range(bmax if amax > 0 else 0, 0, -1):
        for a in range(amax, 0, -1):
            total += 2 * _gauss_cost("koh", a, b, cap)[0]
            if total > cap:
                return total
    return total


def _admit(args, command: str) -> str | None:
    """Why ``command`` is refused, if a predicted size is past its limit; else None."""
    if command in ("report", "injection-audit"):
        parts = _box_parts(args.amax, args.bmax, BOX_PARTS_LIMIT)
        bounds = [(parts, BOX_PARTS_LIMIT, f"at most {BOX_PARTS_LIMIT} parts")]
        if command == "report" and parts <= BOX_PARTS_LIMIT:
            limit = GRID_KOH_LIMIT * GAUSS_LIMITS["koh"][0]
            what = f"its koh grid to cost no more than {GRID_KOH_LIMIT} times koh at 25x25"
            bounds.append((_grid_koh_cost(args.amax, args.bmax, limit), limit, what))
    elif command == "gauss":
        limits, (a, b) = GAUSS_LIMITS[args.method], GAUSS_ANCHORS[args.method]
        what = f"--method {args.method} to cost no more than at {a}x{b}"
        sizes = _gauss_cost(args.method, args.a, args.b, max(limits))
        bounds = [(size, limit, what) for size, limit in zip(sizes, limits)]
    elif command == "paths monotone":
        paths = _comb(args.n, args.k, 96_525) + _comb(args.n, args.k + 1, 96_525)
        bounds = [(paths * (args.n + 1), 96_525, "at most 96525 path vertices")]
    else:
        command += " --exhaustive" if getattr(args, "exhaustive", False) else ""
        limit = N_LIMITS.get(command)
        bounds = [(args.n, limit, f"n <= {limit}")] if limit else []
    for size, limit, what in bounds:
        if size > limit:
            return f"{command} needs {what}"
    return None


# -- parser ---------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausslab",
        description="Exact checks for Gaussian polynomials, posets, and lattice paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauss", help="Gaussian polynomial coefficients by any route")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument(
        "--method", choices=["quotient", "pascal", "enum", "koh"], default="quotient"
    )
    p.add_argument("--koh-rule", choices=list(qgauss.KOH_RULES), default=None,
                   help="width formula of --method koh (default: calibrated)")
    p.add_argument("--terms", action="store_true",
                   help="dump the per-term breakdown of --method koh")
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("check", help="coefficient-shape checks for a polynomial")
    p.add_argument("coeffs", help='JSON array of coefficients, e.g. \'["1","1","2","1","1"]\'')
    for name in criteria.SHAPE_TESTS:  # --unimodal, --log-concave, ..., --real-rooted
        p.add_argument("--" + name.replace("_", "-"), action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("injection-audit", help="audit the level-raising rules")
    rule_numbers = [str(n) for n in range(1, len(injectlab.RULES) + 1)]
    p.add_argument("--rule", choices=["all", *rule_numbers], default="all")
    p.add_argument("--amax", type=int, default=4)
    p.add_argument("--bmax", type=int, default=4)
    p.set_defaults(handler=_cmd_injection_audit)

    p = sub.add_parser("sperner", help="largest antichain in the subset lattice")
    p.add_argument("n", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(handler=_cmd_sperner)

    p = sub.add_parser("lym", help="exact LYM sum of an antichain")
    p.add_argument("n", type=int)
    p.add_argument("antichain", help='JSON family of subsets, e.g. "[[1,2],[3]]"')
    p.set_defaults(handler=_cmd_lym)

    p = sub.add_parser("bruhat", help="weak order rank histogram vs q-factorial")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_bruhat)

    p = sub.add_parser("stirling", help="Stirling row and its unimodality")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("eulerian", help="Eulerian polynomial and its certificates")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_eulerian)

    p = sub.add_parser("paths", help="lattice-path counts and reflections")
    psub = p.add_subparsers(dest="paths_command", required=True)
    fab = psub.add_parser("fab", help="four-direction walk count vs closed form")
    fab.add_argument("a", type=int)
    fab.add_argument("b", type=int)
    fab.add_argument("n", type=int)
    mono = psub.add_parser("monotone", help="reflection injection between path levels")
    mono.add_argument("n", type=int)
    mono.add_argument("k", type=int)
    mono.add_argument("--show-map", dest="show_map", action="store_true",
                      help="include every source/image path pair")
    sagan = psub.add_parser("sagan", help="binomial-product sequence")
    sagan.add_argument("n", type=int)
    sagan.add_argument("k", type=int)
    fab.set_defaults(handler=_cmd_paths_fab)
    mono.set_defaults(handler=_cmd_paths_monotone)
    sagan.set_defaults(handler=_cmd_paths_sagan)

    p = sub.add_parser("report", help="full verification run as one JSON document")
    p.add_argument("--amax", type=int, default=6)
    p.add_argument("--bmax", type=int, default=6)
    p.set_defaults(handler=_cmd_report)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # Built on the first call rather than at import, and reused: parsing
    # leaves the parser unchanged, and building it costs more than a small query.
    global _parser
    if _parser is None:
        _parser = build_parser()
    # Big integers are read and written as exact decimal strings, so the
    # interpreter's 4,300-digit conversion limit (3.10.7 on) is lifted while
    # main runs and restored on return.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        args = _parser.parse_args(argv)
        command = f"paths {args.paths_command}" if args.command == "paths" else args.command
        refusal = _admit(args, command)
        if refusal is not None:
            print(f"budget exceeded: {refusal}", file=sys.stderr)
            return 3
        body, holds = args.handler(args)
        doc = {"v": SCHEMA_VERSION, "command": command, **body}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
