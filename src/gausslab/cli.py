"""Command-line surface: every verification as a subcommand with JSON output.

All subcommands are thin adapters over the library; no combinatorial logic
lives here.  Output JSON is deterministic (stable key order, big integers as
decimal strings, no timestamps), so identical invocations are byte-identical.

Each handler returns its JSON fields and whether its checked property holds.
``main`` alone adds the ``v`` and ``command`` fields, writes the document to
stdout or ``--out``, and picks the exit code: 0 the property holds, 1 it is
false, 2 a usage, domain or output error, 3 enumeration budget exceeded.
Exit 2 covers an empty box range (``--amax`` or ``--bmax`` < 1), a
``--budget`` < 0, ``stirling n`` with n < 1, ``lym n`` with n < 0, ``sperner n``
with n > ``SPERNER_MAX_N``, ``check`` of the zero polynomial, and an ``--out``
file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile

from . import criteria, injectlab, pathlab, polycore, posetlab, qgauss
from .errors import EnumerationBudgetExceeded, GausslabError, ZeroPolynomial
from .polycore import IntPoly

SCHEMA_VERSION = 1

# What a handler returns: its JSON fields (None if it printed its own output)
# and whether its checked property holds.
Result = tuple[dict | None, bool]

# The bound C(n, ceil(n/2)) has about 0.3 n decimal digits, and CPython prints
# them in time quadratic in n, so `sperner` refuses larger n before computing it.
SPERNER_MAX_N = 100_000


def _file_mode(path: str) -> int:
    """The mode a replaced file keeps, or what ``open`` would give a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _emit(doc: dict, out: str | None = None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        mode = _file_mode(out)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".report-")
        try:
            os.chmod(tmp, mode)
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror}") from exc


def _parse_coeffs(text: str) -> IntPoly:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"coefficients are not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError("coefficients must be a JSON array")
    return IntPoly.from_json(data)


# -- gauss -----------------------------------------------------------------------


def _budget(args) -> int:
    """``--budget``, which must be >= 0: 0 is a budget every box exceeds."""
    if args.budget < 0:
        raise ValueError(f"need --budget >= 0, got {args.budget}")
    return args.budget


def _cmd_gauss(args) -> Result:
    a, b = args.a, args.b
    budget = _budget(args)
    body = {"a": a, "b": b, "method": args.method}
    if args.method == "quotient":
        poly = qgauss.gaussian_quotient(a, b)
    elif args.method == "pascal":
        poly = qgauss.gaussian_pascal(a, b)
    elif args.method == "enum":
        poly = IntPoly(qgauss.level_counts(a, b, budget))
    else:
        poly, terms = qgauss.koh_sum(a, b, qgauss.KOH_RULES[args.koh_rule])
        body["rule"] = args.koh_rule
        if args.terms:
            body["terms"] = [t.to_json_dict() for t in terms]
    body["coeffs"] = poly.to_json()
    return body, True


# -- check -----------------------------------------------------------------------


def _cmd_check(args) -> Result:
    poly = _parse_coeffs(args.coeffs)
    if poly.is_zero:
        # Refused whatever the flags: zero is palindromic about every center,
        # so --gamma would build a gamma vector of length --center / 2.
        raise ZeroPolynomial("check needs a nonzero polynomial")
    center = args.center if args.center is not None else max(poly.degree, 0)
    requested = {
        "unimodal": args.unimodal,
        "log_concave": args.log_concave,
        "palindromic": args.palindromic,
        "gamma": args.gamma,
        "real_rooted": args.real_rooted,
    }
    if not any(requested.values()):
        requested = dict.fromkeys(requested, True)
    checks: dict = {}
    if requested["unimodal"]:
        checks["unimodal"] = polycore.is_unimodal(poly)
        checks["mode"] = polycore.mode(poly)
    if requested["log_concave"]:
        checks["log_concave"] = polycore.is_log_concave(poly)
    if requested["palindromic"]:
        checks["palindromic"] = polycore.is_palindromic(poly, center)
    if requested["gamma"]:
        if polycore.is_palindromic(poly, center):
            gv = polycore.gamma_decompose(poly, center)
            checks["gamma_nonnegative"] = gv.is_nonnegative
            checks["gamma"] = [str(g) for g in gv.gammas]
        else:
            checks["gamma_nonnegative"] = False
            checks["gamma"] = None
    if requested["real_rooted"]:
        checks["real_rooted"] = polycore.is_real_rooted(poly)
    body = {"coeffs": poly.to_json(), "center": center, "checks": checks}
    return body, not any(value is False for value in checks.values())


# -- injection audits --------------------------------------------------------------


def _box_range(args) -> tuple[int, int]:
    if args.amax < 1 or args.bmax < 1:
        raise ValueError(f"need --amax and --bmax >= 1, got {args.amax} and {args.bmax}")
    return args.amax, args.bmax


def _cmd_injection_audit(args) -> Result:
    amax, bmax = _box_range(args)
    budget = _budget(args)
    if args.rule == "all":
        rules = tuple(injectlab.InjectionRule)
    else:
        rules = (injectlab.RULE_BY_NUMBER[int(args.rule)],)
    audits = injectlab.audit_all(amax, bmax, rules, budget)
    claims = [injectlab.check_claim(r) for r in audits] if args.verify_claims else []
    if args.table:
        for r in audits:
            print(_audit_row(r))
        for c in claims:
            print(
                f"claim {c.rule.value} ({c.box[0]},{c.box[1]}) k={c.claimed_level}"
                f" -> {c.verdict.value}: {c.detail}"
            )
        return None, True
    body = {"amax": amax, "bmax": bmax, "audits": [r.to_json_dict() for r in audits]}
    if args.verify_claims:
        body["claims"] = [c.to_json_dict() for c in claims]
    return body, True


def _audit_row(r: injectlab.AuditReport) -> str:
    head = f"{r.rule.value:17s} ({r.box[0]},{r.box[1]})  {r.outcome.value}"
    if r.outcome is injectlab.AuditOutcome.INJECTIVE_UP_TO_MIDDLE:
        if r.levels_checked == 0:
            return f"{head} (no levels below the middle)"
        return f"{head} (levels 0..{r.levels_checked - 1})"
    if r.outcome is injectlab.AuditOutcome.COLLISION:
        return f"{head} at k={r.level}: {r.witnesses[0]} and {r.witnesses[1]} -> {r.image}"
    return f"{head} at k={r.level}: {r.witnesses[0]} ties among {list(r.candidates)}"


# -- poset commands ------------------------------------------------------------------


def _antichain_summary(search: posetlab.SpernerSearch) -> dict:
    return {
        "max_size": str(search.max_size),
        "num_maximum": str(search.num_maximum),
        "total_antichains": str(search.total_antichains),
    }


def _cmd_sperner(args) -> Result:
    n = args.n
    if n > SPERNER_MAX_N:
        raise ValueError(f"need n <= {SPERNER_MAX_N}")
    # C(n, floor(n/2)) = C(n, ceil(n/2)): both middle layers have the bound's size.
    bound = str(posetlab.sperner_bound(n))
    body = {"n": n, "bound": bound, "middle_layer_sizes": [bound, bound]}
    if not args.exhaustive:
        return body, True
    search = posetlab.max_antichain(n, max_n=args.max_exhaustive)
    body["exhaustive"] = {**_antichain_summary(search), "bound_holds": search.bound_holds}
    return body, criteria.sperner_holds(search)


def _cmd_lym(args) -> Result:
    try:
        family = json.loads(args.antichain)
    except json.JSONDecodeError as exc:
        raise ValueError(f"antichain is not valid JSON: {exc}") from exc
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
    poset = posetlab.weak_bruhat(args.n)
    hist = poset.rank_histogram()
    holds = hist == list(qgauss.q_factorial(args.n).coeffs)
    body = {
        "n": args.n,
        "rank_histogram": [str(c) for c in hist],
        "matches_q_factorial": holds,
        "num_covers": len(poset.covers),
    }
    return body, holds


def _cmd_stirling(args) -> Result:
    row = posetlab.stirling_row(args.n)
    unimodal = polycore.is_unimodal(IntPoly(row))
    body = {"n": args.n, "row": [str(c) for c in row], "unimodal": unimodal, "bell": str(sum(row))}
    return body, unimodal


def _cmd_eulerian(args) -> Result:
    poly = posetlab.eulerian(args.n)
    checks = criteria.eulerian_checks(poly, args.n)
    return {"n": args.n, "coeffs": poly.to_json(), "checks": checks}, all(checks.values())


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
        "line": {"orientation": pathlab.LINE_ORIENTATION, "offset": cert.offset},
    }
    if args.show_map:
        body["map"] = [
            {"source": [list(v) for v in src_path], "image": [list(v) for v in img]}
            for src_path, img in cert.mapping
        ]
    return body, criteria.monotone_injection_holds(cert)


def _cmd_paths_sagan(args) -> Result:
    seq = pathlab.sagan_sequence(args.n, args.k)
    unimodal = polycore.is_unimodal(IntPoly(seq))
    body = {"n": args.n, "k": args.k, "sequence": [str(c) for c in seq], "unimodal": unimodal}
    return body, unimodal


# -- the one-document report --------------------------------------------------------------


def _cmd_report(args) -> Result:
    amax, bmax = _box_range(args)
    budget = _budget(args)
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
    posets["pass"] = criteria.sperner_holds(sperner) and all(
        value for value in posets.values() if isinstance(value, bool)
    )
    paths = {
        "free_walk_counts_match_closed_form": criteria.free_walks_hold(4, 12),
        "monotone_reflection_injective": criteria.monotone_injections_hold(10),
        "binomial_product_sequences_unimodal": criteria.sagan_sequences_hold(16),
    }
    paths["pass"] = all(paths.values())
    shapes = {
        "g22_unimodal_palindromic_not_log_concave": criteria.g22_shape_holds(),
        "shift_identity_weight_families_m_le_8": criteria.weight_families_shift_hold(8),
    }
    shapes["pass"] = all(shapes.values())
    counts = criteria.box_level_counts(amax, bmax, budget)
    grid = criteria.gaussian_grid(counts)
    calibrated = criteria.calibration_holds(counts)
    audits = injectlab.audit_all(amax, bmax, budget=budget)
    claims = [injectlab.check_claim(r) for r in audits]
    sections = {
        "gaussian": {
            "grid": grid,
            "calibration_selects_calibrated_rule_a_b_le_6": calibrated,
            "pass": criteria.gaussian_grid_holds(grid) and calibrated,
        },
        "injections": {
            "audits": [r.to_json_dict() for r in audits],
            "claims": [c.to_json_dict() for c in claims],
            "pass": criteria.injections_hold(audits, claims),
        },
        "posets": posets,
        "paths": paths,
        "shapes": shapes,
    }
    holds = all(s["pass"] for s in sections.values())
    # The audit objects die with this frame, before main serialises.
    return {"amax": amax, "bmax": bmax, "sections": sections, "pass": holds}, holds


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
    p.add_argument("--koh-rule", choices=list(qgauss.KOH_RULES), default="calibrated")
    p.add_argument("--terms", action="store_true", help="dump the per-term breakdown")
    p.add_argument(
        "--budget",
        type=int,
        default=injectlab.DEFAULT_ENUMERATION_BUDGET,
        help="most box partitions to enumerate (>= 0); only --method enum obeys it, "
        "the other routes check it and ignore it",
    )
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("check", help="coefficient-shape checks for a polynomial")
    p.add_argument("coeffs", help='JSON array of coefficients, e.g. \'["1","1","2","1","1"]\'')
    p.add_argument("--center", type=int, default=None)
    p.add_argument("--unimodal", action="store_true")
    p.add_argument("--log-concave", dest="log_concave", action="store_true")
    p.add_argument("--palindromic", action="store_true")
    p.add_argument("--gamma", action="store_true")
    p.add_argument("--real-rooted", dest="real_rooted", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("injection-audit", help="audit the level-raising rules")
    p.add_argument("--rule", choices=["all", "1", "2", "3", "4"], default="all")
    p.add_argument("--amax", type=int, default=4)
    p.add_argument("--bmax", type=int, default=4)
    p.add_argument("--budget", type=int, default=injectlab.DEFAULT_ENUMERATION_BUDGET)
    p.add_argument(
        "--verify-claims",
        action="store_true",
        help="also replay the documented failure claims",
    )
    p.add_argument("--table", action="store_true", help="plain-text table output")
    p.set_defaults(handler=_cmd_injection_audit)

    p = sub.add_parser("sperner", help="largest antichain in the subset lattice")
    p.add_argument("n", type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-exhaustive", type=int, default=5)
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
    p.add_argument("--budget", type=int, default=injectlab.DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--out", default=None, help="write atomically to this file")
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
        body, holds = args.handler(args)
        if body is not None:
            command = f"paths {args.paths_command}" if args.command == "paths" else args.command
            _emit({"v": SCHEMA_VERSION, "command": command, **body}, getattr(args, "out", None))
    except EnumerationBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (GausslabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
