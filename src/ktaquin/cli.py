"""Command-line surface: coefficients with cross-checks, expansions, verification suites.

Exit codes: 0 success, 1 usage or precondition error, 2 cross-check or cached-value
disagreement or a malformed cache record, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .shapes import (
    AmbientRectangle,
    DirectSumFrame,
    SkewShape,
    format_partition,
    parse_partition,
)
from .tableaux import (
    IncreasingTableau,
    enumerate_augmented,
    enumerate_increasing,
    enumerate_set_valued,
)
from .jdt import InternalInvariantError, krect
from .coefficients import (
    KINDS,
    DisagreementError,
    compute_with_checks,
    computed_record,
    expand_coproduct,
    expand_product,
    format_checks,
)
from .equivalence import nonrect_counterexample
from .formats import (
    CacheConflictError,
    CacheFormatError,
    CacheRecord,
    cache_append,
    cache_load,
    coefficient_to_json_dict,
    format_tableau,
    parse_tableau,
    tableau_to_json_dict,
)
from .products import diamond, hecke_insert, odot
from . import suites

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_INTERNAL = 3

CACHE_ENV = "KTAQUIN_CACHE"


def _frame(text: str) -> DirectSumFrame:
    try:
        k1, n1, k2, n2 = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad frame {text!r}: expected k1,n1,k2,n2") from exc
    return DirectSumFrame(k1, n1, k2, n2)


def _ambient(text: str) -> AmbientRectangle:
    try:
        k, n = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad ambient {text!r}: expected k,n") from exc
    return AmbientRectangle(k, n)


def _integer(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option}: {text!r} is not an integer") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cache_path(args) -> str | None:
    return args.cache or os.environ.get(CACHE_ENV)


def cmd_coeff(args) -> int:
    if args.frame is not None and not (args.check and args.kind in ("D", "F")):
        raise ValueError("--frame applies to coeff D and F with --check only")
    lam, mu, nu = (parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu))
    frame = _frame(args.frame) if args.frame is not None else None
    if args.check:
        record = compute_with_checks(args.kind, lam, mu, nu, frame)
    else:
        record = computed_record(args.kind, lam, mu, nu, KINDS[args.kind](lam, mu, nu))
    checks_text = format_checks(record.checks)
    payload = coefficient_to_json_dict(record)
    path = _cache_path(args)
    if path:  # before printing, so a failed call prints no value
        try:
            cache_append(path, CacheRecord.now(record))
            cache_load(path)  # re-validate the whole file, conflicts are hard errors
        except OSError as exc:
            raise ValueError(f"cannot use the cache: {exc}") from exc
    _emit(args, payload, f"{record.kind}{format_partition(record.lam)},{format_partition(record.mu)}"
          f"->{format_partition(record.nu)} = {record.value}" + (f"  [{checks_text}]" if checks_text else ""))
    if not record.agreed:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_expand(args) -> int:
    # the options of the other operation
    foreign = {
        "product": {"--nu": args.nu, "--frame": args.frame},
        "coproduct": {"--lambda": args.lam, "--mu": args.mu, "--ambient": args.ambient},
    }.get(args.op, {})
    stray = [flag for flag, value in foreign.items() if value is not None]
    if stray:
        raise ValueError(f"{args.op} expansion does not take {', '.join(stray)}")
    if args.op == "product":
        if None in (args.lam, args.mu, args.ambient):
            raise ValueError("product expansion needs --lambda, --mu and --ambient k,n")
        lam, mu = parse_partition(args.lam), parse_partition(args.mu)
        ambient = _ambient(args.ambient)
        table = expand_product(lam, mu, ambient, args.basis)  # raises DisagreementError
        payload = {format_partition(nu): v for nu, v in sorted(table.items())}
        lines = [f"{format_partition(nu)}: {v}" for nu, v in sorted(table.items())]
        _emit(args, payload, "\n".join(lines) if lines else "(zero)")
    else:  # coproduct, the one other --op choice
        if None in (args.nu, args.frame):
            raise ValueError("coproduct expansion needs --nu and --frame k1,n1,k2,n2")
        nu = parse_partition(args.nu)
        frame = _frame(args.frame)
        table = expand_coproduct(nu, frame)
        payload = {
            f"{format_partition(lam)}|{format_partition(mu)}": v
            for (lam, mu), v in sorted(table.items())
        }
        lines = [
            f"{format_partition(lam)} (x) {format_partition(mu)}: {v}"
            for (lam, mu), v in sorted(table.items())
        ]
        _emit(args, payload, "\n".join(lines) if lines else "(zero)")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(suites.SUITES)
    elif args.suite in suites.SUITES:
        names = [args.suite]
    else:
        raise ValueError(f"unknown suite {args.suite!r}; options: {', '.join(suites.SUITES)}, all")
    if args.seed is not None and args.suite != "all" and args.suite not in suites.SEEDED_SUITES:
        raise ValueError(
            f"suite {args.suite!r} takes no seed; --seed applies to {', '.join(sorted(suites.SEEDED_SUITES))}"
        )
    ok = True
    results = []
    for name in names:
        fn = suites.SUITES[name]
        kwargs = {}
        if args.seed is not None and name in suites.SEEDED_SUITES:
            kwargs["seed"] = args.seed
        result = fn(**kwargs)
        results.append(result)
        if not args.json:
            print(result.render())
        ok = ok and result.ok
    if args.json:
        print(json.dumps([
            {"name": r.name, "ok": r.ok, "summary": r.summary, "seed": r.seed} for r in results
        ], sort_keys=True))
    return EXIT_OK if ok else EXIT_DISAGREEMENT


def cmd_enumerate(args) -> int:
    outer = parse_partition(args.outer)
    inner = parse_partition(args.inner) if args.inner else ()
    shape = SkewShape(outer, inner)
    max_entry = 4 if args.max_entry is None else args.max_entry
    alphabet = range(1, max_entry + 1)
    if args.kind != "set-valued" and args.content is not None:
        raise ValueError(f"--content applies to --kind set-valued only, not {args.kind}")
    if args.kind != "increasing" and args.surjective:
        raise ValueError(f"--surjective applies to --kind increasing only, not {args.kind}")
    if args.kind == "increasing":
        stream = enumerate_increasing(shape, alphabet, args.surjective)
    elif args.kind == "augmented":
        stream = enumerate_augmented(shape, alphabet)
    else:  # set-valued, the one other --kind choice
        if args.inner is not None:
            raise ValueError("set-valued enumeration takes a straight shape; drop --inner")
        if args.max_entry is not None:
            raise ValueError("set-valued enumeration takes its letters from --content; drop --max-entry")
        if not args.content:
            raise ValueError("set-valued enumeration needs --content a,b,c")
        content = tuple(_integer(x, "--content") for x in args.content.split(","))
        stream = enumerate_set_valued(outer, content)
    count = 0
    blocks = []
    for t in stream:
        count += 1
        if count <= args.limit:
            blocks.append(format_tableau(t))
    if args.json:
        print(json.dumps({"count": count}))
    else:
        print(f"{count} tableaux")
        print("\n\n".join(blocks))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    lam = parse_partition(args.lam)
    c = nonrect_counterexample(lam)
    payload = {
        "nu": list(c.nu),
        "tableau": tableau_to_json_dict(c.tableau),
        "order1": tableau_to_json_dict(c.order1),
        "order2": tableau_to_json_dict(c.order2),
        "results": [tableau_to_json_dict(r) for r in c.results],
    }
    text = "\n\n".join(
        [
            f"shape {format_partition(c.nu)} over inner {format_partition(lam)}:",
            format_tableau(c.tableau),
            "order:\n" + format_tableau(c.order1),
            "rectifies to:\n" + format_tableau(c.results[0]),
            "order:\n" + format_tableau(c.order2),
            "rectifies to:\n" + format_tableau(c.results[1]),
        ]
    )
    _emit(args, payload, text)
    return EXIT_OK


def _increasing(text: str, option: str) -> IncreasingTableau:
    """Parse an option's tableau, refusing a marked or set-valued one."""
    t = parse_tableau(text)
    if not isinstance(t, IncreasingTableau):
        raise ValueError(f"{option} must be an increasing tableau")
    return t


def cmd_product(args) -> int:
    left = _increasing(args.left, "--left")
    if args.op == "insert":
        result = hecke_insert(left, _integer(args.right, "--right"))
    else:  # the parser allows odot and diamond besides insert
        product = odot if args.op == "odot" else diamond
        result = product(left, _increasing(args.right, "--right"))
    _emit(args, tableau_to_json_dict(result), format_tableau(result))
    return EXIT_OK


def cmd_rectify(args) -> int:
    t = _increasing(args.tableau, "--tableau")
    order = _increasing(args.order, "--order") if args.order else None
    result = krect(t, order)
    _emit(args, tableau_to_json_dict(result), format_tableau(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktaquin",
        description="K-theoretic Schubert calculus coefficients via jeu de taquin for increasing tableaux",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="one coefficient, optionally with all cross-checks")
    p.add_argument("kind", choices=list(KINDS))
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. [2,1]")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--frame", help="k1,n1,k2,n2 for the direct-sum identity check")
    p.add_argument("--check", action="store_true", help="run every cross-check for the kind")
    p.add_argument("--cache", help="append the record to this JSON-lines cache")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("expand", help="full product or coproduct tables")
    p.add_argument("--op", choices=["product", "coproduct"], required=True)
    p.add_argument("--lambda", dest="lam", help="left factor (product)")
    p.add_argument("--mu", help="right factor (product)")
    p.add_argument("--nu", help="class to split (coproduct)")
    p.add_argument("--ambient", help="k,n rectangle bound (product)")
    p.add_argument("--frame", help="k1,n1,k2,n2 (coproduct)")
    p.add_argument("--basis", choices=["structure-sheaf", "ideal-sheaf"], default="structure-sheaf")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(suites.SUITES)}, all")
    p.add_argument("--seed", type=int, help="seed for the randomized suites")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="stream tableaux of a shape")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner")
    p.add_argument("--kind", choices=["increasing", "augmented", "set-valued"], default="increasing")
    p.add_argument("--max-entry", type=int, help="largest letter, default 4 (increasing and augmented)")
    p.add_argument("--surjective", action="store_true", help="use every letter (increasing only)")
    p.add_argument("--content", help="nonnegative letter multiplicities for set-valued tableaux")
    p.add_argument("--limit", type=int, default=20, help="print at most this many")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("counterexample", help="order-dependent rectification over a non-rectangle")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("product", help="tableau products")
    p.add_argument("--op", choices=["odot", "diamond", "insert"], required=True)
    p.add_argument("--left", required=True, help="tableau in grid or JSON form")
    p.add_argument("--right", required=True, help="tableau, or a letter for insert")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("rectify", help="rectify a skew increasing tableau")
    p.add_argument("--tableau", required=True)
    p.add_argument("--order", help="rectification order (straight tableau of the inner shape)")
    p.set_defaults(fn=cmd_rectify)
    return parser


# built by the first main() call; later calls in one process (a Python session,
# a test run) reuse it, and a one-call process pays the same as before
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CacheConflictError, DisagreementError) as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except CacheFormatError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
