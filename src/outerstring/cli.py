"""Command-line front end.

Machine-readable JSON goes to stdout, human-oriented notes to stderr.  Exit
codes: 0 success, 1 validation or input failure, 2 bad usage.  All
subcommands are deterministic: identical inputs and flags give byte-identical
output.  The environment variable OUTERSTRING_SEED_OVERRIDE (an integer)
overrides --seed wherever a seed is used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import ROUND_FLOOR, Decimal, localcontext

from .bounds import explicit_chi_bound
from .errors import FamilyValidationError, OuterstringError
from .extract import (BoundParams, attempt_bracket_system,
                      attempt_clique_system, bfs_supported,
                      find_skeleton_supported, mcguinness)
from .gen import GenSpec, generate
from .geom import curves_from_dict, dump_family, find_violations, loads_family
from .graph import chromatic_number, clique_number, intersection_graph
from .structures import skeleton_to_dict
from .svg import render_family


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=1, sort_keys=False) + "\n")


def _parse(path, parse):
    """``parse`` applied to the text of the file at ``path``.  Every way the
    file can fail ends the command with exit 1 and one line on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"cannot read {path}: {exc}\n")
        raise SystemExit(1)
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}\n")
    except ValueError as exc:
        sys.stderr.write(f"{path}: bad family structure: {exc}\n")
    except FamilyValidationError as exc:
        sys.stderr.write(f"{path}: invalid family: {exc}\n")
    raise SystemExit(1)


def _load(path):
    return _parse(path, loads_family)


def _cmd_validate(args) -> int:
    curves = _parse(args.family, lambda text: curves_from_dict(json.loads(text)))
    violations = find_violations(curves)
    _emit({"valid": not violations,
           "violations": [{"kind": v.kind, "curves": list(v.curves), "detail": v.detail}
                          for v in violations]})
    return 1 if violations else 0


def _cmd_stats(args) -> int:
    fam = _load(args.family)
    graph = intersection_graph(fam)
    w, clique = clique_number(graph)
    chi, coloring = chromatic_number(graph)
    _emit({"n": len(fam), "omega": w, "chi": chi,
           "clique": sorted(clique), "coloring": {c: coloring[c] for c in fam.ids()}})
    return 0


def _params_from(args) -> BoundParams:
    return BoundParams(k=args.k, xi=args.xi, alpha=args.alpha, beta=args.beta,
                       n=args.n, t=args.t, gamma=args.gamma)


def _cmd_extract(args) -> int:
    fam = _load(args.family)
    try:
        if args.procedure == "mcguinness":
            _, report = mcguinness(fam, args.alpha, args.beta)
        elif args.procedure == "bfs":
            _, _, report = bfs_supported(fam)
        elif args.procedure == "bracket-system":
            report = attempt_bracket_system(fam, _params_from(args))
        elif args.procedure == "clique-system":
            report = attempt_clique_system(fam, args.t, args.n, _params_from(args))
        else:  # pragma: no cover - argparse restricts choices
            return 2
    except OuterstringError as exc:
        sys.stderr.write(f"extraction precondition failed: {exc}\n")
        return 1
    _emit(report.to_dict())
    return 0


def _cmd_skeleton(args) -> int:
    fam = _load(args.family)
    found = find_skeleton_supported(fam, args.alpha)
    if found is None:
        _emit({"found": False})
        return 0
    sk, P = found
    chi, _ = chromatic_number(intersection_graph(P))
    _emit({"found": True, "skeleton": skeleton_to_dict(sk),
           "supported": list(P.ids()), "chi": chi})
    return 0


# explicit_chi_bound(4) takes about 2 s and has 2,001,061 digits; the bound
# grows as a tower, and no k beyond 4 has ever been evaluated.
MAX_BOUND_K = 4


def _floors(x: Decimal, margin: str) -> tuple[int, int]:
    """floor(x - margin) and floor(x + margin)."""
    return tuple(int((x + d).to_integral_value(ROUND_FLOOR))
                 for d in (-Decimal(margin), Decimal(margin)))


def _leading_digits(value: int, width: int = 11) -> tuple[int, str]:
    """The number of decimal digits of ``value`` (positive) and its first
    ``width`` digits, without writing it in decimal: ``str`` of an int is
    quadratic and refused beyond 4,300 digits.

    log10 of the top 256 bits plus the bits shifted out, at 60 digits, is
    within 1e-40 of log10(value).  Where a digit boundary lies inside that
    margin, one exact integer comparison or division settles it.
    """
    shift = max(value.bit_length() - 256, 0)
    with localcontext() as ctx:
        ctx.prec = 60
        log = Decimal(value >> shift).log10() + shift * Decimal(2).log10()
        low, high = _floors(log, "1e-40")
        digits = low + 1 if low == high else high + (value >= 10 ** high)
        cut = digits - width
        if cut <= 0:
            return digits, str(value)
        low, high = _floors(Decimal(10) ** (log - cut), "1e-20")
    return digits, str(low if low == high else value // 10 ** cut)


def _cmd_bounds(args) -> int:
    if args.k > MAX_BOUND_K:
        sys.stderr.write(f"bounds --k {args.k}: refused, k >= 5 is out of reach "
                         f"(the bound grows as a tower: k = 3 has 461 digits, "
                         f"k = 4 has 2,001,061)\n")
        return 1
    value = explicit_chi_bound(args.k)
    digits, head = _leading_digits(value)
    if digits > 10 ** 6:
        _emit({"k": args.k, "digits": digits,
               "scientific": f"{head[0]}.{head[1:]}e+{digits - 1}"})
    else:
        sys.stdout.write(str(value) + "\n")
    return 0


def _cmd_generate(args) -> int:
    seed = args.seed
    override = os.environ.get("OUTERSTRING_SEED_OVERRIDE")
    if override is not None:
        try:
            seed = int(override)
        except ValueError:
            raise ValueError(f"OUTERSTRING_SEED_OVERRIDE={override!r} is not an integer") from None
    spec = GenSpec(kind=args.kind, n=args.n, bends=args.bends, seed=seed,
                   grid=args.grid)
    fam = generate(spec)
    if args.out:
        dump_family(fam, args.out)
        _emit({"out": args.out, "n": len(fam), "seed": seed})
    else:
        from .geom import family_to_dict
        _emit(family_to_dict(fam))
    return 0


def _overlay(path, ids, lists):
    """A ``render`` overlay file: a JSON object with a curve id under each
    key of ``ids`` and a list of curve ids under each key of ``lists``."""
    data = _parse(path, json.loads)
    if not (isinstance(data, dict) and all(isinstance(data.get(k), str) for k in ids)
            and all(isinstance(data.get(k), list) and all(isinstance(c, str) for c in data[k])
                    for k in lists)):
        raise ValueError(f"{path}: an overlay needs the curve ids {', '.join(ids + lists)}")
    return data


def _cmd_render(args) -> int:
    fam = _load(args.family)
    skeleton = _overlay(args.skeleton, ("u", "v"), ("supports",)) if args.skeleton else None
    bracket = _overlay(args.bracket, (), ("P", "S")) if args.bracket else None
    text = render_family(fam, highlight=args.highlight or (), skeleton=skeleton,
                         bracket=bracket)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    _emit({"out": args.out, "curves": len(fam)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outerstring",
        description="Exact analysis of grounded curve families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check groundedness and general position")
    p.add_argument("family")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("stats", help="n, clique number, chromatic number, witnesses")
    p.add_argument("family")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("extract", help="run an extraction procedure")
    p.add_argument("procedure",
                   choices=["mcguinness", "bfs", "bracket-system", "clique-system"])
    p.add_argument("family")
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--xi", type=int, default=1)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--gamma", type=int, default=None)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("skeleton", help="search for a skeleton-supported subfamily")
    p.add_argument("family")
    p.add_argument("--alpha", type=int, default=0)
    p.set_defaults(fn=_cmd_skeleton)

    p = sub.add_parser("bounds", help="evaluate the explicit chi bound for k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("generate", help="emit a random grounded family")
    p.add_argument("--kind", choices=["segments", "polylines"], default="segments")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--bends", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("render", help="render a family to SVG")
    p.add_argument("family")
    p.add_argument("--out", required=True)
    p.add_argument("--highlight", nargs="*", default=None)
    p.add_argument("--skeleton", default=None)
    p.add_argument("--bracket", default=None)
    p.set_defaults(fn=_cmd_render)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Out-of-range numbers
    (``ValueError``) and unreadable or unwritable paths (``OSError``) end
    like the package's own errors: exit 1 and one line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (OuterstringError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
