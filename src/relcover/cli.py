"""Command line front end.

Subcommands: eval, count, bench, bounds, gen, paths, search-nonmonotone.
`count` and `bench` take one or more shapes, `gen` one.  A shape is NxT
(N functions of T implementations each, so 3x3 is 3,3,3) or explicit
sizes t1,t2,... (a bare T is one function); a command's shapes name at
most 10^6 functions in all.  Every printed shape uses the explicit form,
and every printed term count is written alike, past 4096 bits as
powers.  Tabular output is CSV with a fixed header; --pretty renders the
same rows as aligned text.  Exit codes: 0 success, 1 input or validation
error, 2 a cap or timeout stopped the run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path
from typing import Sequence

from .bench import CSV_HEADER, row_cells, rows_to_csv, run_bench
from .bounds import (
    SearchConfig,
    bound_summary,
    exact_union_probability,
    nonmonotonicity_search,
)
from .errors import CapExceeded, EvaluationTimeout, GenerationError, InvalidSystemError
from .evaluate import (
    DEFAULT_TERM_CAP,
    Method,
    reliability_classical,
    reliability_monte_carlo,
    reliability_simplified,
)
from .combinatorics import format_term_counts
from .system import (
    FamilyShape,
    door_functions,
    dumps_system,
    generate_random_system,
    load_system,
    save_system,
    validate_system,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; here malformed input is exit 1.
    def error(self, message):
        raise ValueError(message)


_SHAPE_HELP = "NxT (N functions of T implementations each) or t1,t2,... e.g. 3x3, 2,3"


# A command's shapes name at most this many functions in all.  Every
# command holds one size per function, and `count` prints every size: two
# characters a function.
_MAX_FUNCTIONS = 1_000_000


def _parse_shapes(tokens: Sequence[str]) -> list[tuple[int, ...]]:
    # "3x3" reads as 3 functions with 3 implementations each;
    # "2,3,2" reads as explicit per-function sizes, "3" as one function.
    # The whole list is checked before the N sizes of any NxT token are built.
    parsed = []
    for token in tokens:
        try:
            if "x" in token:
                n, t = token.split("x")
                copies, sizes = int(n), (int(t),)
            else:
                copies, sizes = 1, tuple(int(tok) for tok in token.split(","))
        except ValueError:
            copies, sizes = 1, ()
        if copies < 1 or not sizes or any(t < 1 for t in sizes):
            raise ValueError(f"malformed shape {token!r}")
        parsed.append((copies, sizes))
    total = sum(copies * len(sizes) for copies, sizes in parsed)
    if total > _MAX_FUNCTIONS:
        named = f"shape {tokens[0]!r} has" if len(tokens) == 1 else f"{len(tokens)} shapes have"
        raise ValueError(f"{named} {total} functions, more than {_MAX_FUNCTIONS}")
    return [sizes * copies for copies, sizes in parsed]


def _parse_shape(token: str) -> tuple[int, ...]:
    (sizes,) = _parse_shapes([token])
    return sizes


def _shape_label(sizes: Sequence[int]) -> str:
    # the explicit form, which _parse_shape reads back to the same sizes
    return ",".join(str(t) for t in sizes)


def _emit_table(header: Sequence[str], rows: Sequence[Sequence[str]], pretty: bool) -> None:
    if pretty:
        for row in rows:
            for key, value in zip(header, row):
                print(f"{key:>22}: {value}")
            print()
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())


# The methods that read each eval flag; any other method refuses it.
_EVAL_FLAG_METHODS = {
    "cap_terms": {Method.CLASSICAL, Method.SIMPLIFIED},
    "timeout": {Method.CLASSICAL},
    "samples": {Method.MONTE_CARLO},
    "seed": {Method.MONTE_CARLO},
}


def cmd_eval(args) -> int:
    method = Method(args.method.replace("-", "_"))
    for flag, methods in _EVAL_FLAG_METHODS.items():
        if getattr(args, flag) is not None and method not in methods:
            raise ValueError(
                f"--{flag.replace('_', '-')} does not apply to --method {args.method}"
            )
    spec = load_system(args.file)
    cap = (DEFAULT_TERM_CAP if args.cap_terms is None else args.cap_terms) or None
    if method is Method.SIMPLIFIED:
        report = reliability_simplified(spec, cap_terms=cap)
    elif method is Method.CLASSICAL:
        report = reliability_classical(
            spec, cap_terms=cap, budget_seconds=args.timeout
        )
    else:
        samples = 100000 if args.samples is None else args.samples
        report = reliability_monte_carlo(spec, samples=samples, seed=args.seed or 0)
    written = dict(zip((Method.CLASSICAL, Method.SIMPLIFIED), format_term_counts(spec.shape)))
    header = (
        "method",
        "shape",
        "reliability",
        "term_count",
        "distinct_products",
        "wall_time_seconds",
        "standard_error",
    )
    row = (
        method.value,
        _shape_label(spec.shape.sizes),
        f"{report.reliability:.15g}",
        written.get(method, str(report.samples)),
        str(report.distinct_product_count),
        f"{report.wall_time:.6f}",
        "" if report.standard_error is None else f"{report.standard_error:.6g}",
    )
    _emit_table(header, [row], args.pretty)
    return 0


def cmd_count(args) -> int:
    header = ("functions", "shape", "terms_classical", "terms_simplified")
    rows = []
    for sizes in _parse_shapes(args.shapes):
        shape = FamilyShape(sizes)
        rows.append((str(shape.n), _shape_label(sizes), *format_term_counts(shape)))
    _emit_table(header, rows, args.pretty)
    return 0


def cmd_bench(args) -> int:
    shapes = _parse_shapes(args.shapes)
    if args.out:
        instance_dir = Path(args.out).with_suffix("").as_posix() + "_instances"
    else:
        instance_dir = "bench_instances"
    rows = run_bench(
        list(zip(args.shapes, shapes)),
        components=args.components,
        sharing=args.sharing,
        seed=args.seed,
        timeout=args.timeout,
        instance_dir=instance_dir,
    )
    if args.out:
        Path(args.out).write_text(rows_to_csv(rows))
        print(f"wrote {args.out} and instances under {instance_dir}", file=sys.stderr)
    if args.pretty or not args.out:
        _emit_table(CSV_HEADER, [row_cells(row) for row in rows], args.pretty)
    return 0


def cmd_bounds(args) -> int:
    spec = load_system(args.file)
    exact = exact_union_probability(spec)  # its term cap refuses before the t^2/2 pairs
    summary = bound_summary(spec)
    ok = summary.bound_full <= exact + 1e-12
    header = (
        "name",
        "s1",
        "s2",
        "theta",
        "bound_full",
        "bound_relaxed",
        "exact_reliability",
        "bound_le_exact",
        "claimed_reliability",
        "claimed_lower_bound",
    )
    claimed_rel = spec.claimed.get("claimed_reliability")
    claimed_lb = spec.claimed.get("claimed_lower_bound")
    row = (
        spec.name,
        f"{summary.s1:.15g}",
        f"{summary.s2:.15g}",
        f"{summary.theta:.15g}",
        f"{summary.bound_full:.15g}",
        f"{summary.bound_relaxed:.15g}",
        f"{exact:.15g}",
        "yes" if ok else "no",
        "" if claimed_rel is None else f"{claimed_rel:.15g}",
        "" if claimed_lb is None else f"{claimed_lb:.15g}",
    )
    _emit_table(header, [row], args.pretty)
    return 0


def cmd_gen(args) -> int:
    spec = generate_random_system(
        FamilyShape(_parse_shape(args.shape)),
        components=args.components,
        sharing=args.sharing,
        seed=args.seed,
        max_impl_size=args.max_impl_size,
    )
    if args.out:
        save_system(spec, args.out)
    else:
        sys.stdout.write(dumps_system(spec))
    return 0


def cmd_paths(args) -> int:
    spec = load_system(args.file)
    if spec.network is None:
        raise ValueError(f"{args.file}: no network block to derive paths from")
    functions = door_functions(spec.network)
    for i, function in enumerate(functions):
        if not function:
            src, sink = spec.network.terminals[i]
            raise ValueError(
                f"terminal pair {i} ({src} -> {sink}) is unreachable; "
                "a function with no implementations is not a valid system"
            )
    derived = dataclasses.replace(spec, functions=functions)
    report = validate_system(derived)
    if not report.ok:
        raise InvalidSystemError(report.violations)
    if args.out:
        save_system(derived, args.out)
    else:
        sys.stdout.write(dumps_system(derived))
    return 0


def cmd_search(args) -> int:
    config = SearchConfig(
        events=args.events,
        components=args.components,
        sharing=args.sharing,
        max_impl_size=args.max_impl_size,
    )
    witnesses = nonmonotonicity_search(config, trials=args.trials, seed=args.seed)
    header = (
        "trial",
        "reliability_low",
        "reliability_high",
        "bound_low",
        "bound_high",
    )
    rows = [
        (
            str(w.trial),
            f"{w.reliability_low:.15g}",
            f"{w.reliability_high:.15g}",
            f"{w.bound_low:.15g}",
            f"{w.bound_high:.15g}",
        )
        for w in witnesses
    ]
    _emit_table(header, rows, args.pretty)
    if args.out and witnesses:
        first = witnesses[0]
        low_path = f"{args.out}.low.json"
        high_path = f"{args.out}.high.json"
        save_system(first.low, low_path)
        save_system(first.high, high_path)
        print(f"wrote {low_path} and {high_path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pretty_flag(p):
        p.add_argument("--pretty", action="store_true", help="aligned text output")

    p = sub.add_parser("eval", help="evaluate a system file")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=["classical", "simplified", "monte-carlo"],
        default="simplified",
    )
    p.add_argument("--samples", type=int, help="monte-carlo only, default 100000")
    p.add_argument("--seed", type=int, help="monte-carlo only, default 0")
    p.add_argument("--timeout", type=float, help="seconds; classical only, default none")
    p.add_argument(
        "--cap-terms", type=int, help="exact methods only; default 2^24 - 1, 0 disables"
    )
    add_pretty_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", help="term-count predictors per shape")
    p.add_argument("shapes", nargs="+", help=_SHAPE_HELP)
    add_pretty_flag(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="time both exact evaluators per shape")
    p.add_argument("--shapes", nargs="+", required=True, help=_SHAPE_HELP)
    p.add_argument("--components", type=int, default=40)
    p.add_argument("--sharing", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=400.0, help="seconds, default 400")
    p.add_argument("--out", default=None, help="CSV path; instances persist next to it")
    add_pretty_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bounds", help="moment bounds for a single-function system")
    p.add_argument("file")
    add_pretty_flag(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gen", help="generate a random system file")
    p.add_argument("shape", help=_SHAPE_HELP)
    p.add_argument("--components", type=int, default=12)
    p.add_argument("--sharing", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-impl-size", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("paths", help="derive implementations from a door network")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser(
        "search-nonmonotone",
        help="hunt for pairs where the bound ordering contradicts the exact one",
    )
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=3)
    p.add_argument("--components", type=int, default=5)
    p.add_argument("--sharing", type=float, default=0.5)
    p.add_argument("--max-impl-size", type=int, default=3)
    p.add_argument("--out", default=None, help="prefix for the first witness pair")
    add_pretty_flag(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in ("cap_terms", "timeout"):  # zero keeps its meaning
            value = getattr(args, flag, None)
            if value is not None and not value >= 0:
                raise ValueError(f"--{flag.replace('_', '-')} must not be negative or NaN")
        return args.func(args)
    except (GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvaluationTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
