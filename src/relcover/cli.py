"""Command line front end.

Subcommands: eval, count, bench, bounds, gen, paths, search-nonmonotone.
`count`, `gen` and `bench` name a shape as NxT (N functions of T
implementations each, so 3x3 is 3,3,3) or as explicit sizes t1,t2,...
(a bare T is one function), at most 10^6 functions in all; every printed
shape uses the explicit form.
Tabular output is CSV with a fixed header; --pretty renders the same rows
as aligned text.  Exit codes: 0 success, 1 input or validation error,
2 a cap or timeout stopped the run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .bench import rows_to_csv, run_bench
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
from .combinatorics import count_terms_classical, count_terms_simplified
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


# A shape names at most this many functions.  Every command holds one size
# per function, and `count` prints every size: two characters a function.
_MAX_FUNCTIONS = 1_000_000


def _parse_shape(token: str) -> tuple[int, ...]:
    # "3x3" reads as 3 functions with 3 implementations each;
    # "2,3,2" reads as explicit per-function sizes, "3" as one function.
    # An NxT token is checked before its N sizes are built.
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
    if copies * len(sizes) > _MAX_FUNCTIONS:
        raise ValueError(
            f"shape {token!r} has {copies * len(sizes)} functions, more than {_MAX_FUNCTIONS}"
        )
    return sizes * copies


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
        str(report.term_count),
        str(report.distinct_product_count),
        f"{report.wall_time:.6f}",
        "" if report.standard_error is None else f"{report.standard_error:.6g}",
    )
    _emit_table(header, [row], args.pretty)
    return 0


# `count` prints a term count in full only while it has at most this many
# bits: 2^|W| - 1 has |W|, prod (2^{t_i} - 1) fewer than sum t_i.  Past it
# the integer alone would run to thousands of digits, and to gigabytes
# before that, so the count is printed as a power or a product of powers;
# so is |W| itself past this many bits.
_EXACT_COUNT_MAX_BITS = 4096


def _power_form(sizes: Iterable[int], factor: str) -> str:
    # prod factor(t) with equal factors gathered, e.g. (2^1000-1)^20 or 3^10000
    return "*".join(
        f"{factor.format(t)}^{k}" if k > 1 else factor.format(t)
        for t, k in sorted(Counter(sizes).items())
    )


def _classical_count(shape: FamilyShape) -> str:
    # 2^|W| - 1 in full up to |W| = 4096, then with |W| in full while it has
    # at most 4096 bits, then with |W| as a product of powers of the sizes
    w = shape.product_size
    if w <= _EXACT_COUNT_MAX_BITS:
        return str(count_terms_classical(shape))
    if w.bit_length() <= _EXACT_COUNT_MAX_BITS:
        return f"2^{w}-1"
    return f"2^({_power_form((t for t in shape.sizes if t > 1), '{}')})-1"


def cmd_count(args) -> int:
    shape = FamilyShape(_parse_shape(args.shape))
    header = ("functions", "shape", "terms_classical", "terms_simplified")
    row = (
        str(shape.n),
        _shape_label(shape.sizes),
        _classical_count(shape),
        str(count_terms_simplified(shape))
        if shape.m <= _EXACT_COUNT_MAX_BITS
        else _power_form(shape.sizes, "(2^{}-1)"),
    )
    _emit_table(header, [row], args.pretty)
    return 0


def cmd_bench(args) -> int:
    shapes = [(token, _parse_shape(token)) for token in args.shapes]
    if args.out:
        instance_dir = Path(args.out).with_suffix("").as_posix() + "_instances"
    else:
        instance_dir = "bench_instances"
    rows = run_bench(
        shapes,
        components=args.components,
        sharing=args.sharing,
        seed=args.seed,
        timeout=args.timeout,
        instance_dir=instance_dir,
    )
    text = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} and instances under {instance_dir}", file=sys.stderr)
    if args.pretty:
        reader = csv.reader(io.StringIO(text))
        table = list(reader)
        _emit_table(table[0], table[1:], pretty=True)
    elif not args.out:
        sys.stdout.write(text)
    return 0


def cmd_bounds(args) -> int:
    spec = load_system(args.file)
    summary = bound_summary(spec)
    exact = exact_union_probability(spec)
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

    p = sub.add_parser("count", help="term-count predictors for a shape")
    p.add_argument("shape", help=_SHAPE_HELP)
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
