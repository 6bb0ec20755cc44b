"""Tabulate the two exact formulas' term counts.

The product-space expansion touches 2^(prod t_i) - 1 summands, the
covering-selection rewrite prod (2^{t_i} - 1).  The table makes the doubly
vs singly exponential gap concrete for uniform shapes; `relcover bench`
times the two evaluators.

    python3 scripts/term_growth.py
"""

from __future__ import annotations

import argparse
import decimal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relcover import FamilyShape, count_terms_classical, count_terms_simplified

TABLE_SHAPES = [(n, t) for n in (2, 3, 4, 5) for t in (2, 3, 4)]


def fmt_count(c: int) -> str:
    # counts overflow floats long before they stop being interesting
    if c < 10**9:
        return str(c)
    return f"{decimal.Decimal(c):.3e} ({len(str(c))} digits)"


def print_table() -> None:
    print(f"{'functions':>9} {'impls':>5} {'product-space':>28} {'covering':>12} {'ratio':>10}")
    for n, t in TABLE_SHAPES:
        shape = FamilyShape.uniform(n, t)
        old = count_terms_classical(shape)
        new = count_terms_simplified(shape)
        ratio = decimal.Decimal(old) / decimal.Decimal(new)
        print(f"{n:>9} {t:>5} {fmt_count(old):>28} {new:>12} {ratio:>10.2e}")


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    print_table()


if __name__ == "__main__":
    main()
