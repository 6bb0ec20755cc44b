"""Benchmark harness: same instance, both exact evaluators, one CSV row.

Instances are drawn by the seeded generator, written to disk next to the
results, and evaluated by the covering-selection route (new) and the
product-space route (old).  The old route runs under a wall-clock budget;
going over it is recorded in the row, not raised, because the blow-up is
the measurement.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .combinatorics import count_terms_classical, count_terms_simplified
from .errors import EvaluationTimeout
from .evaluate import reliability_classical, reliability_simplified
from .system import FamilyShape, SystemSpec, generate_random_system, save_system

CSV_HEADER = (
    "shape",
    "components",
    "terms_new",
    "terms_old",
    "t_new_seconds",
    "t_old_seconds",
    "reliability_new",
    "reliability_old",
    "instance",
)


@dataclass(frozen=True)
class BenchRow:
    shape: str
    components: int
    terms_new: int
    terms_old: int
    t_new_seconds: float
    t_old_seconds: float | None  # None when the budget was exceeded
    reliability_new: float
    reliability_old: float | None
    instance: str

    @property
    def timed_out(self) -> bool:
        return self.t_old_seconds is None


def bench_system(
    spec: SystemSpec, label: str, timeout: float, instance_path: str
) -> BenchRow:
    shape = spec.shape
    new = reliability_simplified(spec, cap_terms=None)
    try:
        old = reliability_classical(spec, cap_terms=None, budget_seconds=timeout)
        t_old: float | None = old.wall_time
        rel_old: float | None = old.reliability
    except EvaluationTimeout:
        t_old = None
        rel_old = None
    return BenchRow(
        shape=label,
        components=spec.component_count,
        terms_new=count_terms_simplified(shape),
        terms_old=count_terms_classical(shape),
        t_new_seconds=new.wall_time,
        t_old_seconds=t_old,
        reliability_new=new.reliability,
        reliability_old=rel_old,
        instance=instance_path,
    )


def run_bench(
    shapes: Sequence[tuple[str, tuple[int, ...]]],
    components: int,
    sharing: float,
    seed: int,
    timeout: float,
    instance_dir: str | Path,
) -> list[BenchRow]:
    """One row per shape; every instance is persisted so rows are re-runnable."""
    instance_dir = Path(instance_dir)
    rows = []
    for label, sizes in shapes:
        spec = generate_random_system(
            FamilyShape(sizes),
            components,
            sharing,
            seed,
            name=f"bench-{label}-seed{seed}",
        )
        instance_dir.mkdir(parents=True, exist_ok=True)
        instance_path = instance_dir / f"{label.replace(',', '_')}-seed{seed}.json"
        save_system(spec, instance_path)
        rows.append(bench_system(spec, label, timeout, str(instance_path)))
    return rows


def row_cells(r: BenchRow, terms_new: str, terms_old: str) -> list[str]:
    """One row's CSV cells, the two term counts given as printed."""
    return [
        r.shape,
        str(r.components),
        terms_new,
        terms_old,
        f"{r.t_new_seconds:.6f}",
        "timeout" if r.t_old_seconds is None else f"{r.t_old_seconds:.6f}",
        f"{r.reliability_new:.15g}",
        "" if r.reliability_old is None else f"{r.reliability_old:.15g}",
        r.instance,
    ]


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(row_cells(r, str(r.terms_new), str(r.terms_old)) for r in rows)
    return buf.getvalue()
