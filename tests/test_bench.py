import csv
import io
import tracemalloc

import pytest

from relcover import (
    BenchRow,
    FamilyShape,
    bench_system,
    generate_random_system,
    load_system,
    rows_to_csv,
    run_bench,
)


def test_bench_system_agreement(tmp_path):
    spec = generate_random_system(FamilyShape((2, 2)), 10, 0.4, seed=3)
    row = bench_system(spec, "2x2", timeout=30.0, instance_path="x.json")
    assert not row.timed_out
    assert row.terms_new == "9"
    assert row.terms_old == "15"
    assert row.reliability_new == pytest.approx(row.reliability_old, abs=1e-12)


def test_budget_overrun_is_a_data_point():
    spec = generate_random_system(FamilyShape((4, 4)), 12, 0.5, seed=0)
    row = bench_system(spec, "4x4", timeout=0.0, instance_path="x.json")
    assert row.timed_out
    assert row.t_old_seconds is None
    assert row.reliability_old is None
    # the covering-selection route still finished
    assert 0.0 <= row.reliability_new <= 1.0
    assert row.t_new_seconds >= 0.0


def test_huge_term_counts_are_written_as_count_writes_them():
    # 2^19683 - 1 has 5,926 digits, past the integer-string limit
    spec = generate_random_system(FamilyShape.uniform(9, 3), 128, 0.0, seed=1)
    row = bench_system(spec, "9x3", timeout=0.0, instance_path="x.json")
    assert (row.terms_new, row.terms_old) == ("40353607", "2^19683-1")
    (cells,) = list(csv.reader(io.StringIO(rows_to_csv([row]))))[1:]
    assert cells[2:4] == ["40353607", "2^19683-1"]


def test_bench_builds_no_huge_count():
    # 2^(3^20) - 1 would take 436 MB; the row holds it as text, and the
    # budget stops the classical route at once
    spec = generate_random_system(FamilyShape.uniform(20, 3), 128, 0.0, seed=1)
    tracemalloc.start()
    try:
        row = bench_system(spec, "20x3", timeout=0.0, instance_path="x.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.timed_out
    assert row.terms_old == "2^3486784401-1"
    assert peak < 1 << 20, peak


def test_run_bench_persists_instances(tmp_path):
    rows = run_bench(
        [("1x2", (2,)), ("2,2", (2, 2))],
        components=10,
        sharing=0.4,
        seed=1,
        timeout=30.0,
        instance_dir=tmp_path / "inst",
    )
    assert [r.shape for r in rows] == ["1x2", "2,2"]
    for row in rows:
        again = load_system(row.instance)
        fresh = bench_system(again, row.shape, timeout=30.0, instance_path=row.instance)
        assert fresh.reliability_new == row.reliability_new


def test_csv_rendering_and_timeout_sentinel():
    done = BenchRow("2x2", 10, 9, 15, 0.001, 0.002, 0.5, 0.5, "a.json")
    out = BenchRow("4x4", 12, 225, 65535, 0.004, None, 0.75, None, "b.json")
    text = rows_to_csv([done, out])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["t_old_seconds"] == "0.002000"
    assert rows[1]["t_old_seconds"] == "timeout"
    assert rows[1]["reliability_old"] == ""
    assert list(rows[0]) == [
        "shape",
        "components",
        "terms_new",
        "terms_old",
        "t_new_seconds",
        "t_old_seconds",
        "reliability_new",
        "reliability_old",
        "instance",
    ]
