"""Self-tests of the benchmark: its oracle, its failure accounting, its inputs.

    python3 -m pytest perfbench/tests -q
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from relcover import load_system, reliability_classical

import run
import workloads
from instances import draw_system, write_system
from oracle import exact_reliability
from tracing import NoTracer, Tracer

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", range(40))
def test_oracle_matches_classical_route(tmp_path, seed):
    rng = random.Random(seed)
    sizes = [(2, 2), (3, 2), (2, 2, 2), (3, 3), (4,), (5,), (2, 3, 2)][seed % 7]
    system = draw_system(rng, sizes, rng.randint(4, 12), rng.random(), f"oracle-{seed}")
    write_system(system, tmp_path / "s.json")
    classical = reliability_classical(load_system(tmp_path / "s.json")).reliability
    exact = exact_reliability(system.masks(), list(system.reliabilities))
    assert abs(float(exact) - classical) <= 1e-12


def _design_instances(tmp_path, count):
    draw = workloads.draw_design(random.Random("design-loop:3"), "t")
    return workloads.prepare(draw.systems[:count] + draw.systems[-2:], tmp_path)


def test_corrupted_reference_is_counted_as_failed(tmp_path):
    instances = _design_instances(tmp_path, 16)
    clean = run.Checker(workloads.TOLERANCE)
    for inst in instances:
        clean.run(workloads.evaluate_system, inst, NoTracer())
    assert clean.failures == [] and clean.attempted == len(instances)

    exact, rounded = instances[3].refs["R"]
    instances[3].refs["R"] = (exact, rounded + 2e-9)
    corrupted = run.Checker(workloads.TOLERANCE)
    for inst in instances:
        corrupted.run(workloads.evaluate_system, inst, NoTracer())
    assert len(corrupted.failures) == 1
    assert len(corrupted.failures) / corrupted.attempted == 1 / len(instances)


def test_traced_run_reports_every_layer(tmp_path):
    instances = _design_instances(tmp_path / "i", 24)
    references = workloads.prepare(workloads.door_fixtures(), tmp_path / "r", first_id=-2)
    checker = run.Checker(workloads.TOLERANCE)
    tracer = Tracer()
    metrics = run.traced(workloads.WORKLOADS["design-loop"], instances, references, 0.2, checker, tracer)
    assert checker.failures == []
    assert all(value > 0 for name, (value, _) in metrics.items() if name.endswith("_s"))
    assert metrics["combinatorics.terms_nominal"][0] > 0
    assert all(span.end >= span.start for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_instance_files(tmp_path, name):
    workload = workloads.WORKLOADS[name]

    def files(directory, seed):
        draw = workload.draw(random.Random(f"{name}:{seed}"), f"{name}-seed{seed}")
        directory.mkdir()
        for i, system in enumerate(draw.systems):
            write_system(system, directory / f"{i:04d}.json")
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = files(tmp_path / "a", 5)
    assert first == files(tmp_path / "b", 5)
    assert first != files(tmp_path / "c", 6)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
