import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from relcover import (
    FamilyShape,
    count_terms_classical,
    count_terms_simplified,
    load_system,
    validate_system,
)
from relcover.cli import _parse_shape, entrypoint, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


def parse_pretty(text):
    """Rows of --pretty output: one "key: value" line per field, a blank line after each row."""
    rows = []
    for block in text.split("\n\n")[:-1]:
        fields = (line.partition(": ") for line in block.splitlines())
        rows.append({key.strip(): value for key, _, value in fields})
    return rows


# --- eval -------------------------------------------------------------------


def test_eval_simplified(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", fixtures_dir / "t1.json")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["method"] == "simplified"
    assert row["shape"] == "3"
    assert row["term_count"] == "7"
    assert float(row["reliability"]) == pytest.approx(0.2668, abs=1e-12)
    assert row["standard_error"] == ""


def test_eval_classical_matches(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", fixtures_dir / "t1.json", "--method", "classical")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["method"] == "classical"
    assert float(row["reliability"]) == pytest.approx(0.2668, abs=1e-12)


def test_eval_monte_carlo(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "eval",
        fixtures_dir / "t1.json",
        "--method",
        "monte-carlo",
        "--samples",
        "20000",
        "--seed",
        "4",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["method"] == "monte_carlo"
    assert row["term_count"] == "20000"
    assert float(row["standard_error"]) > 0
    assert abs(float(row["reliability"]) - 0.2668) < 5 * float(row["standard_error"])


def test_eval_monte_carlo_negative_seed_exits_1(capsys, fixtures_dir):
    code, out, err = run(
        capsys, "eval", fixtures_dir / "t1.json", "--method", "monte-carlo", "--seed", "-3"
    )
    assert code == 1
    assert out == ""
    assert "seed" in err


def test_runs_on_the_standard_library_alone(fixtures_dir):
    # numpy is blocked; every module the CLI run loads must be stdlib
    root = fixtures_dir.parent
    script = f"""
import sys
sys.modules["numpy"] = None
before = set(sys.modules)
sys.path.insert(0, {str(root / "src")!r})
from relcover.cli import main
code = main(["eval", {str(fixtures_dir / "t1.json")!r},
             "--method", "monte-carlo", "--samples", "1000"])
loaded = {{name.split(".")[0] for name in set(sys.modules) - before}}
foreign = loaded - set(sys.stdlib_module_names) - {{"relcover"}}
assert not foreign, sorted(foreign)
sys.exit(code)
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "monte_carlo" in done.stdout


def test_eval_pretty(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", fixtures_dir / "t1.json", "--pretty")
    assert code == 0
    assert "," not in out.splitlines()[0]
    assert "reliability: 0.2668" in out


def test_eval_rejects_invalid_system(capsys, fixtures_dir):
    code, _, err = run(capsys, "eval", fixtures_dir / "t2.json")
    assert code == 1
    assert "identical component sets" in err


def test_eval_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "eval", tmp_path / "nope.json")
    assert code == 1
    assert "error" in err


def test_eval_deeply_nested_json_exits_1(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, _, err = run(capsys, "eval", deep)
    assert code == 1
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_eval_top_level_list_exits_1(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, out, err = run(capsys, "eval", path)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: expected a JSON object at top level\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", 0.9),
        ("id", True),
        ("id", "0"),
        ("implementation", 0.2),
        ("implementation", False),
    ],
)
def test_eval_rejects_non_integer_ids(capsys, fixtures_dir, tmp_path, field, value):
    doc = json.loads((fixtures_dir / "t1.json").read_text())
    if field == "id":
        doc["components"][0]["id"] = value
    else:
        doc["functions"][0][0]["components"][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", path)
    assert code == 1
    assert out == ""
    assert "must be an integer" in err


def test_eval_rejects_string_reliability(capsys, fixtures_dir, tmp_path):
    doc = json.loads((fixtures_dir / "t1.json").read_text())
    doc["components"][0]["reliability"] = "0.5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", path)
    assert code == 1
    assert out == ""
    assert err == "error: reliability must be a number, got '0.5'\n"


def test_eval_cap_gives_exit_2(capsys, fixtures_dir):
    code, _, err = run(capsys, "eval", fixtures_dir / "t1.json", "--cap-terms", "3")
    assert code == 2
    assert "cap" in err.lower()


def test_eval_cap_zero_disables(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", fixtures_dir / "t1.json", "--cap-terms", "0")
    assert code == 0


def test_eval_live_mask_cap_gives_exit_2(capsys, fixtures_dir, monkeypatch):
    import relcover.evaluate

    monkeypatch.setattr(relcover.evaluate, "MAX_LIVE_MASKS", 1)
    code, out, err = run(capsys, "eval", fixtures_dir / "dms_two_door.json")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_eval_csv_flag_is_gone(capsys, fixtures_dir):
    code, out, err = run(capsys, "eval", fixtures_dir / "t1.json", "--csv")
    assert code == 1
    assert out == ""
    assert "--csv" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "bench_3x3.json --timeout 0 --samples 5 --seed 3",
            "--timeout does not apply to --method simplified",
        ),
        (
            "bench_2x2.json --method monte-carlo --cap-terms 1 --timeout 0",
            "--cap-terms does not apply to --method monte-carlo",
        ),
        (
            "t1.json --method classical --samples 7",
            "--samples does not apply to --method classical",
        ),
    ],
    ids=["simplified", "monte-carlo", "classical"],
)
def test_eval_rejects_flags_the_method_ignores(capsys, fixtures_dir, argv, message):
    name, *flags = argv.split()
    code, out, err = run(capsys, "eval", fixtures_dir / name, *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_eval_classical_timeout_gives_exit_2(capsys, tmp_path):
    target = tmp_path / "big.json"
    code, _, _ = run(capsys, "gen", "4,4", "--components", "12", "--out", target)
    assert code == 0
    code, _, err = run(
        capsys, "eval", target, "--method", "classical", "--timeout", "0.0"
    )
    assert code == 2
    assert "timeout" in err


# --- count ------------------------------------------------------------------


def test_count_exact_integers(capsys):
    code, out, _ = run(capsys, "count", "3x3")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["terms_classical"] == "134217727"
    assert row["terms_simplified"] == "343"
    assert row["shape"] == "3,3,3"


def test_count_takes_several_shapes(capsys):
    # the classical and simplified counts of the uniform shapes 2..5 x 2..4
    shapes = [f"{n}x{t}" for n in (2, 3, 4, 5) for t in (2, 3, 4)]
    code, out, err = run(capsys, "count", *shapes)
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) == 12
    for token, row in zip(shapes, rows):
        shape = FamilyShape(_parse_shape(token))
        assert row["shape"] == ",".join(map(str, shape.sizes))
        assert int(row["terms_classical"]) == count_terms_classical(shape)
        assert int(row["terms_simplified"]) == count_terms_simplified(shape)


def test_count_huge_shape_is_instant(capsys):
    code, out, _ = run(capsys, "count", "5x3")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["terms_classical"] == str((1 << 243) - 1)
    assert row["terms_simplified"] == "16807"


@pytest.mark.parametrize(
    "shape, classical",
    [("10x3", "2^59049-1"), ("30x3", "2^205891132094649-1")],
    ids=["10x3", "30x3"],
)
def test_count_prints_huge_classical_as_power(capsys, shape, classical):
    code, out, err = run(capsys, "count", shape)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert row["terms_classical"] == classical
    assert row["terms_simplified"] == str(7 ** int(shape.split("x")[0]))


@pytest.mark.parametrize(
    "shape, simplified",
    [
        ("20x1000", "(2^1000-1)^20"),
        ("3,5000,3", "(2^3-1)^2*(2^5000-1)"),
        ("4097", "(2^4097-1)"),
        ("4096", str((1 << 4096) - 1)),
    ],
    ids=["20x1000", "mixed", "past-4096", "at-4096"],
)
def test_count_prints_huge_simplified_as_product(capsys, shape, simplified):
    code, out, err = run(capsys, "count", shape)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert row["terms_simplified"] == simplified


@pytest.mark.parametrize(
    "shape, classical",
    [
        ("4095x2", f"2^{1 << 4095}-1"),
        ("4096x2", "2^(2^4096)-1"),
        ("10000x3", "2^(3^10000)-1"),
        (",".join(["5", "1"] + ["3"] * 3000), "2^(3^3000*5)-1"),
    ],
    ids=["at-4096-bits", "past-4096-bits", "10000x3", "mixed"],
)
def test_count_prints_huge_product_size_as_powers(capsys, shape, classical):
    # |W| = 3^10000 alone has 4,772 digits, past the integer-string limit
    code, out, err = run(capsys, "count", shape)
    assert (code, err) == (0, "")
    (row,) = parse_csv(out)
    assert row["terms_classical"] == classical


def test_count_label_reads_back(capsys):
    code, out, _ = run(capsys, "count", "2,3")
    assert code == 0
    (first,) = parse_csv(out)
    code, out, _ = run(capsys, "count", first["shape"])
    assert code == 0
    (again,) = parse_csv(out)
    assert first["shape"] == again["shape"] == "2,3"
    assert again["terms_simplified"] == "21"


def test_count_refuses_more_functions_than_the_cap(capsys):
    # the sizes are never built: 10^8 of them would take 800 MB
    code, out, err = run(capsys, "count", "100000000x3")
    assert (code, out) == (1, "")
    assert err == "error: shape '100000000x3' has 100000000 functions, more than 1000000\n"
    code, out, err = run(capsys, "count", "1000000x3")
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    label = ",".join(["3"] * 1_000_000)
    assert row == f'1000000,"{label}",2^(3^1000000)-1,(2^3-1)^1000000'


@pytest.mark.parametrize(
    "argv",
    [["count", "600000x3", "600000x3"], ["bench", "--shapes", "600000x3", "600000x3"]],
    ids=["count", "bench"],
)
def test_function_cap_counts_the_whole_shape_list(capsys, tmp_path, monkeypatch, argv):
    # each shape is under the cap, the two together are not
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: 2 shapes have 1200000 functions, more than 1000000\n"
    assert list(tmp_path.iterdir()) == []


def test_count_malformed_sizes(capsys):
    code, out, err = run(capsys, "count", "x")
    assert code == 1
    assert out == ""
    assert err == "error: malformed shape 'x'\n"


# --- bounds -----------------------------------------------------------------


def test_bounds_t1(capsys, fixtures_dir):
    code, out, _ = run(capsys, "bounds", fixtures_dir / "t1.json")
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["s1"]) == pytest.approx(0.334, abs=1e-12)
    assert float(row["bound_relaxed"]) == pytest.approx(0.2260048622366288, abs=1e-12)
    assert float(row["exact_reliability"]) == pytest.approx(0.2668, abs=1e-12)
    assert row["bound_le_exact"] == "yes"
    assert float(row["claimed_lower_bound"]) == pytest.approx(0.2260049, abs=1e-12)


def test_bounds_tolerates_duplicate_sets(capsys, fixtures_dir):
    code, out, _ = run(capsys, "bounds", fixtures_dir / "t2.json")
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["exact_reliability"]) == pytest.approx(0.2523527, abs=1e-12)


def test_bounds_needs_single_function(capsys, fixtures_dir):
    code, _, err = run(capsys, "bounds", fixtures_dir / "dms_two_door.json")
    assert code == 1
    assert "single-function" in err


@pytest.mark.parametrize(
    "events, live_masks, message",
    [
        # 2^25 - 1 nominal terms, refused before any subset is built
        (25, None, "terms exceeds the cap"),
        # 15 masks in the one function's own map
        (4, 8, "coefficient map passed 8"),
    ],
    ids=["term-cap", "map-cap"],
)
def test_bounds_cap_gives_exit_2(
    capsys, tmp_path, monkeypatch, events, live_masks, message
):
    import relcover.evaluate

    if live_masks is not None:
        monkeypatch.setattr(relcover.evaluate, "MAX_LIVE_MASKS", live_masks)
    # one function of disjoint one-component implementations
    doc = {
        "name": f"disjoint-{events}",
        "components": [{"id": i, "reliability": 0.5} for i in range(events)],
        "functions": [[{"label": f"E{i}", "components": [i]} for i in range(events)]],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bounds", path)
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err and message in err


# --- gen --------------------------------------------------------------------


def test_gen_writes_valid_system(capsys, tmp_path):
    target = tmp_path / "sys.json"
    code, _, _ = run(capsys, "gen", "2,3", "--seed", "5", "--out", target)
    assert code == 0
    spec = load_system(target)
    assert validate_system(spec).ok
    assert spec.shape.sizes == (2, 3)


def test_gen_stdout_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "gen", "2x2", "--seed", "9")
    code_b, out_b, _ = run(capsys, "gen", "2,2", "--seed", "9")
    assert code_a == code_b == 0
    assert out_a == out_b
    json.loads(out_a)


def test_gen_infeasible_exits_1(capsys):
    code, _, err = run(capsys, "gen", "5", "--components", "1")
    assert code == 1
    assert "error" in err


def test_gen_refuses_more_components_than_the_cap(capsys):
    code, out, err = run(capsys, "gen", "2x2", "--components", "129")
    assert (code, out) == (1, "")
    assert err == "error: 129 components exceeds the mask width cap 128\n"


# --- paths ------------------------------------------------------------------


def test_paths_reproduces_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "paths", fixtures_dir / "dms_one_door.json")
    assert code == 0
    assert out == (fixtures_dir / "dms_one_door.json").read_text()


def test_paths_out_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "derived.json"
    code, _, _ = run(capsys, "paths", fixtures_dir / "dms_two_door.json", "--out", target)
    assert code == 0
    derived = load_system(target)
    original = load_system(fixtures_dir / "dms_two_door.json")
    assert derived == original


def test_paths_requires_network(capsys, fixtures_dir):
    code, _, err = run(capsys, "paths", fixtures_dir / "t1.json")
    assert code == 1
    assert "network" in err


def test_paths_unreachable_terminal(capsys, tmp_path):
    doc = {
        "name": "broken",
        "components": [
            {"id": 0, "reliability": 0.5},
            {"id": 1, "reliability": 0.6},
        ],
        "functions": [[{"components": [0]}]],
        "network": {
            "nodes": [
                {"name": "a", "component": 0},
                {"name": "b", "component": 1},
            ],
            "edges": [],
            "terminals": [{"source": "a", "sink": "b"}],
        },
    }
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "paths", path)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "unreachable" in line


@pytest.mark.parametrize(
    "network, violation",
    [
        ({"nodes": [{"name": "a", "component": 0}], "terminals": []}, "defines no functions"),
        ({"nodes": [{"name": "a"}], "terminals": [{"source": "a", "sink": "a"}]}, "empty"),
    ],
    ids=["no-terminals", "empty-implementation"],
)
def test_paths_refuses_an_invalid_derived_system(capsys, tmp_path, network, violation):
    doc = {
        "name": "derived",
        "components": [{"id": 0, "reliability": 0.5}],
        "functions": [[{"components": [0]}]],
        "network": {"edges": [], **network},
    }
    path = tmp_path / "network.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "paths", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid system: ") and err.count("\n") == 1
    assert violation in err


def test_paths_cap_gives_exit_2(capsys, fixtures_dir, monkeypatch):
    import relcover.network

    monkeypatch.setattr(relcover.network, "MAX_SIMPLE_PATHS", 1)
    code, out, err = run(capsys, "paths", fixtures_dir / "dms_one_door.json")
    assert code == 2
    assert out == ""
    assert "simple paths" in err


# --- search -----------------------------------------------------------------


def test_search_finds_witness_row(capsys, tmp_path):
    prefix = tmp_path / "pair"
    code, out, err = run(
        capsys,
        "search-nonmonotone",
        "--trials",
        "40",
        "--seed",
        "1",
        "--out",
        prefix,
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["trial"] for r in rows] == ["12"]
    row = rows[0]
    assert float(row["reliability_low"]) < float(row["reliability_high"])
    assert float(row["bound_low"]) > float(row["bound_high"])
    low = load_system(f"{prefix}.low.json")
    high = load_system(f"{prefix}.high.json")
    assert validate_system(low).ok and validate_system(high).ok


def test_search_no_witnesses_header_only(capsys):
    code, out, _ = run(capsys, "search-nonmonotone", "--trials", "1", "--seed", "0")
    assert code == 0
    assert out.splitlines() == [
        "trial,reliability_low,reliability_high,bound_low,bound_high"
    ]


# --- bench ------------------------------------------------------------------


def test_bench_csv_and_instances(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, out, err = run(
        capsys,
        "bench",
        "--shapes",
        "1x2",
        "2,2",
        "--components",
        "10",
        "--sharing",
        "0.4",
        "--seed",
        "0",
        "--timeout",
        "10",
        "--out",
        out_csv,
    )
    assert code == 0
    assert out == ""
    assert "wrote" in err
    rows = parse_csv(out_csv.read_text())
    assert [r["shape"] for r in rows] == ["1x2", "2,2"]
    for r in rows:
        assert float(r["reliability_new"]) == pytest.approx(
            float(r["reliability_old"]), abs=1e-9
        )
        assert int(r["terms_new"]) <= int(r["terms_old"])
        instance = Path(r["instance"])
        assert instance.parent == tmp_path / "bench_instances"
        assert validate_system(load_system(instance)).ok


def test_bench_stdout_without_out(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "bench", "--shapes", "1x2", "--components", "8", "--timeout", "10"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert (tmp_path / "bench_instances").is_dir()


def test_bench_pretty_with_and_without_out(capsys, tmp_path, monkeypatch):
    # the instances default to ./bench_instances
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "--shapes", "1x2", "--components", "8", "--timeout", "10", "--pretty"]
    code, out, err = run(capsys, *argv, "--out", "bench.csv")
    assert (code, err) == (0, "wrote bench.csv and instances under bench_instances\n")
    rows = parse_csv((tmp_path / "bench.csv").read_text())
    assert parse_pretty(out) == rows
    code, out, _ = run(capsys, *argv)
    assert code == 0
    (row,) = parse_pretty(out)
    assert {k: v for k, v in row.items() if not k.endswith("_seconds")} == {
        k: v for k, v in rows[0].items() if not k.endswith("_seconds")
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv", "bench_instances"]


def test_bench_prints_huge_counts_as_count_does(capsys, tmp_path, monkeypatch):
    # 2^19683 - 1 has 5,925 digits, past the integer-string limit
    monkeypatch.chdir(tmp_path)
    argv = ["--components", "128", "--sharing", "0", "--timeout", "0.2", "--pretty"]
    code, out, err = run(capsys, "bench", "--shapes", "9x3", *argv, "--out", "bench.csv")
    assert (code, err) == (0, "wrote bench.csv and instances under bench_instances\n")
    (row,) = parse_csv((tmp_path / "bench.csv").read_text())
    assert parse_pretty(out) == [row]
    assert (row["terms_new"], row["terms_old"]) == ("40353607", "2^19683-1")
    code, out, _ = run(capsys, "count", "9x3")
    (count_row,) = parse_csv(out)
    assert (count_row["terms_simplified"], count_row["terms_classical"]) == (
        row["terms_new"],
        row["terms_old"],
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "2,3"],
        ["bench", "--shapes", "1x2", "--components", "8"],
        ["search-nonmonotone", "--trials", "1"],
    ],
    ids=["gen", "bench", "search-nonmonotone"],
)
def test_negative_seed_exits_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "seed" in err
    assert list(tmp_path.iterdir()) == []


def test_bench_malformed_shape(capsys):
    code, _, err = run(capsys, "bench", "--shapes", "axb")
    assert code == 1
    assert "malformed shape" in err


@pytest.mark.parametrize(
    "argv",
    [
        "eval t1.json --cap-terms -5",
        "eval t1.json --method classical --timeout -1",
        "bench --shapes 1x2 --components 8 --timeout -1",
        "eval bench_2x2.json --method classical --timeout nan",
        "bench --shapes 1x2 --components 8 --timeout nan",
    ],
    ids=["eval-cap-terms", "eval-timeout", "bench-timeout", "eval-timeout-nan", "bench-timeout-nan"],
)
def test_negative_cap_or_timeout_exits_1(capsys, fixtures_dir, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    argv = [fixtures_dir / a if a.endswith(".json") else a for a in argv.split()]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "must not be negative" in err
    assert list(tmp_path.iterdir()) == []


# --- shapes -----------------------------------------------------------------


def test_printed_shapes_read_back(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "gen", "2,3", "--components", "10", "--out", "sys.json")[0] == 0
    code, out, _ = run(capsys, "eval", "sys.json")
    (eval_row,) = parse_csv(out)
    code, out, _ = run(capsys, "count", "2,3")
    (count_row,) = parse_csv(out)
    assert _parse_shape(eval_row["shape"]) == _parse_shape(count_row["shape"]) == (2, 3)
    code, out, _ = run(
        capsys, "bench", "--shapes", "2,3", "2x3", "3", "--components", "10", "--timeout", "10"
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["shape"] for r in rows] == ["2,3", "2x3", "3"]
    for r in rows:
        sizes = _parse_shape(r["shape"])
        assert load_system(r["instance"]).shape.sizes == sizes
        assert int(r["terms_new"]) == count_terms_simplified(FamilyShape(sizes))
    # one grammar: count and bench agree on 2,3
    assert count_row["terms_simplified"] == rows[0]["terms_new"] == "21"


# --- README -----------------------------------------------------------------


def test_readme_cli_examples_run(capsys, fixtures_dir, tmp_path, monkeypatch):
    section = (fixtures_dir.parent / "README.md").read_text().split("\n## CLI\n")[1]
    blocks = section.split("```")
    commands = [line.split()[1:] for line in blocks[1].splitlines() if line.startswith("relcover ")]
    assert commands
    (tmp_path / "fixtures").symlink_to(fixtures_dir)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "bench":
            # its classical run is bounded only by --timeout 60
            continue
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    # the one example whose output the README shows
    prompt, *expected = blocks[3].strip("\n").splitlines()
    assert prompt.startswith("$ relcover ")
    code, out, _ = run(capsys, *prompt.split()[2:])
    assert code == 0
    assert out.splitlines() == expected


# --- parser -----------------------------------------------------------------


def test_unknown_command_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_no_command_exits_1(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_entrypoint_exits_with_the_command_code(capsys, monkeypatch, fixtures_dir):
    for argv, code in ((["eval", str(fixtures_dir / "t1.json")], 0), (["frobnicate"], 1)):
        monkeypatch.setattr(sys, "argv", ["relcover", *argv])
        with pytest.raises(SystemExit) as exited:
            entrypoint()
        assert exited.value.code == code
