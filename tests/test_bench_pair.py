"""scripts/bench_pair.py's summary on canned benchmark outputs, and its
check that the two trees hold the same benchmark; no benchmark runs here
(the accepted pair runs a stub `bench/run.py`)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(_spec)
sys.modules["bench_pair"] = bench_pair  # dataclasses look their module up
_spec.loader.exec_module(bench_pair)

DIRECTIONS = {"wall_s": "lower", "items_per_s": "higher"}


def canned(side, seed, wall_s, items_per_s, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "items_per_s": {"value": items_per_s, "unit": "items/s"}}
    summary = {"correct": correct, "attempted": 6, "failed": failed, "metrics": metrics}
    return bench_pair.Run(side, seed, summary, None)


def test_seed_ranges():
    assert bench_pair.parse_seeds("31-34") == [31, 32, 33, 34]
    assert bench_pair.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pair.parse_seeds("9-3")


def test_directions_and_run_length_come_from_the_benchmark_file():
    directions, seconds = bench_pair.benchmark_spec(bench_pair.ROOT / "BENCHMARK.json")
    assert directions == {"setup_s": "lower", "wall_s": "lower",
                          "items_per_s": "higher", "peak_rss_mb": "lower"}
    assert seconds == 20


def test_summary_counts_wins_in_each_direction():
    runs = []
    parent = [(2.0, 800.0), (2.2, 810.0), (2.1, 790.0), (1.9, 805.0)]
    change = [(1.8, 900.0), (2.3, 905.0), (2.1, 930.0), (1.7, 780.0)]
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [canned("parent", seed, *p), canned("change", seed, *c)]
    table = bench_pair.summarize(runs, DIRECTIONS)
    # wall: lower wins at seeds 0 and 3; seed 2 ties and counts for neither.
    assert table["wall_s"]["wins"] == 2
    assert table["items_per_s"]["wins"] == 3
    assert table["items_per_s"]["pairs"] == 4
    q1, median, q3 = table["items_per_s"]["parent"]
    assert median == pytest.approx(802.5)
    assert q1 == pytest.approx(797.5) and q3 == pytest.approx(806.25)
    assert table["items_per_s"]["change"][1] == pytest.approx(902.5)
    lines = bench_pair.format_table(table)
    assert lines[1].startswith("items_per_s (higher is better): parent 802.5 [797.5, 806.25]")
    assert lines[1].endswith("change won 3/4")


def test_failed_runs_are_reported_and_left_out_of_the_pairs():
    runs = [canned("parent", 1, 2.0, 800.0), canned("change", 1, 1.0, 900.0),
            canned("parent", 2, 2.0, 800.0), canned("change", 2, 1.0, 900.0, failed=1),
            canned("parent", 3, 2.0, 800.0, correct=False), canned("change", 3, 1.0, 900.0)]
    problems = bench_pair.failures(runs)
    assert [p.split(":")[0] for p in problems] == ["change seed 2", "parent seed 3"]
    table = bench_pair.summarize(runs, DIRECTIONS)
    assert table["items_per_s"]["pairs"] == 1 and table["items_per_s"]["wins"] == 1


def test_parses_the_last_line_and_the_record(tmp_path):
    summary = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"items_per_s": {"value": 5.0, "unit": "items/s"}}}
    stdout = ("manifest {}\nrecord bench/out/median_rounds-seed3-trace0.json\n"
              + json.dumps(summary) + "\n")
    got, record = bench_pair.parse_output(stdout, tmp_path)
    assert got == summary
    assert record == tmp_path / "bench/out/median_rounds-seed3-trace0.json"
    with pytest.raises(ValueError):
        bench_pair.parse_output("", tmp_path)


def test_nearest_median_run():
    runs = [canned("change", s, 1.0, v) for s, v in enumerate([900.0, 950.0, 700.0])]
    assert bench_pair.nearest_median(runs).seed == 0


def stub_tree(root, summary):
    """A tree with the repo's BENCHMARK.json, a bench/run.py that prints
    `summary` as its last line, a helper module, and debris that the
    comparison leaves out."""
    (root / "bench" / "out").mkdir(parents=True)
    (root / "bench" / "__pycache__").mkdir()
    (root / "BENCHMARK.json").write_bytes((bench_pair.ROOT / "BENCHMARK.json").read_bytes())
    (root / "bench" / "run.py").write_text(
        f"import json\nprint(json.dumps({summary!r}))\n")
    (root / "bench" / "workloads.py").write_text("WORKLOADS = {}\n")
    (root / "bench" / "out" / f"{root.name}.json").write_text(root.name)
    (root / "bench" / "__pycache__" / "run.cpython.pyc").write_bytes(root.name.encode())
    return root


STUB = {"correct": True, "attempted": 1, "failed": 0,
        "metrics": {name: {"value": 1.0} for name in
                    ("setup_s", "wall_s", "items_per_s", "peak_rss_mb")}}


def test_identical_benchmarks_are_accepted(tmp_path, capsys):
    """Records and bytecode under bench/ differ, and are left out."""
    parent = stub_tree(tmp_path / "parent", STUB)
    change = stub_tree(tmp_path / "change", STUB)
    assert bench_pair.first_difference(parent, change) is None
    assert bench_pair.main([str(parent), str(change), "--workload", "mc_cer",
                            "--seeds", "1"]) == 0
    assert "change won 0/1" in capsys.readouterr().out


@pytest.mark.parametrize("edit, named", [
    (lambda tree: (tree / "bench" / "workloads.py").write_text("WORKLOADS = {1: 2}\n"),
     "bench/workloads.py"),
    (lambda tree: (tree / "bench" / "extra.py").write_text(""), "bench/extra.py"),
    (lambda tree: (tree / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
])
def test_a_changed_benchmark_is_refused_before_any_run(tmp_path, capsys, edit, named):
    """A changed file, or one on one side only, exits 2 and names the
    path; the stub's runs would print the summary, and none happens."""
    parent = stub_tree(tmp_path / "parent", STUB)
    change = stub_tree(tmp_path / "change", STUB)
    edit(change)
    assert bench_pair.first_difference(parent, change) == named
    assert bench_pair.main([str(parent), str(change), "--workload", "mc_cer",
                            "--seeds", "1"]) == 2
    out, err = capsys.readouterr()
    assert named in err and "seed 1" not in out
