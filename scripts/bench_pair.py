"""Run the benchmark in a parent tree and a change tree, seed by seed, and
compare their end-to-end metrics.

    python3 scripts/bench_pair.py PARENT_DIR CHANGE_DIR --workload median_rounds \
        --seeds 31-40 [--record 27]

For each seed it runs `bench/run.py --workload W --seed S --seconds T
--trace 0` in both trees, T being `run_seconds` of `BENCHMARK.json`,
alternating which tree goes first, and reads the last line of each run's
output, the JSON summary. For every end-to-end metric that
`BENCHMARK.json` declares it prints each side's median with its quartiles
and the number of seeds the change won, in the metric's declared direction
(ties count for neither side). It exits 1 if any run is not `correct` or
has `failed > 0`.

Before any run it compares the two trees' benchmarks: `BENCHMARK.json` and
every file under `bench/`, leaving out `bench/out/` and `__pycache__/`. A
pair run across two different harnesses measures nothing, so if a file
differs, or exists in one tree only, it names the first such path and
exits 2.

With `--record N` it copies, for each side, the JSON record of the run
whose `items_per_s` lies nearest that side's median to
`BENCH_pr<N>_{parent,change}_<workload>.json` in the current directory.
It writes nothing else: each tree's `bench/out/` holds the records
`bench/run.py` itself writes, and nothing under `bench/` is changed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


@dataclass
class Run:
    side: str
    seed: int
    summary: dict  # the last output line: correct, attempted, failed, metrics
    record: Path | None  # the record bench/run.py wrote, if it named one

    @property
    def ok(self) -> bool:
        return bool(self.summary.get("correct")) and self.summary.get("failed", 1) == 0

    def value(self, metric: str) -> float:
        return float(self.summary["metrics"][metric]["value"])


def parse_seeds(text: str) -> list[int]:
    """'31-40' -> [31, ..., 40]; '7' -> [7]."""
    lo, sep, hi = text.partition("-")
    first = int(lo)
    last = int(hi) if sep else first
    if first < 0 or last < first:
        raise ValueError(f"bad seed range {text!r}")
    return list(range(first, last + 1))


def benchmark_spec(benchmark: Path) -> tuple[dict[str, str], float]:
    """Name -> 'higher' or 'lower' for each end-to-end metric declared, and
    the declared run length in seconds."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, float(spec["run_seconds"])


def benchmark_files(tree: Path) -> dict[str, bytes]:
    """Relative path -> bytes of `BENCHMARK.json` and of every file under
    `bench/`, but those under `bench/out/` and any `__pycache__/`."""
    files = {}
    spec = tree / "BENCHMARK.json"
    if spec.is_file():
        files["BENCHMARK.json"] = spec.read_bytes()
    for path in (tree / "bench").rglob("*"):
        rel = path.relative_to(tree)
        if (path.is_file() and rel.parts[:2] != ("bench", "out")
                and "__pycache__" not in rel.parts):
            files[rel.as_posix()] = path.read_bytes()
    return files


def first_difference(parent: Path, change: Path) -> str | None:
    """The first path, in sorted order, at which the two trees' benchmarks
    differ, a file on one side only included; None if they are the same."""
    a, b = benchmark_files(parent), benchmark_files(change)
    for rel in sorted(a.keys() | b.keys()):
        if a.get(rel) != b.get(rel):
            return rel
    return None


def parse_output(stdout: str, tree: Path) -> tuple[dict, Path | None]:
    """The JSON summary on the last non-empty line, and the record path that
    a `record <path>` line names, relative to the tree."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    summary = json.loads(lines[-1])
    record = None
    for line in lines:
        if line.startswith("record "):
            record = tree / line[len("record "):].strip()
    return summary, record


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: float) -> Run:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        summary, record = parse_output(proc.stdout, tree)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
        summary = {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                   "error": f"{err}; exit {proc.returncode}: {tail[0]}"}
        record = None
    return Run(side, seed, summary, record)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failures(runs: list[Run]) -> list[str]:
    """One line per run that is not correct or had failed operations."""
    return [
        f"{r.side} seed {r.seed}: correct={r.summary.get('correct')} "
        f"failed={r.summary.get('failed')} {r.summary.get('error', '')}".rstrip()
        for r in runs if not r.ok
    ]


def summarize(runs: list[Run], directions: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's (q1, median, q3) over the seeds both sides
    ran correctly, and the seeds the change won in the declared direction."""
    by_seed: dict[int, dict[str, Run]] = {}
    for r in runs:
        by_seed.setdefault(r.seed, {})[r.side] = r
    pairs = [sides for _, sides in sorted(by_seed.items())
             if len(sides) == 2 and all(r.ok for r in sides.values())]
    table = {}
    for name, better in directions.items():
        values = {s: [p[s].value(name) for p in pairs] for s in SIDES}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        table[name] = {
            "better": better,
            "pairs": len(pairs),
            "wins": wins,
            **{s: quartiles(values[s]) if pairs else None for s in SIDES},
        }
    return table


def format_table(table: dict[str, dict]) -> list[str]:
    lines = []
    for name, row in table.items():
        if not row["pairs"]:
            lines.append(f"{name}: no seed ran correctly on both sides")
            continue
        p, c = row["parent"], row["change"]
        lines.append(
            f"{name} ({row['better']} is better): parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]"
            f" -> change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}],"
            f" change won {row['wins']}/{row['pairs']}"
        )
    return lines


def nearest_median(runs: list[Run], metric: str = "items_per_s") -> Run:
    """The run whose `metric` lies nearest the median over `runs`."""
    mid = statistics.median(r.value(metric) for r in runs)
    return min(runs, key=lambda r: abs(r.value(metric) - mid))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 31-40")
    parser.add_argument("--record", type=int, metavar="N",
                        help="copy the median runs' records to BENCH_prN_*.json")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no bench/run.py")
    differs = first_difference(trees["parent"], trees["change"])
    if differs is not None:
        print(f"the trees' benchmarks differ at {differs}: a pair run across two "
              "harnesses measures nothing", file=sys.stderr)
        return 2
    directions, seconds = benchmark_spec(ROOT / "BENCHMARK.json")

    runs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], side, args.workload, seed, seconds)
            runs.append(run)
            ips = run.summary.get("metrics", {}).get("items_per_s", {}).get("value")
            print(f"seed {seed} {side}: correct={run.summary.get('correct')} "
                  f"failed={run.summary.get('failed')} items_per_s={ips}", flush=True)

    for line in format_table(summarize(runs, directions)):
        print(line)
    problems = failures(runs)
    for line in problems:
        print(f"FAILED {line}")
    if args.record is not None and not problems:
        for side in SIDES:
            run = nearest_median([r for r in runs if r.side == side])
            dest = Path(f"BENCH_pr{args.record}_{side}_{args.workload}.json")
            if run.record is None or not run.record.is_file():
                print(f"no record file for {side} seed {run.seed}")
                problems.append(f"{side}: record missing")
                continue
            shutil.copyfile(run.record, dest)
            print(f"{dest}: {side} seed {run.seed}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
