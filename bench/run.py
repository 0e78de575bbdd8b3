"""Benchmark of the airmv CLI sweeps, run the way users run them.

    python3 bench/run.py --workload mc_cer --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --record-refs

Each workload (see workloads.py and README.md) is a closed loop over a
fixed list of CLI invocations, each in a fresh interpreter with BLAS pinned
to one thread, repeated until --seconds have passed. Every CSV is checked
against the reference recorded at the default seed (check.py). With
--trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and it carries the
per-layer metrics, measured by wrapping the layers from outside (tracing.py).
Times are scaled to a reference host speed measured by a calibration probe
in every child (child.calibration_chunk); raw values are printed beside
them. A JSON record with the manifest and every sample goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Leg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REF = BENCH / "ref"
OUT = BENCH / "out"

SETUP_REPEATS = 5
# Typical warm calibration chunk (child.calibration_chunk) on the reference
# box, a 2-vCPU VM. Reported times are scaled by CAL_REF_S / the mean chunk
# of speed_scale, i.e. to the speed the reference box has when that is 23 ms.
CAL_REF_S = 0.023
RUN_BUDGET_S = 170  # a run must end within 180 s, even if a child hangs
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()},
    "trace.overhead_frac": "ratio",
    "check.csv_ref_identical": "count",
}


def ref_path(workload: str, leg: Leg) -> Path:
    return REF / f"{workload}.{leg.name}.csv"


def load_ref(workload: str, leg: Leg) -> tuple[str, dict | None]:
    """The leg's reference CSV and, where there is one, the reference
    distribution beside it (pmepr_dist.py)."""
    path = ref_path(workload, leg)
    dist_path = path.with_suffix(".dist.json")
    dist = (json.loads(dist_path.read_text(encoding="utf-8"))
            if dist_path.is_file() else None)
    return path.read_text(encoding="utf-8"), dist


@dataclass
class LegRun:
    leg: Leg
    cycle: int
    traced: bool
    wall_s: float
    result: dict
    csv: bytes | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Starts child interpreters for one benchmark run."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = {**os.environ, **THREAD_ENV}
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self._count = 0

    def child(self, mode: str, cli_args=()) -> tuple[float, dict | None, str]:
        """Run child.py; return (wall seconds, its result or None, an error)."""
        self._count += 1
        result_path = self.workdir / f"child-{self._count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), mode,
               *cli_args]
        start = time.perf_counter()
        timeout = max(1.0, self.deadline - start)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, f"timed out after {timeout:.0f} s"
        wall = time.perf_counter() - start
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = None
        finally:
            result_path.unlink(missing_ok=True)
        error = ""
        if proc.returncode != 0 or result is None:
            lines = ((result or {}).get("error") or proc.stderr).strip().splitlines()
            error = f"exit {proc.returncode}: {lines[-1] if lines else 'no output'}"
        return wall, result, error

    def run_leg(self, leg: Leg, cycle: int, traced: bool,
                ref: tuple[str, dict | None] | None) -> LegRun:
        csv_path = self.workdir / f"{leg.name}-{cycle}-{int(traced)}.csv"
        argv = [*leg.argv, "--seed", str(self.seed), "--out", str(csv_path)]
        wall, result, error = self.child("trace" if traced else "run", argv)
        try:
            csv = csv_path.read_bytes()
            csv_path.unlink()
        except OSError:
            csv = None
        run = LegRun(leg, cycle, traced, wall, result or {}, csv)
        if error:
            run.problems.append(error)
        elif csv is None:
            run.problems.append("no CSV written")
        elif ref is not None:
            run.problems.extend(check.compare(csv.decode("utf-8", "replace"), *ref))
        if traced and result is not None and not result.get("restored", False):
            run.problems.append("tracing wrappers were not restored")
        return run


def measure(runner: Runner, workload: str, legs, seconds: float, trace: bool,
            check_refs: bool = True) -> list[LegRun]:
    """Closed loop: repeat the leg list until `seconds` have passed. The
    first cycle always runs whole; later ones stop at the first leg that
    would start after the deadline, so a run overshoots by at most one leg."""
    refs = {leg.name: load_ref(workload, leg) if check_refs else None for leg in legs}
    modes = (False, True) if trace else (False,)
    runs = []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        for traced in modes:
            for leg in legs:
                if cycle and time.perf_counter() >= deadline:
                    return runs
                runs.append(runner.run_leg(leg, cycle, traced, refs[leg.name]))
        cycle += 1


def check_determinism(runs: list[LegRun]) -> None:
    """Same seed, same bytes: every repetition of a leg, traced or not,
    must write the CSV its first untraced repetition wrote."""
    first = {}
    for run in runs:
        if run.csv is None or run.problems:
            continue
        digest = hashlib.sha256(run.csv).hexdigest()
        expected = first.setdefault(run.leg.name, digest)
        if digest != expected:
            what = "traced CSV differs" if run.traced else "CSV differs between repetitions"
            run.problems.append(f"{what} (sha256 {digest[:12]} != {expected[:12]})")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def leg_stats(runs: list[LegRun], legs, traced: bool) -> dict[str, dict]:
    """Per leg: medians over good runs of wall time (without the child's
    calibration), main() time and peak RSS; raw seconds."""
    stats = {}
    for leg in legs:
        good = [r for r in runs if r.leg is leg and r.traced == traced and r.ok]
        stats[leg.name] = {
            "samples": len(good),
            "wall_s": _median(r.wall_s - probe_s(r.result) for r in good),
            "main_s": _median(r.result["main_s"] for r in good),
            "maxrss_kb": _median(r.result["maxrss_kb"] for r in good),
        }
    return stats


def probe_s(result: dict) -> float:
    """Time a child spent in calibration chunks, warm-ups included."""
    return sum(result.get("calib_s", ())) + sum(result.get("calib_warmup_s", ()))


def speed_scale(results: list[dict]) -> float:
    """CAL_REF_S over the mean, across these child results, of each child's
    median timed calibration chunk. The host flips between speed states
    that differ by up to 1.5x within seconds; a probe only samples them, so
    a median across children jumps between the states where a mean moves
    with the share of time spent in each."""
    medians = [statistics.median(r["calib_s"]) for r in results if r.get("calib_s")]
    return CAL_REF_S / statistics.mean(medians) if medians else 1.0


def leg_threads(leg: Leg) -> int:
    return int(dict(zip(leg.argv, leg.argv[1:])).get("--threads", 1))


def end_to_end(stats: dict[str, dict], legs, setup_s: float,
               scale: float = 1.0) -> dict[str, float]:
    """Run-level metrics from per-leg medians, leg times multiplied by
    `scale`; `setup_s` is taken as given."""
    measured = [leg for leg in legs if stats[leg.name]["samples"]]
    main_s = scale * sum(stats[leg.name]["main_s"] for leg in measured)
    return {
        "setup_s": setup_s,
        "wall_s": scale * sum(stats[leg.name]["wall_s"] for leg in measured),
        "items_per_s": sum(leg.items for leg in measured) / main_s if main_s else 0.0,
        "peak_rss_mb": max((stats[leg.name]["maxrss_kb"] for leg in measured),
                           default=0.0) / 1024.0,
    }


def sweep_rates(stats: dict[str, dict], legs, scale: float) -> dict[str, tuple[float, str]]:
    """Throughput per named sweep (e.g. mc.trials_per_s.indexed), scaled."""
    groups: dict[str, list[Leg]] = {}
    for leg in legs:
        groups.setdefault(leg.group, []).append(leg)
    rates = {}
    for group, members in groups.items():
        main_s = scale * sum(stats[leg.name]["main_s"] for leg in members)
        items = sum(leg.items for leg in members)
        rates[group] = (items / main_s if main_s else 0.0, members[0].unit)
    return rates


def per_layer(runs: list[LegRun], legs, stats_plain, stats_traced, refs_identical,
              scale: float = 1.0):
    """Median over traced repetitions of each layer metric, plus notes;
    times are multiplied by `scale` like the end-to-end ones."""
    threads = {leg.name: leg_threads(leg) for leg in legs}
    cycles: dict[int, list[tracing.LegTrace]] = {}
    absent: dict[str, str] = {}
    for run in runs:
        if not run.traced or not run.ok:
            continue
        absent.update(run.result.get("absent", {}))
        spans = [tuple(s) for s in run.result["spans"]]
        cycles.setdefault(run.cycle, []).append(
            tracing.LegTrace(spans, threads[run.leg.name], len(run.csv)))
    # Counts per cycle compare only over cycles that traced every leg.
    per_cycle = [tracing.layer_metrics(traces) for traces in cycles.values()
                 if len(traces) == len(legs)]
    values = {
        name: _median(v[name] for v, _ in per_cycle) for name in tracing.LAYER_METRICS
    }
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if unit in ("s", "ms", "us"):
            values[name] *= scale
        elif unit == "rows/s":
            values[name] /= scale
    notes = {}
    for _, cycle_notes in per_cycle:
        notes.update(cycle_notes)
    notes.update(tracing.absent_notes(absent))
    plain = sum(s["wall_s"] for s in stats_plain.values())
    traced = sum(s["wall_s"] for s in stats_traced.values())
    values["trace.overhead_frac"] = traced / plain - 1.0 if plain else 0.0
    values["check.csv_ref_identical"] = refs_identical
    return values, notes


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def record_refs() -> int:
    """Write the reference CSVs, every leg once at the default seed, and
    the reference distributions of the pmepr legs."""
    REF.mkdir(exist_ok=True)
    workdir = OUT / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(DEFAULT_SEED, workdir)
    failed = 0
    for workload, legs in WORKLOADS.items():
        for leg in legs:
            run = runner.run_leg(leg, 0, False, None)
            if run.problems:
                failed += 1
                print(f"{workload}.{leg.name}: {run.problems}", file=sys.stderr)
                continue
            ref_path(workload, leg).write_bytes(run.csv)
            print(f"{workload}.{leg.name}: {len(run.csv)} bytes")
    shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        return 1
    import pmepr_dist

    return pmepr_dist.write_all()


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="rewrite bench/ref/ at the default seed and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "airmv" / "cli.py").is_file():
        print(f"bench: no airmv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_refs:
        return record_refs()
    if args.workload is None:
        parser.error("--workload is required")
    legs = WORKLOADS[args.workload]
    missing = [str(ref_path(args.workload, leg)) for leg in legs
               if not ref_path(args.workload, leg).is_file()]
    if missing:
        print(f"bench: missing reference CSVs {missing}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, legs, Runner(args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, legs, runner: Runner) -> int:
    # Set-up: one warm-up import (writes bytecode caches), then timed ones.
    _, warm, error = runner.child("import")
    if warm is None or error:
        print(f"bench: cannot import airmv.cli: {error}", file=sys.stderr)
        return 1
    imports = [runner.child("import")[1] for _ in range(SETUP_REPEATS)]
    if any(r is None for r in imports):
        print("bench: an import of airmv.cli failed during set-up", file=sys.stderr)
        return 1
    setup_s = statistics.median(r["import_s"] for r in imports)

    started = time.time()
    runs = measure(runner, args.workload, legs, args.seconds, bool(args.trace))
    check_determinism(runs)
    failed = sum(1 for r in runs if not r.ok)

    refs_identical = sum(
        1 for leg in legs
        if any(r.leg is leg and r.ok and not r.traced
               and r.csv == ref_path(args.workload, leg).read_bytes() for r in runs)
    )
    stats = leg_stats(runs, legs, traced=False)
    # Each measurement is scaled by the probes taken in its own time window.
    setup_scale = speed_scale(imports)
    scale = speed_scale([r.result for r in runs if r.ok])
    e2e = end_to_end(stats, legs, setup_scale * setup_s, scale)
    raw = end_to_end(stats, legs, setup_s)
    rates = sweep_rates(stats, legs, scale)
    if args.trace:
        stats_traced = leg_stats(runs, legs, traced=True)
        layer, notes = per_layer(runs, legs, stats, stats_traced, refs_identical, scale)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        notes = {}
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
        **warm["versions"],
        "legs": {leg.name: " ".join(leg.argv) for leg in legs},
    }
    record = {
        "manifest": manifest,
        "setup_import_s": [r["import_s"] for r in imports],
        "setup_calib_s": [r["calib_s"] for r in imports],
        "setup_speed_scale": setup_scale,
        "legs": stats,
        "samples": [
            {"leg": r.leg.name, "cycle": r.cycle, "traced": r.traced,
             "wall_s": r.wall_s, "main_s": r.result.get("main_s"),
             "maxrss_kb": r.result.get("maxrss_kb"), "calib_s": r.result.get("calib_s"),
             "calib_warmup_s": r.result.get("calib_warmup_s"),
             "problems": r.problems,
             "csv_sha256": hashlib.sha256(r.csv).hexdigest() if r.csv else None}
            for r in runs
        ],
        "speed_scale": scale,
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "sweeps": {name: value for name, (value, _) in rates.items()},
        "csv_ref_identical": refs_identical,
        "metrics": metrics,
        "notes": notes,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("manifest " + json.dumps(manifest))
    for leg in legs:
        s = stats[leg.name]
        print(f"leg {leg.name}: {s['samples']} good runs, raw wall {s['wall_s']:.3f} s, "
              f"main {s['main_s']:.3f} s, peak RSS {s['maxrss_kb'] / 1024:.1f} MB")
    for name, (value, unit) in rates.items():
        print(f"sweep {name} = {value:.6g} {unit}")
    print(f"speed scale {scale:.4f}, set-up {setup_scale:.4f} (reference calibration"
          f" chunk {CAL_REF_S * 1e3:g} ms over the mean chunk of the legs, of set-up)")
    for name, unit in END_TO_END.items():
        print(f"end_to_end {name} = {e2e[name]:.6g} {unit} (raw {raw[name]:.6g})")
    if args.trace:
        for name, unit in PER_LAYER.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"per_layer {name} = {metrics[name]['value']:.6g} {unit}{note}")
    print(f"csv sha256 identical to the seed-{DEFAULT_SEED} reference: "
          f"{refs_identical}/{len(legs)} legs")
    for r in runs:
        for problem in r.problems:
            print(f"FAILED {r.leg.name} cycle {r.cycle}"
                  f"{' traced' if r.traced else ''}: {problem}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
