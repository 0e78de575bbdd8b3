#!/usr/bin/env python3
"""Hold the probe-domain engine's draws to the law of the error-rate theory,
in one source tree or between two.

One tree (this repo's `src` unless `--src` names another):

    python3 scripts/law_check.py

compares the Monte Carlo `airmv.simulate.simulate_cer` with the exact law
`airmv.theory.vote_averaged_cers(..., exact=True)` for uncoded and
differential links, U = 25, L_e = 5 equal taps, at every K of `--k`,
n_plus of `--n-plus` and SNR of 0 and 10 dB: one theory call per
(method, K, SNR) group, each n_plus on its own stream.

Two trees:

    python3 scripts/law_check.py --trees OLD_SRC NEW_SRC

runs each tree in a subprocess of its own and compares two things. First
`simulate_cer` at the cells whose draws move when a silent probe stops
drawing normals: uncoded and differential, n_plus 0 and U, 0 and 10 dB,
each tree on its own seed. Then the mean RMSE per round of
`airmv.median.run_median` for uncoded and differential at every K of
`--median-k` (U = 25, L_e = 5, 10 dB), over `--seeds` independent seeds a
side.

Every comparison prints z = (a - b) / hypot(se_a, se_b) per cell, and the
largest |z| against the Sidak bound that gives all its cells together the
false-alarm rate of one 3-sigma check (as acceptance criterion 6 does).
The Monte Carlo grids, whose cells are independent, also print chi^2 =
sum z^2 with its p-value on as many degrees of freedom as cells; the
median's rounds are not independent, so it prints the bound only. The exit
status is 1 if any |z| passes its bound.

Seeds: cell (method, K, n_plus, snr) of the Monte Carlo runs on master seed
`--seed` with key (method index, K, n_plus, snr dB), and the theory's vote
draws on `--seed` + 1 with the same key; in the two-tree mode the second
tree's Monte Carlo runs on `--seed` + 2. Median run i of side s (0 for
the first tree) runs on `--seed` with key (s, i, method index, K).

At the default sizes on a 2-core x86 box (`--threads 2`) the one-tree mode
took 1.0 minute and the two-tree mode 1.6 minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from itertools import groupby
from pathlib import Path
from statistics import NormalDist

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("uncoded", "differential")
U, L_E, SNRS, MEDIAN_SNR = 25, 5, (0.0, 10.0), 10.0


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def sidak_bound(cells: int) -> float:
    """Per-cell |z| bound at which `cells` independent checks together
    raise a false alarm as often as one 3-sigma check."""
    normal = NormalDist()
    coverage = (1.0 - 2.0 * normal.cdf(-3.0)) ** (1.0 / cells)
    return normal.inv_cdf(1.0 - (1.0 - coverage) / 2.0)


def z_score(a: float, se_a: float, b: float, se_b: float) -> float:
    se = math.hypot(se_a, se_b)
    if se == 0.0:
        return 0.0 if a == b else math.copysign(math.inf, a - b)
    return (a - b) / se


def _sigma2(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def _cells(args, n_plus) -> list[tuple[str, int, int, float]]:
    return [(m, K, n, snr) for m in METHODS for K in args.k for snr in SNRS for n in n_plus]


def _key(method: str, K: int, n_plus: int, snr_db: float) -> tuple[int, ...]:
    return (METHODS.index(method), K, n_plus, int(snr_db))


# --- workers: run with the tree under test first on sys.path ---------------

def _work_cer(args) -> list[list[float]]:
    """[p, stderr] of `simulate_cer` per cell of `args.cells`."""
    from airmv.channel import PdpConfig
    from airmv.simulate import simulate_cer

    out = []
    for m, K, n, snr in json.loads(args.cells):
        out.append(simulate_cer(m, K, U, n, PdpConfig(L_E), _sigma2(snr), args.trials,
                                seed=args.seed, key=_key(m, K, n, snr),
                                threads=args.threads))
    return out


def _work_theory(args) -> list[list[float]]:
    """[probability, stderr] of the exact law per cell of `args.cells`: one
    `vote_averaged_cers` call per run of cells sharing (method, K, SNR)."""
    from airmv.channel import PdpConfig
    from airmv.encoding import Method
    from airmv.huffman import radius_param
    from airmv.simulate import stream
    from airmv.theory import CerModel, vote_averaged_cers

    out = []
    groups = groupby(json.loads(args.cells), key=lambda cell: (cell[0], cell[1], cell[3]))
    for (m, K, snr), cells in groups:
        n_plus = [n for _, _, n, _ in cells]
        model = CerModel(Method.from_name(m), radius_param(K), PdpConfig(L_E), _sigma2(snr))
        rngs = [stream(args.seed, *_key(m, K, n, snr)) for n in n_plus]
        out += [[est.probability, est.stderr] for est in vote_averaged_cers(
            U, n_plus, model, rngs, args.theory_realizations, exact=True)]
    return out


def _work_median(args) -> list[list[list[float]]]:
    """RMSE per round of each `--seeds` run, per (method, K) of `args.cells`."""
    from airmv.channel import PdpConfig
    from airmv.median import run_median

    out = []
    for m, K in json.loads(args.cells):
        out.append([run_median(m, K, U, args.rounds, args.realizations, PdpConfig(L_E),
                               _sigma2(MEDIAN_SNR), seed=args.seed,
                               key=(args.side, i, METHODS.index(m), K)).tolist()
                    for i in range(args.seeds)])
    return out


WORKERS = {"cer": _work_cer, "theory": _work_theory, "median": _work_median}


def run_worker(src: Path, task: str, args, cells, **overrides):
    """The JSON result of `task` on `cells`, computed in a subprocess that
    imports airmv from `src`."""
    argv = [sys.executable, __file__, "--worker", task, "--cells", json.dumps(cells)]
    for name in ("trials", "theory_realizations", "rounds", "realizations", "seeds",
                 "threads", "seed", "side"):
        value = overrides.get(name, getattr(args, name))
        argv += [f"--{name.replace('_', '-')}", str(value)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"worker {task} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


# --- reports ----------------------------------------------------------------

def report(title: str, rows, independent: bool = True) -> bool:
    """Print z per row of (label, a, se_a, b, se_b) and the grid verdict;
    True when every |z| is within the Sidak bound."""
    bound = sidak_bound(len(rows))
    print(f"\n{title}")
    zs = []
    for label, a, se_a, b, se_b in rows:
        z = z_score(a, se_a, b, se_b)
        zs.append(z)
        if independent:
            flag = "  <-- outside" if abs(z) > bound else ""
            print(f"  {label:34} {a:.6f} +- {se_a:.6f}  {b:.6f} +- {se_b:.6f}  "
                  f"z {z:+6.2f}{flag}")
    worst = max(range(len(rows)), key=lambda i: abs(zs[i]))
    print(f"  largest |z| = {abs(zs[worst]):.2f} at {rows[worst][0]}; Sidak bound "
          f"{bound:.3f} over {len(rows)} cells")
    if independent:
        from scipy.stats import chi2  # the workers never import scipy.stats

        stat = sum(z * z for z in zs)
        print(f"  chi^2 = {stat:.1f} on {len(rows)} cells, p = {chi2.sf(stat, len(rows)):.3f}")
    return all(abs(z) <= bound for z in zs)


def _label(cell) -> str:
    m, K, n, snr = cell
    return f"{m} K={K} n_plus={n} {snr:g} dB"


def one_tree(args) -> bool:
    cells = _cells(args, args.n_plus)
    print(f"one tree: {args.src}; seed {args.seed} (Monte Carlo), {args.seed + 1} "
          f"(theory), keys (method index, K, n_plus, snr dB); U={U}, L_e={L_E}, "
          f"{args.trials} trials, {args.theory_realizations} realizations")
    mc = run_worker(args.src, "cer", args, cells)
    exact = run_worker(args.src, "theory", args, cells, seed=args.seed + 1)
    rows = [(_label(c), p, se, q, se_q) for c, (p, se), (q, se_q) in zip(cells, mc, exact)]
    return report("simulate_cer (a) against vote_averaged_cers(exact=True) (b):", rows)


def two_trees(args) -> bool:
    old, new = args.trees
    cells = _cells(args, (0, U))
    print(f"two trees: a = {old}, b = {new}; Monte Carlo seed {args.seed} (a) and "
          f"{args.seed + 2} (b), keys (method index, K, n_plus, snr dB); U={U}, "
          f"L_e={L_E}, {args.trials} trials")
    a = run_worker(old, "cer", args, cells)
    b = run_worker(new, "cer", args, cells, seed=args.seed + 2)
    ok = report("simulate_cer at n_plus 0 and U, a against b:",
                [(_label(c), p, s, q, t) for c, (p, s), (q, t) in zip(cells, a, b)])

    configs = [(m, K) for m in METHODS for K in args.median_k]
    print(f"\nrun_median: seed {args.seed}, key (side, run, method index, K), side 0 "
          f"= a and 1 = b, runs 0..{args.seeds - 1}; U={U}, L_e={L_E}, "
          f"{MEDIAN_SNR:g} dB, {args.rounds} rounds, R={args.realizations}")
    runs = [run_worker(tree, "median", args, configs, side=side)
            for side, tree in enumerate((old, new))]
    rows = []
    for (m, K), ra, rb in zip(configs, *runs):
        for i in range(args.rounds):
            sides = []
            for r in (ra, rb):
                x = [run[i] for run in r]
                mean = sum(x) / len(x)
                var = sum((v - mean) ** 2 for v in x) / (len(x) - 1)
                sides += [mean, math.sqrt(var / len(x))]
            rows.append((f"{m} K={K} round {i + 1}", *sides))
    for m, K in configs:
        final = [r for r in rows if r[0] == f"{m} K={K} round {args.rounds}"][0]
        worst = max((r for r in rows if r[0].startswith(f"{m} K={K} ")),
                    key=lambda r: abs(z_score(*r[1:])))
        print(f"  {m} K={K}: final mean RMSE {final[1]:.5f} (a) {final[3]:.5f} (b); "
              f"largest |z| {abs(z_score(*worst[1:])):.2f} at {worst[0]}")
    return report("mean RMSE per round, a against b:", rows, independent=False) and ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--trees", type=Path, nargs=2, metavar=("OLD_SRC", "NEW_SRC"))
    parser.add_argument("--k", type=_ints, default=(8, 32, 128))
    parser.add_argument("--n-plus", type=_ints, default=(0, 10, 12, 13, 16, 25))
    parser.add_argument("--trials", type=int, default=400_000)
    parser.add_argument("--theory-realizations", type=int, default=300)
    parser.add_argument("--median-k", type=_ints, default=(2, 8, 32))
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--realizations", type=int, default=100)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2029)
    parser.add_argument("--worker", choices=sorted(WORKERS), help=argparse.SUPPRESS)
    parser.add_argument("--cells", help=argparse.SUPPRESS)
    parser.add_argument("--side", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(WORKERS[args.worker](args), sys.stdout)
        return 0
    ok = two_trees(args) if args.trees else one_tree(args)
    print("\nverdict:", "every |z| within its bound" if ok else "a |z| passes its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
