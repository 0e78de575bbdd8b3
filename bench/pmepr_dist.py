"""Reference PMEPR distributions for the output check of `pmepr` legs.

    python3 bench/pmepr_dist.py     (run.py --record-refs runs it too)

A sample quantile of a small codebook can sit on a jump of its distribution:
uncoded K=8 has 256 equally likely vote patterns whose two largest PMEPR
values tie, so the p99 of 10 000 codewords is that top value whenever 101 or
more codewords land on those two patterns (about 0.7% of seeds) and the
next value down otherwise. No fixed tolerance around one seed's quantile
covers that without also hiding real changes. check.py therefore tests each
reported quantile against a distribution-free band read off a large
reference sample, which this script draws.

For every (K, method) series of a pmepr reference CSV it draws
REF_CODEWORDS codewords the way the `pmepr` experiment does (independent
uniform +-1 votes, then vote pattern, coefficient synthesis, DFT-s-OFDM at
the CSV's oversampling) and writes the sample's mean, standard deviation
and quantiles at LEVELS to ref/<workload>.<leg>.dist.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REF_CODEWORDS = 100_000
REF_SEED = 20240501
CHUNK = 10_000
# Every 0.001, plus every 1e-5 above 0.999 where p999 and max are read.
LEVELS = sorted({round(i / 1000, 6) for i in range(1001)}
                | {round(0.999 + i / 100_000, 6) for i in range(100)})


def _echo(ref_text: str) -> dict:
    first = ref_text.splitlines()[0]
    return dict(part.split("=", 1) for part in first[len("# airmv "):].split())


def sample(method_name: str, K: int, oversampling: int, codewords: int,
           rng: np.random.Generator) -> np.ndarray:
    """PMEPR in dB of `codewords` codewords with uniform random votes."""
    from airmv.encoding import Method, vote_pattern
    from airmv.huffman import radius_param, synthesize_coeffs
    from airmv.waveform import dfts_ofdm_modulate, pmepr

    method = Method.from_name(method_name)
    rp = radius_param(K)
    M = method.votes_per_codeword(K)
    out = []
    for start in range(0, codewords, CHUNK):
        size = min(CHUNK, codewords - start)
        votes = rng.integers(0, 2, size=(size, M)) * 2 - 1
        coeffs = synthesize_coeffs(vote_pattern(method, votes), rp)
        out.extend(pmepr(dfts_ofdm_modulate(c, oversampling)) for c in coeffs)
    return np.array(out)


def distribution(ref_text: str, codewords: int = REF_CODEWORDS,
                 seed: int = REF_SEED) -> dict:
    """Reference distribution of every (K, method) series of a pmepr CSV."""
    echo = _echo(ref_text)
    oversampling = int(echo["oversampling"])
    rng = np.random.default_rng(seed)
    series = {}
    for K in (int(k) for k in echo["k"].split(",")):
        for name in echo["methods"].split(","):
            values = sample(name, K, oversampling, codewords, rng)
            series[f"{K} {name}"] = {
                "mean": float(values.mean()),
                "sd": float(values.std(ddof=1)),
                "quantiles": [float(format(v, ".10g"))
                              for v in np.quantile(values, LEVELS)],
            }
    return {"codewords": codewords, "seed": seed, "levels": LEVELS, "series": series}


def write_all() -> int:
    """Write a .dist.json beside every pmepr reference CSV in ref/."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    paths = [p for p in sorted((BENCH / "ref").glob("*.csv"))
             if _echo(p.read_text(encoding="utf-8")).get("experiment") == "pmepr"]
    for path in paths:
        dist = distribution(path.read_text(encoding="utf-8"))
        out = path.with_suffix(".dist.json")
        out.write_text(json.dumps(dist, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"{out.name}: {len(dist['series'])} series of {dist['codewords']} codewords")
    return 0


if __name__ == "__main__":
    sys.exit(write_all())
