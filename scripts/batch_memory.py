"""What one vote-0 Monte Carlo batch holds beside its draws.

    PYTHONPATH=src python scripts/batch_memory.py [--trials N] [--k 16,32,128]
        [--methods uncoded,differential,indexed,goldenbaum,obda,obda_phase]

For each vote-0 engine and K it runs one batch of the `cer` Monte Carlo
(`simulate.mv_error_batch`, N = `simulate.BATCH_SIZE` trials by default,
U=25, n_plus=16, L_e=5, 10 dB) under tracemalloc and prints the batch's
peak beside the bytes of its draws: every value the batch's generator
returns, `rng.bytes` at a byte each and every other draw at its dtype's
size. A batch that held nothing but its draws would peak near that sum.
The backend is built before the peak is reset, so it is not counted.
"""

from __future__ import annotations

import argparse
import tracemalloc

import numpy as np

from airmv.aggregation import backend
from airmv.channel import PdpConfig
from airmv.simulate import BATCH_SIZE, mv_error_batch, stream

_U, _N_PLUS, _L_E, _SNR_DB = 25, 16, 5, 10.0


class CountingGenerator:
    """A generator's draws, with the bytes of every value it returns."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.nbytes = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            result = draw(*args, **kwargs)
            value = kwargs.get("out", result)
            self.nbytes += len(value) if isinstance(value, bytes) else np.asarray(value).nbytes
            return result

        return counted


def batch_memory(method: str, K: int, trials: int, seed: int = 1) -> tuple[int, int]:
    """(tracemalloc peak, bytes drawn) of one vote-0 batch of `trials`."""
    sigma2 = 10.0 ** (-_SNR_DB / 10.0)
    aggregate = backend(method, K, PdpConfig(_L_E), sigma2, positions=0)
    rng = CountingGenerator(stream(seed, K))
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        mv_error_batch(rng, trials, aggregate, _U, _N_PLUS, method, K)
        peak = tracemalloc.get_traced_memory()[1] - floor
    finally:
        if not started:
            tracemalloc.stop()
    return peak, rng.nbytes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=BATCH_SIZE)
    parser.add_argument("--k", default="16,32,128")
    parser.add_argument("--methods",
                        default="uncoded,differential,indexed,goldenbaum,obda,obda_phase")
    args = parser.parse_args(argv)
    print(f"one vote-0 batch of {args.trials} trials, U={_U}, n_plus={_N_PLUS}, "
          f"L_e={_L_E}, {_SNR_DB:g} dB")
    print(f"{'method':<14}{'K':>6}{'peak MB':>10}{'draws MB':>10}")
    for method in args.methods.split(","):
        for K in (int(k) for k in args.k.split(",")):
            peak, drawn = batch_memory(method, K, args.trials)
            print(f"{method:<14}{K:>6}{peak / 1e6:>10.3f}{drawn / 1e6:>10.3f}")


if __name__ == "__main__":
    main()
