"""The benchmark's workloads: fixed lists of airmv CLI invocations ("legs").

Each workload is a closed loop with one caller: the legs run in order, each
in a fresh interpreter, and the next starts only after the previous one has
exited. A leg's `items` is the work it completes (trials, median rounds,
theory points or codewords); `group` names the per-sweep throughput the leg
contributes to. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1

# U=25 transmitters and L_e=5 equal-power taps, as in the paper's headline
# figures.
_LINK = ["--u", "25", "--l-e", "5", "--rho", "1"]


@dataclass(frozen=True)
class Leg:
    name: str
    group: str
    unit: str
    items: int
    argv: tuple[str, ...]


def _cer(name, k, methods, trials):
    # Two 20k-trial batches per point keep both worker threads busy.
    argv = ["cer", "--k", str(k), *_LINK, "--snr", "10", "--n-plus", "16",
            "--methods", methods, "--trials", str(trials), "--realizations", "0",
            "--threads", "2"]
    n_methods = len(methods.split(","))
    return Leg(name, f"mc.trials_per_s.{name}", "trials/s", trials * n_methods,
               tuple(argv))


def _rmse(name, group, k, methods, rounds, realizations):
    argv = ["rmse", "--k", str(k), *_LINK, "--snr", "10", "--methods", methods,
            "--rounds", str(rounds), "--realizations", str(realizations)]
    n_methods = len(methods.split(","))
    return Leg(name, f"median.rounds_per_s.{group}", "rounds/s", rounds * n_methods,
               tuple(argv))


def _theory(realizations):
    argv = ["theory", "--k", "8,32", *_LINK, "--snr", "0,10",
            "--n-plus", "14,18,22", "--methods", "m1,m2,m3",
            "--realizations", str(realizations)]
    return Leg("quad", "theory.points_per_s", "points/s", 2 * 2 * 3 * 3, tuple(argv))


def _pmepr(codewords):
    argv = ["pmepr", "--k", "8,32", "--methods", "m1,m2,m3",
            "--codewords", str(codewords), "--oversampling", "16"]
    return Leg("dfts", "pmepr.codewords_per_s", "codewords/s", 2 * 3 * codewords,
               tuple(argv))


def workload_legs(tiny: bool = False) -> dict[str, tuple[Leg, ...]]:
    """Leg lists per workload; `tiny` shrinks every size for self-tests."""
    s = (lambda full, small: small) if tiny else (lambda full, small: full)
    return {
        # The longest leg first: a run that ends inside a cycle has given
        # the earlier legs one more repetition.
        "mc_cer": (
            # 2^16 vote patterns exceed the codebook limit: direct synthesis.
            _cer("uncoded", 16, "uncoded", s(40_000, 400)),
            _cer("indexed", 32, "indexed", s(40_000, 400)),
            _cer("differential", 16, "differential", s(40_000, 400)),
            _cer("baselines", 32, "goldenbaum,obda,obda_phase", s(40_000, 400)),
        ),
        "median_rounds": (
            _rmse("indexed", "zero", 128, "indexed", s(200, 4), s(100, 4)),
            _rmse("uncoded_differential", "zero", 8, "uncoded,differential",
                  s(200, 4), s(100, 4)),
            _rmse("baselines", "baselines", 8, "goldenbaum,obda", s(200, 4),
                  s(100, 4)),
        ),
        "theory_quad": (_theory(s(40, 3)),),
        "pmepr_dfts": (_pmepr(s(10_000, 20)),),
    }


WORKLOADS = workload_legs()
