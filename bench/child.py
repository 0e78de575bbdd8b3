"""Run one airmv CLI invocation in this fresh interpreter and report its cost.

    python3 bench/child.py RESULT.json run|trace <airmv cli arguments>
    python3 bench/child.py RESULT.json import

Writes a JSON object to RESULT.json: the time to import ``airmv.cli``, the
time spent in ``airmv.cli.main``, its return code or traceback, the peak
resident set size, and calibration times (see calibration_chunk) taken
after the import and again after ``main``. In trace mode it also holds the
recorded spans, the layer spans that could not be installed, and whether
every wrapper was put back. Import mode stops after the import and adds
library versions.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _versions() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass  # older numpy prints its config instead of returning it
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


CALIBRATION_CHUNKS = 3  # timed, each time after one untimed warm-up chunk


def calibration_chunk() -> float:
    """Seconds for a fixed mix of work that does not touch airmv: normal
    draws, complex elementwise arithmetic, small FFTs, a small matmul, a
    pure-Python loop and numpy scalar calls (about 25 ms on the reference
    box). The host's speed drifts by tens of percent over minutes; the
    harness scales timings by this probe so that runs compare."""
    import numpy as np

    rng = np.random.default_rng(12345)
    v = np.arange(1.0, 6.0)
    start = time.perf_counter()
    a = rng.standard_normal((128, 1024))
    b = a[:, :512] + 1j * a[:, 512:]
    for _ in range(4):
        b = b * np.conj(b[::-1]) / (1.0 + np.abs(b))
    for _ in range(20):
        np.fft.ifft(np.fft.fft(b[:8], axis=1), axis=1)
    m = a[:96, :96]
    for _ in range(20):
        m @ m.T
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(600):
        complex(np.prod(1.0 / (1.0 - 0.5j * v)))
    return time.perf_counter() - start


def _calibrate(result: dict) -> None:
    # The first chunk in a fresh interpreter, or after main, runs cold.
    result.setdefault("calib_warmup_s", []).append(calibration_chunk())
    result.setdefault("calib_s", []).extend(
        calibration_chunk() for _ in range(CALIBRATION_CHUNKS))


def main(argv: list[str]) -> int:
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    trace = mode == "trace"

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import airmv.cli

    result: dict = {"import_s": time.perf_counter() - t0}
    ok = True
    _calibrate(result)
    if mode == "import":
        result["versions"] = _versions()
    else:
        entry = airmv.cli.main
        if trace:
            import tracing

            tracer = tracing.Tracer()
            replaced, absent = tracing.install(tracer)
            entry = tracer.wrap("cli.main", entry)
        start = time.perf_counter()
        try:
            rc = entry(cli_args)
        except Exception:  # the run goes on; the leg counts as failed
            rc = None
            result["error"] = traceback.format_exc()
        result["main_s"] = time.perf_counter() - start
        _calibrate(result)
        result["rc"] = rc
        ok = rc == 0
        if trace:
            result["restored"] = tracing.restore(replaced)
            result["absent"] = absent
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
