"""Output check: compare an airmv CSV with the reference recorded at the
default seed, with tolerances that also hold on any other seed.

Every row must be present, in order, with the same key columns. Values are
compared per metric:

- ``cer``: within Z combined binomial standard errors of the reference,
  sqrt(se^2 + se_ref^2), plus 2/trials for the discreteness of counts.
- ``cer_theory``: within Z combined vote-sampling standard errors plus the
  Gil-Pelaez quadrature tolerance.
- ``pmepr_ofdm_db``: deterministic, equal within 1e-9 dB.
- ``pmepr_dfts_*_db``: against the reference distribution drawn by
  pmepr_dist.py, N codewords per series. A sample quantile q of n codewords
  must lie between two reference quantiles: the level q, widened by 1/n
  for interpolation, is widened by the Wilson score interval at Z for n
  draws, and that interval's ends, widened by 1/N, again for N draws. The
  true level of the sample quantile lies in the first interval, and the
  reference's quantile at the second's end lies beyond that level, each
  but with probability about that of a Z-sigma normal tail. The band needs
  no assumption on the distribution, so it holds where a small codebook
  puts the quantile on a jump, and the score interval stays valid in the
  tails, where p999 of 10 000 draws rests on about ten of them. The mean
  must lie within Z combined standard errors, and the maximum above the
  reference quantile at 1 - Z^2/(2n) (the maximum of n draws falls below
  that level with probability exp(-Z^2/2)) widened likewise for N. Above
  the reference maximum, where a reference sample says nothing, a band
  ends TAIL_SLACK_DB higher; only the maximum's band reaches it.
- ``rmse_*``: within RMSE_ABS_TOL plus RMSE_REL_TOL times the reference.

The configuration echo must match the reference in every field but the seed.
"""

from __future__ import annotations

import bisect
import math

Z = 5.0
QUAD_TOL = 2e-6  # airmv.theory's default CDF tolerance, twice over
PMEPR_QUANTILES = {
    "pmepr_dfts_p50_db": 0.5,
    "pmepr_dfts_p90_db": 0.9,
    "pmepr_dfts_p99_db": 0.99,
    "pmepr_dfts_p999_db": 0.999,
}
# How far above the reference maximum a sample maximum may lie. The
# largest excess of one seed's maximum over the seed-1 maximum seen over
# seeds 2..20 was 1.06 dB (differential K=32).
TAIL_SLACK_DB = 2.5
FLOAT_SLACK = 1e-8  # values are written with 10 significant digits
# Tolerances for 100 median realizations: about twice the largest deviation
# from the seed-1 reference seen over seeds 2..20 (README.md).
RMSE_ABS_TOL = 0.06
RMSE_REL_TOL = 0.2

KEY_COLUMNS = ("experiment", "method", "K", "U", "L_e", "rho", "snr_db", "n_plus",
               "metric")


class CsvError(ValueError):
    pass


def parse(text: str) -> tuple[dict, list[str], list[dict]]:
    """(config echo fields, column names, rows as dicts) of an airmv CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# airmv "):
        raise CsvError("missing the '# airmv' configuration echo")
    echo = dict(part.split("=", 1) for part in lines[0][len("# airmv "):].split())
    columns = lines[1].split(",")
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise CsvError(f"line {lineno}: {len(cells)} cells for {len(columns)} columns")
        rows.append(dict(zip(columns, cells)))
    return echo, columns, rows


def _float(cell: str) -> float | None:
    return float(cell) if cell != "" else None


def _level_value(dist: dict, series: dict, level: float, upward: bool) -> float:
    """Reference quantile at `level`, read at the nearest stored level on the
    outer side (upward: the next level up), so the band only widens."""
    levels, values = dist["levels"], series["quantiles"]
    if upward:
        if level > 1.0:
            return values[-1] + TAIL_SLACK_DB
        return values[bisect.bisect_left(levels, level)]
    return values[max(0, bisect.bisect_right(levels, level) - 1)]


def _wilson(p: float, n: int, side: int) -> float:
    """Lower (side -1) or upper (side +1) end of the Wilson score interval
    at Z for a proportion p seen in n draws."""
    z2 = Z * Z / n
    centre = (p + z2 / 2.0) / (1.0 + z2)
    half = Z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n)) / (1.0 + z2)
    return centre + side * half


def _pmepr_bounds(metric: str, row: dict, dist: dict | None,
                  n: int) -> tuple[float, float]:
    series = (dist or {}).get("series", {}).get(f"{row['K']} {row['method']}")
    if series is None:
        raise CsvError(f"no reference distribution for K={row['K']} {row['method']}")
    big_n = dist["codewords"]
    if metric == "pmepr_dfts_mean_db":
        tol = Z * series["sd"] * math.sqrt(1.0 / n + 1.0 / big_n)
        return series["mean"] - tol, series["mean"] + tol
    if metric == "pmepr_dfts_max_db":
        low = _wilson(1.0 - Z * Z / (2.0 * n), big_n, -1) - 1.0 / big_n
        return (_level_value(dist, series, low, upward=False),
                series["quantiles"][-1] + TAIL_SLACK_DB)
    if metric not in PMEPR_QUANTILES:
        raise CsvError(f"no tolerance defined for metric {metric!r}")
    q = PMEPR_QUANTILES[metric]
    # An interpolated sample quantile lies within 1/n of level q among its
    # own draws; the same holds for the reference with 1/N.
    low = _wilson(_wilson(q - 1.0 / n, n, -1) - 1.0 / big_n, big_n, -1)
    high = _wilson(_wilson(q + 1.0 / n, n, +1) + 1.0 / big_n, big_n, +1)
    return (_level_value(dist, series, low, upward=False),
            _level_value(dist, series, high, upward=True))


def _bounds(metric: str, row: dict, ref: dict, echo: dict,
            dist: dict | None) -> tuple[float, float]:
    """Interval the row's value must lie in."""
    ref_value = float(ref["value"])
    if metric.startswith("pmepr_dfts_"):
        low, high = _pmepr_bounds(metric, row, dist, int(echo["codewords"]))
        return low - FLOAT_SLACK, high + FLOAT_SLACK
    se = _float(row["stderr"]) or 0.0
    se_ref = _float(ref["stderr"]) or 0.0
    if metric == "cer":
        tol = Z * math.hypot(se, se_ref) + 2.0 / int(echo["trials"])
    elif metric == "cer_theory":
        tol = Z * math.hypot(se, se_ref) + QUAD_TOL
    elif metric == "pmepr_ofdm_db":
        tol = 1e-9
    elif metric.startswith("rmse_"):
        tol = RMSE_ABS_TOL + RMSE_REL_TOL * abs(ref_value)
    else:
        raise CsvError(f"no tolerance defined for metric {metric!r}")
    return ref_value - tol, ref_value + tol


def compare(text: str, ref_text: str, dist: dict | None = None) -> list[str]:
    """Problems found in `text` against the reference CSV and, for PMEPR
    rows, the reference distribution; empty when it passes."""
    try:
        echo, columns, rows = parse(text)
        ref_echo, ref_columns, ref_rows = parse(ref_text)
    except (CsvError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    for key in sorted(set(echo) | set(ref_echo)):
        if key != "seed" and echo.get(key) != ref_echo.get(key):
            problems.append(f"config echo {key}={echo.get(key)} != {ref_echo.get(key)}")
    if columns != ref_columns:
        problems.append(f"columns {columns} != {ref_columns}")
        return problems
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        key = tuple(row[c] for c in KEY_COLUMNS)
        ref_key = tuple(ref[c] for c in KEY_COLUMNS)
        if key != ref_key:
            problems.append(f"row {i}: key {key} != reference {ref_key}")
            return problems  # rows out of step; later comparisons mean nothing
        try:
            value = float(row["value"])
            low, high = _bounds(row["metric"], row, ref, ref_echo, dist)
        except (CsvError, ValueError) as exc:
            problems.append(f"row {i}: {exc}")
            continue
        if not (math.isfinite(value) and low <= value <= high):
            problems.append(
                f"row {i} {row['method']} {row['metric']}: {value} outside "
                f"[{low:.10g}, {high:.10g}] (reference {ref['value']})"
            )
    return problems
