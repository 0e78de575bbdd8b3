"""Span tracing of airmv's layers from outside the program.

A traced leg replaces the public functions of each layer with wrappers in
every airmv module namespace that bound them (``from .channel import
superpose`` makes ``airmv.simulate.superpose`` a second binding), records
one span per call in memory, and puts the originals back afterwards. The
wrappers only forward their arguments, so no random draw changes.

A span is the tuple (id, name, parent id, thread id, start, end, work,
error). ``work`` is a count computed from argument shapes (rows, complex
multiply-adds, probe evaluations); ``error`` names the exception that left
the call, if any. Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _rows(shape) -> int:
    return math.prod(shape[:-1])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _synth_rows(args, kwargs):
    return _rows(_arg(args, kwargs, 0, "inner").shape)


def _encode_rows(args, kwargs):
    return _rows(_arg(args, kwargs, 1, "votes").shape)


def _superpose_cmacs(args, kwargs):
    # One complex multiply-add per coefficient and tap (computed, not timed).
    coeffs = _arg(args, kwargs, 0, "coeff_seqs")
    channels = _arg(args, kwargs, 1, "channels")
    return math.prod(coeffs.shape) * channels.shape[-1]


def _probe_evals(args, kwargs):
    y = _arg(args, kwargs, 0, "y")
    ctx = _arg(args, kwargs, 1, "ctx")
    probes = 2 * ctx.rp.K if ctx.method.value == "uncoded" else ctx.rp.K
    return _rows(y.shape) * probes


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    work: Callable | None = None


BATCH_SPANS = (
    "simulate.mv_error_batch",
    "simulate.goldenbaum_error_batch",
    "simulate.obda_error_batch",
)

TARGETS = (
    Target("airmv.experiments", "run_experiment", "experiments.run_experiment"),
    Target("airmv.experiments", "write_csv", "experiments.write_csv"),
    Target("airmv.simulate", "simulate_cer", "simulate.simulate_cer"),
    Target("airmv.simulate", "simulate_cer_goldenbaum", "simulate.simulate_cer"),
    Target("airmv.simulate", "simulate_cer_obda", "simulate.simulate_cer"),
    Target("airmv.simulate", "run_trial_batches", "simulate.run_trial_batches"),
    Target("airmv.simulate", "mv_error_batch", "simulate.mv_error_batch"),
    Target("airmv.simulate", "goldenbaum_error_batch", "simulate.goldenbaum_error_batch"),
    Target("airmv.simulate", "obda_error_batch", "simulate.obda_error_batch"),
    Target("airmv.simulate", "encode_batch", "simulate.encode_batch", _encode_rows),
    Target("airmv.encoding", "vote_pattern", "encoding.vote_pattern"),
    Target("airmv.huffman", "synthesize_coeffs", "huffman.synthesize", _synth_rows),
    Target("airmv.channel", "sample_channel", "channel.sample"),
    Target("airmv.channel", "superpose", "channel.superpose", _superpose_cmacs),
    Target("airmv.decoding", "decode", "decoding.decode", _probe_evals),
    Target("airmv.theory", "vote_averaged_cer", "theory.vote_averaged_cer"),
    Target("airmv.theory", "detection_rates", "theory.rates"),
    Target("airmv.theory", "cdf_diff_exp_sums", "theory.cdf"),
    Target("airmv.median", "run_median", "median.run_median"),
    Target("airmv.median", "local_votes", "median.local_votes"),
    Target("airmv.median", "median_step", "median.median_step"),
    Target("airmv.waveform", "dfts_ofdm_modulate", "waveform.modulate"),
    Target("airmv.waveform", "ofdm_map_modulate", "waveform.modulate"),
    Target("airmv.waveform", "pmepr", "waveform.pmepr"),
)


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool worker's outermost span belongs to the span the main
        # thread is blocked in while it waits for the pool.
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            units = None
            if work is not None:
                try:
                    units = work(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature costs the count, not the run
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, parent, threading.get_ident(), start, end, units, error)
                )

        return traced


def _airmv_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "airmv" or n.startswith("airmv."))]


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every binding of each target; return (undo list, absent spans).

    A target whose function no longer exists is reported absent with the
    reason instead of failing the run.
    """
    replaced = []
    found: dict[str, bool] = defaultdict(bool)
    reasons: dict[str, list[str]] = defaultdict(list)
    modules = _airmv_modules()
    for t in targets:
        home = sys.modules.get(t.module)
        original = getattr(home, t.attr, None)
        if not callable(original):
            reasons[t.span].append(f"{t.module}.{t.attr} not found")
            continue
        found[t.span] = True
        wrapper = tracer.wrap(t.span, original, t.work)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    replaced.append((namespace, key, original))
    absent = {span: "; ".join(r) for span, r in reasons.items() if not found[span]}
    return replaced, absent


def restore(replaced) -> bool:
    """Put the originals back; True when no wrapper is left bound."""
    for namespace, key, original in reversed(replaced):
        namespace[key] = original
    return all(namespace[key] is original for namespace, key, original in replaced)


# ---------------------------------------------------------------- analysis

SID, NAME, PARENT, THREAD, START, END, WORK, ERROR = range(8)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    by_id = {s[SID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] in by_id:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = 0.0
        run_lo = run_hi = None
        for a, b in sorted(children.get(s[SID], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s[SID]] = (hi - lo) - covered
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a nonempty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


@dataclass(frozen=True)
class LegTrace:
    """What one traced leg left behind."""

    spans: list
    threads: int
    csv_bytes: int


# name -> (unit, spans the metric needs)
LAYER_METRICS = {
    "simulate.batches": ("count", BATCH_SPANS),
    "simulate.batch_ms.p50": ("ms", BATCH_SPANS),
    "simulate.batch_ms.p90": ("ms", BATCH_SPANS),
    "simulate.worker_busy_frac": ("ratio", BATCH_SPANS),
    "simulate.encode_batch.calls": ("count", ("simulate.encode_batch",)),
    "simulate.encode_batch.self_s": ("s", ("simulate.encode_batch",)),
    "encoding.table_hit_frac": ("ratio", ("simulate.encode_batch", "huffman.synthesize")),
    "huffman.synthesize.rows": ("count", ("huffman.synthesize",)),
    "huffman.synthesize.self_s": ("s", ("huffman.synthesize",)),
    "huffman.synthesize.rows_per_s": ("rows/s", ("huffman.synthesize",)),
    "channel.sample.self_s": ("s", ("channel.sample",)),
    "channel.superpose.self_s": ("s", ("channel.superpose",)),
    "channel.superpose.calls": ("count", ("channel.superpose",)),
    "channel.superpose.cmacs": ("count", ("channel.superpose",)),
    "decoding.decode.self_s": ("s", ("decoding.decode",)),
    "decoding.decode.calls": ("count", ("decoding.decode",)),
    "decoding.probe_evals": ("count", ("decoding.decode",)),
    "simulate.goldenbaum_error_batch.self_s": ("s", ("simulate.goldenbaum_error_batch",)),
    "simulate.obda_error_batch.self_s": ("s", ("simulate.obda_error_batch",)),
    "theory.cdf.calls": ("count", ("theory.cdf",)),
    "theory.cdf.self_s": ("s", ("theory.cdf",)),
    "theory.cdf_ms.p50": ("ms", ("theory.cdf",)),
    "theory.cdf_ms.p99": ("ms", ("theory.cdf",)),
    "theory.rates.self_s": ("s", ("theory.rates",)),
    "theory.integration_errors": ("count", ("theory.cdf",)),
    "median.rounds": ("count", ("median.local_votes",)),
    "median.round_ms.p50": ("ms", ("median.run_median", "median.local_votes")),
    "median.round_ms.p99": ("ms", ("median.run_median", "median.local_votes")),
    "median.aggregate_frac": ("ratio", ("median.run_median", "median.local_votes")),
    "waveform.modulate.calls": ("count", ("waveform.modulate",)),
    "waveform.modulate.self_s": ("s", ("waveform.modulate",)),
    "waveform.modulate_us.p50": ("us", ("waveform.modulate",)),
    "waveform.pmepr.self_s": ("s", ("waveform.pmepr",)),
    "experiments.self_s": ("s", ("experiments.run_experiment",)),
    "experiments.write_csv.self_s": ("s", ("experiments.write_csv",)),
    "experiments.csv_bytes": ("bytes", ()),
}

_AGGREGATION = ("simulate.encode_batch", "channel.sample", "channel.superpose",
                "decoding.decode")


def _ancestor(span_id, parents, wanted: set[int]) -> int | None:
    while span_id is not None:
        if span_id in wanted:
            return span_id
        span_id = parents.get(span_id)
    return None


def layer_metrics(legs: list[LegTrace]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced repetition of a workload.

    Returns (values, notes); a note explains a metric that has no sample on
    this workload (its value is then 0).
    """
    # Span ids restart in every leg's process; shift them apart.
    spans = []
    offset = 0
    for leg in legs:
        spans.extend(
            (s[SID] + offset, s[NAME], None if s[PARENT] is None else s[PARENT] + offset)
            + tuple(s[THREAD:])
            for s in leg.spans
        )
        offset += max((s[SID] for s in leg.spans), default=-1) + 1
    selfs = self_times(spans)
    parents = {s[SID]: s[PARENT] for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    def dur(s):
        return s[END] - s[START]

    def self_sum(*names):
        return sum(selfs[s[SID]] for n in names for s in named[n])

    def work_sum(name):
        return sum(s[WORK] or 0 for s in named[name])

    values, notes = {}, {}

    def pct(metric, samples, q, scale):
        if samples:
            values[metric] = percentile(samples, q) * scale
        else:
            values[metric] = 0.0
            notes[metric] = "no samples on this workload"

    batches = [s for n in BATCH_SPANS for s in named[n]]
    values["simulate.batches"] = len(batches)
    pct("simulate.batch_ms.p50", [dur(s) for s in batches], 0.5, 1e3)
    pct("simulate.batch_ms.p90", [dur(s) for s in batches], 0.9, 1e3)
    capacity = sum(
        leg.threads * sum(dur(s) for s in leg.spans if s[NAME] == "cli.main")
        for leg in legs
        if any(s[NAME] in BATCH_SPANS for s in leg.spans)
    )
    values["simulate.worker_busy_frac"] = (
        sum(dur(s) for s in batches) / capacity if capacity else 0.0
    )

    encodes = named["simulate.encode_batch"]
    values["simulate.encode_batch.calls"] = len(encodes)
    values["simulate.encode_batch.self_s"] = self_sum("simulate.encode_batch")
    encode_ids = {s[SID] for s in encodes}
    missed = {_ancestor(s[PARENT], parents, encode_ids) for s in named["huffman.synthesize"]}
    missed.discard(None)
    values["encoding.table_hit_frac"] = (
        (len(encodes) - len(missed)) / len(encodes) if encodes else 0.0
    )
    if not encodes:
        notes["encoding.table_hit_frac"] = "layer not exercised on this workload"

    rows = work_sum("huffman.synthesize")
    synth_self = self_sum("huffman.synthesize")
    values["huffman.synthesize.rows"] = rows
    values["huffman.synthesize.self_s"] = synth_self
    values["huffman.synthesize.rows_per_s"] = rows / synth_self if synth_self > 0 else 0.0

    values["channel.sample.self_s"] = self_sum("channel.sample")
    values["channel.superpose.self_s"] = self_sum("channel.superpose")
    values["channel.superpose.calls"] = len(named["channel.superpose"])
    values["channel.superpose.cmacs"] = work_sum("channel.superpose")

    values["decoding.decode.self_s"] = self_sum("decoding.decode")
    values["decoding.decode.calls"] = len(named["decoding.decode"])
    values["decoding.probe_evals"] = work_sum("decoding.decode")

    values["simulate.goldenbaum_error_batch.self_s"] = self_sum("simulate.goldenbaum_error_batch")
    values["simulate.obda_error_batch.self_s"] = self_sum("simulate.obda_error_batch")

    cdf = named["theory.cdf"]
    values["theory.cdf.calls"] = len(cdf)
    values["theory.cdf.self_s"] = self_sum("theory.cdf")
    pct("theory.cdf_ms.p50", [dur(s) for s in cdf], 0.5, 1e3)
    pct("theory.cdf_ms.p99", [dur(s) for s in cdf], 0.99, 1e3)
    values["theory.rates.self_s"] = self_sum("theory.rates")
    values["theory.integration_errors"] = sum(s[ERROR] == "IntegrationError" for s in cdf)

    votes = named["median.local_votes"]
    values["median.rounds"] = len(votes)
    runs = {s[SID]: s for s in named["median.run_median"]}
    starts = defaultdict(list)
    for s in votes:
        if s[PARENT] in runs:
            starts[s[PARENT]].append(s[START])
    round_s = []
    round_total = 0.0
    for run_id, ts in starts.items():
        ts.sort()
        round_s.extend(b - a for a, b in zip(ts, ts[1:]))
        round_total += runs[run_id][END] - ts[0]
    pct("median.round_ms.p50", round_s, 0.5, 1e3)
    pct("median.round_ms.p99", round_s, 0.99, 1e3)
    run_ids = set(runs)
    aggregated = sum(
        dur(s) for n in _AGGREGATION for s in named[n]
        if _ancestor(s[PARENT], parents, run_ids) is not None
    )
    values["median.aggregate_frac"] = aggregated / round_total if round_total else 0.0

    modulate = named["waveform.modulate"]
    values["waveform.modulate.calls"] = len(modulate)
    values["waveform.modulate.self_s"] = self_sum("waveform.modulate")
    pct("waveform.modulate_us.p50", [dur(s) for s in modulate], 0.5, 1e6)
    values["waveform.pmepr.self_s"] = self_sum("waveform.pmepr")

    values["experiments.self_s"] = self_sum("experiments.run_experiment", "cli.main")
    values["experiments.write_csv.self_s"] = self_sum("experiments.write_csv")
    values["experiments.csv_bytes"] = sum(leg.csv_bytes for leg in legs)

    for metric, (_, needed) in LAYER_METRICS.items():
        if metric in notes:
            continue
        if needed and not any(named[n] for n in needed):
            notes[metric] = "layer not exercised on this workload"
    return values, notes


def absent_notes(absent_spans: dict[str, str]) -> dict[str, str]:
    """Metrics that cannot be measured because a wrapped function is gone."""
    notes = {}
    for metric, (_, needed) in LAYER_METRICS.items():
        gone = [absent_spans[n] for n in needed if n in absent_spans]
        if gone:
            notes[metric] = "absent: " + "; ".join(gone)
    return notes
