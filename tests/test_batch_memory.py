"""scripts/batch_memory.py at a tiny batch: every engine and K prints its
tracemalloc peak beside the bytes of its draws."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "batch_memory.py"
_spec = importlib.util.spec_from_file_location("batch_memory", SCRIPT)
batch_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(batch_memory)


def test_prints_a_row_per_engine_and_k(capsys):
    methods = "uncoded,differential,indexed,goldenbaum,obda,obda_phase"
    batch_memory.main(["--trials", "40", "--k", "8,16", "--methods", methods])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "one vote-0 batch of 40 trials, U=25, n_plus=16, L_e=5, 10 dB"
    assert lines[1].split() == ["method", "K", "peak", "MB", "draws", "MB"]
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        (m, K) for m in methods.split(",") for K in (8, 16)]
    assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in rows)


def test_counts_every_drawn_byte():
    """The vote bytes at one byte each, then 8 bytes per normal: uncoded
    K=8 draws n U M / 8 vote bytes, one signal normal pair per live (trial,
    probe) cell (every cell of 2 probes: the users vote both ways) and
    one noise pair per (trial, noise basis row), 2 rows."""
    n, U = 40, 25
    _, drawn = batch_memory.batch_memory("uncoded", 8, n)
    assert drawn == n * U * 8 // 8 + 16 * n * 2 + 16 * n * 2
