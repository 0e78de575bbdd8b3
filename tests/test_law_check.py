"""scripts/law_check.py at toy sizes: both modes run end to end and print
their verdicts; the full grids stay out of the suite."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "law_check.py"
_spec = importlib.util.spec_from_file_location("law_check", SCRIPT)
law_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(law_check)


def run(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True,
                          text=True, timeout=600)


def test_bound_and_z():
    """One cell is one 3-sigma check; acceptance criterion 6's 72-cell grid
    reads 4.12. Two zero standard errors give z = 0 on equal values
    and an infinite z otherwise."""
    assert math.isclose(law_check.sidak_bound(1), 3.0)
    assert round(law_check.sidak_bound(72), 2) == 4.12
    assert law_check.z_score(0.5, 0.0, 0.5, 0.0) == 0.0
    assert law_check.z_score(0.5, 0.0, 0.25, 0.0) == math.inf
    assert law_check.z_score(0.3, 0.03, 0.3, 0.04) == 0.0
    assert math.isclose(law_check.z_score(0.35, 0.03, 0.3, 0.04), 1.0)


def test_one_tree_mode():
    done = run("--k", "8", "--n-plus", "10,25", "--trials", "2000",
               "--theory-realizations", "20")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "seed 2029 (Monte Carlo), 2030 (theory)" in out
    assert out.count(" z ") == 8  # 2 methods x 1 K x 2 SNR x 2 n_plus
    assert "Sidak bound 3.584 over 8 cells" in out
    assert "chi^2 = " in out
    assert out.rstrip().endswith("verdict: every |z| within its bound")


def test_two_tree_mode_on_one_tree_twice():
    src = str(ROOT / "src")
    done = run("--trees", src, src, "--k", "8", "--trials", "2000", "--median-k", "2",
               "--seeds", "3", "--rounds", "4", "--realizations", "4")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "Monte Carlo seed 2029 (a) and 2031 (b)" in out
    assert "simulate_cer at n_plus 0 and U, a against b:" in out
    assert "n_plus=0" in out and "n_plus=25" in out and "n_plus=10" not in out
    # 2 methods x 1 K x 4 rounds of medians: no chi^2 for correlated rounds.
    assert "Sidak bound 3.584 over 8 cells\n\nverdict" in out
    assert out.count("chi^2 = ") == 1
    assert out.rstrip().endswith("verdict: every |z| within its bound")
