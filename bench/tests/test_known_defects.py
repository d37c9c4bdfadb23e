"""The two package defects the workloads leave out of their inputs.

Each test states what the package should do on one input of the class the
benchmark avoids (see MAX_F_ALPHA_ENTRY and MIN_LINE_OFFSET in
bench/workloads.py).  They are strict expected failures: once the package
is fixed they pass, pytest reports that, and the workloads can take the
class back.

    python3 -m pytest bench/tests/test_known_defects.py -q
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import circleconj as cc  # noqa: E402
import workloads  # noqa: E402

# conjugate pair over sqrt(94) - 9 whose witness has f_alpha entries near 2e8
PAIR = (
    {"alpha": {"a": 187, "b": -1, "c": 775, "d": 94}, "n": 2, "k": 5, "g": [-2, -2]},
    {"alpha": {"a": 3710, "b": 1, "c": 12042, "d": 94}, "n": 2, "k": 5, "g": [2, -1]},
)
# rank-3, k = 1 descriptor; t0 = 41/400 has line coordinate -2.997
ORBIT_DESCRIPTOR = {"alpha": {"a": 1512, "b": 1, "c": 3517, "d": 94}, "n": 3, "k": 1, "g": [-1, 0, -1]}
ORBIT_T0 = "41/400"


def test_the_inputs_are_in_the_left_out_classes():
    d1, d2 = (cc.CircleGroupDescriptor.from_json(d) for d in PAIR)
    dec = cc.decide(d1, d2)
    assert dec.verdict == "conjugate"
    assert not workloads.control_is_sensitive(dec.witness)
    assert ORBIT_DESCRIPTOR["k"] == 1
    line = math.tan(math.pi * (float(Fraction(ORBIT_T0)) - 0.5))
    assert abs(line - round(line)) < workloads.MIN_LINE_OFFSET


@pytest.mark.xfail(strict=True, reason="corrupted witness moves the map by ~1e-14, below tol 1e-6")
def test_corrupt_witness_control_is_rejected(tmp_path):
    paths = []
    for side, d in zip("ab", PAIR):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(d))
        paths.append(str(path))
    rc, _ = workloads._run_cli(["verify", *paths, "--grid", "48", "--corrupt-witness"])
    assert rc == 1


@pytest.mark.xfail(strict=True, reason="2000 draws leave a gap near 0.25")
def test_orbit_near_a_line_integer_is_dense(tmp_path):
    path, out = tmp_path / "d.json", tmp_path / "orbit.csv"
    path.write_text(json.dumps(ORBIT_DESCRIPTOR))
    rc, text = workloads._run_cli(
        ["orbit", str(path), "--t0", ORBIT_T0, "--count", "2000", "--out", str(out), "--seed", "0"]
    )
    assert rc == 0
    assert float(json.loads(text)["max_gap"]) < workloads.ORBIT_MAX_GAP
