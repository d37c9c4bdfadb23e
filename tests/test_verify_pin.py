"""Byte-for-byte pin of ``verify_conjugation`` reports on fixed pairs.

One sha256 covers the canonical JSON (sorted keys, no spaces) of the reports
for nine conjugate pairs at n in {2, 3} and k in {1, 2, 3, 6}, most with a
base change A other than the identity, each verified with its own witness
and with ``corrupt_witness`` of it, at 128 and 256 bits.  The reports carry
every generator's ``max_deviation`` and its evaluated and skipped counts.
One more report checks a hand-built psi on the rank-2, k = 2 pair: a cycle
map whose closing map is a power of a dilation over the repeat cap, so psi
raises on the arc (0, 1/2) and every generator skips those grid points.  A
rewrite of the verification loop must leave the digest unchanged; a
deliberate change of output updates it with a note.

A second sha256 covers the same reports with every ``max_deviation``
removed: the verdicts and the evaluated and skipped counts.  A change that
moves only the rounding of the deviations, such as composing circle maps in
chart coordinates or wrapped maps in wrap coordinates, measuring two points
of one arc with one arctan, evaluating g and g' by the group law on the
lifts of x and psi(x), rounding every surd constant once from its
integers, carrying the difference of two sides that share their wrap
floors up from the deepest level, or drawing each grid point as a chart
point inside the trust window from the same one random draw, so that it
keeps its arc, leaves it unchanged.
"""

import copy
import hashlib
import json

import pytest

from circleconj.circlegroup import CircleGroupDescriptor
from circleconj.conjugacy import corrupt_witness, decide, verify_conjugation, witness_to_homeo
from circleconj.exactnum import Surd
from circleconj.homeo import CanonicalF, Power, Precision, Scale

PINNED = "5db6082abf74a4d75bac4f1efacae0923e3242c4c9b3d701b117027257f46ba1"
PINNED_WITHOUT_DEVIATIONS = "13d67bdcb8078ce78a824d3d9e86d03adf65d5b2a7227c7bb3bf66a9df066e72"

BITS = (128, 256)
GRID = 16

# (alpha1, alpha2, n, k, g1, g2); the alphas are Surd(a, b, c, d) = (a + b sqrt d) / c
PAIRS = (
    ((2, -1, 2, 2), (31, 1, 137, 2), 2, 1, (-2, 1), (2, -2)),
    ((-1, 1, 2, 5), (7, -1, 22, 5), 2, 2, (2, 1), (1, 2)),
    ((4, -1, 14, 2), (4, -1, 14, 2), 2, 3, (1, -2), (1, 0)),
    ((-1, 1, 2, 5), (45, 1, 202, 5), 2, 6, (1, -2), (-1, 2)),
    ((5, -1, 10, 5), (9, -1, 38, 5), 3, 1, (2, 1, -2), (0, -1, -2)),
    ((7, -1, 22, 5), (5, 1, 10, 5), 3, 2, (1, 1, -2), (1, 0, 2)),
    ((3, -1, 7, 2), (32, 1, 73, 2), 3, 3, (2, 2, -1), (-1, 1, 2)),
    ((46, 1, 151, 2), (32, 1, 73, 2), 3, 6, (2, -1, 1), (-2, 0, 1)),
    ((4, -1, 14, 2), (1088, -1, 4606, 2), 3, 3, (-2, 0, -2), (1, 1, -2)),
)


def conjugate_pairs():
    out = []
    for alpha1, alpha2, n, k, g1, g2 in PAIRS:
        d1 = CircleGroupDescriptor(Surd(*alpha1), n, k, g1)
        d2 = CircleGroupDescriptor(Surd(*alpha2), n, k, g2)
        dec = decide(d1, d2)
        assert dec.verdict == "conjugate"
        out.append((d1, d2, dec.witness))
    return out


def records():
    out = []
    pairs = conjugate_pairs()
    for seed, (d1, d2, wit) in enumerate(pairs):
        good = witness_to_homeo(d1, d2, wit)
        bad = witness_to_homeo(d1, d2, corrupt_witness(d1, wit), check=False)
        for bits in BITS:
            p = Precision(working_bits=bits)
            for psi in (good, bad):
                out.append(verify_conjugation(psi, d1, d2, wit, grid_size=GRID, p=p, seed=seed))
    d1, d2, wit = pairs[1]
    psi = CanonicalF(2, Power(Scale(2), 100))
    out.append(verify_conjugation(psi, d1, d2, wit, grid_size=GRID, seed=len(pairs)))
    return out


def digest(reports):
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def reports():
    return records()


def test_verify_reports_are_pinned(reports):
    assert any(g["skipped"] > 0 for r in reports for g in r["generators"])
    assert digest(reports) == PINNED


def test_verdicts_and_counts_are_pinned(reports):
    reports = copy.deepcopy(reports)
    for r in reports:
        for g in r["generators"]:
            del g["max_deviation"]
    assert digest(reports) == PINNED_WITHOUT_DEVIATIONS
