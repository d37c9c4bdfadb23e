"""Byte-for-byte pin of ``orbit_sample`` on fixed calls.

One sha256 covers, for each call, the ``orbit_to_csv`` text, the number of
skipped draws and ``nstr(max_gap, 12)``.  The calls run 200 draws for every
rank n in {2, 3, 4} and cycle length k in {1, 2, 3, 4}, over sqrt(2) - 1,
(sqrt(5) - 1)/2 and sqrt(94) - 9, each from an exact Fraction t0 and from a
binary t0 built at the working precision, at 128 and 256 bits.  Three more
groups start where guards skip draws: t0 whose line coordinate lies 10^-25
past an integer (rank 3) or whose level-1 coordinate does (rank 4), beyond
the 128-bit headroom, and a binary t0 inside the trust margin of a marked
point.  A rewrite of the sampler must leave the digest unchanged; a
deliberate change of output updates it with a note.
"""

import hashlib
from fractions import Fraction
from itertools import product

import mpmath

from circleconj.circlegroup import CircleGroupDescriptor, orbit_sample, orbit_to_csv
from circleconj.exactnum import Surd
from circleconj.homeo import CirclePoint, Precision

PINNED = "2baefe356b980546743920e349d1cfe34e6cd7f444a6a5a175f9bcc55f1712f1"

BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))
# g for each rank; every entry list has content 1, so each k is torsion-free
GS = {2: (1, -1), 3: (1, 0, -2), 4: (-1, 2, 0, 1)}
DRAWS = 200
BITS = (128, 256)


def _href(x):
    return mpmath.mpf(1) / 2 + mpmath.atan(x) / mpmath.pi


def _exact(x) -> Fraction:
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp)


def edge_starts():
    """(descriptor, t0 as a Fraction) of the calls that hit guards."""
    with mpmath.mp.workprec(400):
        eps = mpmath.mpf(10) ** -25
        near_line = (_href(1 + eps) + 1) / 2  # arc (1/2, 1): line coordinate 1 + eps
        near_level1 = _href(2 + _href(1 + eps))  # k = 1: level-1 coordinate 1 + eps
        return (
            (CircleGroupDescriptor(BASES[0], 3, 2, GS[3]), _exact(near_line)),
            (CircleGroupDescriptor(BASES[1], 4, 1, GS[4]), _exact(near_level1)),
            (CircleGroupDescriptor(BASES[2], 2, 3, GS[2]), Fraction(1, 3) + Fraction(1, 10**5)),
        )


def calls():
    """(descriptor, t0, seed, precision) of every pinned call."""
    out = []
    for i, (d, t0) in enumerate(edge_starts()):
        for bits in BITS:
            p = Precision(working_bits=bits)
            with mpmath.mp.workprec(bits):
                t_bin = mpmath.mpf(t0.numerator) / t0.denominator
            out.append((d, CirclePoint(t0), i, p))
            out.append((d, CirclePoint(t_bin), i, p))
    for i, (n, k) in enumerate(product((2, 3, 4), (1, 2, 3, 4))):
        d = CircleGroupDescriptor(BASES[i % len(BASES)], n, k, GS[n])
        exact = Fraction(2137 + 1231 * i, 10**4) % 1
        binary = Fraction(3 + 5 * i, 37 + 2 * i) % 1  # never j/k: 37 + 2i is odd and above 4i
        for bits in BITS:
            p = Precision(working_bits=bits)
            with mpmath.mp.workprec(bits):
                t_bin = mpmath.mpf(binary.numerator) / binary.denominator
            for t0 in (CirclePoint(exact), CirclePoint(t_bin)):
                out.append((d, t0, i, p))
    return out


def records():
    out = []
    for d, t0, seed, p in calls():
        sample = orbit_sample(d, t0, DRAWS, seed=seed, p=p)
        out.append(f"{sample.skipped}|{mpmath.nstr(sample.max_gap, 12)}|{orbit_to_csv(sample)}")
    return out


def test_orbit_samples_are_pinned():
    blob = "\n".join(records())
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED
