"""Bit-for-bit pin of the evaluator's answers on a fixed set of trees.

One sha256 covers the canonical JSON of ``eval_line`` and ``eval_circle``
results, recorded as raw ``_mpf_`` tuples or exact Fractions, at 128, 192 and
256 bits.  The trees cover every node kind, wrap depths 0 to 3, ``Inverse``,
``Power`` and ``Staircase``, and two realized conjugators.  The inputs are
floats, high-precision mpfs and exact ints, Fractions and Surds; some sit
inside the trust margin or the precision headroom, and those record the
exception type and message.  ``rotation_number`` and the
rejections of ``staircase()`` are pinned too.  A rewrite of the evaluator
must leave the digest unchanged; a deliberate change of output updates it
with a note.
"""

import hashlib
import json
import random
from fractions import Fraction

import mpmath

from circleconj.circlegroup import CircleElement, CircleGroupDescriptor, element_expr
from circleconj.conjugacy import decide, witness_to_homeo
from circleconj.exactnum import Surd
from circleconj.homeo import (
    CanonicalF,
    CircleExtend,
    Compose,
    HbarBase,
    HbarWrap,
    Identity,
    Inverse,
    Power,
    Precision,
    Scale,
    Translate,
    eval_circle,
    eval_line,
    hbar_iter,
    rotation_number,
    staircase,
)

PINNED = "ed5404c516ea3ef58402f077f78ba468eec3d0f859870139a67c6a8c41385e47"

BITS = (128, 192, 256)
SQRT2 = Surd.sqrt(2)
PHI = Surd(-1, 1, 2, 5)  # (sqrt(5) - 1) / 2


def _hi(text):
    with mpmath.mp.workprec(300):
        return mpmath.sqrt(mpmath.mpf(text))


def line_trees():
    step = staircase(HbarWrap(Translate(1)))
    out = [
        Identity(),
        Translate(SQRT2),
        Scale(Surd(3, 1, 1, 5)),
        Inverse(Scale(Surd(3, 1, 1, 5))),
        HbarBase(),
        Inverse(HbarBase()),
        Compose((Scale(2), Translate(Fraction(1, 3)), HbarBase())),
        Power(HbarWrap(Translate(SQRT2)), 3),
        Power(HbarWrap(Translate(SQRT2)), -2),
        Power(HbarWrap(Translate(1)), 0),
        Power(HbarWrap(Translate(1)), 100),
        step,
        Inverse(step),
        hbar_iter(step, 1),
        staircase(Power(HbarWrap(Translate(PHI)), 2)),
        Compose((hbar_iter(Scale(Surd(1, 1, 1, 2)), 2), hbar_iter(staircase(HbarWrap(Translate(PHI))), 1))),
        CanonicalF(2, Identity()),
    ]
    for m in range(4):
        out.append(hbar_iter(Translate(SQRT2), m))
        out.append(Inverse(hbar_iter(Compose((Scale(2), Translate(PHI))), m)))
    return out


def line_points():
    rng = random.Random(1)
    return [
        -2.7, -0.5, 0.3, 0.5, 0.75, 1.25, 2.9, 70.3, -70.3,
        1e-6, 2 - 1e-7, 1 + 3e-4,
        -2, 0, 3, 2.0, -1.0,
        Fraction(1, 3), Fraction(-7, 4), Fraction(1, 10**6), Fraction(1, 2**70), Fraction(1, 2**140),
        SQRT2, Surd(1, 1, 3, 2),
        _hi("3"), _hi("0.5"),
    ] + [rng.uniform(-3, 3) for _ in range(24)]


def realized_trees():
    """psi o g and g' o psi for one conjugate pair at ranks 2 and 3."""
    out = []
    for alpha1, alpha2, n, k, g1, g2 in (
        (Surd(2, -1, 2, 2), Surd(4, -1, 14, 2), 2, 2, (0, -1), (-1, 1)),
        (Surd(9, -1, 38, 5), PHI, 3, 3, (1, 1, 0), (-1, 1, 0)),
    ):
        d1 = CircleGroupDescriptor(alpha1, n, k, g1)
        d2 = CircleGroupDescriptor(alpha2, n, k, g2)
        dec = decide(d1, d2)
        assert dec.verdict == "conjugate"
        psi = witness_to_homeo(d1, d2, dec.witness)
        h = tuple(1 if i == n - 1 else 0 for i in range(n))
        out.append(psi)
        out.append(Compose((psi, element_expr(d1, CircleElement(1, h)))))
        out.append(Compose((element_expr(d2, CircleElement(k - 1, h)), Inverse(psi))))
    return out


def circle_trees():
    out = []
    for k in (1, 2, 3):
        f = CanonicalF(k, Translate(SQRT2))
        wrapped = CanonicalF(k, hbar_iter(Translate(PHI), 2))
        twist = HbarWrap(Translate(PHI))
        out += [
            f,
            Inverse(f),
            wrapped,
            Power(f, 2),
            Power(wrapped, -3),
            CircleExtend(HbarWrap(Translate(SQRT2)), k),
            CircleExtend(hbar_iter(Translate(PHI), 3), k),
            Inverse(CircleExtend(hbar_iter(Scale(3), 2), k)),
            CircleExtend(Scale(2), k, twist),
            CircleExtend(Identity(), k),
            CircleExtend(Identity(), k, Inverse(twist)),
            CircleExtend(HbarWrap(Translate(1)), k, Compose((twist, Translate(1)))),
            Inverse(CircleExtend(HbarWrap(Translate(1)), k, twist)),
        ]
    out += [CanonicalF(3, Identity()), Power(CanonicalF(2, Identity()), 70), Translate(1)]
    return out + realized_trees()


def circle_points():
    rng = random.Random(2)
    return [
        0.07, 0.21, 0.3, 0.5 + 1e-6, 0.55, 0.75, 0.83, 0.95, 1e-7, 0.0, 0.25, 0.5,
        Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 7), Fraction(5, 6),
        _hi("0.2"),
    ] + [rng.random() for _ in range(24)]


def exact(value):
    """JSON form of a result: an mpf as its raw tuple, a Fraction as a pair."""
    if isinstance(value, Fraction):
        return ["fraction", value.numerator, value.denominator]
    sign, man, exp, bc = value._mpf_
    return ["mpf", sign, int(man), exp, bc]


def attempt(fn, *args):
    try:
        return exact(fn(*args))
    except Exception as exc:  # the exception is part of the pinned answer
        return ["raise", type(exc).__name__, str(exc)]


def records():
    out = []
    for bits in BITS:
        p = Precision(working_bits=bits)
        for e in line_trees():
            out.append([attempt(eval_line, e, x, p) for x in line_points()])
        for e in circle_trees():
            out.append([attempt(lambda *a: eval_circle(*a).t, e, t, p) for t in circle_points()])
        out.append([
            attempt(rotation_number, CanonicalF(3, Identity()), Fraction(1, 7), 9, p),
            attempt(rotation_number, CanonicalF(2, Translate(SQRT2)), 0.25, 40, p),
            attempt(rotation_number, CanonicalF(3, hbar_iter(Translate(PHI), 1)), Fraction(1, 5), 12, p),
            attempt(rotation_number, Translate(1), 0.3, 3, p),
        ])
    rejected = []
    for e in (Translate(1), Scale(2), HbarBase(), CanonicalF(2, Identity()), Scale(1), 5):
        try:
            staircase(e)
            rejected.append(None)
        except Exception as exc:
            rejected.append([type(exc).__name__, str(exc)])
    out.append(rejected)
    out.append([exact(eval_line(staircase(e), 1.5)) for e in (
        Power(HbarWrap(Translate(1)), 2),
        Compose((HbarWrap(Translate(SQRT2)), HbarWrap(Scale(2)))),
    )])
    return out


def digest():
    blob = json.dumps(records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_evaluator_answers_are_pinned():
    assert digest() == PINNED
