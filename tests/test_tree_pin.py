"""Pin of the expression trees the group and conjugacy builders produce.

One sha256 covers the ``expr_to_json`` form of every tree built from a
seeded family of circle groups: ranks 2, 3 and 4, cycle lengths 1, 2, 3 and
6, over sqrt(2) - 1, (sqrt(5) - 1)/2 and sqrt(94) - 9 and GL(2,Z) images of
them.  For each group it records ``element_expr`` at every cycle power j and
several twists h (zero included) and ``basis_exprs``; for each conjugate pair
it records ``normalizer_expr`` and ``witness_to_homeo`` on the witness and on
its ``corrupt_witness``.  A builder that raises records the exception type
and message.  A refactor of the builders must leave the digest unchanged; a
deliberate change of the trees updates it with a note.
"""

import hashlib
import json
import random
from itertools import product

from circleconj.circlegroup import (
    CircleElement,
    CircleGroupDescriptor,
    element_expr,
    validate_g,
)
from circleconj.conjugacy import corrupt_witness, decide, witness_to_homeo
from circleconj.exactnum import Surd, UnimodularMatrix2
from circleconj.homeo import expr_to_json
from circleconj.intmat import StructuredMatrix
from circleconj.lineargroup import basis_exprs, normalizer_expr

PINNED = "0e4c11712bda11589a4bfd730220f8fab7b56954aa6a37cd53b1751097470540"

BASES = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-9, 1, 1, 94))
RANKS = (2, 3, 4)
CYCLES = (1, 2, 3, 6)


def gl2z_image(x: Surd, rng: random.Random) -> Surd:
    """x pushed through one to three seeded steps x -> 1/(a + x), which keep
    (0, 1) in itself."""
    for _ in range(rng.randint(1, 3)):
        x = 1 / (rng.randint(1, 5) + x)
    return x


def attempt(build, *args):
    try:
        return expr_to_json(build(*args))
    except Exception as exc:  # the exception is part of the pinned answer
        return ["raise", type(exc).__name__, str(exc)]


def records():
    rng = random.Random(20261018)
    out = []
    for n, k in product(RANKS, CYCLES):
        gs = [g for g in product(range(-2, 3), repeat=n) if validate_g(g, k)[0]]
        for base in BASES:
            alphas = (base, gl2z_image(base, rng))
            groups = [CircleGroupDescriptor(a, n, k, rng.choice(gs)) for a in alphas]
            for d in groups:
                out.append(["basis", d.to_json(), [expr_to_json(e) for e in basis_exprs(d.line())]])
                twists = [(0,) * n] + [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
                for j, h in product(range(k), twists):
                    out.append(["element", d.to_json(), j, h, attempt(element_expr, d, CircleElement(j, h))])
            # each group with itself, then two pairs with the base point kept
            # and two with it moved
            pairs = [(d, d) for d in groups]
            for moved in (False, False, True, True):
                for _ in range(40):
                    a1 = gl2z_image(base, rng)
                    a2 = gl2z_image(base, rng) if moved else a1
                    d1, d2 = (CircleGroupDescriptor(a, n, k, rng.choice(gs)) for a in (a1, a2))
                    if decide(d1, d2).verdict == "conjugate":
                        pairs.append((d1, d2))
                        break
            for d1, d2 in pairs:
                dec = decide(d1, d2)
                for wit in (dec.witness, corrupt_witness(d1, dec.witness)):
                    M = wit.M
                    M_norm = StructuredMatrix(M.f_alpha, UnimodularMatrix2.identity(), M.S, M.B)
                    out.append([
                        "pair", d1.to_json(), d2.to_json(), wit.to_json(),
                        attempt(normalizer_expr, d1.line(), M),
                        attempt(normalizer_expr, d1.line(), M_norm),
                        attempt(witness_to_homeo, d1, d2, wit, False),
                    ])
    return out


def digest():
    blob = json.dumps(records(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_builder_trees_are_pinned():
    assert digest() == PINNED
