"""Byte-for-byte pin of the exact layer's answers on a small fixed family.

One sha256 covers the canonical JSON (sorted keys, compact separators) of
every ``decide(d1, d2).to_json()`` over all ordered pairs of the family, plus
``cf_expand``, ``stabilizer_generator`` and ``equivalent`` on a grid of
surds.  A refactor of the continued-fraction or congruence code must leave
the digest unchanged; a deliberate change of output updates it with a note.
"""

import hashlib
import json
from itertools import product

from circleconj.circlegroup import CircleGroupDescriptor, validate_g
from circleconj.conjugacy import decide
from circleconj.exactnum import Surd, UnimodularMatrix2, cf_expand, equivalent, stabilizer_generator

ALPHAS = (
    Surd(-1, 1, 1, 2),  # sqrt(2) - 1
    Surd(0, 1, 2, 2),  # sqrt(2) / 2, equivalent to the first
    Surd(-1, 1, 2, 5),  # golden section
    Surd(-2, 1, 1, 7),  # sqrt(7) - 2, period of length 4
    Surd(3, -1, 1, 7),  # 3 - sqrt(7), equivalent to the previous
)
TWISTS = {2: ((1, 0), (0, 1), (1, 2)), 3: ((1, 0, 1), (0, 1, 0), (1, 1, 2))}

SURDS = tuple(
    Surd(a, b, c, d)
    for d in (2, 3, 5, 7)
    for a, b, c in product((-3, 0, 2), (-2, 1), (1, 3))
)

PINNED = "3ce25e71ede32c113355f5f48da921678c9563f35ab4e4afc4968eb8d721d26c"


def family():
    out = []
    for alpha, (n, twists), k in product(ALPHAS, TWISTS.items(), (1, 2, 3)):
        out.extend(CircleGroupDescriptor(alpha, n, k, g) for g in twists if validate_g(g, k)[0])
    return out


def records():
    decisions = [decide(d1, d2) for d1, d2 in product(family(), repeat=2)]
    blob = {
        "decide": [dec.to_json() for dec in decisions],
        "cf": [cf_expand(x).to_json() for x in SURDS],
        "stabilizer": [stabilizer_generator(x).to_json() for x in SURDS],
        "equivalent": [
            None if M is None else M.to_json()
            for M in (equivalent(x, y) for x, y in product(SURDS, repeat=2))
        ],
    }
    return decisions, blob


def test_exact_answers_are_pinned():
    decisions, blob = records()
    reasons = {dec.certificate["reason"] for dec in decisions if dec.certificate}
    assert reasons == {
        "rank_mismatch",
        "cycle_length_mismatch",
        "base_point_class",
        "congruence",
        "congruence_top",
    }
    witnesses = [dec.witness for dec in decisions if dec.witness is not None]
    assert any(wit.M.A != UnimodularMatrix2.identity() for wit in witnesses)
    assert any(wit.M.f_alpha != UnimodularMatrix2.identity() for wit in witnesses)
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED
