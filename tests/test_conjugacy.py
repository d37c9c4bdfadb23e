import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import pytest

from circleconj import circlegroup, conjugacy, exactnum, homeo
from circleconj.circlegroup import CircleElement, CircleGroupDescriptor, orbit_sample, validate_g
from circleconj.conjugacy import (
    ConjugacyWitness,
    StructuredMatrix,
    check_witness,
    conjugation_images,
    corrupt_witness,
    decide,
    decide_oracle,
    verify_conjugation,
    witness_compose,
    witness_invert,
    witness_to_homeo,
)
from circleconj.exactnum import (
    AlphaProfile,
    CertificateError,
    ContinuedFraction,
    NonQuadraticAlpha,
    Surd,
    UnimodularMatrix2,
    cf_expand,
    stabilizer_generator,
)
from circleconj.homeo import (
    CanonicalF,
    CircleExtend,
    CirclePoint,
    Identity,
    Power,
    Precision,
    Scale,
    _raw_distance,
    eval_circle,
)
from circleconj.intmat import mat_vec
from support import time_limit
from test_verify_pin import conjugate_pairs

ROOT2M1 = Surd(-1, 1, 1, 2)
GOLDEN = Surd(-1, 1, 2, 5)
HALFROOT2 = Surd(0, 1, 2, 2)

P = Precision(working_bits=256)


def D(alpha, n, k, g):
    return CircleGroupDescriptor(alpha, n, k, g)


# -- decide: invariant mismatches ---------------------------------------------------


def test_rank_mismatch():
    dec = decide(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 3, 2, (1, 0, 0)))
    assert dec.verdict == "not_conjugate"
    assert dec.certificate["reason"] == "rank_mismatch"
    assert dec.witness is None


def test_cycle_length_mismatch():
    dec = decide(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 3, (1, 0)))
    assert dec.verdict == "not_conjugate"
    assert dec.certificate["reason"] == "cycle_length_mismatch"


def test_base_point_class_mismatch():
    dec = decide(D(ROOT2M1, 2, 2, (1, 0)), D(GOLDEN, 2, 2, (1, 0)))
    assert dec.verdict == "not_conjugate"
    assert dec.certificate["reason"] == "base_point_class"
    assert len(dec.certificate["cf"]) == 2


def test_nonquadratic_is_undecided():
    nq = NonQuadraticAlpha((0, 2, 1, 1, 3, 5))
    dec = decide(D(nq, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (1, 0)))
    assert dec.verdict == "undecided_nonquadratic"
    assert dec.witness is None
    # rank mismatch still decides, whatever the base point kind
    dec2 = decide(D(nq, 2, 2, (1, 0)), D(ROOT2M1, 3, 2, (1, 0, 0)))
    assert dec2.verdict == "not_conjugate"


# -- decide: pinned congruence examples ----------------------------------------------


def test_pinned_conjugate_pair_with_stabilizer_twist():
    # u = (1,0), v = (0,1), k = 2: feasible only through f = T
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    dec = decide(d1, d2)
    assert dec.verdict == "conjugate"
    T = stabilizer_generator(ROOT2M1)
    assert dec.witness.M.f_alpha == T
    assert dec.witness.M.A == UnimodularMatrix2.identity()
    assert dec.witness.w == (-2, 0)
    assert dec.witness.h == (0, -1)


def test_pinned_not_conjugate_pair():
    dec = decide(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (1, 1)))
    assert dec.verdict == "not_conjugate"
    assert dec.certificate["reason"] == "congruence_top"


def test_pinned_trivial_f_pair():
    dec = decide(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (1, 2)))
    assert dec.verdict == "conjugate"
    assert dec.witness.M.f_alpha == UnimodularMatrix2.identity()
    assert dec.witness.w == (0, 2)
    assert dec.witness.h == (0, 1)


def test_long_stabilizer_period_is_walked_modulo_k():
    # T, the stabilizer generator of sqrt(2) - 1, has period 40024 modulo the
    # prime 20011; only the matched power is built as an exact matrix
    k = 20011
    d1 = D(ROOT2M1, 2, k, (1, 0))
    dec = decide(d1, D(ROOT2M1, 2, k, (1, 1)))
    assert dec.certificate == {
        "reason": "congruence_top",
        "modulus": k,
        "stabilizer_period_mod_k": 40024,
    }
    T = stabilizer_generator(ROOT2M1)
    v = tuple(x % k for x in (T ** 30000).apply_vector((1, 0)))
    d2 = D(ROOT2M1, 2, k, v)
    dec = decide(d1, d2)
    assert dec.verdict == "conjugate"
    assert tuple(x % k for x in dec.witness.M.f_alpha.apply_vector((1, 0))) == v
    assert check_witness(d1, d2, dec.witness) == (True, None)


def test_identical_descriptors_give_identity_witness():
    d = D(GOLDEN, 3, 3, (1, 0, 1))
    dec = decide(d, d)
    assert dec.verdict == "conjugate"
    assert dec.witness.M.is_identity()
    assert dec.witness.w == (0, 0, 0)
    assert dec.witness.h == (0, 0, 0)
    assert witness_to_homeo(d, d, dec.witness) == Identity()


def test_k1_pairs_always_conjugate():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.choice([2, 3])
        g1 = tuple(rng.randint(-3, 3) for _ in range(n))
        g2 = tuple(rng.randint(-3, 3) for _ in range(n))
        dec = decide(D(ROOT2M1, n, 1, g1), D(ROOT2M1, n, 1, g2))
        assert dec.verdict == "conjugate"
        assert dec.witness.h == dec.witness.w


def test_base_point_change_pair():
    # equivalent base points sqrt(2)-1 and sqrt(2)/2; the carrier A maps the
    # twist (0,1) back onto (1,0) exactly, so f, w and h all stay trivial
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(HALFROOT2, 2, 2, (0, 1))
    dec = decide(d1, d2)
    assert dec.verdict == "conjugate"
    assert dec.witness.M.A != UnimodularMatrix2.identity()
    assert dec.witness.w == (0, 0)
    ok, reason = check_witness(d1, d2, dec.witness)
    assert ok, reason
    # the same twist on both sides is *not* conjugate here: no stabilizer
    # power matches the carried coordinates mod 2
    assert decide(d1, D(HALFROOT2, 2, 2, (1, 0))).verdict == "not_conjugate"


# -- decide against the brute-force oracle -------------------------------------------


def test_decide_matches_oracle_on_small_sweep():
    rng = random.Random(777)
    for _ in range(80):
        n = rng.choice([2, 3])
        k = rng.choice([1, 2, 3, 4])
        g1 = tuple(rng.randint(-1, 1) for _ in range(n))
        g2 = tuple(rng.randint(-1, 1) for _ in range(n))
        if not (validate_g(g1, k)[0] and validate_g(g2, k)[0]):
            continue
        d1, d2 = D(ROOT2M1, n, k, g1), D(ROOT2M1, n, k, g2)
        assert decide(d1, d2).verdict == decide_oracle(d1, d2), (n, k, g1, g2)
    # rank 4, where the oracle also fills the upper cell of B: every ordered
    # pair of eight vectors per base and k, 576 pairs
    for alpha in (ROOT2M1, GOLDEN, Surd(-9, 1, 1, 94)):
        for k in (2, 3, 4):
            gs = [g for g in product(range(-1, 2), repeat=4) if validate_g(g, k)[0]]
            family = [D(alpha, 4, k, g) for g in rng.sample(gs, 8)]
            for d1, d2 in product(family, repeat=2):
                assert decide(d1, d2).verdict == decide_oracle(d1, d2), (alpha, k, d1.g, d2.g)
    # the invariant and base-point steps settle these before any enumeration
    nq = NonQuadraticAlpha((0, 2, 1, 1, 3, 5))
    assert decide_oracle(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 3, 2, (1, 0, 0))) == "not_conjugate"
    assert decide_oracle(D(nq, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (1, 0))) == "undecided_nonquadratic"


def test_oracle_bounds():
    with pytest.raises(ValueError):
        decide_oracle(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 13, (1, 0)))


# -- one alpha profile per value -------------------------------------------------------


def test_deciding_a_family_twice_builds_each_profile_once():
    alphas = (ROOT2M1, GOLDEN, 1 / (3 + ROOT2M1), 1 / (2 + GOLDEN), Surd(-2, 1, 1, 7), HALFROOT2)
    family = [D(a, 3, 6, g) for a in alphas for g in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 3, 1))]
    AlphaProfile.of.cache_clear()
    for _ in range(2):
        for d1 in family:
            for d2 in family:
                decide(d1, d2)
    info = AlphaProfile.of.cache_info()
    assert info.misses == len(set(alphas)) == 6
    assert info.hits > 0


def test_the_continued_fraction_is_the_profiles_own():
    for x in (ROOT2M1, GOLDEN, Surd(-2, 1, 1, 7)):
        assert cf_expand(x) is cf_expand(x) is AlphaProfile.of(x).cf


def test_deciding_a_family_twice_builds_one_continued_fraction_per_alpha(monkeypatch):
    alphas = (ROOT2M1, GOLDEN, Surd(-2, 1, 1, 7), HALFROOT2, Surd(-9, 1, 1, 94))
    family = [D(a, 3, 6, g) for a in alphas for g in ((1, 0, 0), (1, 1, 1))]
    built = []

    def counted(*args):
        built.append(args)
        return ContinuedFraction(*args)

    monkeypatch.setattr(exactnum, "ContinuedFraction", counted)
    AlphaProfile.of.cache_clear()
    for _ in range(2):
        verdicts = [decide(d1, d2).certificate for d1 in family for d2 in family]
    # 100 pairs less the 16 + 3 * 4 inside a class: sqrt(2) - 1 with sqrt(2)/2, each other alpha alone
    assert sum(c is not None and c["reason"] == "base_point_class" for c in verdicts) == 72
    assert len(built) == len(alphas)


def test_a_refusal_hands_out_its_own_lists():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(GOLDEN, 2, 2, (1, 0))
    expected = {
        "reason": "base_point_class",
        "cf": [{"preperiod": [0], "period": [2]}, {"preperiod": [0], "period": [1]}],
    }
    first = decide(d1, d2)
    assert first.certificate == expected
    first.certificate["cf"][0]["period"].append(5)
    first.certificate["cf"][1]["preperiod"][0] = 7
    assert decide(d1, d2).certificate == expected
    assert decide(d1, d2).to_json()["certificate"] == expected
    assert cf_expand(ROOT2M1).to_json() == expected["cf"][0]


def test_cold_and_warm_profiles_give_identical_decisions():
    # the family of acceptance 7: every rank-2 pair, and a seeded sample of the rank-3 pairs
    rng = random.Random(4242)
    pairs = []
    for n in (2, 3):
        for k in range(1, 7):
            family = [
                D(alpha, n, k, g)
                for alpha in (ROOT2M1, GOLDEN)
                for g in product(range(-2, 3), repeat=n)
                if validate_g(g, k)[0]
            ]
            every = [(d1, d2) for d1 in family for d2 in family]
            pairs += every if n == 2 else rng.sample(every, 400)
    cold = []
    for d1, d2 in pairs:
        AlphaProfile.of.cache_clear()
        cold.append(decide(d1, d2).to_json())
    AlphaProfile.of.cache_clear()
    warm = [decide(d1, d2).to_json() for d1, d2 in pairs]
    assert AlphaProfile.of.cache_info().misses == 2
    assert cold == warm


# -- witness integrity ---------------------------------------------------------------


def test_check_witness_catches_corruptions():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    assert check_witness(d1, d2, wit) == (True, None)
    M, w, h = wit.M, wit.w, wit.h
    nq = D(NonQuadraticAlpha((0, 2, 1, 1, 3, 5)), 2, 2, (1, 0))

    def with_M(f_alpha, A):
        return ConjugacyWitness(StructuredMatrix(f_alpha, A, M.S, M.B), w, h)

    # (first descriptor, second descriptor, witness, the reason check_witness gives)
    table = [
        (nq, d2, wit, "witnesses require quadratic base points"),
        (d1, D(ROOT2M1, 2, 3, (0, 1)), wit, "descriptor ranks or cycle lengths differ"),
        (d1, d2, ConjugacyWitness(StructuredMatrix.identity(3), (0,) * 3, (0,) * 3),
         "witness rank does not match the descriptors"),
        (d1, d2, with_M(M.f_alpha, stabilizer_generator(GOLDEN)),
         "A does not carry the first base point to the second"),
        (d1, d2, with_M(M.f_alpha, -M.A), "A is not sign-normalized at the first base point"),
        (d1, d2, with_M(stabilizer_generator(GOLDEN), M.A), "f_alpha does not fix the base point"),
        (d1, d2, with_M(-M.f_alpha, M.A), "f_alpha is not sign-normalized at the base point"),
        (d1, d2, ConjugacyWitness(M, (w[0] + 1, w[1]), h),
         "w is not a multiple of the cycle length"),
        (d1, d2, ConjugacyWitness(M, (w[0] + 2, w[1]), h), "the coordinate relation fails"),
        (d1, d2, ConjugacyWitness(M, w, (h[0], h[1] + 1)), "h does not solve k*h = N^-1 w"),
    ]
    for first, second, bad, reason in table:
        assert check_witness(first, second, bad) == (False, reason), reason


def test_decide_raises_when_its_witness_fails_the_check(monkeypatch):
    monkeypatch.setattr(conjugacy, "check_witness", lambda *args: (False, "rejected"))
    with pytest.raises(CertificateError, match="rejected"):
        decide(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1)))


def test_self_check_survives_python_O():
    script = (
        "from circleconj import conjugacy as c\n"
        "from circleconj.circlegroup import CircleGroupDescriptor as D\n"
        "from circleconj.exactnum import CertificateError, Surd\n"
        "c.check_witness = lambda *args: (False, 'rejected')\n"
        "a = Surd(-1, 1, 1, 2)\n"
        "try:\n"
        "    print(c.decide(D(a, 2, 2, (1, 0)), D(a, 2, 2, (0, 1))).verdict)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    src = str(Path(conjugacy.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "raised\n"


def test_witness_json_round_trip():
    d1, d2 = D(ROOT2M1, 3, 2, (1, 0, 1)), D(ROOT2M1, 3, 2, (1, 0, 1))
    wit = decide(d1, d2).witness
    assert ConjugacyWitness.from_json(wit.to_json()) == wit
    with pytest.raises(ValueError):
        ConjugacyWitness.from_json({**wit.to_json(), "stray": 1})
    blob = decide(d1, d2).to_json()
    assert blob["verdict"] == "conjugate"
    assert set(blob["witness"]) == {"f_alpha", "A", "S", "B", "w", "h"}


_M3 = StructuredMatrix.identity(3).to_json()


NOT_AN_INTEGER = "must be an integer"


@pytest.mark.parametrize(
    "reader, obj, message",
    [
        pytest.param(CircleElement.from_json, {"j": 1.5, "h": [0, 0]}, NOT_AN_INTEGER, id="element-j-float"),
        pytest.param(CircleElement.from_json, {"j": True, "h": [0, 0]}, NOT_AN_INTEGER, id="element-j-bool"),
        pytest.param(CircleElement.from_json, {"j": 1, "h": [0.7, 0]}, NOT_AN_INTEGER, id="element-h-float"),
        pytest.param(
            ContinuedFraction.from_json, {"preperiod": [1.0]}, NOT_AN_INTEGER, id="cf-preperiod-float"
        ),
        pytest.param(
            ContinuedFraction.from_json,
            {"preperiod": [1], "period": [True]},
            NOT_AN_INTEGER,
            id="cf-period-bool",
        ),
        pytest.param(UnimodularMatrix2.from_json, [1, 0, 0, 1.0], NOT_AN_INTEGER, id="matrix-float"),
        pytest.param(UnimodularMatrix2.from_json, [True, 0, 0, 1], NOT_AN_INTEGER, id="matrix-bool"),
        pytest.param(
            StructuredMatrix.from_json, {**_M3, "S": [[0.5], [0]]}, NOT_AN_INTEGER, id="structured-S"
        ),
        pytest.param(StructuredMatrix.from_json, {**_M3, "B": [[True]]}, NOT_AN_INTEGER, id="structured-B"),
        pytest.param(
            StructuredMatrix.from_json,
            {**_M3, "S": 5},
            "^S must be a JSON list of integer lists, got 5$",
            id="structured-S-number",
        ),
        pytest.param(
            StructuredMatrix.from_json,
            {**_M3, "B": None},
            "^B must be a JSON list of integer lists, got None$",
            id="structured-B-null",
        ),
        pytest.param(
            ConjugacyWitness.from_json,
            {**_M3, "S": 5, "w": [0, 0, 0], "h": [0, 0, 0]},
            "^S must be a JSON list of integer lists, got 5$",
            id="witness-S-number",
        ),
        pytest.param(
            ConjugacyWitness.from_json,
            {**_M3, "w": [0, 0, 2.0], "h": [0, 0, 1]},
            NOT_AN_INTEGER,
            id="witness-w",
        ),
        pytest.param(
            ConjugacyWitness.from_json,
            {**_M3, "w": [0, 0, 0], "h": [False, 0, 0]},
            NOT_AN_INTEGER,
            id="witness-h",
        ),
    ],
)
def test_json_readers_reject_non_integers(reader, obj, message):
    with pytest.raises(ValueError, match=message):
        reader(obj)


def test_witness_invert_and_compose():
    d1 = D(ROOT2M1, 2, 2, (1, 0))
    d2 = D(ROOT2M1, 2, 2, (0, 1))
    d3 = D(ROOT2M1, 2, 2, (1, 2))
    w12 = decide(d1, d2).witness
    w23 = decide(d2, d3).witness
    w21 = witness_invert(d1, d2, w12)  # raises if the exact check fails
    assert check_witness(d2, d1, w21) == (True, None)
    w13 = witness_compose(d1, d2, d3, w12, w23)
    assert check_witness(d1, d3, w13) == (True, None)


def test_witness_invert_across_base_points():
    d1, d2 = D(ROOT2M1, 3, 2, (1, 0, 0)), D(HALFROOT2, 3, 2, (0, 1, 0))
    w12 = decide(d1, d2).witness
    w21 = witness_invert(d1, d2, w12)
    assert check_witness(d2, d1, w21) == (True, None)
    # round trip back to an endomorphism witness of d1
    w11 = witness_compose(d1, d2, d1, w12, w21)
    assert check_witness(d1, d1, w11) == (True, None)


def test_alternative_equivalence_matrix_gives_same_conjugation():
    # replacing A by T @ A (another valid base-point carrier) and absorbing
    # the twist into f keeps both the witness identity and the realized
    # coordinate action
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(HALFROOT2, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    T = stabilizer_generator(ROOT2M1)
    M2 = StructuredMatrix(T @ wit.M.f_alpha, T @ wit.M.A, wit.M.S, wit.M.B)
    Tt = ((T.m2, T.m1), (T.n2, T.n1))
    w2 = mat_vec(Tt, wit.w)
    alt = ConjugacyWitness(M2, w2, wit.h)
    assert check_witness(d1, d2, alt) == (True, None)
    assert conjugation_images(d1, d2, alt) == conjugation_images(d1, d2, wit)


# -- realization and verification -----------------------------------------------------


def test_realized_conjugation_passes_verification():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    psi = witness_to_homeo(d1, d2, wit)
    report = verify_conjugation(psi, d1, d2, wit, grid_size=14, tol=1e-6, p=P)
    assert report["ok"], report
    assert all(g["max_deviation"] < 1e-20 for g in report["generators"])


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_verification_rejects_a_bad_tolerance(tol):
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        verify_conjugation(witness_to_homeo(d1, d2, wit), d1, d2, wit, tol=tol, p=P)


def test_verification_rejects_a_margin_that_leaves_no_grid():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    psi = witness_to_homeo(d1, d2, wit)
    with pytest.raises(ValueError, match=r"singular_margin must be below 1/\(4k\) = 0.125"):
        verify_conjugation(psi, d1, d2, wit, p=Precision(singular_margin=0.125))
    report = verify_conjugation(psi, d1, d2, wit, grid_size=4, p=Precision(singular_margin=0.12))
    assert report["ok"]
    # no point is margin-tested, since psi, g and g' break only at the j/k and
    # the grid keeps twice the margin from them; g(t) and psi(t), which this
    # psi moves inside the wide margin, are evaluated as they are
    report = verify_conjugation(psi, d1, d2, wit, grid_size=16, p=Precision(singular_margin=0.12))
    assert report["ok"] and all(g["skipped"] == 0 for g in report["generators"])


def test_verification_at_a_margin_just_below_a_quarter_arc_evaluates_every_point():
    # the window that keeps the margin is 4e-11 of each arc wide, and every
    # draw is placed inside it, so the grid costs grid_size draws
    p = Precision(singular_margin=1 / 24 - 1e-12)
    for d1, d2, wit in (pair for pair in conjugate_pairs() if pair[0].k == 6):  # at ranks 2 and 3
        with time_limit(20):
            report = verify_conjugation(witness_to_homeo(d1, d2, wit), d1, d2, wit, grid_size=48, p=p)
        assert report["ok"], report
        assert all((g["evaluated"], g["skipped"]) == (48, 0) for g in report["generators"])


def test_verification_rejects_a_psi_with_other_breakpoints():
    # this psi breaks at the thirds, which the grid for k = 2 does not avoid
    d = D(ROOT2M1, 2, 2, (1, 0))
    wit = decide(d, d).witness
    with pytest.raises(ValueError, match=r"break at j/k for k in \[2, 3\], not only at k = 2"):
        verify_conjugation(CircleExtend(Scale(2), 3), d, d, wit, grid_size=4, p=P)


def test_realized_conjugation_with_base_point_change():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(HALFROOT2, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    psi = witness_to_homeo(d1, d2, wit)
    report = verify_conjugation(psi, d1, d2, wit, grid_size=12, tol=1e-6, p=P)
    assert report["ok"], report


def test_realized_conjugation_rank3():
    d1, d2 = D(ROOT2M1, 3, 2, (1, 0, 2)), D(ROOT2M1, 3, 2, (1, 2, 2))
    dec = decide(d1, d2)
    assert dec.verdict == "conjugate"
    psi = witness_to_homeo(d1, d2, dec.witness)
    report = verify_conjugation(psi, d1, d2, dec.witness, grid_size=10, tol=1e-6, p=P)
    assert report["ok"], report


@pytest.mark.parametrize("n, k, g1, g2", [(2, 2, (1, 0), (0, 1)), (3, 3, (1, 0, 2), (1, 2, 2))])
def test_verification_compiles_each_map_once(monkeypatch, n, k, g1, g2):
    d1, d2 = D(ROOT2M1, n, k, g1), D(HALFROOT2, n, k, g2)
    wit = decide(d1, d2).witness
    psi = witness_to_homeo(d1, d2, wit)
    compiled, compile_tree = [], homeo._compile

    def counting(e, p, line):
        compiled.append(e)
        return compile_tree(e, p, line)

    for module in (homeo, conjugacy):  # which import the helper by name
        monkeypatch.setattr(module, "_compile", counting)
    assert not hasattr(circlegroup, "_compile")  # the lifter applies f^j by the group law
    # g and g' are evaluated on lifts (one lifter for d1, one for d2), which compile nothing
    for grid_size in (4, 16):
        compiled.clear()
        report = verify_conjugation(psi, d1, d2, wit, grid_size=grid_size, p=P)
        assert report["ok"], report
        assert compiled == [psi]
    compiled.clear()
    for d in (d1, d2):
        sample = orbit_sample(d, CirclePoint(Fraction(2, 7)), 60, seed=n, p=P)
        assert len(sample.points) + sample.skipped == 61
    assert compiled == []


@pytest.mark.parametrize("n, k, g", [(2, 1, (1, 1)), (2, 3, (1, 0)), (3, 2, (1, 0, 2)), (4, 3, (0, 1, 0, 1))])
def test_a_group_verified_against_itself_evaluates_every_grid_point(n, k, g):
    # for d = d the witness realizes psi = Identity(), which has no breakpoints
    d = D(ROOT2M1, n, k, g)
    wit = decide(d, d).witness
    psi = witness_to_homeo(d, d, wit)
    assert psi == Identity()
    report = verify_conjugation(psi, d, d, wit, grid_size=16, p=P)
    assert report["ok"], report
    assert all((g["evaluated"], g["skipped"]) == (16, 0) for g in report["generators"])


def test_a_point_where_psi_raises_is_skipped_for_every_generator():
    # this psi raises on the arc (0, 1/2), where its closing map is a power of a
    # dilation over the cap, and rotates the arc (1/2, 1); the cycle generator
    # swaps the two arcs, so its left side psi(g(t)) is defined exactly where
    # psi(t) is not
    d = D(ROOT2M1, 2, 2, (1, 0))
    wit = decide(d, d).witness
    psi = CanonicalF(2, Power(Scale(2), 100))
    report = verify_conjugation(psi, d, d, wit, grid_size=16, p=P)
    cycle = report["generators"][0]
    assert cycle["generator"]["j"] == 1
    assert (cycle["evaluated"], cycle["skipped"]) == (0, 16)
    assert not report["ok"]


def test_deviation_is_measured_at_working_precision():
    # verify measures psi o g against g' o psi at working_bits, across arcs with
    # _raw_distance; at 53 bits the negative difference of two points 2^-200
    # apart folded to 0
    with mpmath.mp.workprec(256):
        x = mpmath.mpf(1) / 3
        y = x + mpmath.mpf(2) ** -200
    for a, b in ((x, y), (y, x)):
        assert _raw_distance(a._mpf_, b._mpf_, P.working_bits) == mpmath.mpf(2) ** -200
    # psi dilates every arc's chart by 1 + 2^-200, so it misses commuting with
    # the identity witness's generators by about 2^-200, which a 53-bit
    # measurement would fold to 0
    d = D(ROOT2M1, 2, 2, (1, 0))
    wit = decide(d, d).witness
    psi = CircleExtend(Scale(1 + Fraction(1, 2**200)), d.k)
    report = verify_conjugation(psi, d, d, wit, grid_size=16, p=P)
    assert report["ok"]
    assert all(0 < g["max_deviation"] < 2.0**-190 for g in report["generators"]), report


def test_realization_fixes_marked_points_exactly():
    d1, d2 = D(ROOT2M1, 2, 3, (1, 0)), D(ROOT2M1, 2, 3, (1, 3))
    dec = decide(d1, d2)
    assert dec.verdict == "conjugate"
    psi = witness_to_homeo(d1, d2, dec.witness)
    for j in range(3):
        image = eval_circle(psi, CirclePoint(Fraction(j, 3)), P)
        assert image.is_exact and image.t == Fraction(j, 3)


def test_corrupted_witness_fails_checks_and_verification():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    bad = corrupt_witness(d1, wit)
    assert not check_witness(d1, d2, bad)[0]
    with pytest.raises(ValueError):
        witness_to_homeo(d1, d2, bad)
    psi_bad = witness_to_homeo(d1, d2, bad, check=False)
    report = verify_conjugation(psi_bad, d1, d2, wit, grid_size=12, tol=1e-6, p=P)
    assert not report["ok"]


def test_corrupted_witness_k1():
    d1, d2 = D(ROOT2M1, 2, 1, (1, 0)), D(ROOT2M1, 2, 1, (0, 1))
    wit = decide(d1, d2).witness
    bad = corrupt_witness(d1, wit)
    assert not check_witness(d1, d2, bad)[0]
    psi_bad = witness_to_homeo(d1, d2, bad, check=False)
    report = verify_conjugation(psi_bad, d1, d2, wit, grid_size=12, tol=1e-6, p=P)
    assert not report["ok"]
