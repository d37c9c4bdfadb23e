import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from circleconj import conjugacy
from circleconj.circlegroup import CircleElement, CircleGroupDescriptor, validate_g
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
    CertificateError,
    ContinuedFraction,
    NonQuadraticAlpha,
    Surd,
    UnimodularMatrix2,
    stabilizer_generator,
)
from circleconj.homeo import CirclePoint, Identity, Precision, eval_circle
from circleconj.intmat import mat_vec

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


def test_oracle_bounds():
    with pytest.raises(ValueError):
        decide_oracle(D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 13, (1, 0)))


# -- witness integrity ---------------------------------------------------------------


def test_check_witness_catches_corruptions():
    d1, d2 = D(ROOT2M1, 2, 2, (1, 0)), D(ROOT2M1, 2, 2, (0, 1))
    wit = decide(d1, d2).witness
    assert check_witness(d1, d2, wit) == (True, None)
    bad_w = ConjugacyWitness(wit.M, (wit.w[0] + 1, wit.w[1]), wit.h)
    assert not check_witness(d1, d2, bad_w)[0]
    bad_h = ConjugacyWitness(wit.M, wit.w, (wit.h[0], wit.h[1] + 1))
    ok, reason = check_witness(d1, d2, bad_h)
    assert not ok and "h" in reason
    wrong_A = ConjugacyWitness(
        StructuredMatrix(wit.M.f_alpha, stabilizer_generator(GOLDEN), wit.M.S, wit.M.B),
        wit.w,
        wit.h,
    )
    assert not check_witness(d1, d2, wrong_A)[0]


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


@pytest.mark.parametrize(
    "reader, obj",
    [
        pytest.param(CircleElement.from_json, {"j": 1.5, "h": [0, 0]}, id="element-j-float"),
        pytest.param(CircleElement.from_json, {"j": True, "h": [0, 0]}, id="element-j-bool"),
        pytest.param(CircleElement.from_json, {"j": 1, "h": [0.7, 0]}, id="element-h-float"),
        pytest.param(ContinuedFraction.from_json, {"preperiod": [1.0]}, id="cf-preperiod-float"),
        pytest.param(
            ContinuedFraction.from_json, {"preperiod": [1], "period": [True]}, id="cf-period-bool"
        ),
        pytest.param(UnimodularMatrix2.from_json, [1, 0, 0, 1.0], id="matrix-float"),
        pytest.param(UnimodularMatrix2.from_json, [True, 0, 0, 1], id="matrix-bool"),
        pytest.param(StructuredMatrix.from_json, {**_M3, "S": [[0.5], [0]]}, id="structured-S"),
        pytest.param(StructuredMatrix.from_json, {**_M3, "B": [[True]]}, id="structured-B"),
        pytest.param(
            ConjugacyWitness.from_json, {**_M3, "w": [0, 0, 2.0], "h": [0, 0, 1]}, id="witness-w"
        ),
        pytest.param(
            ConjugacyWitness.from_json, {**_M3, "w": [0, 0, 0], "h": [False, 0, 0]}, id="witness-h"
        ),
    ],
)
def test_json_readers_reject_non_integers(reader, obj):
    with pytest.raises(ValueError, match="must be an integer"):
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
