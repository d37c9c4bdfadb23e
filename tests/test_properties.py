"""Property-based checks of the exact layer's algebraic laws."""

import hashlib
import json
import operator
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from circleconj.circlegroup import CircleGroupDescriptor, validate_g
from circleconj.conjugacy import check_witness, decide, witness_compose, witness_invert
from circleconj.exactnum import (
    AlphaProfile,
    ContinuedFraction,
    Surd,
    UnimodularMatrix2,
    cf_expand,
    denominator_at,
    equivalent,
    mobius_apply,
    sign_normalize,
    stabilizer_generator,
)
from circleconj.intmat import blockdiag, mat_vec
from support import signed_power_exponent
import test_exact_pin as exact_pin

laws = settings(derandomize=True, deadline=None)

surds = st.builds(
    Surd,
    st.integers(-6, 6),
    st.integers(-3, 3).filter(bool),
    st.integers(1, 6),
    st.sampled_from((2, 3, 5, 6, 7)),
)
RADICANDS = (2, 3, 5, 6, 7, 10, 13, 94)
BIG = 10**30


def sqrt_convergents(d: int, bound: int) -> list:
    """(p, q) for the convergents p/q of sqrt(d) with q <= bound, from the
    classical integer recurrence for the continued fraction of sqrt(d)."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    (p0, q0), (p1, q1) = (1, 0), (a0, 1)
    out = []
    while q1 <= bound:
        out.append((p1, q1))
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
    return out


CONVERGENTS = {d: sqrt_convergents(d, BIG) for d in RADICANDS}


@st.composite
def near_integer_surds(draw):
    """m + s*(q*sqrt(d) - p)/c with p/q a convergent of sqrt(d) and q > 10**20,
    so within 10**-20 of the integer m, on either side."""
    d = draw(st.sampled_from(RADICANDS))
    p, q = draw(st.sampled_from([pq for pq in CONVERGENTS[d] if pq[1] > 10**20]))
    s = draw(st.sampled_from((1, -1)))
    m, c = draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6))
    return Surd(m * c - s * p, s * q, c, d)


big_surds = st.builds(
    Surd,
    st.integers(-BIG, BIG),
    st.integers(-BIG, BIG).filter(bool),
    st.integers(1, BIG),
    st.sampled_from(RADICANDS),
)


@laws
@given(st.one_of(big_surds, near_integer_surds()))
def test_floor_matches_mpmath(x):
    with mpmath.mp.workprec(512):
        assert x.floor() == int(mpmath.floor(x.value(512)))


same_radicand_triples = st.sampled_from((2, 3, 5, 6, 7)).flatmap(
    lambda d: st.tuples(*[surds.map(lambda x: Surd(x.a, x.b, x.c, d))] * 3)
)


@laws
@given(surds)
def test_additive_and_multiplicative_inverses(x):
    assert x + (-x) == Surd(0)
    assert x * x.inverse() == Surd(1)


@laws
@given(same_radicand_triples)
def test_multiplication_distributes_over_addition(xyz):
    x, y, z = xyz
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@laws
@given(surds, st.integers(-10, 10))
def test_a_surd_never_equals_a_bare_int(x, n):
    assert Surd(n) != n and n != Surd(n)
    assert x != n


# a bare int: 0, True, small, negative and past 2**64
bare_ints = st.one_of(st.sampled_from((0, True, False, 1, -1)), st.integers(-(10**6), 10**6),
                      st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv,
             operator.lt, operator.le, operator.gt, operator.ge)


def outcome(op, x, y):
    """op(x, y), or the type and message of the exception it raises."""
    try:
        return op(x, y)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@laws
@given(surds, bare_ints)
@example(Surd(-1, 1, 1, 2), 0)
@example(Surd(-1, 1, 1, 2), True)
@example(Surd(3), 2**64 + 1)
def test_a_bare_int_operand_acts_as_its_surd(x, m):
    for op in OPERATORS:
        assert outcome(op, x, m) == outcome(op, x, Surd(m)), op
        assert outcome(op, m, x) == outcome(op, Surd(m), x), op


def counted_surds(monkeypatch) -> list:
    """A list that records every Surd built from now on."""
    built = []
    post_init = Surd.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Surd, "__post_init__", counted)
    return built


def test_integer_operands_build_no_surd_from_a_rational(monkeypatch):
    matrices = (UnimodularMatrix2(2, 1, 1, 1), UnimodularMatrix2(0, 1, 1, 3), UnimodularMatrix2(-1, 4, 0, 1))
    points = (Surd(-1, 1, 1, 2), Surd(3, -2, 5, 7), 3, Fraction(2, 7))
    expected = [mobius_apply(M, x) for M in matrices for x in points]
    built = counted_surds(monkeypatch)
    for M in matrices:
        for x in points:
            del built[:]
            mobius_apply(M, x)
            # x * n2, + m2, x * n1, + m1 and the quotient, and x itself when it is no Surd
            assert len(built) == 5 + (not isinstance(x, Surd)), (M, x)
    assert [mobius_apply(M, x) for M in matrices for x in points] == expected
    AlphaProfile.of.cache_clear()
    _, blob = exact_pin.records()
    assert hashlib.sha256(json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()).hexdigest() == exact_pin.PINNED


# each step is x -> 1/(q + x) or x -> x + m, an integer Mobius map
steps = st.lists(st.tuples(st.booleans(), st.integers(-3, 3)), max_size=5)


def walk(x: Surd, path) -> Surd:
    for invert, m in path:
        x = 1 / (m + x) if invert else x + m
    return x


@laws
@given(surds, steps)
def test_equivalent_sends_x_to_its_image(x, path):
    y = walk(x, path)
    M = equivalent(x, y)
    assert M is not None
    assert mobius_apply(M, x) == y
    assert denominator_at(M, x).sign() > 0


@laws
@given(surds, steps)
def test_stabilizer_of_an_image_is_the_conjugate_generator(x, path):
    y = walk(x, path)
    M = equivalent(x, y)
    conjugate = M.inverse() @ stabilizer_generator(x) @ M
    assert signed_power_exponent(conjugate, stabilizer_generator(y), max_exp=1) in (1, -1)


# -- the Gauss map on integer states against the Gauss map on Surd states ----


def surd_gauss_map(x: Surd) -> tuple:
    """The reference Gauss map, cur -> 1/(cur - floor(cur)) over Surd states:
    (quotients, start, cycle), with cycle mapping each state on the cycle to
    its index and state 0, x itself, never on it."""
    quotients, seen, cur = [], {}, x
    while True:
        quotients.append(cur.floor())
        cur = 1 / (cur - quotients[-1])
        if cur in seen:
            start = seen[cur]
            return quotients, start, {state: i for state, i in seen.items() if i >= start}
        seen[cur] = len(quotients)


def quotient_product(quotients) -> UnimodularMatrix2:
    M = UnimodularMatrix2.identity()
    for a in quotients:
        M = UnimodularMatrix2(0, 1, 1, a) @ M
    return M


def reference_equivalent(x: Surd, y: Surd):
    """The matrix through the first state on x's cycle that y's cycle shares."""
    if x == y:
        return UnimodularMatrix2.identity()
    qx, _, cx = surd_gauss_map(x)
    qy, _, cy = surd_gauss_map(y)
    for state, i in cx.items():
        if state in cy:
            return sign_normalize(quotient_product(qx[:i]).inverse() @ quotient_product(qy[:cy[state]]), x)
    return None


# every sign of a, b and c as given, before the canonical form makes c > 0
signed_surds = st.builds(
    Surd,
    st.integers(-40, 40),
    st.integers(-6, 6).filter(bool),
    st.integers(-12, 12).filter(bool),
    st.sampled_from(RADICANDS),
)


@laws
@given(signed_surds)
@example(Surd(1, 1, 1, 2))  # sqrt(2) + 1 = [2; 2, 2, ...], purely periodic
@example(Surd(1, 1, 2, 5))  # the golden section, purely periodic
@example(Surd(2, 1, 3, 7))  # purely periodic with c > 1
@example(Surd(3, 1, 1, 10))  # 3 + sqrt(10) = [6; 6, ...]
@example(Surd(9, 1, 1, 94))  # x > 1, period 16
@example(Surd(-30, -1, 7, 13))  # x < 0
@example(Surd(5, 2, -3, 6))  # c < 0 as given
def test_the_integer_gauss_map_is_the_surd_gauss_map(x):
    quotients, start, _ = surd_gauss_map(x)
    assert cf_expand(x) == ContinuedFraction(quotients[:start], quotients[start:])
    T = sign_normalize(quotient_product(quotients[:start]).inverse() @ quotient_product(quotients), x)
    assert stabilizer_generator(x) == T


@laws
@given(signed_surds, steps, st.integers(-40, 40), st.integers(-6, 6).filter(bool), st.integers(1, 12))
def test_equivalent_carries_through_the_first_shared_cycle_state(x, path, a, b, c):
    for y in (walk(x, path), Surd(a, b, c, x.d)):
        assert equivalent(x, y) == reference_equivalent(x, y)


def test_the_gauss_map_builds_no_surd(monkeypatch):
    xs = (Surd(-1, 1, 1, 2), Surd(1, 1, 2, 5), Surd(-9, 1, 1, 94), Surd(-37, 1, 29, 2), Surd(3, -2, 5, 7))
    built = counted_surds(monkeypatch)
    AlphaProfile.of.cache_clear()
    for x in xs:
        AlphaProfile.of(x)
    assert AlphaProfile.of.cache_info().misses == len(xs)
    assert built == []


@pytest.mark.parametrize("x, y", [
    (Surd(-37, 1, 29, 2), Surd(-35, 1, 29, 2)),  # periods (2, 11, 3) and (3, 11, 2)
    (Surd(-37, 1, 17, 5), Surd(-35, 1, 17, 5)),  # periods (3, 1, 18) and (1, 3, 18)
    (Surd(-37, 1, 6, 34), Surd(-35, 1, 6, 34)),  # periods (1, 4, 7, 1) and (7, 4, 1, 1)
])
def test_periods_of_one_length_that_are_no_rotations_are_not_equivalent(x, y):
    px, py = cf_expand(x).period, cf_expand(y).period
    assert len(px) == len(py) and sorted(px) == sorted(py)
    assert all(py[r:] + py[:r] != px for r in range(len(py)))
    assert reference_equivalent(x, y) is None
    assert equivalent(x, y) is None and equivalent(y, x) is None


ALPHAS = (Surd(-1, 1, 1, 2), Surd(-1, 1, 2, 5), Surd(-2, 1, 1, 7))


@st.composite
def descriptor_pairs(draw):
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 4))
    twists = st.tuples(*[st.integers(-3, 3)] * n).filter(lambda g: validate_g(g, k)[0])

    def descriptor():
        # 1/(q + alpha) with q >= 1 keeps a GL(2,Z) image inside (0, 1)
        alpha = draw(st.sampled_from(ALPHAS))
        for q in draw(st.lists(st.integers(1, 4), max_size=2)):
            alpha = 1 / (q + alpha)
        return CircleGroupDescriptor(alpha, n, k, draw(twists))

    return descriptor(), descriptor()


@laws
@given(descriptor_pairs())
def test_decide_is_symmetric_and_its_witnesses_check(pair):
    d1, d2 = pair
    forward, backward = decide(d1, d2), decide(d2, d1)
    assert forward.verdict == backward.verdict
    for a, b, dec in ((d1, d2, forward), (d2, d1, backward)):
        if dec.witness is not None:
            assert check_witness(a, b, dec.witness) == (True, None)


@st.composite
def images_of_alpha(draw, alpha):
    """alpha carried by 1/(q + .) steps with q >= 1: a GL(2,Z)-equivalent point of (0, 1)."""
    for q in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        alpha = 1 / (q + alpha)
    return alpha


@laws
@given(descriptor_pairs(), st.data())
def test_verdict_survives_an_equivalent_base_point(pair, data):
    d1, d3 = pair
    # the same group written over an equivalent base point: the twist is carried by A^-1
    alpha = data.draw(images_of_alpha(d1.alpha))
    A = equivalent(d1.alpha, alpha)
    d2 = CircleGroupDescriptor(alpha, d1.n, d1.k, mat_vec(blockdiag(A.inverse(), d1.n), d1.g))
    assert decide(d1, d2).verdict == "conjugate"
    assert decide(d1, d3).verdict == decide(d2, d3).verdict
    assert decide(d3, d1).verdict == decide(d3, d2).verdict


@st.composite
def small_families(draw):
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 3))
    twists = st.tuples(*[st.integers(-2, 2)] * n).filter(lambda g: validate_g(g, k)[0])
    alpha = draw(st.sampled_from(ALPHAS))
    alphas = st.sampled_from((alpha, ALPHAS[0])) | images_of_alpha(alpha)
    members = st.builds(CircleGroupDescriptor, alphas, st.just(n), st.just(k), twists)
    return draw(st.lists(members, min_size=2, max_size=5))


@laws
@given(small_families())
def test_conjugate_is_an_equivalence_relation(family):
    conj = {(a, b): decide(a, b).verdict == "conjugate" for a in family for b in family}
    for a in family:
        assert conj[a, a]
        for b in family:
            assert conj[a, b] == conj[b, a]
            for c in family:
                assert not (conj[a, b] and conj[b, c]) or conj[a, c]


@laws
@given(small_families())
def test_inverted_and_composed_witnesses_check(family):
    wit = {}
    for a in family:
        for b in family:
            dec = decide(a, b)
            if dec.witness is not None:
                wit[a, b] = dec.witness
    for (a, b), w_ab in wit.items():
        assert check_witness(b, a, witness_invert(a, b, w_ab)) == (True, None)
        for c in family:
            if (b, c) in wit:
                assert check_witness(a, c, witness_compose(a, b, c, w_ab, wit[b, c])) == (True, None)


DESCRIPTOR_KEYS = ("alpha", "n", "k", "g", "a", "b", "c", "d", "nonquadratic_cf")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(DESCRIPTOR_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=24,
)


@laws
@given(json_values)
def test_descriptor_reader_returns_or_raises_an_input_error(obj):
    try:
        CircleGroupDescriptor.from_json(obj)
    except (ValueError, KeyError, ZeroDivisionError):
        pass
