"""Property-based checks of the exact layer's algebraic laws."""

from math import isqrt

import mpmath
from hypothesis import given, settings, strategies as st

from circleconj.circlegroup import CircleGroupDescriptor, validate_g
from circleconj.conjugacy import check_witness, decide
from circleconj.exactnum import (
    Surd,
    denominator_at,
    equivalent,
    mobius_apply,
    stabilizer_generator,
)
from support import signed_power_exponent

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
