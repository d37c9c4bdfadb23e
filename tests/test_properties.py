"""Property-based checks of the exact layer's algebraic laws."""

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
