import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest

from circleconj.exactnum import (
    NonQuadraticAlpha,
    Surd,
    UnimodularMatrix2,
    equivalent,
    mobius_apply,
    stabilizer_generator,
)
from circleconj.homeo import (
    Compose,
    HbarWrap,
    Identity,
    Inverse,
    Precision,
    Scale,
    Staircase,
    Translate,
    _base_map,
    eval_line,
)
from circleconj.intmat import StructuredMatrix, mat_identity, mat_vec
from circleconj.lineargroup import (
    LineGroupDescriptor,
    basis_exprs,
    element_to_expr,
    minimal_interval,
    nontransitive_points,
    normalizer_expr,
    points_to_csv,
    scale_conjugator,
)

ROOT2M1 = Surd(-1, 1, 1, 2)  # sqrt(2) - 1
GOLDEN = Surd(-1, 1, 2, 5)  # (sqrt(5) - 1) / 2
HALFROOT2 = Surd(0, 1, 2, 2)  # sqrt(2) / 2

P = Precision(working_bits=256)


def grid(lo=-2.5, hi=2.5, count=7):
    with mpmath.mp.workprec(256):
        step = (mpmath.mpf(hi) - mpmath.mpf(lo)) / (count - 1)
        return [mpmath.mpf(lo) + i * step + mpmath.mpf("0.0137") for i in range(count)]


def conj_expr(phi, e):
    return Compose((phi, e, Inverse(phi)))


def max_dev(e1, e2, points):
    worst = mpmath.mpf(0)
    for x in points:
        worst = max(worst, abs(eval_line(e1, x, P) - eval_line(e2, x, P)))
    return worst


# -- descriptors --------------------------------------------------------------------


def test_descriptor_validation():
    LineGroupDescriptor(ROOT2M1, 2)
    LineGroupDescriptor(GOLDEN, 5)
    with pytest.raises(ValueError):
        LineGroupDescriptor(ROOT2M1, 1)
    with pytest.raises(ValueError):
        LineGroupDescriptor(Surd.coerce(Fraction(1, 3)), 2)
    with pytest.raises(ValueError):
        LineGroupDescriptor(Surd(0, 1, 1, 2), 2)  # sqrt(2) > 1
    with pytest.raises(ValueError):
        LineGroupDescriptor(Surd(-3, 1, 1, 2), 2)  # negative
    with pytest.raises(TypeError):
        LineGroupDescriptor(0.41, 2)


def test_descriptor_nonquadratic():
    d = LineGroupDescriptor(NonQuadraticAlpha((0, 2, 1, 1, 4)), 3)
    assert d.n == 3
    with pytest.raises(ValueError):
        LineGroupDescriptor(NonQuadraticAlpha((1, 2, 3)), 2)
    with pytest.raises(TypeError):
        element_to_expr(d, (1, 0, 0))


def test_descriptor_json_round_trip():
    for d in [
        LineGroupDescriptor(ROOT2M1, 2),
        LineGroupDescriptor(GOLDEN, 4),
        LineGroupDescriptor(NonQuadraticAlpha((0, 3, 1, 2)), 3),
    ]:
        assert LineGroupDescriptor.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        LineGroupDescriptor.from_json({"alpha": ROOT2M1.to_json(), "n": 2, "extra": 0})
    with pytest.raises(ValueError):
        LineGroupDescriptor.from_json({"alpha": ROOT2M1.to_json(), "n": 3.0})
    with pytest.raises(ValueError):
        LineGroupDescriptor.from_json({"alpha": {"nonquadratic_cf": [0, 3, 1.5]}, "n": 2})


# -- elements -----------------------------------------------------------------------


def test_element_structure():
    d2 = LineGroupDescriptor(ROOT2M1, 2)
    assert element_to_expr(d2, (0, 0)) == Identity()
    assert element_to_expr(d2, (1, 1)) == Translate(Surd(0, 1, 1, 2))  # 1 + (sqrt2-1)
    d3 = LineGroupDescriptor(ROOT2M1, 3)
    assert element_to_expr(d3, (0, 0, 2)) == Translate(Surd.coerce(2))
    assert element_to_expr(d3, (1, 0, 0)) == HbarWrap(Translate(Surd.coerce(1)))
    with pytest.raises(ValueError):
        element_to_expr(d3, (1, 0))


def test_basis_exprs_shape():
    d = LineGroupDescriptor(GOLDEN, 4)
    basis = basis_exprs(d)
    assert len(basis) == 4
    assert basis[3] == Translate(Surd.coerce(1))


def test_elements_commute_and_add():
    # group law: coordinates add, in any composition order
    rng = random.Random(99)
    pts = grid()
    for n in (2, 3, 4):
        d = LineGroupDescriptor(ROOT2M1, n)
        for _ in range(12):
            u = tuple(rng.randint(-2, 2) for _ in range(n))
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            uv = tuple(a + b for a, b in zip(u, v))
            lhs = Compose((element_to_expr(d, u), element_to_expr(d, v)))
            rhs = Compose((element_to_expr(d, v), element_to_expr(d, u)))
            target = element_to_expr(d, uv)
            assert max_dev(lhs, target, pts) < mpmath.mpf("1e-30")
            assert max_dev(rhs, target, pts) < mpmath.mpf("1e-30")


def test_nonzero_elements_move_points():
    rng = random.Random(31)
    d = LineGroupDescriptor(GOLDEN, 3)
    pts = grid(-1.5, 1.5, 5)
    for _ in range(25):
        u = tuple(rng.randint(-2, 2) for _ in range(3))
        if not any(u):
            continue
        e = element_to_expr(d, u)
        moved = max(abs(eval_line(e, x, P) - x) for x in pts)
        assert moved > mpmath.mpf("1e-10")


# -- non-transitive locus -----------------------------------------------------------


def test_nontransitive_rank2_empty():
    assert nontransitive_points(LineGroupDescriptor(ROOT2M1, 2), 5) == []


def test_nontransitive_rank3_integers():
    pts = nontransitive_points(LineGroupDescriptor(ROOT2M1, 3), 2)
    assert [(v, i) for v, i in pts] == [(-2, (-2,)), (-1, (-1,)), (0, (0,)), (1, (1,)), (2, (2,))]


def test_nontransitive_rank4_bound0():
    pts = nontransitive_points(LineGroupDescriptor(ROOT2M1, 4), 0)
    values = sorted(mpmath.mpf(v) for v, _ in pts)
    assert len(values) == 2
    assert values[0] == 0
    assert abs(values[1] - mpmath.mpf("0.5")) < mpmath.mpf("1e-30")
    by_idx = {idx: v for v, idx in pts}
    assert set(by_idx) == {(0,), (0, 0)}


def test_nontransitive_sorted_and_csv():
    pts = nontransitive_points(LineGroupDescriptor(GOLDEN, 4), 1)
    vals = [mpmath.mpf(v) for v, _ in pts]
    assert vals == sorted(vals)
    csv = points_to_csv(pts)
    lines = csv.strip().split("\n")
    assert lines[0] == "value,indices"
    assert len(lines) == 1 + len(pts)
    assert any(line.endswith("0;0") for line in lines[1:])


def reference_wrapped(bottom, floors):
    """The locus loop as mpf arithmetic at 128 bits: v = i + h(v) per floor,
    h the correctly rounded base map."""
    with mpmath.mp.workprec(128):
        v = mpmath.mpf(bottom)
        for i in floors:
            v = mpmath.mp.make_mpf(_base_map(v._mpf_, 128)) + i
        return v


def bits(value):
    return value._mpf_ if isinstance(value, mpmath.mpf) else value


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [ROOT2M1, GOLDEN])
def test_the_locus_is_the_mpf_loop_bit_for_bit(alpha, n):
    d = LineGroupDescriptor(alpha, n)
    expected = [(i, (i,)) for i in range(-2, 3)]
    if n >= 4:
        expected += [(reference_wrapped(idx[0], idx[1:]), idx) for idx in product(range(-2, 3), repeat=n - 2)]
    expected.sort(key=lambda p: mpmath.mpf(p[0]))
    assert [(bits(v), idx) for v, idx in nontransitive_points(d, 2)] == [(bits(v), idx) for v, idx in expected]
    for idx in product(range(-2, 3), repeat=n - 2):
        lo, hi = minimal_interval(d, idx)
        if n == 3:
            assert (type(lo), lo, hi) == (int, idx[0], idx[0] + 1)
        else:
            assert (bits(lo), bits(hi)) == (bits(reference_wrapped(idx[0], idx[1:])),
                                            bits(reference_wrapped(idx[0] + 1, idx[1:])))


def test_minimal_interval_rank2_whole_line():
    lo, hi = minimal_interval(LineGroupDescriptor(ROOT2M1, 2), ())
    assert lo == float("-inf") and hi == float("inf")
    with pytest.raises(ValueError):
        minimal_interval(LineGroupDescriptor(ROOT2M1, 2), (0,))


def test_minimal_interval_rank3_unit():
    assert minimal_interval(LineGroupDescriptor(ROOT2M1, 3), (4,)) == (4, 5)
    assert minimal_interval(LineGroupDescriptor(ROOT2M1, 3), (-1,)) == (-1, 0)


def test_minimal_interval_rank4_pinned():
    lo, hi = minimal_interval(LineGroupDescriptor(ROOT2M1, 4), (0, 0))
    assert abs(lo - mpmath.mpf("0.5")) < mpmath.mpf("1e-20")
    assert abs(hi - mpmath.mpf("0.75")) < mpmath.mpf("1e-20")


def test_minimal_interval_is_invariant_under_point_stabilizer():
    # generators wrapped deeply enough to fix 1/2 must keep (1/2, 3/4) inside itself
    d = LineGroupDescriptor(ROOT2M1, 4)
    lo, hi = minimal_interval(d, (0, 0))
    for u in [(1, 0, 0, 0), (0, 1, 0, 0), (-2, 1, 0, 0)]:
        e = element_to_expr(d, u)
        for x in [mpmath.mpf("0.52"), mpmath.mpf("0.63"), mpmath.mpf("0.74")]:
            y = eval_line(e, x, P)
            assert lo < y < hi
    # a shallower generator moves the point itself
    e3 = element_to_expr(d, (0, 0, 1, 0))
    assert abs(eval_line(e3, mpmath.mpf("0.5"), P) - mpmath.mpf("0.75")) < mpmath.mpf("1e-30")


# -- normalizer realizations --------------------------------------------------------


def test_scale_conjugator_pinned_example():
    d = LineGroupDescriptor(ROOT2M1, 2)
    T = stabilizer_generator(ROOT2M1)
    phi = scale_conjugator(d, T)
    assert phi == Scale(Surd(1, 1, 1, 2))  # dilation by 1 + sqrt(2)


def test_scale_conjugator_rejects_bad_sign():
    d = LineGroupDescriptor(ROOT2M1, 2)
    T = stabilizer_generator(ROOT2M1)
    with pytest.raises(ValueError):
        scale_conjugator(d, -T)


def test_normalizer_identity_is_identity():
    d = LineGroupDescriptor(ROOT2M1, 3)
    assert normalizer_expr(d, StructuredMatrix.identity(3)) == Identity()


def test_normalizer_rank2_pinned_example():
    d = LineGroupDescriptor(ROOT2M1, 2)
    T = stabilizer_generator(ROOT2M1)
    M = StructuredMatrix(T, UnimodularMatrix2.identity(), ((), ()), ())
    phi = normalizer_expr(d, M)
    assert phi == Scale(Surd(1, 1, 1, 2))
    # conjugation doubles-and-shifts the unit translation: L1 -> translation by 2 + alpha
    pts = grid()
    got = conj_expr(phi, Translate(Surd.coerce(1)))
    want = element_to_expr(d, (2, 1))
    assert max_dev(got, want, pts) < mpmath.mpf("1e-30")


def test_normalizer_rank3_single_column_is_staircase():
    d = LineGroupDescriptor(ROOT2M1, 3)
    S = ((3,), (-2,))
    M = StructuredMatrix(UnimodularMatrix2.identity(), UnimodularMatrix2.identity(), S, ((1,),))
    phi = normalizer_expr(d, M)
    expected_len = Surd.coerce(3) + ROOT2M1 * (-2)  # 3 - 2*alpha = 5 - 2*sqrt(2)
    assert phi == Staircase(HbarWrap(Translate(expected_len)))


def test_normalizer_rejects_mismatches():
    d = LineGroupDescriptor(ROOT2M1, 3)
    with pytest.raises(ValueError):
        normalizer_expr(d, StructuredMatrix.identity(4))
    # a matrix that does not fix the base point
    bad = StructuredMatrix(
        UnimodularMatrix2(0, 1, 1, 1), UnimodularMatrix2.identity(), ((0,), (0,)), ((1,),)
    )
    with pytest.raises(ValueError):
        normalizer_expr(d, bad)


def random_structured_fixing(rng, alpha, n, with_A=None):
    T = stabilizer_generator(alpha)
    f = T ** rng.randint(-1, 2)
    m = n - 2
    S = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(2))
    B = tuple(
        tuple(1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(m))
        for i in range(m)
    )
    A = with_A if with_A is not None else UnimodularMatrix2.identity()
    return StructuredMatrix(f, A, S, B)


def test_normalizer_conjugation_matches_matrix_action():
    # the load-bearing property: conjugating generator j gives the element
    # whose coordinates are column j of the assembled matrix
    rng = random.Random(2024)
    pts = grid(-1.8, 2.2, 5)
    for n in (2, 3, 4):
        d = LineGroupDescriptor(ROOT2M1, n)
        basis = basis_exprs(d)
        for _ in range(4):
            M = random_structured_fixing(rng, ROOT2M1, n)
            phi = normalizer_expr(d, M)
            asm = M.assembled()
            for j in range(n):
                ej = [0] * n
                ej[j] = 1
                want = element_to_expr(d, mat_vec(asm, ej))
                got = conj_expr(phi, basis[j])
                assert max_dev(got, want, pts) < mpmath.mpf("1e-20"), (n, M, j)


def test_normalizer_with_base_point_change():
    # A maps alpha = sqrt(2)-1 to sqrt(2)/2; the realization conjugates the
    # group over sqrt(2)/2 onto the one over sqrt(2)-1
    rng = random.Random(77)
    d = LineGroupDescriptor(ROOT2M1, 3)
    d_src = LineGroupDescriptor(HALFROOT2, 3)
    A = equivalent(ROOT2M1, HALFROOT2)
    assert A is not None
    assert mobius_apply(A, ROOT2M1) == HALFROOT2
    pts = grid(-1.4, 1.9, 5)
    for _ in range(3):
        M = random_structured_fixing(rng, ROOT2M1, 3, with_A=A)
        phi = normalizer_expr(d, M)
        asm = M.assembled()
        for j in range(3):
            ej = [0] * 3
            ej[j] = 1
            got = conj_expr(phi, basis_exprs(d_src)[j])
            want = element_to_expr(d, mat_vec(asm, ej))
            assert max_dev(got, want, pts) < mpmath.mpf("1e-20")


def test_normalizer_pure_base_change_pinned():
    # with trivial f, S, B the realization is the single dilation by sqrt(2)
    d = LineGroupDescriptor(ROOT2M1, 2)
    A = equivalent(ROOT2M1, HALFROOT2)
    M = StructuredMatrix(UnimodularMatrix2.identity(), A, ((), ()), ())
    phi = normalizer_expr(d, M)
    assert phi == Scale(Surd(0, 1, 1, 2))
    pts = grid()
    # unit translation in the source group maps to translation by sqrt(2)
    got = conj_expr(phi, Translate(Surd.coerce(1)))
    assert max_dev(got, Translate(Surd(0, 1, 1, 2)), pts) < mpmath.mpf("1e-30")


def test_normalizer_nonquadratic_rejected():
    d = LineGroupDescriptor(NonQuadraticAlpha((0, 2, 1, 1)), 2)
    with pytest.raises(TypeError):
        normalizer_expr(d, StructuredMatrix.identity(2))
