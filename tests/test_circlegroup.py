import math
import random
from fractions import Fraction

import mpmath
import pytest

from circleconj import circlegroup
from circleconj.circlegroup import (
    CircleElement,
    CircleGroupDescriptor,
    OrbitSample,
    _lift,
    bar_extend,
    canonical_f,
    compose_elements,
    content,
    element_expr,
    finite_orbit,
    identity_element,
    orbit_sample,
    orbit_svg,
    orbit_to_csv,
    power_element,
    validate_g,
)
from circleconj.exactnum import NonQuadraticAlpha, Surd
from circleconj.homeo import (
    CanonicalF,
    CirclePoint,
    Compose,
    Identity,
    Power,
    Precision,
    PrecisionExhausted,
    _chart,
    circle_distance,
    eval_circle,
    rotation_number,
)
from circleconj.lineargroup import element_to_expr

ROOT2M1 = Surd(-1, 1, 1, 2)
GOLDEN = Surd(-1, 1, 2, 5)

P = Precision(working_bits=256)


def circle_grid(count=6, offset="0.0317"):
    with mpmath.mp.workprec(256):
        return [
            (mpmath.mpf(i) / count + mpmath.mpf(offset)) % 1 for i in range(count)
        ]


def max_circle_dev(e1, e2, points):
    worst = mpmath.mpf(0)
    for t in points:
        a = eval_circle(e1, t, P).approx(256)
        b = eval_circle(e2, t, P).approx(256)
        worst = max(worst, circle_distance(a, b))
    return worst


# -- validation ---------------------------------------------------------------------


def test_content():
    assert content(()) == 0
    assert content((0, 0)) == 0
    assert content((4, -6)) == 2
    assert content((3, 5, 0)) == 1


def test_validate_g():
    ok, reason = validate_g((1, 0), 2)
    assert ok and reason is None
    ok, reason = validate_g((2, 4), 2)
    assert not ok and "torsion" in reason
    # zero vector only survives the degenerate cycle length
    assert validate_g((0, 0), 1)[0]
    assert not validate_g((0, 0), 3)[0]
    # content coprime to k is enough even when it is not 1
    assert validate_g((3, 3), 2)[0]
    assert not validate_g((3, 3), 6)[0]


def test_descriptor_validation():
    CircleGroupDescriptor(ROOT2M1, 2, 3, (1, 0))
    with pytest.raises(ValueError):
        CircleGroupDescriptor(ROOT2M1, 2, 0, (1, 0))
    with pytest.raises(ValueError):
        CircleGroupDescriptor(ROOT2M1, 2, 2, (1, 0, 0))
    with pytest.raises(ValueError):
        CircleGroupDescriptor(ROOT2M1, 2, 2, (2, 2))
    with pytest.raises(ValueError):
        CircleGroupDescriptor(Surd.coerce(Fraction(2, 7)), 2, 2, (1, 0))


def test_descriptor_json_round_trip():
    d = CircleGroupDescriptor(GOLDEN, 3, 4, (0, 1, 2))
    assert CircleGroupDescriptor.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        CircleGroupDescriptor.from_json({**d.to_json(), "spare": 1})


def test_element_json_and_checks():
    e = CircleElement(2, (1, -3))
    assert CircleElement.from_json(e.to_json()) == e
    with pytest.raises(ValueError):
        CircleElement.from_json({"j": 1, "h": [0, 0], "zap": 2})
    d = CircleGroupDescriptor(ROOT2M1, 2, 2, (1, 0))
    with pytest.raises(ValueError):
        element_expr(d, CircleElement(5, (0, 0)))
    with pytest.raises(ValueError):
        element_expr(d, CircleElement(0, (0, 0, 0)))


# -- structure ----------------------------------------------------------------------


def test_canonical_f_structure():
    d = CircleGroupDescriptor(ROOT2M1, 2, 3, (1, 1))
    f = canonical_f(d)
    assert f == CanonicalF(3, element_to_expr(d.line(), (1, 1)))


def test_element_expr_simplifications():
    d = CircleGroupDescriptor(ROOT2M1, 2, 3, (1, 0))
    assert element_expr(d, identity_element(d)) == Identity()
    assert element_expr(d, CircleElement(1, (0, 0))) == canonical_f(d)
    assert element_expr(d, CircleElement(2, (0, 0))) == Power(canonical_f(d), 2)
    assert bar_extend(d, (0, 0)) == Identity()


def test_finite_orbit_is_exactly_invariant():
    rng = random.Random(404)
    for k in (1, 2, 3, 4):
        d = CircleGroupDescriptor(ROOT2M1, 2, k, (1, 0))
        orbit = finite_orbit(d)
        assert [pt.t for pt in orbit] == [Fraction(j, k) for j in range(k)]
        for _ in range(10):
            j = rng.randrange(k)
            h = tuple(rng.randint(-3, 3) for _ in range(2))
            expr = element_expr(d, CircleElement(j, h))
            for i in range(k):
                image = eval_circle(expr, orbit[i], P)
                assert image.is_exact
                assert image.t == Fraction((i + j) % k, k)


def test_cycle_map_kth_power_is_bar_extension_of_g():
    for k in (1, 2, 3):
        d = CircleGroupDescriptor(GOLDEN, 2, k, (1, 1))
        f_elem = CircleElement(1 % k, (0,) * 2) if k > 1 else CircleElement(0, (1, 1))
        # normal form: f^k folds into the twist vector
        if k > 1:
            assert power_element(d, f_elem, k) == CircleElement(0, d.g)
        lhs = Power(canonical_f(d), k)
        rhs = bar_extend(d, d.g)
        assert max_circle_dev(lhs, rhs, circle_grid()) < mpmath.mpf("1e-30")


def test_bar_extensions_commute_with_cycle_map():
    rng = random.Random(17)
    d = CircleGroupDescriptor(ROOT2M1, 3, 3, (0, 1, 1))
    f = canonical_f(d)
    pts = circle_grid(5)
    for _ in range(6):
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        sig = bar_extend(d, v)
        assert max_circle_dev(Compose((sig, f)), Compose((f, sig)), pts) < mpmath.mpf("1e-25")


def test_bar_extension_preserves_each_arc():
    d = CircleGroupDescriptor(ROOT2M1, 2, 4, (1, 2))
    sig = bar_extend(d, (2, -1))
    for t in circle_grid(8, "0.02"):
        image = eval_circle(sig, t, P).approx(256)
        assert mpmath.floor(4 * t) == mpmath.floor(4 * image)


def test_composition_law_matches_normal_form():
    rng = random.Random(2718)
    pts = circle_grid(4)
    for n, k in [(2, 1), (2, 2), (3, 3)]:
        g = (1,) + (0,) * (n - 1)
        d = CircleGroupDescriptor(ROOT2M1, n, k, g)
        for _ in range(8):
            e1 = CircleElement(rng.randrange(k), tuple(rng.randint(-2, 2) for _ in range(n)))
            e2 = CircleElement(rng.randrange(k), tuple(rng.randint(-2, 2) for _ in range(n)))
            folded = element_expr(d, compose_elements(d, e1, e2))
            direct = Compose((element_expr(d, e1), element_expr(d, e2)))
            assert max_circle_dev(folded, direct, pts) < mpmath.mpf("1e-25"), (n, k, e1, e2)


def test_power_law_matches_normal_form():
    rng = random.Random(31415)
    pts = circle_grid(4)
    d = CircleGroupDescriptor(GOLDEN, 2, 3, (0, 1))
    for _ in range(8):
        e = CircleElement(rng.randrange(3), (rng.randint(-2, 2), rng.randint(-2, 2)))
        m = rng.randint(-3, 4)
        folded = element_expr(d, power_element(d, e, m))
        direct = Power(element_expr(d, e), m)
        assert max_circle_dev(folded, direct, pts) < mpmath.mpf("1e-25"), (e, m)


def test_no_torsion_in_normal_form():
    d = CircleGroupDescriptor(ROOT2M1, 2, 4, (1, 1))
    ident = identity_element(d)
    rng = random.Random(55)
    for _ in range(30):
        e = CircleElement(rng.randrange(4), (rng.randint(-2, 2), rng.randint(-2, 2)))
        if e == ident:
            continue
        for m in range(1, 9):
            assert power_element(d, e, m) != ident
    # the rejected twist vector (2, 2) with k = 2 would give an order-two
    # element: j=1, h=(-1,-1) squares to j=2 -> fold: h = (-2,-2) + (2,2) = 0
    assert not validate_g((2, 2), 2)[0]


def test_inverse_element_round_trip():
    d = CircleGroupDescriptor(ROOT2M1, 3, 3, (1, 0, 1))
    rng = random.Random(8)
    for _ in range(12):
        e = CircleElement(rng.randrange(3), tuple(rng.randint(-2, 2) for _ in range(3)))
        inv = power_element(d, e, -1)
        assert compose_elements(d, e, inv) == identity_element(d)
        assert compose_elements(d, inv, e) == identity_element(d)


def test_rotation_number_of_cycle_map():
    d = CircleGroupDescriptor(ROOT2M1, 2, 2, (1, 0))
    rho = rotation_number(canonical_f(d), CirclePoint(mpmath.mpf("0.17")), 150, P)
    assert abs(rho - mpmath.mpf("0.5")) < mpmath.mpf("0.02")


# -- orbit sampling -----------------------------------------------------------------


def test_orbit_sample_density_and_shape():
    d = CircleGroupDescriptor(ROOT2M1, 2, 2, (1, 0))
    sample = orbit_sample(d, CirclePoint(mpmath.mpf("0.2879")), 800, seed=3, p=P)
    assert isinstance(sample, OrbitSample)
    assert sample.skipped < 40
    pts = list(sample.points)
    assert pts == sorted(pts)
    assert all(0 <= t < 1 for t in pts)
    assert sample.max_gap < mpmath.mpf("0.15")


def test_orbit_sample_draws_every_cycle_power_beyond_64():
    # the normal form raises the cycle map to every power j < k
    d = CircleGroupDescriptor(ROOT2M1, 2, 100, (1, 0))
    sample = orbit_sample(d, CirclePoint(Fraction(2137, 10000)), 200, seed=0, p=P)
    assert sample.skipped == 0


def test_orbit_sample_refuses_a_nonquadratic_base_point():
    d = CircleGroupDescriptor(NonQuadraticAlpha((0, 1, 2, 3, 4, 5)), 2, 2, (1, 0))
    with pytest.raises(TypeError, match="non-quadratic"):
        orbit_sample(d, CirclePoint(Fraction(3, 10)), 0, p=P)


@pytest.mark.parametrize("n", [2, 3])
def test_a_t0_the_lift_cannot_place_aims_from_the_arc_centre_and_moves_nowhere(n, monkeypatch):
    """t0 = 1/2 + 10^-50 at k = 2 lies 2 10^-50 into its arc's chart, inside
    the 2^-128 guard at 256 bits, so into_chart raises and the lift has no
    coordinate for t0.  The aim is then the arc's centre, coordinate 0, with
    no drift, as for a marked t0, and the lifter's guard rule skips every draw
    that moves t0 or passes the closing arc: only draws with h = 0 that stay
    off the closing arc are kept, as exact rotations of t0."""
    d = CircleGroupDescriptor(ROOT2M1, n, 2, (1,) + (0,) * (n - 1))
    t0 = Fraction(1, 2) + Fraction(1, 10**50)
    chart = _chart(P.working_bits)
    with pytest.raises(PrecisionExhausted):
        chart.into_chart(t0, 2)
    draws, draw = [], circlegroup._draw_coords

    def recording(d, rng, alpha_f, u, aim):
        draws.append((aim, draw(d, rng, alpha_f, u, aim)))
        return draws[-1][1]

    monkeypatch.setattr(circlegroup, "_draw_coords", recording)
    sample = orbit_sample(d, CirclePoint(t0), 1000, seed=0, p=P)
    assert {aim for aim, _ in draws} == {0.0}
    r0 = chart.arc(t0, 2)  # 0: t0 lies in (1/2, 1), the arc after (0, 1/2)
    kept = [chart.rotate(t0, i % 2, 2) for i, (_, h) in enumerate(draws) if not any(h) and r0 + i % 2 < 2]
    assert kept and sample.skipped == 1000 - len(kept)
    assert sample.points == tuple(sorted(CirclePoint(t).approx(P.working_bits) for t in [t0] + kept))


@pytest.mark.parametrize("n", [2, 3])
def test_a_t0_whose_coordinate_is_past_the_float_range_aims_from_the_arc_centre(n, monkeypatch):
    """At 4096 bits the lift places t0 = 2^-1500 (k = 1) at a coordinate
    near -2^1500/pi, which has no float, so the draws aim from 0 and every
    image is evaluated."""
    d, t0, p = CircleGroupDescriptor(ROOT2M1, n, 1, (1,) + (0,) * (n - 1)), Fraction(1, 2**1500), Precision(4096)
    point, _ = _lift(d, p)(t0)
    assert _chart(4096).approx(point.x) == -math.inf
    aims, draw = set(), circlegroup._draw_coords
    monkeypatch.setattr(circlegroup, "_draw_coords", lambda *args: aims.add(args[-1]) or draw(*args))
    sample = orbit_sample(d, CirclePoint(t0), 12, seed=0, p=p)
    assert aims == {0.0} and sample.skipped == 0 and len(sample.points) == 13
    assert all(0 < t < 1 for t in sample.points)


def test_orbit_outputs():
    d = CircleGroupDescriptor(ROOT2M1, 2, 3, (1, 0))
    sample = orbit_sample(d, CirclePoint(mpmath.mpf("0.41")), 50, seed=1, p=P)
    csv = orbit_to_csv(sample)
    lines = csv.strip().split("\n")
    assert lines[0] == "index,t"
    assert len(lines) == 1 + len(sample.points)
    svg = orbit_svg(sample, d.k)
    assert svg.startswith("<svg")
    assert svg.count('stroke="#d62728"') == 3


def test_the_lift_rotates_an_exact_point_inside_the_headroom_where_the_tree_does():
    # 10^-30 from a marked point lies inside the 2^-64 headroom of 128 bits:
    # the chart cannot take the point, but a power of f that keeps it off the
    # closing arc rotates it exactly, in the lift as in the element tree
    d, p = CircleGroupDescriptor(Surd(-1, 1, 1, 2), 3, 3, (1, 0, 1)), Precision(working_bits=128)
    t = Fraction(1, 3) + Fraction(1, 10**30)  # on arc 1: f and f^2 do not pass the closing arc
    _, image = _lift(d, p)(t)
    for j in (1, 2):
        tree = eval_circle(element_expr(d, CircleElement(j, (0, 0, 0))), t, p)
        assert image(j, (0, 0, 0)) == tree.t == (t + Fraction(j, 3)) % 1
    for j, h in ((0, (1, 0, 0)), (1, (0, 0, 1))):
        with pytest.raises(PrecisionExhausted):
            image(j, h)
        with pytest.raises(PrecisionExhausted):
            eval_circle(element_expr(d, CircleElement(j, h)), t, p)


def reference_tail(sample, bits):
    """max_gap and the CSV as they were taken before the libmp tail: the gaps
    in mpf arithmetic under workprec, and each point written by mpmath.nstr."""
    values = list(sample.points)
    with mpmath.mp.workprec(bits):
        gaps = [b - a for a, b in zip(values, values[1:])]
        gaps.append(values[0] + 1 - values[-1])
        max_gap = max(gaps)
    csv = "index,t\n" + "".join(f"{i},{mpmath.nstr(t, 20)}\n" for i, t in enumerate(values))
    return max_gap, csv


@pytest.mark.parametrize("bits", (128, 256))
def test_the_tail_keeps_the_workprec_gaps_and_the_nstr_csv(bits):
    p, calls = Precision(working_bits=bits), 0
    for i, (n, k) in enumerate((n, k) for n in (2, 3, 4) for k in (1, 2, 3)):
        d = CircleGroupDescriptor(ROOT2M1, n, k, (1,) + (0,) * (n - 2) + (-1,))
        for count in (0, 1, 2, 7, 40):
            with mpmath.mp.workprec(bits):
                binary = mpmath.mpf(2 + i) / (29 + i)
            for t0 in (Fraction(3 + 5 * i, 37), binary):
                sample = orbit_sample(d, CirclePoint(t0), count, seed=i + count, p=p)
                max_gap, csv = reference_tail(sample, bits)
                assert sample.max_gap._mpf_ == max_gap._mpf_, (d, t0, count)
                assert orbit_to_csv(sample) == csv
                assert list(sample.points) == sorted(sample.points)
                calls += 1
    assert calls >= 50
