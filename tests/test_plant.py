import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import (
    build_state_space,
    builtin_case,
    check_stability,
    eval_at_one,
    make_nonlinearity,
    make_plant,
    poly,
    static_gain,
    steady_state_check,
    step,
    step_state_space,
    steps,
    warm_plant,
)
from hwconsensus.errors import NonFiniteValue, ValidationError, ZeroDCGain
from hwconsensus.plant import _CATALOG, _INCREASING, HAMMERSTEIN, WIENER, gain_increases

F2 = make_nonlinearity("affine", {"beta": -2.0, "gamma": 1.0})
IDENT = make_nonlinearity("identity", {})


def test_eval_at_one():
    assert eval_at_one(poly([1, 0.2, 0, 0.6])) == pytest.approx(1.8, abs=1e-12)
    assert eval_at_one(poly([1, -0.3, -1.2])) == pytest.approx(-0.5, abs=1e-12)
    assert eval_at_one(poly([1])) == 1.0


def test_polynomial_constant_term_pinned():
    with pytest.raises(ValidationError):
        poly([2, 0.5])
    with pytest.raises(ValidationError):
        poly([])


def test_stability_linear_factors():
    rep = check_stability(poly([1, -0.5]))
    assert rep.stable
    assert rep.roots[0] == pytest.approx(2.0, abs=1e-9)
    rep = check_stability(poly([1, -2]))
    assert not rep.stable
    assert rep.roots[0] == pytest.approx(0.5, abs=1e-9)
    assert check_stability(poly([1])).stable  # degree 0, vacuous


def test_stability_case1_agent1():
    rep = check_stability(poly([1, 0.2, 0, 0.6]))
    assert rep.stable
    mods = sorted(abs(r) for r in rep.roots)
    reals = [r for r in rep.roots if abs(r.imag) < 1e-9]
    assert len(reals) == 1
    assert reals[0].real == pytest.approx(-1.0921268117651506, abs=1e-9)
    assert mods[-1] == pytest.approx(1.2353438008545017, abs=1e-9)


def test_all_builtin_polynomials_stable():
    for case in (1, 2, 3):
        for a in builtin_case(case).agents:
            rep = check_stability(a.C, tol=1e-9)
            assert rep.stable, a.C


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("C", [[1, 5e-324], [1, 0.5, 1e-310]], ids=["5e-324", "1e-310"])
def test_a_subnormal_coefficient_is_stable(C):
    # np.roots of the reversed coefficients divides by the subnormal and
    # overflows; the monic polynomial's companion matrix divides by 1
    rep = check_stability(poly(C))
    assert rep.stable
    assert all(abs(r) > 1.0 for r in rep.roots)


# the verdict as check_stability gave it from the roots of C itself,
# np.roots of the reversed coefficients
def _reference_stable(C, tol=1e-9):
    return bool(np.all(np.abs(np.roots(list(reversed(C)))) > 1.0 + tol))


def test_the_stability_verdicts_are_unchanged():
    polys = [list(a.C.coeffs) for case in (1, 2, 3) for a in builtin_case(case).agents]
    polys += [[1, -0.5], [1, -2], [1, -0.99], [1, -1.01], [1, 0, 0, 1.0234567],
              [1, 0.5, 0.0], [1, 2.0, 1.0], [1, 0.6, 0.5, 0.4], [1, -1.5, 0.56]]
    verdicts = [check_stability(poly(C)).stable for C in polys]
    assert verdicts == [_reference_stable(C) for C in polys]
    assert True in verdicts and False in verdicts


def test_state_space_shapes():
    ss = build_state_space(poly([1, -0.5]), poly([1]))
    assert np.array_equal(ss.A, np.array([[0.5, 1.0], [0.0, 0.0]]))
    assert np.array_equal(ss.B, np.array([1.0, 0.0]))
    assert np.array_equal(ss.G1, np.array([1.0, 0.0]))

    ss = build_state_space(poly([1]), poly([1]))
    assert ss.A.shape == (1, 1) and ss.A[0, 0] == 0.0
    assert ss.B[0] == 1.0

    ss = build_state_space(poly([1, 0.6, 0.5, 0.4]), poly([1, -1, -2]))
    assert ss.A.shape == (4, 4)
    assert np.array_equal(ss.A[:, 0], np.array([-0.6, -0.5, -0.4, 0.0]))
    assert np.array_equal(np.diag(ss.A, 1), np.ones(3))


def test_step_examples():
    p = make_plant("hammerstein", poly([1]), poly([1]), IDENT)
    assert step(p, 3.0) == 3.0

    p = make_plant("hammerstein", poly([1, 0.6, 0.5, 0.4]), poly([1, -1, -2]), F2)
    assert step(p, 1.0) == -1.0  # v = f2(1) = -1 feeds straight through

    p = make_plant("wiener", poly([1, 0.6, 0.5, 0.4]), poly([1, -1, -2]), F2)
    assert step(p, 1.0) == -1.0  # v = 1, y = f2(1)


def test_step_nonfinite_detection():
    p = make_plant("hammerstein", poly([1, -0.5]), poly([1]), IDENT)
    p.y_hist = [1.6e308]
    with pytest.raises(NonFiniteValue) as exc:
        step(p, 1.6e308)  # 0.8e308 + 1.6e308 overflows
    assert (exc.value.step, exc.value.agent) == (1, 1)


@pytest.mark.parametrize("kind, f, u, message, moved", [
    ("hammerstein", "cubic_affine", 1e200, "nonlinearity overflows at 1e+200",
     [[math.inf], [math.inf], []]),
    ("wiener", "cubic_affine", 1e200, "nonlinearity overflows at 1e+200",
     [[], [1e200], [1e200]]),
    ("hammerstein", "identity", math.inf, "plant output left finite range (v=inf, y=inf)",
     [[math.inf], [math.inf], []]),
    ("wiener", "identity", math.inf, "plant output left finite range (v=inf, y=inf)",
     [[], [math.inf], [math.inf]]),
], ids=["hammerstein-overflow", "wiener-overflow", "hammerstein-nonfinite", "wiener-nonfinite"])
def test_step_moves_the_histories_of_the_step_it_raises_at(kind, f, u, message, moved):
    # an f that overflows leaves the plant as an output that is not finite
    # does: stepped, its output inf
    params = {"alpha": 1.0, "beta": 1.0, "gamma": 0.0} if f == "cubic_affine" else {}
    p = make_plant(kind, poly([1, -0.5]), poly([1, 0.25]), make_nonlinearity(f, params))
    with pytest.raises(NonFiniteValue) as exc:
        step(p, u)
    assert (exc.value.step, exc.value.agent, str(exc.value)) == (1, 1, message)
    assert [p.y_hist, p.v_hist, p.u_hist] == moved


def _reference_step(plant, u):
    """The difference equation as written before the compiled stepper: it
    slices the tails on every call and rebuilds the history lists."""
    cs = plant.C.tail
    ds = plant.D.tail
    if plant.kind == HAMMERSTEIN:
        v = plant.f(u)
        acc = v
        for c, y_past in zip(cs, plant.y_hist):
            acc -= c * y_past
        for d, v_past in zip(ds, plant.v_hist):
            acc += d * v_past
        y = acc
        if plant.v_hist:
            plant.v_hist = [v] + plant.v_hist[:-1]
        if plant.y_hist:
            plant.y_hist = [y] + plant.y_hist[:-1]
    else:
        acc = u
        for c, v_past in zip(cs, plant.v_hist):
            acc -= c * v_past
        for d, u_past in zip(ds, plant.u_hist):
            acc += d * u_past
        v = acc
        y = plant.f(v)
        if plant.v_hist:
            plant.v_hist = [v] + plant.v_hist[:-1]
        if plant.u_hist:
            plant.u_hist = [u] + plant.u_hist[:-1]
    if not (math.isfinite(v) and math.isfinite(y)):
        raise NonFiniteValue(f"plant output left finite range (v={v!r}, y={y!r})")
    return y


def _hex(values):
    return [float(x).hex() for x in values]


_COEFF = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _plants(draw):
    name = draw(st.sampled_from(sorted(_CATALOG)))
    f = make_nonlinearity(name, {k: draw(_COEFF) for k in _CATALOG[name][0]})
    C = poly([1.0] + draw(st.lists(_COEFF, max_size=3)))
    D = poly([1.0] + draw(st.lists(_COEFF, max_size=3)))
    plant = make_plant(draw(st.sampled_from(["hammerstein", "wiener"])), C, D, f)
    warm = draw(st.one_of(st.none(), st.floats(-2, 2)))
    if warm is not None and abs(eval_at_one(C)) > 1e-6:
        plant = warm_plant(plant, warm)
    return plant


@settings(max_examples=150, deadline=None)
@given(st.lists(_plants(), min_size=1, max_size=3), st.data())
def test_stepper_matches_reference_step_bit_for_bit(plants, data):
    refs = [p.copy() for p in plants]
    compiled = [p.copy() for p in plants]
    advance = steps(compiled)
    rows = st.lists(st.tuples(*[st.floats(-2, 2)] * len(plants)), max_size=25)
    k0 = 0
    for block in (data.draw(rows), data.draw(rows)):  # the second call goes on from the first
        want = [_reference_step(ref, u) for row in block for ref, u in zip(refs, row)]
        assert _hex(advance(k0, block)) == _hex(want)
        for plant, ref in zip(compiled, refs):
            for name in ("y_hist", "v_hist", "u_hist"):
                assert _hex(getattr(plant, name)) == _hex(getattr(ref, name)), name
        k0 += len(block)
    # step() is the same compiled map, built per call
    assert _hex([step(compiled[0], 0.5)]) == _hex([_reference_step(refs[0], 0.5)])


def test_static_gain_values():
    p = make_plant("hammerstein", poly([1, 0.6, 0.5, 0.4]), poly([1, -1, -2]), F2)
    g = static_gain(p)
    assert g.c == pytest.approx(2.5, abs=1e-12)
    assert g.d == pytest.approx(-2.0, abs=1e-12)
    assert g.h(0.5) == pytest.approx(0.0, abs=1e-12)
    for u in (-3.0, 0.0, 1.7):
        assert g.h(u) == pytest.approx(1.6 * u - 0.8, abs=1e-12)

    p = make_plant("hammerstein", poly([1]), poly([1]), IDENT)
    g = static_gain(p)
    assert g.h(2.3) == 2.3

    f3 = make_nonlinearity("shifted_cube", {"gamma": 1.0})
    p = make_plant("hammerstein", poly([1, -0.15, 0, 0.5]), poly([1, 0.2, -0.4]), f3)
    g = static_gain(p)
    assert g.h(2.0) == pytest.approx((0.8 / 1.35) * 1.0, rel=1e-12)


def test_zero_dc_gain_rejected():
    p = make_plant("hammerstein", poly([1, -1]), poly([1]), IDENT)
    with pytest.raises(ZeroDCGain):
        static_gain(p)


def test_steady_state():
    p = make_plant("hammerstein", poly([1, -0.5]), poly([1]), IDENT)
    assert static_gain(p).h(1.0) == pytest.approx(2.0, abs=1e-12)
    assert steady_state_check(p, 1.0, horizon=200, tol=1e-9)

    p = make_plant("hammerstein", poly([1]), poly([1]), IDENT)
    assert steady_state_check(p, 0.37, horizon=1, tol=1e-12)

    a4 = builtin_case(1).agents[3]
    p = a4.build()
    assert static_gain(p).h(0.0) == pytest.approx(1.5 / 2.86, abs=1e-6)
    assert steady_state_check(p, 0.0, horizon=2000, tol=1e-6)


def test_builtin_gains_increase():
    for case in (1, 2, 3):
        for a in builtin_case(case).agents:
            assert gain_increases(a.build())


def test_every_catalog_entry_has_a_sign_rule():
    assert set(_INCREASING) == set(_CATALOG)


@pytest.mark.parametrize("kind", [HAMMERSTEIN, WIENER])
@pytest.mark.parametrize("name, params, r_sign, want", [
    ("identity", {}, 1, True),
    ("identity", {}, -1, False),
    ("shifted_cube", {"gamma": 2.0}, 1, True),
    ("shifted_cube", {"gamma": 2.0}, -1, False),
    ("affine", {"beta": 3.0, "gamma": 1.0}, 1, True),
    ("affine", {"beta": -3.0, "gamma": 1.0}, -1, True),
    ("affine", {"beta": -3.0, "gamma": 1.0}, 1, False),
    ("affine", {"beta": 0.0, "gamma": 1.0}, 1, False),
    ("cubic_affine", {"alpha": 1.0, "beta": 0.0, "gamma": 0.0}, 1, True),
    ("cubic_affine", {"alpha": 0.0, "beta": 2.0, "gamma": 0.0}, 1, True),
    ("cubic_affine", {"alpha": -1.0, "beta": -2.0, "gamma": 0.0}, -1, True),
    ("cubic_affine", {"alpha": -0.0, "beta": -2.0, "gamma": 0.0}, -1, True),
    ("cubic_affine", {"alpha": 1.0, "beta": -1e-6, "gamma": 0.0}, 1, False),
    ("cubic_affine", {"alpha": -1e-300, "beta": 1.0, "gamma": 0.0}, 1, False),
    ("cubic_affine", {"alpha": 0.0, "beta": -0.0, "gamma": 5.0}, 1, False),
    ("cubic_affine", {"alpha": 0.0, "beta": 0.0, "gamma": 5.0}, -1, False),
])
def test_a_gain_increases_by_the_signs_of_r_and_f(kind, name, params, r_sign, want):
    # h' = r f'(.) >= 0 everywhere and zero at isolated points only; tiny
    # parameters decide by their signs, whatever their product rounds to
    f = make_nonlinearity(name, params)
    D = poly([1.0, 0.5]) if r_sign > 0 else poly([1.0, -2.0])
    assert gain_increases(make_plant(kind, poly([1.0, 0.5]), D, f)) is want


def test_a_gain_of_a_vanishing_or_overflowing_ratio_is_refused():
    f = make_nonlinearity("identity", {})
    assert not gain_increases(make_plant(HAMMERSTEIN, poly([1.0]), poly([1.0, -1.0]), f))
    huge = poly([1.0, 1e308, 1e308])  # D(1) overflows to inf
    assert not gain_increases(make_plant(WIENER, poly([1.0]), huge, f))


def test_unknown_nonlinearity_rejected():
    with pytest.raises(ValidationError):
        make_nonlinearity("sigmoid", {})
    with pytest.raises(ValidationError):
        make_nonlinearity("affine", {"beta": 1.0})  # gamma missing
    with pytest.raises(ValidationError):
        make_nonlinearity("affine", {"beta": 1.0, "gamma": 0.0, "x": 1.0})


def _random_stable_poly(rng, max_deg=4):
    deg = rng.integers(0, max_deg + 1)
    coeffs = [1.0]
    factors = []
    d = deg
    while d > 0:
        if d >= 2 and rng.random() < 0.5:
            r = rng.uniform(1.05, 3.0)
            th = rng.uniform(0.1, math.pi - 0.1)
            factors.append([1.0, -2.0 * math.cos(th) / r, 1.0 / r**2])
            d -= 2
        else:
            r = rng.uniform(1.05, 3.0) * rng.choice([-1.0, 1.0])
            factors.append([1.0, -1.0 / r])
            d -= 1
    out = np.array(coeffs)
    for f in factors:
        out = np.convolve(out, np.array(f))
    return poly(list(out))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_state_space_matches_difference_equation(seed):
    rng = np.random.default_rng(seed)
    C = _random_stable_poly(rng)
    D = poly([1.0] + list(rng.uniform(-2, 2, size=rng.integers(0, 4))))
    p = make_plant("hammerstein", C, D, IDENT)
    ss = build_state_space(C, D)
    us = rng.uniform(-4, 4, size=200)
    for u in us:
        y_diff = step(p, float(u))
        y_ss = step_state_space(ss, float(u))
        assert abs(y_diff - y_ss) < 1e-10


def test_state_space_matches_for_all_builtin_agents():
    rng = np.random.default_rng(0)
    for case in (1, 2, 3):
        for a in builtin_case(case).agents:
            plant = a.build()
            ss = build_state_space(a.C, a.D)
            for u in rng.uniform(-3, 3, size=300):
                if plant.kind == "hammerstein":
                    w = plant.f(float(u))
                    y_ss = step_state_space(ss, w)
                    y = step(plant, float(u))
                else:
                    v_ss = step_state_space(ss, float(u))
                    y_ss = plant.f(v_ss)
                    y = step(plant, float(u))
                assert abs(y - y_ss) < 1e-10


def test_transition_matrix_decays():
    # stable C implies the powers of A vanish geometrically
    for case in (1, 2, 3):
        for a in builtin_case(case).agents:
            A = build_state_space(a.C, a.D).A
            norms = []
            P = np.eye(A.shape[0])
            for _ in range(200):
                P = P @ A
                norms.append(np.linalg.norm(P))
            logs = np.log(np.maximum(norms, 1e-300))
            ks = np.arange(1, 201)
            slope = np.polyfit(ks, logs, 1)[0]
            assert slope < 0


def test_bounded_input_bounded_state():
    rng = np.random.default_rng(3)
    for a in builtin_case(1).agents:
        ss = build_state_space(a.C, a.D)
        peak = 0.0
        for _ in range(10_000):
            step_state_space(ss, float(rng.uniform(-1, 1)))
            peak = max(peak, float(np.linalg.norm(ss.X)))
        assert peak < 1e3
