"""Orbit sampling, boundedness probes, minimal periods, factorial-
reciprocal systems, and witness sequences.  Numeric oracles: closed-form
rotations, the generic matrix exponential, and exact rational solves."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import direct_sum, rotation
from flowclass import flowsim
from flowclass.errors import DiagnosticError, InputError
from flowclass.flowsim import (
    DEFAULT_PROBE_HORIZON,
    FactorialSystem,
    bounded_exact,
    bounded_probe,
    extrapolate_to_zero,
    jordan_flow,
    min_period,
    orbit_point,
    orbit_sample,
    realize_blocks,
    realize_class,
    witness_sequence,
)
from flowclass.invariants import RationalClass, orbit_frequency
from flowclass.numkit import Matrix, RationalComplex, mat_exp_array

ROT = [[0.0, -1.0], [1.0, 0.0]]


# ---- orbits ---------------------------------------------------------------


def test_orbit_point_matches_rotation_closed_form():
    for t in (0.0, 0.3, 2.0, -1.7, 12.5):
        got = orbit_point(ROT, [1.0, 0.0], t)
        assert np.allclose(got, [math.cos(t), math.sin(t)], atol=1e-12)


def test_orbit_sample_grid_and_values():
    s = orbit_sample(ROT, [1.0, 0.0], horizon=2.0, step=0.5)
    assert np.allclose(s.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(s.points[:, 0], np.cos(s.times), atol=1e-12)
    assert np.allclose(s.norms, 1.0, atol=1e-12)


def test_orbit_sample_accepts_matrix_and_generator_points():
    m = Matrix.floating(ROT)
    s = orbit_sample(m, (float(k) for k in (1, 0)), horizon=1.0, step=0.25)
    assert s.points.shape == (5, 2)


def test_orbit_sample_rejects_bad_grid():
    with pytest.raises(InputError):
        orbit_sample(ROT, [1.0, 0.0], horizon=0.0, step=0.1)
    with pytest.raises(InputError):
        orbit_sample(ROT, [1.0, 0.0], horizon=1.0, step=-0.1)
    for horizon, step in ((math.inf, 0.1), (1.0, math.nan), (math.nan, 0.1)):
        with pytest.raises(InputError, match="positive and finite"):
            orbit_sample(ROT, [1.0, 0.0], horizon=horizon, step=step)


def test_sampling_refuses_a_grid_over_the_point_budget(monkeypatch):
    # refused before the walk starts, so nothing is allocated even if
    # the check is missing
    def no_walk(*args, **kwargs):
        raise AssertionError("the grid was walked")

    monkeypatch.setattr(flowsim, "_walk", no_walk)
    calls = (
        lambda h, s: orbit_sample(ROT, [1.0, 0.0], h, s),
        lambda h, s: bounded_probe(ROT, [1.0, 0.0], horizon=h, step=s),
        lambda h, s: min_period(ROT, [1.0, 0.0], horizon=h, step=s),
    )
    for call in calls:
        with pytest.raises(DiagnosticError, match="has 10,000,000,000,000,001 points"):
            call(1e13, 0.001)
        with pytest.raises(DiagnosticError, match="has 1,000,001 points, over the budget"):
            call(1000.0, 0.001)
        with pytest.raises(DiagnosticError, match="has over 1e308 points"):
            call(1e300, 1e-300)
    assert flowsim._check_window(999.999, 0.001) == 1_000_000


def _step_by_step(arr, vec, count, step):
    """Reference walk: one application of exp(step*A) per grid point."""
    prop = mat_exp_array(arr, step)
    pts = np.empty((count, len(vec)), dtype=np.result_type(prop, vec))
    pts[0] = vec
    for k in range(1, count):
        pts[k] = prop @ pts[k - 1]
    return pts


def _wide_step_walk(arr, vec, count, step):
    """Reference walk in extended precision: the same P = exp(step*A),
    applied once per grid point in np.clongdouble."""
    prop = mat_exp_array(arr, step).astype(np.clongdouble)
    pts = np.empty((count, len(vec)), dtype=np.clongdouble)
    pts[0] = vec
    for k in range(1, count):
        pts[k] = prop @ pts[k - 1]
    return pts


# the blocked walk's power table and block starts are extended precision
# only where np.longdouble is wider than float64 (80-bit on x86-64)
needs_wide_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is float64 on this platform",
)


def _random_generator(gen, complex_kind, rate):
    """S J S^-1 with J built from rotations, center Jordan blocks and mild
    hyperbolic parts (real parts within +-rate), S a random orthogonal
    (unitary for complex_kind) change of basis."""
    cells = []
    for _ in range(int(gen.integers(1, 4))):
        w = float(gen.uniform(0.5, 3.0))
        a = float(gen.choice([0.0, 0.0, gen.uniform(-rate, rate)]))
        kind = gen.choice(["rotation", "center_jordan", "hyperbolic"])
        if kind == "rotation":
            cells.append(np.array([[a, -w], [w, a]]))
        elif kind == "center_jordan":
            rot = np.array([[0.0, -w], [w, 0.0]])
            cells.append(np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]]))
        else:
            cells.append(np.array([[float(gen.uniform(-rate, rate))]]))
    n = sum(c.shape[0] for c in cells)
    j = np.zeros((n, n), dtype=complex if complex_kind else float)
    at = 0
    for c in cells:
        j[at : at + c.shape[0], at : at + c.shape[0]] = c
        at += c.shape[0]
    g = gen.standard_normal((n, n))
    vec = gen.standard_normal(n)
    if complex_kind:
        j += np.diag(1j * gen.uniform(-1.0, 1.0, n))
        g = g + 1j * gen.standard_normal((n, n))
        vec = vec + 1j * gen.standard_normal(n)
    s = np.linalg.qr(g)[0]
    return s @ j @ s.conj().T, vec


# grid lengths at both default steps, up to the probe grid (4001 points at
# step 0.25), the period grid (12801 points at step 0.01) and the period
# grid's length at the probe step (t up to 3200)
@pytest.mark.parametrize(
    "count,step",
    [(c, h) for c in (1, 2, 17, 4001) for h in (0.01, 0.25)]
    + [(12801, 0.01), pytest.param(12801, 0.25, marks=needs_wide_long_double)],
)
@pytest.mark.parametrize("complex_kind", [False, True])
def test_orbit_sample_matches_step_by_step_walk(count, step, complex_kind):
    gen = np.random.default_rng(7100 + count + int(100 * step) + 5 * complex_kind)
    horizon = (count - 1) * step or step / 2
    for _ in range(6):
        # growth and decay stay within e^(+-4) over the whole grid
        arr, vec = _random_generator(gen, complex_kind, 4.0 / max(horizon, 1.0))
        got = orbit_sample(arr, vec, horizon=horizon, step=step)
        want = _step_by_step(arr, vec, count, step)
        assert got.points.shape == want.shape
        err = np.linalg.norm(got.points - want, axis=1)
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=1))


@needs_wide_long_double
@pytest.mark.parametrize("count,step", [(4001, 0.25), (12801, 0.01), (12801, 0.25)])
@pytest.mark.parametrize("complex_kind", [False, True])
def test_orbit_sample_matches_extended_precision_walk(count, step, complex_kind):
    # the blocked walk rounds each point a bounded number of times, so it
    # does not drift from a step walk of the same P in extended precision
    # (a table and jump rounded to double put it 2.0e-10 off at 12801
    # points of step 0.25)
    gen = np.random.default_rng(7200 + count + int(100 * step) + 5 * complex_kind)
    horizon = (count - 1) * step
    for _ in range(6):
        arr, vec = _random_generator(gen, complex_kind, 4.0 / horizon)
        got = orbit_sample(arr, vec, horizon=horizon, step=step).points
        want = _wide_step_walk(arr, vec, count, step)
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("complex_kind", [False, True])
def test_chunked_walk_equals_orbit_sample(complex_kind):
    # whatever the chunk size, the chunks concatenate to orbit_sample's
    # points bit for bit; B = 114 at 12801 points, 2 at 4, 1 under a cap
    gen = np.random.default_rng(7300 + complex_kind)
    for count, step in ((1, 0.01), (4, 0.25), (12801, 0.01), (4001, 0.25), (230, 0.1)):
        horizon = (count - 1) * step or step / 2
        arr, vec = _random_generator(gen, complex_kind, 4.0 / max(horizon, 1.0))
        want = orbit_sample(arr, vec, horizon=horizon, step=step).points
        for group in (1, 3, 8, 1000):
            chunks = list(flowsim._walk(arr, vec.astype(want.dtype), count, step, group))
            got = np.concatenate(chunks)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # a capped block length of 1 (|exp(0.25*A)|_1 = e^250) walks point by point
    a, _ = realize_blocks([(1000.0, 1, 1), (1j, 1, 1), (-1j, 1, 1)])
    x0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    want = orbit_sample(a, x0, horizon=2.0, step=0.25).points
    for group in (1, 3):
        chunks = list(flowsim._walk(a, x0, 9, 0.25, group))
        assert chunks[0].shape[0] == group
        assert np.array_equal(np.concatenate(chunks), want)


def test_orbit_sample_block_cap_keeps_bounded_orbit_finite():
    # exp(0.25 * 50) has norm e^12.5; an uncapped block of 64 steps would
    # overflow P^64 and turn the zero expanding coordinate into nan rows
    a, layout = realize_blocks([(50.0, 1, 1), (1j, 1, 1), (-1j, 1, 1)])
    x0 = [0.0, 1.0, 0.0]
    s = orbit_sample(a, x0, horizon=DEFAULT_PROBE_HORIZON, step=0.25)
    assert s.points.shape == (4001, 3)
    assert np.all(np.isfinite(s.points))
    assert np.allclose(np.abs(s.points[:, 1]), 1.0, atol=1e-12)
    assert bounded_exact(layout, x0).verdict == "bounded"
    assert bounded_probe(a, x0).verdict != "unbounded"


def test_orbit_sample_refuses_overflowing_step():
    # exp(0.25 * 3000) is not a finite float; the probe used to report an
    # overflowed orbit here although the orbit of x0 is a bounded rotation
    a, layout = realize_blocks([(3000.0, 1, 1), (1j, 1, 1), (-1j, 1, 1)])
    x0 = [0.0, 1.0, 0.0]
    assert bounded_exact(layout, x0).verdict == "bounded"
    with pytest.raises(DiagnosticError, match=r"step 0\.25; use a smaller step"):
        orbit_sample(a, x0, horizon=10.0, step=0.25)
    with pytest.raises(DiagnosticError, match="smaller step"):
        bounded_probe(a, x0)
    assert np.all(np.isfinite(orbit_sample(a, x0, horizon=1.0, step=0.01).points))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sampling_rejects_non_finite_input(bad):
    with pytest.raises(InputError, match="generator has a non-finite entry"):
        orbit_sample([[0.0, bad], [1.0, 0.0]], [1.0, 0.0], horizon=1.0, step=0.1)
    with pytest.raises(InputError, match="generator has a non-finite entry"):
        min_period([[0.0, complex(0.0, bad)], [1.0, 0.0]], [1.0, 0.0])
    with pytest.raises(InputError, match="non-finite coordinate"):
        orbit_sample(ROT, [1.0, bad], horizon=1.0, step=0.1)
    with pytest.raises(InputError, match="non-finite coordinate"):
        bounded_probe(ROT, [1.0, complex(bad, 0.0)])
    with pytest.raises(InputError, match="time must be a finite number"):
        orbit_point(ROT, [1.0, 0.0], bad)


def test_sampling_refuses_a_generator_whose_norm_overflows():
    # entries are finite, but |A|_1 overflows: refused, not a crash
    huge = [[1.0e308, 1.0e308], [1.0e308, 1.0e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiagnosticError, match=r"\|t\*A\|_1 overflows at t=1, so"):
            orbit_sample(huge, [1.0, 0.0], horizon=10.0, step=1.0)
        with pytest.raises(DiagnosticError, match="1-norm is beyond the float range"):
            min_period(huge, [1.0, 0.0], step=1.0)
        assert min_period(huge, [0.0, 0.0]).kind == "fixed_point"


def test_jordan_flow_matches_matrix_exponential(rng):
    for _ in range(15):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        m = rng.randint(1, 5)
        t = rng.uniform(-3, 3)
        arr, _ = realize_blocks([(lam, m, 1)])
        want = mat_exp_array(arr, t)
        got = jordan_flow(lam, m, t)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_realize_blocks_layout_and_shape():
    arr, layout = realize_blocks(
        [(RationalComplex(Fraction(0), Fraction(2)), 2, 1), (Fraction(-1), 1, 2)]
    )
    assert layout == ((RationalComplex(Fraction(0), Fraction(2)), 2),
                      (Fraction(-1), 1), (Fraction(-1), 1))
    assert arr.shape == (4, 4)
    assert arr[0, 0] == 2j and arr[0, 1] == 1.0 and arr[1, 0] == 0.0
    assert arr[2, 2] == -1.0 and arr[2, 3] == 0.0


def test_realize_class_is_diagonal_rotation():
    arr = realize_class(RationalClass(Fraction(1, 2), (2, 3)))
    assert np.allclose(arr, np.diag([1j, 1.5j]))


# ---- boundedness ----------------------------------------------------------


def test_bounded_exact_verdicts():
    layout = ((1.0, 1), (3j, 2), (0.0, 2))
    assert bounded_exact(layout, [0.0, 1.0, 0.0, 1.0, 0.0]).verdict == "bounded"
    assert bounded_exact(layout, [0.5, 0.0, 0.0, 0.0, 0.0]).verdict == "unbounded"
    # weight past the leading coordinate of a center block drifts linearly
    assert bounded_exact(layout, [0.0, 1.0, 0.5, 0.0, 0.0]).verdict == "unbounded"
    assert bounded_exact(layout, [0.0, 0.0, 0.0, 0.0, 1.0]).verdict == "unbounded"


def test_bounded_exact_accepts_exact_coordinates():
    layout = ((RationalComplex(Fraction(0), Fraction(1)), 1), (Fraction(2), 1))
    r = bounded_exact(layout, [Fraction(1, 3), Fraction(0)])
    assert r.verdict == "bounded"
    r = bounded_exact(layout, [Fraction(0), Fraction(1, 7)])
    assert r.verdict == "unbounded"


def test_bounded_exact_length_check():
    with pytest.raises(InputError):
        bounded_exact(((0.0, 2),), [1.0])


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_bounded_exact_refuses_nan_or_negative_tolerances(bad):
    layout, x0 = ((1j, 1), (1.0, 1)), [1.0, 1e-12]
    assert bounded_exact(layout, x0, coord_tol=1e-9).verdict == "bounded"
    for kw in ({"coord_tol": bad}, {"re_tol": bad}):
        with pytest.raises(InputError, match="must be nonnegative numbers"):
            bounded_exact(layout, x0, **kw)


def test_bounded_probe_detects_growth_and_recurrence():
    up = bounded_probe(np.diag([1.0]), [1.0], horizon=32.0)
    assert up.verdict == "unbounded" and up.ratio > 1000.0

    # quarter-turn rotation: period 4 lands on the sampling grid
    quarter = [[0.0, -math.pi / 2], [math.pi / 2, 0.0]]
    ok = bounded_probe(quarter, [1.0, 0.0], horizon=16.0)
    assert ok.verdict == "bounded" and "returned" in ok.reason

    # unit rotation has period 2*pi, never on the quarter-step grid
    shy = bounded_probe(ROT, [1.0, 0.0], horizon=16.0)
    assert shy.verdict == "undetermined"


def test_bounded_probe_origin_and_cap_validation():
    assert bounded_probe(ROT, [0.0, 0.0]).verdict == "bounded"
    with pytest.raises(InputError):
        bounded_probe(ROT, [1.0, 0.0], growth_cap=1.0)
    with pytest.raises(InputError):
        bounded_probe(ROT, [1.0, 0.0], growth_cap=math.nan)


def test_bounded_probe_overflow_is_silent():
    # the expanding direction overflows to inf within the default horizon
    a, _ = realize_blocks([(0.5, 1, 1), (1j, 1, 1), (-1j, 1, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bounded_probe(a, [1.0, 1.0, 0.0])
    assert res.verdict == "unbounded"


def test_probe_never_contradicts_exact(rng):
    """Random structured systems: sampled verdicts must refine, never
    oppose, the structural ones."""
    determined = 0
    for _ in range(30):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["rot", "fix", "hyp", "drift"])
            if kind == "rot":
                q = rng.choice([1, 2, 4, 8])
                k = rng.randint(1, 3)
                blocks.append((complex(0.0, 2.0 * math.pi * k / q), 1, 1))
            elif kind == "fix":
                blocks.append((0.0, 1, 1))
            elif kind == "hyp":
                blocks.append((float(rng.choice([-1, 1])), 1, 1))
            else:
                blocks.append((complex(0.0, 1.0), 2, 1))
        arr, layout = realize_blocks(blocks)
        n = arr.shape[0]
        x0 = [
            0.0 if rng.random() < 0.4 else rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            for _ in range(n)
        ]
        exact = bounded_exact(layout, x0)
        probe = bounded_probe(arr, x0, horizon=64.0, growth_cap=100.0)
        if probe.verdict != "undetermined":
            determined += 1
            assert probe.verdict == exact.verdict, (blocks, x0, probe.reason)
    assert determined >= 5


# ---- minimal period --------------------------------------------------------


def test_min_period_single_rotation():
    fifth = [[0.0, -2.0 * math.pi / 5.0], [2.0 * math.pi / 5.0, 0.0]]
    r = min_period(fifth, [1.0, 0.0])
    assert r.kind == "period"
    assert abs(r.period - 5.0) < 1e-9
    assert r.residual < 1e-9


def test_min_period_two_frequencies():
    # frequencies 2 and 3 close up only after a full turn
    r = min_period(realize_class(RationalClass(Fraction(1), (2, 3))), [1.0, 1.0])
    assert r.kind == "period" and abs(r.period - 2.0 * math.pi) < 1e-6
    # frequencies 2 and 4 share the half-turn
    r = min_period(realize_class(RationalClass(Fraction(2), (1, 2))), [1.0, 1.0])
    assert r.kind == "period" and abs(r.period - math.pi) < 1e-6


def test_min_period_respects_orbit_support():
    cls = RationalClass(Fraction(1, 6), (2, 4, 5))
    arr = realize_class(cls)
    chi = orbit_frequency(cls, [0, 1])  # gcd(2,4)/6 = 1/3
    r = min_period(arr, [1.0, 1.0, 0.0])
    assert r.kind == "period"
    assert abs(r.period - 2.0 * math.pi / float(chi)) < 1e-6


def _rational_class_cases():
    """(generator, point, minimal period) for 300 rational classes
    diag(i beta p) and points x0 of random support: the orbit closes
    first at 2 pi / (beta g), g the gcd of the multipliers on the
    support of x0."""
    rng = np.random.default_rng(6600)
    for i in range(300):
        k = 2 + i % 3
        p = (2, 2)
        while math.gcd(*p) != 1:
            p = tuple(sorted(int(v) for v in rng.integers(1, 9, k)))
        beta = Fraction(1 + i % 4, 2)
        support = rng.random(k) < 0.6
        support[int(rng.integers(k))] = True
        x0 = np.where(support, rng.uniform(0.5, 2.0, k), 0.0)
        g = math.gcd(*(v for v, on in zip(p, support) if on))
        yield realize_class(RationalClass(beta, p)), x0, 2.0 * math.pi / (float(beta) * g)


def test_min_period_precision_on_rational_classes():
    # the frequency-period law to rounding level
    worst = 0.0
    for arr, x0, want in _rational_class_cases():
        r = min_period(arr, x0)
        assert r.kind == "period", (arr, x0, r)
        worst = max(worst, abs(r.period - want) / want)
    assert worst <= 1e-12, worst


def test_min_period_fixed_point_and_none_found():
    assert min_period(ROT, [0.0, 0.0]).kind == "fixed_point"
    slow = [[0.0, -2.0 * math.pi / 200.0], [2.0 * math.pi / 200.0, 0.0]]
    assert min_period(slow, [1.0, 0.0]).kind == "none_found"


def test_min_period_skips_drifting_near_miss():
    # center Jordan block: distance has minima near full turns but the
    # linear drift keeps them above tolerance, so nothing is accepted
    arr, _ = realize_blocks([(1j, 2, 1)])
    r = min_period(arr, [1.0, 0.1], horizon=30.0)
    assert r.kind == "none_found"


@pytest.mark.parametrize("lam", [12.0, 20.0, 200.0])
def test_min_period_stiff_generator_finds_period(lam):
    # exp(tA) overflows once t*lam > 709, long before the period 20*pi,
    # but the orbit of e3 never touches the expanding direction
    arr = direct_sum([np.diag([lam, -lam]), rotation(0.0, -0.1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = min_period(arr, [0.0, 0.0, 1.0, 0.0])
    assert r.kind == "period"
    assert abs(r.period - 20.0 * math.pi) < 1e-9
    assert r.residual <= 1e-9


def test_min_period_stiff_decay_bisects_over_pieces(monkeypatch):
    # |A|_1 * 2 * step = 2e4 cuts each bracket into 2^15 pieces; the piece
    # holding the minimum is found by 15 bisection steps, not by a scan
    per_refinement = []
    refine, dphi = flowsim._Refiner.__call__, flowsim._Refiner._dphi

    def counting_refine(self, lo, grid_lo):
        per_refinement.append(0)
        return refine(self, lo, grid_lo)

    def counting_dphi(self, x):
        per_refinement[-1] += 1
        return dphi(self, x)

    monkeypatch.setattr(flowsim._Refiner, "__call__", counting_refine)
    monkeypatch.setattr(flowsim._Refiner, "_dphi", counting_dphi)
    arr = direct_sum([np.array([[-1e6]]), rotation(0.0, 1.0)])
    r = min_period(arr, [0.0, 1.0, 0.0])
    assert r.kind == "period" and abs(r.period - 2.0 * math.pi) < 1e-9
    assert max(per_refinement) == 2 + 15, per_refinement


def _non_normal_rotation(gen):
    """S (rotation(w) + real J2(+-i w2) + diag(-a, b)) S^-1 with a
    non-orthogonal S (condition number at most 30), and a point whose
    weight sits on the rotation plane only: its minimal period is 2 pi/w."""
    w = float(gen.uniform(0.6, 2.5))
    w2 = float(gen.uniform(0.3, 3.0))
    j2 = np.block([[rotation(0.0, w2), np.eye(2)], [np.zeros((2, 2)), rotation(0.0, w2)]])
    hyper = np.diag([-gen.uniform(0.05, 1.0), gen.uniform(0.05, 0.5)])
    q1 = np.linalg.qr(gen.standard_normal((8, 8)))[0]
    q2 = np.linalg.qr(gen.standard_normal((8, 8)))[0]
    s = q1 @ np.diag(np.exp(gen.uniform(0.0, math.log(30.0), 8))) @ q2
    arr = s @ direct_sum([rotation(0.0, w), j2, hyper]) @ np.linalg.inv(s)
    z = np.zeros(8)
    z[:2] = gen.uniform(-1.0, 1.0, 2)
    return arr, s @ z, 2.0 * math.pi / w


@pytest.mark.parametrize("horizon,step", [(128.0, 0.01), (1000.0, 0.25)])
def test_min_period_non_normal_generators(horizon, step):
    gen = np.random.default_rng(950 + int(step * 100))
    for _ in range(6):
        arr, x0, want = _non_normal_rotation(gen)
        r = min_period(arr, x0, horizon=horizon, step=step)
        assert r.kind == "period", (want, r)
        assert abs(r.period - want) < 1e-8 * want


@pytest.mark.parametrize(
    "horizon,step", [(math.inf, 0.01), (-1.0, 0.01), (128.0, 0.0), (128.0, math.nan)]
)
def test_min_period_checks_window_before_fixed_point(horizon, step):
    # a fixed point is refused on a bad window just as a moving point is
    for x0 in ([0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(InputError, match="positive and finite"):
            min_period(ROT, x0, horizon=horizon, step=step)


def test_nan_or_negative_return_tol_is_refused():
    for tol in (math.nan, -1e-9):
        with pytest.raises(InputError, match="return tolerance"):
            min_period(ROT, [1.0, 0.0], tol=tol)
        with pytest.raises(InputError, match="return tolerance"):
            bounded_probe(ROT, [1.0, 0.0], tol=tol)


def _bisection_refiner(arr, vec, a_norm, width, limit):
    """The retired refinement, kept as a reference: 40 bisection steps on
    the sign of phi' over [lo, lo + width] from the walked grid point
    x(lo), moved by the propagators exp((width/2^j) A), and the minimum
    t* checked by a direct exponential exp((t* - lo) A) x(lo)."""
    steps = 40
    props = [mat_exp_array(arr, width / 2.0**j) for j in range(steps + 1)]

    def dphi(x):
        return 2.0 * float(np.real(np.vdot(x - vec, arr @ x)))

    def refine(lo, grid_lo):
        x_lo = grid_lo
        if not dphi(x_lo) < 0.0 or not dphi(props[0] @ x_lo) > 0.0:
            return None
        t_lo = lo
        for j in range(1, steps + 1):
            x_mid = props[j] @ x_lo
            if dphi(x_mid) < 0.0:
                t_lo += width / 2.0**j
                x_lo = x_mid
        t_star = t_lo + width / 2.0 ** (steps + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            x_star = mat_exp_array(arr, t_star - lo) @ grid_lo
        if not np.all(np.isfinite(x_star)):
            return None
        residual = float(np.linalg.norm(x_star - vec))
        if residual <= limit:
            return flowsim.PeriodResult("period", t_star, residual)
        return None

    return refine


def _reference_min_period(a, x0, horizon=128.0, step=0.01, tol=1e-9,
                          refiner=flowsim._Refiner):
    """Reference search: the whole grid from orbit_sample, then every
    local minimum below a prefilter over the whole horizon, in time
    order, each refined by refiner(arr, x0, |A|_1, 2*step, tol*scale)."""
    arr = flowsim._as_array(a)
    vec = flowsim._as_vector(x0, arr.shape[0])
    scale = 1.0 + float(np.linalg.norm(vec))
    speed = float(np.linalg.norm(arr @ vec))
    if speed <= tol * scale:
        return flowsim.PeriodResult("fixed_point", residual=speed)

    sample = orbit_sample(a, x0, horizon, step)
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.linalg.norm(sample.points - vec, axis=1)
    a_norm = float(np.abs(arr).sum(axis=0).max())
    reach = float(np.nanmax(dist[np.isfinite(dist)], initial=0.0))
    prefilter = 2.0 * a_norm * step * (scale + reach) + 10.0 * tol * scale
    refine = refiner(arr, vec, a_norm, 2.0 * step, tol * scale)
    refined = 0
    for k in range(1, dist.size - 1):
        if refined >= 64:
            break
        if not (dist[k] <= dist[k - 1] and dist[k] <= dist[k + 1]):
            continue
        if not (np.isfinite(dist[k]) and dist[k] < prefilter):
            continue
        lo = float(sample.times[k - 1])
        if lo <= 0.0:
            continue
        refined += 1
        found = refine(lo, sample.points[k - 1])
        if found is not None:
            return found
    return flowsim.PeriodResult("none_found")


def _period_sweep(gen):
    """(generator, point, keywords) cases: rational classes, non-normal
    generators with center Jordan blocks at several grids, stiff
    block-diagonal generators, and orbits that do not close in time."""
    for _ in range(24):
        k = int(gen.integers(2, 5))
        p = (2, 2)
        while math.gcd(*p) != 1:
            p = tuple(sorted(int(v) for v in gen.integers(1, 9, k)))
        beta = Fraction(int(gen.integers(1, 5)), 2)
        x0 = gen.uniform(0.5, 2.0, k) * (gen.random(k) < 0.7)
        x0[int(gen.integers(k))] = 1.0
        yield realize_class(RationalClass(beta, p)), x0, {}
    grids = ((128.0, 0.01), (60.0, 0.02), (300.0, 0.05), (1000.0, 0.25))
    for c in range(24):
        w, w2 = gen.uniform(0.2, 3.0, 2)
        j2 = np.block([[rotation(0.0, w2), np.eye(2)], [np.zeros((2, 2)), rotation(0.0, w2)]])
        cells = [rotation(0.0, w), j2] + [np.array([[v]]) for v in gen.uniform(-1.0, 1.0, c % 3)]
        j = direct_sum(cells)
        n = j.shape[0]
        s = gen.standard_normal((n, n)) + 3.0 * np.eye(n)
        z = np.zeros(n)
        # weight on the rotation plane only (a period), or also on the
        # Jordan block (drift, none_found)
        z[: 2 if c % 2 else 4] = gen.uniform(-1.0, 1.0, 2 if c % 2 else 4)
        horizon, step = grids[c % len(grids)]
        yield s @ j @ np.linalg.inv(s), s @ z, {"horizon": horizon, "step": step}
    for lam in (2.0, 12.0, 200.0):
        yield direct_sum([np.diag([lam, -lam]), rotation(0.0, -0.1)]), [0.0, 0.0, 1.0, 0.0], {}
    slow = [[0.0, -2.0 * math.pi / 200.0], [2.0 * math.pi / 200.0, 0.0]]
    yield slow, [1.0, 0.0], {}
    yield realize_blocks([(1j, 2, 1)])[0], [1.0, 0.1], {"horizon": 30.0}


def test_min_period_matches_full_grid_reference():
    kinds = {}
    for arr, x0, kw in _period_sweep(np.random.default_rng(4242)):
        got = min_period(arr, x0, **kw)
        assert got == _reference_min_period(arr, x0, **kw), (arr, x0, kw)
        kinds[got.kind] = kinds.get(got.kind, 0) + 1
    assert kinds.get("period", 0) >= 30 and kinds.get("none_found", 0) >= 5, kinds


def test_min_period_finds_minima_at_chunk_edges():
    # periods whose grid minimum is the last point of a chunk, the first
    # of the next, or one further in: the chunk-edge lookahead keeps each
    step = 0.01
    first = next(flowsim._walk(np.array(ROT), np.array([1.0, 0.0]), 12801, step))
    edge = first.shape[0]
    for k in (edge - 2, edge - 1, edge, edge + 1, 2 * edge):
        w = 2.0 * math.pi / (k * step)
        arr = [[0.0, -w], [w, 0.0]]
        r = min_period(arr, [1.0, 0.0])
        assert r.kind == "period" and abs(r.period - k * step) < 1e-9, (k, r)
        assert r == _reference_min_period(arr, [1.0, 0.0])


def test_min_period_stops_walking_at_first_period(monkeypatch):
    formed = []
    plain = flowsim._walk

    def counting(*args, **kwargs):
        for chunk in plain(*args, **kwargs):
            formed.append(chunk.shape[0])
            yield chunk

    monkeypatch.setattr(flowsim, "_walk", counting)
    fifth = [[0.0, -2.0 * math.pi / 5.0], [2.0 * math.pi / 5.0, 0.0]]
    r = min_period(fifth, [1.0, 0.0])
    assert r.kind == "period" and abs(r.period - 5.0) < 1e-9
    # period 5 is grid point 500 of 12801
    assert 500 < sum(formed) <= 1200

    formed.clear()
    slow = [[0.0, -2.0 * math.pi / 200.0], [2.0 * math.pi / 200.0, 0.0]]
    assert min_period(slow, [1.0, 0.0]).kind == "none_found"
    assert sum(formed) == 12801


def test_min_period_matches_retired_bisection(monkeypatch):
    """The Taylor-model refinement against the retired bisection: the
    same kinds, periods within 1e-13 relative, and the model residual
    within 1e-13 (1 + |x0|) of the residual that an exponential gives
    from the same walked start, |exp((t* - lo) A) x(lo) - x0|."""
    starts = []
    plain = flowsim._Refiner.__call__

    def recording(self, lo, grid_lo):
        starts.append((lo, grid_lo))
        return plain(self, lo, grid_lo)

    monkeypatch.setattr(flowsim._Refiner, "__call__", recording)
    cases = list(_period_sweep(np.random.default_rng(4242)))
    cases += [(arr, x0, {}) for arr, x0, _ in _rational_class_cases()]
    periods = 0
    for arr, x0, kw in cases:
        got = min_period(arr, x0, **kw)
        old = _reference_min_period(arr, x0, **kw, refiner=_bisection_refiner)
        assert got.kind == old.kind, (arr, x0, kw, got, old)
        if got.kind != "period":
            continue
        periods += 1
        assert abs(got.period - old.period) <= 1e-13 * old.period, (got, old)
        arr = flowsim._as_array(arr)
        vec = flowsim._as_vector(x0, arr.shape[0])
        lo, start = starts[-1]
        direct = np.linalg.norm(mat_exp_array(arr, got.period - lo) @ start - vec)
        scale = 1.0 + np.linalg.norm(vec)
        assert abs(got.residual - direct) <= 1e-13 * scale, (got, direct)
    assert periods >= 320, periods


def test_min_period_exponentials_per_refinement(monkeypatch):
    """A call takes one exponential, the walk's exp(step*A), however many
    minima it refines: each refinement starts from the walked grid point."""
    calls = {"exp": 0, "refined": 0}
    plain = flowsim.mat_exp_array
    refine = flowsim._Refiner.__call__

    def counting(arr, t=1.0):
        calls["exp"] += 1
        return plain(arr, t)

    def counting_refine(self, lo, grid_lo):
        calls["refined"] += 1
        return refine(self, lo, grid_lo)

    monkeypatch.setattr(flowsim, "mat_exp_array", counting)
    monkeypatch.setattr(flowsim._Refiner, "__call__", counting_refine)
    fifth = [[0.0, -2.0 * math.pi / 5.0], [2.0 * math.pi / 5.0, 0.0]]
    assert min_period(fifth, [1.0, 0.0]).kind == "period"
    assert calls == {"exp": 1, "refined": 1}

    # frequencies 6 and 7 come close to x0 twice before the full turn
    # at 2 pi, so three minima are refined
    calls.update(exp=0, refined=0)
    beats = realize_class(RationalClass(Fraction(1), (6, 7)))
    r = min_period(beats, [1.0, 1.0], horizon=7.0)
    assert r.kind == "period" and abs(r.period - 2.0 * math.pi) < 1e-9
    assert calls == {"exp": 1, "refined": 3}

    # exp(lo*A) overflows at every refinement's lo, but the walked orbit
    # of e3 stays on the rotation plane
    calls.update(exp=0, refined=0)
    stiff = direct_sum([np.diag([200.0, -200.0]), rotation(0.0, 0.1)])
    r = min_period(stiff, [0.0, 0.0, 1.0, 0.0])
    assert r.kind == "period" and abs(r.period - 20.0 * math.pi) < 1e-9
    assert calls == {"exp": 1, "refined": 1}
    orbit_sample(stiff, [0.0, 0.0, 1.0, 0.0], horizon=10.0, step=0.01)
    assert calls == {"exp": 2, "refined": 1}


# ---- factorial-reciprocal systems -------------------------------------------


def test_factorial_system_small_cases():
    s1 = FactorialSystem(1)
    assert s1.matrix.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1)))
    assert s1.inverse.rows == ((Fraction(2), Fraction(-1)), (Fraction(-2), Fraction(2)))

    s2 = FactorialSystem(2)
    # solving against the last unit vector exposes the corner column
    x = s2.solve([Fraction(0), Fraction(0), Fraction(1)])
    assert x[0] == Fraction(1)


def test_corner_coefficient_alternates_sign():
    for r in range(9):
        coeffs = FactorialSystem(r).corner_coefficients
        assert coeffs[-1] == Fraction((-1) ** r)


def test_factorial_solve_exact_round_trip(rng):
    # the exact path has zero residual at every order; the system is far
    # too ill conditioned past r ~ 3 for any float solve to manage that
    for r in range(9):
        sys = FactorialSystem(r)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r + 1)]
        x = sys.solve(rhs)
        assert [sum(u * v for u, v in zip(row, x)) for row in sys.matrix.rows] == rhs


def test_factorial_solve_float_residual_small_orders():
    # inverse entries grow factorially (about 7.2e3 at r=3, 1.4e17 at
    # r=8), so the float path only holds tiny residuals at small order
    for r in range(4):
        sys = FactorialSystem(r)
        rhs = np.arange(1.0, r + 2.0) / (r + 1.0) + 0.5j
        x = sys.solve_float(rhs)
        resid = sys.matrix.to_numpy().astype(complex) @ x - rhs
        assert np.abs(resid).max() < 1e-11
    with pytest.raises(InputError):
        FactorialSystem(2).solve_float([1.0, 2.0])


def test_factorial_system_rejects_negative_order():
    with pytest.raises(InputError):
        FactorialSystem(-1)


# ---- witness sequences ------------------------------------------------------


def flows_onto(w):
    """Independent check that each x flows onto its y at the paired time."""
    arr, _ = realize_blocks([(1j * w.beta, w.m, 1)])
    worst = 0.0
    for t, x, y in zip(w.times, w.x_seq, w.y_seq):
        got = mat_exp_array(arr, t) @ np.asarray(x, dtype=complex)
        worst = max(worst, float(np.abs(got - np.asarray(y)).max()))
    return worst


def test_witness_odd_structure_and_limits():
    w = witness_sequence([0.25, -0.5], beta=1.0)
    assert w.m == 3 and w.r == 1 and w.corner_index == 1
    assert w.x_lim == (0.25 + 0j, -0.5 + 0j, 0j)
    assert w.y_lim == (1.25 + 0j, 0.5 + 0j, 0j)
    assert flows_onto(w) < 1e-9

    # prescribed y head is hit exactly at every stage
    for y in w.y_seq:
        assert abs(y[0] - 1.25) < 1e-11

    errs = [
        np.linalg.norm(np.asarray(x) - np.asarray(w.x_lim)) for x in w.x_seq
    ]
    assert errs[-1] < errs[0]
    # rate C/n: the scaled error stays of one size
    scaled = [e * (k + 1) for k, e in enumerate(errs)]
    assert max(scaled) < 4 * min(scaled)


def test_witness_corner_extrapolates_to_limit():
    for head, beta in ([0.25, -0.5], 1.0), ([0.1, 0.3, 0.7], 2.0):
        w = witness_sequence(head, beta=beta)
        pts = w.r + 1
        got = extrapolate_to_zero(w.times[-pts:], w.corner_values[-pts:])
        assert abs(got - w.x_lim[w.corner_index]) < 1e-9


def test_witness_y_sequence_converges():
    w = witness_sequence([0.3, 0.8], beta=2.0, count=40)
    last = np.abs(np.asarray(w.y_seq[-1]) - np.asarray(w.y_lim)).max()
    assert last < 0.05
    first = np.abs(np.asarray(w.y_seq[0]) - np.asarray(w.y_lim)).max()
    assert last < first / 10


def test_witness_even_block():
    w = witness_sequence([0.0], beta=1.0, even=True)
    assert w.m == 2 and w.r == 1
    assert w.x_lim == (0j, 0j)
    assert w.y_lim == (1 + 0j, 0j)
    assert flows_onto(w) < 1e-9
    # the sliding coordinate is exactly 1/t here
    for t, x in zip(w.times, w.x_seq):
        assert abs(x[1] - 1.0 / t) < 1e-12


def test_witness_target_zero_skips_orbit_check():
    # both limits on one orbit would be rejected for an offset target,
    # but a zero target asks for exactly that collapse
    w = witness_sequence([0.5, 0.0], beta=1.0, target_zero=True)
    assert w.y_lim[0] == 0j and w.y_lim[1] == 0j
    assert flows_onto(w) < 1e-9


def test_witness_zero_frequency_uses_integer_times():
    w = witness_sequence([0.25, -0.5], beta=0.0, count=5)
    assert w.times == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert flows_onto(w) < 1e-9


@pytest.mark.parametrize("beta", [0.0, 0.7, 2.0])
def test_distinct_orbits_decided_for_every_time(beta):
    # y on the orbit of x, at a time up to 5000, is refused; y scaled by
    # 1 + 1e-6 is accepted, being off the orbit: every orbit point keeps
    # the modulus of the last nonzero coordinate of x
    gen = np.random.default_rng(int(10 * beta) + 31)
    for m in range(1, 8):
        for _ in range(8):
            x = gen.standard_normal(m) + 1j * gen.standard_normal(m)
            x[m - int(gen.integers(0, m)) :] = 0.0
            t0 = float(gen.uniform(-5000.0, 5000.0))
            y = jordan_flow(1j * beta, m, t0) @ x
            with pytest.raises(DiagnosticError, match="orbit-equal"):
                flowsim._assert_distinct_orbits(beta, x, y)
            flowsim._assert_distinct_orbits(beta, x, y * (1.0 + 1e-6))


def test_witness_rejects_orbit_equal_limits():
    # head (-1/2, 0): the offset head (1/2, 0) sits on the same orbit,
    # reached at a half turn
    with pytest.raises(DiagnosticError, match="orbit-equal"):
        witness_sequence([-0.5, 0.0], beta=1.0)


def test_witness_rejects_collision_at_late_time():
    # head (-1, 5e-4): the offset limit (0, -5e-4, 0) is reached at
    # t = 2000, a half turn of the slow rotation
    with pytest.raises(DiagnosticError, match="orbit-equal near t=2000"):
        witness_sequence([-1.0, 5e-4], beta=math.pi / 2000)


def test_witness_input_validation():
    with pytest.raises(InputError):
        witness_sequence([0.1, 0.2], beta=1.0, count=0)
    with pytest.raises(InputError):
        witness_sequence([0.1, 0.2], beta=-1.0)
    with pytest.raises(InputError):
        witness_sequence([0.1], beta=1.0)  # odd needs head plus corner
    with pytest.raises(InputError):
        witness_sequence([], beta=1.0, even=True)
    # a NaN beta once built the beta = 0 witness, an infinite one divided
    # by zero, and a NaN head coordinate gave NaN sequences
    for beta in (math.nan, math.inf):
        with pytest.raises(InputError, match="block frequency must be finite"):
            witness_sequence([1.0, 2.0], beta)
    for head in ([math.nan, 2.0], [1.0, complex(0.0, math.inf)]):
        with pytest.raises(InputError, match="head has a non-finite coordinate"):
            witness_sequence(head, 1.0)


def test_witness_refuses_numbers_beyond_the_float_range():
    # both once raised a bare OverflowError from the float conversion
    for head, beta in (([10**400, 2.0], 1.0), ([1.0, 2.0], 10**400)):
        with pytest.raises(InputError, match="beyond the float range"):
            witness_sequence(head, beta)


def test_witness_refuses_a_head_lost_to_rounding():
    # at t = 2 pi n / 1e-150 the odd head [1, 2] flows onto y_0 = 2 through
    # terms of size 1e151 that cancel, so y_seq[0][0] came out as 1.45e135;
    # at beta = 1e-300 the powers of t overflowed to NaN with RuntimeWarnings
    for head, beta, even in (([1.0, 2.0], 1e-150, False), ([1.0, 2.0], 1e-300, False),
                             ([1.0, 2.0, 3.0], 1e-300, True), ([1.0, 2.0], 1e-320, False)):
        with pytest.raises(DiagnosticError, match="rounding noise beyond 1e-06"):
            witness_sequence(head, beta, even=even)
    # the bound is on the cancellation, not on beta: an even 2-block adds
    # head and tail without cancelling, so its head is exact at any t
    w = witness_sequence([0.5], 1e-300, even=True)
    assert all(abs(y[0] - 1.5) < 1e-12 for y in w.y_seq)
    # the terms of the flowed head at beta = 1 stay far inside the bound
    w = witness_sequence([1.0, 2.0], 1.0)
    assert flowsim._term_sizes(w.times, w.x_seq, 2).max() < 1e-6 / 2.0**-53 / 100


# ---- extrapolation -----------------------------------------------------------


def test_extrapolate_to_zero_refuses_numbers_beyond_the_float_range():
    # both once raised a bare OverflowError from the float conversion
    for ts, vals in (([10**400, 1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, 10**400])):
        with pytest.raises(InputError, match="beyond the float range"):
            extrapolate_to_zero(ts, vals)


def test_extrapolate_to_zero_polynomial():
    ts = [float(t) for t in range(10, 21)]
    vals = [3.0 - 2.0 / t + 5.0 / t**2 for t in ts]
    assert abs(extrapolate_to_zero(ts, vals, degree=2) - 3.0) < 1e-10
    # full-degree default also recovers the constant term
    assert abs(extrapolate_to_zero(ts[-3:], vals[-3:]) - 3.0) < 1e-9


def test_extrapolate_to_zero_validation():
    with pytest.raises(InputError):
        extrapolate_to_zero([], [])
    with pytest.raises(InputError):
        extrapolate_to_zero([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        extrapolate_to_zero([1.0, 2.0], [1.0, 2.0], degree=2)


@pytest.mark.parametrize("ts, vals, degree, message", [
    # LAPACK complained on stderr and numpy raised LinAlgError
    ([1.0, math.nan], [1.0, 2.0], None, "times must be finite and nonzero"),
    # ZeroDivisionError
    ([0.0, 1.0], [1.0, 2.0], None, "times must be finite and nonzero"),
    # fitted silently at 1/t = 0
    ([1.0, math.inf], [1.0, 2.0], None, "times must be finite and nonzero"),
    # returned (nan+nanj)
    ([1.0, 2.0], [1.0, math.inf], None, "and values finite"),
    # numpy's ValueError
    ([1.0, 2.0], [1.0, 2.0], -1, "degree must be nonnegative"),
], ids=["nan_time", "zero_time", "inf_time", "inf_value", "negative_degree"])
def test_extrapolate_to_zero_refuses_input_it_cannot_fit(ts, vals, degree, message):
    with pytest.raises(InputError, match=message):
        extrapolate_to_zero(ts, vals, degree)
