"""Simulation side of the classifier: orbits, periods, boundedness probes,
canonical realizations, and limit-witness sequences.

Everything here works on the flow t -> exp(tA) x0.  The structural
functions (jordan_flow, realize_blocks, bounded_exact) use the known
block layout and are certified; the sampling functions (orbit_sample,
bounded_probe, min_period) observe a finite time window and say so in
their verdicts.  The witness machinery builds explicit point sequences
whose orbits drift together in the limit even though the limit points
sit on different orbits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DiagnosticError, InputError
from .numkit import (
    Matrix,
    inverse_exact,
    lam_parts,
    mat_exp_array,
    re_sign,
    solve_exact,
)

__all__ = [
    "OrbitSample",
    "ProbeResult",
    "PeriodResult",
    "FactorialSystem",
    "WitnessSequence",
    "orbit_point",
    "orbit_sample",
    "jordan_flow",
    "realize_blocks",
    "realize_class",
    "bounded_exact",
    "bounded_probe",
    "min_period",
    "witness_sequence",
    "extrapolate_to_zero",
    "DEFAULT_GROWTH_CAP",
    "DEFAULT_PROBE_HORIZON",
]

DEFAULT_PROBE_HORIZON = 1000.0
DEFAULT_PROBE_STEP = 0.25
DEFAULT_GROWTH_CAP = 1000.0
DEFAULT_PERIOD_HORIZON = 128.0
DEFAULT_PERIOD_STEP = 0.01
DEFAULT_RETURN_TOL = 1e-9
_BISECT_STEPS = 40
_VERIFY_SPAN = 1000.0
_VERIFY_STEP = 0.01
_VERIFY_MARGIN = 1e-9


def _as_array(a) -> np.ndarray:
    if isinstance(a, Matrix):
        return a.to_numpy()
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("the generator must be a square matrix")
    return arr.astype(complex if np.iscomplexobj(arr) else float)


def _as_vector(x0, n: int) -> np.ndarray:
    items = list(x0)
    vec = np.asarray(
        [float(c) for c in items]
        if all(isinstance(c, numbers.Real) for c in items)
        else [complex(*lam_parts(c)) for c in items]
    )
    if vec.shape != (n,):
        raise InputError(f"initial point has {vec.size} coordinates, expected {n}")
    return vec


def orbit_point(a, x0, t: float) -> np.ndarray:
    """The orbit of x0 evaluated at time t: exp(tA) x0."""
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    return mat_exp_array(arr, float(t)) @ vec


@dataclass(frozen=True, eq=False)
class OrbitSample:
    """Orbit evaluated on a uniform time grid; points has one row per time."""

    times: np.ndarray
    points: np.ndarray

    @property
    def norms(self) -> np.ndarray:
        # an orbit that overflowed holds inf/nan rows; callers test for them
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.norm(self.points, axis=1)


def orbit_sample(a, x0, horizon: float, step: float) -> OrbitSample:
    """Sample the orbit on 0, step, 2*step, ... up to horizon.

    One matrix exponential is computed for the step; the grid is walked
    by repeated application, so per-step rounding accumulates linearly.
    """
    if step <= 0 or horizon <= 0:
        raise InputError("horizon and step must be positive")
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    count = int(math.floor(horizon / step + 1e-9)) + 1
    prop = mat_exp_array(arr, step)
    if np.iscomplexobj(prop) and not np.iscomplexobj(vec):
        vec = vec.astype(complex)
    pts = np.empty((count, arr.shape[0]), dtype=np.result_type(prop, vec))
    pts[0] = vec
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count):
            pts[k] = prop @ pts[k - 1]
    times = np.arange(count) * step
    return OrbitSample(times, pts)


# ---- canonical realizations -------------------------------------------------


def jordan_flow(lam, m: int, t: float) -> np.ndarray:
    """exp(tJ) for the single m-block with eigenvalue lam, in closed form:
    exp(lam t) times powers t^k/k! on the k-th superdiagonal."""
    if m < 1:
        raise InputError("block size must be at least 1")
    lam_c = complex(*lam_parts(lam))
    out = np.zeros((m, m), dtype=complex)
    coeff = np.exp(lam_c * t)
    fact = 1.0
    power = 1.0
    for k in range(m):
        if k:
            power *= t
            fact *= k
        val = coeff * power / fact
        for i in range(m - k):
            out[i, i + k] = val
    return out


def realize_blocks(blocks):
    """Block-diagonal complex realization of (lam, m, count) block data.

    Returns (matrix, layout) where layout lists one (lam, m) entry per
    realized block, in order, for use with bounded_exact.
    """
    layout = []
    for blk in blocks:
        lam, m, count = blk
        if m < 1 or count < 1:
            raise InputError("block sizes and counts must be positive")
        layout.extend([(lam, m)] * count)
    if not layout:
        raise InputError("no blocks to realize")
    n = sum(m for _, m in layout)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for lam, m in layout:
        lam_c = complex(*lam_parts(lam))
        for i in range(m):
            out[at + i, at + i] = lam_c
            if i + 1 < m:
                out[at + i, at + i + 1] = 1.0
        at += m
    return out, tuple(layout)


def realize_class(cls) -> np.ndarray:
    """Diagonal rotation generator of a rational frequency class:
    diag(i * beta * p_1, ..., i * beta * p_k)."""
    beta = float(cls.beta)
    return np.diag([1j * beta * p for p in cls.p])


# ---- boundedness --------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    """Boundedness verdict; sampling verdicts carry the growth ratio seen."""

    verdict: str  # "bounded" | "unbounded" | "undetermined"
    reason: str
    ratio: float | None = None


def bounded_exact(layout, x0, coord_tol: float = 0.0, re_tol: float = 0.0) -> ProbeResult:
    """Structural boundedness decision from a known block layout.

    The orbit of x0 under the realized block-diagonal flow is bounded
    exactly when every block with nonzero real part carries only zero
    coordinates and every zero-real-part block carries weight on its
    leading coordinate alone.  Exact values are compared exactly; float
    coordinates within coord_tol of zero are treated as zero, and float
    real parts within re_tol count as zero.
    """
    n = sum(m for _, m in layout)
    if len(x0) != n:
        raise InputError(f"initial point has {len(x0)} coordinates, expected {n}")

    def is_zero(c) -> bool:
        re, im = lam_parts(c)
        if isinstance(re, Fraction):
            return re == 0 and im == 0
        return math.hypot(re, im) <= coord_tol

    at = 0
    for idx, (lam, m) in enumerate(layout):
        coords = x0[at : at + m]
        if re_sign(lam, re_tol):
            bad = next((j for j, c in enumerate(coords) if not is_zero(c)), None)
            if bad is not None:
                return ProbeResult(
                    "unbounded",
                    f"block {idx} has real part {float(lam_parts(lam)[0]):g} "
                    f"and a nonzero coordinate at offset {bad}",
                )
        else:
            bad = next(
                (j for j, c in enumerate(coords[1:], start=1) if not is_zero(c)), None
            )
            if bad is not None:
                return ProbeResult(
                    "unbounded",
                    f"block {idx} is a center block of size {m} with a nonzero "
                    f"coordinate at offset {bad}; only its leading coordinate "
                    "stays bounded",
                )
        at += m
    return ProbeResult(
        "bounded", "all weight sits on leading coordinates of center blocks"
    )


def bounded_probe(
    a,
    x0,
    horizon: float = DEFAULT_PROBE_HORIZON,
    step: float = DEFAULT_PROBE_STEP,
    growth_cap: float = DEFAULT_GROWTH_CAP,
    tol: float = DEFAULT_RETURN_TOL,
) -> ProbeResult:
    """Sampling boundedness probe over a finite window.

    Declares unbounded when the norm ratio to the initial point passes
    growth_cap, bounded only when the sampled orbit returns to its start
    (a closed orbit is bounded), and undetermined otherwise.  The probe
    never contradicts bounded_exact: growth beyond the cap cannot happen
    on a bounded orbit, and recurrence cannot happen on an unbounded one.
    """
    if growth_cap <= 1:
        raise InputError("growth_cap must exceed 1")
    sample = orbit_sample(a, x0, horizon, step)
    norms = sample.norms
    base = float(norms[0])
    if base == 0.0:
        return ProbeResult("bounded", "the origin is a fixed point", 1.0)
    if not np.all(np.isfinite(norms)):
        return ProbeResult(
            "unbounded", "orbit norm overflowed within the horizon", float("inf")
        )
    ratio = float(norms.max() / base)
    if ratio > growth_cap:
        t_at = float(sample.times[int(norms.argmax())])
        return ProbeResult(
            "unbounded", f"norm ratio {ratio:.3g} at t={t_at:g} exceeds the cap", ratio
        )
    returns = np.linalg.norm(sample.points - sample.points[0], axis=1)
    close = np.flatnonzero(returns <= tol * (1.0 + base))
    close = close[close > 0]
    if close.size:
        t_at = float(sample.times[int(close[0])])
        return ProbeResult(
            "bounded", f"orbit returned to its start at t={t_at:g}", ratio
        )
    return ProbeResult(
        "undetermined",
        f"no blow-up and no recurrence within horizon {horizon:g}",
        ratio,
    )


# ---- minimal period ------------------------------------------------------------


@dataclass(frozen=True)
class PeriodResult:
    """Minimal-period search outcome.

    kind is "fixed_point" (the point does not move), "period" (period
    holds the refined minimal period, residual the return distance), or
    "none_found" within the horizon.
    """

    kind: str
    period: float | None = None
    residual: float | None = None


def min_period(
    a,
    x0,
    horizon: float = DEFAULT_PERIOD_HORIZON,
    step: float = DEFAULT_PERIOD_STEP,
    tol: float = DEFAULT_RETURN_TOL,
) -> PeriodResult:
    """Minimal t > 0 with exp(tA) x0 back at x0, by grid scan plus
    derivative-sign bisection.

    Local minima of the return distance below a step-resolution
    prefilter are refined on the squared distance phi: its derivative
    phi'(t) = 2 Re <x(t) - x0, A x(t)> changes sign across a
    nondegenerate minimum, and 40 bisection steps pin it down to
    rounding level.  A refined minimum is accepted as a period when the
    return distance falls under tol * (1 + |x0|).  Periods shorter than
    two grid steps are not resolved.
    """
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    scale = 1.0 + float(np.linalg.norm(vec))
    if float(np.linalg.norm(arr @ vec)) <= tol * scale:
        return PeriodResult("fixed_point", residual=float(np.linalg.norm(arr @ vec)))

    sample = orbit_sample(a, x0, horizon, step)
    dist = np.linalg.norm(sample.points - vec, axis=1)
    a_norm = float(np.abs(arr).sum(axis=0).max())
    reach = float(np.nanmax(dist[np.isfinite(dist)], initial=0.0))
    prefilter = 2.0 * a_norm * step * (scale + reach) + 10.0 * tol * scale

    def point_at(t: float) -> np.ndarray:
        return mat_exp_array(arr, t) @ vec

    def dphi(t: float) -> float:
        x = point_at(t)
        return 2.0 * float(np.real(np.vdot(x - vec, arr @ x)))

    accept = tol * scale
    refined = 0
    for k in range(1, dist.size - 1):
        if refined >= 64:
            break
        if not (dist[k] <= dist[k - 1] and dist[k] <= dist[k + 1]):
            continue
        if not (np.isfinite(dist[k]) and dist[k] < prefilter):
            continue
        lo = float(sample.times[k - 1])
        hi = float(sample.times[k + 1])
        if lo <= 0.0:
            continue
        refined += 1
        if dphi(lo) >= 0.0 or dphi(hi) <= 0.0:
            continue
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            if dphi(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        residual = float(np.linalg.norm(point_at(t_star) - vec))
        if residual <= accept:
            return PeriodResult("period", t_star, residual)
    return PeriodResult("none_found")


# ---- factorial-reciprocal systems ------------------------------------------------


@lru_cache(maxsize=None)
def _factorial_matrix(r: int) -> Matrix:
    rows = [
        [Fraction(1, math.factorial((r - i) + j)) for j in range(r + 1)]
        for i in range(r + 1)
    ]
    return Matrix.exact(rows)


@lru_cache(maxsize=None)
def _factorial_inverse(r: int) -> Matrix:
    return inverse_exact(_factorial_matrix(r))


@lru_cache(maxsize=None)
def _even_inverse_float(r: int) -> np.ndarray:
    full = _factorial_matrix(r)
    sub = Matrix.exact([list(full.rows[i][:r]) for i in range(r)])
    return inverse_exact(sub).to_numpy()


class FactorialSystem:
    """The (r+1) x (r+1) system with entries 1/((r-i)+j)! and its exact inverse.

    Row i runs 1/(r-i)!, ..., 1/(r-i+r)!; the last row is 1/0!, ..., 1/r!.
    The first row of the inverse gives the corner solution coordinate as
    a combination of the data, and its last entry is exactly (-1)^r.
    """

    def __init__(self, r: int):
        if r < 0:
            raise InputError("system order must be nonnegative")
        self.r = r
        self.matrix = _factorial_matrix(r)

    @property
    def inverse(self) -> Matrix:
        return _factorial_inverse(self.r)

    @property
    def corner_coefficients(self) -> tuple:
        """Coefficients c with corner solution x_0 = sum c_j y_j."""
        return tuple(self.inverse.rows[0])

    def solve(self, rhs) -> tuple:
        """Exact solve for rational data."""
        return solve_exact(self.matrix, list(rhs))

    def solve_float(self, rhs) -> np.ndarray:
        """Float/complex solve through the exact inverse."""
        vec = np.asarray(rhs, dtype=complex)
        if vec.shape != (self.r + 1,):
            raise InputError(f"data must have {self.r + 1} entries")
        return self.inverse.to_numpy().astype(complex) @ vec


# ---- witness sequences ------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSequence:
    """Point sequences whose orbit drift collapses in the limit.

    x_seq[n] flows to y_seq[n] at time times[n]; x_seq converges to
    x_lim and y_seq to y_lim, yet x_lim and y_lim lie on different
    orbits (checked on a time grid for the offset construction).  The
    corner coordinate, index r (0-based) of each x_seq entry, converges
    like a degree-r polynomial in 1/t.
    """

    beta: float
    m: int
    r: int
    times: tuple
    x_seq: tuple
    y_seq: tuple
    x_lim: tuple
    y_lim: tuple

    @property
    def corner_index(self) -> int:
        return self.r

    @property
    def corner_values(self) -> tuple:
        return tuple(x[self.r] for x in self.x_seq)


def _head_sum(head, i: int, r: int, t: float) -> complex:
    """sum over j in [i, r] of t^(j-i)/(j-i)! * head_j (1-based indices)."""
    total = 0.0 + 0.0j
    power = 1.0
    fact = 1.0
    for j in range(i, r + 1):
        if j > i:
            power *= t
            fact *= j - i
        total += head[j - 1] * power / fact
    return total


def _orbit_dist2(beta: float, x: np.ndarray, y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Squared distance |exp(tJ) x - y|^2 on a vector of times, for the
    single block J with eigenvalue i*beta."""
    m = x.size
    acc = np.zeros((m, ts.size), dtype=complex)
    power = np.ones_like(ts)
    fact = 1.0
    for k in range(m):
        if k:
            power = power * ts
            fact *= k
        for i in range(m - k):
            acc[i] += x[i + k] * (power / fact)
    acc *= np.exp(1j * beta * ts)
    return np.sum(np.abs(acc - y[:, None]) ** 2, axis=0)


def _assert_distinct_orbits(beta: float, x_lim, y_lim) -> None:
    """Scan a time grid for orbit equality of the two limit points.

    The lowest local minima of the sampled distance are refined by
    shrinking rescans, so a collision between grid points is still
    driven down to rounding level.  Raises DiagnosticError when the
    refined distance falls within the margin; a pass certifies
    separation of the scanned window up to that refinement.
    """
    x = np.asarray(x_lim, dtype=complex)
    y = np.asarray(y_lim, dtype=complex)
    ts = np.arange(-_VERIFY_SPAN, _VERIFY_SPAN + _VERIFY_STEP / 2, _VERIFY_STEP)
    d2 = _orbit_dist2(beta, x, y, ts)

    inner = d2[1:-1]
    is_min = (inner <= d2[:-2]) & (inner <= d2[2:])
    candidates = list(np.flatnonzero(is_min) + 1) + [0, d2.size - 1]
    candidates.sort(key=lambda i: d2[i])

    best = math.inf
    best_t = 0.0
    for idx in candidates[:8]:
        t0 = float(ts[idx])
        span = _VERIFY_STEP
        local = float(d2[idx])
        while span > 1e-13 * (1.0 + abs(t0)):
            fine = np.linspace(t0 - span, t0 + span, 101)
            vals = _orbit_dist2(beta, x, y, fine)
            at = int(vals.argmin())
            t0 = float(fine[at])
            local = float(vals[at])
            span /= 50.0
        if local < best:
            best, best_t = local, t0

    scale = 1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y))
    if math.sqrt(best) <= _VERIFY_MARGIN * scale:
        raise DiagnosticError(
            f"the limit points are orbit-equal near t={best_t:g} "
            f"(distance {math.sqrt(best):.3g}); choose a different head"
        )


def witness_sequence(
    head,
    beta: float,
    even: bool = False,
    target_zero: bool = False,
    count: int = 24,
) -> WitnessSequence:
    """Build a witness pair of converging point sequences on one block.

    The block is the Jordan block of size m = 2r+1 (or 2r with even=True)
    at eigenvalue i*beta.  head prescribes the leading coordinates of the
    x limit: r of them for an even block, r+1 (the last being the corner
    value) for an odd one.  The y limit head is the x head shifted by 1
    in every coordinate, or all zeros with target_zero.

    Times are chosen at whole rotation counts, t_n = 2*pi*n/beta (plain
    t_n = n when beta is zero), so the rotation factor drops out and each
    tail coordinate is an exact polynomial in 1/t_n.  Each x_seq[n] flows
    at time times[n] exactly onto the prescribed y head; the unheaded
    coordinates decay to zero on both sides.
    """
    heads = [complex(*lam_parts(c)) for c in head]
    if count < 1:
        raise InputError("count must be positive")
    beta = float(beta)
    if beta < 0:
        raise InputError("the block frequency must be nonnegative")
    if even:
        r = len(heads)
        if r < 1:
            raise InputError("an even witness needs at least one head coordinate")
        m = 2 * r
        x_head = heads
        corner = None
    else:
        r = len(heads) - 1
        if r < 1:
            raise InputError(
                "an odd witness needs at least two head coordinates "
                "(the last one is the corner value)"
            )
        m = 2 * r + 1
        x_head = heads[:r]
        corner = heads[r]

    if target_zero:
        y_head = [0.0 + 0.0j] * r
    else:
        y_head = [c + 1.0 for c in x_head]
    y_corner = ((-1.0) ** r) * corner if corner is not None else None

    x_lim = tuple(x_head) + ((corner,) if corner is not None else ()) + (0.0 + 0.0j,) * r
    y_lim = tuple(y_head) + ((y_corner,) if y_corner is not None else ()) + (0.0 + 0.0j,) * r

    if not target_zero:
        _assert_distinct_orbits(beta, x_lim, y_lim)

    if even:
        inv = _even_inverse_float(r).astype(complex)
    else:
        inv = _factorial_inverse(r).to_numpy().astype(complex)

    times = []
    xs = []
    ys = []
    for n in range(1, count + 1):
        t = (2.0 * math.pi * n / beta) if beta > 0 else float(n)
        # rotation factor exp(-i beta t) is exactly 1 at these times
        if even:
            v = np.array(
                [
                    t ** (i - r) * (y_head[i - 1] - _head_sum(x_head, i, r, t))
                    for i in range(1, r + 1)
                ],
                dtype=complex,
            )
            u = inv @ v
            tail = [u[k - 1] / t**k for k in range(1, r + 1)]
            xn = tuple(x_head) + tuple(tail)
        else:
            v = np.array(
                [
                    t ** (i - r - 1) * (y_head[i - 1] - _head_sum(x_head, i, r, t))
                    for i in range(1, r + 1)
                ]
                + [y_corner],
                dtype=complex,
            )
            u = inv @ v
            tail = [u[k] / t**k for k in range(1, r + 1)]
            xn = tuple(x_head) + (complex(u[0]),) + tuple(tail)
        yn = tuple(jordan_flow(1j * beta, m, t) @ np.asarray(xn, dtype=complex))
        times.append(t)
        xs.append(tuple(complex(c) for c in xn))
        ys.append(tuple(complex(c) for c in yn))

    return WitnessSequence(
        beta, m, r, tuple(times), tuple(xs), tuple(ys), x_lim, y_lim
    )


def extrapolate_to_zero(ts, vals, degree: int | None = None) -> complex:
    """Limit of a sequence that is polynomial in 1/t: fit the last
    degree+1 points in the variable 1/t and read off the constant term."""
    ts = [float(t) for t in ts]
    vals = [complex(v) for v in vals]
    if len(ts) != len(vals) or not ts:
        raise InputError("need matching nonempty time and value sequences")
    if degree is None:
        degree = len(ts) - 1
    if degree + 1 > len(ts):
        raise InputError("not enough points for the requested degree")
    xs = np.array([1.0 / t for t in ts[-(degree + 1):]])
    ys = np.array(vals[-(degree + 1):], dtype=complex)
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, degree)
    return complex(coeffs[0])
