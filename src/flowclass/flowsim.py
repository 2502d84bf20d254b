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

import cmath
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
_MAX_GRID_POINTS = 1_000_000
_MAX_REFINEMENTS = 64
# a refined minimum is pinned to 2*step/2^41 or finer, within at most
# _ROOT_ITERATIONS safeguarded Newton steps, and the Taylor model of a
# bracket is truncated below unit roundoff
_ROOT_BITS = 41
_ROOT_ITERATIONS = 100
_UNIT_ROUNDOFF = 2.0**-53
_WALK_GROUP = 4
_VERIFY_MARGIN = 1e-9
_LOG_JUMP_CAP = 300.0
# a witness is refused where the terms t^k/k! x_(i+k) of a flowed head
# coordinate have sizes summing to S with S u beyond this times (1 + |head|):
# S u is about the rounding noise left where the terms cancel
_WITNESS_HEAD_NOISE = 1e-6


def _as_array(a) -> np.ndarray:
    if isinstance(a, Matrix):
        arr = a.to_numpy()
    else:
        arr = np.asarray(a)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("the generator must be a square matrix")
        arr = arr.astype(complex if np.iscomplexobj(arr) else float)
    if not np.all(np.isfinite(arr)):
        raise InputError("the generator has a non-finite entry")
    return arr


def _as_complex(x, what: str) -> complex:
    """A scalar of either mode as a complex; one beyond the float range
    raises InputError naming what it is."""
    try:
        return complex(*lam_parts(x))
    except OverflowError:
        raise InputError(f"{what} is beyond the float range") from None


def _as_vector(x0, n: int) -> np.ndarray:
    items = list(x0)
    vec = np.array([_as_complex(c, "an initial coordinate") for c in items])
    if all(isinstance(c, numbers.Real) for c in items):
        vec = vec.real.copy()
    if vec.shape != (n,):
        raise InputError(f"initial point has {vec.size} coordinates, expected {n}")
    if not np.all(np.isfinite(vec)):
        raise InputError("initial point has a non-finite coordinate")
    return vec


def orbit_point(a, x0, t: float) -> np.ndarray:
    """The orbit of x0 evaluated at time t: exp(tA) x0."""
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    return mat_exp_array(arr, t) @ vec


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


def _block_length(prop: np.ndarray, count: int) -> int:
    """B = ceil(sqrt(count)), lowered (not below 1) so that |prop|_1^B stays
    under e^_LOG_JUMP_CAP and prop^B cannot overflow."""
    length = math.isqrt(count - 1) + 1
    log_norm = math.log(float(np.abs(prop).sum(axis=0).max(initial=1.0)))
    if log_norm > 0.0:
        length = max(1, min(length, int(_LOG_JUMP_CAP / log_norm)))
    return length


def _check_window(horizon: float, step: float) -> int:
    """Number of grid points 0, step, ... up to horizon.  A grid of more
    than _MAX_GRID_POINTS (1,000,000) points is refused with
    DiagnosticError before anything is allocated."""
    if not (0.0 < step < math.inf and 0.0 < horizon < math.inf):
        raise InputError("horizon and step must be positive and finite")
    span = horizon / step + 1e-9  # inf where the ratio overflows
    if not span < _MAX_GRID_POINTS:
        count = f"{int(span) + 1:,}" if span < math.inf else "over 1e308"
        raise DiagnosticError(
            f"the time grid up to {horizon:g} in steps of {step:g} has {count} "
            f"points, over the budget of {_MAX_GRID_POINTS:,}; use a shorter "
            "horizon or a larger step"
        )
    return int(span) + 1


def _check_return_tol(tol: float) -> None:
    if not tol >= 0:  # NaN too
        raise InputError("the return tolerance must be a nonnegative number")


def _walk(arr: np.ndarray, vec: np.ndarray, count: int, step: float,
          group: int = _WALK_GROUP):
    """The blocked walk of orbit_sample over the first count grid points,
    yielded in consecutive chunks of group blocks, the last one trimmed.

    The table P^0 .. P^B of P = exp(step*A) is built by doubling,
    table[h:2h] = table[:h] P^h with P^h squared between steps, so
    ceil(log2(B + 1)) batched products replace B sequential ones.  It
    is built in extended precision (np.longdouble, or np.clongdouble for
    a complex walk), and each power P^j, j < B, is rounded to the walk's
    dtype once.  The jump P^B and the block starts s_k = P^B s_(k-1) stay
    in extended precision, and each start is rounded only to form the
    points of its block.  The block starts are stepped and the points formed one chunk
    at a time by the same products as a walk in one piece, so the values
    do not depend on group, and a consumer that stops early forms only
    the chunks it reads.
    """
    n = arr.shape[0]
    prop = mat_exp_array(arr, step)
    if not np.all(np.isfinite(prop)):
        raise DiagnosticError(
            f"exp(step*A) overflows at grid step {step:g}; use a smaller step"
        )
    dtype = np.result_type(prop, vec)
    wide = np.result_type(dtype, np.longdouble)
    length = _block_length(prop, count)
    table = np.empty((length + 1, n, n), dtype=wide)
    table[0] = np.eye(n)
    power = prop.astype(wide)
    filled = 1
    while True:
        take = min(filled, length + 1 - filled)
        table[filled : filled + take] = table[:take] @ power
        filled += take
        if filled > length:
            break
        power = power @ power
    powers = table[:length].astype(dtype)
    jump = table[length]
    blocks = -(-count // length)
    prev = None
    for first in range(0, blocks, group):
        starts = np.empty((min(group, blocks - first), n), dtype=wide)
        # the error state covers the arithmetic only, never a yield,
        # across which it would leak into the consumer
        with np.errstate(over="ignore", invalid="ignore"):
            starts[0] = vec if prev is None else jump @ prev
            for k in range(1, starts.shape[0]):
                starts[k] = jump @ starts[k - 1]
            pts = np.einsum("jab,kb->kja", powers, starts.astype(dtype))
            pts = pts.reshape(-1, n)
        prev = starts[-1]
        yield pts[: count - first * length]


def orbit_sample(a, x0, horizon: float, step: float) -> OrbitSample:
    """Sample the orbit on 0, step, 2*step, ... up to horizon.

    The grid is walked in blocks of B points, the walk min_period shares
    (see _walk): one matrix exponential P = exp(step*A), the powers
    P^0 .. P^B by doubling in extended precision, the block starts
    s_k = P^B s_(k-1) by one extended-precision product each, and point
    k*B + j = P^j s_k, formed in groups of blocks that are concatenated
    here.  B is about sqrt(count), capped so that P^B cannot overflow.
    Each point carries the rounding of one power P^j and one start s_k
    to the walk's dtype and of the product that joins them, so its
    rounding does not grow along the grid: it stays within about 1e-12
    (relative) of an extended-precision step-by-step walk of the same P.
    The remaining error is P's own, which both walks share.  This
    assumes the 80-bit long double of x86-64.  Where np.longdouble is
    float64 the walk takes the same products in double precision, the
    rounding of P^B recurs in every block start, and the walk drifts
    along the grid: on the walk test's generators, up to 1.2e-11
    relative at 12,801 points of step 0.01 and 3.5e-10 at step 0.25.
    A step whose propagator overflows, or a grid of more than 1,000,000
    points, is refused with DiagnosticError.
    """
    count = _check_window(horizon, step)
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    pts = np.concatenate(list(_walk(arr, vec, count, step)))
    return OrbitSample(np.arange(count) * step, pts)


# ---- canonical realizations -------------------------------------------------


def jordan_flow(lam, m: int, t: float) -> np.ndarray:
    """exp(tJ) for the single m-block with eigenvalue lam, in closed form:
    exp(lam t) times powers t^k/k! on the k-th superdiagonal."""
    if m < 1:
        raise InputError("block size must be at least 1")
    lam_c = _as_complex(lam, "an eigenvalue")
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
        lam_c = _as_complex(lam, "an eigenvalue")
        for i in range(m):
            out[at + i, at + i] = lam_c
            if i + 1 < m:
                out[at + i, at + i + 1] = 1.0
        at += m
    return out, tuple(layout)


def realize_class(cls) -> np.ndarray:
    """Diagonal rotation generator of a rational frequency class:
    diag(i * beta * p_1, ..., i * beta * p_k)."""
    beta = _as_complex(cls.beta, "the common measure").real
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
    real parts within re_tol count as zero; a tolerance that is NaN or
    negative raises InputError.
    """
    if not (coord_tol >= 0 and re_tol >= 0):  # NaN too
        raise InputError("coord_tol and re_tol must be nonnegative numbers")
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
    A tol that is NaN or negative raises InputError; a grid of more than
    1,000,000 points raises DiagnosticError, as in orbit_sample.
    """
    if not growth_cap > 1:
        raise InputError("growth_cap must exceed 1")
    _check_return_tol(tol)
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


def _taylor_degree(theta: float) -> int:
    """Smallest K with theta^(K+1)/(K+1)! <= u/2: for theta <= 1 the
    exponential series of a step of norm theta, cut after degree K,
    leaves a remainder below unit roundoff u."""
    k, term = 0, 1.0
    while term > _UNIT_ROUNDOFF / 2.0:
        k += 1
        term *= theta / k
    return k - 1


def _sign_change(coeffs: list, res: float) -> float:
    """A root in [0, 1] of the real polynomial sum_m coeffs[m] u^m, which
    is negative at 0 and not negative at 1, to within res: Newton's
    method on a bracket that shrinks to each iterate's side, bisecting
    where a Newton step would leave it."""
    a, b = 0.0, 1.0
    p_a, p_b = coeffs[0], sum(coeffs)
    u = p_a / (p_a - p_b) if p_a < 0.0 <= p_b else 0.5
    for _ in range(_ROOT_ITERATIONS):
        p = dp = 0.0
        for c in reversed(coeffs):
            dp = dp * u + p
            p = p * u + c
        if p < 0.0:
            a = u
        else:
            b = u
        step = p / dp if dp else math.inf
        if abs(step) <= res:
            return u - step
        u -= step
        if not a < u < b:
            u = 0.5 * (a + b)
        if b - a <= res:
            break
    return u


class _Refiner:
    """Refines the minimum of the return distance |x(t) - x0| on a
    bracket [lo, lo + width] for min_period, from the walked grid point
    x(lo); it takes no exponential of its own.

    The bracket is cut into 2^m pieces of length sigma, the fewest with
    |A|_1*sigma <= 1.  On a piece that starts at y the orbit is the
    Taylor model x = sum_k u^k w_k, with u in [0, 1] the offset in units
    of sigma, w_k = (sigma A)^k y / k!, and k up to the degree
    _taylor_degree gives for |A|_1*sigma.  Its sum at u = 1, E y with
    E = sum_k (sigma A)^k / k!, carries y over one piece, and the squares
    E^(2^i) carry it over 2^i pieces: with them the piece on which
    phi' = 2 Re <x - x0, A x> changes sign is found by bisection on the
    piece index, m matrix-vector steps (none for a single piece).  There,
    since A x = sum_k u^k (k + 1) w_(k+1) / sigma, sigma*phi' is the real
    polynomial sum_m c_m u^m with
    c_m = sum_(k+l=m) 2 (l + 1) Re <w_k - [k=0] x0, w_(l+1)>: the
    anti-diagonal sums of one small Gram product, whose vectors come from
    one product of y with the stack of (sigma A)^k / k!.
    """

    def __init__(self, arr: np.ndarray, vec: np.ndarray, a_norm: float,
                 width: float, limit: float):
        self.arr, self.vec, self.limit = arr, vec, limit
        span = a_norm * width
        self.pieces = 1 << math.ceil(math.log2(span)) if span > 1.0 else 1
        self.sigma = width / self.pieces
        terms = _taylor_degree(a_norm * self.sigma) + 1
        powers = np.empty((terms + 1,) + arr.shape, dtype=arr.dtype)
        powers[0] = np.eye(arr.shape[0])
        for k in range(1, terms + 1):
            powers[k] = powers[k - 1] @ arr * (self.sigma / k)
        # rows 0..K hold w_k, rows K+1.. hold 2 (k + 1) w_(k+1)
        scale = 2.0 * np.arange(1, terms + 1)
        self.stack = np.concatenate([powers[:terms], powers[1:] * scale[:, None, None]])
        self.exponents = np.arange(terms)
        self.diagonals = np.add.outer(self.exponents, self.exponents).ravel()
        self.jumps = [powers[:terms].sum(axis=0)]  # E^(2^i) for 2^i <= pieces
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self.jumps) < self.pieces.bit_length():
                self.jumps.append(self.jumps[-1] @ self.jumps[-1])

    def _dphi(self, x: np.ndarray) -> float:
        """phi'/2 at the orbit point x."""
        return float(np.real(np.vdot(x - self.vec, self.arr @ x)))

    def __call__(self, lo: float, x: np.ndarray) -> PeriodResult | None:
        """The period at the bracket's minimum if it passes the
        acceptance test, else None; x is the walked grid point x(lo)."""
        with np.errstate(over="ignore", invalid="ignore"):
            if not self._dphi(x) < 0.0 < self._dphi(self.jumps[-1] @ x):
                return None
            j = 0
            for i in range(len(self.jumps) - 2, -1, -1):
                y = self.jumps[i] @ x
                if self._dphi(y) < 0.0:
                    x, j = y, j + (1 << i)
            rows = self.stack @ x
        terms = self.exponents.size
        diff = rows[:terms]
        diff[0] -= self.vec
        gram = (diff.conj() @ rows[terms:].T).real
        coeffs = np.bincount(self.diagonals, weights=gram.ravel()).tolist()
        u = _sign_change(coeffs, self.pieces * 2.0**-_ROOT_BITS)
        residual = float(np.linalg.norm(u**self.exponents @ diff))
        if residual <= self.limit:
            return PeriodResult("period", lo + (j + u) * self.sigma, residual)
        return None


def min_period(
    a,
    x0,
    horizon: float = DEFAULT_PERIOD_HORIZON,
    step: float = DEFAULT_PERIOD_STEP,
    tol: float = DEFAULT_RETURN_TOL,
) -> PeriodResult:
    """Minimal t > 0 with exp(tA) x0 back at x0, by grid scan plus a
    root search for the derivative of the squared distance.

    The grid 0, step, ... up to horizon is walked lazily, a few blocks
    of the orbit_sample walk at a time, and the search returns at the
    first accepted period without forming the rest of the grid.  Local
    minima k of the return distance (one point of lookahead across chunk
    edges) are refined in time order when they fall below a
    step-resolution prefilter 2*|A|_1*step*(scale + reach) + 10*tol*scale,
    where reach is the largest finite distance walked through k + 1.
    A refinement brackets [lo, lo + 2*step], lo the grid time k - 1, and
    starts from the walked grid point x(lo), so a call takes one
    exponential, the walk's, however many minima it refines.  The
    derivative of the squared distance, phi'(t) = 2 Re <x(t) - x0, A x(t)>,
    must be negative at lo and positive at lo + 2*step.  On the bracket
    the orbit is a Taylor model in time (see _Refiner), on pieces short
    enough that |A|_1 * piece <= 1 and of a degree that keeps its
    truncation below unit roundoff, so phi' is a real polynomial on each
    piece.  Its sign change is found in scalar arithmetic by Newton's
    method, with bisection as the safeguard, to 2*step/2^41 or finer.
    The refined minimum t* is accepted as a period when the model's
    |x(t*) - x0|, which carries the rounding of the walked start, falls
    under tol * (1 + |x0|).  Where np.longdouble is float64 that is the
    walk's drift (see orbit_sample), up to 3.5e-10 relative, below the
    default tol of 1e-9.  After _MAX_REFINEMENTS (64) refinements
    without a period the search gives up with none_found.  Periods
    shorter than two grid steps are not resolved.  A tol that is NaN or
    negative raises InputError; a grid of more than 1,000,000 points, or
    a generator whose 1-norm overflows, raises DiagnosticError.
    """
    _check_return_tol(tol)
    count = _check_window(horizon, step)
    arr = _as_array(a)
    vec = _as_vector(x0, arr.shape[0])
    scale = 1.0 + float(np.linalg.norm(vec))
    with np.errstate(over="ignore", invalid="ignore"):
        speed = float(np.linalg.norm(arr @ vec))
        a_norm = float(np.abs(arr).sum(axis=0).max())
    if speed <= tol * scale:
        return PeriodResult("fixed_point", residual=speed)
    if a_norm == math.inf:
        raise DiagnosticError("the generator's 1-norm is beyond the float range")
    margin = 10.0 * tol * scale
    refine = _Refiner(arr, vec, a_norm, 2.0 * step, tol * scale)

    refined = 0
    # the chunk starts at grid index base; the window prepends the last
    # two distances (and tail the last two points) of the chunk before
    tail = np.empty((0, vec.size))
    window = np.empty(0)
    reach = 0.0
    base = 0
    for pts in _walk(arr, vec, count, step):
        # an orbit that grows past the float range leaves inf/nan
        # distances, which never pass the mask below
        with np.errstate(over="ignore", invalid="ignore"):
            dist = np.linalg.norm(pts - vec, axis=1)
        start = base - window[-2:].size
        window = np.concatenate([window[-2:], dist])
        running = np.maximum.accumulate(np.where(np.isfinite(dist), dist, 0.0))
        np.maximum(running, reach, out=running)
        reach = float(running[-1])
        # inner[i] is the distance at grid index k = start + i + 1, and
        # its prefilter takes reach over the distances through k + 1
        inner = window[1:-1]
        prefilter = (
            2.0 * a_norm * step * (scale + running[running.size - inner.size :])
            + margin
        )
        hits = np.flatnonzero(
            (inner <= window[:-2])
            & (inner <= window[2:])
            & np.isfinite(inner)
            & (inner < prefilter)
        )
        for i in hits:
            k = start + int(i) + 1
            if k <= 1:
                continue
            if refined >= _MAX_REFINEMENTS:
                return PeriodResult("none_found")
            refined += 1
            at = k - 1 - base
            found = refine(float(k - 1) * step, pts[at] if at >= 0 else tail[at])
            if found is not None:
                return found
        tail = np.concatenate([tail, pts[-2:]])[-2:]
        base += pts.shape[0]
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
    orbits (checked in closed form for every real t, for the offset
    construction).  The corner coordinate, index r (0-based) of each
    x_seq entry, converges like a degree-r polynomial in 1/t.
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


def _term_sizes(times, xs, rows: int) -> np.ndarray:
    """Sizes of the terms that exp(tJ) x adds up, J a Jordan block on the
    imaginary axis: for each time t_n and point x_n, and each of the
    first rows coordinates i, the sum over k of |t_n^k/k! x_n(i+k)|.
    An overflow raises FloatingPointError under np.errstate(over="raise")."""
    sizes = np.abs(np.array(xs))
    m = sizes.shape[1]
    steps = np.array(times)[:, None] / np.arange(1.0, m)
    powers = np.cumprod(np.hstack([np.ones((len(times), 1)), steps]), axis=1)  # t^k/k!
    return np.stack([(powers[:, : m - i] * sizes[:, i:]).sum(axis=1) for i in range(rows)],
                    axis=1)


def _assert_distinct_orbits(beta: float, x_lim, y_lim) -> None:
    """Decide, for every real t at once, whether y_lim lies on the orbit
    of x_lim under the single block J = i*beta*I + N.

    Coordinate i of exp(tJ) x is exp(i beta t) sum_k x[i+k] t^k/k!.  With
    p the last nonzero coordinate of x, y = exp(tJ) x forces
    exp(i beta t) = y[p]/x[p] and, for p >= 1, t = y[p-1]/y[p] - x[p-1]/x[p],
    of which the real part is taken.  For p = 0 only the rotation
    matters: t = arg(y[0]/x[0])/beta, or t = 0 when beta or y[0] is zero
    (an x of zeros, whose orbit is the origin, takes t = 0 too).  The
    distance |exp(tJ) x - y| is evaluated once at that t and compared
    with the size of the terms it sums, 1 + | |exp(tN)| |x| | + |y|.
    Raises DiagnosticError when it falls within the margin; a distance
    that overflows counts as distinct.
    """
    x = np.asarray(x_lim, dtype=complex)
    y = np.asarray(y_lim, dtype=complex)
    nonzero = np.flatnonzero(x)
    p = int(nonzero[-1]) if nonzero.size else -1
    with np.errstate(all="ignore"):
        if p >= 1:
            t = float(np.real(y[p - 1] / y[p] - x[p - 1] / x[p]))
        elif p == 0 and beta and y[0]:
            t = float(np.angle(y[0] / x[0])) / beta
        else:
            t = 0.0
        flow = jordan_flow(1j * beta, x.size, t)
        dist = float(np.linalg.norm(flow @ x - y))
        scale = (
            1.0
            + float(np.linalg.norm(np.abs(flow) @ np.abs(x)))
            + float(np.linalg.norm(y))
        )
    if math.isfinite(dist) and dist <= _VERIFY_MARGIN * scale:
        raise DiagnosticError(
            f"the limit points are orbit-equal near t={t:g} "
            f"(distance {dist:.3g}); choose a different head"
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

    A prescribed coordinate i of y (the head, and the corner of an odd
    block) sums terms t^k/k! x_(i+k) that cancel, so it carries rounding
    noise of about S u, S the sum of their sizes and u = 2^-53.  When
    S u exceeds 1e-6 (1 + |y_lim[i]|) at some t_n, or building the
    witness overflows the float range, DiagnosticError is raised: a tiny
    beta makes t_n so large that the computed head would be noise.
    """
    try:
        heads = [complex(*lam_parts(c)) for c in head]
        beta = float(beta)
    except OverflowError:
        raise InputError("a head coordinate or beta is beyond the float range") from None
    if not all(cmath.isfinite(c) for c in heads):
        raise InputError("head has a non-finite coordinate")
    if count < 1:
        raise InputError("count must be positive")
    if not 0.0 <= beta < math.inf:
        raise InputError("the block frequency must be finite and nonnegative")
    odd = 0 if even else 1
    r = len(heads) - odd
    if r < 1:
        raise InputError(
            "an odd witness needs at least two head coordinates "
            "(the last one is the corner value)" if odd else
            "an even witness needs at least one head coordinate"
        )
    m = 2 * r + odd
    x_head = heads[:r]
    corner = heads[r:]  # the corner value of an odd block, or nothing

    if target_zero:
        y_head = [0.0 + 0.0j] * r
    else:
        y_head = [c + 1.0 for c in x_head]
    y_corner = [(-1.0) ** r * c for c in corner]

    x_lim = tuple(x_head + corner) + (0.0 + 0.0j,) * r
    y_lim = tuple(y_head + y_corner) + (0.0 + 0.0j,) * r

    if not target_zero:
        _assert_distinct_orbits(beta, x_lim, y_lim)

    if odd:
        inv = _factorial_inverse(r).to_numpy().astype(complex)
    else:
        inv = _even_inverse_float(r).astype(complex)

    times = []
    xs = []
    ys = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for n in range(1, count + 1):
                t = (2.0 * math.pi * n / beta) if beta > 0 else float(n)
                # rotation factor exp(-i beta t) is exactly 1 at these times; an
                # odd block solves for its corner coordinate u[0] too
                v = np.array(
                    [
                        t ** (i - r - odd) * (y_head[i - 1] - _head_sum(x_head, i, r, t))
                        for i in range(1, r + 1)
                    ]
                    + y_corner,
                    dtype=complex,
                )
                u = inv @ v
                tail = tuple(u[k - 1 + odd] / t**k for k in range(1, r + 1))
                xn = tuple(x_head) + tuple(u[:odd]) + tail
                yn = tuple(jordan_flow(1j * beta, m, t) @ np.asarray(xn, dtype=complex))
                times.append(t)
                xs.append(tuple(complex(c) for c in xn))
                ys.append(tuple(complex(c) for c in yn))
            sizes = _term_sizes(times, xs, r + odd)
    except (OverflowError, FloatingPointError):
        noisy = [t]
    else:
        scale = 1 + np.abs(np.array(y_lim[: r + odd]))
        ok = (sizes * _UNIT_ROUNDOFF <= _WITNESS_HEAD_NOISE * scale).all(axis=1)
        noisy = [t for t, fine in zip(times, ok.tolist()) if not fine]
    if noisy:
        raise DiagnosticError(
            f"the witness at t = {noisy[0]:.3g} overflows or its head carries rounding "
            f"noise beyond {_WITNESS_HEAD_NOISE:g} (1 + |head|); raise beta or lower count"
        )

    return WitnessSequence(
        beta, m, r, tuple(times), tuple(xs), tuple(ys), x_lim, y_lim
    )


def extrapolate_to_zero(ts, vals, degree: int | None = None) -> complex:
    """Limit of a sequence that is polynomial in 1/t: fit the last
    degree+1 points in the variable 1/t and read off the constant term.
    A time that is zero or not finite, a value that is not finite or
    beyond the float range, or a negative degree raises InputError."""
    try:
        ts = [float(t) for t in ts]
        vals = [complex(v) for v in vals]
    except OverflowError:
        raise InputError("a time or value is beyond the float range") from None
    if len(ts) != len(vals) or not ts:
        raise InputError("need matching nonempty time and value sequences")
    if not all(map(math.isfinite, ts)) or 0 in ts or not all(map(cmath.isfinite, vals)):
        raise InputError("times must be finite and nonzero, and values finite")
    if degree is None:
        degree = len(ts) - 1
    if degree < 0:
        raise InputError("the degree must be nonnegative")
    if degree + 1 > len(ts):
        raise InputError("not enough points for the requested degree")
    xs = np.array([1.0 / t for t in ts[-(degree + 1):]])
    ys = np.array(vals[-(degree + 1):], dtype=complex)
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, degree)
    return complex(coeffs[0])
