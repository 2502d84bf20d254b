"""Spectral extraction for real square matrices.

Exact matrices are real-only (Fraction entries); their eigenvalues are
Fraction or RationalComplex values.

Eigenvalues come from the characteristic polynomial.  In exact mode the
polynomial is factored over the rationals and succeeds only when every
root has rational real and imaginary parts; anything else raises
ExactModeError with a pointer to the float fallback.  In float mode the
roots come from a simultaneous (Aberth) iteration followed by clustering
at a radius that defaults to 1e-8 * (1 + max row sum of A), and clusters
are paired into conjugates before any counting happens.

Block sizes are never computed from eigenvectors.  The count of size-m
blocks at an eigenvalue is the second difference of the rank sequence of
shifted powers:  count(lam, m) = r(m-1) - 2 r(m) + r(m+1), with the
sequence from `numkit.power_rank_sequence`.  In exact mode a conjugate
pair a +- bi is measured there through the real quadratic
(A - aI)^2 + b^2 I, so the ranks stay over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DiagnosticError, ExactModeError, InputError, NonConvergenceError
from .numkit import (
    Matrix,
    RationalComplex,
    canonical_lam,
    char_poly,
    lam_parts,
    power_rank_sequence,
    re_sign,
)

__all__ = [
    "Block",
    "SpectrumDescriptor",
    "SpectralSplit",
    "eigenvalues",
    "split_dims",
    "jordan_counts",
    "spectrum_descriptor",
    "DEFAULT_CLUSTER_FACTOR",
]

DEFAULT_CLUSTER_FACTOR = 1e-8
_ABERTH_MAX_ITER = 500


class Block(NamedTuple):
    """count blocks of size m at eigenvalue lam."""

    lam: object
    m: int
    count: int


def _sort_key(block: Block):
    re, im = lam_parts(block.lam)
    return (float(re), float(im), block.m)


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Multiset of blocks (lam, m, count) with total size n.

    The descriptor is the first-class input for every invariant
    downstream; matrices are just one way to produce one.
    """

    n: int
    blocks: tuple
    exact: bool
    real_source: bool

    @staticmethod
    def make(blocks, n=None, exact=None, real_source=None, tol=1e-9):
        merged: dict = {}
        for b in blocks:
            b = Block(*b)
            if b.m < 1 or b.count < 1:
                raise InputError("block size and count must be at least 1")
            key = (canonical_lam(b.lam), b.m)
            merged[key] = merged.get(key, 0) + b.count
        out = tuple(
            sorted((Block(lam, m, c) for (lam, m), c in merged.items()), key=_sort_key)
        )
        if not out:
            raise InputError("descriptor needs at least one block")
        total = sum(b.m * b.count for b in out)
        if n is None:
            n = total
        elif n != total:
            raise InputError(
                f"block sizes sum to {total}, not the declared dimension {n}"
            )
        if exact is None:
            exact = all(
                isinstance(b.lam, (Fraction, RationalComplex)) for b in out
            )
        if real_source is None:
            real_source = _is_conjugate_symmetric(out, exact, tol)
        elif real_source and not _is_conjugate_symmetric(out, exact, tol):
            raise InputError("blocks are not conjugate-symmetric")
        return SpectrumDescriptor(n, out, exact, real_source)

    def center_blocks(self, tol: float = 0.0) -> tuple:
        """Blocks with zero real part; see numkit.re_sign for tol."""
        return tuple(b for b in self.blocks if not re_sign(b.lam, tol))


def _is_conjugate_symmetric(blocks, exact, tol):
    remaining = {}
    for b in blocks:
        remaining[(b.lam, b.m)] = remaining.get((b.lam, b.m), 0) + b.count
    for (lam, m), c in list(remaining.items()):
        _, im = lam_parts(lam)
        if exact:
            if im == 0:
                continue
            partner = remaining.get((lam.conjugate(), m), 0)
            if partner != c:
                return False
        else:
            if abs(float(im)) <= tol:
                continue
            target = complex(lam).conjugate()
            found = False
            for (lam2, m2), c2 in remaining.items():
                if m2 == m and abs(complex(lam2) - target) <= tol * (1 + abs(target)):
                    found = c2 == c
                    break
            if not found:
                return False
    return True


@dataclass(frozen=True)
class SpectralSplit:
    """Real-part sign census: expanding, contracting, and center dimensions."""

    dim_plus: int
    dim_minus: int
    dim_zero: int
    center_blocks: tuple | None = None

    def __post_init__(self):
        if self.center_blocks is not None:
            total = sum(b.m * b.count for b in self.center_blocks)
            if total != self.dim_zero:
                raise InputError("center blocks do not sum to the center dimension")


# ---- eigenvalues: exact path -------------------------------------------------


def _fraction_sqrt(f: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def _eigenvalues_exact(a: Matrix):
    import sympy

    poly = char_poly(a)
    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**k
        for k, c in enumerate(poly.coeffs)
    )
    _, factors = sympy.factor_list(sympy.Poly(expr, t, domain="QQ"))
    found = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs()]  # descending
        lead = cs[0]
        cs = [c / lead for c in cs]
        deg = len(cs) - 1
        if deg == 1:
            found.append((-cs[1], mult))
        elif deg == 2:
            b, c = cs[1], cs[2]
            disc = b * b - 4 * c
            s = _fraction_sqrt(-disc) if disc < 0 else None
            if s is None:
                raise ExactModeError(
                    "characteristic polynomial has the irreducible factor "
                    f"t^2 + ({b})t + ({c}) whose roots have irrational parts; "
                    "rerun in float mode or supply spectrum blocks directly"
                )
            re = -b / 2
            found.append((RationalComplex(re, s / 2), mult))
            found.append((RationalComplex(re, -s / 2), mult))
        else:
            raise ExactModeError(
                f"characteristic polynomial has an irreducible factor of degree {deg}; "
                "rerun in float mode or supply spectrum blocks directly"
            )
    found.sort(key=lambda p: lam_parts(p[0]))
    return tuple(found)


# ---- eigenvalues: float path -------------------------------------------------


def _aberth_roots(coeffs) -> np.ndarray:
    """All roots of a monic polynomial, ascending complex coefficients."""
    cs = np.asarray(coeffs, dtype=complex)
    d = len(cs) - 1
    if d == 0:
        return np.zeros(0, dtype=complex)
    center = -cs[d - 1] / d
    radius = 1.0 + max(abs(c) for c in cs[:-1])
    angles = 2 * np.pi * (np.arange(d) + 0.35) / d
    z = center + radius * np.exp(1j * angles)
    dcs = cs[1:] * np.arange(1, d + 1)
    abs_cs = np.abs(cs)
    for _ in range(_ABERTH_MAX_ITER):
        p = np.polyval(cs[::-1], z)
        dp = np.polyval(dcs[::-1], z)
        # noise floor of the Horner evaluation at each point
        scale = np.polyval(abs_cs[::-1], np.abs(z))
        settled = np.abs(p) <= 1e-14 * (d + 1) * scale
        dp = np.where(dp == 0, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulse
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = np.where(settled, 0.0, newton / denom)
        z = z - step
        if np.all(np.abs(step) <= 1e-13 * (1.0 + np.abs(z))):
            return z
    raise NonConvergenceError(
        f"root iteration did not converge within {_ABERTH_MAX_ITER} sweeps"
    )


def _cluster(points: np.ndarray, radius: float):
    """Chain points within radius into clusters; (mean, size) per cluster."""
    n = len(points)
    unused = set(range(n))
    clusters = []
    while unused:
        seed = unused.pop()
        group = [seed]
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            near = [j for j in unused if abs(points[i] - points[j]) <= radius]
            for j in near:
                unused.remove(j)
                group.append(j)
                frontier.append(j)
        vals = points[group]
        clusters.append((complex(vals.mean()), len(group)))
    return clusters


def _pair_conjugates(clusters, radius: float):
    """Symmetrize clusters of a real matrix into conjugate pairs."""
    reals, pos, neg = [], [], []
    for lam, mult in clusters:
        if abs(lam.imag) <= radius:
            reals.append((lam.real, mult))
        elif lam.imag > 0:
            pos.append((lam, mult))
        else:
            neg.append((lam, mult))
    if len(pos) != len(neg):
        raise DiagnosticError(
            "conjugate pairing failed: unbalanced cluster counts; widen tol"
        )
    paired = []
    neg = list(neg)
    for lam, mult in pos:
        best, best_d = None, None
        for idx, (mu, mmult) in enumerate(neg):
            d = abs(mu.conjugate() - lam)
            if best_d is None or d < best_d:
                best, best_d = idx, d
        mu, mmult = neg[best]
        if best_d > 2 * radius or mmult != mult:
            raise DiagnosticError(
                f"conjugate pairing failed near {lam:.6g}; widen tol"
            )
        del neg[best]
        sym = complex((lam.real + mu.real) / 2, (lam.imag - mu.imag) / 2)
        paired.append((sym, mult))
        paired.append((sym.conjugate(), mult))
    out = reals + paired
    out.sort(key=lambda p: (p[0].real, p[0].imag))
    return out


def _default_radius(a: Matrix, tol: float | None) -> float:
    if tol is not None:
        if tol <= 0:
            raise InputError("float mode needs a positive tolerance")
        return float(tol)
    return DEFAULT_CLUSTER_FACTOR * (1.0 + a.inf_norm())


def _eigenvalues_float(a: Matrix, tol: float | None):
    radius = _default_radius(a, tol)
    poly = char_poly(a)
    roots = _aberth_roots(poly.float_coeffs())
    clusters = _cluster(roots, radius)
    return tuple(_pair_conjugates(clusters, radius))


def eigenvalues(a: Matrix, tol: float | None = None):
    """Eigenvalues of a real square matrix with algebraic multiplicities.

    Returns a tuple of (value, multiplicity) sorted by (re, im).  Exact
    matrices give Fraction or RationalComplex values or raise
    ExactModeError; float
    matrices give complex values clustered at radius tol (default
    1e-8 * (1 + max row sum)) and symmetrized into conjugate pairs.
    """
    if a.field != "real":
        raise InputError("eigenvalue extraction expects a real matrix")
    if a.mode == "exact":
        return _eigenvalues_exact(a)
    return _eigenvalues_float(a, tol)


# ---- real-part split ---------------------------------------------------------


def split_dims(eigs, tol: float | None = None) -> SpectralSplit:
    """Census of algebraic multiplicity by the sign of the real part.

    Exact values use exact sign; float values compare |re| against tol,
    which defaults to 1e-8 * (1 + largest eigenvalue magnitude).
    """
    eigs = list(eigs)
    if tol is None:
        largest = max(
            (abs(complex(*map(float, lam_parts(l)))) for l, _ in eigs), default=0.0
        )
        tol = DEFAULT_CLUSTER_FACTOR * (1.0 + largest)
    plus = minus = zero = 0
    for lam, mult in eigs:
        sign = re_sign(lam, tol)
        if sign > 0:
            plus += mult
        elif sign < 0:
            minus += mult
        else:
            zero += mult
    return SpectralSplit(plus, minus, zero)


# ---- block-size counts -------------------------------------------------------


def jordan_counts(a: Matrix, lam, tol: float | None = None):
    """Counts of block sizes at one eigenvalue, from rank second differences.

    Returns a tuple of (m, count) with count > 0, ascending in m.  The
    rank sequence r(k) = rank (A - lam I)^k over the complex numbers
    comes from `numkit.power_rank_sequence`, which measures a non-real
    lam of an exact A through a real quadratic and stops once the
    sequence is stable.

    A rank sequence that rises, a negative block count, or block sizes
    that do not sum to the multiplicity raise DiagnosticError; a lam at
    which nothing drops raises InputError.
    """
    n = a.n
    ranks = power_rank_sequence(a, lam, n, tol)
    stable = ranks[-1]
    mult = n - stable
    if mult == 0:
        raise InputError(f"{lam} is not an eigenvalue: shifted matrix has full rank")
    ext = ranks + [stable]
    counts = []
    total = 0
    for m in range(1, n + 1):
        c = ext[m - 1] - 2 * ext[m] + ext[m + 1]
        if c < 0:
            raise DiagnosticError(
                f"inconsistent rank sequence {ranks}: negative block count at size {m}"
            )
        if c:
            counts.append((m, c))
            total += m * c
    if total != mult:
        raise DiagnosticError(
            f"block sizes sum to {total} but multiplicity is {mult}; "
            f"rank sequence {ranks} is inconsistent"
        )
    return tuple(counts)


# ---- full descriptor ---------------------------------------------------------


def spectrum_descriptor(a: Matrix, tol: float | None = None) -> SpectrumDescriptor:
    """Validated block descriptor of a real matrix.

    Block counts are measured on the nonnegative-imaginary side and
    mirrored, so the result is conjugate-symmetric by construction.
    """
    eigs = eigenvalues(a, tol)
    blocks = []
    for lam, mult in eigs:
        _, im = lam_parts(lam)
        if im < 0:
            continue
        counts = jordan_counts(a, lam, tol)
        measured = sum(m * c for m, c in counts)
        if measured != mult:
            raise DiagnosticError(
                f"block sizes at {lam} sum to {measured}, expected multiplicity {mult}"
            )
        for m, c in counts:
            blocks.append(Block(lam, m, c))
            if im > 0:
                blocks.append(Block(lam.conjugate(), m, c))
    return SpectrumDescriptor.make(
        blocks, n=a.n, exact=(a.mode == "exact"), real_source=True
    )
