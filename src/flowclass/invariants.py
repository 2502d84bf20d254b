"""Flow invariants and the conjugacy and equivalence decisions.

Two linear flows are topologically conjugate exactly when their
expanding and contracting dimensions agree and their center block data
agree as multisets; they are topologically equivalent when that holds
once one factor c > 0 scales the nonzero center frequencies of one
flow.  Everything else in this module extracts finer
structure of the bounded part: which purely imaginary frequencies are
rationally related, which orbit frequencies occur on the compact part,
how large the closure of each frequency level set is, and how block
counts transform under the half-size reduction calculus.

Index convention: class supports are 0-based positions into the sorted
multiplier tuple p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Iterable, Sequence

from .errors import DiagnosticError, InconsistentInvariantsError, InputError
from .numkit import lam_parts, re_sign
from .spectral import CENTER_TOL as _CENTER_TOL, Block, SpectrumDescriptor

__all__ = [
    "ConjugacySignature",
    "Verdict",
    "BoundedStructure",
    "RationalClass",
    "FrequencyProfile",
    "ReductionLevel",
    "conjugacy_signature",
    "decide_conjugate",
    "decide_equivalent",
    "bounded_structure",
    "rational_classes",
    "frequency_values",
    "orbit_frequency",
    "preimage_dim",
    "recover_multipliers",
    "frequency_profile",
    "reduction_dimensions",
    "block_counts_from_reduction",
    "x_reduce",
    "y_reduce",
    "z_reduce",
    "DEFAULT_QMAX",
    "DEFAULT_RATIO_TOL",
]

DEFAULT_QMAX = 64
DEFAULT_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class ConjugacySignature:
    """Complete conjugacy invariant of one flow.

    dim_plus / dim_minus count eigenvalues with positive / negative real
    part (with algebraic multiplicity); center holds the canonically
    sorted multiset of (im, m, count) for zero-real-part blocks.
    """

    dim_plus: int
    dim_minus: int
    center: tuple
    exact: bool

    @property
    def dim_zero(self) -> int:
        return sum(m * c for _, m, c in self.center)

    @property
    def n(self) -> int:
        return self.dim_plus + self.dim_minus + self.dim_zero


@dataclass(frozen=True)
class Verdict:
    """Decision plus the first differing invariant when negative."""

    conjugate: bool
    certificate: str | None = None


def _check_tol(tol) -> None:
    if not tol >= 0:  # NaN too
        raise InputError("tolerance must be nonnegative")


def conjugacy_signature(
    desc: SpectrumDescriptor, tol: float | None = None
) -> ConjugacySignature:
    """Collapse a descriptor to the invariant that decides conjugacy.

    A float real part within tol (default CENTER_TOL) of zero counts as
    center; a NaN or negative tol raises InputError.  Float center blocks
    are merged by (im, m), since values whose real parts differ within
    tol land on one key.  An exact center block has a real part of
    exactly 0, and an exact descriptor (from `SpectrumDescriptor.make` or
    `spectrum_descriptor`) holds its blocks merged by (value, size) and
    in (re, im, m) order, so its center blocks are taken as they are.
    """
    if tol is None:
        tol = _CENTER_TOL
    _check_tol(tol)
    plus = minus = 0
    center = []
    for lam, m, count in desc.blocks:
        sign = re_sign(lam, tol)
        if sign > 0:
            plus += m * count
        elif sign < 0:
            minus += m * count
        else:
            center.append((lam_parts(lam)[1], m, count))
    if not desc.exact:
        merged: dict = {}
        for im, m, count in center:
            merged[im, m] = merged.get((im, m), 0) + count
        center = sorted(((im, m, c) for (im, m), c in merged.items()),
                        key=lambda t: (float(t[0]), t[1]))
    return ConjugacySignature(plus, minus, tuple(center), desc.exact)


def decide_conjugate(
    a: ConjugacySignature, b: ConjugacySignature, tol: float | None = None
) -> Verdict:
    """Compare two signatures; equal signatures mean conjugate flows.

    The certificate names the first invariant that differs.  Center
    frequencies of float signatures are matched within tol.
    A NaN or negative tol raises InputError.  Conjugate flows are also
    topologically equivalent, but not conversely: A and cA, c > 0, have
    the same orbits (see `decide_equivalent`).
    """
    if tol is None:
        tol = 0.0 if (a.exact and b.exact) else _CENTER_TOL
    _check_tol(tol)
    if a.n != b.n:
        return Verdict(False, f"ambient dimension {a.n} vs {b.n}")
    if a.dim_plus != b.dim_plus:
        return Verdict(False, f"expanding dimension {a.dim_plus} vs {b.dim_plus}")
    if a.dim_minus != b.dim_minus:
        return Verdict(
            False, f"contracting dimension {a.dim_minus} vs {b.dim_minus}"
        )
    if len(a.center) != len(b.center):
        return Verdict(
            False,
            f"center block multiset sizes {len(a.center)} vs {len(b.center)}",
        )
    for (im1, m1, c1), (im2, m2, c2) in zip(a.center, b.center):
        same_im = (
            im1 == im2
            if isinstance(im1, Fraction) and isinstance(im2, Fraction)
            else abs(float(im1) - float(im2)) <= tol
        )
        if not same_im:
            return Verdict(
                False, f"center eigenvalue {_imag_str(im1)} vs {_imag_str(im2)}"
            )
        if m1 != m2 or c1 != c2:
            return Verdict(
                False,
                f"center block (im={im1}, m={m1}) x{c1} vs (im={im2}, m={m2}) x{c2}",
            )
    return Verdict(True)


def decide_equivalent(
    a: ConjugacySignature, b: ConjugacySignature, tol: float | None = None
) -> Verdict:
    """Decide topological equivalence: a homeomorphism carries orbits onto
    orbits, keeping the direction of time.

    By Kuiper's and Ladis's theorem (1973) that holds exactly when the
    hyperbolic dimensions agree and the center parts are linearly
    conjugate once one of them is scaled by some c > 0: the blocks at 0
    agree, and c carries the nonzero center frequencies of a, with their
    block sizes and counts, onto those of b.  c is the ratio of the
    first nonzero frequencies, exact for exact signatures; a, scaled by
    c, is then compared with b by `decide_conjugate`, float frequencies
    within tol relative to c.  The answer is the Verdict's `conjugate`
    field, and the certificate names the first invariant that differs.
    A NaN or negative tol raises InputError.
    """
    if tol is None:
        tol = 0.0 if (a.exact and b.exact) else _CENTER_TOL
    _check_tol(tol)
    first = [next((im for im, _, _ in s.center if abs(im) > tol), None) for s in (a, b)]
    if None in first:
        return decide_conjugate(a, b, tol)
    if all(isinstance(im, Fraction) for im in first):
        c = first[1] / first[0]
    else:
        c = float(first[1]) / float(first[0])
    if c <= 0 or c == 1:
        return decide_conjugate(a, b, tol)
    scaled = replace(a, center=tuple((im * c, m, k) for im, m, k in a.center))
    verdict = decide_conjugate(scaled, b, tol * c)
    if verdict.conjugate:
        return verdict
    return Verdict(False, f"{verdict.certificate} (left center frequencies times {c})")


def _imag_str(im) -> str:
    if isinstance(im, Fraction):
        return f"{im}i" if im != 0 else "0"
    return f"{float(im):g}i" if im else "0"


# ---- rational frequency classes ----------------------------------------------


@dataclass(frozen=True)
class RationalClass:
    """Frequencies (beta * p_1, ..., beta * p_k) with integer multipliers.

    beta is the common measure, p is the sorted multiplier multiset with
    gcd 1.  A singleton class has p = (1,).
    """

    beta: object
    p: tuple

    def __post_init__(self):
        if not self.p:
            raise InputError("a class needs at least one multiplier")
        if any((not isinstance(x, int)) or x < 1 for x in self.p):
            raise InputError("multipliers must be positive integers")
        if tuple(sorted(self.p)) != self.p:
            raise InputError("multipliers must be sorted ascending")
        g = gcd(*self.p)
        if g != 1:
            raise InputError(f"multipliers {self.p} have gcd {g}, expected 1")
        if not _positive_finite(self.beta):
            raise InputError("the common measure must be positive and finite")

    @property
    def frequencies(self) -> tuple:
        return tuple(self.beta * k for k in self.p)


def _positive_finite(beta) -> bool:
    """Whether a frequency is positive and finite; an exact (Fraction) one
    is compared as it is, never converted to float.  Any other one beyond
    the float range raises InputError."""
    if isinstance(beta, Fraction):
        return beta > 0
    try:
        return 0 < float(beta) < float("inf")
    except OverflowError:
        raise InputError("a frequency is beyond the float range") from None


def _continued_fraction_convergent(x: float, qmax: int):
    """Best rational approximation p/q with q <= qmax, plus its error.

    Walks the continued fraction of x and stops before the denominator
    passes qmax, or where the reciprocal of the remainder overflows: the
    next quotient would then exceed any qmax.  Returns (p, q, abs_err).
    """
    if x <= 0:
        raise InputError("ratio must be positive")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(x // 1), 1
    frac = x - (x // 1)
    for _ in range(64):
        if abs(x - p_cur / q_cur) == 0 or frac == 0:
            break
        rec = 1.0 / frac
        if rec == inf:
            break
        a = int(rec // 1)
        frac = rec - a
        p_nxt = a * p_cur + p_prev
        q_nxt = a * q_cur + q_prev
        if q_nxt > qmax:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    return p_cur, q_cur, abs(x - p_cur / q_cur)


def _ratio_accept(bi: float, bj: float, qmax: int, tol: float):
    """Accept two float frequencies as rationally related, or refuse.

    Returns (p, q, rel_err) when the continued-fraction convergent of
    bi/bj with denominator at most qmax lands within relative tol,
    otherwise None, as for a ratio that under- or overflows to 0 or inf.
    """
    ratio = bi / bj
    if not 0 < ratio < inf:
        return None
    p, q, err = _continued_fraction_convergent(ratio, qmax)
    if p >= 1 and q >= 1 and err < tol * ratio:
        return p, q, err / ratio
    return None


def _rational_gcd(values: Sequence[Fraction]) -> Fraction:
    lcm_den = lcm(*(v.denominator for v in values))
    g = gcd(*(int(v * lcm_den) for v in values))
    return Fraction(g, lcm_den)


def rational_classes(
    betas: Sequence, qmax: int = DEFAULT_QMAX, tol: float = DEFAULT_RATIO_TOL
):
    """Partition positive frequencies by rational ratio.

    Exact rational inputs always land in a single class with an exact
    common measure.  Float inputs are tested pairwise through continued
    fraction convergents of the smaller over the larger (numerator and
    denominator at most qmax, relative error below tol), so the classes
    do not depend on the input order; acceptance that fails
    transitivity raises DiagnosticError and names an offending triple.  Returns classes sorted by beta; repeated
    input frequencies produce repeated multipliers.  A NaN or negative
    tol, or a frequency that is not positive and finite or is beyond the
    float range, raises InputError.
    """
    betas = list(betas)
    if qmax < 1:
        raise InputError("qmax must be at least 1")
    _check_tol(tol)
    if not betas:
        return []
    exact = all(isinstance(b, Fraction) for b in betas)
    if not exact and any(isinstance(b, Fraction) for b in betas):
        raise InputError("cannot mix exact and float frequencies")
    if not all(_positive_finite(b) for b in betas):
        raise InputError("frequencies must be positive and finite")

    if exact:
        beta0 = _rational_gcd(betas)
        mult = sorted(int(b / beta0) for b in betas)
        return [RationalClass(beta0, tuple(mult))]

    vals = [float(b) for b in betas]
    k = len(vals)
    accepted = {}
    for i in range(k):
        for j in range(i + 1, k):
            # the smaller over the larger, so the convergent bounds p <= q <= qmax
            # and the verdict does not depend on the input order
            low, high = sorted((vals[i], vals[j]))
            accepted[(i, j)] = _ratio_accept(low, high, qmax, tol)

    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j), hit in accepted.items():
        if hit is not None:
            parent[find(i)] = find(j)

    groups: dict = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)

    # audit: chained acceptance must be pairwise acceptance
    for members in groups.values():
        for a_pos in range(len(members)):
            for b_pos in range(a_pos + 1, len(members)):
                i, j = members[a_pos], members[b_pos]
                if accepted[(i, j)] is None:
                    third = next(
                        x for x in members if x != i and x != j
                    )
                    raise DiagnosticError(
                        "rational-ratio acceptance is not transitive on "
                        f"frequencies ({vals[i]:.9g}, {vals[j]:.9g}, "
                        f"{vals[third]:.9g}); tighten tol or qmax"
                    )

    classes = []
    for members in groups.values():
        sub = sorted(vals[i] for i in members)
        base = sub[0]
        nums, dens = [], []
        for v in sub:
            p, q, _ = _continued_fraction_convergent(v / base, qmax)
            nums.append(p)
            dens.append(q)
        lcm_den = lcm(*dens)
        ints = [p * (lcm_den // q) for p, q in zip(nums, dens)]
        g = gcd(*ints)
        mult = sorted(x // g for x in ints)
        beta = sum(v / m for v, m in zip(sub, (x // g for x in ints))) / len(sub)
        classes.append(RationalClass(beta, tuple(mult)))
    classes.sort(key=lambda c: float(c.beta))
    return classes


# ---- bounded structure ---------------------------------------------------------


@dataclass(frozen=True)
class BoundedStructure:
    """Shape of the bounded part, counted on the positive-frequency side.

    dim_bounded = dim_fixed + one dimension per positive-frequency
    block; classes collect frequencies with at least one rational
    partner, unclassed lists the lone ones.
    """

    dim_bounded: int
    dim_fixed: int
    classes: tuple
    unclassed: tuple


def bounded_structure(
    desc: SpectrumDescriptor,
    qmax: int = DEFAULT_QMAX,
    tol: float = DEFAULT_RATIO_TOL,
) -> BoundedStructure:
    """Bounded-part census of a descriptor.

    Fixed directions come from blocks at eigenvalue zero (one per
    block); rotating directions come from blocks with im > 0, one per
    block, with conjugates merged into the positive side.  Descriptors
    not flagged as real-sourced contribute |im| instead.
    """
    center = desc.center_blocks(_CENTER_TOL if not desc.exact else 0.0)
    dim_fixed = 0
    freqs = []
    for lam, m, count in center:
        _, im = lam_parts(lam)
        zero_im = (im == 0) if desc.exact else (abs(float(im)) <= _CENTER_TOL)
        if zero_im:
            dim_fixed += count
        elif desc.real_source:
            if im > 0:
                freqs.extend([im] * count)
        else:
            freqs.extend([abs(im)] * count)
    all_classes = rational_classes(freqs, qmax, tol)
    classes = tuple(c for c in all_classes if len(c.p) >= 2)
    unclassed = tuple(c.beta for c in all_classes if len(c.p) == 1)
    dim_bounded = dim_fixed + sum(len(c.p) for c in all_classes)
    return BoundedStructure(dim_bounded, dim_fixed, classes, unclassed)


# ---- orbit frequencies of the compact part --------------------------------------


def _subset_gcds(p) -> list:
    """The gcds of the nonempty subsets of the multipliers p, ascending,
    in one pass: each multiplier adds itself and its gcd with every value
    found so far."""
    found: set = set()
    for x in p:
        found |= {gcd(x, g) for g in found} | {x}
    return sorted(found)


def frequency_values(cls: RationalClass) -> tuple:
    """All orbit frequencies attained on the class, sorted ascending:
    beta * g for every g that is a gcd of a nonempty subset of the
    multipliers."""
    return tuple(cls.beta * g for g in _subset_gcds(cls.p))


def orbit_frequency(cls: RationalClass, support: Iterable[int]):
    """Frequency of the orbit through a point supported on the given
    coordinates: beta times the gcd of the selected multipliers.  The
    minimal period of that orbit is 2*pi divided by this value."""
    idx = sorted(set(support))
    if not idx:
        raise InputError("empty support has no orbit frequency")
    if idx[0] < 0 or idx[-1] >= len(cls.p):
        raise InputError(f"support indices out of range for {len(cls.p)} multipliers")
    return cls.beta * gcd(*(cls.p[i] for i in idx))


def _as_multiplier(cls: RationalClass, q) -> int:
    """q / beta as an integer, validated against the attained values."""
    if isinstance(cls.beta, Fraction) and isinstance(q, (Fraction, int)):
        ratio = Fraction(q) / cls.beta
        if ratio.denominator != 1:
            raise InputError(f"{q} is not an attained frequency of the class")
        g = int(ratio)
    else:
        ratio = float(q) / float(cls.beta)
        g = round(ratio)
        if g < 1 or abs(ratio - g) > 1e-6 * ratio + 1e-12:
            raise InputError(f"{q} is not an attained frequency of the class")
    values = frequency_values(cls)
    match = any(
        (v == q) if isinstance(v, Fraction) and isinstance(q, (Fraction, int))
        else abs(float(v) - float(q)) <= 1e-9 * (1 + abs(float(q)))
        for v in values
    )
    if not match:
        raise InputError(f"{q} is not an attained frequency of the class")
    return g


def preimage_dim(cls: RationalClass, q, dim_fixed: int = 0) -> int:
    """Complex dimension of the closure of the level set of orbit
    frequency q: the fixed directions plus every coordinate whose
    multiplier is divisible by q / beta."""
    g = _as_multiplier(cls, q)
    hits = sum(1 for x in cls.p if x % g == 0)
    return dim_fixed + hits


def frequency_profile(cls: RationalClass, dim_fixed: int = 0) -> "FrequencyProfile":
    """Each attained frequency beta * g with dim_fixed + #{p_i : g | p_i}."""
    gs = _subset_gcds(cls.p)
    values = tuple(cls.beta * g for g in gs)
    dims = tuple((v, dim_fixed + sum(1 for x in cls.p if x % g == 0))
                 for v, g in zip(values, gs))
    return FrequencyProfile(values, dims)


@dataclass(frozen=True)
class FrequencyProfile:
    """Attained orbit frequencies and their level-set closure dimensions."""

    values: tuple
    preimage_dims: tuple

    def __post_init__(self):
        if len(self.values) != len(self.preimage_dims):
            raise InputError("profile arrays must align")


def recover_multipliers(
    values: Sequence, dim_of: Callable, dim_fixed: int = 0
) -> tuple:
    """Invert the frequency profile back to the multiplier multiset.

    values are the attained frequencies; dim_of maps each value to its
    level-set closure dimension.  beta is the least value; multiplier
    counts are peeled off largest first:

        count(g) = (dim_of(beta*g) - dim_fixed)
                   - sum of count(g') over already-known g' divisible by g.

    A negative intermediate count or a final gcd above 1 raises
    InconsistentInvariantsError.
    """
    vals = list(values)
    if not vals:
        raise InputError("no frequency values to invert")
    exact = all(isinstance(v, (Fraction, int)) for v in vals)
    beta = min(vals, key=lambda v: float(v))
    gs = []
    for v in vals:
        if exact:
            ratio = Fraction(v) / Fraction(beta)
            if ratio.denominator != 1:
                raise InconsistentInvariantsError(
                    f"value {v} is not an integer multiple of the least value {beta}"
                )
            gs.append(int(ratio))
        else:
            ratio = float(v) / float(beta)
            g = round(ratio)
            if g < 1 or abs(ratio - g) > 1e-6 * ratio:
                raise InconsistentInvariantsError(
                    f"value {v} is not an integer multiple of the least value {beta}"
                )
            gs.append(g)
    if len(set(gs)) != len(gs):
        raise InputError("frequency values repeat")
    counts: dict = {}
    for g in sorted(gs, reverse=True):
        v = beta * g
        known = sum(c for g2, c in counts.items() if g2 > g and g2 % g == 0)
        c = (dim_of(v) - dim_fixed) - known
        if c < 0:
            raise InconsistentInvariantsError(
                f"negative multiplier count at frequency {v}; dims are inconsistent"
            )
        counts[g] = c
    p = []
    for g, c in counts.items():
        p.extend([g] * c)
    p.sort()
    if not p:
        raise InconsistentInvariantsError("all multiplier counts came out zero")
    g_all = gcd(*p)
    if g_all != 1:
        raise InconsistentInvariantsError(
            f"recovered multipliers {p} have gcd {g_all}, expected 1"
        )
    return tuple(p)


# ---- half-size reduction calculus ------------------------------------------------


def x_reduce(m: int) -> int:
    """Block size after the rounding-up half reduction."""
    if m < 0:
        raise InputError("block size must be nonnegative")
    return (m + 1) // 2


def y_reduce(m: int) -> int:
    """Block size after the rounding-down half reduction."""
    if m < 0:
        raise InputError("block size must be nonnegative")
    return m // 2


def z_reduce(k: int, m: int) -> int:
    """Block size after the composite reduction indexed by k >= 1.

    The binary digits of k, applied rightmost first, pick the rounding
    at each stage: 0 rounds up, 1 rounds down.  Defined by the
    recursion z(1) = y, z(2r) = z(r) after x, z(2r+1) = z(r) after y.
    A size-m block dies, z_reduce(k, m) = 0, exactly when k >= m.
    """
    if k < 1:
        raise InputError("reduction index must be at least 1")
    if m < 0:
        raise InputError("block size must be nonnegative")
    if k == 1:
        return y_reduce(m)
    q, digit = divmod(k, 2)
    return z_reduce(q, x_reduce(m) if digit == 0 else y_reduce(m))


@dataclass(frozen=True)
class ReductionLevel:
    """Dimension and per-eigenvalue multiplicities of one reduction stage."""

    k: int
    dim: int
    mults: tuple  # ((lam, mult), ...) sorted


def reduction_dimensions(center_blocks: Sequence, kmax: int) -> list:
    """Survivor counts of the reduction tower over the bounded part.

    At stage k, a block of size m contributes one dimension when m > k.
    Returns one ReductionLevel per k in [0, kmax] with per-eigenvalue
    multiplicities; stage multiplicity of lam is the number of its
    blocks with m > k.
    """
    if kmax < 0:
        raise InputError("kmax must be nonnegative")
    blocks = [Block(*b) for b in center_blocks]
    for b in blocks:
        if re_sign(b.lam, _CENTER_TOL):
            raise InputError("reduction tower is defined on zero-real-part blocks")
    levels = []
    for k in range(kmax + 1):
        per: dict = {}
        for b in blocks:
            if b.m > k:
                per[b.lam] = per.get(b.lam, 0) + b.count
        mults = tuple(
            sorted(per.items(), key=lambda kv: tuple(map(float, lam_parts(kv[0]))))
        )
        levels.append(ReductionLevel(k, sum(per.values()), mults))
    return levels


def block_counts_from_reduction(mults: Sequence[int]) -> tuple:
    """Recover block-size counts of one eigenvalue from its reduction
    multiplicities: count(m) = mult(m-1) - mult(m).

    The input is mult at k = 0, 1, ... and must be non-increasing with a
    trailing zero (the tower has died out).
    """
    ms = list(mults)
    if not ms:
        raise InputError("empty multiplicity sequence")
    if ms[-1] != 0:
        raise InputError("multiplicity sequence must end at zero")
    for i in range(1, len(ms)):
        if ms[i] > ms[i - 1]:
            raise InputError(f"multiplicity sequence rises at stage {i}: {ms}")
    out = []
    for m in range(1, len(ms)):
        c = ms[m - 1] - ms[m]
        if c:
            out.append((m, c))
    return tuple(out)
