"""Spectral extraction for real square matrices.

Matrices are real in both modes (numkit refuses a complex entry).
Exact eigenvalues are Fraction or RationalComplex values.

In exact mode the eigenvalues are LAPACK candidates, certified exactly.
With B = D A, D the lcm of the denominators of A, det(tI - B) is monic
with integer coefficients, so D lam is a Gaussian integer for every
eigenvalue lam with rational real and imaginary parts.  The roots of B
as floats, rounded to the nearest Gaussian integers, give the candidates
and their votes.  The votes name a polynomial f of degree n; when one
exact Krylov sequence of a fixed vector proves f = det(tI - B) and B
non-derogatory (`_cyclic`), each eigenvalue has one Jordan block, sized
by its votes, and its rank sequence n - min(k, m) is derived, not
measured.  Otherwise a candidate is accepted when the integer rank
sequence of its shifted powers drops, and n minus the stable rank is its
multiplicity.  Generalized eigenspaces are independent, so when the
accepted multiplicities sum to n the spectrum is complete; the same
count shows that every sequence has reached its stable rank, so no
power is taken only to see a rank repeat.  When the count falls short
(irrational parts, roots that round away from their eigenvalue, or
entries of B too large for floats) the characteristic polynomial is
factored over the rationals by sympy instead; a root with an irrational
part then raises ExactModeError with a pointer to the float fallback.
Either way the block counts reuse the rank sequences.

In float mode the roots come from LAPACK (`numpy.linalg.eigvals`).
Rounding splits an eigenvalue with a size-k Jordan block into k roots
about (u ||A||)^(1/k) ||A||^(1-1/k) apart (Golub & Wilkinson, SIAM
Rev. 18, 1976), so by default a group of roots may merge within a
radius that grows with the group size, or within an explicit tol.  A group stands
for its mean, which is accurate to O(u ||A||) even for a defective
eigenvalue (Kato, Perturbation Theory for Linear Operators, II.1), and
is kept only when the ranks at its mean confirm its size.  A root
farther than the widest radius from every other root can join no group;
such isolated roots have their rank walks run in one batch, and only
the other roots are grouped one at a time.  Clusters are paired into
conjugates before any counting happens.

Block sizes are never computed from eigenvectors.  The count of size-m
blocks at an eigenvalue is the second difference of the rank sequence of
shifted powers:  count(lam, m) = r(m-1) - 2 r(m) + r(m+1), with the
sequence derived for a certified non-derogatory exact A, and otherwise
from `numkit.power_rank_sequence` (the walks of `integer_rank_walks` on
the cleared B in exact mode, the lockstep walks of `float_rank_sequence`
over many shifts in float mode).  In
exact mode a conjugate pair a +- bi is measured there through the real
quadratic (A - aI)^2 + b^2 I, so the ranks stay over the integers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt
from typing import NamedTuple

import numpy as np

from .errors import DiagnosticError, ExactModeError, InputError, NonConvergenceError
from .numkit import (
    Matrix,
    RationalComplex,
    _check_tol,
    canonical_lam,
    char_poly,
    cleared,
    float_rank_sequence,
    integer_rank_walks,
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
    "CENTER_TOL",
]

DEFAULT_CLUSTER_FACTOR = 1e-8
# float real parts within this of zero count as center (see `invariants`)
CENTER_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# default float clusters: slack over the splitting radius of a Jordan block, and
# the largest group size whose radius still grows with the size
_CLUSTER_SLACK = 100.0
_MAX_CLUSTER_ORDER = 4
# exact candidates: integer entries up to this convert to float exactly
_FLOAT_EXACT = 2**53
# float descriptors: values within this (relative) count as conjugates
_SYMMETRY_TOL = 1e-9
# exact refusals: the remedies they close with (the command line keeps only
# the second when an entry is beyond the float range), and the longest
# integer they print whole
_REMEDIES = "rerun in float mode or supply spectrum blocks directly"
_LONG_DIGITS = 40


class Block(NamedTuple):
    """count blocks of size m at eigenvalue lam."""

    lam: object
    m: int
    count: int


def _sort_key(block: Block):
    re, im = lam_parts(block.lam)
    return (re, im, block.m)


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
    def make(blocks, n=None, exact=None, real_source=None):
        n, out = _merged(blocks, n)
        if exact is None:
            exact = all(
                isinstance(b.lam, (Fraction, RationalComplex)) for b in out
            )
        if real_source is None:
            real_source = _is_conjugate_symmetric(out, exact)
        elif real_source and not _is_conjugate_symmetric(out, exact):
            raise InputError("blocks are not conjugate-symmetric")
        return SpectrumDescriptor(n, out, exact, real_source)

    def center_blocks(self, tol: float = 0.0) -> tuple:
        """Blocks with zero real part; see numkit.re_sign for tol."""
        return tuple(b for b in self.blocks if not re_sign(b.lam, tol))


def _merged(blocks, n):
    """(n, blocks) of a descriptor: the blocks merged by (value, size),
    sorted by (re, im, m), and checked by `_sized`."""
    merged: dict = {}
    for b in blocks:
        b = Block(*b)
        if b.m < 1 or b.count < 1:
            raise InputError("block size and count must be at least 1")
        key = (canonical_lam(b.lam), b.m)
        merged[key] = merged.get(key, 0) + b.count
    return _sized(
        tuple(sorted((Block(lam, m, c) for (lam, m), c in merged.items()), key=_sort_key)),
        n,
    )


def _sized(out: tuple, n):
    """(n, out) for a descriptor's blocks, checked to be nonempty and to
    sum to n when n is given."""
    if not out:
        raise InputError("descriptor needs at least one block")
    total = sum(b.m * b.count for b in out)
    if n is not None and n != total:
        raise InputError(
            f"block sizes sum to {total}, not the declared dimension {n}"
        )
    return total, out


def _is_conjugate_symmetric(blocks, exact):
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
            if abs(float(im)) <= _SYMMETRY_TOL:
                continue
            target = complex(lam).conjugate()
            near = _SYMMETRY_TOL * (1 + abs(target))
            found = False
            for (lam2, m2), c2 in remaining.items():
                if m2 == m and abs(complex(lam2) - target) <= near:
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


# ---- eigenvalues: exact path -------------------------------------------------


def _fraction_sqrt(f: Fraction):
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def _shortened(c: Fraction) -> str:
    """str(c), each integer in it over _LONG_DIGITS digits cut to its
    first and last digits and its length."""
    return re.sub(r"\d{%d,}" % (_LONG_DIGITS + 1),
                  lambda m: f"{m[0][:6]}...{m[0][-6:]} ({len(m[0])} digits)", str(c))


def _eigenvalues_exact(a: Matrix):
    """Eigenvalues of an exact A by factoring char_poly over the rationals
    (sympy); the fallback of `_walked_spectrum`."""
    import sympy

    poly = char_poly(a)
    descending = [sympy.Rational(c.numerator, c.denominator)
                  for c in reversed(poly.coeffs)]
    _, factors = sympy.Poly(descending, sympy.Symbol("t"), domain="QQ").factor_list()
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
                    f"t^2 + ({_shortened(b)})t + ({_shortened(c)}) whose roots "
                    f"have irrational parts; {_REMEDIES}"
                )
            re = -b / 2
            found.append((RationalComplex(re, s / 2), mult))
            found.append((RationalComplex(re, -s / 2), mult))
        else:
            raise ExactModeError(
                f"characteristic polynomial has an irreducible factor of degree {deg}; "
                f"{_REMEDIES}"
            )
    found.sort(key=lambda p: lam_parts(p[0]))
    return tuple(found)


def _candidates(b: list) -> list:
    """((x, y), votes) per Gaussian integer x + yi, y >= 0, nearest to a
    LAPACK root of the integer matrix B, one per conjugate pair, with
    votes the number of roots nearest to it (a pair's counted on both
    sides), most votes first; none when an entry of B is too large to
    convert exactly."""
    if max(abs(x) for row in b for x in row) > _FLOAT_EXACT:
        return []
    try:
        roots = np.linalg.eigvals(np.array(b, dtype=float))
    except np.linalg.LinAlgError:
        return []
    if not np.isfinite(roots).all():
        return []
    votes = Counter((round(z.real), abs(round(z.imag))) for z in roots.tolist())
    return votes.most_common()


def _start_vector(n: int) -> list:
    """The fixed start vector v = (1, 3, 9, ..., 3^(n-1)) of `_cyclic`.

    A non-derogatory B has v cyclic unless w . v = 0 for a left
    eigenvector w.  Scaled to Gaussian integers, such a w has 3 as a root
    of sum w(i) t^i, so 3 divides its first nonzero entry: the small left
    eigenvectors of integer matrices rarely qualify.
    """
    return [3**i for i in range(n)]


def _cyclic(b: list, candidates: list) -> bool:
    """Whether the votes of `_candidates` are proven to give the
    characteristic polynomial of the integer matrix B, and B to be
    non-derogatory (one Jordan block per eigenvalue).

    The votes name f = prod (t - x)^votes prod ((t - x)^2 + y^2)^(votes/2),
    a pair's votes counting both sides; they must be even for a pair and
    sum to n, so that deg f = n.  From v = `_start_vector(n)` the sequence
    e(k+1) = (B - x) e(k) applies one linear factor a step, and a
    quadratic one takes two: (B - x) e(k), then (B - x) e(k+1) + y^2 e(k).
    Each e(k) is B^k v plus a combination of the earlier ones, so
    e(0) ... e(n-1) span the Krylov space of v, and e(n) = f(B) v.  When
    e(n) is exactly 0 and e(0) ... e(n-1) are independent modulo a prime
    (their determinant is then nonzero over the integers), v is cyclic:
    its minimal polynomial is det(tI - B), has degree n and divides f, so
    it is f (Gantmacher, The Theory of Matrices I, ch. VII).  Any other
    outcome proves nothing and answers False.  Zero entries of B are
    skipped, and no power of B is formed.
    """
    n = len(b)
    if sum(votes for _, votes in candidates) != n or any(
            y and votes % 2 for (_, y), votes in candidates):
        return False
    nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in b]

    def shifted(e, x):  # (B - x) e
        return [sum(c * e[j] for j, c in row) - x * ei for row, ei in zip(nonzero, e)]

    seq = [_start_vector(n)]
    for (x, y), votes in candidates:
        for _ in range(votes // 2 if y else votes):
            seq.append(shifted(seq[-1], x))
            if y:
                seq.append([p + y * y * q for p, q in zip(shifted(seq[-1], x), seq[-2])])
    return not any(seq.pop()) and _independent_mod_p(seq)


# the independence check of `_cyclic` runs modulo this prime, 2^61 - 1
_PRIME = 2**61 - 1


def _independent_mod_p(vectors: list) -> bool:
    """Whether n integer vectors of length n are independent modulo
    _PRIME, by Gaussian elimination over the field of integers mod p."""
    rows = [[x % _PRIME for x in v] for v in vectors]
    while rows:
        piv = next((row for row in rows if row[0]), None)
        if piv is None:
            return False
        inv = pow(piv[0], -1, _PRIME)
        rows = [[(x - c * y) % _PRIME for x, y in zip(row[1:], piv[1:])]
                for row in rows if row is not piv for c in (row[0] * inv,)]
    return True


def _exact_spectrum(a: Matrix) -> list:
    """(value, multiplicity, rank sequence) per eigenvalue of an exact A,
    sorted by (re, im); a conjugate pair shares one sequence.

    With B = D A cleared of denominators, each candidate z = x + yi from
    `_candidates` stands for lam = z / D.  The votes are put to `_cyclic`
    first.  When it proves that they give det(tI - B) and that B is
    non-derogatory, each lam has one Jordan block, of size m its vote
    count (half of it for a pair), and its rank sequence
    r(k) = n - min(k, m) is derived, not measured: no rank, no power and
    no B^2 is taken.  Otherwise the rank walks of `_walked_spectrum`
    measure the sequences.
    """
    n = a.n
    d, b = cleared(a)
    candidates = _candidates(b)
    cands = [(RationalComplex(Fraction(x, d), Fraction(y, d)) if y else Fraction(x, d),
              votes) for (x, y), votes in candidates]
    if _cyclic(b, candidates):
        found = []
        for lam, votes in cands:
            m = votes // 2 if lam_parts(lam)[1] else votes
            found.append((lam, m, [n - min(k, m) for k in range(n + 1)]))
    else:
        found = _walked_spectrum(a, d, b, cands)
    found += [(lam.conjugate(), mult, ranks) for lam, mult, ranks in found
              if lam_parts(lam)[1]]
    return sorted(found, key=lambda p: lam_parts(p[0]))


def _walked_spectrum(a: Matrix, d: int, b: list, cands: list) -> list:
    """(value, multiplicity, rank sequence) per eigenvalue of an exact A
    with nonnegative imaginary part, from rank walks at the candidates
    (lam, votes) of `_exact_spectrum`, B = D A.

    Each candidate's rank walk (`numkit.integer_rank_walks`, all sharing
    one B^2) measures r(k) = rank (A - lam I)^k one power at a time.  The
    nullity n - r(k) never falls and never exceeds the multiplicity of
    lam, and since generalized eigenspaces are independent the
    multiplicities of distinct values sum to at most n.  So once the
    nullities measured at the candidates sum to n (a pair counting
    twice), every walk has reached its multiplicity: the spectrum is
    certified, and each sequence is filled with its last rank without a
    further power to see it repeat.  Until then the walks are deepened in
    the candidates' vote order: one rank at every candidate, then more
    where the nullity is below the votes, then wherever the rank has not
    yet repeated.  The votes only order the work; the count alone
    certifies.  When it falls short, the eigenvalues come from
    `_eigenvalues_exact` instead (which raises ExactModeError on
    irrational parts), and each of their walks, those measured so far
    included, runs until its rank repeats.
    """
    n = a.n
    walk_at = integer_rank_walks(d, b)
    walks = {}  # lam -> its rank walk, made when first deepened
    total = 0  # nullity measured over all walks, a pair counting twice
    for lam, _ in cands:
        if total < n:
            walk = walks[lam] = walk_at(lam)
            total += (1 + walk.pair) * walk.deepen()
    for wanted in (lambda walk, votes: (1 + walk.pair) * (n - walk.ranks[-1]) < votes,
                   lambda walk, votes: True):
        for (_, votes), walk in zip(cands, walks.values()):
            while total < n and not walk.stable() and wanted(walk, votes):
                total += (1 + walk.pair) * walk.deepen()
    if total == n:
        return [(lam, n - walk.ranks[-1], walk.filled(n))
                for lam, walk in walks.items() if walk.ranks[-1] < n]
    found = []
    for lam, mult in _eigenvalues_exact(a):
        if lam_parts(lam)[1] >= 0:
            walk = walks.get(lam) or walk_at(lam)
            while not walk.stable():
                walk.deepen()
            found.append((lam, mult, walk.filled(n)))
    return found


# ---- eigenvalues: float path -------------------------------------------------


def _float_clusters(a: Matrix, tol: float | None):
    """Clusters of the LAPACK roots of a float A; (mean, size, radius,
    rank sequence at the mean) per cluster, in the (re, im) order of
    their first roots.

    A group of k roots may merge when its spread (largest pairwise
    distance) is at most limit(k): tol when it is given, else
    100 (u s)^(1/k) s^(1-1/k) = 100 u^(1/k) s with s = ||A||_2 and k
    capped at _MAX_CLUSTER_ORDER, beyond which it nears s.  A root
    farther than the widest limit from every other root is isolated: a
    group of two or more holding it spreads beyond every limit(k), so it
    is a cluster of its own with the root as mean, and the rank walks of
    all isolated roots run in one batch (`numkit.float_rank_sequence`),
    one root of each conjugate pair measured for both.  On the other
    roots, taken in (re, im) order, the first one left seeds a group
    grown by its nearest remaining roots.  Of the sizes that fit, the
    largest whose rank sequence at the group mean confirms that
    multiplicity is kept, so distinct eigenvalues that only lie within
    the limit are measured one by one; a lone root is kept unconfirmed,
    for the block counts to check.  Every walk runs until its rank
    repeats: unlike exact walks, these are not cut short once the
    nullities sum to n, since LAPACK can scatter the roots of one large
    Jordan block (J_12(-1/2) under a random rotation) beyond every
    limit, each root then showing nullity 1 at k = 1, and only the
    second power exposes the block.  A mean whose real part is above
    CENTER_TOL but within 100 u s, where rounding hides its sign, raises
    DiagnosticError.  A tol that is not a positive finite number raises
    InputError.
    """
    if tol is not None and not (tol > 0 and isfinite(tol)):
        raise InputError("float mode needs a positive finite tolerance")
    arr = a.to_numpy()
    try:
        roots = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from None
    n = a.n
    scale = float(np.linalg.norm(arr, 2))
    order = np.minimum(np.arange(1, n + 1), _MAX_CLUSTER_ORDER)
    limit = (_CLUSTER_SLACK * _EPS ** (1.0 / order) * scale if tol is None
             else np.full(n, float(tol)))
    axis = _CLUSTER_SLACK * _EPS * scale
    dist = np.abs(roots[:, None] - roots[None, :])
    isolated = ((dist > limit[-1]) | np.eye(n, dtype=bool)).all(axis=1)
    by_parts = sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))
    # a real A has equal ranks at conjugate shifts: measure one of each pair
    shifts = []
    for i in by_parts:
        if isolated[i] and complex(roots[i]).conjugate() not in shifts:
            shifts.append(complex(roots[i]))
    measured = dict(zip(shifts, float_rank_sequence(arr, scale, shifts, n, tol)))

    def ranks_at(mean):
        if mean not in measured and mean.conjugate() not in measured:
            measured[mean] = float_rank_sequence(arr, scale, [mean], n, tol)[0]
        return measured.get(mean.conjugate(), measured.get(mean))

    found = {}  # first root -> cluster
    for i in np.flatnonzero(isolated).tolist():
        root = complex(roots[i])
        found[i] = (root, 1, float(limit[0]), ranks_at(root))
    left = [i for i in by_parts if not isolated[i]]
    while left:
        idx = np.array(left)
        near = idx[np.argsort(dist[idx[0], idx], kind="stable")]
        spread = np.maximum.accumulate(np.tril(dist[np.ix_(near, near)]).max(axis=1))
        for size in np.flatnonzero(spread <= limit[: len(near)])[::-1] + 1:
            mean = complex(roots[near[:size]].mean())
            ranks = ranks_at(mean)
            if n - ranks[-1] == size:
                break
        found[left[0]] = (mean, int(size), float(limit[size - 1]), ranks)
        taken = set(near[:size].tolist())
        left = [i for i in left if i not in taken]
    clusters = [found[i] for i in by_parts if i in found]
    for mean, *_ in clusters:
        if CENTER_TOL < abs(mean.real) <= axis:
            raise DiagnosticError(
                f"the real part of {mean:.6g} is within rounding ({axis:.2g}) "
                "of the imaginary axis: center or hyperbolic cannot be told"
            )
    return clusters


def _pair_conjugates(clusters):
    """Symmetrize clusters of a real matrix into conjugate pairs; (value,
    multiplicity, rank sequence) each, sorted by (re, im)."""
    reals, pos, neg = [], [], []
    for lam, mult, radius, ranks in clusters:
        if abs(lam.imag) <= radius:
            reals.append((lam.real, mult, ranks))
        elif lam.imag > 0:
            pos.append((lam, mult, radius, ranks))
        else:
            neg.append((lam, mult))
    if len(pos) != len(neg):
        raise DiagnosticError(
            "conjugate pairing failed: unbalanced cluster counts; widen tol"
        )
    paired = []
    for lam, mult, radius, ranks in pos:
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
        paired.append((sym, mult, ranks))
        paired.append((sym.conjugate(), mult, ranks))
    out = reals + paired
    out.sort(key=lambda p: (p[0].real, p[0].imag))
    return out


def eigenvalues(a: Matrix, tol: float | None = None):
    """Eigenvalues of a square matrix with algebraic multiplicities.

    Returns a tuple of (value, multiplicity) sorted by (re, im).  Every
    `Matrix` is real (numkit refuses a complex entry), so non-real values
    come in conjugate pairs.

    Exact matrices take no tolerance (a nonzero tol raises InputError
    before any work) and give Fraction or RationalComplex values or raise
    ExactModeError.  The LAPACK roots of B = D A, with D the lcm of the
    denominators of A, rounded to the nearest Gaussian integers z, give
    the candidates z / D and their votes.  When one exact Krylov sequence
    proves that the votes give det(tI - B) and that B is non-derogatory,
    each candidate is an eigenvalue with one Jordan block, its
    multiplicity m is its vote count (half of it for a pair), and its
    rank sequence n - min(k, m) is derived, not measured: no rank is
    taken.  Otherwise a candidate is accepted when the exact rank
    sequence of its shifted powers drops, and its multiplicity is n
    minus the stable rank.  When the accepted multiplicities sum to n,
    that is the whole spectrum.  The sequences are measured a power at
    a time and all stop as soon as the nullities measured so far sum to
    n, which proves each of them stable; pairs share one B^2.  When
    they fall short (an eigenvalue with irrational parts, a defective
    one whose roots round away from it, or an entry of B beyond 2^53)
    the characteristic polynomial is factored over the rationals by
    sympy (see `_exact_spectrum` and `_walked_spectrum`).

    Float matrices give the means of clusters of LAPACK roots,
    symmetrized into conjugate pairs.  A group merges when its spread is
    at most tol, or by default a limit that grows with the group size,
    and only when the ranks at its mean confirm its size (see
    `_float_clusters`).
    """
    return tuple((lam, mult) for lam, mult, _ in _spectrum(a, tol))


def _spectrum(a: Matrix, tol):
    """(value, multiplicity, rank sequence) per eigenvalue of a real A."""
    if a.mode == "exact":
        _check_tol(a, tol)
        return _exact_spectrum(a)
    return _pair_conjugates(_float_clusters(a, tol))


# ---- real-part split ---------------------------------------------------------


def split_dims(eigs, tol: float | None = None) -> SpectralSplit:
    """Census of algebraic multiplicity by the sign of the real part.

    Exact values use exact sign; float values compare |re| against tol,
    which defaults to 1e-8 * (1 + largest float eigenvalue magnitude).
    Exact values never use tol, so they do not enter the default (and an
    exact value beyond the float range is never converted).  A tol that
    is NaN or negative raises InputError.
    """
    eigs = list(eigs)
    if tol is None:
        parts = [lam_parts(l) for l, _ in eigs]
        largest = max(
            (abs(complex(re, im)) for re, im in parts if not isinstance(re, Fraction)),
            default=0.0,
        )
        tol = DEFAULT_CLUSTER_FACTOR * (1.0 + largest)
    elif not tol >= 0:  # NaN too
        raise InputError("tolerance must be a nonnegative number")
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
    that do not sum to the multiplicity raise DiagnosticError.  A lam at
    which nothing drops raises InputError for an exact A, where lam is
    certainly not an eigenvalue, and DiagnosticError for a float A, where
    the ranks under the tolerance refuse to confirm it.
    """
    return _block_counts(power_rank_sequence(a, lam, a.n, tol), lam, a.mode)


def _block_counts(ranks: list, lam, mode: str):
    """jordan_counts from the rank sequence at lam, up to k = n."""
    n, stable = ranks[0], ranks[-1]
    mult = n - stable
    if mult == 0:
        error = InputError if mode == "exact" else DiagnosticError
        raise error(f"{lam} is not an eigenvalue: shifted matrix has full rank")
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

    Block counts are read off the rank sequences the eigenvalues were
    confirmed or measured with, on the nonnegative-imaginary side, and
    mirrored, so the result is conjugate-symmetric by construction.  The
    eigenvalues come sorted by (re, im) and distinct, and each one's
    counts by size, so the blocks are laid out in the (re, im, m) order
    of `SpectrumDescriptor.make` without another sort; they are
    size-checked as make does it, without make's symmetry scan of
    caller-supplied blocks.  An exact A takes no tolerance.
    """
    eigs = _spectrum(a, tol)
    counts = {}
    for lam, mult, ranks in eigs:
        if lam_parts(lam)[1] < 0:
            continue
        counts[lam] = _block_counts(ranks, lam, a.mode)
        measured = sum(m * c for m, c in counts[lam])
        if measured != mult:
            raise DiagnosticError(
                f"block sizes at {lam} sum to {measured}, expected multiplicity {mult}"
            )
    blocks = []
    for lam, _, _ in eigs:
        value = canonical_lam(lam)
        held = counts.get(lam) or counts[lam.conjugate()]
        blocks.extend(Block(value, m, c) for m, c in held)
    return SpectrumDescriptor(*_sized(tuple(blocks), a.n), a.mode == "exact", True)
