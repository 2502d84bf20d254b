"""Spectral extraction for real square matrices.

Matrices are real in both modes (numkit refuses a complex entry).
Exact eigenvalues are Fraction or RationalComplex values.

In exact mode the eigenvalues are LAPACK candidates, certified exactly.
With B = D A, D the lcm of the denominators of A, det(tI - B) is monic
with integer coefficients, so D lam is a Gaussian integer for every
eigenvalue lam with rational real and imaginary parts.  The roots of B
as floats, rounded to the nearest Gaussian integers, give the candidates
and their votes.  The votes name a polynomial f of degree n; when the
Krylov sequence of a fixed vector v, run modulo small primes against an
a-priori bound, proves f(B) v = 0 and no proper divisor of f kills v,
then f = det(tI - B) and B is non-derogatory (`_cyclic`): each
eigenvalue has one Jordan block, sized by its votes, and its rank
sequence n - min(k, m) is derived, not measured.  Otherwise a candidate
is accepted when the integer rank sequence of its shifted powers drops,
and n minus the stable rank is its multiplicity.  Generalized
eigenspaces are independent, so when the accepted multiplicities sum
to n the spectrum is complete; the same count shows that every sequence
has reached its stable rank, so no power is taken only to see a rank
repeat.  When the count falls short
(irrational parts, roots that round away from their eigenvalue, or
entries of B too large for floats) the characteristic polynomial is
factored over the rationals by sympy instead; a root with an irrational
part then raises ExactModeError with a pointer to the float fallback.
Either way the block counts reuse the rank sequences.

In float mode the roots come from LAPACK: with their eigenvectors
from `numpy.linalg.eig` at the default tolerance, alone from
`numpy.linalg.eigvals` under an explicit one.  Rounding splits an
eigenvalue with a size-k Jordan block into k roots about (u ||A||)^(1/k) ||A||^(1-1/k) apart
(Golub & Wilkinson, SIAM Rev. 18, 1976), so by default a group of
roots may merge within a radius that grows with the group size, or
within an explicit tol.  A group stands for its mean, which is
accurate to O(u ||A||) even for a defective eigenvalue (Kato,
Perturbation Theory for Linear Operators, II.1), and is kept only
when the ranks at its mean confirm its size.  A root
farther than the widest radius from every other root can join no group;
at the default tolerance such an isolated root is proven simple when a
Gershgorin disk of the eigenvector similarity, widened by rigorous
rounding bounds, holds it and no other eigenvalue (`_certified_simple`),
and its rank sequence is then derived, not measured.  The other
isolated roots are measured one walk each, and only the other roots
are grouped one at a time.  LAPACK returns the non-real roots of a real
A as exact conjugates, so each cluster is settled together with its
mirror, the cluster of the conjugate roots, and the clusters come in
conjugate pairs before any counting happens.

Block sizes are never read off eigenvectors, which serve only as the
similarity of the float certificate.  The count of size-m
blocks at an eigenvalue is the second difference of the rank sequence of
shifted powers:  count(lam, m) = r(m-1) - 2 r(m) + r(m+1), with the
sequence derived for a certified non-derogatory exact A, and otherwise
from `numkit.power_rank_sequence`, whose one walk loop runs on the
integer rows of the cleared B in exact mode (`integer_rank_walks`) and
on the scaled ndarray in float mode (`float_rank_sequence`, one shift a
walk).  In exact mode a conjugate pair a +- bi is measured there
through the real quadratic (A - aI)^2 + b^2 I, so the ranks stay over
the integers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import frexp, hypot, isfinite, isqrt
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from .errors import DiagnosticError, ExactModeError, InputError, NonConvergenceError
from .numkit import (
    Matrix,
    RationalComplex,
    _check_tol,
    canonical_lam,
    cleared,
    float_rank_sequence,
    integer_char_poly,
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
# simple-root certificate: an absolute bound above any subnormal rounding
# of its products, which act on a matrix scaled to 2-norm at most 1
_UNDERFLOW = 2.0**-1000
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


def _shortened(c) -> str:
    """str(c), each integer in it over _LONG_DIGITS digits cut to its
    first and last digits and its length."""
    return re.sub(r"\d{%d,}" % (_LONG_DIGITS + 1),
                  lambda m: f"{m[0][:6]}...{m[0][-6:]} ({len(m[0])} digits)", str(c))


def _eigenvalues_exact(d: int, b: list):
    """Eigenvalues of an exact A, from D and B = D A as `cleared` gives
    them, by factoring det(tI - A) over the rationals (sympy): coefficient
    k is that of det(tI - B) over D^(n-k).  The fallback of `_walked_spectrum`."""
    import sympy

    descending = [sympy.Rational(c, d**k) for k, c in enumerate(reversed(integer_char_poly(b)))]
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
    sides), most votes first; none when an entry of B is beyond 2^53 in
    size, where floats stop being exact.  B, an int64 array or rows read
    into one, is both checked and converted."""
    try:
        b = np.asarray(b, dtype=np.int64)
    except OverflowError:  # beyond int64, so beyond 2^53 too
        return []
    # max and min, not abs: abs(-2^63) wraps to itself in int64
    if b.max() > _FLOAT_EXACT or b.min() < -_FLOAT_EXACT:
        return []
    try:
        roots = np.linalg.eigvals(b.astype(float))
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


# `_cyclic` works modulo these primes below 2^24, largest first: products of
# residues stay below 2^48, so an n-term sum of them is exact in int64 for
# n < 2^15; together they exceed 2^1535
_MODULI = tuple(2**24 - c for c in (
    3, 17, 33, 63, 75, 77, 89, 95, 117, 167, 189, 227, 243, 245, 249, 255,
    275, 279, 285, 297, 315, 317, 347, 359, 377, 383, 399, 453, 485, 497,
    503, 525, 527, 537, 557, 585, 593, 597, 609, 623, 635, 669, 695, 725,
    735, 747, 765, 815, 825, 837, 845, 849, 873, 879, 899, 903, 927, 999,
    1005, 1025, 1029, 1043, 1047, 1049))


def _cyclic(b: list, candidates: list) -> bool:
    """Whether the votes of `_candidates` are proven to give the
    characteristic polynomial of the integer matrix B, and B to be
    non-derogatory (one Jordan block per eigenvalue).

    The votes name f = prod q_i^(m_i) over distinct factors
    q_i = t - x, or (t - x)^2 + y^2 for a pair, with m_i the votes (half
    of them for a pair); a pair's votes must be even and all sum to n,
    so that deg f = n.  The q_i are irreducible over the rationals and
    distinct.  With v = `_start_vector(n)` and rho the largest row sum
    of |B|, a linear factor multiplies the largest entry of a vector at
    most by rho + |x| and a quadratic one by (rho + |x|)^2 + y^2, so
    ||f(B) v|| has an a-priori bound.  f(B) v is computed modulo the
    fewest `_MODULI` whose product exceeds that bound (at least one), all
    of them in one stacked product a step; when it is 0 modulo each, it
    is 0 over the integers (Chinese remaindering; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 5).  Then the minimal
    polynomial of v divides f, and if it is not f it divides some f/q_i.
    So when every (f/q_i)(B) v is nonzero modulo the first modulus (one
    block of columns, column i skipping one copy of q_i), v has minimal
    polynomial f of degree n: it is cyclic, f = det(tI - B) and B is
    non-derogatory (Gantmacher, The Theory of Matrices I, ch. VII).  Any
    other outcome proves nothing and answers False, as do n >= 2^10 and
    a bound beyond the product of `_MODULI`.  B (int64 array or rows)
    must have no entry beyond 2^53 in size, or int64 row sums for rho
    could wrap: `_exact_spectrum`, the only caller, passes only votes of
    `_candidates`, which gives none for such a B.
    """
    n = len(b)
    b = np.asarray(b, dtype=np.int64)
    if (n >= 2**10 or sum(votes for _, votes in candidates) != n
            or any(y and votes % 2 for (_, y), votes in candidates)):
        return False
    v = _start_vector(n)
    rho = int(np.abs(b).sum(axis=1).max())
    bound = max(map(abs, v))
    for (x, y), votes in candidates:
        step = rho + abs(x)
        bound *= (step * step + y * y) ** (votes // 2) if y else step**votes
    size = next((k for k, p in enumerate(accumulate(_MODULI, mul), 1) if p > bound), 0)
    if not size:
        return False
    moduli = _MODULI[:size]
    q = np.array(moduli, dtype=np.int64)[:, None, None]
    shifted = b % q - np.array(  # B - x, per candidate
        [[x % p for p in moduli] for (x, _), _ in candidates]
    )[..., None, None] * np.eye(n, dtype=np.int64)
    squares = np.array([[y * y % p for p in moduli] for (_, y), _ in candidates])[..., None, None]
    e = np.array([[c % p for c in v] for p in moduli])[..., None]  # f(B) v
    s = e[:1].repeat(len(candidates), axis=2)  # (f/q_i)(B) v in column i

    def factor(e, f, y2, q):  # q_i(B) e modulo q, with f = B - x and y2 = y^2
        g = f @ e % q
        return (f @ g + y2 * e) % q if y else g

    for i, ((_, y), votes) in enumerate(candidates):
        full, first = (shifted[i], squares[i], q), (shifted[i, :1], squares[i, :1], q[:1])
        skipped = s[..., i].copy()
        for copy in range(votes // 2 if y else votes):
            e, s = factor(e, *full), factor(s, *first)
            if not copy:
                s[..., i] = skipped
    return not e.any() and s.any(axis=1).all()


def _exact_spectrum(a: Matrix) -> list:
    """(value, multiplicity, rank sequence) per eigenvalue of an exact A,
    sorted by (re, im); a conjugate pair shares one sequence.

    With B = D A cleared of denominators, every eigenvalue is carried as
    its Gaussian integer D lam = x + yi until the values are built, once
    each, at the end: a conjugate is (x, -y), and since D > 0 the order
    of (x, y) is the order of (re, im), so one sort of integer keys
    orders the certified, the walked and the factored spectrum alike.
    Each candidate z = x + yi from `_candidates` stands for lam = z / D.
    The votes are put to `_cyclic` first.  When it proves that they give
    det(tI - B) and that B is non-derogatory, each lam has one Jordan
    block, of size m its vote count (half of it for a pair), and its
    rank sequence r(k) = n - min(k, m) is derived, not measured: no
    rank, no power and no B^2 is taken.  Otherwise the rank walks of
    `_walked_spectrum` measure the sequences.
    """
    n = a.n
    d, b = cleared(a)
    try:
        b64 = np.asarray(b, dtype=np.int64)  # read by _candidates and _cyclic
        candidates = _candidates(b64)
    except OverflowError:  # beyond int64, so beyond 2^53 too
        candidates = []
    if candidates and _cyclic(b64, candidates):
        found = []
        for z, votes in candidates:
            m = votes // 2 if z[1] else votes
            # r(k) = n - min(k, m) for k = 0, ..., n
            found.append((z, m, [*range(n, n - m, -1)] + [n - m] * (n + 1 - m)))
    else:
        found = _walked_spectrum(d, b, candidates)
    found += [((x, -y), mult, ranks) for (x, y), mult, ranks in found if y]
    found.sort(key=itemgetter(0))
    return [(RationalComplex(Fraction(x, d), Fraction(y, d)) if y else Fraction(x, d),
             mult, ranks) for (x, y), mult, ranks in found]


def _walked_spectrum(d: int, b: list, candidates: list) -> list:
    """(D lam as (x, y), multiplicity, rank sequence) per eigenvalue lam
    of an exact A with y >= 0, from rank walks at the `_candidates`
    ((x, y), votes) of B = D A.

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
    certifies.  When it falls short, `_eigenvalues_exact` factors the
    characteristic polynomial of the same D and B instead (raising
    ExactModeError on irrational parts); each value is keyed by D lam, a
    Gaussian integer (see `numkit.integer_rank_walks`), and each of their
    walks, those measured so far included, runs until its rank repeats.
    """
    n = len(b)
    walk_at = integer_rank_walks(d, b)
    walks = {}  # D lam as (x, y) -> its rank walk, made when first deepened
    total = 0  # nullity measured over all walks, a pair counting twice
    for z, _ in candidates:
        if total < n:
            walk = walks[z] = walk_at(*z)
            total += (1 + walk.pair) * walk.deepen()
    for wanted in (lambda walk, votes: (1 + walk.pair) * (n - walk.ranks[-1]) < votes,
                   lambda walk, votes: True):
        for (_, votes), walk in zip(candidates, walks.values()):
            while total < n and not walk.stable() and wanted(walk, votes):
                total += (1 + walk.pair) * walk.deepen()
    if total == n:
        return [(z, n - walk.ranks[-1], walk.filled(n))
                for z, walk in walks.items() if walk.ranks[-1] < n]
    found = []
    for lam, mult in _eigenvalues_exact(d, b):
        re, im = lam_parts(lam)
        if im >= 0:
            z = int(d * re), int(d * im)
            found.append((z, mult, (walks.get(z) or walk_at(*z)).run(n)))
    return found


# ---- eigenvalues: float path -------------------------------------------------


def _conjugate_order(roots: np.ndarray) -> tuple:
    """(roots in (re, im) order, mirror), mirror[i] the index there of the
    conjugate of root i.  Both orders are stable sorts (np.lexsort sorts
    on its last key first), so equal roots keep LAPACK's order and a
    real root is its own mirror.  A root with no exact conjugate raises
    DiagnosticError naming the first such root in (re, im) order."""
    roots = roots[np.lexsort((roots.imag, roots.real))]
    mirror = np.lexsort((-roots.imag, roots.real))
    unpaired = np.flatnonzero(roots[mirror] != roots.conj())
    if unpaired.size:
        raise DiagnosticError(
            f"the LAPACK root {roots[unpaired[0]].item():.6g} has no exact conjugate")
    return roots, mirror.tolist()


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, ch. 3)."""
    return k * _EPS / 2 / (1 - k * _EPS / 2)


def _certified_simple(arr: np.ndarray, scale: float, roots: np.ndarray,
                      vecs: np.ndarray) -> np.ndarray:
    """Mask of the LAPACK roots proven to be simple eigenvalues of A.

    A' = 2^-e A, with 2^e > ||A||_2, is exact; so is 2^-e z for each root
    z (otherwise nothing is proven).  With X = inv(V) for the computed
    eigenvectors V and E = I - X V, ||E||_inf <= delta < 1 makes V
    invertible and V^-1 A' V = (I - E)^-1 X A' V, which differs from
    C = X A' V by at most delta / (1 - delta) ||C||_inf per row.
    M = fl(fl(X A') V) differs from C entrywise by at most g (|P| |V| +
    |X| |A'| |V|), P = fl(X A'), with g = 2 gamma_{2n+2} bounding a
    complex inner product of length n.  Every Gershgorin disk of
    V^-1 A' V then lies in the disk centered M_ii with the off-diagonal
    row sum of |M| widened by those two terms; the rounding of the bound
    itself, all sums and products of nonnegative numbers, is covered by
    the factor `grow`.  A disk disjoint from every other holds exactly
    one eigenvalue (Gershgorin), so a root inside such a disk is simple
    (Rump, Acta Numerica 19, 2010).  Anything non-finite, or a singular
    V, proves nothing.
    """
    n = len(roots)
    none = np.zeros(n, dtype=bool)
    e = frexp(scale)[1]
    g, grow = 2 * _gamma(2 * n + 2), 1 + _gamma(8 * n + 64)
    with np.errstate(all="ignore"):
        parts = (arr, roots.real, roots.imag)
        a, re, im = scaled = [np.ldexp(part, -e) for part in parts]
        if not all((np.ldexp(s, e) == part).all() for s, part in zip(scaled, parts)):
            return none
        try:
            x = np.linalg.inv(vecs)
        except np.linalg.LinAlgError:
            return none
        p = x @ a
        m = p @ vecs
        ax, col = np.abs(x), np.abs(vecs).sum(axis=1)
        f = g * (np.abs(p) @ col + ax @ (np.abs(a) @ col))
        delta = (np.abs(np.eye(n) - x @ vecs).sum(axis=1) + g * (ax @ col)).max() * grow
        delta += _UNDERFLOW
        am = np.abs(m)
        norm = am.sum(axis=1).max() + f.max()
        np.fill_diagonal(am, 0.0)
        r = (am.sum(axis=1) + f + delta / (1 - delta) * norm) * grow + _UNDERFLOW
        c = m.diagonal()
        apart = np.abs(c[:, None] - c[None, :]) > (r[:, None] + r[None, :]) * grow
        np.fill_diagonal(apart, True)
        held = np.hypot(re - c.real, im - c.imag) * grow <= r
        return apart.all(axis=1) & held & (delta < 1) & np.isfinite(r)


def _float_clusters(a: Matrix, tol: float | None):
    """Clusters of the LAPACK roots of a float A; (mean, size, radius,
    rank sequence at the mean) per cluster, in the (re, im) order of
    their first roots.

    LAPACK returns the non-real roots of a real A as exact conjugates,
    and each root is paired with its conjugate once (a root with none
    raises DiagnosticError).  A group of k roots may merge when its
    spread (largest pairwise distance) is at most limit(k): tol when it
    is given, else 100 (u s)^(1/k) s^(1-1/k) = 100 u^(1/k) s with
    s = ||A||_2 and k capped at _MAX_CLUSTER_ORDER, beyond which it nears
    s.  A root farther than the widest limit from every other root is
    isolated: a group of two or more holding it spreads beyond every
    limit(k), so it is a cluster of its own with the root as mean.  At
    the default tol, an isolated root that `_certified_simple` proves
    simple, with its conjugate, gets the derived rank sequence
    [n, n - 1, n - 1, ...]; an explicit tol proves nothing, since there
    the ranks under that tol define the answer.  Every other rank
    sequence, at an isolated root or a group mean, is one walk of
    `numkit.float_rank_sequence`, taken only when the shift's conjugate
    has none, so an isolated pair is measured at its root with im <= 0.
    On the other roots, taken in (re, im) order, the first one left
    (im <= 0, since the roots left are closed under conjugation) seeds a
    group grown by its nearest remaining roots.  Of the sizes that fit,
    the largest whose rank sequence at the group mean confirms that
    multiplicity is kept, so distinct eigenvalues that only lie within
    the limit are measured one by one; a lone root is kept unconfirmed,
    for the block counts to check.  The conjugates of the kept roots
    form its mirror cluster, settled in the same step with the conjugate
    mean and the same size, radius and ranks; a cluster that overlaps its
    mirror without equalling it raises DiagnosticError.  Every walk runs
    until its rank repeats or k = n: unlike exact walks, these are not
    cut short once the nullities sum to n, since LAPACK can scatter the
    roots of one large Jordan block (J_12(-1/2) under a random rotation)
    beyond every limit, each root then showing nullity 1 at k = 1, and
    only the second power exposes the block.  A mean whose real part is above
    CENTER_TOL but within 100 u s, where rounding hides its sign, raises
    DiagnosticError, and so does a root distance (bounded by the spread
    of the real and imaginary parts) or ||A||_2 beyond the float range,
    before any distance is formed.  A tol that is not a positive finite
    number raises InputError.
    """
    if tol is not None and not (tol > 0 and isfinite(tol)):
        raise InputError("float mode needs a positive finite tolerance")
    arr = a.to_numpy()
    try:
        # only the certificate, run at the default tol, reads eigenvectors;
        # LAPACK gives the same roots either way
        if tol is None:
            roots, vecs = np.linalg.eig(arr)
        else:
            roots = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from None
    # ||A||_2, the largest singular value, as np.linalg.norm(arr, 2) reads it
    # from the same LAPACK call, without its axis handling
    scale = float(np.linalg.svd(arr, compute_uv=False)[0])
    spread = [max(part) - min(part) for part in (roots.real.tolist(), roots.imag.tolist())]
    if not isfinite(hypot(*spread) + scale):
        raise DiagnosticError("the root distances or the norm of A overflow the "
                              f"float range (||A||_2 = {scale:.3g})")
    n = a.n
    lapack = roots
    roots, mirror = _conjugate_order(roots)
    order = np.minimum(np.arange(1, n + 1), _MAX_CLUSTER_ORDER)
    limit = (_CLUSTER_SLACK * _EPS ** (1.0 / order) * scale if tol is None
             else np.full(n, float(tol)))
    axis = _CLUSTER_SLACK * _EPS * scale
    dist = np.abs(roots[:, None] - roots[None, :])
    isolated = ((dist > limit[-1]) | np.eye(n, dtype=bool)).all(axis=1)
    simple = np.zeros(n, dtype=bool)
    if tol is None and isolated.any():
        # an isolated root equals no other root, so the proven ones are
        # found again by value in the (re, im) order
        proven = set(lapack[_certified_simple(arr, scale, lapack, vecs)].tolist())
        simple = np.array([z in proven for z in roots.tolist()])
        simple &= isolated & simple[mirror]
    # a real A has equal ranks at conjugate shifts: measure one of each pair
    measured = {complex(z): [n] + [n - 1] * n
                for z in roots[simple].tolist() if z.imag <= 0}

    def ranks_at(mean):
        if mean not in measured and mean.conjugate() not in measured:
            measured[mean] = float_rank_sequence(arr, scale, mean, n, tol)
        return measured.get(mean.conjugate(), measured.get(mean))

    found = {}  # first root -> cluster
    for i in np.flatnonzero(isolated).tolist():
        root = complex(roots[i])
        found[i] = (root, 1, float(limit[0]), ranks_at(root))
    left = np.flatnonzero(~isolated).tolist()
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
        twin = {mirror[i] for i in taken}
        if twin != taken:
            if twin & taken:
                raise DiagnosticError(
                    f"the cluster at {mean:.6g} overlaps its conjugate; widen tol")
            found[min(twin)] = (mean.conjugate(),) + found[left[0]][1:]
            taken |= twin
        left = [i for i in left if i not in taken]
    clusters = [found[i] for i in sorted(found)]
    for mean, *_ in clusters:
        if CENTER_TOL < abs(mean.real) <= axis:
            raise DiagnosticError(
                f"the real part of {mean:.6g} is within rounding ({axis:.2g}) "
                "of the imaginary axis: center or hyperbolic cannot be told"
            )
    return clusters


def eigenvalues(a: Matrix, tol: float | None = None):
    """Eigenvalues of a square matrix with algebraic multiplicities.

    Returns a tuple of (value, multiplicity) sorted by (re, im).  Every
    `Matrix` is real (numkit refuses a complex entry), so non-real values
    come in conjugate pairs.

    Exact matrices take no tolerance (a nonzero tol raises InputError
    before any work) and give Fraction or RationalComplex values or raise
    ExactModeError.  The LAPACK roots of B = D A, with D the lcm of the
    denominators of A, rounded to the nearest Gaussian integers z, give
    the candidates z / D and their votes.  When a Krylov sequence, run
    modulo small primes against an a-priori bound (`_cyclic`), proves
    that the votes give det(tI - B) and that B is non-derogatory,
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

    Float matrices give the means of clusters of LAPACK roots, each
    cluster settled with its conjugate mirror.  A group merges when its
    spread is at most tol, or by default a limit that grows with the
    group size, and only when the ranks at its mean confirm its size
    (see `_float_clusters`).  At the default tol, a root that no group
    can take is a simple eigenvalue without any rank taken when a
    Gershgorin enclosure with rigorous rounding bounds proves it simple
    (see `_certified_simple`).
    """
    return tuple((lam, mult) for lam, mult, _ in _spectrum(a, tol))


def _spectrum(a: Matrix, tol):
    """(value, multiplicity, rank sequence) per eigenvalue of a real A."""
    if a.mode == "exact":
        _check_tol(a, tol)
        return _exact_spectrum(a)
    spectrum = [(lam.real if abs(lam.imag) <= radius else lam, mult, ranks)
                for lam, mult, radius, ranks in _float_clusters(a, tol)]
    return sorted(spectrum, key=lambda p: (p[0].real, p[0].imag))


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
    # the sequence never rises, so past the first k with r(k) stable
    # every second difference is 0
    for m in range(1, ranks.index(stable) + 1):
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
    mirrored, so the result is conjugate-symmetric by construction.  A
    conjugate pair shares one sequence, so the counts are read once per
    pair and found again by the sequence, without hashing a value.  The
    eigenvalues come sorted by (re, im) and distinct (an exact spectrum
    is sorted on the Gaussian integers D lam, see `_exact_spectrum`),
    and each one's counts by size, so the blocks are laid out in the
    (re, im, m) order of `SpectrumDescriptor.make` without another sort;
    they are size-checked as make does it, without make's symmetry scan
    of caller-supplied blocks.  An exact A takes no tolerance.
    """
    eigs = _spectrum(a, tol)
    counts = {}  # id of a rank sequence -> its block counts
    for lam, mult, ranks in eigs:
        if lam_parts(lam)[1] < 0:
            continue
        held = counts[id(ranks)] = _block_counts(ranks, lam, a.mode)
        measured = sum(m * c for m, c in held)
        if measured != mult:
            raise DiagnosticError(
                f"block sizes at {lam} sum to {measured}, expected multiplicity {mult}"
            )
    blocks = tuple(Block(lam, m, c) for lam, _, ranks in eigs for m, c in counts[id(ranks)])
    return SpectrumDescriptor(*_sized(blocks, a.n), a.mode == "exact", True)
