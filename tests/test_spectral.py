"""Spectral extraction: exact and float eigenvalues, sign splits, block
counting, and full descriptors, checked against numpy roots, sympy
eigenvalue multiplicities, and constructed block data."""

import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    direct_sum,
    expected_blocks,
    haar_similar,
    hyperbolic_blocks,
    jordan,
    random_parts,
    random_unimodular,
    realize_real,
    reference_float_ranks,
    rotation,
)
from flowclass.errors import DiagnosticError, ExactModeError, InputError
from flowclass.invariants import conjugacy_signature
from flowclass import numkit, spectral
from flowclass.numkit import (
    Matrix,
    RationalComplex,
    cleared,
    lam_parts,
    power_rank_sequence,
)
from flowclass.spectral import (
    CENTER_TOL,
    SpectrumDescriptor,
    _candidates,
    _certified_simple,
    _conjugate_order,
    _eigenvalues_exact,
    _float_clusters,
    eigenvalues,
    jordan_counts,
    spectrum_descriptor,
    split_dims,
)


# ---- exact eigenvalues ---------------------------------------------------------


def test_exact_rational_eigenvalues():
    m = Matrix.exact([[Fraction(1, 2), 1], [0, Fraction(-3, 4)]])
    eigs = eigenvalues(m)
    assert eigs == ((Fraction(-3, 4), 1), (Fraction(1, 2), 1))


def test_exact_gaussian_pair():
    # x^2 - x + 5/2 has roots 1/2 +- 3i/2
    m = Matrix.exact([[0, Fraction(-5, 2)], [1, 1]])
    eigs = eigenvalues(m)
    assert eigs == (
        (RationalComplex(Fraction(1, 2), Fraction(-3, 2)), 1),
        (RationalComplex(Fraction(1, 2), Fraction(3, 2)), 1),
    )


def test_exact_real_irrational_refused():
    m = Matrix.exact([[0, 2], [1, 0]])  # x^2 - 2
    with pytest.raises(ExactModeError):
        eigenvalues(m)


def test_exact_complex_irrational_refused():
    m = Matrix.exact([[0, -2], [1, 0]])  # x^2 + 2, imag part sqrt(2)
    with pytest.raises(ExactModeError):
        eigenvalues(m)


def test_exact_cubic_factor_refused():
    # x^3 - x - 1 is irreducible over Q
    m = Matrix.exact([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ExactModeError):
        eigenvalues(m)


def test_exact_multiplicities_match_sympy():
    rng = random.Random(17)
    for _ in range(10):
        parts = random_parts(rng, 6)
        a = realize_real(parts)
        got = dict(eigenvalues(a))
        sm = sympy.Matrix(
            [
                [sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in a.rows
            ]
        )
        for lam, mult in sm.eigenvals().items():
            re, im = sympy.re(lam), sympy.im(lam)
            if im == 0:
                key = Fraction(int(re.p), int(re.q))
            else:
                key = RationalComplex(
                    Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))
                )
            assert got[key] == mult


def test_eigenvalues_reject_complex_matrix():
    # matrices are real in both modes: the complex entry is refused when
    # the matrix is built, before any spectral work
    with pytest.raises(InputError, match="matrices are real"):
        eigenvalues(Matrix.floating([[1j]]))


# ---- exact eigenvalues: certified candidates against the sympy reference ------


def _reference_descriptor(a):
    """Descriptor from the factored characteristic polynomial and one
    jordan_counts call per eigenvalue."""
    blocks = [(lam, m, c) for lam, _ in _eigenvalues_exact(*cleared(a))
              for m, c in jordan_counts(a, lam)]
    return SpectrumDescriptor.make(blocks, n=a.n, exact=True, real_source=True)


def _assert_certified_matches_reference(monkeypatch, mats):
    want = [(_eigenvalues_exact(*cleared(a)), repr(_reference_descriptor(a))) for a in mats]

    def no_fallback(d, b):
        raise AssertionError("the candidate certificate fell short")

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_eigenvalues_exact", no_fallback)
        for a, (eigs, desc) in zip(mats, want):
            assert repr(eigenvalues(a)) == repr(eigs)
            assert repr(spectrum_descriptor(a)) == desc


def test_certified_eigenvalues_match_reference_on_random_similar(monkeypatch):
    rng = random.Random(4141)
    mats = []
    for _ in range(25):
        a = realize_real(random_parts(rng, max_n=10))
        s, s_inv = random_unimodular(rng, a.n)
        mats += [a, (s @ a) @ s_inv]
    _assert_certified_matches_reference(monkeypatch, mats)


def _large_block_matrices():
    """12 dense n = 12 matrices with Jordan blocks up to size 5 at rational
    values with denominators up to 7, and pairs a +- bi with a != 0."""
    rng = random.Random(5757)
    mats = []
    for _ in range(12):
        parts, left = [], 12
        while left:
            if left >= 2 and rng.random() < 0.4:
                m = rng.randint(1, min(2, left // 2))
                re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                parts.append((re, Fraction(rng.randint(1, 9), rng.randint(1, 7)), m, 1))
                left -= 2 * m
            else:
                m = rng.randint(1, min(5, left))
                parts.append((Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                              Fraction(0), m, 1))
                left -= m
        s, s_inv = random_unimodular(rng, 12)
        mats.append((s @ realize_real(parts)) @ s_inv)
    return mats


def test_certified_eigenvalues_match_reference_on_large_blocks(monkeypatch):
    # the LAPACK roots of a defective value scatter, and still round onto
    # a confirmed candidate
    _assert_certified_matches_reference(monkeypatch, _large_block_matrices())


def test_misleading_votes_still_certify(monkeypatch):
    # one vote each, in reverse order: no walk stops at its vote count, so
    # the walks that the dimension count still needs are deepened to a
    # repeated rank
    candidates = spectral._candidates
    monkeypatch.setattr(spectral, "_candidates",
                        lambda b: [(xy, 1) for xy, _ in reversed(candidates(b))])
    _assert_certified_matches_reference(monkeypatch, _large_block_matrices())


def test_certified_eigenvalues_match_reference_on_benchmark_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    mats = [Matrix.exact(op.data[side])
            for op in workloads.ExactDecide().inputs(9)
            for side in ("left", "right")]
    _assert_certified_matches_reference(monkeypatch, mats)


def test_exact_entries_beyond_float_fall_back():
    # D A = J_2(7 (10^17 + 1)) + [-3]: 7 (10^17 + 1) has no exact float,
    # so no candidate is tried and the factored polynomial answers
    big = 10**17 + 1
    a = realize_real([(big, 0, 2, 1), (Fraction(-3, 7), 0, 1, 1)])
    assert _candidates(cleared(a)[1]) == []
    assert eigenvalues(a) == ((Fraction(-3, 7), 1), (Fraction(big), 2))
    assert spectrum_descriptor(a).blocks == (
        (Fraction(-3, 7), 1, 1), (Fraction(big), 2, 1))
    # an entry beyond the float range cannot be converted at all
    assert eigenvalues(Matrix.exact([[10**400, 1], [0, 2]])) == (
        (Fraction(2), 1), (Fraction(10**400), 1))
    assert spectrum_descriptor(Matrix.exact([[1, 10**400], [0, 1]])).blocks == (
        (Fraction(1), 2, 1),)


@pytest.mark.parametrize("v", [2**53, -2**53, 2**53 + 1, -2**53 - 1, -2**63, 2**63, 10**400])
def test_candidates_stop_beyond_2_to_53(v):
    # entries up to 2^53 in size convert to float exactly; beyond that,
    # -2^63 (whose abs wraps in int64) and entries beyond int64 included,
    # no candidate is tried and the factored polynomial answers alike
    a = Matrix.exact([[v, 1], [0, 2]])
    assert bool(_candidates(cleared(a)[1])) == (abs(v) <= 2**53)
    want = tuple(sorted([(Fraction(v), 1), (Fraction(2), 1)]))
    assert eigenvalues(a) == want
    assert spectrum_descriptor(a).blocks == tuple((lam, 1, 1) for lam, _ in want)
    # t^2 - v: irrational roots are refused, only 10^400 is a square
    swap = Matrix.exact([[0, v], [1, 0]])
    if v == 10**400:
        assert eigenvalues(swap) == ((Fraction(-10**200), 1), (Fraction(10**200), 1))
    else:
        with pytest.raises(ExactModeError, match="whose roots have irrational parts"):
            eigenvalues(swap)


def _count_calls(monkeypatch, module, name, counted=lambda *args: True):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if counted(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _walks_only(monkeypatch):
    """Turn the cyclic-vector certificate off, so the rank walks answer."""
    monkeypatch.setattr(spectral, "_cyclic", lambda b, candidates: False)


_DISTINCT_VALUES = [Fraction(-7, 2), Fraction(-2), Fraction(-1, 3), Fraction(1, 2),
                    Fraction(1), Fraction(5, 3), Fraction(3), Fraction(9, 2)]
# 1 +- 2i simple, -1 +- i in a 2-block and 2 simple
_PAIR_PARTS = [(Fraction(1), Fraction(2), 1, 1), (Fraction(-1), Fraction(1), 2, 1),
               (Fraction(2), Fraction(0), 1, 1)]


def _similar(parts, seed, ops=None):
    """realize_real(parts) under a seeded unimodular similarity, and S."""
    a = realize_real(parts)
    s, s_inv = random_unimodular(random.Random(seed), a.n, ops=ops)
    return (s @ a) @ s_inv, s


def _distinct_rational_matrix():
    """A dense n = 8 matrix with eight distinct rational eigenvalues, and S."""
    return _similar([(v, Fraction(0), 1, 1) for v in _DISTINCT_VALUES], 88, ops=40)


def test_distinct_rational_spectrum_takes_one_rank_per_candidate(monkeypatch):
    # eight distinct values: the first rank at each candidate already sums
    # the nullities to n, so no power is formed and no rank repeated
    _walks_only(monkeypatch)
    a, _ = _distinct_rational_matrix()
    assert all(x for row in a.rows for x in row)  # dense
    assert len(_candidates(cleared(a)[1])) == 8
    ranks = _count_calls(monkeypatch, numkit, "_rank_int")
    products = _count_calls(monkeypatch, numkit, "_row_product")
    assert eigenvalues(a) == tuple((v, 1) for v in _DISTINCT_VALUES)
    assert len(ranks) == 8
    assert products == []


def test_pair_walks_share_one_square(monkeypatch):
    # B^2 is formed once for both pairs
    _walks_only(monkeypatch)
    a, _ = _similar(_PAIR_PARTS, 99)
    b = cleared(a)[1]
    squares = _count_calls(monkeypatch, numkit, "_row_product",
                           lambda x, y, *rest: x == b and y == b)
    assert spectrum_descriptor(a).blocks == SpectrumDescriptor.make(
        expected_blocks(_PAIR_PARTS)).blocks
    assert len(squares) == 1


def test_non_derogatory_matrices_certify_without_ranks(monkeypatch):
    # the votes give the characteristic polynomial and the start vector is
    # cyclic, so each value's one block is read off its votes
    distinct, _ = _distinct_rational_matrix()
    paired, _ = _similar(_PAIR_PARTS, 99)
    ranks = _count_calls(monkeypatch, numkit, "_rank_int")
    products = _count_calls(monkeypatch, numkit, "_row_product")
    assert eigenvalues(distinct) == tuple((v, 1) for v in _DISTINCT_VALUES)
    assert spectrum_descriptor(paired).blocks == SpectrumDescriptor.make(
        expected_blocks(_PAIR_PARTS)).blocks
    assert ranks == [] and products == []
    # a rank sequence is derived as n - min(k, m), equal to the walk's
    for lam, m, seq in spectral._exact_spectrum(paired):
        assert seq == power_rank_sequence(paired, lam, 7) == [7 - min(k, m) for k in range(8)]


# ---- exact eigenvalues: the certificate refuses what it cannot prove ------------


def _exact_outcome(a):
    """repr of the exact spectrum of a, or the text of its refusal."""
    try:
        return repr(spectral._exact_spectrum(a))
    except ExactModeError as exc:
        return f"ExactModeError: {exc}"


def _routes(monkeypatch, a):
    """(certified, outcome, _rank_int calls, _row_product calls) of a with
    the certificate on, then with it off."""
    routes = []
    for on in (True, False):
        with monkeypatch.context() as mp:
            verdicts = []
            cyclic = spectral._cyclic

            def recorded(b, candidates):
                verdicts.append(on and cyclic(b, candidates))
                return verdicts[-1]

            mp.setattr(spectral, "_cyclic", recorded)
            ranks = _count_calls(mp, numkit, "_rank_int")
            products = _count_calls(mp, numkit, "_row_product")
            outcome = _exact_outcome(a)
            routes.append((verdicts == [True], outcome, ranks, products))
    return routes


def _assert_walked(monkeypatch, a):
    """The certificate refuses a, and the walks then answer exactly as
    they do without it, with the same ranks and products."""
    on, off = _routes(monkeypatch, a)
    assert not on[0]
    assert on[1:] == off[1:]


def test_derogatory_matrices_fall_through_to_the_walks(monkeypatch):
    # a value with two blocks has a minimal polynomial of degree below n,
    # so no start vector is cyclic
    for seed, parts in enumerate([
            [(2, 0, 1, 2), (-1, 0, 1, 1)],                    # J_1(2) + J_1(2)
            [(1, 0, 2, 1), (1, 0, 1, 1), (-3, 0, 1, 1)],      # J_2(1) + J_1(1)
            [(0, 1, 1, 2), (Fraction(1, 2), 0, 1, 1)],        # +-i twice
            [(1, 2, 2, 1), (1, 2, 1, 1), (0, 0, 1, 1)]]):     # 1 +- 2i in a 2- and a 1-block
        a, _ = _similar(parts, seed)
        _assert_walked(monkeypatch, a)
        assert spectrum_descriptor(a).blocks == SpectrumDescriptor.make(
            expected_blocks(parts)).blocks


def test_votes_must_give_degree_n(monkeypatch):
    # J_1(1) + J_1(1) + J_1(2): f = (t - 1)(t - 2) kills every vector, and
    # v, (B - 1) v are independent, so only deg f = 2 < 3 refuses the votes
    a, _ = _similar([(1, 0, 1, 2), (2, 0, 1, 1)], 5)
    b = cleared(a)[1]
    short = [((1, 0), 1), ((2, 0), 1)]
    bm = sympy.Matrix(b)
    v = sympy.Matrix(spectral._start_vector(3))
    assert (bm - sympy.eye(3)) * (bm - 2 * sympy.eye(3)) * v == sympy.zeros(3, 1)
    assert sympy.Matrix.hstack(v, (bm - sympy.eye(3)) * v).rank() == 2
    assert not spectral._cyclic(b, short)
    monkeypatch.setattr(spectral, "_candidates", lambda b: short)
    _assert_walked(monkeypatch, a)
    assert eigenvalues(a) == ((Fraction(1), 2), (Fraction(2), 1))


def test_misleading_votes_fall_through_to_the_walks(monkeypatch):
    distinct, _ = _distinct_rational_matrix()
    b = cleared(distinct)[1]
    votes = _candidates(b)
    assert spectral._cyclic(b, votes)
    # a pair with an odd vote count: 1 +- 2i simple and J_1(3) + J_1(3),
    # where 3 // 2 = 1 factor of the pair would give the minimal polynomial
    odd, _ = _similar([(1, 2, 1, 1), (3, 0, 1, 2)], 7)
    for a, wrong in (
            (distinct, votes + [((0, 0), 1)]),                     # n + 1 votes
            (distinct, votes[:-1]),                                # n - 1 votes
            (distinct, [((x, y), 1) for (x, y), _ in votes[:7]]    # n votes, wrong root
             + [((votes[7][0][0] + 1, 0), 1)]),
            (odd, [((1, 2), 3), ((3, 0), 1)])):
        assert not spectral._cyclic(cleared(a)[1], wrong)
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "_candidates", lambda b, wrong=wrong: wrong)
            _assert_walked(mp, a)
    # the moved vote: 1 gets one of its two votes, 2 gets two of its one
    a, _ = _similar([(1, 0, 2, 1), (2, 0, 1, 1)], 8)
    monkeypatch.setattr(spectral, "_candidates", lambda b: [((1, 0), 1), ((2, 0), 2)])
    _assert_walked(monkeypatch, a)
    assert eigenvalues(a) == ((Fraction(1), 2), (Fraction(2), 1))


def test_non_cyclic_start_vector_falls_through_to_the_walks(monkeypatch):
    # an eigenvector of B spans an invariant line, so its Krylov space is
    # the line and the independence check refuses
    a, s = _distinct_rational_matrix()
    b = cleared(a)[1]
    assert spectral._cyclic(b, _candidates(b))
    eigenvector = [int(row[2]) for row in s.rows]  # S e_2, at the value -1/3
    monkeypatch.setattr(spectral, "_start_vector", lambda n: eigenvector)
    assert not spectral._cyclic(b, _candidates(b))
    _assert_walked(monkeypatch, a)
    assert eigenvalues(a) == tuple((v, 1) for v in _DISTINCT_VALUES)


def _random_integer_parts(rng, n, derogatory):
    """Real-Jordan data (a, b, m, 1) of size n with integer a and b:
    distinct values, or, when derogatory, the first value in two blocks."""
    parts, used, left = [], set(), n
    while left:
        blocks = 2 if derogatory and not parts else 1
        width = 2 if left >= 2 * blocks and rng.random() < 0.4 else 1
        key = (rng.randint(-3, 3), rng.randint(1, 3) if width == 2 else 0)
        if key in used:
            continue
        used.add(key)
        for _ in range(blocks):
            m = rng.randint(1, min(3, left // width - (blocks - 1)))
            parts.append((*key, m, 1))
            left -= m * width
            blocks -= 1
    return parts


def test_certificate_agrees_with_walks_and_reference_on_random_integer_matrices(monkeypatch):
    # n = 2 ... 12: dense similar realizations with and without a value in
    # two blocks, and plain random integer matrices, whose irrational
    # values both routes refuse alike
    rng = random.Random(1919)
    certified = {False: 0, True: 0}
    for n in range(2, 13):
        cases = []
        for derogatory in (False, True) * 2:
            parts = _random_integer_parts(rng, n, derogatory)
            s, s_inv = random_unimodular(rng, n)
            cases.append(((s @ realize_real(parts)) @ s_inv, derogatory))
        cases.append((Matrix.exact([[rng.randint(-3, 3) for _ in range(n)]
                                    for _ in range(n)]), None))
        for a, derogatory in cases:
            on, off = _routes(monkeypatch, a)
            assert on[1] == off[1]
            if on[0]:
                assert not derogatory
                assert on[2] == on[3] == []
                certified[derogatory] += 1
            else:
                assert on[2:] == off[2:]
            try:
                want = repr(_reference_descriptor(a))
            except ExactModeError:
                assert derogatory is None and on[1].startswith("ExactModeError")
            else:
                assert repr(spectrum_descriptor(a)) == want
    assert certified == {False: 22, True: 0}  # every non-derogatory draw certifies


# ---- exact eigenvalues: the certificate's modular proof -------------------------


def _reference_cyclic(b: list, candidates: list) -> bool:
    """The certificate as it was before it ran modulo small primes: one
    big-integer Krylov sequence and an elimination modulo 2^61 - 1."""
    n = len(b)
    if sum(votes for _, votes in candidates) != n or any(
            y and votes % 2 for (_, y), votes in candidates):
        return False
    nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in b]

    def shifted(e, x):  # (B - x) e
        return [sum(c * e[j] for j, c in row) - x * ei for row, ei in zip(nonzero, e)]

    seq = [spectral._start_vector(n)]
    for (x, y), votes in candidates:
        for _ in range(votes // 2 if y else votes):
            seq.append(shifted(seq[-1], x))
            if y:
                seq.append([p + y * y * q for p, q in zip(shifted(seq[-1], x), seq[-2])])
    return not any(seq.pop()) and _reference_independent_mod_p(seq)


_REFERENCE_PRIME = 2**61 - 1


def _reference_independent_mod_p(vectors: list) -> bool:
    """Whether n integer vectors of length n are independent modulo
    _REFERENCE_PRIME, by Gaussian elimination over the integers mod p."""
    rows = [[x % _REFERENCE_PRIME for x in v] for v in vectors]
    while rows:
        piv = next((row for row in rows if row[0]), None)
        if piv is None:
            return False
        inv = pow(piv[0], -1, _REFERENCE_PRIME)
        rows = [[(x - c * y) % _REFERENCE_PRIME for x, y in zip(row[1:], piv[1:])]
                for row in rows if row is not piv for c in (row[0] * inv,)]
    return True


def _certificate_bound(b, candidates):
    """The a-priori bound on the entries of f(B) v that `_cyclic` needs its
    moduli to exceed, with rho the largest row sum of |B|."""
    rho = max(sum(map(abs, row)) for row in b)
    bound = max(map(abs, spectral._start_vector(len(b))))
    for (x, y), votes in candidates:
        step = rho + abs(x)
        bound *= (step * step + y * y) ** (votes // 2) if y else step**votes
    return bound


@pytest.mark.parametrize("seed", [1, 2, 5, 77, 4242])
def test_certificate_verdicts_match_the_reference_on_benchmark_inputs(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    certified = 0
    for op in workloads.ExactDecide().inputs(seed):
        for side in ("left", "right"):
            b = cleared(Matrix.exact(op.data[side]))[1]
            votes = _candidates(b)
            assert spectral._cyclic(b, votes) == _reference_cyclic(b, votes)
            certified += _reference_cyclic(b, votes)
    assert 100 < certified < 150  # both verdicts occur


def _big_entry_matrix(rng, n, pair, derogatory):
    """An integer matrix with entries up to 2^53 in size: a triangular one
    with values in [-4, 4] on the diagonal, with one 2 x 2 rotation block
    a +- bi on it when pair is set, and a value in two blocks when
    derogatory is set, its rows and columns permuted at random."""
    t = [[rng.randint(-2**53, 2**53) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        t[i][i] = rng.randint(-4, 4)
    if pair:
        k = rng.randrange(2, n - 1)
        t[k][k] = t[k + 1][k + 1] = rng.randint(-4, 4)
        t[k + 1][k] = rng.randint(1, 4)
        t[k][k + 1] = -t[k + 1][k]
    if derogatory:  # columns 0 and 1 of T - t00 I vanish
        t[0][0] = t[1][1]
        t[0][1] = 0
    perm = rng.sample(range(n), n)
    return [[t[i][j] for j in perm] for i in perm]


def _big_entry_matrices():
    rng = random.Random(2323)
    return [(_big_entry_matrix(rng, n, pair, derogatory), pair, derogatory)
            for n in (20, 24) for pair, derogatory in ((False, False), (True, False), (True, True))]


def test_certificate_with_many_moduli_agrees_with_sympy():
    # the bound needs dozens of moduli; a certified matrix has
    # det(tI - B) = f and a Krylov matrix of v of full rank over the integers
    from sympy.polys.matrices import DomainMatrix

    for b, pair, derogatory in _big_entry_matrices():
        n = len(b)
        votes = _candidates(b)
        assert any(y for (_, y), _ in votes) == pair
        assert _certificate_bound(b, votes) > spectral._MODULI[0] ** 45
        verdict = spectral._cyclic(b, votes)
        assert verdict == (not derogatory)
        if verdict:
            t = sympy.Symbol("t")
            f = sympy.prod([((t - x) ** 2 + y * y) ** (m // 2) if y else (t - x) ** m
                            for (x, y), m in votes])
            assert DomainMatrix.from_list(b, sympy.ZZ).charpoly() == sympy.Poly(f, t).all_coeffs()
            krylov = [spectral._start_vector(n)]
            for _ in range(n - 1):
                krylov.append([sum(c * x for c, x in zip(row, krylov[-1])) for row in b])
            assert DomainMatrix.from_list(krylov, sympy.ZZ).rank() == n


def test_moduli_table_holds_distinct_primes_below_2_to_24():
    moduli = spectral._MODULI
    assert list(moduli) == sorted(set(moduli), reverse=True)
    assert all(2**23 < p < 2**24 and sympy.isprime(p) for p in moduli)
    # enough for the certificates above, and for any n = 24 matrix with
    # entries up to 2^53: a root of B is at most rho in size, so each
    # factor of f grows the bound by at most (3 rho)^degree
    product = math.prod(moduli)
    assert product > max(_certificate_bound(b, _candidates(b)) for b, *_ in _big_entry_matrices())
    assert product > 3**23 * (3 * 24 * 2**53) ** 24


def test_certificate_with_zero_row_sums():
    # rho = 0 gives the bound 0, and one modulus still runs the sequence
    for b, certified in (([[0]], True), ([[0] * 3] * 3, False), ([[0, 1], [0, 0]], True)):
        votes = _candidates(b)
        assert spectral._cyclic(b, votes) == _reference_cyclic(b, votes) == certified
    assert spectrum_descriptor(Matrix.exact([[0]])).blocks == ((Fraction(0), 1, 1),)


def test_multiples_of_the_first_moduli_are_not_taken_for_zero():
    # wrong votes with f(B) v a nonzero multiple of the first one or two
    # moduli: 0 modulo each of them, and the bound calls for one more
    moduli = spectral._MODULI
    for k in (1, 2):
        b = [[5 + math.prod(moduli[:k])]]
        for votes, certified in (([((b[0][0], 0), 1)], True), ([((5, 0), 1)], False)):
            assert spectral._cyclic(b, votes) == _reference_cyclic(b, votes) == certified
    # the candidate's |x| and y^2 count in the bound, not only B
    for b, votes in (([[0]], [((-moduli[0], 0), 1)]),
                     ([[0, 0], [0, 0]], [((0, moduli[0]), 2)])):
        assert not spectral._cyclic(b, votes)
        assert not _reference_cyclic(b, votes)


def test_bound_beyond_the_moduli_falls_through_to_the_walks(monkeypatch):
    # with one modulus, a bound beyond it proves nothing
    paired, _ = _similar(_PAIR_PARTS, 99)
    b = cleared(paired)[1]
    assert _certificate_bound(b, _candidates(b)) > spectral._MODULI[0]
    monkeypatch.setattr(spectral, "_MODULI", spectral._MODULI[:1])
    assert not spectral._cyclic(b, _candidates(b))
    _assert_walked(monkeypatch, paired)
    assert spectrum_descriptor(paired).blocks == SpectrumDescriptor.make(
        expected_blocks(_PAIR_PARTS)).blocks


def test_fallback_walks_match_power_rank_sequence():
    # 2^60 (J_2(1) + rotation(1)): entries beyond 2^53 give no candidates,
    # so the factored polynomial names the eigenvalues and their walks run
    # to a repeated rank
    big = 2**60
    a = Matrix.exact([[big, big, 0, 0], [0, big, 0, 0],
                      [0, 0, 0, -big], [0, 0, big, 0]])
    assert _candidates(cleared(a)[1]) == []
    spectrum = spectral._exact_spectrum(a)
    assert [(lam, mult) for lam, mult, _ in spectrum] == [
        (RationalComplex(Fraction(0), Fraction(-big)), 1),
        (RationalComplex(Fraction(0), Fraction(big)), 1), (Fraction(big), 2)]
    for lam, _, ranks in spectrum:
        assert ranks == power_rank_sequence(a, lam, 4)


def test_short_count_reuses_measured_walks(monkeypatch):
    # J_7(3) + [-1] under a long unimodular similarity: its roots scatter
    # so far that the candidates do not reach the count, and the factored
    # polynomial finishes the walks measured so far
    rng = random.Random(1)
    s, s_inv = random_unimodular(rng, 8, ops=240)
    parts = [(Fraction(3), Fraction(0), 7, 1), (Fraction(-1), Fraction(0), 1, 1)]
    a = (s @ realize_real(parts)) @ s_inv
    assert ((3, 0), 1) in _candidates(cleared(a)[1])
    fallbacks = _count_calls(monkeypatch, spectral, "_eigenvalues_exact")
    spectrum = spectral._exact_spectrum(a)
    assert len(fallbacks) == 1
    assert [(lam, mult) for lam, mult, _ in spectrum] == [(Fraction(-1), 1), (Fraction(3), 7)]
    for lam, _, ranks in spectrum:
        assert ranks == power_rank_sequence(a, lam, 8)
    assert spectrum_descriptor(a).blocks == SpectrumDescriptor.make(expected_blocks(parts)).blocks


@pytest.mark.parametrize("d, parts", [
    # values sharing real parts, zero, negative parts; D the lcm of denominators
    (1, [(-1, 0, 1, 1), (-1, 2, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1), (0, 3, 1, 1), (2, 1, 1, 1)]),
    (2, [(Fraction(-1, 2), 0, 2, 1), (Fraction(-1, 2), Fraction(3, 2), 1, 1), (0, 0, 1, 1),
         (0, Fraction(1, 2), 1, 1), (1, 0, 1, 1)]),
    (6, [(Fraction(-1, 3), 0, 1, 1), (Fraction(-1, 3), Fraction(1, 2), 2, 1),
         (0, Fraction(5, 6), 1, 1), (0, 0, 1, 1), (Fraction(1, 2), Fraction(1, 3), 1, 1)]),
])
def test_exact_spectrum_sorts_and_pairs_alike_on_every_route(monkeypatch, d, parts):
    # the certified, the walked and the factored spectrum are each sorted
    # by (re, im) and give a conjugate pair one shared rank sequence
    a, _ = _similar(parts, 40 + d)
    assert cleared(a)[0] == d
    spectra = []
    for route in ("certified", "walked", "factored"):
        with monkeypatch.context() as mp:
            if route != "certified":
                _walks_only(mp)
            if route == "factored":
                mp.setattr(spectral, "_candidates", lambda b: [])
            fallbacks = _count_calls(mp, spectral, "_eigenvalues_exact")
            measured = _count_calls(mp, numkit, "_rank_int")
            spectrum = spectral._exact_spectrum(a)
            assert (len(fallbacks), not measured) == (route == "factored", route == "certified")
        keys = [lam_parts(lam) for lam, _, _ in spectrum]
        assert keys == sorted(set(keys))
        ranks_at = {lam: ranks for lam, _, ranks in spectrum}
        for lam, _, ranks in spectrum:
            if isinstance(lam, RationalComplex):
                assert ranks_at[lam.conjugate()] is ranks
        spectra.append(repr(spectrum))
    assert spectra[0] == spectra[1] == spectra[2]
    assert spectrum_descriptor(a).blocks == SpectrumDescriptor.make(expected_blocks(parts)).blocks


def test_eigenvalue_beyond_float_range_sorts_exactly():
    a = Matrix.exact([[10**400, 1], [0, 2]])
    assert spectrum_descriptor(a).blocks == (
        (Fraction(2), 1, 1), (Fraction(10**400), 1, 1))
    # parts equal as floats still sort by their exact values
    tiny = Fraction(1, 10**30)
    desc = SpectrumDescriptor.make([(RationalComplex(Fraction(1), Fraction(1)), 1, 1),
                                    (Fraction(1) + tiny, 1, 1)], real_source=False)
    assert [b.lam for b in desc.blocks] == [
        RationalComplex(Fraction(1), Fraction(1)), Fraction(1) + tiny]


def test_irrational_spectrum_falls_back_to_the_same_refusal():
    # the candidates 5 and +-1 leave the dimension count at 1 of 3
    a = Matrix.exact(direct_sum([[[0, 2], [1, 0]], [[5]]]))
    text = ("characteristic polynomial has the irreducible factor "
            "t^2 + (0)t + (-2) whose roots have irrational parts; "
            "rerun in float mode or supply spectrum blocks directly")
    for call in (eigenvalues, spectrum_descriptor):
        with pytest.raises(ExactModeError) as err:
            call(a)
        assert str(err.value) == text


# ---- float eigenvalues ----------------------------------------------------------


def test_float_roots_match_numpy_simple_spectra():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        arr = rng.uniform(-3, 3, (n, n))
        m = Matrix.from_numpy(arr)
        got = eigenvalues(m)
        assert sum(mult for _, mult in got) == n
        expected = sorted(np.linalg.eigvals(arr), key=lambda z: (z.real, z.imag))
        flat = []
        for lam, mult in got:
            flat.extend([complex(lam)] * mult)
        flat.sort(key=lambda z: (z.real, z.imag))
        for g, e in zip(flat, expected):
            assert abs(g - e) <= 1e-6 * (1 + abs(e))


def test_float_conjugate_symmetry_is_exact():
    arr = np.array([[0.0, 1.0, 0.3], [-1.0, 0.0, 0.1], [0.0, 0.0, -0.5]])
    eigs = eigenvalues(Matrix.from_numpy(arr))
    ims = sorted(complex(l).imag for l, _ in eigs)
    assert ims[0] == -ims[-1]  # symmetrized exactly, not just approximately


def test_float_multiple_root_needs_wider_tol():
    # an explicit tol merges the split triple root within that spread
    j = Matrix.from_numpy(jordan(1.0, 3))
    eigs = eigenvalues(j, tol=1e-3)
    assert len(eigs) == 1
    lam, mult = eigs[0]
    assert mult == 3 and abs(complex(lam) - 1.0) < 1e-3


def test_float_default_clusters_larger_jordan_blocks():
    # J3(0) and J4(0) split into rings whose nearest pairs are wider than
    # the size-2 radius: the group of all k roots must still merge
    rng = np.random.default_rng(31)
    for k in (3, 4):
        j = np.diag([0.0] * k + [1.0, -2.0, 0.7]) + np.diag([1.0] * (k - 1) + [0.0] * 3, 1)
        for _ in range(10):
            d = spectrum_descriptor(Matrix.from_numpy(haar_similar(rng, [j])))
            assert [b.m for b in d.center_blocks(1e-8)] == [k]


def test_float_classification_across_scales():
    # ranks are relative to ||A||_2, so cA is classified like A; once
    # rounding of the J2(0) mean (about u ||A||) can pass the center
    # tolerance, the mean is refused, never counted as hyperbolic
    rng = np.random.default_rng(37)
    blocks = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -2.0])]
    for c in (1e-4, 1e-2, 1.0, 1e8, 1e12):
        for _ in range(10):
            a = Matrix.from_numpy(c * haar_similar(rng, blocks))
            try:
                sig = conjugacy_signature(spectrum_descriptor(a))
            except DiagnosticError:
                assert c >= 1e8, c
                continue
            assert (sig.dim_plus, sig.dim_minus) == (1, 1), c
            assert [(m, count) for _, m, count in sig.center] == [(2, 1)], c


def test_float_eigenvalues_near_the_float_range_stay_finite():
    # the conjugate of a cluster mean is exact; averaging the real parts
    # of a pair of means overflowed to inf here
    d = spectrum_descriptor(Matrix.floating([[1e308, -1e307], [1e307, 1e308]]))
    assert [b.lam for b in d.blocks] == [complex(1e308, -1e307), complex(1e308, 1e307)]


def test_root_without_exact_conjugate_is_refused(monkeypatch):
    # LAPACK returns the non-real roots of a real matrix as exact
    # conjugates; a root without one is refused, not paired by distance
    monkeypatch.setattr(spectral.np.linalg, "eig",
                        lambda arr: (np.array([1 + 1j, 1 - 1.0001j]), np.eye(2)))
    with pytest.raises(DiagnosticError, match="has no exact conjugate"):
        spectrum_descriptor(Matrix.floating([[1.0, 1.0], [-1.0, 1.0]]))


def test_float_close_eigenvalues_are_measured_apart():
    # distinct simple eigenvalues within the size-4 merge limit: the ranks
    # at the group mean refuse the merge, and each root is measured alone
    stiff = direct_sum([np.diag([100.0, -0.3, 0.3]), rotation(0, 0.5)])
    sig = conjugacy_signature(spectrum_descriptor(Matrix.from_numpy(stiff)))
    assert (sig.dim_plus, sig.dim_minus) == (2, 1)
    assert [(round(float(im), 9), m, c) for im, m, c in sig.center] == [(-0.5, 1, 1), (0.5, 1, 1)]
    close = Matrix.from_numpy(np.diag([1.0, 1.001, 1.002, 1.003]))
    assert [mult for _, mult in eigenvalues(close)] == [1, 1, 1, 1]
    assert conjugacy_signature(spectrum_descriptor(close)).dim_plus == 4


def test_float_sign_within_rounding_is_refused():
    # 1e-4 lies above the center tolerance but within 100 u ||A||_2 of the
    # axis, so its sign is not certified: refused, not put on the axis
    with pytest.raises(DiagnosticError, match="within rounding"):
        spectrum_descriptor(Matrix.from_numpy(np.diag([1e10, 1e-4, 1000.0])))


def test_float_root_distances_beyond_the_float_range_are_refused():
    # the first printed "overflow encountered in subtract" and was
    # classified from infinite distances; the second was refused as a
    # root within rounding (inf) of the imaginary axis
    for rows in ([[1e308, -1e308], [1e308, 1e308]], [[1e308, 1e308], [1e308, 1e308]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DiagnosticError,
                               match="root distances or the norm of A overflow"):
                spectrum_descriptor(Matrix.floating(rows))


def test_float_stiff_sweep_classifies_every_case():
    # one fast eigenvalue of modulus 50 to 500 over simple slow values at
    # least 0.2 apart: the slow ones fall within the size-3 and size-4
    # merge limits, and each must still be measured as its own eigenvalue
    rng = np.random.default_rng(41)
    for n in (8, 12, 16):
        for _ in range(20):
            fast = float(rng.choice((-1, 1)) * rng.uniform(50, 500))
            beta = float(rng.uniform(0.3, 1.5))
            taken = [complex(0, beta), complex(0, -beta)]
            hyperbolic, (plus, minus) = hyperbolic_blocks(rng, taken, n - 3)
            a = haar_similar(rng, [np.array([[fast]]), rotation(0, beta)] + hyperbolic)
            sig = conjugacy_signature(spectrum_descriptor(Matrix.from_numpy(a)))
            assert (sig.dim_plus, sig.dim_minus) == (plus + (fast > 0), minus + (fast < 0))
            assert [(m, c) for _, m, c in sig.center] == [(1, 1), (1, 1)]
            assert abs(float(sig.center[1][0]) - beta) < 1e-6


def test_float_tol_must_be_positive():
    a = Matrix.floating([[1.0, 0.0], [0.0, 2.0]])
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        for entry in (eigenvalues, spectrum_descriptor):
            with pytest.raises(InputError, match="positive finite tolerance"):
                entry(a, tol=tol)


def _reference_float_clusters(a, tol, shifts):
    """The greedy loop over every root, one rank walk per tentative mean,
    each measured shift appended to shifts: the reference for
    _float_clusters, which settles isolated roots in one batch and, at
    the default tol, derives the ranks of those it proves simple
    (_certified_simple) in place of walking them."""
    arr = a.to_numpy()
    roots = np.linalg.eigvals(arr)
    n = a.n
    scale = float(np.linalg.norm(arr, 2))
    order = np.minimum(np.arange(1, n + 1), 4)
    limit = (100.0 * np.finfo(float).eps ** (1.0 / order) * scale if tol is None
             else np.full(n, float(tol)))
    axis = 100.0 * np.finfo(float).eps * scale
    measured = {}
    dist = np.abs(roots[:, None] - roots[None, :])
    left = sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))
    clusters = []
    while left:
        idx = np.array(left)
        near = idx[np.argsort(dist[idx[0], idx], kind="stable")]
        spread = np.maximum.accumulate(np.tril(dist[np.ix_(near, near)]).max(axis=1))
        for size in np.flatnonzero(spread <= limit[: len(near)])[::-1] + 1:
            mean = complex(roots[near[:size]].mean())
            if mean.conjugate() not in measured:
                measured[mean] = reference_float_ranks(arr, scale, mean, n, tol)
                shifts.append(mean)
            ranks = measured.get(mean.conjugate(), measured.get(mean))
            if n - ranks[-1] == size:
                break
        if CENTER_TOL < abs(mean.real) <= axis:
            raise DiagnosticError(
                f"the real part of {mean:.6g} is within rounding ({axis:.2g}) "
                "of the imaginary axis: center or hyperbolic cannot be told"
            )
        clusters.append((mean, int(size), float(limit[size - 1]), ranks))
        taken = set(near[:size].tolist())
        left = [i for i in left if i not in taken]
    return clusters


def _outcome(call, *args):
    try:
        return call(*args)
    except DiagnosticError as exc:
        return str(exc)


def test_float_clusters_match_the_greedy_loop(monkeypatch):
    # isolated roots, near-defective clusters of J_k (k = 2..4) and the
    # scattered roots of large J_m (m = 8..16), which the loop may take
    # as clusters of any size or leave as lone roots; the shifts measured
    # are among the reference's, which also grows the mirror of each
    # complex cluster that _float_clusters settles with the cluster
    measured = []

    def recorded(arr, norm, shifts, kmax, tol=None):
        measured.extend(shifts)
        return numkit.float_rank_sequence(arr, norm, shifts, kmax, tol)

    monkeypatch.setattr(spectral, "float_rank_sequence", recorded)
    rng = np.random.default_rng(83)
    cases = []
    for k in (2, 3, 4):
        for _ in range(8):
            lam = float(rng.choice((-1.0, 0.0, 0.5)))
            hyperbolic, _ = hyperbolic_blocks(rng, [complex(lam), 1.5j], 6)
            cases.append(haar_similar(rng, [jordan(lam, k), rotation(0, 1.5)] + hyperbolic))
    for m in range(8, 17):
        for lam in (-0.5, 0.0):
            cases.append(haar_similar(rng, [jordan(lam, m)]))
            cases.append(haar_similar(rng, [jordan(lam, m), rotation(0.0, 2.0), np.diag([3.0])]))
    merged = set()
    for arr in cases:
        a = Matrix.from_numpy(arr)
        for tol in (None, 1e-3):
            measured.clear()
            got = _outcome(_float_clusters, a, tol)
            want_shifts = []
            assert got == _outcome(_reference_float_clusters, a, tol, want_shifts)
            assert not Counter(measured) - Counter(want_shifts)
            if isinstance(got, list):
                merged.add(max(size for _, size, _, _ in got))
    assert 1 in merged and max(merged) >= 4


def _python_conjugate_order(roots):
    """The root order and mirror of _float_clusters by Python's sort on
    (re, im) and (re, -im) keys, and its refusal: the reference for the
    np.lexsort order of _conjugate_order."""
    n = len(roots)
    roots = roots[sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))]
    mirror = sorted(range(n), key=lambda i: (roots[i].real, -roots[i].imag))
    for z, w in zip(roots.tolist(), roots[mirror].tolist()):
        if w != z.conjugate():
            raise DiagnosticError(f"the LAPACK root {z:.6g} has no exact conjugate")
    return roots, mirror


def _tied_root_cases():
    """Matrices whose LAPACK roots tie in their real parts, or are equal:
    rotation blocks on one real part, J_2 and J_3 at one value (exact in
    block form, split by rounding once rotated), and real roots at a
    pair's real part."""
    rng = np.random.default_rng(2503)
    blocks = [
        [rotation(0.0, 1.0), rotation(0.0, 2.0), rotation(0.0, 0.5)],
        [rotation(-1.0, 1.0), rotation(-1.0, 3.0), np.diag([-1.0]), rotation(-1.0, 1.0)],
        [jordan(-0.5, 2), jordan(-0.5, 3)],
        [jordan(0.0, 2), jordan(0.0, 3), rotation(0.0, 1.0)],
        [np.diag([0.75, 0.75]), rotation(0.75, 1.5), rotation(0.75, -1.5), np.diag([0.0])],
        [rotation(2.0, 1.0), jordan(2.0, 2), rotation(-2.0, 1.0), np.diag([-2.0, 2.0])],
    ]
    cases = []
    for parts in blocks:
        cases.append(direct_sum(parts))
        cases.append(haar_similar(rng, parts))
    return cases


def test_conjugate_order_equals_the_python_sort():
    rng = np.random.default_rng(2504)
    for arr in _tied_root_cases():
        roots = np.linalg.eigvals(arr)
        got, want = _conjugate_order(roots), _python_conjugate_order(roots)
        assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
    # conjugate-closed root sets with ties, equal roots and signed zeros,
    # in shuffled orders
    values = [0.0, -0.0, 1.0, -1.0, 0.5]
    for _ in range(300):
        roots = []
        while len(roots) < 9:
            z = complex(rng.choice(values), rng.choice(values))
            roots += [z, z.conjugate()] if z.imag else [z]
        roots = np.array(roots)[rng.permutation(len(roots))]
        got, want = _conjugate_order(roots), _python_conjugate_order(roots)
        assert [(repr(z.real), repr(z.imag)) for z in got[0].tolist()] == \
            [(repr(z.real), repr(z.imag)) for z in want[0].tolist()]
        assert got[1] == want[1]


def test_float_clusters_keep_the_python_sorted_order(monkeypatch):
    # tied real parts must give the same clusters, in the same order, as
    # the Python-sorted roots did
    cases = _tied_root_cases()
    outcomes = [[_outcome(_float_clusters, Matrix.from_numpy(arr), tol)
                 for tol in (None, 1e-3)] for arr in cases]
    monkeypatch.setattr(spectral, "_conjugate_order", _python_conjugate_order)
    for arr, got in zip(cases, outcomes):
        want = [_outcome(_float_clusters, Matrix.from_numpy(arr), tol) for tol in (None, 1e-3)]
        assert got == want
    assert any(isinstance(got, list) and any(size > 1 for _, size, _, _ in got)
               for pair in outcomes for got in pair)


def test_root_without_exact_conjugate_is_named_in_re_im_order(monkeypatch):
    # LAPACK pairs the roots of a real matrix exactly; were it not to,
    # the refusal names the first unpaired root in (re, im) order
    roots = np.array([1 + 2j, 3.0 + 0j, 1 - 2.000001j, 1 + 1j, 1 - 1j, -1 + 0.5j,
                      -2.0 + 0j, -1 - 0.5j, 1 + 2.000001j, 1 - 2.0000001j])
    monkeypatch.setattr(np.linalg, "eig", lambda arr: (roots.copy(), np.eye(len(roots))))
    a = Matrix.floating(np.eye(len(roots)).tolist())
    with pytest.raises(DiagnosticError) as ours:
        _float_clusters(a, None)
    with pytest.raises(DiagnosticError) as reference:
        _python_conjugate_order(roots)
    assert str(ours.value) == str(reference.value) == (
        "the LAPACK root 1-2j has no exact conjugate")


def test_scattered_jordan_blocks_stay_refused():
    # LAPACK scatters the roots of J_12(-1/2) and J_16(-1/2) beyond the
    # widest merge limit, so every root is isolated and shows nullity 1
    # at k = 1; the nullities sum to n, but only the second power exposes
    # the block, and the matrices must be refused, not read as simple
    for m in (12, 16):
        arr = haar_similar(np.random.default_rng(0), [jordan(-0.5, m)])
        clusters = _float_clusters(Matrix.from_numpy(arr), None)
        assert [size for _, size, _, _ in clusters] == [1] * m
        assert sum(m - ranks[1] for _, _, _, ranks in clusters) == m
        with pytest.raises(DiagnosticError):
            spectrum_descriptor(Matrix.from_numpy(arr))


def test_eigvals_gives_the_roots_of_eig_bit_for_bit():
    # under an explicit tol _float_clusters takes its roots from eigvals,
    # with no eigenvectors; the clusters stay those of the eig roots only
    # when LAPACK returns the same bits either way
    rng = np.random.default_rng(2801)
    cases = [rng.standard_normal((n, n)) for n in range(4, 17) for _ in range(20)]
    cases += [haar_similar(rng, [jordan(-0.5, m), rotation(0.0, 1.0), np.diag([2.0, -1.5])])
              for m in (2, 3, 4, 8) for _ in range(10)]
    cases += [rng.integers(-3, 4, (n, n)).astype(float) for n in (4, 8, 12, 16) for _ in range(10)]
    for arr in cases:
        assert np.linalg.eigvals(arr).tobytes() == np.linalg.eig(arr)[0].tobytes()


def test_explicit_tol_takes_no_eigenvectors(monkeypatch):
    def no_eig(arr):
        raise AssertionError("eigenvectors taken under an explicit tol")

    arr = haar_similar(np.random.default_rng(2802), [rotation(0.0, 1.0), np.diag([2.0, -1.5])])
    want = _float_clusters(Matrix.from_numpy(arr), 1e-6)
    monkeypatch.setattr(np.linalg, "eig", no_eig)
    assert _float_clusters(Matrix.from_numpy(arr), 1e-6) == want
    with pytest.raises(AssertionError, match="eigenvectors taken"):
        _float_clusters(Matrix.from_numpy(arr), None)


def _proven(arr):
    """_certified_simple on the roots and eigenvectors of one eig call."""
    roots, vecs = np.linalg.eig(arr)
    return roots, _certified_simple(arr, float(np.linalg.norm(arr, 2)), roots, vecs)


def test_certificate_never_proves_a_defective_root_simple():
    # J_m(lam) next to three simple values under a Haar rotation: LAPACK
    # splits the defective eigenvalue into m roots, and none of them may
    # be proven simple, whatever the block size or the scale of lam
    rng = np.random.default_rng(2601)
    for m in (2, 3, 4, 8):
        for lam in (-0.5, 0.0, 0.3, 1e3):
            for _ in range(50):
                simple = np.array([-2.5, 1.7, 2.9]) + rng.uniform(-0.2, 0.2, 3)
                roots, proven = _proven(haar_similar(rng, [jordan(lam, m), np.diag(simple)]))
                defective = np.argsort(np.abs(roots - lam), kind="stable")[:m]
                assert not proven[defective].any(), (m, lam)
    # the scattered roots of one large block are isolated, yet none is simple
    for m in (12, 16):
        _, proven = _proven(haar_similar(np.random.default_rng(0), [jordan(-0.5, m)]))
        assert not proven.any()


def test_certificate_proves_simple_spectra_at_every_scale():
    rng = np.random.default_rng(2602)
    for c in (1e-12, 1.0, 1e12):
        for _ in range(50):
            blocks, _ = hyperbolic_blocks(rng, [0j], int(rng.integers(2, 13)))
            _, proven = _proven(c * haar_similar(rng, blocks))
            assert proven.all(), c


def test_cluster_overlapping_its_conjugate_stays_refused():
    # under this rotation the ranks confirm a group of three of the four
    # roots of J_4(1.3), and that group holds a conjugate pair and one
    # root of a second pair: it overlaps its mirror without equalling it
    arr = haar_similar(np.random.default_rng(0), [jordan(0.2, 4), jordan(1.25, 2), jordan(1.3, 4)])
    with pytest.raises(DiagnosticError):
        spectrum_descriptor(Matrix.from_numpy(arr))


def test_exact_matrix_refuses_tol_before_any_work(monkeypatch):
    def computed(a):
        raise AssertionError("the exact spectrum was computed")

    monkeypatch.setattr(spectral, "_exact_spectrum", computed)
    a = Matrix.exact([[0, -1], [1, 0]])
    for entry in (eigenvalues, spectrum_descriptor):
        with pytest.raises(InputError, match="exact mode requires tol = 0"):
            entry(a, tol=1e-6)


# ---- split ------------------------------------------------------------------------


def test_split_dims_exact_signs():
    m = Matrix.exact(
        [[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, -3]]
    )
    s = split_dims(eigenvalues(m))
    assert (s.dim_plus, s.dim_minus, s.dim_zero) == (1, 1, 1)
    # an eigenvalue beyond the float range takes its exact sign; the
    # default tolerance comes from float values only, so none is converted
    huge = split_dims(eigenvalues(Matrix.exact([[10**400, 1], [0, 2]])))
    assert (huge.dim_plus, huge.dim_minus, huge.dim_zero) == (2, 0, 0)


def test_split_dims_float_tolerance():
    eigs = ((1e-12, 1), (2.0, 1), (-1.0, 2))
    s = split_dims(eigs)
    assert (s.dim_plus, s.dim_minus, s.dim_zero) == (1, 2, 1)
    s2 = split_dims(eigs, tol=1e-15)
    assert (s2.dim_plus, s2.dim_minus, s2.dim_zero) == (2, 2, 0)
    # a NaN or negative tolerance read as 0 once; now it is refused
    for bad in (float("nan"), -1.0):
        with pytest.raises(InputError, match="tolerance must be a nonnegative"):
            split_dims(eigs, tol=bad)


def test_split_dims_center_pair():
    m = realize_real([(Fraction(0), Fraction(2), 1, 1), (Fraction(1), Fraction(0), 1, 1)])
    s = split_dims(eigenvalues(m))
    assert (s.dim_plus, s.dim_minus, s.dim_zero) == (1, 0, 2)


# ---- jordan counts -----------------------------------------------------------------


def test_jordan_counts_mixed_blocks():
    a = realize_real([(0, 0, 2, 1), (0, 0, 1, 1), (1, 0, 2, 1)])
    assert jordan_counts(a, Fraction(0)) == ((1, 1), (2, 1))
    assert jordan_counts(a, Fraction(1)) == ((2, 1),)


def test_jordan_counts_similarity_invariant(rng):
    for _ in range(8):
        parts = random_parts(rng, 6)
        a = realize_real(parts)
        s, s_inv = random_unimodular(rng, a.n)
        b = (s @ a) @ s_inv
        for lam, _ in eigenvalues(a):
            assert jordan_counts(a, lam) == jordan_counts(b, lam)


def test_jordan_counts_off_axis_pairs_match_construction(rng):
    # pairs a +- bi with a != 0 are measured through q(A) = (A - aI)^2 + b^2 I;
    # a second pair -a +- bi shares b, and a real block shares a, so
    # neither the imaginary nor the real part alone tells them apart
    for _ in range(6):
        a = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 4), rng.choice((1, 3)))
        parts = [
            (a, b, 1, rng.randint(1, 2)),
            (a, b, 2, 1),
            (-a, b, rng.randint(1, 2), 1),
            (a, Fraction(0), 1, 1),
        ]
        base = realize_real(parts)
        s, s_inv = random_unimodular(rng, base.n, ops=4 * base.n)
        dense = (s @ base) @ s_inv
        expected: dict = {}
        for lam, m, count in expected_blocks(parts):
            expected.setdefault(lam, []).append((m, count))
        for lam, counts in expected.items():
            got = jordan_counts(dense, lam)
            assert got == tuple(sorted(counts)), (parts, lam)
            if not isinstance(lam, RationalComplex):
                # a real eigenvalue given as a zero-imaginary wrapper
                assert jordan_counts(dense, RationalComplex(lam, Fraction(0))) == got


def test_jordan_counts_rejects_non_eigenvalue():
    a = Matrix.exact([[1, 0], [0, 2]])
    with pytest.raises(InputError):
        jordan_counts(a, Fraction(5))
    # in float mode full rank is a refusal to certify, not an input error
    with pytest.raises(DiagnosticError):
        jordan_counts(a.to_float(), 5.0)


def test_jordan_counts_float_defective():
    j = Matrix.from_numpy(direct_sum([jordan(2.0, 2), jordan(2.0, 1)]))
    assert jordan_counts(j, 2.0, tol=1e-6) == ((1, 1), (2, 1))


# ---- descriptors ----------------------------------------------------------------------


def test_descriptor_merges_and_sorts():
    blocks = [
        (Fraction(1), 1, 1),
        (Fraction(0), 2, 1),
        (Fraction(1), 1, 2),
    ]
    d = SpectrumDescriptor.make(blocks)
    assert d.blocks == (
        (Fraction(0), 2, 1),
        (Fraction(1), 1, 3),
    )
    assert d.n == 5 and d.exact


def test_descriptor_zero_imag_wrappers_canonicalized():
    viaRC = SpectrumDescriptor.make([(RationalComplex(Fraction(2), Fraction(0)), 1, 1)])
    viaF = SpectrumDescriptor.make([(Fraction(2), 1, 1)])
    assert viaRC == viaF
    via_c = SpectrumDescriptor.make([(complex(2.0, 0.0), 1, 1)])
    via_f = SpectrumDescriptor.make([(2.0, 1, 1)])
    assert via_c == via_f


def test_descriptor_dimension_check():
    with pytest.raises(InputError):
        SpectrumDescriptor.make([(Fraction(0), 2, 1)], n=3)


def test_descriptor_conjugate_symmetry_enforced_when_declared():
    asym = [(RationalComplex(Fraction(0), Fraction(1)), 1, 1)]
    d = SpectrumDescriptor.make(asym)  # inferred: not real-sourced
    assert not d.real_source
    with pytest.raises(InputError):
        SpectrumDescriptor.make(asym, real_source=True)


def test_descriptor_infers_real_source_for_symmetric_data():
    sym = [
        (RationalComplex(Fraction(0), Fraction(1)), 2, 1),
        (RationalComplex(Fraction(0), Fraction(-1)), 2, 1),
    ]
    d = SpectrumDescriptor.make(sym)
    assert d.real_source and d.exact and d.n == 4


def test_spectrum_descriptor_matches_construction(rng):
    for _ in range(10):
        parts = random_parts(rng, 8)
        a = realize_real(parts)
        assert spectrum_descriptor(a) == SpectrumDescriptor.make(expected_blocks(parts))


def test_spectrum_descriptor_float_path():
    parts = [(Fraction(0), Fraction(1), 1, 1), (Fraction(-1), Fraction(0), 2, 1)]
    a = realize_real(parts).to_float()
    d = spectrum_descriptor(a, tol=1e-6)
    assert not d.exact and d.real_source
    sizes = sorted((b.m, b.count) for b in d.blocks)
    assert sizes == [(1, 1), (1, 1), (2, 1)]


def test_spectrum_descriptor_skips_the_symmetry_scan(monkeypatch, rng):
    # mirrored blocks are conjugate-symmetric by construction, so only
    # caller-supplied blocks are scanned
    mats = [realize_real(random_parts(rng, 8)) for _ in range(6)]
    float_blocks = [jordan(-1.0, 2), rotation(0.0, 1.5), rotation(0.5, 2.0), jordan(2.0, 1)]
    mats += [Matrix.from_numpy(haar_similar(np.random.default_rng(seed), float_blocks))
             for seed in range(4)]
    assert {a.mode for a in mats} == {"exact", "float"}
    scans = _count_calls(monkeypatch, spectral, "_is_conjugate_symmetric")
    for a in mats:
        d = spectrum_descriptor(a)
        assert scans == []
        assert d == SpectrumDescriptor.make(d.blocks, real_source=True)
        assert len(scans) == 1
        scans.clear()


def test_spectrum_descriptor_center_blocks():
    parts = [(Fraction(0), Fraction(3), 2, 1), (Fraction(2), Fraction(0), 1, 1)]
    d = spectrum_descriptor(realize_real(parts))
    center = d.center_blocks()
    assert len(center) == 2 and all(b.m == 2 for b in center)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=25, deadline=None)
def test_descriptor_make_idempotent(m, count):
    blocks = [(Fraction(0), m, count), (Fraction(1), 1, 1)]
    d1 = SpectrumDescriptor.make(blocks)
    d2 = SpectrumDescriptor.make(list(d1.blocks))
    assert d1 == d2


# ---- float robustness sweep ----------------------------------------------------------

# refusals allowed per size in the sweep below: the measured rate, as a ceiling
SWEEP_MAX_REFUSED = 0


def _sweep_case(rng, n):
    """J2(0), a 4x4 real Jordan block at +-i, a simple pair +-i beta, and
    simple hyperbolic values, under Haar similarity; with the expected
    (expanding, contracting) dimensions and center entries."""
    beta = float(rng.uniform(1.5, 2.5))
    jordan_i = np.block([[rotation(0, 1), np.eye(2)], [np.zeros((2, 2)), rotation(0, 1)]])
    blocks = [np.array([[0.0, 1.0], [0.0, 0.0]]), jordan_i, rotation(0, beta)]
    taken = [0j, 1j, -1j, complex(0, beta), complex(0, -beta)]
    hyperbolic, dims = hyperbolic_blocks(rng, taken, n - 8)
    center = sorted([(0.0, 2, 1), (1.0, 2, 1), (-1.0, 2, 1), (beta, 1, 1), (-beta, 1, 1)])
    return haar_similar(rng, blocks + hyperbolic), dims, center


def test_float_jordan_sweep_never_gives_a_wrong_signature():
    # a nilpotent J2(0) splits into roots about sqrt(u ||A||) apart and the
    # 4x4 block at +-i into two such pairs: each must be measured as one
    # size-2 block at its cluster mean, or refused, never split into
    # hyperbolic or size-1 center blocks
    rng = np.random.default_rng(2026)
    for n in (10, 12, 16, 20, 24):
        wrong = refused = 0
        for _ in range(20):
            a, dims, center = _sweep_case(rng, n)
            try:
                sig = conjugacy_signature(spectrum_descriptor(Matrix.from_numpy(a)))
            except DiagnosticError:
                refused += 1
                continue
            got = sorted((float(im), m, c) for im, m, c in sig.center)
            if (sig.dim_plus, sig.dim_minus) != dims or len(got) != len(center) or any(
                abs(g[0] - w[0]) > 1e-6 or g[1:] != w[1:] for g, w in zip(got, center)
            ):
                wrong += 1
        assert wrong == 0, (n, wrong)
        assert refused <= SWEEP_MAX_REFUSED, (n, refused)
