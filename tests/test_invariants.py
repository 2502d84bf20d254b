"""Conjugacy decision, frequency classes, profile recovery, and the
half-size reduction calculus.  Oracles: brute-force subset-gcd
enumeration for attained values, digit-string folding for composite
reductions, and round trips for the recovery routines."""

import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowclass
from conftest import (
    expected_blocks,
    haar_similar,
    hyperbolic_blocks,
    random_parts,
    random_unimodular,
    realize_real,
    rotation,
)
from flowclass import invariants
from flowclass.errors import (
    DiagnosticError,
    InconsistentInvariantsError,
    InputError,
)
from flowclass.invariants import (
    RationalClass,
    Verdict,
    block_counts_from_reduction,
    bounded_structure,
    conjugacy_signature,
    decide_conjugate,
    decide_equivalent,
    frequency_profile,
    frequency_values,
    orbit_frequency,
    preimage_dim,
    rational_classes,
    recover_multipliers,
    reduction_dimensions,
    x_reduce,
    y_reduce,
    z_reduce,
)
from flowclass.numkit import Matrix, RationalComplex
from flowclass.spectral import SpectrumDescriptor, spectrum_descriptor


def desc_of(parts):
    return SpectrumDescriptor.make(expected_blocks(parts))


# ---- signatures and the decision ---------------------------------------------


def test_signature_counts_hyperbolic_with_multiplicity():
    sig = conjugacy_signature(
        desc_of(
            [
                (Fraction(1), Fraction(0), 2, 1),
                (Fraction(-1, 2), Fraction(2), 1, 1),
                (Fraction(0), Fraction(1), 1, 1),
            ]
        )
    )
    assert sig.dim_plus == 2
    assert sig.dim_minus == 2  # the pair contributes both conjugates
    assert sig.dim_zero == 2
    assert sig.n == 6


def test_decide_conjugate_same_invariants_different_realizations():
    a = desc_of([(Fraction(0), Fraction(1), 1, 2)])
    b = desc_of([(Fraction(0), Fraction(1), 1, 1), (Fraction(0), Fraction(1), 1, 1)])
    v = decide_conjugate(conjugacy_signature(a), conjugacy_signature(b))
    assert v.conjugate and v.certificate is None


def test_decide_rotation_speeds_differ():
    one = conjugacy_signature(desc_of([(Fraction(0), Fraction(1), 1, 1)]))
    two = conjugacy_signature(desc_of([(Fraction(0), Fraction(2), 1, 1)]))
    v = decide_conjugate(one, two)
    assert not v.conjugate
    assert "center eigenvalue" in v.certificate


def test_decide_hyperbolic_dims_beat_center_walk():
    a = conjugacy_signature(desc_of([(Fraction(1), Fraction(0), 1, 1),
                                     (Fraction(-1), Fraction(0), 1, 1)]))
    b = conjugacy_signature(desc_of([(Fraction(2), Fraction(0), 2, 1)]))
    v = decide_conjugate(a, b)
    assert not v.conjugate and "expanding" in v.certificate


def test_decide_jordan_structure_in_center_matters():
    a = conjugacy_signature(desc_of([(Fraction(0), Fraction(1), 2, 1)]))
    b = conjugacy_signature(desc_of([(Fraction(0), Fraction(1), 1, 2)]))
    v = decide_conjugate(a, b)
    assert not v.conjugate and "center block" in v.certificate


def test_decide_hyperbolic_jordan_structure_is_invisible():
    # same expanding dimension, different block sizes: still conjugate
    a = conjugacy_signature(desc_of([(Fraction(1), Fraction(0), 2, 1)]))
    b = conjugacy_signature(desc_of([(Fraction(3), Fraction(0), 1, 2)]))
    assert decide_conjugate(a, b).conjugate


def test_decide_equivalent_is_its_own_decision():
    # rotation(1) and rotation(2) have the same orbits, run at different speeds
    assert decide_equivalent is not decide_conjugate
    assert flowclass.decide_equivalent is decide_equivalent
    assert "decide_equivalent" in flowclass.__all__
    assert "decide_equivalent" in invariants.__all__
    one = conjugacy_signature(desc_of([(Fraction(0), Fraction(1), 1, 1)]))
    two = conjugacy_signature(desc_of([(Fraction(0), Fraction(2), 1, 1)]))
    assert not decide_conjugate(one, two).conjugate
    assert decide_equivalent(one, two) == Verdict(True)


def test_decide_equivalent_matches_conjugate(rng):
    # conjugate implies equivalent; with no nonzero center frequency the
    # two criteria are the same
    for _ in range(40):
        parts, other = random_parts(rng, 6), random_parts(rng, 6)
        a, b = (conjugacy_signature(desc_of(p)) for p in (parts, other))
        same = conjugacy_signature(desc_of(list(reversed(parts))))
        assert decide_conjugate(a, same).conjugate and decide_equivalent(a, same).conjugate
        if decide_conjugate(a, b).conjugate:
            assert decide_equivalent(a, b).conjugate
        if not any(im for im, _, _ in a.center + b.center):
            assert decide_equivalent(a, b).conjugate == decide_conjugate(a, b).conjugate


SCALES = (Fraction(1, 3), Fraction(2), Fraction(10**6))


def test_positive_multiples_are_equivalent_exact():
    # x' = cAx has the orbits of x' = Ax, time rescaled by c > 0; the
    # matrices of ACCEPTANCE 1 (same seed and draws)
    rng = random.Random(101)
    for _ in range(200):
        parts = random_parts(rng, max_n=8)
        a = realize_real(parts)
        s, s_inv = random_unimodular(rng, a.n)
        b = s @ a @ s_inv
        sig_a = conjugacy_signature(spectrum_descriptor(a))
        rotating = any(im for im, _, _ in sig_a.center)
        for c in SCALES:
            cb = Matrix.exact([[c * x for x in row] for row in b.rows])
            sig_cb = conjugacy_signature(spectrum_descriptor(cb))
            assert decide_equivalent(sig_a, sig_cb) == Verdict(True), (parts, c)
            assert decide_equivalent(sig_cb, sig_a) == Verdict(True), (parts, c)
            assert decide_conjugate(sig_a, sig_cb).conjugate == (not rotating)


def test_positive_multiples_are_equivalent_float():
    gen = np.random.default_rng(1616)
    for _ in range(20):
        beta = float(gen.uniform(0.5, 2.0))
        center = [rotation(0.0, beta), rotation(0.0, 2.5 * beta), np.zeros((1, 1))]
        taken = [0j, complex(0, beta), complex(0, 2.5 * beta)]
        hyperbolic, _ = hyperbolic_blocks(gen, taken, int(gen.integers(0, 4)))
        arr = haar_similar(gen, center + hyperbolic)
        sig = conjugacy_signature(spectrum_descriptor(Matrix.from_numpy(arr)))
        for c in map(float, SCALES):
            sig_c = conjugacy_signature(spectrum_descriptor(Matrix.from_numpy(c * arr)))
            assert decide_equivalent(sig, sig_c) == Verdict(True), c
            assert not decide_conjugate(sig, sig_c).conjugate


def test_equivalence_keeps_blocks_at_zero_and_hyperbolic_dims():
    # J_2(0) moves points along a line of fixed points; 0_2 fixes them all
    j2 = conjugacy_signature(desc_of([(Fraction(0), Fraction(0), 2, 1)]))
    zero = conjugacy_signature(desc_of([(Fraction(0), Fraction(0), 1, 2)]))
    v = decide_equivalent(j2, zero)
    assert not v.conjugate and "center block (im=0, m=2)" in v.certificate
    saddle = conjugacy_signature(desc_of([(Fraction(1), Fraction(0), 1, 1),
                                          (Fraction(-1), Fraction(0), 1, 1)]))
    source = conjugacy_signature(desc_of([(Fraction(1), Fraction(0), 1, 2)]))
    v = decide_equivalent(saddle, source)
    assert not v.conjugate and "expanding dimension" in v.certificate


def test_frequency_ratios_are_equivalence_invariants():
    # the necessity half of Kuiper's theorem (N. H. Kuiper, "The topology
    # of the solutions of a linear differential equation on R^n",
    # Manifolds - Tokyo 1973, 195-203): equivalent flows have center parts
    # linearly conjugate up to one factor c > 0, so the ratios of the
    # center frequencies are invariants and (1, 1) is not (1, 2)
    def freqs(*ws):
        return conjugacy_signature(desc_of([(Fraction(0), Fraction(w), 1, 1) for w in ws]))

    assert not decide_equivalent(freqs(1, 1), freqs(1, 2)).conjugate
    v = decide_equivalent(freqs(1, 2), freqs(1, 3))
    assert not v.conjugate
    assert v.certificate == "center eigenvalue -3/2i vs -1i (left center frequencies times 3/2)"
    assert decide_equivalent(freqs(1, 2), freqs(3, 6)).conjugate
    assert decide_equivalent(freqs(1, 2), freqs(Fraction(1, 3), Fraction(2, 3))).conjugate


def test_decide_is_equivalence_relation(rng):
    parts = [random_parts(rng, 5) for _ in range(12)]
    sigs = [conjugacy_signature(desc_of(p)) for p in parts]
    # twice a flow is equivalent to it, and conjugate only without rotation
    sigs += [conjugacy_signature(desc_of([(2 * a, 2 * b, m, c) for a, b, m, c in p]))
             for p in parts[:4]]
    for decide in (decide_conjugate, decide_equivalent):
        for s in sigs:
            assert decide(s, s).conjugate  # reflexive
        for a in sigs:
            for b in sigs:
                assert decide(a, b).conjugate == decide(b, a).conjugate
        for a in sigs:
            for b in sigs:
                for c in sigs:
                    if decide(a, b).conjugate and decide(b, c).conjugate:
                        assert decide(a, c).conjugate


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_signature_refuses_nan_or_negative_tol(tol):
    desc = SpectrumDescriptor.make([(1j, 1, 1), (-1j, 1, 1)])
    with pytest.raises(InputError, match="tolerance must be nonnegative"):
        conjugacy_signature(desc, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_decide_refuses_nan_or_negative_tol(tol):
    # with a NaN tol the rotation used to be called not conjugate to itself
    rotation = Matrix.floating([[0.0, -1.0], [1.0, 0.0]])
    s = conjugacy_signature(spectrum_descriptor(rotation))
    for decide in (decide_conjugate, decide_equivalent):
        assert decide(s, s).conjugate
        with pytest.raises(InputError, match="tolerance must be nonnegative"):
            decide(s, s, tol=tol)


def test_exact_vs_float_signatures_compare():
    ex = conjugacy_signature(desc_of([(Fraction(0), Fraction(1), 1, 1)]))
    fl = conjugacy_signature(
        SpectrumDescriptor.make([(1j, 1, 1), (-1j, 1, 1)])
    )
    assert decide_conjugate(ex, fl).conjugate
    assert decide_equivalent(ex, fl).conjugate


# ---- rational classes ------------------------------------------------------------


def test_rational_class_validation():
    with pytest.raises(InputError):
        RationalClass(Fraction(1), (2, 4))  # gcd 2
    with pytest.raises(InputError):
        RationalClass(Fraction(1), (3, 2))  # unsorted
    with pytest.raises(InputError):
        RationalClass(Fraction(0), (1,))  # zero base
    with pytest.raises(InputError):
        RationalClass(Fraction(1), ())  # empty


def test_non_finite_frequencies_are_refused():
    # NaN passed the positivity check, and rational_classes and
    # frequency_profile then failed with "cannot convert float NaN to integer"
    for beta, p in ((math.nan, (1,)), (math.inf, (1, 2))):
        with pytest.raises(InputError, match="positive and finite"):
            RationalClass(beta, p)
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="positive and finite"):
            rational_classes([bad, 1.0])
    # an exact beta is compared exactly, never converted to float
    assert RationalClass(Fraction(10**400), (1,)).frequencies == (Fraction(10**400),)
    assert rational_classes([Fraction(10**400)])[0].p == (1,)


def test_exact_rationals_form_one_class():
    cls = rational_classes([Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)])
    assert len(cls) == 1
    assert cls[0].beta == Fraction(1, 6)
    assert cls[0].p == (2, 4, 5)
    assert cls[0].frequencies == (Fraction(1, 3), Fraction(2, 3), Fraction(5, 6))


def test_exact_repeated_frequency_repeats_multiplier():
    cls = rational_classes([Fraction(1), Fraction(1), Fraction(2)])
    assert cls[0].p == (1, 1, 2)


def test_float_classes_split_by_rationality():
    out = rational_classes([math.pi, 2 * math.pi, math.sqrt(2)])
    assert len(out) == 2
    multis = sorted(c.p for c in out)
    assert multis == [(1,), (1, 2)]


def test_float_class_recovers_ratio_structure():
    beta = 0.37
    freqs = [2 * beta, 3 * beta, 5 * beta]
    (cls,) = rational_classes(freqs)
    assert cls.p == (2, 3, 5)
    assert abs(cls.beta - beta) < 1e-12


def test_float_ratio_acceptance_respects_qmax():
    # ratio 64/63 needs denominator 63; qmax=32 must keep them apart
    out = rational_classes([63.0, 64.0], qmax=32)
    assert len(out) == 2
    (joined,) = rational_classes([63.0, 64.0], qmax=64)
    assert joined.p == (63, 64)


def test_mixed_exact_float_frequencies_rejected():
    with pytest.raises(InputError):
        rational_classes([Fraction(1), 2.0])


@pytest.mark.parametrize(
    "entry",
    [
        lambda tol: rational_classes([1.0, 2.0], qmax=8, tol=tol),
        lambda tol: bounded_structure(
            SpectrumDescriptor.make([(1j, 1, 1), (-1j, 1, 1), (2j, 1, 1), (-2j, 1, 1)]),
            tol=tol,
        ),
    ],
    ids=["rational_classes", "bounded_structure"],
)
def test_nan_ratio_tol_is_refused(entry):
    # a NaN tol used to accept no ratio: [1.0, 2.0] gave two classes p = (1,)
    assert entry(1e-9)
    with pytest.raises(InputError, match="tolerance must be nonnegative"):
        entry(math.nan)


def test_nonpositive_frequency_rejected():
    with pytest.raises(InputError):
        rational_classes([Fraction(0)])
    with pytest.raises(InputError):
        rational_classes([-1.0])


def test_chained_but_not_pairwise_acceptance_is_diagnosed():
    # a~b and b~c sit inside the ratio tolerance but a~c falls outside,
    # so transitive closure would silently merge unlike frequencies
    a = 1.0
    b = a * (1 + 7e-10)
    c = a * (1 + 1.4e-9)
    with pytest.raises(DiagnosticError, match="not transitive"):
        rational_classes([a, b, c])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=1, max_value=12),
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_exact_class_beta_divides_all(pairs):
    freqs = [Fraction(a, b) for a, b in pairs]
    (cls,) = rational_classes(freqs)
    for f in freqs:
        assert (f / cls.beta).denominator == 1
    g = 0
    for x in cls.p:
        g = gcd(g, x)
    assert g == 1


# ---- attained values and profiles ---------------------------------------------------


def subset_gcds(p):
    """Brute-force oracle: gcd of every nonempty subset."""
    out = set()
    for mask in range(1, 1 << len(p)):
        g = 0
        for i in range(len(p)):
            if mask & (1 << i):
                g = gcd(g, p[i])
        out.add(g)
    return sorted(out)


@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_frequency_values_match_subset_enumeration(raw):
    g_all = 0
    for x in raw:
        g_all = gcd(g_all, x)
    p = tuple(sorted(x // g_all for x in raw))
    cls = RationalClass(Fraction(1, 4), p)
    got = frequency_values(cls)
    expected = tuple(Fraction(1, 4) * g for g in subset_gcds(p))
    assert got == expected
    # the profile reads each dimension directly; preimage_dim validates
    for c in (cls, RationalClass(0.37, p)):
        prof = frequency_profile(c, dim_fixed=2)
        assert prof.values == frequency_values(c)
        assert prof.preimage_dims == tuple((v, preimage_dim(c, v, 2)) for v in prof.values)


def test_orbit_frequency_support_gcd():
    cls = RationalClass(Fraction(1, 6), (2, 4, 5))
    assert orbit_frequency(cls, [0]) == Fraction(1, 3)
    assert orbit_frequency(cls, [0, 1]) == Fraction(1, 3)
    assert orbit_frequency(cls, [0, 2]) == Fraction(1, 6)
    assert orbit_frequency(cls, [0, 1, 2]) == Fraction(1, 6)
    with pytest.raises(InputError):
        orbit_frequency(cls, [])
    with pytest.raises(InputError):
        orbit_frequency(cls, [3])


def test_preimage_dims_worked_example():
    cls = RationalClass(Fraction(1), (2, 4, 5))
    dims = {
        float(v): preimage_dim(cls, v) for v in frequency_values(cls)
    }
    assert dims == {1.0: 3, 2.0: 2, 4.0: 1, 5.0: 1}


def test_preimage_dim_includes_fixed_part():
    cls = RationalClass(Fraction(1), (2, 3))
    assert preimage_dim(cls, Fraction(1), dim_fixed=4) == 4 + 2


def test_preimage_dim_rejects_unattained_value():
    cls = RationalClass(Fraction(1), (2, 4, 5))
    with pytest.raises(InputError):
        preimage_dim(cls, Fraction(3))
    with pytest.raises(InputError):
        preimage_dim(cls, Fraction(1, 2))


def test_frequency_profile_shape():
    cls = RationalClass(Fraction(1, 2), (2, 3))
    prof = frequency_profile(cls, dim_fixed=1)
    assert prof.values == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert prof.preimage_dims == (
        (Fraction(1, 2), 3),
        (Fraction(1), 2),
        (Fraction(3, 2), 2),
    )


# ---- recovery ---------------------------------------------------------------------------


def test_recover_worked_example():
    dims = {1.0: 3, 2.0: 2, 4.0: 1, 5.0: 1}
    p = recover_multipliers([1.0, 2.0, 4.0, 5.0], lambda v: dims[float(v)])
    assert p == (2, 4, 5)


def random_multipliers(rng, size=6, cap=50):
    while True:
        p = sorted(rng.randint(1, cap) for _ in range(rng.randint(1, size)))
        g = 0
        for x in p:
            g = gcd(g, x)
        if g == 1:
            return tuple(p)


def test_recover_round_trip_exact(rng):
    for _ in range(60):
        p = random_multipliers(rng)
        beta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        cls = RationalClass(beta, p)
        fixed = rng.randint(0, 3)
        prof = frequency_profile(cls, fixed)
        dims = dict(prof.preimage_dims)
        got = recover_multipliers(prof.values, lambda v: dims[v], fixed)
        assert got == p


def test_recover_round_trip_float(rng):
    for _ in range(30):
        p = random_multipliers(rng)
        beta = rng.uniform(0.2, 3.0)
        cls = RationalClass(beta, p)
        prof = frequency_profile(cls, 0)
        dims = {round(float(v), 12): d for v, d in prof.preimage_dims}
        got = recover_multipliers(
            [float(v) for v in prof.values],
            lambda v: dims[round(float(v), 12)],
        )
        assert got == p


def test_recover_rejects_inconsistent_dims():
    with pytest.raises(InconsistentInvariantsError):
        recover_multipliers([1.0, 2.0], {1.0: 1, 2.0: 2}.__getitem__)


def test_recover_rejects_non_integer_ratio():
    with pytest.raises(InconsistentInvariantsError):
        recover_multipliers([1.0, 2.5], lambda v: 1)


# ---- bounded structure --------------------------------------------------------------------


def test_bounded_structure_dims_and_classes():
    desc = desc_of(
        [
            (Fraction(0), Fraction(0), 1, 2),  # two fixed directions
            (Fraction(0), Fraction(1), 1, 1),
            (Fraction(0), Fraction(2), 1, 1),
            (Fraction(0), Fraction(0), 2, 1),  # nilpotent: one more fixed block
            (Fraction(1), Fraction(0), 1, 1),  # hyperbolic, ignored
        ]
    )
    b = bounded_structure(desc)
    assert b.dim_fixed == 3
    assert b.dim_bounded == 3 + 2
    assert len(b.classes) == 1 and b.classes[0].p == (1, 2)
    assert b.unclassed == ()


def test_bounded_structure_singletons_unclassed():
    desc = desc_of([(Fraction(0), Fraction(1), 1, 1)])
    ex = bounded_structure(desc)
    assert ex.classes == () and ex.unclassed == (Fraction(1),)
    assert ex.dim_bounded == 1 and ex.dim_fixed == 0


def test_bounded_structure_counts_blocks_not_sizes():
    # one size-3 rotating block is one bounded direction, fixed part none
    desc = desc_of([(Fraction(0), Fraction(1), 3, 1)])
    b = bounded_structure(desc)
    assert b.dim_bounded == 1 and b.dim_fixed == 0


def test_bounded_structure_positive_side_convention():
    # two distinct rotations plus a fixed direction: dims counted once per pair
    desc = desc_of(
        [(Fraction(0), Fraction(1), 1, 1), (Fraction(0), Fraction(3), 1, 1),
         (Fraction(0), Fraction(0), 1, 1)]
    )
    b = bounded_structure(desc)
    assert b.dim_fixed == 1
    assert b.dim_bounded == 3  # 1 fixed + 2 positive-frequency blocks
    assert len(b.classes) == 1 and b.classes[0].p == (1, 3)


def test_bounded_structure_non_real_source_uses_magnitudes():
    desc = SpectrumDescriptor.make(
        [(RationalComplex(Fraction(0), Fraction(-2)), 1, 1)]
    )
    assert not desc.real_source
    b = bounded_structure(desc)
    assert b.unclassed == (Fraction(2),)


# ---- reduction calculus ---------------------------------------------------------------------


def test_xy_reduce_values():
    assert [x_reduce(m) for m in range(7)] == [0, 1, 1, 2, 2, 3, 3]
    assert [y_reduce(m) for m in range(7)] == [0, 0, 1, 1, 2, 2, 3]


def test_z_reduce_examples():
    assert z_reduce(6, 7) == 1
    assert z_reduce(7, 7) == 0
    assert z_reduce(1, 7) == 3
    with pytest.raises(InputError):
        z_reduce(0, 5)


def word_of(k: int) -> str:
    """Binary digits of k as X/Y letters: 0 is X, 1 is Y."""
    return bin(k)[2:].replace("0", "X").replace("1", "Y")


def apply_word(word: str, m: int) -> int:
    """Fold a reduction word over a block size, rightmost letter first."""
    for ch in reversed(word):
        m = x_reduce(m) if ch == "X" else y_reduce(m)
    return m


def test_z_reduce_equals_digit_string_folding():
    for k in range(1, 65):
        for m in range(0, 65):
            assert z_reduce(k, m) == apply_word(word_of(k), m)


def test_digit_append_identities_small():
    # appending a letter matches halving the size, for all short words
    words = [""]
    for _ in range(4):
        words += [w + ch for w in words for ch in "XY" if len(w) == len(words[0])]
    words = {w for w in words if len(w) <= 4}
    for w in words:
        for beta in range(0, 20):
            assert apply_word(w + "X", 2 * beta) == apply_word(w, beta)
            assert apply_word(w + "X", 2 * beta + 1) == apply_word(w, beta + 1)
            assert apply_word(w + "Y", 2 * beta) == apply_word(w, beta)
            assert apply_word(w + "Y", 2 * beta + 1) == apply_word(w, beta)


def test_reduction_dimensions_tower():
    blocks = [
        (RationalComplex(Fraction(0), Fraction(1)), 3, 1),
        (RationalComplex(Fraction(0), Fraction(-1)), 3, 1),
        (Fraction(0), 1, 2),
    ]
    levels = reduction_dimensions(blocks, 3)
    assert [lv.dim for lv in levels] == [4, 2, 2, 0]
    assert levels[0].k == 0
    # per-eigenvalue multiplicities at stage 1: only the size-3 pair
    assert all(mult == 1 for _, mult in levels[1].mults)


def test_reduction_dimensions_rejects_hyperbolic_blocks():
    with pytest.raises(InputError):
        reduction_dimensions([(Fraction(1), 2, 1)], 2)


def test_block_counts_from_reduction_examples():
    assert block_counts_from_reduction([3, 1, 0]) == ((1, 2), (2, 1))
    assert block_counts_from_reduction([1, 1, 1, 0]) == ((3, 1),)


def test_block_counts_validation():
    with pytest.raises(InputError):
        block_counts_from_reduction([1, 2, 0])  # rises
    with pytest.raises(InputError):
        block_counts_from_reduction([2, 1])  # no trailing zero
    with pytest.raises(InputError):
        block_counts_from_reduction([])


def test_reduction_round_trip(rng):
    for _ in range(40):
        sizes = {}
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, 6)
            sizes[m] = sizes.get(m, 0) + rng.randint(1, 3)
        blocks = [(Fraction(0), m, c) for m, c in sizes.items()]
        kmax = max(sizes) + 1
        levels = reduction_dimensions(blocks, kmax)
        mults = [lv.dim for lv in levels]  # single eigenvalue: dim is its mult
        assert block_counts_from_reduction(mults) == tuple(sorted(sizes.items()))


# ---- classes from matrices end to end -----------------------------------------------------


def test_matrix_to_classes_pipeline():
    parts = [
        (Fraction(0), Fraction(1, 2), 1, 1),
        (Fraction(0), Fraction(3, 2), 1, 1),
        (Fraction(-1), Fraction(0), 1, 1),
    ]
    a = realize_real(parts)
    desc = spectrum_descriptor(a)
    b = bounded_structure(desc)
    assert len(b.classes) == 1
    assert b.classes[0].beta == Fraction(1, 2)
    assert b.classes[0].p == (1, 3)
