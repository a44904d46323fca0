"""Minimal resolutions and the cochain-complex toolbox."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extalg import (
    ComplexMap,
    ExtAlgebra,
    FreeComplex,
    GradedAlgebra,
    NotAChainMap,
    identity_morphism,
    internal_shift,
    induce_up,
    mapping_cone,
    minimal_resolution,
    morphism_from_images,
    parse_presentation,
    polynomial_algebra_presentation,
    shift_complex,
    twist_complex,
    verify_exactness,
)
from extalg.linalg import RationalField

from oracles import bar_tor_dimensions
from strategies import presentations


def gen_table(P, N):
    out = {}
    for n in range(N + 1):
        for t in P.gens.get(-n, []):
            out[(n, t)] = out.get((n, t), 0) + 1
    return out


def exact_away_from_boundary(P, N, D):
    hom = verify_exactness(P, D)
    return all(v == 0 for (n, _d), v in hom.items() if n > -N)


def test_resolution_polynomial_algebra():
    Z = GradedAlgebra(polynomial_algebra_presentation(RationalField(), "z", 3), 6)
    P = minimal_resolution(Z, 3, 6)
    assert gen_table(P, 3) == {(0, 0): 1, (1, 3): 1}
    P.assert_dd_zero()
    assert all(v == 0 for v in verify_exactness(P, 6).values())
    # d^{-1} is right-multiplication data for z
    assert P.diffs[-1] == [[{(0,): Fraction(1)}]]


def test_resolution_quantum_plane(qplane):
    A = GradedAlgebra(qplane, 6)
    P = minimal_resolution(A, 4, 6)
    assert gen_table(P, 4) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    P.assert_dd_zero()
    assert all(v == 0 for v in verify_exactness(P, 6).values())


def test_resolution_cube_relation(cube):
    A = GradedAlgebra(cube, 8)
    P = minimal_resolution(A, 5, 8)
    assert gen_table(P, 5) == {
        (0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1, (4, 6): 1, (5, 7): 1,
    }
    P.assert_dd_zero()
    assert exact_away_from_boundary(P, 5, 8)
    # the differentials alternate multiplication by x and x^2
    entries = [P.diffs[-j][0][0] for j in range(1, 6)]
    assert entries == [{(0,): Fraction(1)}, {(0, 0): Fraction(1)}] * 2 + [{(0,): Fraction(1)}]


def test_resolution_matches_bar_oracle(qplane, cube):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 3, 4)
    assert gen_table(P, 3) == bar_tor_dimensions(A, 3, 4)
    C = GradedAlgebra(cube, 7)
    PC = minimal_resolution(C, 4, 7)
    assert gen_table(PC, 4) == bar_tor_dimensions(C, 4, 7)


@settings(max_examples=20, deadline=None)
@given(presentations(), st.data())
def test_random_presentation_matches_bar_oracle_and_precedence(pres, data):
    N, D = 3, 4
    A = GradedAlgebra(pres, D)
    P = minimal_resolution(A, N, D)
    assert gen_table(P, N) == bar_tor_dimensions(A, N, D)
    perm = data.draw(st.permutations(range(len(pres.generators))))
    A2 = GradedAlgebra(pres, D, precedence=perm)
    E2 = ExtAlgebra(A2, minimal_resolution(A2, N, D), N, D)
    assert E2.dimension_table() == ExtAlgebra(A, P, N, D).dimension_table()


def test_resolution_minimality(qplane):
    A = GradedAlgebra(qplane, 6)
    P = minimal_resolution(A, 4, 6)
    for n, M in P.diffs.items():
        for row in M:
            for e in row:
                assert not A.augmentation(e)


def test_euler_identity(qplane, cube):
    for pres, N, D in ((qplane, 4, 6), (cube, 5, 8)):
        A = GradedAlgebra(pres, D)
        P = minimal_resolution(A, N, D)
        for d in range(D + 1):
            acc = 0
            for n in range(N + 1):
                term = sum(A.hilbert(d - t) for t in P.gens[-n] if d - t >= 0)
                acc += term if n % 2 == 0 else -term
            assert acc == (1 if d == 0 else 0)


def test_dimension_table_precedence_invariant(qplane):
    A1 = GradedAlgebra(qplane, 5)
    A2 = GradedAlgebra(qplane, 5, precedence=[1, 0])
    t1 = gen_table(minimal_resolution(A1, 3, 5), 3)
    t2 = gen_table(minimal_resolution(A2, 3, 5), 3)
    assert t1 == t2


def test_shift_complex_signs(qplane):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 3, 4)
    S0 = shift_complex(P, 0)
    assert S0.gens == P.gens and S0.diffs == P.diffs
    S1 = shift_complex(P, 1)
    assert S1.gens[-2] == P.gens[-1]
    assert S1.diffs[-2][0][0] == A.free.scale(P.diffs[-1][0][0], -1)
    # shifting twice by 1 equals shifting once by 2 (signs compose)
    S11 = shift_complex(S1, 1)
    S2 = shift_complex(P, 2)
    assert S11.gens == S2.gens and S11.diffs == S2.diffs


def test_internal_shift_convention():
    Z = GradedAlgebra(polynomial_algebra_presentation(RationalField(), "z", 2), 6)
    P = minimal_resolution(Z, 2, 6)
    assert internal_shift(P, 0).gens == P.gens
    M = internal_shift(P, -2)  # the (-l) shift puts the unit generator in degree l
    assert M.gens[0] == [2]
    assert internal_shift(M, 2).gens == P.gens
    N = internal_shift(internal_shift(P, -1), -1)
    assert N.gens == M.gens


def test_twist_complex_roundtrip(qplane):
    A = GradedAlgebra(qplane, 5)
    sigma = morphism_from_images(
        A, A, {0: {(0,): Fraction(3)}, 1: {(1,): Fraction(5)}}, automorphism=True)
    P = minimal_resolution(A, 3, 5)
    T = twist_complex(P, sigma)
    assert T.gens == P.gens
    back = twist_complex(T, sigma.inverse)
    for n in P.diffs:
        assert back.diffs[n] == P.diffs[n]
    # identity twist is a no-op
    ident = identity_morphism(A)
    assert twist_complex(P, ident).diffs[-1] == P.diffs[-1]


def test_twist_complex_scaling():
    kx = parse_presentation("field Q\ngens x:1")
    A = GradedAlgebra(kx, 4)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    P = minimal_resolution(A, 2, 4)
    # entries of the twisted complex pass through sigma^{-1}: x -> x/2
    T = twist_complex(P, sigma)
    assert T.diffs[-1][0][0] == {(0,): Fraction(1, 2)}


def test_induce_up_plain_and_twisted(kx):
    A = GradedAlgebra(kx, 4)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    from extalg import skew_extension
    from extalg.cone import inclusion_of_base
    B = GradedAlgebra(skew_extension(A, sigma, 1, "z"), 4)
    iota = inclusion_of_base(A, B)
    P = minimal_resolution(A, 2, 4)
    plain = induce_up(B, iota, P)
    assert plain.diffs[-1][0][0] == {(0,): Fraction(1)}
    twisted = induce_up(B, iota, P, twist=sigma)
    assert twisted.diffs[-1][0][0] == {(0,): Fraction(2)}
    shifted = internal_shift(twisted, -1)
    assert shifted.gens[-1] == [2] and shifted.gens[0] == [1]


def test_mapping_cone_zero_map(qplane):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 2, 4)
    zero = ComplexMap(P, P, {n: [[{} for _ in P.gens[n]] for _ in P.gens[n]]
                             for n in P.gens})
    cone = mapping_cone(zero)
    for n in cone.gens:
        assert cone.gens[n] == P.gens.get(n + 1, []) + P.gens.get(n, [])
    # no cross terms: the Y block keeps d, the X block carries -d
    xs = len(P.gens.get(0, []))
    M = cone.diffs[-1]
    assert M[0][:xs] == [{}]
    assert M[0][xs] == P.diffs[-1][0][0]
    xneg = mapping_cone(zero).diffs[-2][0][0]
    assert xneg == A.free.scale(P.diffs[-1][0][0], -1)


def test_mapping_cone_identity_is_exact(qplane):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 3, 4)
    one = A.field.one
    comps = {n: [[{(): one} if i == j else {} for j in range(len(P.gens[n]))]
                 for i in range(len(P.gens[n]))] for n in P.gens}
    cone = mapping_cone(ComplexMap(P, P, comps))
    hom = verify_exactness(cone, 4)
    assert all(v == 0 for v in hom.values())


def test_mapping_cone_rejects_non_chain_map(qplane):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 3, 4)
    comps = {n: [[A.free.gen_poly(0) if i == j else {} for j in range(len(P.gens[n]))]
                 for i in range(len(P.gens[n]))] for n in P.gens}
    with pytest.raises(NotAChainMap):
        mapping_cone(ComplexMap(P, P, comps))


def test_cone_of_multiplication_by_z_resolves_k():
    # 0 -> k[z](-l) -> k[z] -> 0 with right multiplication by z
    Z = GradedAlgebra(polynomial_algebra_presentation(RationalField(), "z", 2), 6)
    one = Z.field.one
    top = FreeComplex(Z, {0: [2]}, {}, augmented=False, maxdeg=6)
    bottom = FreeComplex(Z, {0: [0]}, {}, augmented=False, maxdeg=6)
    rho = ComplexMap(top, bottom, {0: [[{(0,): one}]]})
    cone = mapping_cone(rho)
    cone.augmented = True
    assert cone.gens == {-1: [2], 0: [0]}
    assert all(v == 0 for v in verify_exactness(cone, 6).values())


def test_mutation_detected(qplane):
    A = GradedAlgebra(qplane, 4)
    P = minimal_resolution(A, 3, 4)

    def clone():
        return FreeComplex(A, P.gens, {n: [[dict(e) for e in row] for row in M]
                                       for n, M in P.diffs.items()},
                           augmented=True, maxdeg=4)

    # deleting a single entry breaks d o d = 0
    broken = clone()
    broken.diffs[-2][1][0] = {}
    with pytest.raises(AssertionError):
        broken.assert_dd_zero()

    # deleting the whole differential keeps a complex but creates homology
    gutted = clone()
    gutted.diffs[-2] = [[{}], [{}]]
    gutted.assert_dd_zero()
    hom = verify_exactness(gutted, 4)
    assert hom[(-1, 2)] == 1
    assert any(v != 0 for v in hom.values())


def test_resolution_of_point_algebra():
    # no generators at all: the trivial module resolves itself
    A = GradedAlgebra(parse_presentation("field Q\ngens"), 3)
    P = minimal_resolution(A, 3, 3)
    assert gen_table(P, 3) == {(0, 0): 1}
    assert all(v == 0 for v in verify_exactness(P, 3).values())
