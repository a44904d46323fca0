"""Ext tables, Yoneda products, lifts, functoriality, the induced automorphism."""

from fractions import Fraction

import pytest

from extalg import (
    ExtAlgebra,
    GradedAlgebra,
    TruncationError,
    build_cone_resolution,
    canonical_z_class,
    compose_ext_maps,
    ext_functor_map,
    identity_morphism,
    induced_ext_automorphism,
    minimal_resolution,
    morphism_from_images,
    parse_presentation,
    polynomial_algebra_presentation,
)
from extalg.cone import inclusion_of_base
from extalg.linalg import RationalField


def ext_of(pres, N, D, **kw):
    A = GradedAlgebra(pres, D)
    P = minimal_resolution(A, N, D)
    return A, P, ExtAlgebra(A, P, N, D, **kw)


def test_ext_table_polynomial_algebra():
    for l in (1, 3):
        pres = polynomial_algebra_presentation(RationalField(), "z", l)
        _, _, E = ext_of(pres, 3, 2 * l)
        assert E.dimension_table() == {(0, 0): 1, (1, l): 1}
        xi = canonical_z_class(E, l)
        assert (xi.n, xi.t) == (1, l)
        assert E.multiply(xi, xi).is_zero()


def test_ext_table_quantum_plane(qplane):
    _, _, E = ext_of(qplane, 3, 3)
    assert E.dimension_table() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_ext_table_free_algebra():
    _, _, E = ext_of(parse_presentation("field Q\ngens x:1 y:1"), 3, 3)
    assert E.dimension_table() == {(0, 0): 1, (1, 1): 2}


def test_unit_laws(qplane):
    _, _, E = ext_of(qplane, 3, 3)
    for lab in E.labels:
        f = E.basis_class(*lab)
        assert E.multiply(E.unit, f) == f
        assert E.multiply(f, E.unit) == f


def test_cube_products_match_hand_oracle(cube):
    # frozen from the periodic resolution: lifting the degree-1 class through
    # ... ->A(-4) -x-> A(-3) -x^2-> A(-1) -x-> A gives u2*u1 = u1*u2 = w3,
    # u1*u1 = 0, u2*u2 = w4
    _, _, E = ext_of(cube, 4, 8)
    assert E.dimension_table() == {
        (0, 0): 1, (1, 1): 1, (2, 3): 1, (3, 4): 1, (4, 6): 1}
    u1 = E.basis_class(1, 1, 0)
    u2 = E.basis_class(2, 3, 0)
    one = Fraction(1)
    assert E.multiply(u1, u1).is_zero()
    assert E.multiply(u2, u1).vector == (one,)
    assert E.multiply(u1, u2).vector == (one,)
    assert E.multiply(u2, u2).vector == (one,)


def test_products_outside_window_raise(qplane):
    _, _, E = ext_of(qplane, 2, 2)
    u = E.basis_class(1, 1, 0)
    w = E.basis_class(2, 2, 0)
    with pytest.raises(TruncationError):
        E.multiply(u, w)


def test_associativity_on_certified_triples(qplane, cube):
    for pres, N, D in ((qplane, 3, 3), (cube, 4, 8)):
        _, _, E = ext_of(pres, N, D)
        for la in E.labels:
            for lb in E.labels:
                for lc in E.labels:
                    if la[0] + lb[0] + lc[0] > N or la[1] + lb[1] + lc[1] > D:
                        continue
                    a, b, c = (E.basis_class(*l) for l in (la, lb, lc))
                    assert E.multiply(E.multiply(a, b), c) == E.multiply(a, E.multiply(b, c))


def test_products_independent_of_lift_choice(qplane, cube, kx):
    for pres, N, D in ((qplane, 3, 3), (cube, 4, 8)):
        _, _, E0 = ext_of(pres, N, D)
        _, _, E1 = ext_of(pres, N, D, free_value=1)
        for la in E0.labels:
            for lb in E0.labels:
                if not E0.certified_pair(la, lb):
                    continue
                p0 = E0.multiply(E0.basis_class(*la), E0.basis_class(*lb))
                p1 = E1.multiply(E1.basis_class(*la), E1.basis_class(*lb))
                assert p0 == p1


def test_ext_of_skew_extension_on_cone(kx):
    A = GradedAlgebra(kx, 3)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    cone = build_cone_resolution(A, sigma, 1, 3, 3)
    EB = ExtAlgebra(cone.algebra, cone.complex, 3, 3)
    v = EB.basis_class(1, 1, 0)  # z-part dual
    u = EB.basis_class(1, 1, 1)  # base-part dual
    assert EB.multiply(u, u).is_zero()
    assert EB.multiply(v, v).is_zero()
    assert EB.multiply(u, v).vector == (Fraction(2),)
    assert EB.multiply(v, u).vector == (Fraction(-1),)


def test_functor_identity(qplane):
    A, P, E = ext_of(qplane, 3, 3)
    ident = identity_morphism(A)
    Eid = ext_functor_map(ident, E, E)
    for lab in E.labels:
        cls = E.basis_class(*lab)
        assert Eid.apply(cls) == cls


def test_functor_contravariance_composition(kx):
    # pi_A o iota_A = id_A gives E(iota_A) o E(pi_A) = id on E(A); the same
    # composite computed in one step must also be the identity
    A = GradedAlgebra(kx, 3)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    cone = build_cone_resolution(A, sigma, 1, 3, 3)
    B = cone.algebra
    EB = ExtAlgebra(B, cone.complex, 3, 3)
    EA = ExtAlgebra(A, cone.base, 3, 3)
    zi = cone.z_index
    piA = morphism_from_images(B, A, {0: A.free.gen_poly(0), zi: {}}, D=3)
    iotaA = inclusion_of_base(A, B)
    EpiA = ext_functor_map(piA, EA, EB)
    EiotaA = ext_functor_map(iotaA, EB, EA)
    comp = compose_ext_maps(EiotaA, EpiA)
    for lab in EA.labels:
        cls = EA.basis_class(*lab)
        assert comp.apply(cls) == cls
        assert EiotaA.apply(EpiA.apply(cls)) == cls
    # one-step lift of the composite equals the composite of lifts
    composite = morphism_from_images(
        A, A, {0: piA.apply(iotaA.images[0])}, automorphism=True, D=3)
    Ecomp = ext_functor_map(composite, EA, EA)
    for lab in EA.labels:
        cls = EA.basis_class(*lab)
        assert Ecomp.apply(cls) == cls


def test_functor_maps_are_algebra_maps(qplane):
    # E(pi_A) respects certified Yoneda products
    A = GradedAlgebra(qplane, 4)
    sigma = identity_morphism(A)
    cone = build_cone_resolution(A, sigma, 1, 3, 4, zname="t")
    B = cone.algebra
    EA = ExtAlgebra(A, cone.base, 3, 4)
    EB = ExtAlgebra(B, cone.complex, 3, 4)
    zi = cone.z_index
    piA = morphism_from_images(
        B, A, {0: A.free.gen_poly(0), 1: A.free.gen_poly(1), zi: {}}, D=4)
    EpiA = ext_functor_map(piA, EA, EB)
    for la in EA.labels:
        for lb in EA.labels:
            if not EA.certified_pair(la, lb):
                continue
            a, b = EA.basis_class(*la), EA.basis_class(*lb)
            assert EpiA.apply(EA.multiply(a, b)) == EB.multiply(EpiA.apply(a), EpiA.apply(b))


def test_induced_automorphism_scaling(kx):
    A, P, E = ext_of(kx, 2, 2)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    tau = induced_ext_automorphism(E, sigma)
    u = E.basis_class(1, 1, 0)
    assert tau.apply(u).vector == (Fraction(2),)
    ident = identity_morphism(A)
    tau_id = induced_ext_automorphism(E, ident)
    assert tau_id.apply(u) == u


def test_induced_automorphism_multiplicative_and_solver_independent(qplane):
    A, P, E = ext_of(qplane, 3, 3)
    sigma = morphism_from_images(
        A, A, {0: {(0,): Fraction(3)}, 1: {(1,): Fraction(5)}}, automorphism=True)
    tau0 = induced_ext_automorphism(E, sigma)
    tau1 = induced_ext_automorphism(E, sigma, free_value=1)
    for bd in tau0.blocks:
        assert tau0.dense(*bd) == tau1.dense(*bd)
    for la in E.labels:
        for lb in E.labels:
            if not E.certified_pair(la, lb):
                continue
            a, b = E.basis_class(*la), E.basis_class(*lb)
            assert tau0.apply(E.multiply(a, b)) == E.multiply(tau0.apply(a), tau0.apply(b))


def test_induced_automorphism_composes(cube):
    # tau for sigma^2 equals tau for sigma applied twice (scaling case)
    A, P, E = ext_of(cube, 3, 6)
    s2 = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    s4 = morphism_from_images(A, A, {0: {(0,): Fraction(4)}}, automorphism=True)
    t2 = induced_ext_automorphism(E, s2)
    t4 = induced_ext_automorphism(E, s4)
    for lab in E.labels:
        cls = E.basis_class(*lab)
        assert t4.apply(cls) == t2.apply(t2.apply(cls))
