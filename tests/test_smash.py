"""Twisted tensor products: laws, the commutation twist, factorization."""

import copy
from fractions import Fraction

import pytest

from extalg import (
    GradedAlgebra,
    NotAFactorization,
    algebra_table,
    certify_smash,
    ext_product_table,
    flip_twist,
    minimal_resolution,
    morphism_from_images,
    parse_presentation,
    polynomial_algebra_presentation,
    skew_commutation_twist,
    skew_extension,
    skew_smash_transport_report,
    smash_multiply,
    twist_from_factorization,
    ExtAlgebra,
    parse_automorphism,
    verify_ext_factorization,
)
from extalg.linalg import RationalField
from extalg.smash import first_nonmultiplicative, smash_table, window_pairs

from oracles import certify_smash_direct

Q = RationalField()


def poly_algebra(name, deg, D):
    return GradedAlgebra(polynomial_algebra_presentation(Q, name, deg), D)


def test_flip_twist_certifies():
    X = algebra_table(poly_algebra("a", 1, 3), 3)
    Y = algebra_table(poly_algebra("b", 1, 3), 3)
    status, bad = certify_smash(flip_twist(X, Y), 0, 3)
    assert status == "smash-certified-to-(0,3)"
    assert bad is None


def test_smash_multiply_definition_unrolled():
    X = algebra_table(poly_algebra("a", 1, 2), 2)
    Y = algebra_table(poly_algebra("b", 1, 2), 2)
    T = flip_twist(X, Y)
    # scale one flip value: R(b (x) a) = 3 a (x) b
    ylab, xlab = (0, 1, 0), (0, 1, 0)
    T.twist[(ylab, xlab)] = {(xlab, ylab): Fraction(3)}
    one = Q.one
    unit_pair = (X.unit, Y.unit)
    ey = {(X.unit, ylab): one}
    ex = {(xlab, Y.unit): one}
    assert smash_multiply(T, ey, ex) == {(xlab, ylab): Fraction(3)}
    assert smash_multiply(T, ex, ey) == {(xlab, ylab): one}
    assert smash_multiply(T, {unit_pair: one}, ex) == ex


def test_normality_violation_reported():
    X = algebra_table(poly_algebra("a", 1, 2), 2)
    Y = algebra_table(poly_algebra("b", 1, 2), 2)
    T = flip_twist(X, Y)
    T.twist[((0, 1, 0), (0, 0, 0))] = {((0, 0, 0), (0, 1, 0)): Fraction(2)}
    status, bad = certify_smash(T, 0, 2)
    assert status == "failed"
    assert bad[0].startswith("unit law")


def test_associativity_violation_reported():
    X = algebra_table(poly_algebra("a", 1, 3), 3)
    Y = algebra_table(poly_algebra("b", 1, 3), 3)
    T = flip_twist(X, Y)
    # break the twist away from the unit rows
    T.twist[((0, 1, 0), (0, 1, 0))] = {((0, 1, 0), (0, 1, 0)): Fraction(2)}
    status, bad = certify_smash(T, 0, 3)
    assert status == "failed"
    assert bad[0] == "associativity"


def scaling(A, c):
    images = {i: A.free.scale(A.free.gen_poly(i), c) for i in range(len(A.free.gens))}
    return morphism_from_images(A, A, images, automorphism=True)


@pytest.mark.parametrize("ptext,c,l", [
    ("field Q\ngens x:1", 2, 1),
    ("field Q\ngens x:1\nrel x^3", -1, 1),
    ("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", 3, 2),
])
def test_commutation_twist_matches_skew_extension(ptext, c, l):
    D = 4 if l == 1 else 5
    pres = parse_presentation(ptext)
    A = GradedAlgebra(pres, D)
    sigma = scaling(A, c)
    B = GradedAlgebra(skew_extension(A, sigma, l, "z"), D)
    report = skew_smash_transport_report(A, sigma, l, B, "z", D)
    assert report["passed"], report


def test_commutation_twist_nontrivial_value(kx):
    A = GradedAlgebra(kx, 3)
    sigma = scaling(A, 2)
    Z = poly_algebra("z", 1, 3)
    T = skew_commutation_twist(A, sigma, 1, 3, Z)
    # R(z (x) x) = 2 x (x) z
    assert T.twist[((0, 1, 0), (0, 1, 0))] == {((0, 1, 0), (0, 1, 0)): Fraction(2)}
    # R(z^2 (x) x) = 4 x (x) z^2
    assert T.twist[((0, 2, 0), (0, 1, 0))] == {((0, 1, 0), (0, 2, 0)): Fraction(4)}


def test_twist_from_factorization_recovers_flip():
    # C = X (x) Y with the canonical inclusions gives back the flip
    X = algebra_table(poly_algebra("a", 1, 2), 2)
    Y = algebra_table(poly_algebra("b", 1, 2), 2)
    pres = parse_presentation("field Q\ngens a:1 b:1\nrel a*b - b*a")
    C = algebra_table(GradedAlgebra(pres, 2), 2)
    ai, bi = 0, 1
    CA = GradedAlgebra(pres, 2)

    def embed_word(w):
        nf = CA.normal_form({w: Q.one})
        out = {}
        for u, cc in nf.items():
            d = len(u)
            out[(0, d, CA._index[d][u])] = cc
        return out

    fX = {}
    for (_, d, k) in X.labels:
        fX[(0, d, k)] = embed_word((ai,) * d)
    fY = {}
    for (_, d, k) in Y.labels:
        fY[(0, d, k)] = embed_word((bi,) * d)
    R = twist_from_factorization(C, fX, fY, X, Y, 0, 2)
    flip = flip_twist(X, Y)
    for key, vec in R.twist.items():
        assert vec == flip.twist[key]
    status, _ = certify_smash(R, 0, 2)
    assert status.startswith("smash-certified")


def test_twist_from_factorization_dimension_mismatch():
    X = algebra_table(poly_algebra("a", 1, 2), 2)
    Y = algebra_table(poly_algebra("b", 1, 2), 2)
    # target too small: the quotient k[a]/(a^2) cannot factor X (x) Y
    pres = parse_presentation("field Q\ngens a:1\nrel a^2")
    C = algebra_table(GradedAlgebra(pres, 2), 2)
    fX = {lab: {lab: Q.one} if lab[1] < 2 else {(0, 1, 0): Q.one} for lab in X.labels}
    fY = {lab: {(0, 0, 0): Q.one} for lab in Y.labels}
    with pytest.raises(NotAFactorization):
        twist_from_factorization(C, fX, fY, X, Y, 0, 2)


def test_ext_product_table_window(qplane):
    A = GradedAlgebra(qplane, 3)
    P = minimal_resolution(A, 3, 3)
    E = ExtAlgebra(A, P, 3, 3)
    T = ext_product_table(E)
    assert T.dims == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    # certified pairs only: (2,2)x(2,2) exceeds the window
    assert ((2, 2, 0), (2, 2, 0)) not in T.products
    assert T.mul_basis((0, 0, 0), (1, 1, 0)) == {(1, 1, 0): Q.one}


QPLANE = "field Q\ngens x:1 y:1\nrel x*y - 2*y*x\n"


def _flip():
    X = algebra_table(poly_algebra("a", 1, 3), 3)
    Y = algebra_table(poly_algebra("b", 1, 3), 3)
    return flip_twist(X, Y), 0, 3


def _qplane_commutation():
    pres = parse_presentation(QPLANE)
    A = GradedAlgebra(pres, 4)
    sigma = morphism_from_images(A, A, parse_automorphism("x -> 2*x\ny -> 3*y\n", pres),
                                 automorphism=True, D=4)
    return skew_commutation_twist(A, sigma, 1, 4, poly_algebra("z", 1, 4)), 0, 4


def _recovered(ptext, atext):
    def build():
        pres = parse_presentation(ptext)
        report = verify_ext_factorization(pres, parse_automorphism(atext, pres), 1, 4, 4)
        return report.objects["R"], 4, 4
    return build


TWISTS = {
    "flip": _flip,
    "qplane-commutation": _qplane_commutation,
    "qplane-R": _recovered(QPLANE, "x -> 2*x\ny -> 3*y\n"),
    "kx-R": _recovered("field Q\ngens x:1\n", "x -> 2*x\n"),
}


def _inner_key(T):
    """The first twist value R(y (x) x) with neither label a unit."""
    return min(k for k in T.twist if k[0] != T.right.unit and k[1] != T.left.unit)


def _scale_image(T):
    key = _inner_key(T)
    T.twist[key] = {p: 3 * c for p, c in T.twist[key].items()}


def _flip_sign(T):
    key = _inner_key(T)
    T.twist[key] = {p: -c for p, c in T.twist[key].items()}


def _break_twist_unit(T):
    xl = T.left.labels[1]
    T.twist[(T.right.unit, xl)] = {(xl, T.right.unit): 2 * T.left.field.one}


def _break_factor_unit(T):
    xl = T.left.labels[1]
    T.left.products[(T.left.unit, xl)] = {xl: 2 * T.left.field.one}


CORRUPTIONS = {"none": lambda T: None, "scaled": _scale_image, "sign": _flip_sign,
               "twist-unit": _break_twist_unit, "factor-unit": _break_factor_unit}
# corruptions that leave a valid twist: b a = -a b on k[a] (x) k[b] through
# degree 3, and xi f = c f xi on the two exterior algebras of kx for any c != 0
STILL_VALID = {("flip", "sign"), ("kx-R", "scaled"), ("kx-R", "sign")}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("base", sorted(TWISTS))
def test_certify_smash_matches_direct_reference(base, corrupt):
    T, N, D = TWISTS[base]()
    T = copy.deepcopy(T)
    CORRUPTIONS[corrupt](T)
    got = certify_smash(copy.deepcopy(T), N, D)
    assert got == certify_smash_direct(T, N, D)
    assert (got[1] is None) == (corrupt == "none" or (base, corrupt) in STILL_VALID), got


def test_smash_table_holds_each_window_product():
    T, N, D = _qplane_commutation()
    S = smash_table(T, N, D)
    one = Q.one
    assert S.unit == (T.left.unit, T.right.unit)
    assert S.labels == [p for p, _ in window_pairs(T.left, T.right, N, D)]
    assert S.bidegree == {(xl, yl): (xl[0] + yl[0], xl[1] + yl[1]) for xl, yl in S.labels}
    assert S.dims == {(0, d): sum(T.left.dim(0, a) for a in range(d + 1)) for d in range(D + 1)}
    for (p1, p2), prod in S.products.items():
        assert prod == smash_multiply(T, {p1: one}, {p2: one})
    assert len(S.products) == sum(1 for p1 in S.labels for p2 in S.labels
                                  if S.bidegree[p1][1] + S.bidegree[p2][1] <= D)


def test_first_nonmultiplicative_names_first_failure(qplane):
    # x*y = 2 y*x on the quantum plane, so the table has a coefficient 2
    T = algebra_table(GradedAlgebra(qplane, 3), 3)
    assert any(c != 1 for prod in T.products.values() for c in prod.values())
    graded = {lab: {lab: Fraction(3) ** lab[1]} for lab in T.labels}
    assert first_nonmultiplicative(T, T, graded) is None
    broken = (0, 2, 0)
    graded[broken] = {broken: Fraction(5)}
    want = next((a, b) for (a, b), prod in T.products.items()
                if broken in prod and a[1] and b[1])
    assert first_nonmultiplicative(T, T, graded) == want


def test_explicit_zero_in_twist_image_is_skipped():
    X = algebra_table(poly_algebra("a", 1, 2), 2)
    Y = algebra_table(poly_algebra("b", 1, 2), 2)
    T = flip_twist(X, Y)
    a = b = (0, 1, 0)
    # R(b (x) a) = a (x) b + 0 a^2 (x) 1
    T.twist[(b, a)][((0, 2, 0), (0, 0, 0))] = Q.zero
    one = Q.one
    assert smash_multiply(T, {(X.unit, b): one}, {(a, Y.unit): one}) == {(a, b): one}
    status, bad = certify_smash(T, 0, 2)
    assert status == "smash-certified-to-(0,2)"
    assert bad is None
