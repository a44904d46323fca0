"""The factorization verifier and the two corollary checkers."""

from fractions import Fraction

import pytest

from extalg import (
    ExtAlgebra,
    GradedAlgebra,
    ext_product_table,
    frobenius_check,
    frobenius_form_crosscheck,
    is_finite_certified,
    low_degree_generation_check,
    minimal_resolution,
    parse_presentation,
    polynomial_algebra_presentation,
    verify_ext_factorization,
)
from extalg.linalg import RationalField


def setup(pres_text, N, D):
    pres = parse_presentation(pres_text)
    A = GradedAlgebra(pres, D)
    P = minimal_resolution(A, N, D)
    E = ExtAlgebra(A, P, N, D)
    return A, P, ext_product_table(E)


def test_finiteness_verdicts():
    A, P, _ = setup("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", 3, 4)
    assert is_finite_certified(P, A, 3, 4).finite
    A, P, _ = setup("field Q\ngens x:1\nrel x^2", 4, 5)
    assert not is_finite_certified(P, A, 4, 5).finite
    A, P, _ = setup("field Q\ngens x:1\nrel x^3", 4, 8)
    assert not is_finite_certified(P, A, 4, 8).finite
    Z = polynomial_algebra_presentation(RationalField(), "z", 2)
    A = GradedAlgebra(Z, 4)
    P = minimal_resolution(A, 3, 4)
    assert is_finite_certified(P, A, 3, 4).finite


def test_frobenius_verdicts():
    A, P, T = setup("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", 3, 4)
    v = frobenius_check(T, is_finite_certified(P, A, 3, 4))
    assert v.status == "frobenius" and v.top == (2, 2)

    A, P, T = setup("field Q\ngens x:1 y:1", 3, 4)
    v = frobenius_check(T, is_finite_certified(P, A, 3, 4))
    assert v.status == "not-frobenius"

    A, P, T = setup("field Q\ngens x:1\nrel x^3", 4, 8)
    v = frobenius_check(T, is_finite_certified(P, A, 4, 8))
    assert v.status == "not-finite-certified"

    Z = polynomial_algebra_presentation(RationalField(), "z", 3)
    A = GradedAlgebra(Z, 6)
    P = minimal_resolution(A, 3, 6)
    v = frobenius_check(ext_product_table(ExtAlgebra(A, P, 3, 6)),
                        is_finite_certified(P, A, 3, 6))
    assert v.status == "frobenius"


def test_generation_verdicts():
    _, _, T = setup("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", 3, 4)
    assert low_degree_generation_check(T, 1, 3, 4).generated

    _, _, T = setup("field Q\ngens x:1\nrel x^3", 4, 8)
    v1 = low_degree_generation_check(T, 1, 4, 8)
    assert not v1.generated and v1.witness == (2, 3)
    assert low_degree_generation_check(T, 2, 4, 8).generated
    # p >= N generates trivially
    assert low_degree_generation_check(T, 4, 4, 8).generated

    _, _, T = setup("field Q\ngens x:1\nrel x^2", 4, 5)
    assert low_degree_generation_check(T, 1, 4, 5).generated


def diag_sigma_images(pres, coeffs):
    return {i: {(i,): Fraction(c)} for i, c in enumerate(coeffs)}


SUITE = [
    ("field Q\ngens x:1\n", (2,), 1, 3, 3),
    ("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", (3, 5), 1, 4, 6),
    ("field Q\ngens x:1\nrel x^3", (7,), 1, 4, 8),
    ("field Q\ngens x:1\n", (1,), 1, 3, 3),
    ("field Q\ngens x:1 y:1\nrel x*y - 2*y*x", (1, 1), 1, 4, 6),
    ("field Q\ngens x:1\nrel x^3", (1,), 1, 4, 8),
]


@pytest.mark.parametrize("ptext,coeffs,l,N,D", SUITE)
def test_verifier_suite(ptext, coeffs, l, N, D):
    pres = parse_presentation(ptext)
    report = verify_ext_factorization(pres, diag_sigma_images(pres, coeffs), l, N, D)
    assert report.passed, [(c.key, c.details, c.counterexample)
                           for c in report.checks if not c.passed]
    assert [c.key for c in report.checks] == [
        "cone", "injectivity", "a_part", "z_times_f", "f_times_z", "smash_table"]


def test_verifier_identity_twist_reports_identity_tau(qplane):
    report = verify_ext_factorization(qplane, diag_sigma_images(qplane, (1, 1)), 1, 3, 4)
    assert report.passed
    tau = report.objects["tau"]
    for bd in tau.blocks:
        for i, row in enumerate(tau.dense(*bd)):
            for j, c in enumerate(row):
                assert c == (1 if i == j else 0)


def test_verifier_higher_z_degree(kx):
    report = verify_ext_factorization(kx, {0: {(0,): Fraction(2)}}, 3, 3, 6)
    assert report.passed
    EZ = report.objects["EZ"]
    assert EZ.dimension_table() == {(0, 0): 1, (1, 3): 1}


def test_inverse_automorphism_gives_inverse_twist(kx):
    rep_fwd = verify_ext_factorization(kx, {0: {(0,): Fraction(2)}}, 1, 3, 3)
    rep_bwd = verify_ext_factorization(kx, {0: {(0,): Fraction(1, 2)}}, 1, 3, 3)
    tf = rep_fwd.objects["tau"].dense(1, 1)[0][0]
    tb = rep_bwd.objects["tau"].dense(1, 1)[0][0]
    assert tf * tb == 1
    # the (u, xi) twist coefficients are mutually inverse up to the shared sign
    cf = rep_fwd.objects["R"].twist[((1, 1, 0), (1, 1, 0))][((1, 1, 0), (1, 1, 0))]
    cb = rep_bwd.objects["R"].twist[((1, 1, 0), (1, 1, 0))][((1, 1, 0), (1, 1, 0))]
    assert cf == Fraction(-2) and cb == Fraction(-1, 2)
    assert cf * cb == 1


def test_frobenius_transfer_and_form(qplane, kx):
    for pres, coeffs, l, N, D in (
        (kx, (2,), 1, 3, 3),
        (qplane, (3, 5), 1, 4, 6),
    ):
        report = verify_ext_factorization(pres, diag_sigma_images(pres, coeffs), l, N, D)
        assert report.passed
        obj = report.objects
        finB = is_finite_certified(obj["cone"].complex, obj["B"], N, D)
        assert frobenius_check(obj["TB"], finB).status == "frobenius"
        form = frobenius_form_crosscheck(report)
        assert form["applicable"] and form["passed"], form


def test_form_crosscheck_not_applicable_for_infinite_factor(cube):
    report = verify_ext_factorization(cube, {0: {(0,): Fraction(7)}}, 1, 4, 8)
    form = frobenius_form_crosscheck(report)
    assert not form["applicable"]


def test_verifier_over_prime_field():
    pres = parse_presentation("field F5\ngens x:1 y:1\nrel x*y - 2*y*x")
    F5 = pres.field
    images = {0: {(0,): F5.of(3)}, 1: {(1,): F5.of(4)}}
    report = verify_ext_factorization(pres, images, 1, 3, 5)
    assert report.passed
    # tau is multiplicative across the blocks: 3 * 4 = 2 in GF(5)
    assert report.objects["tau"].dense(2, 2)[0][0] == F5.of(2)


def test_verifier_nondiagonal_automorphism():
    images = {0: {(0,): Fraction(1), (1,): Fraction(1)}, 1: {(1,): Fraction(1)}}
    for ptext in ("field Q\ngens x:1 y:1", "field Q\ngens x:1 y:1\nrel x*y - y*x"):
        pres = parse_presentation(ptext)
        report = verify_ext_factorization(pres, images, 1, 3, 4)
        assert report.passed
        block = report.objects["tau"].dense(1, 1)
        assert block != [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_smash_product_of_ext_classes_differ_by_minus_p(kx):
    # inside E(k[z]) #_R E(A) for the quantum plane: (1 (x) u)(xi (x) 1) and
    # (xi (x) 1)(1 (x) u) differ by the factor -p
    from extalg import smash_multiply

    p = 2
    report = verify_ext_factorization(kx, {0: {(0,): Fraction(p)}}, 1, 3, 3)
    R = report.objects["R"]
    one = Fraction(1)
    unit_z, unit_a = (0, 0, 0), (0, 0, 0)
    xi, u = (1, 1, 0), (1, 1, 0)
    left = smash_multiply(R, {(unit_z, u): one}, {(xi, unit_a): one})
    right = smash_multiply(R, {(xi, unit_a): one}, {(unit_z, u): one})
    assert left == {(xi, u): Fraction(-p)}
    assert right == {(xi, u): one}
