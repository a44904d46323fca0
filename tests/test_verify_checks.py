"""Failure paths of the six verify checks and of the transport check.

Each check of `verify_ext_factorization` is a function of the objects dict
(`report.objects`).  Here each one is handed a copy of that dict with one
object corrupted, and must fail with a counterexample of the documented
shape; the honest dict passes every check.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from extalg import (
    FreeComplex,
    GradedAlgebra,
    ProductTable,
    algebra_table,
    expected_twist_from_tau,
    flip_twist,
    morphism_from_images,
    parse_presentation,
    polynomial_algebra_presentation,
    skew_extension,
    skew_smash_transport_report,
    transport_check,
    verify_ext_factorization,
)
from extalg.ext import ExtAutomorphism, ExtMap
from extalg.linalg import RationalField
from extalg.verify import (
    _check_a_part,
    _check_cone,
    _check_f_times_z,
    _check_injectivity,
    _check_smash_table,
    _check_z_times_f,
)

Q = RationalField()
CHECKS = (_check_cone, _check_injectivity, _check_a_part, _check_z_times_f,
          _check_f_times_z, _check_smash_table)


@pytest.fixture(scope="module")
def kx():
    # E(k[x]) is exterior on one class at (1, 1)
    pres = parse_presentation("field Q\ngens x:1\n")
    return verify_ext_factorization(pres, {0: {(0,): Fraction(2)}}, 1, 3, 3).objects


@pytest.fixture(scope="module")
def qplane():
    # E(A) has e1, e2 at (1, 1) and e12 at (2, 2); e12 * xi stays in the window
    pres = parse_presentation("field Q\ngens x:1 y:1\nrel x*y - 2*y*x\n")
    images = {0: {(0,): Fraction(2)}, 1: {(1,): Fraction(3)}}
    return verify_ext_factorization(pres, images, 1, 3, 3).objects


def corrupt(obj, **changes):
    return dict(obj) | changes


def scaled(emap, bd, c):
    """A copy of an Ext map with its block at `bd` multiplied by c."""
    blocks = {b: {j: {i: (c * a if b == bd else a) for i, a in col.items()}
                  for j, col in cols.items()}
              for b, cols in emap.blocks.items()}
    if isinstance(emap, ExtAutomorphism):
        return ExtAutomorphism(emap.domain, blocks)
    return ExtMap(emap.domain, emap.codomain, blocks)


def without_column(emap, bd, j):
    blocks = dict(emap.blocks)
    blocks[bd] = {k: col for k, col in blocks[bd].items() if k != j}
    return ExtMap(emap.domain, emap.codomain, blocks)


def test_honest_objects_pass_every_check(kx, qplane):
    for obj in (kx, qplane):
        for check in CHECKS:
            sub = check(obj)
            assert sub.passed and sub.counterexample is None, sub


def test_cone_check_fails_on_inexact_complex(kx):
    cone = kx["cone"]
    cx = cone.complex
    n = max(m for m in cx.diffs if m < 0)
    diffs = dict(cx.diffs)
    diffs[n] = [[{} for _ in row] for row in cx.diffs[n]]
    broken = FreeComplex(cx.algebra, cx.gens, diffs, augmented=True, maxdeg=cx.maxdeg)
    sub = _check_cone(corrupt(kx, cone=replace(cone, complex=broken)))
    assert not sub.passed
    assert sub.details == "homology all zero: False; tables agree: True"
    assert sub.counterexample is None


def test_cone_check_fails_on_table_mismatch(qplane):
    # the resolution of A in place of the direct resolution of B
    sub = _check_cone(corrupt(qplane, direct_resolution=qplane["P"]))
    assert not sub.passed
    assert sub.details == "homology all zero: True; tables agree: False"
    assert 1 <= len(sub.counterexample) <= 3
    for j, d, dim_cone, dim_direct in sub.counterexample:
        assert dim_cone != dim_direct


def test_injectivity_check_fails_on_missing_column(qplane):
    sub = _check_injectivity(corrupt(qplane, EpiA=without_column(qplane["EpiA"], (1, 1), 0)))
    assert not sub.passed
    assert sub.details == "A factor: False, z factor: True"
    assert sub.counterexample == (1, 1)


def test_a_part_check_fails_on_missing_column(qplane):
    sub = _check_a_part(corrupt(qplane, EpiA=without_column(qplane["EpiA"], (1, 1), 0)))
    assert not sub.passed
    lab, got, want = sub.counterexample
    assert lab == (1, 1, 0)
    assert not any(got) and any(want)


def test_a_part_check_names_the_z_class(kx):
    sub = _check_a_part(corrupt(kx, EpiZ=scaled(kx["EpiZ"], (1, 1), 2)))
    assert not sub.passed
    lab, got, want = sub.counterexample
    assert lab == "xi"
    assert got == tuple(2 * c for c in want)


def test_z_times_f_check_fails_on_scaled_z_class(kx):
    xi = kx["xi"]
    sub = _check_z_times_f(corrupt(kx, xi=kx["EZ"].scale(xi, 2)))
    assert not sub.passed
    lab, got, want = sub.counterexample
    assert lab == (0, 0, 0)
    assert got == tuple(2 * c for c in want) and any(want)


def test_f_times_z_check_fails_on_scaled_tau(kx):
    # tau scaled on (1, 1) stays multiplicative (e * e = 0), so only the
    # product comparison fails
    sub = _check_f_times_z(corrupt(kx, tau=scaled(kx["tau"], (1, 1), 2)))
    assert not sub.passed
    assert sub.details == "products match: False, tau multiplicative: True"
    lab, got, want = sub.counterexample
    assert lab == (1, 1, 0)
    assert want == tuple(2 * c for c in got) and any(got)


def test_f_times_z_check_fails_on_non_multiplicative_tau(qplane):
    # a table with e1 * e1 = e12: tau scales e1 and e12 by different factors
    TA = qplane["TA"]
    e1, e12 = (1, 1, 0), (2, 2, 0)
    bad_table = ProductTable(TA.field, TA.labels, TA.unit,
                             dict(TA.products) | {(e1, e1): {e12: Q.one}}, TA.window)
    sub = _check_f_times_z(corrupt(qplane, TA=bad_table))
    assert not sub.passed
    assert sub.details == "products match: True, tau multiplicative: False"
    assert sub.counterexample == ("tau not multiplicative", e1, e1)


def test_smash_table_check_fails_on_closed_form(kx):
    # the recovered twist is honest; the closed form built from tau is not
    sub = _check_smash_table(corrupt(kx, tau=scaled(kx["tau"], (1, 1), 2)))
    assert not sub.passed
    assert "closed form (-1)^i g (x) tau(f): False" in sub.details
    assert "smash laws: smash-certified" in sub.details
    assert "table transport: True" in sub.details
    assert sub.counterexample[0] == "twist differs at"


def closed_form_twist(obj, tau):
    return expected_twist_from_tau(tau, obj["EA"], obj["EZ"], obj["TA"], obj["TZ"],
                                   obj["cone"].z_degree)


def test_smash_table_check_fails_on_smash_laws(qplane):
    # tau scaled on (2, 2) only is not multiplicative, so the twist in closed
    # form from it is not associative: xi past e1 e2 differs from xi past e1,
    # then past e2
    tau = scaled(qplane["tau"], (2, 2), 2)
    sub = _check_smash_table(corrupt(qplane, tau=tau, R=closed_form_twist(qplane, tau)))
    assert not sub.passed
    assert "closed form (-1)^i g (x) tau(f): True" in sub.details
    assert "smash laws: failed" in sub.details
    # the transport only runs on a twist that satisfies the smash laws
    assert "table transport" not in sub.details
    assert sub.counterexample[0] == "associativity"
    assert len(sub.counterexample[1]) == 3


def test_smash_table_check_fails_on_transport(kx):
    # a q-commutation twist with the wrong scalar: a smash product in closed
    # form from its tau, but not E(B)'s table
    tau = scaled(kx["tau"], (1, 1), 2)
    sub = _check_smash_table(corrupt(kx, tau=tau, R=closed_form_twist(kx, tau)))
    assert not sub.passed
    assert "closed form (-1)^i g (x) tau(f): True" in sub.details
    assert "smash laws: smash-certified" in sub.details
    assert "table transport: False" in sub.details
    kind, p1, p2 = sub.counterexample
    assert kind == "transport" and len(p1) == 2 and len(p2) == 2


def test_smash_table_check_fails_without_twist(kx):
    # a product table of E(B) with its top products dropped: m1 is not onto
    TB = kx["TB"]
    products = {k: ({} if k[0][0] + k[1][0] == 2 else v) for k, v in TB.products.items()}
    bad_table = ProductTable(TB.field, TB.labels, TB.unit, products, TB.window)
    sub = _check_smash_table(corrupt(kx, TB=bad_table, R=None))
    assert not sub.passed
    assert "m1 fails: no factorization at bidegree" in sub.details
    assert "m2 fails: no factorization at bidegree" in sub.details
    assert sub.counterexample is None


# -- the transport check -------------------------------------------------------

def poly_table(name, D):
    return algebra_table(GradedAlgebra(polynomial_algebra_presentation(Q, name, 1), D), D)


def test_transport_check_flip_into_commutative_table():
    D = 2
    X, Y = poly_table("a", D), poly_table("b", D)
    CA = GradedAlgebra(parse_presentation("field Q\ngens a:1 b:1\nrel a*b - b*a\n"), D)
    C = algebra_table(CA, D)

    def embed(gen, power):
        nf = CA.normal_form({(gen,) * power: Q.one})
        return {(0, power, CA._index[power][u]): c for u, c in nf.items()}

    fX = {lab: embed(0, lab[1]) for lab in X.labels}
    fY = {lab: embed(1, lab[1]) for lab in Y.labels}
    flip = flip_twist(X, Y)
    assert transport_check(C, flip, fX, fY, 0, D) is None

    # b a -> -a b: a twist that C's commutative product does not carry
    a, b, unit = (0, 1, 0), (0, 1, 0), (0, 0, 0)
    flip.twist[(b, a)] = {(a, b): -Q.one}
    assert transport_check(C, flip, fX, fY, 0, D) == ("transport", (unit, b), (a, unit))


def scaling(A, c):
    images = {i: A.free.scale(A.free.gen_poly(i), c) for i in range(len(A.free.gens))}
    return morphism_from_images(A, A, images, automorphism=True)


def test_skew_report_fails_on_other_automorphism():
    D = 3
    A = GradedAlgebra(parse_presentation("field Q\ngens x:1\n"), D)
    B = GradedAlgebra(skew_extension(A, scaling(A, 3), 1, "z"), D)
    report = skew_smash_transport_report(A, scaling(A, 2), 1, B, "z", D)
    assert report["certified"] and report["bijective"]
    assert not report["transported"] and not report["passed"]
    assert report["counterexample"][0] == "transport"


def test_skew_report_fails_when_not_bijective():
    D = 3
    A = GradedAlgebra(parse_presentation("field Q\ngens x:1\n"), D)
    B = GradedAlgebra(parse_presentation("field Q\ngens x:1 z:1\nrel z*x - 2*x*z\nrel z^2\n"), D)
    report = skew_smash_transport_report(A, scaling(A, 2), 1, B, "z", D)
    assert report["certified"] and not report["bijective"] and not report["passed"]
    assert report["counterexample"] == ("not bijective", (0, 2))
