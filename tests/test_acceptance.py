"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything here is exact field arithmetic, so every comparison is equality;
the only tolerances are the stated runtime budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from extalg import (
    ExtAlgebra,
    FreeAlgebra,
    Generator,
    GradedAlgebra,
    Presentation,
    certify_smash,
    ext_product_table,
    frobenius_check,
    is_finite_certified,
    low_degree_generation_check,
    minimal_resolution,
    parse_presentation,
    skew_smash_transport_report,
    verify_exactness,
    verify_ext_factorization,
)
from extalg.linalg import RationalField

KX = "field Q\ngens x:1\n"
QPLANE = "field Q\ngens x:1 y:1\nrel x*y - 2*y*x\n"
CUBE = "field Q\ngens x:1\nrel x^3\n"


def report_line(num, passed, desc):
    print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if passed else "FAIL", desc))
    assert passed, desc


def diag(pres, coeffs):
    return {i: {(i,): Fraction(c)} for i, c in enumerate(coeffs)}


SUITE_SPEC = [
    ("a", KX, (2,), 1, 4, 6),
    ("b", QPLANE, (3, 5), 1, 4, 6),
    ("c", CUBE, (7,), 1, 4, 8),
    ("a-id", KX, (1,), 1, 4, 6),
    ("b-id", QPLANE, (1, 1), 1, 4, 6),
    ("c-id", CUBE, (1,), 1, 4, 8),
]


@pytest.fixture(scope="module")
def suite():
    t0 = time.monotonic()
    reports = {}
    for key, ptext, coeffs, l, N, D in SUITE_SPEC:
        pres = parse_presentation(ptext)
        reports[key] = verify_ext_factorization(pres, diag(pres, coeffs), l, N, D)
    return reports, time.monotonic() - t0


def test_criterion_1_quantum_plane_golden():
    """E(k_p[x,y]) for p in {2, 3, -1}: table, twist sign, tau, under 5s."""
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, -1):
        pres = parse_presentation(KX)
        rep = verify_ext_factorization(pres, {0: {(0,): Fraction(p)}}, 1, 3, 3)
        ok = ok and rep.passed
        EB = rep.objects["EB"]
        ok = ok and EB.dimension_table() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
        v = EB.basis_class(1, 1, 0)   # z-part dual
        u = EB.basis_class(1, 1, 1)   # base-part dual
        # the table of k<u,v>/(u^2, v^2, vu + p uv): both squares vanish and
        # the two mixed products differ by the factor -p (letters map to the
        # two one-dimensional halves of E^1(B))
        uv = EB.multiply(u, v)
        vu = EB.multiply(v, u)
        ok = ok and EB.multiply(u, u).is_zero() and EB.multiply(v, v).is_zero()
        ok = ok and not uv.is_zero()
        ok = ok and uv.vector == tuple(Fraction(-p) * c for c in vu.vector)
        ok = ok and (uv.vector, vu.vector) == ((Fraction(p),), (Fraction(-1),))
        # tau(u) = p u on E(A)
        tau = rep.objects["tau"]
        ok = ok and tau.dense(1, 1) == [[Fraction(p)]]
        # R carries the coefficient -p on the (v, u) pair
        R = rep.objects["R"]
        ok = ok and R.twist[((1, 1, 0), (1, 1, 0))] == {((1, 1, 0), (1, 1, 0)): Fraction(-p)}
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report_line(1, ok, "quantum-plane golden test, p in {2,3,-1} (%.2fs)" % elapsed)


def test_criterion_2_main_theorem_suite(suite):
    """All six sub-checks pass on (a), (b), (c) and the identity twists."""
    reports, elapsed = suite
    ok = True
    for key, rep in reports.items():
        ok = ok and rep.passed and len(rep.checks) == 6
    ok = ok and elapsed < 60.0
    report_line(2, ok, "verifier suite a/b/c plus identity twists (%.1fs)" % elapsed)


def test_criterion_3_oracle_equivalence(suite):
    """Cone-route Ext table of B == direct-route table, exactly."""
    reports, _ = suite
    ok = True
    for key, rep in reports.items():
        cone = rep.objects["cone"]
        direct = rep.objects["direct_resolution"]
        for j in range(rep.N + 1):
            for d in range(rep.D + 1):
                dim_cone = sum(1 for t in cone.complex.gens.get(-j, []) if t == d)
                dim_direct = sum(1 for t in direct.gens.get(-j, []) if t == d)
                ok = ok and dim_cone == dim_direct
    report_line(3, ok, "cone vs direct resolution dimension tables")


def _random_presentation(rng):
    ngens = rng.randint(1, 3)
    names = ["x", "y", "w"][:ngens]
    gens = tuple(Generator(n, rng.randint(1, 3)) for n in names)
    field = RationalField()
    fa = FreeAlgebra(field, gens)

    def words(deg):
        if deg == 0:
            return [()]
        out = []
        for g in range(ngens):
            gd = gens[g].degree
            if gd <= deg:
                out.extend(w + (g,) for w in words(deg - gd))
        return out

    rels = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(2, 3)
        ws = words(deg)
        if not ws:
            continue
        poly = {}
        for w in rng.sample(ws, min(len(ws), rng.randint(1, 3))):
            c = field.of(rng.randint(-3, 3))
            if c:
                poly[w] = c
        if poly and fa.poly_degree(poly) >= 2 and fa.monic(poly) not in rels:
            rels.append(fa.monic(poly))
    return Presentation(field, gens, tuple(rels))


def test_criterion_4_resolution_property_suite():
    """20 randomized presentations: d o d, minimality, exactness, Euler,
    precedence invariance."""
    rng = random.Random(20260808)
    ok = True
    detail = ""
    for i in range(20):
        pres = _random_presentation(rng)
        D = 6
        N = D  # generators at position n live in degree >= n, so the window closes
        A = GradedAlgebra(pres, D)
        P = minimal_resolution(A, N, D)
        try:
            P.assert_dd_zero()
        except AssertionError:
            ok, detail = False, "d o d != 0 at case %d" % i
            break
        minimal = all(
            not A.augmentation(e) for M in P.diffs.values() for row in M for e in row)
        hom = verify_exactness(P, D)
        exact = all(v == 0 for (n, _d), v in hom.items() if n > -N)
        euler = True
        for d in range(D + 1):
            acc = 0
            for n in range(N + 1):
                term = sum(A.hilbert(d - t) for t in P.gens.get(-n, []) if d - t >= 0)
                acc += term if n % 2 == 0 else -term
            euler = euler and acc == (1 if d == 0 else 0)
        perm = list(range(len(pres.generators)))
        rng.shuffle(perm)
        A2 = GradedAlgebra(pres, D, precedence=perm)
        P2 = minimal_resolution(A2, N, D)
        tables_equal = all(
            sorted(P.gens.get(-n, [])) == sorted(P2.gens.get(-n, []))
            for n in range(N + 1))
        if not (minimal and exact and euler and tables_equal):
            ok = False
            detail = "case %d: minimal=%s exact=%s euler=%s stable=%s" % (
                i, minimal, exact, euler, tables_equal)
            break
    report_line(4, ok, detail or "20 randomized presentations, D=6")


def test_criterion_5_yoneda_well_definedness(suite):
    """Independently re-solved lifts give bit-identical product tables."""
    reports, _ = suite
    ok = True
    for key, rep in reports.items():
        obj = rep.objects
        EB2 = ExtAlgebra(obj["B"], obj["cone"].complex, rep.N, rep.D, free_value=1)
        ok = ok and ext_product_table(EB2).products == obj["TB"].products
        EA2 = ExtAlgebra(obj["A"], obj["P"], rep.N, rep.D, free_value=1)
        ok = ok and ext_product_table(EA2).products == obj["TA"].products
    report_line(5, ok, "product tables identical under re-solved lifts")


def test_criterion_6_smash_product_laws(suite):
    """Commutation twist certifies on every member; factorization round-trips."""
    reports, _ = suite
    ok = True
    for key, rep in reports.items():
        obj = rep.objects
        algebra_level = skew_smash_transport_report(
            obj["A"], obj["sigma"], obj["cone"].z_degree, obj["B"],
            obj["B"].free.gens[obj["cone"].z_index].name, min(rep.D, 5))
        ok = ok and algebra_level["passed"]
        # round trip: the twist recovered from the factorization certifies
        status, bad = certify_smash(obj["R"], rep.N, rep.D)
        ok = ok and status.startswith("smash-certified")
    report_line(6, ok, "commutation twist transports; recovered twist certifies")


def test_criterion_7_corollary_transfer(suite):
    """Frobenius transfers for (a), (b); K_1/K_2 verdicts as expected."""
    reports, _ = suite
    ok = True
    for key in ("a", "b", "a-id", "b-id"):
        rep = reports[key]
        obj = rep.objects
        finA = is_finite_certified(obj["P"], obj["A"], rep.N, rep.D)
        finB = is_finite_certified(obj["cone"].complex, obj["B"], rep.N, rep.D)
        vA = frobenius_check(obj["TA"], finA)
        vB = frobenius_check(obj["TB"], finB)
        ok = ok and vA.status == "frobenius" and vB.status == "frobenius"
        ok = ok and low_degree_generation_check(obj["TB"], 1, rep.N, rep.D).generated
    for key in ("c", "c-id"):
        rep = reports[key]
        TB = rep.objects["TB"]
        ok = ok and not low_degree_generation_check(TB, 1, rep.N, rep.D).generated
        ok = ok and low_degree_generation_check(TB, 2, rep.N, rep.D).generated
    report_line(7, ok, "Frobenius transfer on a/b; K_1 vs K_2 verdicts on c")


def test_criterion_8_functoriality(suite):
    """E(iota) o E(pi) = id on all certified bidegrees, both factors."""
    reports, _ = suite
    ok = True
    for key, rep in reports.items():
        ok = ok and rep.check("injectivity").passed
        obj = rep.objects
        EA, EZ = obj["EA"], obj["EZ"]
        for lab in EA.labels:
            cls = EA.basis_class(*lab)
            ok = ok and obj["EiotaA"].apply(obj["EpiA"].apply(cls)) == cls
        for lab in EZ.labels:
            cls = EZ.basis_class(*lab)
            ok = ok and obj["EiotaZ"].apply(obj["EpiZ"].apply(cls)) == cls
    report_line(8, ok, "split identities for both factor inclusions")
