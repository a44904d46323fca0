"""End-to-end certification that the Ext-algebra of a skew extension is a
twisted tensor product of the Ext-algebras of its two factors.

`verify_ext_factorization` first builds every object once, inside the (N, D)
window: the skew extension B of A by sigma, its cone resolution and a
directly computed resolution, the polynomial algebra Z on z, the three
Ext-algebras, the maps on Ext induced by the projections B -> A, B -> Z and
the inclusions A -> B, Z -> B, the canonical z-class xi, the automorphism
tau of E(A) induced by sigma, the three product tables, and the twist R
recovered from the factorization (None when the combined multiplication is
not bijective).  That dict is returned as `report.objects`.  It then runs
six checks, each a function of the dict that returns one `SubCheck`:

  1. cone          - the cone complex is a minimal resolution of the trivial
                     B-module and its generator table matches a directly
                     computed resolution of B
  2. injectivity   - the maps induced by the two projections are split
                     injections (composing with the inclusions gives the
                     identity)
  3. a_part        - classes of E(A) land on the A-part of the cone basis,
                     coefficientwise
  4. z_times_f     - the degree-one z-class times f equals (-1)^i f on the
                     z-part
  5. f_times_z     - f times the z-class equals tau(f) on the z-part, where
                     tau is the automorphism of E(A) induced by sigma
  6. smash_table   - both combined multiplication maps are bidegreewise
                     bijective, the twist R equals the closed form
                     (f (x) g) |-> (-1)^i g (x) tau(f), the twisted product
                     satisfies the smash laws, and, once it does,
                     transporting it along the combined multiplication
                     reproduces E(B)'s full product table

Checks 3-5 compare classes label by label and report the first mismatch.

Also here: finiteness certification of an Ext-algebra from its window, the
graded Frobenius test via perfect pairings into the top bidegree, and
generation by low cohomological degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain

from .algebra import (
    GradedAlgebra,
    morphism_from_images,
    polynomial_algebra_presentation,
)
from .complexes import minimal_resolution
from .cone import (
    build_cone_resolution,
    cone_mismatches,
    cross_validate,
    inclusion_of_base,
    verify_cone_exactness,
)
from .ext import (
    ExtAlgebra,
    ExtClass,
    canonical_z_class,
    compose_ext_maps,
    ext_functor_map,
    induced_ext_automorphism,
)
from .linalg import Echelon, Eliminator
from .smash import (
    NotAFactorization,
    ProductTable,
    SmashTwist,
    bijective_solvers,
    certify_smash,
    ext_product_table,
    first_nonmultiplicative,
    smash_table,
    transport_check,
    twist_from_factorization,
)


@dataclass
class SubCheck:
    key: str
    title: str
    passed: bool
    details: str = ""
    counterexample: object = None


@dataclass
class FactorizationReport:
    passed: bool
    checks: list
    N: int
    D: int
    field_name: str
    data: dict = dc_field(default_factory=dict)
    objects: dict = dc_field(default_factory=dict)

    def check(self, key):
        for c in self.checks:
            if c.key == key:
                return c
        raise KeyError(key)


def expected_twist_from_tau(tau, EA: ExtAlgebra, EZ: ExtAlgebra,
                            TA: ProductTable, TZ: ProductTable, l: int) -> SmashTwist:
    """The closed-form twist: f (x) 1 -> 1 (x) f,  f (x) xi -> (-1)^i xi (x) tau(f)."""
    one = EA.algebra.field.one
    xi_label = (1, l, 0)
    twist = {}
    for f_lab in TA.labels:
        twist[(f_lab, TZ.unit)] = {(TZ.unit, f_lab): one}
        if (1, l) in EZ.bidegrees:
            sign = -1 if f_lab[0] % 2 else 1
            tf = tau.apply(EA.basis_class(*f_lab))
            twist[(f_lab, xi_label)] = {
                (xi_label, lab): sign * c for lab, c in tf.label_vector().items()}
    return SmashTwist(TZ, TA, twist)


def verify_ext_factorization(pres_A, sigma_images: dict, l: int, N: int, D: int,
                             zname="z", precedence=None) -> FactorizationReport:
    """Run the full factorization certification for E(A[z; sigma])."""
    A = GradedAlgebra(pres_A, D, precedence)
    sigma = morphism_from_images(A, A, sigma_images, automorphism=True, D=D)
    P = minimal_resolution(A, N, D)
    cone = build_cone_resolution(A, sigma, l, N, D, zname=zname, P=P)
    cv = cross_validate(cone, N, D)
    B = cone.algebra
    Z = GradedAlgebra(polynomial_algebra_presentation(A.field, zname, l), D)
    PZ = minimal_resolution(Z, N, D)
    EA = ExtAlgebra(A, P, N, D)
    EZ = ExtAlgebra(Z, PZ, N, D)
    EB = ExtAlgebra(B, cone.complex, N, D)

    zi = cone.z_index
    gens_A = range(len(A.free.gens))
    piA = morphism_from_images(
        B, A, {i: A.free.gen_poly(i) for i in gens_A} | {zi: {}}, D=D)
    piZ = morphism_from_images(
        B, Z, {i: {} for i in gens_A} | {zi: Z.free.gen_poly(0)}, D=D)
    iotaZ = morphism_from_images(Z, B, {0: B.free.gen_poly(zi)}, D=D)
    obj = {
        "A": A, "B": B, "Z": Z, "sigma": sigma, "cone": cone,
        "EA": EA, "EB": EB, "EZ": EZ,
        "tau": induced_ext_automorphism(EA, sigma), "R": None,
        "TA": ext_product_table(EA), "TB": ext_product_table(EB),
        "TZ": ext_product_table(EZ),
        "EpiA": ext_functor_map(piA, EA, EB), "EpiZ": ext_functor_map(piZ, EZ, EB),
        "EiotaA": ext_functor_map(inclusion_of_base(A, B), EB, EA),
        "EiotaZ": ext_functor_map(iotaZ, EB, EZ),
        "P": P, "PZ": PZ, "xi": canonical_z_class(EZ, l),
        "direct_resolution": cv["direct_resolution"],
    }
    fX, fY = _factor_images(obj)
    try:
        obj["R"] = twist_from_factorization(obj["TB"], fX, fY, obj["TZ"], obj["TA"], N, D)
    except NotAFactorization:
        pass

    checks = [check(obj) for check in (_check_cone, _check_injectivity, _check_a_part,
                                       _check_z_times_f, _check_f_times_z,
                                       _check_smash_table)]
    tau, R = obj["tau"], obj["R"]
    data = {
        "ext_A_dims": EA.dimension_table(),
        "ext_z_dims": EZ.dimension_table(),
        "ext_B_dims": EB.dimension_table(),
        "cone_table": cv["cone_table"],
        "tau": {"%d,%d" % bd: tau.dense(*bd) for bd in tau.blocks},
    }
    if R is not None:
        data["twist"] = {
            "%s (x) %s" % (_lab(y), _lab(x)): {
                "%s (x) %s" % (_lab(xm), _lab(ym)): str(c)
                for (xm, ym), c in vec.items()
            }
            for (y, x), vec in sorted(R.twist.items())
        }
    data["orientation"] = (
        "twist direction E(A) (x) E(k[z]) -> E(k[z]) (x) E(A); the smash "
        "presentation is E(k[z]) #_R E(A)"
    )
    return FactorizationReport(
        passed=all(c.passed for c in checks), checks=checks, N=N, D=D,
        field_name=A.field.name, data=data, objects=obj,
    )


def _lab(label):
    return "e_{%d,%d,%d}" % label


def _window(obj):
    """(N, D, l): the certified window and the degree of z."""
    return obj["EA"].N, obj["EA"].D, obj["cone"].z_degree


def _factor_images(obj):
    """fX, fY: basis labels of E(k[z]) and of E(A) sent into E(B) as label vectors."""
    EZ, EA, EpiZ, EpiA = obj["EZ"], obj["EA"], obj["EpiZ"], obj["EpiA"]
    fX = {lab: EpiZ.apply(EZ.basis_class(*lab)).label_vector() for lab in EZ.labels}
    fY = {lab: EpiA.apply(EA.basis_class(*lab)).label_vector() for lab in EA.labels}
    return fX, fY


def _cone_part(obj, cls: ExtClass, part: str) -> ExtClass:
    """Place an E(A) class on the duals of the cone generators labelled `part`.

    On the A-part ("a") the bidegree is kept; the z-part ("z") sits one
    position and l internal degrees higher.
    """
    EA, EB, cone = obj["EA"], obj["EB"], obj["cone"]
    n, t = cls.n, cls.t
    if part == "z":
        n, t = n + 1, t + cone.z_degree
    out = [EB.algebra.field.zero] * EB.dim(n, t)
    labels = cone.labels[-n]
    ext_idx = EB.bidegrees.get((n, t), [])
    src_idx = EA.bidegrees.get((cls.n, cls.t), [])
    for pos, c in enumerate(cls.vector):
        if c:
            out[ext_idx.index(labels.index((part, src_idx[pos])))] = c
    return ExtClass(n, t, tuple(out))


def _first_mismatch(cases):
    """The first (label, got, want) with got != want, as (label, got vector, want vector)."""
    for lab, got, want in cases:
        if got != want:
            return lab, got.vector, want.vector
    return None


def _classes(obj, z_part):
    """(label, basis class) of E(A); with `z_part`, only those whose image on
    the z-part stays in the window."""
    EA = obj["EA"]
    N, D, l = _window(obj)
    for lab in EA.labels:
        if not z_part or (lab[0] + 1 <= N and lab[1] + l <= D):
            yield lab, EA.basis_class(*lab)


def _ext_map_is_identity(emap, ext):
    one = ext.algebra.field.one
    for bd, idx in ext.bidegrees.items():
        cols = emap.blocks.get(bd)
        if cols is None:
            if idx:
                return False, bd
            continue
        if cols != {j: {j: one} for j in range(len(idx))}:
            return False, bd
    return True, None


def _check_cone(obj) -> SubCheck:
    """1. The cone is a minimal resolution and matches the direct computation."""
    cone = obj["cone"]
    N, D, _l = _window(obj)
    exact = verify_cone_exactness(cone, N, D)
    mismatches = cone_mismatches(cone, obj["direct_resolution"], N, D)
    return SubCheck(
        "cone", "cone resolution exact, minimal, matches direct resolution of B",
        exact and not mismatches,
        details="homology all zero: %s; tables agree: %s" % (exact, not mismatches),
        counterexample=mismatches[:3] or None,
    )


def _check_injectivity(obj) -> SubCheck:
    """2. E(iota) o E(pi) is the identity, for both factors."""
    okA, badA = _ext_map_is_identity(compose_ext_maps(obj["EiotaA"], obj["EpiA"]), obj["EA"])
    okZ, badZ = _ext_map_is_identity(compose_ext_maps(obj["EiotaZ"], obj["EpiZ"]), obj["EZ"])
    return SubCheck(
        "injectivity", "projections induce split injections on Ext",
        okA and okZ,
        details="A factor: %s, z factor: %s" % (okA, okZ),
        counterexample=badA or badZ,
    )


def _check_a_part(obj) -> SubCheck:
    """3. E(A) classes land identically on the A-part; xi on the shifted unit."""
    EA, EpiA = obj["EA"], obj["EpiA"]
    bad = _first_mismatch(chain(
        [("xi", obj["EpiZ"].apply(obj["xi"]), _cone_part(obj, EA.unit, "z"))],
        ((lab, EpiA.apply(cls), _cone_part(obj, cls, "a"))
         for lab, cls in _classes(obj, z_part=False)),
    ))
    return SubCheck(
        "a_part", "E(A) classes keep their coefficients on the A-part; the "
        "z-class is dual to the shifted unit generator",
        bad is None, counterexample=bad,
    )


def _check_z_times_f(obj) -> SubCheck:
    """4. The z-class times f is (-1)^i f on the z-part."""
    EA, EB, EpiA = obj["EA"], obj["EB"], obj["EpiA"]
    xiB = obj["EpiZ"].apply(obj["xi"])
    bad = _first_mismatch(
        (lab, EB.multiply(xiB, EpiA.apply(cls)),
         _cone_part(obj, EA.scale(cls, -1 if lab[0] % 2 else 1), "z"))
        for lab, cls in _classes(obj, z_part=True))
    return SubCheck("z_times_f", "z-class * f = (-1)^i f on the z-part", bad is None,
                    counterexample=bad)


def _check_f_times_z(obj) -> SubCheck:
    """5. f times the z-class is tau(f) on the z-part; tau is multiplicative."""
    EA, EB, EpiA, tau, TA = obj["EA"], obj["EB"], obj["EpiA"], obj["tau"], obj["TA"]
    xiB = obj["EpiZ"].apply(obj["xi"])
    bad = _first_mismatch(
        (lab, EB.multiply(EpiA.apply(cls), xiB), _cone_part(obj, tau.apply(cls), "z"))
        for lab, cls in _classes(obj, z_part=True))
    products_ok = bad is None
    tau_of = {lab: tau.apply(EA.basis_class(*lab)).label_vector() for lab in TA.labels}
    bad_tau = first_nonmultiplicative(TA, TA, tau_of)
    tau_mult = bad_tau is None
    if not tau_mult:
        bad = bad or ("tau not multiplicative",) + bad_tau
    return SubCheck(
        "f_times_z", "f * z-class = tau(f) on the z-part, tau a bigraded "
        "algebra automorphism",
        products_ok and tau_mult,
        details="products match: %s, tau multiplicative: %s" % (products_ok, tau_mult),
        counterexample=bad,
    )


def _check_smash_table(obj) -> SubCheck:
    """6. E(B) = E(k[z]) #_R E(A), with R in closed form, through the window.

    The twist R of the dict is the one recovered through m1; m2 is tested
    here, and m1 again only to name its failure when R is missing.  The
    transport runs once the smash laws hold.
    """
    TA, TZ, TB, R = obj["TA"], obj["TZ"], obj["TB"], obj["R"]
    N, D, l = _window(obj)
    fX, fY = _factor_images(obj)
    ok = R is not None
    details = []
    bad = None
    for name, maps in (("m1", (fX, fY, TZ, TA)), ("m2", (fY, fX, TA, TZ))):
        try:
            if name == "m2" or R is None:
                bijective_solvers(TB, *maps, N, D)
            details.append("%s bijective" % name)
        except NotAFactorization as e:
            ok = False
            details.append("%s fails: %s" % (name, e))
    if R is not None:
        expected = expected_twist_from_tau(obj["tau"], obj["EA"], obj["EZ"], TA, TZ, l)
        same = True
        for key, vec in R.twist.items():
            want = expected.twist.get(key, {})
            if {k: v for k, v in vec.items() if v} != {k: v for k, v in want.items() if v}:
                same = False
                bad = ("twist differs at", key, vec, want)
                break
        details.append("closed form (-1)^i g (x) tau(f): %s" % same)
        status, bad_laws = certify_smash(R, N, D)
        details.append("smash laws: %s" % status)
        laws_ok = status.startswith("smash-certified")
        bad = bad or bad_laws
        transport_ok = True
        if laws_ok:
            bad_t = transport_check(TB, R, fX, fY, N, D)
            transport_ok = bad_t is None
            details.append("table transport: %s" % transport_ok)
            bad = bad or bad_t
        ok = ok and same and laws_ok and transport_ok
    return SubCheck(
        "smash_table",
        "E(B) = E(k[z]) #_R E(A): bijectivity, closed-form twist, smash laws, "
        "full table transport",
        ok, details="; ".join(details), counterexample=bad,
    )


# ---------------------------------------------------------------------------
# finiteness, Frobenius, low-degree generation
# ---------------------------------------------------------------------------

def euler_identity_holds(P, A: GradedAlgebra, D: int) -> bool:
    """sum_n (-1)^n H_{A (x) V_n}(t) == 1 through degree D."""
    for d in range(D + 1):
        acc = 0
        for n in sorted(P.gens):
            term = sum(A.hilbert(d - t) for t in P.gens[n] if d - t >= 0)
            acc += term if n % 2 == 0 else -term
        if acc != (1 if d == 0 else 0):
            return False
    return True


@dataclass
class FinitenessVerdict:
    finite: bool
    reason: str
    window: tuple


def is_finite_certified(P, A: GradedAlgebra, N: int, D: int) -> FinitenessVerdict:
    """Certify that the Ext-algebra is finite dimensional, from the window.

    Requires an empty tail of generator spaces within the window (which
    forces all later ones to vanish in certified degrees), the Euler identity
    through degree D, and an inverse-series sanity check that the finite
    generator polynomial is consistent with a genuine Hilbert series.
    """
    tail_start = None
    for n in range(N, -1, -1):
        if P.gens.get(-n, []):
            tail_start = n + 1
            break
    if tail_start is None:
        tail_start = 0
    if tail_start > N:
        return FinitenessVerdict(False, "generators persist through position %d" % N, (N, D))
    if not euler_identity_holds(P, A, D):
        return FinitenessVerdict(False, "Euler identity fails in the window", (N, D))
    # chi(t) = sum (-1)^n H_{V_n}(t); its inverse power series must stay a
    # plausible Hilbert series (nonnegative integers) well past the window
    chi = [0] * (D + 1)
    for n in sorted(P.gens):
        for t in P.gens[n]:
            if t <= D:
                chi[t] += 1 if n % 2 == 0 else -1
    limit = 2 * D + 1
    inv = [0] * limit
    inv[0] = 1
    for d in range(1, limit):
        s = 0
        for j in range(1, min(d, D) + 1):
            s += chi[j] * inv[d - j]
        inv[d] = -s
    if any(c < 0 for c in inv):
        return FinitenessVerdict(
            False, "inverse of the generator polynomial goes negative", (N, D))
    return FinitenessVerdict(True, "empty tail from position %d, Euler identity holds" % tail_start, (N, D))


@dataclass
class FrobeniusVerdict:
    status: str            # "frobenius" | "not-frobenius" | "not-finite-certified"
    top: tuple = None
    detail: str = ""
    window: tuple = None


def frobenius_check(table: ProductTable, finite: FinitenessVerdict) -> FrobeniusVerdict:
    """Graded Frobenius test: perfect multiplication pairings into the top.

    Needs a finiteness certificate; then locates the top nonzero bidegree,
    requires it one-dimensional, and checks that every complementary pairing
    matrix is square and invertible.
    """
    window = finite.window
    if not finite.finite:
        return FrobeniusVerdict("not-finite-certified", detail=finite.reason, window=window)
    if not table.dims:
        return FrobeniusVerdict("not-frobenius", detail="zero algebra", window=window)
    n_top = max(n for (n, _t) in table.dims)
    top_bids = [(n, t) for (n, t) in table.dims if n == n_top]
    if len(top_bids) != 1 or table.dims[top_bids[0]] != 1:
        return FrobeniusVerdict(
            "not-frobenius", top=tuple(top_bids),
            detail="top cohomological degree is not one dimensional", window=window)
    top = top_bids[0]
    top_label = table.basis_at(*top)[0]
    for (n, t), dim in table.dims.items():
        comp = (top[0] - n, top[1] - t)
        cdim = table.dims.get(comp, 0)
        if cdim != dim:
            return FrobeniusVerdict(
                "not-frobenius", top=top,
                detail="pairing %s vs %s has mismatched dimensions %d vs %d"
                % ((n, t), comp, dim, cdim), window=window)
        rows = [{} for _ in range(dim)]
        for i, la in enumerate(table.basis_at(n, t)):
            for j, lb in enumerate(table.basis_at(*comp)):
                c = table.mul_basis(la, lb).get(top_label)
                if c:
                    rows[i][j] = c
        if Echelon(rows, dim, table.field, solvable=False).rank != dim:
            return FrobeniusVerdict(
                "not-frobenius", top=top,
                detail="pairing %s x %s into the top is degenerate" % ((n, t), comp),
                window=window)
    return FrobeniusVerdict("frobenius", top=top, detail="all pairings perfect", window=window)


@dataclass
class GenerationVerdict:
    generated: bool
    p: int
    witness: tuple = None
    window: tuple = None


def low_degree_generation_check(table: ProductTable, p: int, N: int, D: int) -> GenerationVerdict:
    """Is the algebra generated by cohomological degrees 1..p, inside the window?

    Closes the span of the unit and the low-degree pieces under certified
    products; a bidegree the closure misses is returned as a witness.  This
    is an explicitly truncated statement.
    """
    index_at = {}
    for bd in table.dims:
        index_at[bd] = {lab: i for i, lab in enumerate(table.basis_at(*bd))}

    spans = {bd: Eliminator(table.field) for bd in table.dims}
    queue = []

    def insert(vec):
        bd = None
        for lab in vec:
            bd = (lab[0], lab[1])
            break
        if bd is None:
            return
        coords = {index_at[bd][lab]: c for lab, c in vec.items()}
        if spans[bd].insert(coords):
            queue.append((bd, vec))

    gen_labels = [lab for lab in table.labels if 1 <= lab[0] <= p]
    insert(table.unit_vector())
    for lab in gen_labels:
        insert({lab: table.field.one})
    while queue:
        bd, vec = queue.pop()
        for g in gen_labels:
            if bd[0] + g[0] > N or bd[1] + g[1] > D:
                continue
            prod = table.mul(vec, {g: table.field.one})
            if prod:
                insert(prod)
    for bd in sorted(table.dims):
        if bd[0] > N or bd[1] > D:
            continue
        if spans[bd].dim != table.dims[bd]:
            return GenerationVerdict(False, p, witness=bd, window=(N, D))
    return GenerationVerdict(True, p, window=(N, D))


def frobenius_form_crosscheck(report: FactorizationReport) -> dict:
    """Rebuild the decomposition bilinear form on E(B) and test it directly.

    The form pairs g1 # f1 with g2 # f2 as the product of the factor
    pairings, with a sign and a tau-twist when the second z-component sits in
    cohomological degree one; it must be nondegenerate and associative on
    all certified triples.
    """
    obj = report.objects
    EA, EZ, EB = obj["EA"], obj["EZ"], obj["EB"]
    TA, TZ, TB = obj["TA"], obj["TZ"], obj["TB"]
    tau, R = obj["tau"], obj["R"]
    field = TB.field

    finA = is_finite_certified(obj["P"], obj["A"], report.N, report.D)
    finZ = is_finite_certified(obj["PZ"], obj["Z"], report.N, report.D)
    vA = frobenius_check(TA, finA)
    vZ = frobenius_check(TZ, finZ)
    if vA.status != "frobenius" or vZ.status != "frobenius":
        return {"applicable": False, "reason": "a factor is not certified Frobenius"}

    def pairing(T, v):
        """<a, b> on a Frobenius factor: the coefficient of a*b on its top class."""
        top = T.basis_at(*v.top)[0]
        return lambda a, b: (T.mul_basis(a, b).get(top, field.zero)
                             if (a[0] + b[0], a[1] + b[1]) == v.top else field.zero)

    pairA, pairZ = pairing(TA, vA), pairing(TZ, vZ)

    S = smash_table(R, report.N, report.D)
    pairs, bd = S.labels, S.bidegree

    def form(p1, p2):
        (g1, f1), (g2, f2) = p1, p2
        if g2[0] == 0:
            return pairZ(g1, g2) * pairA(f1, f2)
        acc = field.zero
        for lab, c in tau.apply(EA.basis_class(*f1)).label_vector().items():
            acc = acc + c * pairA(lab, f2)
        sign = -1 if f1[0] % 2 else 1
        return sign * pairZ(g1, g2) * acc

    # nondegeneracy: the Gram matrix on the full window basis is invertible
    idx = {p: i for i, p in enumerate(pairs)}
    rows = [{} for _ in pairs]
    for p1 in pairs:
        for p2 in pairs:
            c = form(p1, p2)
            if c:
                rows[idx[p1]][idx[p2]] = c
    nondeg = Echelon(rows, len(pairs), field, solvable=False).rank == len(pairs)

    # associativity of the form on certified triples: <ab, c> == <a, bc>
    assoc = all(
        sum((c * form(q, p3) for q, c in S.mul_basis(p1, p2).items()), field.zero)
        == sum((c * form(p1, q) for q, c in S.mul_basis(p2, p3).items()), field.zero)
        for p1 in pairs for p2 in pairs for p3 in pairs
        if bd[p1][0] + bd[p2][0] + bd[p3][0] <= report.N
        and bd[p1][1] + bd[p2][1] + bd[p3][1] <= report.D)
    return {"applicable": True, "nondegenerate": nondeg, "associative": assoc,
            "passed": nondeg and assoc}
