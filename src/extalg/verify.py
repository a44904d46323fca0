"""End-to-end certification that the Ext-algebra of a skew extension is a
twisted tensor product of the Ext-algebras of its two factors.

Given a presentation of A, an automorphism sigma and a degree for the new
variable z, `verify_ext_factorization` assembles everything downstream (the
skew extension B, the cone resolution, the three Ext-algebras, the functorial
maps induced by the projections and inclusions) and runs six checks inside
the (N, D) window:

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
                     bijective, the resulting twist equals the closed form
                     (f (x) g) |-> (-1)^i g (x) tau(f), the twisted product
                     satisfies the smash laws, and transporting it along the
                     combined multiplication reproduces E(B)'s full product
                     table

Also here: finiteness certification of an Ext-algebra from its window, the
graded Frobenius test via perfect pairings into the top bidegree, and
generation by low cohomological degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    GradedAlgebra,
    morphism_from_images,
    polynomial_algebra_presentation,
)
from .complexes import minimal_resolution
from .cone import build_cone_resolution, cross_validate, inclusion_of_base, verify_cone_exactness
from .ext import (
    ExtAlgebra,
    ExtClass,
    canonical_z_class,
    compose_ext_maps,
    ext_functor_map,
    induced_ext_automorphism,
)
from .linalg import Echelon, Eliminator, vec_add_scaled
from .smash import (
    NotAFactorization,
    ProductTable,
    SmashTwist,
    certify_smash,
    ext_product_table,
    smash_multiply,
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


def _embed_on_zpart(EA: ExtAlgebra, EB: ExtAlgebra, cone, cls: ExtClass) -> ExtClass:
    """Place an E(A) class on the z-part duals one cone position higher."""
    n, t = cls.n + 1, cls.t + cone.z_degree
    out = [EB.algebra.field.zero] * EB.dim(n, t)
    labels = cone.labels[-n]
    ext_idx = EB.bidegrees.get((n, t), [])
    src_idx = EA.bidegrees.get((cls.n, cls.t), [])
    for pos, c in enumerate(cls.vector):
        if not c:
            continue
        gen_in_P = src_idx[pos]
        cone_gen = labels.index(("z", gen_in_P))
        out[ext_idx.index(cone_gen)] = c
    return ExtClass(n, t, tuple(out))


def _a_part_class(EA: ExtAlgebra, EB: ExtAlgebra, cone, cls: ExtClass) -> ExtClass:
    """Place an E(A) class on the A-part duals of the cone basis."""
    out = [EB.algebra.field.zero] * EB.dim(cls.n, cls.t)
    labels = cone.labels[-cls.n]
    ext_idx = EB.bidegrees.get((cls.n, cls.t), [])
    src_idx = EA.bidegrees.get((cls.n, cls.t), [])
    for pos, c in enumerate(cls.vector):
        if not c:
            continue
        cone_gen = labels.index(("a", src_idx[pos]))
        out[ext_idx.index(cone_gen)] = c
    return ExtClass(cls.n, cls.t, tuple(out))


def expected_twist_from_tau(tau, EA: ExtAlgebra, EZ: ExtAlgebra,
                            TA: ProductTable, TZ: ProductTable,
                            l: int, N: int, D: int) -> SmashTwist:
    """The closed-form twist: f (x) 1 -> 1 (x) f,  f (x) xi -> (-1)^i xi (x) tau(f)."""
    one = EA.algebra.field.one
    xi_label = (1, l, 0)
    twist = {}
    for f_lab in TA.labels:
        fn, ft, fk = f_lab
        twist[(f_lab, TZ.unit)] = {(TZ.unit, f_lab): one}
        if (1, l) in EZ.bidegrees:
            tf = tau.apply(EA.basis_class(fn, ft, fk))
            sign = -1 if fn % 2 else 1
            vec = {}
            for pos, c in enumerate(tf.vector):
                if c:
                    vec[(xi_label, (fn, ft, pos))] = sign * c
            twist[(f_lab, xi_label)] = vec
    return SmashTwist(TZ, TA, twist)


def verify_ext_factorization(pres_A, sigma_images: dict, l: int, N: int, D: int,
                             zname="z", precedence=None) -> FactorizationReport:
    """Run the full factorization certification for E(A[z; sigma])."""
    A = GradedAlgebra(pres_A, D, precedence)
    field = A.field
    sigma = morphism_from_images(A, A, sigma_images, automorphism=True, D=D)
    P = minimal_resolution(A, N, D)
    cone = build_cone_resolution(A, sigma, l, N, D, zname=zname, P=P)
    B = cone.algebra
    Z = GradedAlgebra(polynomial_algebra_presentation(field, zname, l), D)
    PZ = minimal_resolution(Z, N, D)

    EA = ExtAlgebra(A, P, N, D)
    EZ = ExtAlgebra(Z, PZ, N, D)
    EB = ExtAlgebra(B, cone.complex, N, D)

    zi = cone.z_index
    piA = morphism_from_images(
        B, A,
        {i: A.free.gen_poly(i) for i in range(len(A.free.gens))} | {zi: {}},
        D=D,
    )
    piZ = morphism_from_images(
        B, Z,
        {i: {} for i in range(len(A.free.gens))} | {zi: Z.free.gen_poly(0)},
        D=D,
    )
    iotaA = inclusion_of_base(A, B)
    iotaZ = morphism_from_images(Z, B, {0: B.free.gen_poly(zi)}, D=D)

    EpiA = ext_functor_map(piA, EA, EB)
    EpiZ = ext_functor_map(piZ, EZ, EB)
    EiotaA = ext_functor_map(iotaA, EB, EA)
    EiotaZ = ext_functor_map(iotaZ, EB, EZ)
    xi = canonical_z_class(EZ, l)
    tau = induced_ext_automorphism(EA, sigma)

    checks = []
    data = {
        "ext_A_dims": EA.dimension_table(),
        "ext_z_dims": EZ.dimension_table(),
        "ext_B_dims": EB.dimension_table(),
    }

    # 1. the cone is a minimal resolution and matches the direct computation
    exact_ok = verify_cone_exactness(cone, N, D)
    cv = cross_validate(cone, N, D)
    checks.append(SubCheck(
        "cone", "cone resolution exact, minimal, matches direct resolution of B",
        exact_ok and cv["match"],
        details="homology all zero: %s; tables agree: %s" % (exact_ok, cv["match"]),
        counterexample=None if cv["match"] else cv["mismatches"][:3],
    ))
    data["cone_table"] = cv["cone_table"]

    # 2. split injectivity of the induced maps
    okA, badA = _ext_map_is_identity(compose_ext_maps(EiotaA, EpiA), EA)
    okZ, badZ = _ext_map_is_identity(compose_ext_maps(EiotaZ, EpiZ), EZ)
    checks.append(SubCheck(
        "injectivity", "projections induce split injections on Ext",
        okA and okZ,
        details="A factor: %s, z factor: %s" % (okA, okZ),
        counterexample=badA or badZ,
    ))

    # 3. E(A) classes land identically on the A-part of the cone basis
    ok3 = True
    bad3 = None
    for lab in EA.labels:
        cls = EA.basis_class(*lab)
        got = EpiA.apply(cls)
        want = _a_part_class(EA, EB, cone, cls)
        if got != want:
            ok3, bad3 = False, (lab, got.vector, want.vector)
            break
    got_xi = EpiZ.apply(xi)
    want_xi = _embed_on_zpart(EA, EB, cone, EA.unit)
    if got_xi != want_xi:
        ok3, bad3 = False, ("xi", got_xi.vector, want_xi.vector)
    checks.append(SubCheck(
        "a_part", "E(A) classes keep their coefficients on the A-part; the "
        "z-class is dual to the shifted unit generator",
        ok3, counterexample=bad3,
    ))

    # 4. z-class times f = (-1)^i f on the z-part
    ok4 = True
    bad4 = None
    xiB = EpiZ.apply(xi)
    for lab in EA.labels:
        n, t, k = lab
        if n + 1 > N or t + l > D:
            continue
        cls = EA.basis_class(*lab)
        got = EB.multiply(xiB, EpiA.apply(cls))
        want = _embed_on_zpart(EA, EB, cone, EA.scale(cls, -1 if n % 2 else 1))
        if got != want:
            ok4, bad4 = False, (lab, got.vector, want.vector)
            break
    checks.append(SubCheck(
        "z_times_f", "z-class * f = (-1)^i f on the z-part", ok4,
        counterexample=bad4,
    ))

    # 5. f times z-class = tau(f) on the z-part; tau is multiplicative
    TA = ext_product_table(EA)
    ok5 = True
    bad5 = None
    for lab in EA.labels:
        n, t, k = lab
        if n + 1 > N or t + l > D:
            continue
        cls = EA.basis_class(*lab)
        got = EB.multiply(EpiA.apply(cls), xiB)
        want = _embed_on_zpart(EA, EB, cone, tau.apply(cls))
        if got != want:
            ok5, bad5 = False, (lab, got.vector, want.vector)
            break
    tau_mult = True
    tau_of = {lab: _class_to_vec(EA, tau.apply(EA.basis_class(*lab))) for lab in EA.labels}
    for (la, lb), prod in TA.products.items():
        lhs = {}
        for lab, c in prod.items():
            vec_add_scaled(lhs, tau_of[lab], c)
        if lhs != TA.mul(tau_of[la], tau_of[lb]):
            tau_mult = False
            bad5 = bad5 or ("tau not multiplicative", la, lb)
            break
    checks.append(SubCheck(
        "f_times_z", "f * z-class = tau(f) on the z-part, tau a bigraded "
        "algebra automorphism",
        ok5 and tau_mult,
        details="products match: %s, tau multiplicative: %s" % (ok5, tau_mult),
        counterexample=bad5,
    ))
    data["tau"] = {"%d,%d" % bd: tau.dense(*bd) for bd in tau.blocks}

    # 6. both combined multiplications are bijective; the recovered twist has
    # the closed form and transports the smash product onto E(B)'s table
    TZ = ext_product_table(EZ)
    TB = ext_product_table(EB)
    fX = {lab: _class_to_vec(EB, EpiZ.apply(EZ.basis_class(*lab))) for lab in TZ.labels}
    fY = {lab: _class_to_vec(EB, EpiA.apply(EA.basis_class(*lab))) for lab in TA.labels}
    ok6 = True
    details6 = []
    bad6 = None
    R = None
    try:
        R = twist_from_factorization(TB, fX, fY, TZ, TA, N, D)
        details6.append("m1 bijective")
    except NotAFactorization as e:
        ok6 = False
        details6.append("m1 fails: %s" % e)
    try:
        twist_from_factorization(TB, fY, fX, TA, TZ, N, D)
        details6.append("m2 bijective")
    except NotAFactorization as e:
        ok6 = False
        details6.append("m2 fails: %s" % e)
    if R is not None:
        expected = expected_twist_from_tau(tau, EA, EZ, TA, TZ, l, N, D)
        same = True
        for key, vec in R.twist.items():
            want = expected.twist.get(key, {})
            if {k: v for k, v in vec.items() if v} != {k: v for k, v in want.items() if v}:
                same = False
                bad6 = ("twist differs at", key, vec, want)
                break
        details6.append("closed form (-1)^i g (x) tau(f): %s" % same)
        ok6 = ok6 and same
        status, bad = certify_smash(R, N, D)
        smash_ok = status.startswith("smash-certified")
        details6.append("smash laws: %s" % status)
        ok6 = ok6 and smash_ok
        bad6 = bad6 or bad
        transport_ok, bad_t = _transport_check(TB, R, fX, fY, N, D)
        details6.append("table transport: %s" % transport_ok)
        ok6 = ok6 and transport_ok
        bad6 = bad6 or bad_t
        data["twist"] = {
            "%s (x) %s" % (_lab(y), _lab(x)): {
                "%s (x) %s" % (_lab(xm), _lab(ym)): str(c)
                for (xm, ym), c in vec.items()
            }
            for (y, x), vec in sorted(R.twist.items())
        }
    checks.append(SubCheck(
        "smash_table",
        "E(B) = E(k[z]) #_R E(A): bijectivity, closed-form twist, smash laws, "
        "full table transport",
        ok6, details="; ".join(details6), counterexample=bad6,
    ))

    report = FactorizationReport(
        passed=all(c.passed for c in checks),
        checks=checks,
        N=N, D=D,
        field_name=field.name,
        data=data,
    )
    report.data["orientation"] = (
        "twist direction E(A) (x) E(k[z]) -> E(k[z]) (x) E(A); the smash "
        "presentation is E(k[z]) #_R E(A)"
    )
    # expose the computed objects for callers that want to dig further
    report.objects = {
        "A": A, "B": B, "Z": Z, "sigma": sigma, "cone": cone,
        "EA": EA, "EB": EB, "EZ": EZ, "tau": tau, "R": R,
        "TA": TA, "TB": TB, "TZ": TZ,
        "EpiA": EpiA, "EpiZ": EpiZ, "EiotaA": EiotaA, "EiotaZ": EiotaZ,
        "P": P, "PZ": PZ, "xi": xi,
        "direct_resolution": cv["direct_resolution"],
    }
    return report


def _lab(label):
    return "e_{%d,%d,%d}" % label


def _class_to_vec(ext: ExtAlgebra, cls: ExtClass) -> dict:
    out = {}
    for pos, c in enumerate(cls.vector):
        if c:
            out[(cls.n, cls.t, pos)] = c
    return out


def _transport_check(TB: ProductTable, R: SmashTwist, fX: dict, fY: dict,
                     N: int, D: int):
    """m1(p1 * p2) == m1(p1) * m1(p2) for all basis pairs in the window."""
    one = TB.field.one

    def m1(vec):
        out = {}
        for (xl, yl), c in vec.items():
            prod = TB.mul(fX[xl], fY[yl])
            for lab, a in prod.items():
                s = out.get(lab)
                s = c * a if s is None else s + c * a
                if s:
                    out[lab] = s
                else:
                    del out[lab]
        return out

    pairs = [
        (xl, yl)
        for xl in R.left.labels
        for yl in R.right.labels
        if xl[0] + yl[0] <= N and xl[1] + yl[1] <= D
    ]
    for p1 in pairs:
        n1, t1 = p1[0][0] + p1[1][0], p1[0][1] + p1[1][1]
        for p2 in pairs:
            n2, t2 = p2[0][0] + p2[1][0], p2[0][1] + p2[1][1]
            if n1 + n2 > N or t1 + t2 > D:
                continue
            lhs = m1(smash_multiply(R, {p1: one}, {p2: one}))
            rhs = TB.mul(m1({p1: one}), m1({p2: one}))
            if lhs != rhs:
                return False, ("transport", p1, p2)
    return True, None


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
        if Echelon(rows, dim, table.field).rank != dim:
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
    topA = TA.basis_at(*vA.top)[0]
    topZ = TZ.basis_at(*vZ.top)[0]

    def pairA(f1, f2):
        if (f1[0] + f2[0], f1[1] + f2[1]) != vA.top:
            return field.zero
        return TA.mul_basis(f1, f2).get(topA, field.zero)

    def pairZ(g1, g2):
        if (g1[0] + g2[0], g1[1] + g2[1]) != vZ.top:
            return field.zero
        return TZ.mul_basis(g1, g2).get(topZ, field.zero)

    pairs = [
        (xl, yl) for xl in TZ.labels for yl in TA.labels
        if xl[0] + yl[0] <= report.N and xl[1] + yl[1] <= report.D
    ]

    def form(p1, p2):
        (g1, f1), (g2, f2) = p1, p2
        if g2[0] == 0:
            return pairZ(g1, g2) * pairA(f1, f2)
        tf1 = tau.apply(EA.basis_class(*f1))
        acc = field.zero
        for pos, c in enumerate(tf1.vector):
            if c:
                acc = acc + c * pairA((f1[0], f1[1], pos), f2)
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
    nondeg = Echelon(rows, len(pairs), field).rank == len(pairs)

    # associativity of the form on certified triples: <ab, c> == <a, bc>
    one = field.one
    assoc = True
    for p1 in pairs:
        for p2 in pairs:
            for p3 in pairs:
                nsum = sum(q[0][0] + q[1][0] for q in (p1, p2, p3))
                tsum = sum(q[0][1] + q[1][1] for q in (p1, p2, p3))
                if nsum > report.N or tsum > report.D:
                    continue
                ab = smash_multiply(R, {p1: one}, {p2: one})
                bc = smash_multiply(R, {p2: one}, {p3: one})
                lhs = field.zero
                for q, c in ab.items():
                    lhs = lhs + c * form(q, p3)
                rhs = field.zero
                for q, c in bc.items():
                    rhs = rhs + c * form(p1, q)
                if lhs != rhs:
                    assoc = False
    return {"applicable": True, "nondegenerate": nondeg, "associative": assoc,
            "passed": nondeg and assoc}
