"""The sparse maps, products and lifts on Ext against dense reference loops.

The references in `oracles` multiply every coordinate of dense blocks and
lift against the shifted resolution P[n](t) built as its own complex, with
its signed differentials and its own eliminations.  Every case runs over Q
and over F5, with the canonical particular solution and with free variables
set to 1.
"""

import pytest

from extalg import (
    ExtAlgebra,
    ExtClass,
    GradedAlgebra,
    compose_ext_maps,
    ext_functor_map,
    induced_ext_automorphism,
    minimal_resolution,
    morphism_from_images,
    parse_automorphism,
    parse_presentation,
    verify_ext_factorization,
)
from extalg.cone import inclusion_of_base

from oracles import (
    apply_automorphism_dense,
    apply_dense,
    compose_dense,
    dense_blocks,
    shifted_lifts,
    yoneda_product_dense,
)

N = D = 4
# (relations, automorphism); the one on TRIV is not diagonal, so tau has
# blocks with several entries per row
PRESENTATIONS = {
    "qplane": ("gens x:1 y:1\nrel x*y - 2*y*x\n", "x -> 2*x\ny -> 3*y\n"),
    "cube": ("gens x:1\nrel x^3\n", "x -> 2*x\n"),
    "triv": ("gens x:1 y:1\nrel x^2\nrel x*y\nrel y*x\nrel y^2\n", "x -> x + y\ny -> 3*y\n"),
}
CASES = [(name, field, fv) for name in PRESENTATIONS for field in ("Q", "F5") for fv in (0, 1)]
IDS = ["%s-%s-fv%d" % case for case in CASES]


def presentation(name, field):
    return parse_presentation("field %s\n%s" % (field, PRESENTATIONS[name][0]))


def full_class(E, n, t):
    """A class whose coordinates cycle through 1..4, all nonzero over Q and F5."""
    field = E.algebra.field
    return ExtClass(n, t, tuple(field.of(1 + i % 4) for i in range(E.dim(n, t))))


def sample_classes(E):
    out = [E.basis_class(*lab) for lab in E.labels]
    return out + [full_class(E, *bd) for bd in E.bidegrees if E.dim(*bd) > 1]


def generator_constants(comp):
    return [{r: c for (r, w), c in elem.items() if not w} for elem in comp]


@pytest.mark.parametrize("name,field,fv", CASES, ids=IDS)
def test_products_and_lifts_match_dense_oracle(name, field, fv):
    pres = presentation(name, field)
    A = GradedAlgebra(pres, D)
    E = ExtAlgebra(A, minimal_resolution(A, N, D), N, D, free_value=fv)
    lifts = shifted_lifts(E, fv)
    for lab in E.labels:
        new, old = E.lift_basis_cocycle(lab), lifts[lab]
        assert sorted(new) == sorted(old)
        for m in new:
            # generator-level parts do not depend on the lift; with the
            # canonical solution the whole lift is the same
            assert generator_constants(new[m]) == generator_constants(old[m]), (lab, m)
            if fv == 0:
                assert new[m] == old[m], (lab, m)
    classes = sample_classes(E)
    for g in classes:
        for f in classes:
            if g.n + f.n > N or g.t + f.t > D:
                continue
            assert E.multiply(g, f) == yoneda_product_dense(E, lifts, g, f), (g, f)


@pytest.mark.parametrize("name,field,fv", CASES, ids=IDS)
def test_ext_maps_match_dense_oracle(name, field, fv):
    pres = presentation(name, field)
    images = parse_automorphism(PRESENTATIONS[name][1], pres)
    report = verify_ext_factorization(pres, images, 1, N, D)
    assert report.passed
    obj = report.objects
    EA, EB = obj["EA"], obj["EB"]
    A, B, tau = obj["A"], obj["B"], obj["tau"]
    zero = A.field.zero

    # re-solved lifts give the same maps
    zi = obj["cone"].z_index
    piA = morphism_from_images(
        B, A, {i: A.free.gen_poly(i) for i in range(len(A.free.gens))} | {zi: {}}, D=D)
    assert dense_blocks(ext_functor_map(piA, EA, EB, free_value=fv)) == dense_blocks(obj["EpiA"])
    assert (dense_blocks(ext_functor_map(inclusion_of_base(A, B), EB, EA, free_value=fv))
            == dense_blocks(obj["EiotaA"]))
    tau_fv = induced_ext_automorphism(EA, obj["sigma"], free_value=fv)
    assert dense_blocks(tau_fv) == dense_blocks(tau)

    maps = [obj["EpiA"], obj["EiotaA"], obj["EpiZ"], obj["EiotaZ"], tau]
    composites = [(obj["EiotaA"], obj["EpiA"]), (obj["EpiA"], obj["EiotaA"]),
                  (obj["EiotaZ"], obj["EpiZ"]), (obj["EpiZ"], obj["EiotaZ"]), (tau, tau),
                  (obj["EpiA"], tau)]
    for outer, inner in composites:
        got = compose_ext_maps(outer, inner)
        assert dense_blocks(got) == compose_dense(dense_blocks(outer), dense_blocks(inner), zero)
        maps.append(got)
    for emap in maps:
        blocks = dense_blocks(emap)
        for cls in sample_classes(emap.domain):
            want = apply_dense(blocks, cls, emap.codomain.dim(cls.n, cls.t), zero)
            assert emap.apply(cls) == want, (cls, want)
    for cls in sample_classes(EA):
        assert tau.apply(cls) == apply_automorphism_dense(dense_blocks(tau), cls, zero)
