"""Resolution of the trivial module over a skew extension B = A[z; sigma].

Starting from a minimal free resolution P of the trivial A-module, the cone
of right-multiplication by z on the induced complexes

    B^sigma(-l) tensor_A P  -->  B tensor_A P

is again a minimal free resolution, now over B.  Position j of the cone is
B(-l) tensor V_{j-1} (the "z-part", listed first) plus B tensor V_j (the
"A-part"), and this labeling is what later identifies the two tensor factors
inside the Ext-algebra of B.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import GradedAlgebra, GradedMorphism, skew_extension, morphism_from_images
from .complexes import (
    ComplexMap,
    FreeComplex,
    internal_shift,
    induce_up,
    mapping_cone,
    minimal_resolution,
    verify_exactness,
)


class ConeError(RuntimeError):
    pass


@dataclass
class ConeResolution:
    algebra: object          # B
    base_algebra: object     # A
    sigma: GradedMorphism
    z_degree: int
    z_index: int
    base: FreeComplex        # P over A
    complex: FreeComplex     # the cone, a minimal free resolution over B
    labels: dict             # position -j -> list of ("z"|"a", index into V_{j-1} / V_j)


def inclusion_of_base(A: GradedAlgebra, B: GradedAlgebra) -> GradedMorphism:
    images = {i: B.free.gen_poly(i) for i in range(len(A.free.gens))}
    return morphism_from_images(A, B, images, D=B.maxdeg)


def build_cone_resolution(A: GradedAlgebra, sigma: GradedMorphism, l: int,
                          N: int, D: int, zname="z",
                          B: GradedAlgebra | None = None,
                          P: FreeComplex | None = None) -> ConeResolution:
    """Assemble the cone resolution of the trivial B-module through (N, D)."""
    if P is None:
        P = minimal_resolution(A, N, D)
    if B is None:
        B = GradedAlgebra(skew_extension(A, sigma, l, zname), D)
    zi = B.free.index[zname]
    iota = inclusion_of_base(A, B)

    # B^sigma(-l) tensor_A P: entries through sigma then iota, degrees up by l
    X = internal_shift(induce_up(B, iota, P, twist=sigma), -l)
    Y = induce_up(B, iota, P)

    z_poly = B.free.gen_poly(zi)
    components = {}
    for n, degs in X.gens.items():
        size = len(degs)
        components[n] = [
            [dict(z_poly) if i == j else {} for j in range(size)]
            for i in range(size)
        ]
    rho = ComplexMap(X, Y, components)
    cone = mapping_cone(rho)
    cone.augmented = True

    labels = {}
    for j in range(0, N + 1):
        lab = []
        if j >= 1:
            lab.extend(("z", i) for i in range(len(P.gens.get(-(j - 1), []))))
        lab.extend(("a", i) for i in range(len(P.gens.get(-j, []))))
        labels[-j] = lab
        got = len(cone.gens.get(-j, []))
        if got != len(lab):
            raise ConeError("cone term size mismatch at position %d" % -j)

    for n, M in cone.diffs.items():
        for row in M:
            for e in row:
                if e and B.augmentation(e):
                    raise ConeError("cone differential is not minimal at position %d" % n)
    return ConeResolution(
        algebra=B, base_algebra=A, sigma=sigma, z_degree=l, z_index=zi,
        base=P, complex=cone, labels=labels,
    )


def expected_cone_dimension(cone: ConeResolution, j: int, d: int) -> int:
    """dim (V_{j-1})_{d-l} + dim (V_j)_d read off the base resolution."""
    P, l = cone.base, cone.z_degree
    zpart = sum(1 for t in P.gens.get(-(j - 1), []) if t == d - l) if j >= 1 else 0
    apart = sum(1 for t in P.gens.get(-j, []) if t == d)
    return zpart + apart


def _generator_table(cx: FreeComplex, N: int, D: int) -> dict:
    """{(j, d): number of degree-d generators at position -j}, zeros left out."""
    return dict(Counter((j, t) for j in range(N + 1)
                        for t in sorted(cx.gens.get(-j, [])) if t <= D))


def cone_mismatches(cone: ConeResolution, direct: FreeComplex, N: int, D: int) -> list:
    """Where the cone's generator table differs from another resolution's.

    Entries are (j, d, cone count, other count), and (j, d, cone count,
    "labeling") where the cone differs from the count its z-part/A-part
    labeling predicts from the base resolution.
    """
    table_cone = _generator_table(cone.complex, N, D)
    table_direct = _generator_table(direct, N, D)
    mismatches = []
    for j in range(N + 1):
        for d in range(D + 1):
            dim_c = table_cone.get((j, d), 0)
            dim_d = table_direct.get((j, d), 0)
            if dim_c != dim_d:
                mismatches.append((j, d, dim_c, dim_d))
            if dim_c != expected_cone_dimension(cone, j, d):
                mismatches.append((j, d, dim_c, "labeling"))
    return mismatches


def cross_validate(cone: ConeResolution, N: int, D: int) -> dict:
    """Compare the cone's generator table with a directly computed resolution of B.

    Minimal resolutions are unique up to isomorphism, so the bigraded
    dimension tables must agree exactly; any mismatch is a bug signal.
    """
    direct = minimal_resolution(cone.algebra, N, D)
    mismatches = cone_mismatches(cone, direct, N, D)
    return {
        "match": not mismatches,
        "mismatches": mismatches,
        "cone_table": _generator_table(cone.complex, N, D),
        "direct_table": _generator_table(direct, N, D),
        "direct_resolution": direct,
    }


def verify_cone_exactness(cone: ConeResolution, N: int, D: int) -> bool:
    """Exactness at all positions where both neighboring differentials exist.

    Position -N is excluded: its kernel is accounted for by generators one
    step beyond the window, so homology there only reflects the truncation.
    """
    hom = verify_exactness(cone.complex, D)
    return all(v == 0 for (n, _d), v in hom.items() if n > -N)
