"""Ext-algebras of the trivial module, with Yoneda products.

Classes live on the dual basis of the generators of a minimal free
resolution: the bigraded piece in cohomological degree n and internal degree
-t is dual to the degree-t generators at resolution position -n.  A product
g*f ("g after f") is computed by lifting f to a chain self-map of the
resolution, shifted per the sign conventions of `complexes`, and reading off
the generator-level part of the deep component; minimality of the resolution
makes the answer independent of every choice the solver makes, and the tests
re-solve with a second particular solution to confirm that.

Lift signs.  The target of the lift of a class in bidegree (n, t) is the
shifted resolution P[n](t), whose differentials carry the sign (-1)^n.  The
lift is solved against P itself, re-indexed by (n, t) with its differentials
left unsigned, so it reuses P's cached eliminations; the sign is then put
back as (-1)^(n*j) on the component j positions below the base.  With the
canonical particular solution this is exactly the lift against P[n](t).

Maps on Ext.  The contravariant functor on Ext induced by an algebra map and
the automorphism of Ext induced by an algebra automorphism are both `ExtMap`s:
block-diagonal maps stored sparsely, one block per bidegree, each block a
dict of columns {j: {i: nonzero scalar}} (column j is the image of the j-th
domain basis class over the codomain basis).  Applying, composing and the
identity test only touch nonzero entries.

Also here: the canonical degree-one class of the one-variable polynomial
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra, GradedMorphism, TruncationError
from .complexes import FreeComplex, poly_times_element
from .linalg import vec_add_scaled


class LiftError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExtClass:
    n: int
    t: int
    vector: tuple  # coefficients over the (n, t) dual basis

    def is_zero(self):
        return all(not c for c in self.vector)

    def label_vector(self) -> dict:
        """The class as a sparse vector {(n, t, k): nonzero scalar} over basis labels."""
        return {(self.n, self.t, k): c for k, c in enumerate(self.vector) if c}


def lift_chain_map(src: FreeComplex, dst: FreeComplex, base_position: int,
                   base: list, push=None, down_to=None, free_value=0,
                   shift=(0, 0)) -> dict:
    """Extend a prescribed top component to a chain map src -> dst.

    `base` lists, per source generator at `base_position`, a module element
    of dst at the same position.  Components at lower positions are solved
    degree by degree against dst's differential; exactness of dst guarantees
    a solution whenever the base is a valid start.  `push` (optional) maps
    source differential entries into dst's algebra, for lifts along an
    algebra morphism.  With `shift` = (n, t), dst is read re-indexed by
    (n, t) with unsigned differentials: source position m and internal
    degree d land at dst position m + n and degree d - t.  The components
    stay keyed by source position.
    """
    if down_to is None:
        down_to = min(src.gens)
    dn, dt = shift
    comps = {base_position: base}
    for m in range(base_position - 1, down_to - 1, -1):
        prev = comps[m + 1]
        degs = src.gens.get(m, [])
        M = src.diffs.get(m)
        cur = []
        for vi, dv in enumerate(degs):
            rhs = {}
            if M is not None:
                for r, row in enumerate(M):
                    entry = row[vi]
                    if not entry:
                        continue
                    if push is not None:
                        entry = push(entry)
                        if not entry:
                            continue
                    target = prev[r] if r < len(prev) else None
                    if target:
                        poly_times_element(dst.algebra, entry, target, rhs)
            p, e = m + dn, dv - dt
            b = dst.flatten(p + 1, e, rhs)
            x = dst.outgoing_solver(p, e, solvable=True).solve(b, free_value=free_value)
            if x is None:
                raise LiftError("no lift at position %d, degree %d" % (m, dv))
            cur.append(dst.unflatten(p, e, x))
        comps[m] = cur
    return comps


class ExtAlgebra:
    """The Ext-algebra of the trivial module over `algebra`, through (N, D).

    `resolution` must be a minimal free resolution (augmented, positions
    -N..0); for a skew extension it can be a cone resolution, whose generator
    labeling then carries over to the Ext basis.
    """

    def __init__(self, algebra: GradedAlgebra, resolution: FreeComplex,
                 N: int, D: int, free_value=0):
        self.algebra = algebra
        self.resolution = resolution
        self.N = N
        self.D = D
        self.free_value = free_value
        self.bidegrees = {}
        self.labels = []
        for n in range(N + 1):
            degs = resolution.gens.get(-n, [])
            for t in sorted(set(degs)):
                if t > D:
                    continue
                idx = [i for i, dg in enumerate(degs) if dg == t]
                self.bidegrees[(n, t)] = idx
                self.labels.extend((n, t, k) for k in range(len(idx)))
        self._lifts = {}

    # -- basis bookkeeping ----------------------------------------------------

    def dim(self, n, t):
        return len(self.bidegrees.get((n, t), []))

    def basis_class(self, n, t, k):
        dim = self.dim(n, t)
        if not 0 <= k < dim:
            raise IndexError("no basis element e_{%d,%d,%d}" % (n, t, k))
        one, zero = self.algebra.field.one, self.algebra.field.zero
        return ExtClass(n, t, tuple(one if i == k else zero for i in range(dim)))

    @property
    def unit(self):
        return self.basis_class(0, 0, 0)

    def gen_index(self, n, t, k):
        return self.bidegrees[(n, t)][k]

    def label_name(self, label):
        return "e_{%d,%d,%d}" % label

    def add(self, a: ExtClass, b: ExtClass):
        if (a.n, a.t) != (b.n, b.t):
            raise ValueError("bidegree mismatch")
        return ExtClass(a.n, a.t, tuple(x + y for x, y in zip(a.vector, b.vector)))

    def scale(self, a: ExtClass, c):
        c = self.algebra.field.of(c)
        return ExtClass(a.n, a.t, tuple(c * x for x in a.vector))

    # -- lifting and the Yoneda product ---------------------------------------

    def lift_basis_cocycle(self, label):
        """Chain map P -> P[n](t) lifting the dual-basis cocycle at `label`.

        The map is keyed by source position.  It is solved against P
        re-indexed by (n, t), whose differentials lack the sign (-1)^n of
        P[n]; the component j positions below the base is then multiplied by
        (-1)^(n*j), which makes it a chain map into P[n](t) itself.
        """
        got = self._lifts.get(label)
        if got is None:
            n, t, k = label
            P = self.resolution
            base = [{} for _ in P.gens[-n]]
            base[self.gen_index(n, t, k)] = {(0, ()): self.algebra.field.one}
            got = lift_chain_map(P, P, -n, base, down_to=-self.N,
                                 free_value=self.free_value, shift=(n, t))
            if n % 2:
                for m, comp in got.items():
                    if (m + n) % 2:
                        got[m] = [{gw: -c for gw, c in el.items()} for el in comp]
            self._lifts[label] = got
        return got

    def multiply(self, g: ExtClass, f: ExtClass) -> ExtClass:
        """The Yoneda product g*f ("g after f"); bidegrees add."""
        n, t = g.n + f.n, g.t + f.t
        if n > self.N or t > self.D:
            raise TruncationError("product lands outside the certified window")
        result_idx = self.bidegrees.get((n, t), [])
        zero = self.algebra.field.zero
        out = [zero] * len(result_idx)
        # g pairs with the constant coefficients on its generators
        g_terms = [((r, ()), gc)
                   for r, gc in zip(self.bidegrees.get((g.n, g.t), []), g.vector) if gc]
        for k, c in enumerate(f.vector):
            if not c:
                continue
            comps = self.lift_basis_cocycle((f.n, f.t, k))
            comp = comps.get(-n)
            if comp is None:
                raise TruncationError("lift not deep enough")
            for pos, vi in enumerate(result_idx):
                elem = comp[vi]
                if not elem:
                    continue
                acc = zero
                for key, gc in g_terms:
                    const = elem.get(key)
                    if const:
                        acc = acc + gc * const
                if acc:
                    out[pos] = out[pos] + c * acc
        return ExtClass(n, t, tuple(out))

    def certified_pair(self, la, lb):
        return la[0] + lb[0] <= self.N and la[1] + lb[1] <= self.D

    def dimension_table(self):
        return {bd: len(idx) for bd, idx in self.bidegrees.items()}


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------

class ExtMap:
    """A bidegree-preserving linear map between Ext-algebras, stored sparsely.

    `blocks[(n, t)]` is the block at one bidegree, kept by columns: column j,
    the image of the j-th domain basis class, is a dict {i: nonzero scalar}
    over the codomain basis; zero columns are left out.  A bidegree without
    a block maps to zero.  Maps induced by algebra morphisms are
    contravariant, so the domain is the Ext of the morphism's target.
    """

    def __init__(self, domain: ExtAlgebra, codomain: ExtAlgebra, blocks: dict):
        self.domain = domain
        self.codomain = codomain
        self.blocks = blocks

    def apply(self, cls: ExtClass) -> ExtClass:
        zero = self.codomain.algebra.field.zero
        out = [zero] * self.codomain.dim(cls.n, cls.t)
        cols = self.blocks.get((cls.n, cls.t))
        if cols is not None:
            for j, c in enumerate(cls.vector):
                if not c:
                    continue
                for i, a in cols.get(j, {}).items():
                    out[i] = out[i] + a * c
        return ExtClass(cls.n, cls.t, tuple(out))

    def dense(self, n, t):
        """The block at (n, t) as rows over the codomain basis, zeros filled in."""
        zero = self.codomain.algebra.field.zero
        rows = [[zero] * self.domain.dim(n, t) for _ in range(self.codomain.dim(n, t))]
        for j, col in self.blocks.get((n, t), {}).items():
            for i, a in col.items():
                rows[i][j] = a
        return rows


def _dual_block(comp, dom_idx, cod_idx):
    """The block that a lift component induces on Ext, as sparse columns.

    The component sends generator `cod_idx[i]` to an element whose constant
    coefficient on generator `dom_idx[j]` is the entry (i, j) of the block's
    column j: dualizing transposes the generator-level part.
    """
    col_of = {r: j for j, r in enumerate(dom_idx)}
    cols = {}
    for i, v in enumerate(cod_idx):
        elem = comp[v] if comp is not None and v < len(comp) else {}
        for (r, w), c in elem.items():
            if not w and c and r in col_of:
                cols.setdefault(col_of[r], {})[i] = c
    return cols


def ext_functor_map(phi: GradedMorphism, ext_domain: ExtAlgebra,
                    ext_codomain: ExtAlgebra, free_value=0) -> ExtMap:
    """E(phi): Ext of phi's target algebra -> Ext of phi's source algebra.

    Computed from a chain map between the two resolutions lifting phi, which
    exists by exactness; the induced map on Ext does not depend on the lift.
    """
    src = ext_codomain.resolution   # over phi.source
    dst = ext_domain.resolution     # over phi.target
    base = [{(0, ()): phi.target.field.one}]
    comps = lift_chain_map(src, dst, 0, base, push=phi.apply,
                           down_to=-ext_codomain.N, free_value=free_value)
    blocks = {}
    for (n, t), dom_idx in ext_domain.bidegrees.items():
        if n > ext_codomain.N or t > ext_codomain.D:
            continue
        cod_idx = ext_codomain.bidegrees.get((n, t), [])
        blocks[(n, t)] = _dual_block(comps.get(-n), dom_idx, cod_idx)
    return ExtMap(ext_domain, ext_codomain, blocks)


def compose_ext_maps(outer: ExtMap, inner: ExtMap) -> ExtMap:
    """outer o inner as maps of Ext-algebras."""
    blocks = {}
    for bd, inner_cols in inner.blocks.items():
        outer_cols = outer.blocks.get(bd)
        if outer_cols is None:
            continue
        cols = {}
        for j, col in inner_cols.items():
            acc = {}
            for r, a in col.items():
                vec_add_scaled(acc, outer_cols.get(r, {}), a)
            if acc:
                cols[j] = acc
        blocks[bd] = cols
    return ExtMap(inner.domain, outer.codomain, blocks)


# ---------------------------------------------------------------------------
# the automorphism of Ext induced by an algebra automorphism
# ---------------------------------------------------------------------------

class ExtAutomorphism(ExtMap):
    """An `ExtMap` from one Ext-algebra to itself, with a block per bidegree."""

    def __init__(self, ext: ExtAlgebra, blocks: dict):
        super().__init__(ext, ext, blocks)

    apply = ExtMap.apply


def induced_ext_automorphism(ext: ExtAlgebra, sigma: GradedMorphism,
                             free_value=0) -> ExtAutomorphism:
    """The automorphism of Ext induced by an algebra automorphism: the functor
    map E(sigma), lifted from the resolution to itself along sigma."""
    if sigma.inverse is None:
        raise ValueError("need a certified automorphism")
    return ExtAutomorphism(ext, ext_functor_map(sigma, ext, ext, free_value).blocks)


def canonical_z_class(ext_z: ExtAlgebra, l: int) -> ExtClass:
    """The canonical basis of the degree-one Ext of k[z] (internal degree -l)."""
    if ext_z.dim(1, l) != 1:
        raise ValueError("expected a one-dimensional class at (1, %d)" % l)
    return ext_z.basis_class(1, l, 0)
