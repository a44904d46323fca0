"""Cochain complexes of free graded left modules over a GradedAlgebra.

A `FreeComplex` stores, per cohomological position n, the internal degrees of
the chosen free-module generators, and per differential a matrix over the
algebra (entry (i, j) = coefficient of target generator i in d(source
generator j); coefficients act on the left).  Resolutions of the trivial
module sit in nonpositive positions with the augmentation at position 0.

Sign conventions: the shifted complex X[i] has differential (-1)^i d, and the
mapping cone of f: X -> Y has n-th term X^{n+1} (+) Y^n with differential
(x, y) |-> (-d x, f x + d y).  Every other sign in the package derives from
these two.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, GradedMorphism, TruncationError
from .linalg import Echelon, extend_to_basis


class NotAChainMap(ValueError):
    pass


# -- matrices over the algebra (entries: normal-form polynomials) -----------

def mat_compose(A: GradedAlgebra, upper, lower):
    """Matrix of upper o lower for left-module maps with left coefficients.

    With d(e_j) = sum_i M[i][j] e_i the composite entry is
    (upper o lower)[k][j] = sum_i lower[i][j] * upper[k][i]  (note the order:
    the earlier map's entry multiplies from the left).
    """
    rows = len(upper)
    mid = len(lower)
    cols = len(lower[0]) if lower else 0
    out = [[{} for _ in range(cols)] for _ in range(rows)]
    for j in range(cols):
        for i in range(mid):
            e = lower[i][j]
            if not e:
                continue
            for k in range(rows):
                f = upper[k][i]
                if f:
                    out[k][j] = A.free.add(out[k][j], A.free.mul(e, f))
    return [[A.normal_form(e, strict=False) for e in row] for row in out]


def mat_scale(A: GradedAlgebra, M, c):
    return [[A.free.scale(e, c) for e in row] for row in M]


def mat_is_zero(M):
    return all(not e for row in M for e in row)


def poly_times_element(A: GradedAlgebra, poly, element, out):
    """out += poly * element, in normal form, for a module element {(gi, w): c}.

    Every word product goes through the algebra's memoized word normal forms.
    """
    for w, c in poly.items():
        for (gi, u), a in element.items():
            ca = c * a
            for v, b in A.word_normal_form(w + u).items():
                key = (gi, v)
                s = out.get(key)
                s = ca * b if s is None else s + ca * b
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


class FreeComplex:
    """A cochain complex of free graded left modules.

    Caches the module bases per (position, degree) and the elimination of
    each differential's degree-d part; the flat rows an elimination is built
    from are not kept.  A cached elimination is rank-only, which is all that
    the resolution and the exactness check read; a lift, which solves,
    replaces the entry with a solvable one.
    """

    def __init__(self, algebra: GradedAlgebra, gens: dict, diffs: dict,
                 augmented=False, maxdeg=None):
        self.algebra = algebra
        self.gens = {n: list(ds) for n, ds in gens.items()}
        self.diffs = dict(diffs)
        self.augmented = augmented
        self.maxdeg = algebra.maxdeg if maxdeg is None else maxdeg
        self._module_basis = {}
        self._solvers = {}

    def positions(self):
        return sorted(self.gens)

    def gen_degrees(self, n):
        return self.gens.get(n, [])

    def module_basis(self, n, d):
        """Ordered field basis of the degree-d part of the term at position n."""
        key = (n, d)
        got = self._module_basis.get(key)
        if got is None:
            A = self.algebra
            got = []
            for gi, gd in enumerate(self.gen_degrees(n)):
                wd = d - gd
                if 0 <= wd <= A.maxdeg:
                    got.extend((gi, w) for w in A.basis[wd])
            self._module_basis[key] = got
            self._module_basis[key, "idx"] = {bw: i for i, bw in enumerate(got)}
        return got

    def basis_index(self, n, d):
        self.module_basis(n, d)
        return self._module_basis[(n, d), "idx"]

    def flatten(self, n, d, element):
        idx = self.basis_index(n, d)
        out = {}
        for (gi, w), c in element.items():
            if c:
                out[idx[(gi, w)]] = c
        return out

    def unflatten(self, n, d, vec):
        mb = self.module_basis(n, d)
        return {mb[i]: c for i, c in vec.items() if c}

    def apply_diff(self, n, element):
        """d^n applied to a module element at position n."""
        M = self.diffs.get(n)
        out = {}
        if M is None:
            return out
        for (gi, w), c in element.items():
            column = {(r, u): a for r, row in enumerate(M) for u, a in row[gi].items()}
            poly_times_element(self.algebra, {w: c}, column, out)
        return out

    def flat_matrix(self, n, d):
        """The degree-d part of d^n as sparse rows over the field."""
        src = self.module_basis(n, d)
        tgt_index = self.basis_index(n + 1, d)
        rows = [{} for _ in range(len(tgt_index))]
        one = self.algebra.field.one
        for j, (gi, w) in enumerate(src):
            for bw, c in self.apply_diff(n, {(gi, w): one}).items():
                rows[tgt_index[bw]][j] = c
        return rows

    def augmentation_rows(self, d):
        """The flattened augmentation at degree d (one row onto k, or none)."""
        src = self.module_basis(0, d)
        row = {}
        for j, (gi, w) in enumerate(src):
            if not w and self.gen_degrees(0)[gi] == 0:
                row[j] = self.algebra.field.one
        return [row] if row else []

    def outgoing_solver(self, n, d, solvable=False):
        """Echelon of the map leaving position n in degree d.

        With `solvable`, the elimination keeps its transforms for `solve`.
        """
        key = (n, d)
        got = self._solvers.get(key)
        if got is None or (solvable and not got.solvable):
            ncols = len(self.module_basis(n, d))
            if n in self.diffs:
                rows = self.flat_matrix(n, d)
            elif n == 0 and self.augmented:
                rows = self.augmentation_rows(d)
            else:
                rows = []
            got = Echelon(rows, ncols, self.algebra.field, solvable)
            self._solvers[key] = got
        return got

    def assert_dd_zero(self):
        A = self.algebra
        for n, M in self.diffs.items():
            up = self.diffs.get(n + 1)
            if up is not None:
                if not mat_is_zero(mat_compose(A, up, M)):
                    raise AssertionError("d o d != 0 at position %d" % n)
            elif self.augmented and n + 1 == 0:
                for row in M:
                    for e in row:
                        if A.augmentation(e):
                            raise AssertionError("augmentation does not kill d at position -1")

    def hilbert_of_term(self, n, d):
        return len(self.module_basis(n, d))


class ComplexMap:
    """A degree-zero morphism of cochain complexes over one algebra."""

    def __init__(self, source: FreeComplex, target: FreeComplex, components: dict):
        self.source = source
        self.target = target
        self.components = dict(components)

    def check(self):
        A = self.source.algebra
        for n, comp in self.components.items():
            dX = self.source.diffs.get(n)
            dY = self.target.diffs.get(n)
            upper = self.components.get(n + 1)
            if dX is None and dY is None:
                continue
            lhs = mat_compose(A, upper, dX) if (upper is not None and dX is not None) else None
            rhs = mat_compose(A, dY, comp) if dY is not None else None
            if lhs is None and rhs is None:
                continue
            if lhs is None:
                if not mat_is_zero(rhs):
                    raise NotAChainMap("fails to commute at position %d" % n)
            elif rhs is None:
                if not mat_is_zero(lhs):
                    raise NotAChainMap("fails to commute at position %d" % n)
            else:
                diff = [
                    [A.free.sub(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(lhs, rhs)
                ]
                if not mat_is_zero(diff):
                    raise NotAChainMap("fails to commute at position %d" % n)
        return self


# ---------------------------------------------------------------------------
# minimal free resolution of the trivial module
# ---------------------------------------------------------------------------

def minimal_resolution(A: GradedAlgebra, N: int, D: int) -> FreeComplex:
    """Minimal free resolution of the trivial module, through (N, D).

    Built degree by degree: at each stage the kernel of the previous
    differential is computed per internal degree by exact linear algebra, and
    new generators are a deterministic complement of (positive-degree
    multiples of lower-degree kernel generators) inside the kernel.
    """
    if D > A.maxdeg:
        raise TruncationError("algebra only certified through degree %d" % A.maxdeg)
    cx = FreeComplex(A, {0: [0]}, {}, augmented=True, maxdeg=D)
    for j in range(1, N + 1):
        pos = -(j - 1)
        new_degs = []
        new_elements = []
        for d in range(D + 1):
            ambient = cx.outgoing_solver(pos, d).kernel_basis()
            if not ambient:
                continue
            inside = []
            for d0, el in zip(new_degs, new_elements):
                wd = d - d0
                if wd < 1:
                    continue
                for w in A.basis[wd]:
                    prod = poly_times_element(A, {w: A.field.one}, el, {})
                    inside.append(cx.flatten(pos, d, prod))
            chosen = extend_to_basis(inside, ambient, A.field)
            for vec in chosen:
                new_degs.append(d)
                new_elements.append(cx.unflatten(pos, d, vec))
        rows = len(cx.gen_degrees(pos))
        matrix = [[{} for _ in new_elements] for _ in range(rows)]
        for cidx, el in enumerate(new_elements):
            for (gi, w), c in el.items():
                A.free.add_term(matrix[gi][cidx], w, c)
        cx.gens[-j] = new_degs
        cx.diffs[-j] = matrix
    return cx


def verify_exactness(cx: FreeComplex, D: int) -> dict:
    """Homology dimensions per (position, internal degree) up to D.

    For an augmented resolution the expected output is identically zero: the
    augmentation accounts for the trivial module at (0, 0).
    """
    out = {}
    for n in cx.positions():
        for d in range(D + 1):
            dim = cx.hilbert_of_term(n, d)
            if dim == 0:
                continue
            r_out = cx.outgoing_solver(n, d).rank
            if (n - 1) in cx.diffs and (n - 1) in cx.gens:
                r_in = cx.outgoing_solver(n - 1, d).rank
            else:
                r_in = 0
            out[(n, d)] = dim - r_out - r_in
    return out


# ---------------------------------------------------------------------------
# shifts, twists, induction, cones
# ---------------------------------------------------------------------------

def shift_complex(X: FreeComplex, i: int) -> FreeComplex:
    """X[i]: terms reindexed by i, differentials scaled by (-1)^i."""
    gens = {n - i: X.gens[n] for n in X.gens}
    sign = 1 if i % 2 == 0 else -1
    diffs = {n - i: mat_scale(X.algebra, X.diffs[n], sign) for n in X.diffs}
    return FreeComplex(X.algebra, gens, diffs, augmented=False, maxdeg=X.maxdeg)


def internal_shift(X: FreeComplex, s: int) -> FreeComplex:
    """X(s): generator of internal degree t becomes one of degree t - s."""
    gens = {n: [t - s for t in ds] for n, ds in X.gens.items()}
    return FreeComplex(X.algebra, gens, X.diffs, augmented=False, maxdeg=X.maxdeg)


def twist_complex(X: FreeComplex, nu: GradedMorphism) -> FreeComplex:
    """The twisted module complex: same generators, entries through nu^{-1}.

    With the action a * m = nu(a) m, rewriting every differential entry by
    nu^{-1} makes the identity on generators an isomorphism of underlying
    graded vector spaces; downstream code then only ever sees plain free
    modules.
    """
    if nu.inverse is None:
        raise ValueError("twist requires a certified automorphism")
    inv = nu.inverse
    diffs = {
        n: [[inv.apply(e) if e else {} for e in row] for row in M]
        for n, M in X.diffs.items()
    }
    return FreeComplex(X.algebra, X.gens, diffs, augmented=False, maxdeg=X.maxdeg)


def induce_up(B: GradedAlgebra, iota: GradedMorphism, X: FreeComplex,
              twist: GradedMorphism | None = None) -> FreeComplex:
    """B tensor_A X as a free B-complex on the same generator data.

    With the optional right twist, entries pass through the twist first:
    in B^sigma tensor_A M one has b (x) (a m) = b sigma(a) (x) m.
    """
    def push(e):
        if not e:
            return {}
        if twist is not None:
            e = twist.apply(e)
        return iota.apply(e)

    diffs = {n: [[push(e) for e in row] for row in M] for n, M in X.diffs.items()}
    return FreeComplex(B, X.gens, diffs, augmented=False, maxdeg=B.maxdeg)


def mapping_cone(f: ComplexMap) -> FreeComplex:
    """Cone(f): n-th term X^{n+1} (+) Y^n (X-part first), cone differential."""
    f.check()
    X, Y = f.source, f.target
    A = Y.algebra
    gens = {}
    positions = sorted({n - 1 for n in X.gens} | set(Y.gens))
    for n in positions:
        gens[n] = list(X.gens.get(n + 1, [])) + list(Y.gens.get(n, []))
    diffs = {}
    for n in positions:
        if n + 1 not in gens:
            continue
        xs = len(X.gens.get(n + 1, []))
        ys = len(Y.gens.get(n, []))
        xt = len(X.gens.get(n + 2, []))
        yt = len(Y.gens.get(n + 1, []))
        rows = xt + yt
        cols = xs + ys
        if cols == 0:
            continue
        M = [[{} for _ in range(cols)] for _ in range(rows)]
        dX = X.diffs.get(n + 1)
        if dX is not None:
            for i in range(xt):
                for j in range(xs):
                    M[i][j] = A.free.scale(dX[i][j], -1)
        comp = f.components.get(n + 1)
        if comp is not None and xs:
            for i in range(yt):
                for j in range(xs):
                    M[xt + i][j] = dict(comp[i][j])
        dY = Y.diffs.get(n)
        if dY is not None:
            for i in range(yt):
                for j in range(ys):
                    M[xt + i][xs + j] = dict(dY[i][j])
        diffs[n] = M
    cone = FreeComplex(A, gens, diffs, augmented=False, maxdeg=min(X.maxdeg, Y.maxdeg))
    cone.assert_dd_zero()
    return cone
