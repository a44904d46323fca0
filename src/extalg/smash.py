"""Twisted tensor products of bigraded algebras with chosen bases.

A `ProductTable` is a bigraded algebra presented by structure constants on a
finite window of basis elements; a `SmashTwist` is a bigraded linear map
R: Y (x) X -> X (x) Y given on basis pairs.  The twisted product on X (x) Y is

    (x1 (x) y1) * (x2 (x) y2) = sum  x1*x' (x) y'*y2   over R(y1 (x) x2) = sum x' (x) y'

`smash_table` tabulates the twisted product on the basis pairs inside the
window, each basis product formed once; `certify_smash` checks normality,
then unit laws and associativity on all basis triples, from that table.
`bijective_solvers` tests that the combined multiplication of two algebra
maps into a common algebra is bijective in every bidegree, and
`twist_from_factorization` then recovers the unique twist.
`first_nonmultiplicative` finds the first basis product that a linear map of
product tables does not preserve; `transport_check` uses it to test that the
combined multiplication carries a twisted product onto the common algebra's
product.  These serve both the algebra level (the skew extension itself) and
the Ext level (the factorization of its Ext-algebra).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra, GradedMorphism, TruncationError, polynomial_algebra_presentation
from .linalg import Echelon, vec_add_scaled


@dataclass
class ProductTable:
    """Structure constants of a bigraded algebra on a finite basis window.

    A label is (n, t, k), or a basis pair (xl, yl) of two such labels in a
    twisted product, whose bidegree is the sum of theirs.
    """

    field: object
    labels: list                     # ordered (n, t, k) or ((n, t, k), (n', t', k'))
    unit: tuple
    products: dict                   # (la, lb) -> {label: scalar}, certified pairs only
    window: tuple                    # (N, D)

    def __post_init__(self):
        self.bidegree = {lab: (lab[0][0] + lab[1][0], lab[0][1] + lab[1][1])
                         if isinstance(lab[0], tuple) else lab[:2] for lab in self.labels}
        self.dims = {}
        for bd in self.bidegree.values():
            self.dims[bd] = self.dims.get(bd, 0) + 1

    def dim(self, n, t):
        return self.dims.get((n, t), 0)

    def basis_at(self, n, t):
        return [lab for lab in self.labels if self.bidegree[lab] == (n, t)]

    def unit_vector(self):
        return {self.unit: self.field.one}

    def mul_basis(self, la, lb):
        got = self.products.get((la, lb))
        if got is None:
            raise TruncationError("uncertified product %s * %s" % (la, lb))
        return got

    def mul(self, va, vb):
        out = {}
        for la, ca in va.items():
            if not ca:
                continue
            for lb, cb in vb.items():
                if cb:
                    vec_add_scaled(out, self.mul_basis(la, lb), ca * cb)
        return out


def ext_product_table(ext) -> ProductTable:
    """Tabulate all certified basis products of an ExtAlgebra."""
    products = {}
    for la in ext.labels:
        for lb in ext.labels:
            if not ext.certified_pair(la, lb):
                continue
            products[(la, lb)] = ext.multiply(
                ext.basis_class(*la), ext.basis_class(*lb)).label_vector()
    return ProductTable(
        field=ext.algebra.field,
        labels=list(ext.labels),
        unit=(0, 0, 0),
        products=products,
        window=(ext.N, ext.D),
    )


def algebra_table(A: GradedAlgebra, D: int) -> ProductTable:
    """A connected graded algebra as a (0, d)-bigraded product table."""
    labels = []
    for d in range(D + 1):
        labels.extend((0, d, k) for k in range(len(A.basis[d])))
    products = {}
    for (_, d1, k1) in labels:
        for (_, d2, k2) in labels:
            if d1 + d2 > D:
                continue
            w = A.normal_form({A.basis[d1][k1] + A.basis[d2][k2]: A.field.one})
            vec = {}
            for u, c in w.items():
                vec[(0, d1 + d2, A._index[d1 + d2][u])] = c
            products[((0, d1, k1), (0, d2, k2))] = vec
    return ProductTable(A.field, labels, (0, 0, 0), products, (0, D))


@dataclass
class SmashTwist:
    """A bigraded twist R: Y (x) X -> X (x) Y on basis pairs, with status."""

    left: ProductTable       # X
    right: ProductTable      # Y
    twist: dict              # (ylabel, xlabel) -> {(xlabel, ylabel): scalar}
    status: str = "unchecked"

    def apply(self, ylabel, xlabel):
        got = self.twist.get((ylabel, xlabel))
        if got is None:
            raise TruncationError("twist not defined on (%s, %s)" % (ylabel, xlabel))
        return got


def flip_twist(X: ProductTable, Y: ProductTable) -> SmashTwist:
    """The untwisted flip, giving the ordinary tensor product."""
    one = X.field.one
    twist = {}
    for yl in Y.labels:
        for xl in X.labels:
            twist[(yl, xl)] = {(xl, yl): one}
    return SmashTwist(X, Y, twist)


def smash_multiply(T: SmashTwist, e1: dict, e2: dict) -> dict:
    """Product of two elements of X (x) Y written over basis pairs."""
    X, Y = T.left, T.right
    out = {}
    for (x1, y1), c1 in e1.items():
        if not c1:
            continue
        for (x2, y2), c2 in e2.items():
            if not c2:
                continue
            c12 = c1 * c2
            for (xm, ym), r in T.apply(y1, x2).items():
                xprod = X.mul_basis(x1, xm)
                yprod = Y.mul_basis(ym, y2)
                for xl, cx in xprod.items():
                    for yl, cy in yprod.items():
                        key = (xl, yl)
                        add = c12 * r * cx * cy
                        s = out.get(key)
                        s = add if s is None else s + add
                        if s:
                            out[key] = s
                        else:  # absent too if `add` is an explicit zero
                            out.pop(key, None)
    return out


def window_pairs(X: ProductTable, Y: ProductTable, N: int, D: int) -> list:
    """The basis pairs (xl, yl) of X (x) Y inside the (N, D) window.

    Returns [((xl, yl), (n, t))], each pair with its bidegree, X's labels
    outermost and both in label order.
    """
    out = []
    for xl in X.labels:
        for yl in Y.labels:
            n, t = xl[0] + yl[0], xl[1] + yl[1]
            if n <= N and t <= D:
                out.append(((xl, yl), (n, t)))
    return out


def smash_table(T: SmashTwist, N: int, D: int) -> ProductTable:
    """The twisted product of T on the basis pairs inside the (N, D) window.

    Labels are the pairs in `window_pairs` order; every product of two of
    them that stays inside the window is formed once, by `smash_multiply`.
    """
    X, Y = T.left, T.right
    one = X.field.one
    pairs = window_pairs(X, Y, N, D)
    products = {(p1, p2): smash_multiply(T, {p1: one}, {p2: one})
                for p1, (n1, t1) in pairs for p2, (n2, t2) in pairs
                if n1 + n2 <= N and t1 + t2 <= D}
    return ProductTable(X.field, [p for p, _ in pairs], (X.unit, Y.unit), products, (N, D))


def certify_smash(T: SmashTwist, N: int, D: int):
    """Check bigradedness, normality, unit law and associativity on the window.

    Returns (status, counterexample); status is "smash-certified-to-(N,D)" on
    success, and the counterexample names the offending pair or triple.
    """
    X, Y = T.left, T.right
    for (yl, xl), image in T.twist.items():
        want = (xl[0] + yl[0], xl[1] + yl[1])
        for (xm, ym), c in image.items():
            if c and (xm[0] + ym[0], xm[1] + ym[1]) != want:
                return "failed", ("not bigraded", (yl, xl))
    one = X.field.one
    for xl in X.labels:
        img = T.apply(Y.unit, xl)
        if img != {(xl, Y.unit): one}:
            return "failed", ("unit law (left factor)", (Y.unit, xl))
    for yl in Y.labels:
        img = T.apply(yl, X.unit)
        if img != {(X.unit, yl): one}:
            return "failed", ("unit law (right factor)", (yl, X.unit))
    T.status = "normal"

    S = smash_table(T, N, D)
    for p in S.labels:
        e = {p: one}
        if S.mul_basis(S.unit, p) != e or S.mul_basis(p, S.unit) != e:
            return "failed", ("unit law", p)
    # p2 outermost, then p1, then p3: this order decides which failing
    # triple is reported
    for p2 in S.labels:
        n2, t2 = S.bidegree[p2]
        right = [(p3, S.bidegree[p3], S.mul_basis(p2, p3))
                 for p3 in S.labels if (p2, p3) in S.products]
        for p1 in S.labels:
            if (p1, p2) not in S.products:
                continue
            n1, t1 = S.bidegree[p1]
            e12 = S.mul_basis(p1, p2)
            for p3, (n3, t3), e23 in right:
                if n1 + n2 + n3 > N or t1 + t2 + t3 > D:
                    continue
                if S.mul(e12, {p3: one}) != S.mul({p1: one}, e23):
                    return "failed", ("associativity", (p1, p2, p3))
    T.status = "smash-certified-to-(%d,%d)" % (N, D)
    return T.status, None


def first_nonmultiplicative(S: ProductTable, C: ProductTable, image: dict):
    """The first basis product (a, b) of S, in table order, with
    image(a*b) != image(a) image(b), or None; `image` sends S's labels into C."""
    for (a, b), prod in S.products.items():
        lhs = {}
        for lab, c in prod.items():
            vec_add_scaled(lhs, image[lab], c)
        if lhs != C.mul(image[a], image[b]):
            return a, b
    return None


def transport_check(C: ProductTable, T: SmashTwist, fX: dict, fY: dict,
                    N: int, D: int):
    """Does x (x) y |-> fX(x) fY(y) carry the twisted product to C's product?

    fX, fY send basis labels of T's factors to vectors in C.  The map m is
    tested on all basis pairs p1, p2 whose product lies in the (N, D)
    window: m(p1 * p2) == m(p1) m(p2).  Returns None, or the first failing
    ("transport", p1, p2).
    """
    S = smash_table(T, N, D)
    bad = first_nonmultiplicative(S, C, {p: C.mul(fX[p[0]], fY[p[1]]) for p in S.labels})
    return None if bad is None else ("transport",) + bad


def skew_commutation_twist(A: GradedAlgebra, sigma: GradedMorphism, l: int,
                           D: int, Z: GradedAlgebra) -> SmashTwist:
    """The twist z^i (x) a |-> sigma^i(a) (x) z^i on truncated bases.

    X is the algebra A, Y the polynomial algebra on z; the resulting smash
    product realizes the skew extension A[z; sigma].
    """
    X = algebra_table(A, D)
    Y = algebra_table(Z, D)
    twist = {}
    # sigma^i of every basis word, computed incrementally
    images = {w: {w: A.field.one} for d in range(D + 1) for w in A.basis[d]}
    for (_, ydeg, _yk) in Y.labels:
        i = ydeg // l
        ylabel = (0, ydeg, 0)
        for d in range(D + 1):
            for k, w in enumerate(A.basis[d]):
                vec = {}
                for u, c in images[w].items():
                    vec[((0, d, A._index[d][u]), ylabel)] = c
                twist[(ylabel, (0, d, k))] = vec
        step = {}
        for d in range(D + 1):
            for w in A.basis[d]:
                step[w] = sigma.apply(images[w])
        images = step
    return SmashTwist(X, Y, twist)


def skew_smash_transport_report(A: GradedAlgebra, sigma: GradedMorphism, l: int,
                                B: GradedAlgebra, zname: str, D: int) -> dict:
    """Check that A #_R k[z] with the commutation twist is B itself.

    The combined multiplication a (x) z^i |-> a*z^i into B's product table
    must be bijective degree by degree (`bijective_solvers`), and the
    twisted product must transport to B's product on all basis pairs through
    degree D (`transport_check`).  The counterexample is the first failure:
    the smash laws', ("not bijective", bidegree), or the transport's.
    """
    Z = GradedAlgebra(polynomial_algebra_presentation(A.field, zname, l), D)
    T = skew_commutation_twist(A, sigma, l, D, Z)
    status, bad = certify_smash(T, 0, D)
    C = algebra_table(B, D)
    zi = B.free.index[zname]

    def embed(word, d):
        nf = B.normal_form({word: B.field.one})
        return {(0, d, B._index[d][u]): c for u, c in nf.items()}

    fX = {xl: embed(A.basis[xl[1]][xl[2]], xl[1]) for xl in T.left.labels}
    fY = {yl: embed((zi,) * (yl[1] // l), yl[1]) for yl in T.right.labels}
    try:
        bijective_solvers(C, fX, fY, T.left, T.right, 0, D)
        bijective = True
    except NotAFactorization as e:
        bijective = False
        bad = bad or ("not bijective", e.bidegree)
    transported = bijective and bad is None
    if transported:
        bad = transport_check(C, T, fX, fY, 0, D)
        transported = bad is None
    return {"certified": status.startswith("smash-certified"), "bijective": bijective,
            "transported": transported, "passed": transported, "counterexample": bad}


class NotAFactorization(ValueError):
    def __init__(self, bidegree, reason=""):
        self.bidegree = bidegree
        super().__init__("no factorization at bidegree %s %s" % (bidegree, reason))


def bijective_solvers(C: ProductTable, fX: dict, fY: dict,
                      X: ProductTable, Y: ProductTable, N: int, D: int) -> dict:
    """Per-bidegree solvers of the combined multiplication, which must be bijective.

    fX, fY send basis labels of X resp. Y to vectors in C.  For every
    bidegree within the window, (x, y) |-> fX(x) fY(y) must map the basis
    pairs bijectively onto C's piece; NotAFactorization names the first
    bidegree where it does not.  Returns {bidegree: (Echelon, pairs, index
    of C's basis labels)}.
    """
    pairs_at = {}
    for p, bd in window_pairs(X, Y, N, D):
        pairs_at.setdefault(bd, []).append(p)
    solvers = {}
    for bd, pairs in sorted(pairs_at.items()):
        cb = C.basis_at(*bd)
        if len(cb) != len(pairs):
            raise NotAFactorization(bd, "(%d pairs vs dim %d)" % (len(pairs), len(cb)))
        index = {lab: i for i, lab in enumerate(cb)}
        rows = [{} for _ in cb]
        for j, (xl, yl) in enumerate(pairs):
            vec = C.mul(fX[xl], fY[yl])
            for lab, c in vec.items():
                rows[index[lab]][j] = c
        ech = Echelon(rows, len(pairs), C.field)
        if ech.rank != len(pairs):
            raise NotAFactorization(bd, "(combined multiplication not bijective)")
        solvers[bd] = (ech, pairs, index)
    return solvers


def twist_from_factorization(C: ProductTable, fX: dict, fY: dict,
                             X: ProductTable, Y: ProductTable,
                             N: int, D: int) -> SmashTwist:
    """Recover the unique twist making C = X #_R Y through the given maps.

    The combined multiplication must be bijective (`bijective_solvers`);
    R(y (x) x) is then the preimage of fY(y) fX(x), solved bidegree by
    bidegree, with Y's labels outermost within each bidegree.
    """
    yi = {yl: i for i, yl in enumerate(Y.labels)}
    twist = {}
    for ech, pairs, index in bijective_solvers(C, fX, fY, X, Y, N, D).values():
        for xl, yl in sorted(pairs, key=lambda p: yi[p[1]]):
            vec = C.mul(fY[yl], fX[xl])
            sol = ech.solve({index[lab]: c for lab, c in vec.items()})
            twist[(yl, xl)] = {pairs[j]: c for j, c in sol.items() if c}
    return SmashTwist(X, Y, twist)
