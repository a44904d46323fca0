"""Quotient-algebra arithmetic via truncated noncommutative Groebner bases.

`buchberger_truncated` runs overlap completion through a fixed internal
degree D; the resulting `GradedAlgebra` carries per-degree normal-word bases,
the Hilbert function, and normal-form reduction.  Graded morphisms between
such algebras are certified relation-by-relation, automorphisms additionally
degree-by-degree with a solved inverse, and `skew_extension` produces the
presentation of A[z; sigma].
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .freealg import FreeAlgebra, Generator, Presentation
from .linalg import Echelon


class TruncationError(RuntimeError):
    """A computation was requested beyond the certified degree window."""


class MorphismError(ValueError):
    pass


class NotInvertibleError(MorphismError):
    pass


def find_subword(w, sub):
    """Leftmost start index of `sub` inside `w`, or -1."""
    n, m = len(w), len(sub)
    if m == 0 or m > n:
        return -1
    for i in range(n - m + 1):
        if w[i:i + m] == sub:
            return i
    return -1


def reduce_poly(fa, f, basis):
    """Fully reduce f modulo monic polynomials `basis` (list of (lw, poly))."""
    work = dict(f)
    out = {}
    while work:
        w = max(work, key=fa.word_key)
        c = work.pop(w)
        hit = None
        for lw, g in basis:
            i = find_subword(w, lw)
            if i >= 0:
                hit = (w[:i], g, w[i + len(lw):])
                break
        if hit is None:
            fa.add_term(out, w, c)
            continue
        left, g, right = hit
        # w = left*lw(g)*right; rewrite via  w -> left*(lw - g)*right
        lw = max(g, key=fa.word_key)
        for u, a in g.items():
            if u == lw:
                continue
            fa.add_term(work, left + u + right, -c * a)
    return out


@dataclass
class GroebnerBasis:
    elements: list  # monic, inter-reduced, homogeneous
    leading_words: list
    complete_through: int


def _overlaps(fa, g1, g2, same):
    """S-polynomials from all ambiguities of the pair (g1, g2).

    Yields (degree of the ambiguity word, spoly).  Covers suffix/prefix
    overlaps of lw(g1) with lw(g2) and inclusions of lw(g2) inside lw(g1).
    """
    w1 = max(g1, key=fa.word_key)
    w2 = max(g2, key=fa.word_key)
    n1, n2 = len(w1), len(w2)
    for k in range(1, min(n1, n2)):
        if w1[n1 - k:] == w2[:k]:
            # ambiguity word w1 + w2[k:]
            left = fa.mul_word((), g1, w2[k:])
            right = fa.mul_word(w1[:n1 - k], g2)
            yield fa.word_degree(w1 + w2[k:]), fa.sub(left, right)
    if not same and n2 < n1:
        start = 0
        while True:
            i = find_subword(w1[start:], w2)
            if i < 0:
                break
            i += start
            spoly = fa.sub(g1, fa.mul_word(w1[:i], g2, w1[i + n2:]))
            yield fa.word_degree(w1), spoly
            start = i + 1


def _interreduce(fa, elements):
    basis = [fa.monic(g) for g in elements if g]
    changed = True
    while changed:
        changed = False
        basis.sort(key=lambda g: fa.word_key(max(g, key=fa.word_key)))
        for i in range(len(basis)):
            others = [(max(g, key=fa.word_key), g) for j, g in enumerate(basis) if j != i and g]
            h = reduce_poly(fa, basis[i], others)
            if h != basis[i]:
                basis[i] = fa.monic(h)
                changed = True
        basis = [g for g in basis if g]
    basis.sort(key=lambda g: fa.word_key(max(g, key=fa.word_key)))
    return basis


def buchberger_truncated(fa, relations, D) -> GroebnerBasis:
    """Overlap completion of homogeneous relations through internal degree D.

    All S-polynomials whose ambiguity word has degree <= D are reduced; the
    returned basis is monic and inter-reduced, certified complete through D.
    """
    for r in relations:
        if not fa.is_homogeneous(r):
            raise ValueError("relations must be homogeneous")
        if r and fa.poly_degree(r) > D:
            raise TruncationError("truncation %d below relation degree %d" % (D, fa.poly_degree(r)))
    queue = []
    seq = 0
    for r in relations:
        if r:
            heapq.heappush(queue, (fa.poly_degree(r), seq, r))
            seq += 1
    basis = []  # list of (leading word, poly)
    while queue:
        deg, _, f = heapq.heappop(queue)
        if deg > D:
            continue
        h = reduce_poly(fa, f, basis)
        if not h:
            continue
        h = fa.monic(h)
        lw = max(h, key=fa.word_key)
        pairs = [(h, h)]
        for _, g in basis:
            pairs.append((h, g))
            pairs.append((g, h))
        for ga, gb in pairs:
            for odeg, spoly in _overlaps(fa, ga, gb, ga is gb):
                if odeg <= D and spoly:
                    heapq.heappush(queue, (odeg, seq, spoly))
                    seq += 1
        basis.append((lw, h))
    reduced = _interreduce(fa, [g for _, g in basis])
    return GroebnerBasis(
        elements=reduced,
        leading_words=[max(g, key=fa.word_key) for g in reduced],
        complete_through=D,
    )


class GradedAlgebra:
    """A connected graded algebra certified through internal degree D.

    Carries the truncated Groebner basis, normal-word bases per degree, the
    Hilbert function, and exact normal-form arithmetic.  Immutable after
    construction; all caches are filled eagerly.
    """

    def __init__(self, presentation: Presentation, D: int, precedence=None):
        self.presentation = presentation
        self.field = presentation.field
        self.free = presentation.free_algebra(precedence)
        self.maxdeg = D
        self.groebner = buchberger_truncated(self.free, list(presentation.relations), D)
        self._reduction = list(zip(self.groebner.leading_words, self.groebner.elements))
        self.basis = self._normal_words(D)
        self._index = {
            d: {w: i for i, w in enumerate(words)} for d, words in self.basis.items()
        }

    def _normal_words(self, D):
        fa = self.free
        leads = self.groebner.leading_words
        by_degree = {0: [()]}
        for d in range(1, D + 1):
            words = []
            for gi, g in enumerate(fa.gens):
                prev = by_degree.get(d - g.degree)
                if not prev:
                    continue
                for u in prev:
                    w = u + (gi,)
                    ok = True
                    for lw in leads:
                        k = len(lw)
                        if k <= len(w) and w[len(w) - k:] == lw:
                            ok = False
                            break
                    if ok:
                        words.append(w)
            words.sort(key=fa.word_key)
            by_degree[d] = words
        return by_degree

    def hilbert(self, d):
        if d < 0:
            return 0
        if d > self.maxdeg:
            raise TruncationError("Hilbert function only certified through degree %d" % self.maxdeg)
        return len(self.basis[d])

    def normal_form(self, f, strict=True):
        if strict and f:
            d = max(self.free.word_degree(w) for w in f)
            if d > self.groebner.complete_through:
                raise TruncationError(
                    "degree %d exceeds certified truncation %d" % (d, self.groebner.complete_through)
                )
        return reduce_poly(self.free, f, self._reduction)

    def mul(self, f, g, strict=True):
        return self.normal_form(self.free.mul(f, g), strict=strict)

    def coords(self, f, d):
        """Coordinates of a normal-form homogeneous element over basis(d)."""
        idx = self._index[d]
        out = {}
        for w, c in f.items():
            out[idx[w]] = c
        return out

    def from_coords(self, vec, d):
        words = self.basis[d]
        return {words[i]: c for i, c in vec.items() if c}

    def unit(self):
        return self.free.one()

    def augmentation(self, f):
        """The image of f under the canonical map onto degree zero."""
        return f.get((), self.field.zero)


class GradedMorphism:
    """A graded algebra map given by generator images (normal forms in target)."""

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, images: dict,
                 automorphism=False):
        self.source = source
        self.target = target
        self.images = {i: target.normal_form(f, strict=False) for i, f in images.items()}
        self.automorphism = automorphism
        self.certified_through = -1
        self.inverse = None
        self._word_cache = {(): target.unit()}

    def apply_word(self, w):
        cached = self._word_cache.get(w)
        if cached is not None:
            return cached
        head = self._word_cache.get(w[:-1])
        if head is None:
            head = self.apply_word(w[:-1])
        out = self.target.mul(head, self.images[w[-1]])
        self._word_cache[w] = out
        return out

    def apply(self, f):
        fa = self.target.free
        out = {}
        for w, c in f.items():
            out = fa.add(out, fa.scale(self.apply_word(w), c))
        return self.target.normal_form(out)

    def __repr__(self):
        names = self.source.free.gens
        fa = self.target.free
        body = ", ".join("%s -> %s" % (g.name, fa.format_poly(self.images[i]))
                         for i, g in enumerate(names))
        return "GradedMorphism(%s)" % body


def identity_morphism(A: GradedAlgebra) -> GradedMorphism:
    images = {i: A.free.gen_poly(i) for i in range(len(A.free.gens))}
    m = GradedMorphism(A, A, images, automorphism=True)
    return certify_morphism(m, A.maxdeg)


def certify_morphism(m: GradedMorphism, D: int) -> GradedMorphism:
    """Check a graded morphism through degree D.

    Every relation of the source must map to zero in the target; when the
    morphism is flagged as an automorphism the induced map on each graded
    piece A_d (d <= D) must be invertible, and generator images of the
    inverse are solved for and stored.
    """
    src, tgt = m.source, m.target
    for i, g in enumerate(src.free.gens):
        img = m.images.get(i)
        if img is None:
            raise MorphismError("no image for generator %s" % g.name)
        if img and (not tgt.free.is_homogeneous(img) or tgt.free.poly_degree(img) != g.degree):
            raise MorphismError("image of %s is not homogeneous of degree %d" % (g.name, g.degree))
    for k, rel in enumerate(src.presentation.relations):
        if m.apply(rel):
            raise MorphismError(
                "relation not preserved: %s" % src.free.format_poly(rel)
            )
    if m.automorphism:
        if src is not tgt and src.presentation != tgt.presentation:
            raise MorphismError("automorphism flag requires source == target")
        solvers = {}
        for d in range(1, D + 1):
            words = src.basis[d]
            rows = [{} for _ in words]
            for j, w in enumerate(words):
                img = m.apply_word(w)
                for i, c in src.coords(img, d).items():
                    rows[i][j] = c
            ech = Echelon(rows, len(words), src.field)
            if ech.rank != len(words):
                raise NotInvertibleError("not invertible on degree-%d component" % d)
            solvers[d] = ech
        inv_images = {}
        for i, g in enumerate(src.free.gens):
            d = g.degree
            if d > D:
                raise TruncationError("generator degree %d beyond window %d" % (d, D))
            target_vec = src.coords(src.normal_form(src.free.gen_poly(i)), d)
            sol = solvers[d].solve(target_vec)
            if sol is None:
                raise NotInvertibleError("generator %s has no preimage" % g.name)
            inv_images[i] = src.from_coords(sol, d)
        inv = GradedMorphism(src, tgt, inv_images, automorphism=True)
        inv.certified_through = D
        inv.inverse = m
        m.inverse = inv
    m.certified_through = D
    return m


def morphism_from_images(source, target, images, automorphism=False, D=None):
    m = GradedMorphism(source, target, images, automorphism=automorphism)
    return certify_morphism(m, D if D is not None else min(source.maxdeg, target.maxdeg))


def skew_extension(A: GradedAlgebra, sigma: GradedMorphism, l: int, zname="z") -> Presentation:
    """Presentation of the skew extension: adjoin z of degree l with z*a = sigma(a)*z."""
    if l < 1:
        raise ValueError("the new variable must have positive degree")
    if not sigma.automorphism or sigma.certified_through < A.maxdeg:
        raise MorphismError("sigma must be a certified automorphism of A")
    if zname in A.free.index:
        raise ValueError("generator name %r already in use" % zname)
    gens = A.presentation.generators + (Generator(zname, l),)
    fb = FreeAlgebra(A.field, gens)
    zi = len(gens) - 1
    rels = [dict(r) for r in A.presentation.relations]
    for i, g in enumerate(A.presentation.generators):
        lhs = {(zi, i): A.field.one}
        rhs = {w + (zi,): c for w, c in sigma.images[i].items()}
        rels.append(fb.monic(fb.sub(lhs, rhs)))
    return Presentation(A.field, gens, tuple(rels))


def polynomial_algebra_presentation(field, zname="z", degree=1) -> Presentation:
    """The polynomial algebra on one generator (no relations needed)."""
    return Presentation(field, (Generator(zname, degree),), ())
