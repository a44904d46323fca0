"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the resolution engine: Tor dimensions come from the
normalized bar complex (only algebra multiplication plus ranks), and graded
dimensions of a quotient come from spanning the ideal inside the free
algebra.  Both are exponential-ish and only meant for desk-scale windows.
"""

from extalg import (
    ExtClass,
    internal_shift,
    lift_chain_map,
    shift_complex,
    smash_multiply,
    twist_complex,
)
from extalg.ext import _dual_block
from extalg.linalg import Echelon, Eliminator
from extalg.smash import window_pairs


def quotient_dimension(presentation, d):
    """dim of the degree-d piece of the quotient, without Groebner bases.

    Spans { u * r * v } over all words u, v and relations r inside the free
    algebra's degree-d piece and subtracts the rank.
    """
    fa = presentation.free_algebra()
    ngens = len(fa.gens)

    def words(deg):
        if deg == 0:
            return [()]
        out = []
        for g in range(ngens):
            gd = fa.gens[g].degree
            if gd <= deg:
                out.extend(w + (g,) for w in words(deg - gd))
        return out

    basis = sorted(words(d), key=fa.word_key)
    index = {w: i for i, w in enumerate(basis)}
    elim = Eliminator(presentation.field)
    for r in presentation.relations:
        rdeg = fa.poly_degree(r)
        if rdeg is None or rdeg > d:
            continue
        for left in range(d - rdeg + 1):
            for u in words(left):
                for v in words(d - rdeg - left):
                    vec = {}
                    for w, c in r.items():
                        vec[index[u + w + v]] = vec.get(index[u + w + v], presentation.field.zero) + c
                    elim.insert({k: c for k, c in vec.items() if c})
    return len(basis) - elim.dim


def bar_tor_dimensions(A, N, D):
    """dim Tor_n(k, k)_d for n <= N, d <= D via the normalized bar complex.

    The n-th term is the degree-d piece of (A_{>= 1})^{(x) n}; the
    differential merges adjacent tensor slots with alternating signs.  For a
    minimal resolution these dimensions equal the generator counts, which is
    what the tests compare against.
    """
    field = A.field

    def chains(n, d):
        if n == 0:
            return [()] if d == 0 else []
        out = []
        for first in range(1, d - n + 2):
            for w in A.basis[first]:
                out.extend(((first, w),) + rest for rest in chains(n - 1, d - first))
        return out

    basis_cache = {}

    def basis(n, d):
        key = (n, d)
        if key not in basis_cache:
            lst = chains(n, d)
            basis_cache[key] = (lst, {c: i for i, c in enumerate(lst)})
        return basis_cache[key]

    def differential_rank(n, d):
        if n < 2:
            return 0  # d_1 is the zero map in the normalized complex
        src, _ = basis(n, d)
        _tgt, tgt_index = basis(n - 1, d)
        rows = [{} for _ in range(len(tgt_index))]
        for j, chain in enumerate(src):
            sign = 1
            for i in range(n - 1):
                (d1, w1), (d2, w2) = chain[i], chain[i + 1]
                prod = A.normal_form({w1 + w2: field.one})
                for w, c in prod.items():
                    merged = chain[:i] + ((d1 + d2, w),) + chain[i + 2:]
                    row = tgt_index[merged]
                    val = rows[row].get(j, field.zero) + (c if sign > 0 else -c)
                    if val:
                        rows[row][j] = val
                    else:
                        rows[row].pop(j, None)
                sign = -sign
        return Echelon(rows, len(src), field, solvable=False).rank

    out = {}
    for n in range(N + 1):
        for d in range(D + 1):
            dim = len(basis(n, d)[0])
            if dim == 0:
                continue
            h = dim - differential_rank(n, d) - differential_rank(n + 1, d)
            if h:
                out[(n, d)] = h
    return out


# ---------------------------------------------------------------------------
# dense reference implementations of the maps and products on Ext
# ---------------------------------------------------------------------------
#
# Blocks here are dense matrices, rows over the codomain basis and columns
# over the domain basis, as `ExtMap.dense` returns them.

def dense_blocks(emap):
    return {bd: emap.dense(*bd) for bd in emap.blocks}


def compose_dense(outer, inner, zero):
    """outer o inner on dicts of dense blocks."""
    blocks = {}
    for bd, inner_block in inner.items():
        outer_block = outer.get(bd)
        if outer_block is None:
            continue
        rows = len(outer_block)
        mid = len(inner_block)
        cols = len(inner_block[0]) if inner_block else 0
        M = [[zero] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                acc = zero
                for r in range(mid):
                    acc = acc + outer_block[i][r] * inner_block[r][j]
                M[i][j] = acc
        blocks[bd] = M
    return blocks


def apply_dense(blocks, cls, cod_dim, zero):
    """A map on Ext given by dense blocks, applied to a class (as ExtMap.apply)."""
    block = blocks.get((cls.n, cls.t))
    out = [zero] * cod_dim
    if block is not None:
        for i in range(cod_dim):
            acc = zero
            for j, c in enumerate(cls.vector):
                if c:
                    acc = acc + block[i][j] * c
            out[i] = acc
    return ExtClass(cls.n, cls.t, tuple(out))


def apply_automorphism_dense(blocks, cls, zero):
    """As ExtAutomorphism.apply: a bidegree without a block is fixed."""
    block = blocks.get((cls.n, cls.t))
    if block is None:
        return cls
    out = [zero] * len(cls.vector)
    for i in range(len(out)):
        acc = zero
        for j, c in enumerate(cls.vector):
            if c:
                acc = acc + block[i][j] * c
        out[i] = acc
    return ExtClass(cls.n, cls.t, tuple(out))


def twisted_complex_automorphism(E, sigma, free_value=0):
    """The blocks of the automorphism of Ext induced by sigma, through the twisted complex.

    The resolution's twist through sigma is built as its own complex (every
    differential entry passed through sigma) and a chain map from it to the
    resolution is lifted from the identity on the generator in position 0.
    Returns {(n, t): sparse columns}, as `ExtMap.blocks`.
    """
    P = E.resolution
    src = twist_complex(P, sigma.inverse)
    base = [{(0, ()): E.algebra.field.one}]
    comps = lift_chain_map(src, P, 0, base, down_to=-E.N, free_value=free_value)
    return {(n, t): _dual_block(comps.get(-n), idx, idx) for (n, t), idx in E.bidegrees.items()}


def shifted_lifts(E, free_value=0):
    """Lifts of every dual-basis cocycle against P[n](t) built as a complex.

    The target of the lift at bidegree (n, t) is
    `internal_shift(shift_complex(P, n), -t)`, every differential scaled by
    (-1)^n, solved with its own eliminations.  Returns {label: components}.
    """
    P = E.resolution
    one = E.algebra.field.one
    lifts = {}
    for (n, t), idx in E.bidegrees.items():
        dst = internal_shift(shift_complex(P, n), -t)
        for k, gi in enumerate(idx):
            base = [{(0, ()): one} if vi == gi else {} for vi in range(len(P.gens[-n]))]
            lifts[(n, t, k)] = lift_chain_map(P, dst, -n, base, down_to=-E.N,
                                              free_value=free_value)
    return lifts


def yoneda_product_dense(E, lifts, g, f):
    """g*f by the dense loop over every coordinate, reading `shifted_lifts`."""
    n, t = g.n + f.n, g.t + f.t
    result_idx = E.bidegrees.get((n, t), [])
    zero = E.algebra.field.zero
    out = [zero] * len(result_idx)
    g_idx = E.bidegrees.get((g.n, g.t), [])
    for k, c in enumerate(f.vector):
        if not c:
            continue
        comp = lifts[(f.n, f.t, k)][-n]
        for pos, vi in enumerate(result_idx):
            elem = comp[vi]
            acc = zero
            for r_pos, r in enumerate(g_idx):
                gc = g.vector[r_pos]
                if not gc:
                    continue
                const = elem.get((r, ()))
                if const:
                    acc = acc + gc * const
            if acc:
                out[pos] = out[pos] + c * acc
    return ExtClass(n, t, tuple(out))


def rref_dense(matrix, field):
    """Textbook Gauss-Jordan on a dense matrix (a list of equal-length lists).

    Returns (the nonzero rows of the reduced row echelon form, pivot
    columns).  It shares no code with `linalg`: columns are scanned left to
    right, rows are swapped and every other row is cleared at each pivot.
    """
    work = [list(r) for r in matrix]
    ncols = len(work[0]) if work else 0
    pivots = []
    top = 0
    for col in range(ncols):
        hit = next((i for i in range(top, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        inv = field.one / work[top][col]
        work[top] = [inv * c for c in work[top]]
        for i in range(len(work)):
            if i != top and work[i][col]:
                f = work[i][col]
                work[i] = [c - f * d for c, d in zip(work[i], work[top])]
        pivots.append(col)
        top += 1
    return work[:top], pivots


# ---------------------------------------------------------------------------
# smash-product laws by direct multiplication
# ---------------------------------------------------------------------------

def certify_smash_direct(T, N, D):
    """As `certify_smash`, multiplying combinations directly with `smash_multiply`.

    Every product (p1 * p2) * p3 and p1 * (p2 * p3) is formed afresh from the
    twist, with no product table; the checks run in the same order (twist
    bigradedness, the twist's unit rows, the unit law on every window pair,
    then associativity with p2 outermost, then p1, then p3), so the first
    counterexample is the same.  T.status is left alone.
    """
    X, Y = T.left, T.right
    one = X.field.one
    for (yl, xl), image in T.twist.items():
        want = (xl[0] + yl[0], xl[1] + yl[1])
        for (xm, ym), c in image.items():
            if c and (xm[0] + ym[0], xm[1] + ym[1]) != want:
                return "failed", ("not bigraded", (yl, xl))
    for xl in X.labels:
        if T.apply(Y.unit, xl) != {(xl, Y.unit): one}:
            return "failed", ("unit law (left factor)", (Y.unit, xl))
    for yl in Y.labels:
        if T.apply(yl, X.unit) != {(X.unit, yl): one}:
            return "failed", ("unit law (right factor)", (yl, X.unit))
    pairs = window_pairs(X, Y, N, D)
    unit = {(X.unit, Y.unit): one}
    for p, _ in pairs:
        e = {p: one}
        if smash_multiply(T, unit, e) != e or smash_multiply(T, e, unit) != e:
            return "failed", ("unit law", p)
    for p2, (n2, t2) in pairs:
        for p1, (n1, t1) in pairs:
            for p3, (n3, t3) in pairs:
                if n1 + n2 + n3 > N or t1 + t2 + t3 > D:
                    continue
                left = smash_multiply(T, smash_multiply(T, {p1: one}, {p2: one}), {p3: one})
                right = smash_multiply(T, {p1: one}, smash_multiply(T, {p2: one}, {p3: one}))
                if left != right:
                    return "failed", ("associativity", (p1, p2, p3))
    return "smash-certified-to-(%d,%d)" % (N, D), None
