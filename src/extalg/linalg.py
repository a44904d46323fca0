"""Exact linear algebra over Q and prime fields GF(p).

Scalars are `fractions.Fraction` (over Q) or `Mod` (over GF(p)); there is no
floating point anywhere.  Matrices are lists of sparse rows, each row a dict
{column index: nonzero scalar}.  There is one forward-elimination loop,
`Eliminator.reduce`, which clears a vector's least column against a
{pivot col: row} dict; `Echelon` runs on it and then back-substitutes.  An
`Echelon` carries each row's transform only for a caller that will solve
against it, and stores it by right-hand-side column; a rank or kernel
elimination does without.  A matrix's reduced row echelon form is unique, so
its pivots, reduced rows, kernel basis and canonical solutions do not depend
on the elimination order, and every basis produced downstream is
reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction


_new_mod = object.__new__


class Mod:
    """Element of the prime field GF(p)."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError("mixed characteristics %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        if isinstance(other, Fraction):
            return Mod(other.numerator, self.p) / Mod(other.denominator, self.p)
        return NotImplemented

    # `+`, `-`, `*` and unary `-` on two elements of one field are the hot
    # path of every elimination over GF(p): they build the result directly,
    # without `_lift` and `__init__`.  Any other operand goes through `_lift`.

    def __add__(self, other):
        if type(other) is Mod and other.p == self.p:
            r = _new_mod(Mod)
            r.val = (self.val + other.val) % self.p
            r.p = self.p
            return r
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Mod and other.p == self.p:
            r = _new_mod(Mod)
            r.val = (self.val - other.val) % self.p
            r.p = self.p
            return r
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.val - other.val, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(other.val - self.val, self.p)

    def __mul__(self, other):
        if type(other) is Mod and other.p == self.p:
            r = _new_mod(Mod)
            r.val = self.val * other.val % self.p
            r.p = self.p
            return r
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.val * other.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.val == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return Mod(self.val * pow(other.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        r = _new_mod(Mod)
        r.val = -self.val % self.p
        r.p = self.p
        return r

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


# Miller-Rabin with these witnesses is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(p):
    """Deterministic primality test, exact for p below _MR_EXACT_BELOW."""
    if p < 2:
        return False
    for a in _MR_WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals, elements are `Fraction`."""

    name = "Q"
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for a prime p, elements are `Mod`."""

    def __init__(self, p):
        if p >= _MR_EXACT_BELOW:
            raise ValueError("characteristic %d is too large (must be below %d)"
                             % (p, _MR_EXACT_BELOW))
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.char = p
        self.name = "F%d" % p
        self.zero = Mod(0, p)
        self.one = Mod(1, p)

    def of(self, x):
        if isinstance(x, Mod):
            if x.p != self.char:
                raise ValueError("wrong characteristic")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ValueError("coefficient %s is not defined in %s" % (x, self.name))
            return Mod(x.numerator, self.char) / Mod(x.denominator, self.char)
        return Mod(x, self.char)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("F", self.char))

    def __repr__(self):
        return self.name


def field_by_name(name):
    """Parse a field tag: "Q" or "F<p>"."""
    name = name.strip()
    if name == "Q":
        return RationalField()
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError("unknown field %r (expected Q or F<p>)" % name)


# ---------------------------------------------------------------------------
# sparse row utilities
# ---------------------------------------------------------------------------

def vec_add_scaled(dst, src, c):
    """dst += c*src in place (sparse dicts)."""
    for j, v in src.items():
        w = dst.get(j)
        if w is None:
            dst[j] = c * v
        else:
            w = w + c * v
            if w:
                dst[j] = w
            else:
                del dst[j]


def _combine(columns, b):
    """Sum of b[k] * columns[k] over b's nonzeros, as a sparse dict.

    `columns` maps an index k to a sparse column {i: c}.
    """
    acc = {}
    for k, v in b.items():
        col = columns.get(k)
        if col is not None and v:
            vec_add_scaled(acc, col, v)
    return acc


class Eliminator:
    """Incremental forward elimination over a {pivot col: row} dict.

    Each stored row is normalized at its pivot, its least column.  `reduce`
    is the one pivot-finding loop of the module; `Echelon` runs on it too.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot col -> normalized row

    def reduce(self, v):
        v = {j: c for j, c in v.items() if c}
        while v:
            p = min(v)
            row = self.rows.get(p)
            if row is None:
                return v, p
            vec_add_scaled(v, row, -v[p])
        return v, None

    def insert(self, v):
        """Add v to the span; returns True if it enlarged the span."""
        r, p = self.reduce(v)
        if p is None:
            return False
        self._store(r, p)
        return True

    def _store(self, r, p):
        inv = self.field.one / r[p]
        self.rows[p] = {j: inv * c for j, c in r.items()}

    def contains(self, v):
        r, p = self.reduce(v)
        return p is None

    @property
    def dim(self):
        return len(self.rows)


class Echelon:
    """Reduced row echelon data for one matrix: rank, kernel and, if asked, solves.

    Rows run through `Eliminator.reduce` and are then back-substituted,
    rightmost pivot first, to the reduced form, kept in `rows` as
    (pivot col, row) in pivot order.  Only a caller that will `solve` needs
    the transforms, so only `solvable=True` keeps them: input row i is then
    augmented with a 1 at column ncols + i, and as matrix columns come first
    in the column order, a row whose least column is >= ncols has reduced to
    zero.  Each reduced row's transform, and the transform of each row that
    reduced to zero (a consistency check), is stored by right-hand-side
    index, so that a solve touches only the right-hand side's nonzeros.  A
    rank-only elimination (`solvable=False`) has the same `rows`,
    `pivot_cols`, `rank` and kernel basis, and its `solve` raises.
    """

    def __init__(self, rows, ncols, field, solvable=True):
        self.ncols = ncols
        self.field = field
        self.solvable = solvable
        elim = Eliminator(field)
        checks = []  # transforms of rows that reduced to zero
        for i, r in enumerate(rows):
            v, p = elim.reduce({**r, ncols + i: field.one} if solvable else r)
            if p is None:
                continue
            if p < ncols:
                elim._store(v, p)
            else:
                checks.append(v)
        self.pivot_cols = sorted(elim.rows)
        # back substitution, rightmost pivot first: the rows subtracted are
        # then reduced already, with no entry at another pivot column, so
        # each row clears the pivot columns it holds at the start
        for col in reversed(self.pivot_cols):
            row = elim.rows[col]
            for j in [j for j in row if j != col and j in elim.rows]:
                vec_add_scaled(row, elim.rows[j], -row[j])
        self.rank = len(self.pivot_cols)
        self.free_cols = [c for c in range(ncols) if c not in elim.rows]
        if not solvable:
            self.rows = [(col, elim.rows[col]) for col in self.pivot_cols]
            return
        self.rows = []
        # right-hand-side index -> {pivot col: coefficient} and -> {check: coefficient}
        self._by_rhs = {}
        self._checks_by_rhs = {}
        for col in self.pivot_cols:
            row = elim.rows[col]
            self.rows.append((col, {j: c for j, c in row.items() if j < ncols}))
            for j, c in row.items():
                if j >= ncols:
                    self._by_rhs.setdefault(j - ncols, {})[col] = c
        for z, trow in enumerate(checks):
            for j, c in trow.items():
                self._checks_by_rhs.setdefault(j - ncols, {})[z] = c

    def solve(self, b, free_value=0):
        """One solution x (sparse dict) of M x = b, or None if inconsistent.

        free_value=0 gives the canonical particular solution; any other value
        assigns that constant to every free variable, producing a second,
        independent particular solution for well-definedness tests.  Raises
        ValueError on a rank-only elimination.
        """
        if not self.solvable:
            raise ValueError("Echelon built with solvable=False keeps no transforms")
        if _combine(self._checks_by_rhs, b):
            return None
        acc = _combine(self._by_rhs, b)
        fv = self.field.of(free_value)
        if not fv:
            return {col: acc[col] for col in sorted(acc)}
        x = {c: fv for c in self.free_cols}
        for col, row in self.rows:
            val = acc.get(col, 0)
            for j, c in row.items():
                if j != col:
                    val = val - c * fv
            if val:
                x[col] = val
        return x

    def kernel_basis(self):
        """Vectors spanning the nullspace, one per free column, deterministic."""
        out = {fc: {fc: self.field.one} for fc in self.free_cols}
        for col, row in self.rows:
            for j, c in row.items():
                if j != col:  # a free column: the pivot columns are cleared
                    out[j][col] = -c
        return list(out.values())


def extend_to_basis(inside, ambient, field):
    """Vectors from `ambient` completing `inside` to a basis of span(ambient).

    Dependent vectors in `inside` are silently discarded first; selection from
    `ambient` is greedy in the given order, hence deterministic.
    """
    elim = Eliminator(field)
    for v in inside:
        elim.insert(v)
    out = []
    for v in ambient:
        if elim.insert(v):
            out.append(v)
    return out
