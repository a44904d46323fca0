"""Exact linear algebra over Q and prime fields GF(p).

Scalars are `fractions.Fraction` (over Q) or `Mod` (over GF(p)); there is no
floating point anywhere.  Matrices are lists of sparse rows, each row a dict
{column index: nonzero scalar}.  All pivoting is deterministic (leftmost
nonzero column, first eligible row), so every basis produced downstream is
reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction


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

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Mod(self.val + other.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
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
        return Mod(-self.val, self.p)

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


class Echelon:
    """Reduced row echelon data for one matrix, reusable for many solves.

    Rows are eliminated together with an augmented identity block, so that
    particular solutions and consistency checks against arbitrary right-hand
    sides cost one sparse substitution each.
    """

    def __init__(self, rows, ncols, field):
        self.ncols = ncols
        self.field = field
        work = []
        for i, r in enumerate(rows):
            row = {j: v for j, v in r.items() if v}
            row[ncols + i] = field.one  # transform tracker
            work.append(row)
        nrows = len(rows)
        reduced = []
        for col in range(ncols):
            hit = None
            for i, row in enumerate(work):
                if row.get(col):
                    hit = i
                    break
            if hit is None:
                continue
            row = work.pop(hit)
            inv = field.one / row[col]
            row = {j: inv * v for j, v in row.items()}
            for other in work:
                c = other.get(col)
                if c:
                    vec_add_scaled(other, row, -c)
            for pcol, prow in reduced:
                c = prow.get(col)
                if c:
                    vec_add_scaled(prow, row, -c)
            reduced.append((col, row))
        # remaining rows have zero matrix part; keep their transforms for
        # consistency checks
        self.zero_rows = [
            {j - ncols: v for j, v in row.items() if j >= ncols and v}
            for row in work
        ]
        reduced.sort(key=lambda t: t[0])
        self.rows = reduced
        self.rank = len(reduced)
        self.pivot_cols = [c for c, _ in reduced]
        piv = set(self.pivot_cols)
        self.free_cols = [c for c in range(ncols) if c not in piv]
        self._nrows = nrows

    def rhs_value(self, row, b):
        """Apply the stored transform of `row` to sparse rhs `b`."""
        acc = self.field.zero
        ncols = self.ncols
        for j, c in row.items():
            if j >= ncols:
                x = b.get(j - ncols)
                if x:
                    acc = acc + c * x
        return acc

    def solve(self, b, free_value=0):
        """One solution x (sparse dict) of M x = b, or None if inconsistent.

        free_value=0 gives the canonical particular solution; any other value
        assigns that constant to every free variable, producing a second,
        independent particular solution for well-definedness tests.
        """
        for trow in self.zero_rows:
            acc = self.field.zero
            for i, c in trow.items():
                x = b.get(i)
                if x:
                    acc = acc + c * x
            if acc:
                return None
        fv = self.field.of(free_value)
        x = {}
        if fv:
            for c in self.free_cols:
                x[c] = fv
        for col, row in self.rows:
            val = self.rhs_value(row, b)
            if fv:
                for j, c in row.items():
                    if j < self.ncols and j != col and c:
                        val = val - c * fv
            if val:
                x[col] = val
        return x

    def kernel_basis(self):
        """Vectors spanning the nullspace, one per free column, deterministic."""
        out = []
        for fc in self.free_cols:
            v = {fc: self.field.one}
            for col, row in self.rows:
                c = row.get(fc)
                if c:
                    v[col] = -c
            out.append(v)
        return out


def rref(rows, ncols, field):
    """Reduced row echelon form. Returns (rows in echelon order, pivot cols)."""
    ech = Echelon(rows, ncols, field)
    out = []
    for col, row in ech.rows:
        out.append({j: v for j, v in row.items() if j < ncols})
    return out, ech.pivot_cols


def rank(rows, ncols, field):
    return Echelon(rows, ncols, field).rank


def kernel_basis(rows, ncols, field):
    return Echelon(rows, ncols, field).kernel_basis()


def solve(rows, ncols, b, field, free_value=0):
    return Echelon(rows, ncols, field).solve(b, free_value=free_value)


class Eliminator:
    """Incremental forward elimination used for span bookkeeping."""

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
        inv = self.field.one / r[p]
        self.rows[p] = {j: inv * c for j, c in r.items()}
        return True

    def contains(self, v):
        r, p = self.reduce(v)
        return p is None

    @property
    def dim(self):
        return len(self.rows)


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
