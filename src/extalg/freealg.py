"""Free noncommutative algebra on weighted generators.

Words are tuples of generator indices; polynomials are sparse dicts mapping
words to nonzero scalars.  The monomial order is degree-lexicographic with a
configurable generator precedence (default: declaration order, earlier name =
larger letter); it refines total degree and is multiplicative, which is all
the truncated Groebner machinery needs.

Also home to the text formats: presentation files and automorphism files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import field_by_name


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = " at line %d" % line
            if col is not None:
                where += ", column %d" % col
        super().__init__(msg + where)


class FreeAlgebra:
    """Words, order and polynomial arithmetic over a fixed generator list."""

    def __init__(self, field, generators, precedence=None):
        self.field = field
        self.gens = tuple(generators)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for g in self.gens:
            if g.degree < 1:
                raise ValueError("generator %s has nonpositive degree %d" % (g.name, g.degree))
        if precedence is None:
            precedence = list(range(len(self.gens)))
        if sorted(precedence) != list(range(len(self.gens))):
            raise ValueError("precedence must be a permutation of generator indices")
        self.precedence = tuple(precedence)
        # precedence[0] is the largest letter; key grows with order
        rank = [0] * len(self.gens)
        for pos, gi in enumerate(precedence):
            rank[gi] = -pos
        self._letter_key = tuple(rank)
        self.index = {g.name: i for i, g in enumerate(self.gens)}

    # -- words --------------------------------------------------------------

    def word_degree(self, w):
        return sum(self.gens[i].degree for i in w)

    def word_key(self, w):
        """Sort key realizing the monomial order (larger word = larger key)."""
        return (self.word_degree(w), len(w), tuple(self._letter_key[i] for i in w))

    def compare(self, u, v):
        ku, kv = self.word_key(u), self.word_key(v)
        return (ku > kv) - (ku < kv)

    # -- polynomials ---------------------------------------------------------

    def one(self):
        return {(): self.field.one}

    def gen_poly(self, i):
        return {(i,): self.field.one}

    def scalar(self, c):
        c = self.field.of(c)
        return {(): c} if c else {}

    def add(self, f, g):
        out = dict(f)
        for w, c in g.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return out

    def sub(self, f, g):
        return self.add(f, self.scale(g, -1))

    def scale(self, f, c):
        c = self.field.of(c)
        if not c:
            return {}
        return {w: c * x for w, x in f.items()}

    def add_term(self, f, w, c):
        s = f.get(w)
        s = c if s is None else s + c
        if s:
            f[w] = s
        else:
            f.pop(w, None)

    def mul(self, f, g):
        out = {}
        for u, a in f.items():
            for v, b in g.items():
                self.add_term(out, u + v, a * b)
        return out

    def mul_word(self, u, f, v=()):
        """u * f * v for words u, v."""
        return {u + w + v: c for w, c in f.items()}

    def poly_degree(self, f):
        """Degree of a homogeneous polynomial (None for 0)."""
        if not f:
            return None
        degs = {self.word_degree(w) for w in f}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def is_homogeneous(self, f):
        return len({self.word_degree(w) for w in f}) <= 1

    def leading_word(self, f):
        return max(f, key=self.word_key)

    def monic(self, f):
        if not f:
            return f
        lead = f[self.leading_word(f)]
        if lead == self.field.one:
            return f
        inv = self.field.one / lead
        return {w: inv * c for w, c in f.items()}

    # -- printing ------------------------------------------------------------

    def format_word(self, w):
        if not w:
            return "1"
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = self.gens[w[i]].name
            parts.append(name if j - i == 1 else "%s^%d" % (name, j - i))
            i = j
        return "*".join(parts)

    def format_scalar(self, c):
        return str(c)

    def format_poly(self, f):
        if not f:
            return "0"
        words = sorted(f, key=self.word_key, reverse=True)
        chunks = []
        for w in words:
            c = f[w]
            s = self.format_scalar(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if w:
                body = self.format_word(w) if s == "1" else "%s*%s" % (s, self.format_word(w))
            else:
                body = s
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)


@dataclass
class Presentation:
    """A connected graded algebra given by generators and homogeneous relations."""

    field: object
    generators: tuple
    relations: tuple  # monic homogeneous polynomials, degree >= 2

    def free_algebra(self, precedence=None):
        return FreeAlgebra(self.field, self.generators, precedence)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.field == other.field
            and self.generators == other.generators
            and list(self.relations) == list(other.relations)
        )


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*^()/"


def _tokenize(text, line_no):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, line_no, i + 1)
    toks.append(("end", None, len(text)))
    return toks


class _ExprParser:
    def __init__(self, algebra, text, line_no):
        self.fa = algebra
        self.toks = _tokenize(text, line_no)
        self.pos = 0
        self.line = line_no

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg, tok):
        raise ParseError(msg, self.line, tok[2] + 1)

    def parse(self):
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail("trailing input", tok)
        return f

    def expr(self):
        kind, _, _ = self.peek()
        sign = 1
        if kind in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        f = self.term()
        if sign < 0:
            f = self.fa.scale(f, -1)
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                f = self.fa.add(f, self.term())
            elif kind == "-":
                self.take()
                f = self.fa.sub(f, self.term())
            else:
                return f

    def term(self):
        f = self.factor()
        while self.peek()[0] in ("int", "name", "("):
            # adjacency is rejected on purpose; require explicit '*'
            self.fail("missing '*' between factors", self.peek())
        while self.peek()[0] == "*":
            self.take()
            f = self.fa.mul(f, self.factor())
            while self.peek()[0] in ("int", "name", "("):
                self.fail("missing '*' between factors", self.peek())
        return f

    def factor(self):
        base = self.primary()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                self.fail("exponent must be a nonnegative integer", tok)
            n = tok[1]
            out = self.fa.one()
            for _ in range(n):
                out = self.fa.mul(out, base)
            return out
        return base

    def primary(self):
        tok = self.take()
        kind, val, _ = tok
        if kind == "int":
            num = val
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "int" or den_tok[1] == 0:
                    self.fail("bad rational denominator", den_tok)
                return self.fa.scalar(Fraction(num, den_tok[1]))
            return self.fa.scalar(num)
        if kind == "name":
            gi = self.fa.index.get(val)
            if gi is None:
                self.fail("unknown generator %r" % val, tok)
            return self.fa.gen_poly(gi)
        if kind == "(":
            f = self.expr()
            close = self.take()
            if close[0] != ")":
                self.fail("expected ')'", close)
            return f
        self.fail("expected coefficient, generator or '('", tok)


def parse_poly(algebra, text, line_no=None):
    return _ExprParser(algebra, text, line_no).parse()


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

def _content_lines(text):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_presentation(text) -> Presentation:
    """Parse the presentation file format.

    Line 1: ``field Q`` or ``field F<p>``.  Line 2: ``gens name:deg ...``.
    Then any number of ``rel <expression>`` lines.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty presentation file")
    no, line = lines[0]
    if not line.startswith("field"):
        raise ParseError("expected 'field ...' as first line", no)
    try:
        field = field_by_name(line[len("field"):])
    except ValueError as e:
        raise ParseError(str(e), no) from None
    if len(lines) < 2 or not lines[1][1].startswith("gens"):
        raise ParseError("expected 'gens ...' as second line", lines[1][0] if len(lines) > 1 else no)
    no, line = lines[1]
    gens = []
    for chunk in line[len("gens"):].split():
        if ":" not in chunk:
            raise ParseError("generator %r is not of the form name:degree" % chunk, no)
        name, _, deg = chunk.partition(":")
        try:
            deg = int(deg)
        except ValueError:
            raise ParseError("bad degree in %r" % chunk, no) from None
        if deg < 1:
            raise ParseError("generator %s has nonpositive degree %d" % (name, deg), no)
        gens.append(Generator(name, deg))
    fa = FreeAlgebra(field, gens)
    rels = []
    for no, line in lines[2:]:
        if not line.startswith("rel"):
            raise ParseError("expected 'rel <expression>'", no)
        f = parse_poly(fa, line[len("rel"):], no)
        if not f:
            raise ParseError("relation is zero", no)
        if not fa.is_homogeneous(f):
            raise ParseError("relation %s is not homogeneous" % fa.format_poly(f), no)
        if fa.poly_degree(f) < 2:
            raise ParseError("relation of degree < 2 not allowed in a minimal presentation", no)
        rels.append(fa.monic(f))
    return Presentation(field, tuple(gens), tuple(rels))


def format_presentation(pres) -> str:
    fa = pres.free_algebra()
    out = ["field %s" % pres.field.name]
    out.append("gens " + " ".join("%s:%d" % (g.name, g.degree) for g in pres.generators))
    for r in pres.relations:
        out.append("rel " + fa.format_poly(r))
    return "\n".join(out) + "\n"


def parse_automorphism(text, pres) -> dict:
    """Parse an automorphism file: lines ``name -> expression``.

    Every generator must get exactly one image, homogeneous of the
    generator's degree.  Returns {generator index: polynomial}.
    """
    fa = pres.free_algebra()
    images = {}
    for no, line in _content_lines(text):
        if "->" not in line:
            raise ParseError("expected 'name -> expression'", no)
        name, _, rhs = line.partition("->")
        name = name.strip()
        gi = fa.index.get(name)
        if gi is None:
            raise ParseError("unknown generator %r" % name, no)
        if gi in images:
            raise ParseError("duplicate image for %r" % name, no)
        f = parse_poly(fa, rhs, no)
        if f and (not fa.is_homogeneous(f) or fa.poly_degree(f) != pres.generators[gi].degree):
            raise ParseError(
                "image of %s must be homogeneous of degree %d" % (name, pres.generators[gi].degree),
                no,
            )
        images[gi] = f
    missing = [g.name for i, g in enumerate(pres.generators) if i not in images]
    if missing:
        raise ParseError("missing images for: %s" % ", ".join(missing))
    return images
