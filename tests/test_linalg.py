"""Exact linear algebra: examples plus randomized invariants."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extalg.linalg import (
    Echelon,
    Eliminator,
    Mod,
    PrimeField,
    RationalField,
    extend_to_basis,
    field_by_name,
)
from oracles import rref_dense

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)


def dense(rows, ncols, field):
    return [[r.get(j, field.zero) for j in range(ncols)] for r in rows]


def reduced(rows, ncols, field):
    """The reduced rows of Echelon in pivot order, and the pivot columns."""
    ech = Echelon(rows, ncols, field)
    return [row for _, row in ech.rows], ech.pivot_cols


def test_field_by_name():
    assert field_by_name("Q") == Q
    assert field_by_name("F7").char == 7
    with pytest.raises(ValueError):
        field_by_name("F4")
    with pytest.raises(ValueError):
        field_by_name("R")


def test_prime_field_rejects_denominator_divisible_by_p():
    assert F5.of(Fraction(2, 3)) == Mod(4, 5)
    assert F5.of(Fraction(10, 5)) == Mod(2, 5)  # Fraction reduces to 2
    with pytest.raises(ValueError, match="1/5 is not defined in F5"):
        F5.of(Fraction(1, 5))
    with pytest.raises(ValueError, match="-3/10"):
        F5.of(Fraction(-3, 10))


def test_large_characteristics_decided_quickly():
    # trial division would take hours on these; Miller-Rabin takes microseconds
    t0 = time.monotonic()
    assert field_by_name("F2305843009213693951").char == 2 ** 61 - 1
    with pytest.raises(ValueError, match="not prime"):
        field_by_name("F%d" % (1000000007 * 998244353))
    # strong pseudoprime to the bases 2, 3, 5, 7
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3215031751)
    # the least strong pseudoprime to all twelve witnesses: beyond the exact range
    with pytest.raises(ValueError, match="too large"):
        PrimeField(318665857834031151167461)
    assert time.monotonic() - t0 < 0.5


def test_small_characteristics_match_trial_division():
    for p in range(2000):
        expected = p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
        if expected:
            assert PrimeField(p).char == p
        else:
            with pytest.raises(ValueError):
                PrimeField(p)


def test_mod_arithmetic():
    a = Mod(3, 5)
    assert a + 4 == Mod(2, 5)
    assert 2 - a == Mod(4, 5)
    assert a * a == Mod(4, 5)
    assert a / Mod(2, 5) == Mod(4, 5)
    assert -a == Mod(2, 5)
    assert bool(Mod(0, 5)) is False
    assert Mod(1, 5) / a * a == Mod(1, 5)


P = 7


def mod_int(x):
    """The residue mod P of a Mod, int or Fraction operand."""
    if isinstance(x, Mod):
        return x.val
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, P) % P
    return x % P


mod_operand = st.one_of(
    st.integers(-20, 20).map(lambda v: Mod(v, P)),
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20),
              st.integers(1, 20).filter(lambda d: d % P)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-20, 20), mod_operand, st.booleans())
def test_mod_operators_match_integers_mod_p(a, other, mod_left):
    a = Mod(a, P)
    x, y = (a, other) if mod_left else (other, a)
    ix, iy = mod_int(x), mod_int(y)
    for got, want in ((x + y, ix + iy), (x - y, ix - iy), (x * y, ix * iy), (-a, -a.val)):
        assert isinstance(got, Mod) and got.p == P and got.val == want % P
    if iy:
        got = x / y
        assert isinstance(got, Mod) and got.val == ix * pow(iy, -1, P) % P
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_mod_mixed_characteristics_raise(a, b):
    x, y = Mod(a, 5), Mod(b, 7)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y + x, lambda: y * x):
        with pytest.raises(ValueError, match="mixed characteristics"):
            op()
    if b % 7:
        with pytest.raises(ValueError, match="mixed characteristics"):
            x / y


def test_rref_identity():
    rows = [{0: Q.one}, {1: Q.one}]
    red, pivots = reduced(rows, 2, Q)
    assert pivots == [0, 1]
    assert dense(red, 2, Q) == [[1, 0], [0, 1]]


def test_rref_rank_one():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    red, pivots = reduced(rows, 2, Q)
    assert pivots == [0]
    assert dense(red, 2, Q) == [[1, 2]]


def test_rref_gf2():
    # [[1,1],[1,2]] over GF(2) reduces to the identity
    rows = [{0: F2.one, 1: F2.one}, {0: F2.one, 1: F2.of(2)}]
    red, pivots = reduced(rows, 2, F2)
    assert pivots == [0, 1]
    assert dense(red, 2, F2) == [[F2.one, F2.zero], [F2.zero, F2.one]]


def test_rref_idempotent():
    rows = [{0: Fraction(2), 1: Fraction(4), 2: Fraction(1)},
            {0: Fraction(1), 2: Fraction(3)}]
    red, _ = reduced(rows, 3, Q)
    again, _ = reduced(red, 3, Q)
    assert dense(red, 3, Q) == dense(again, 3, Q)


def test_kernel_zero_matrix():
    assert len(Echelon([{}, {}], 3, Q).kernel_basis()) == 3


def test_kernel_single_equation():
    (v,) = Echelon([{0: Fraction(1), 1: Fraction(2)}], 2, Q).kernel_basis()
    # proportional to (-2, 1)
    assert v[0] / v[1] == Fraction(-2)


def test_solve_identity_and_inconsistent():
    rows = [{0: Q.one}, {1: Q.one}]
    assert Echelon(rows, 2, Q).solve({0: Fraction(5), 1: Fraction(-1)}) == {0: 5, 1: -1}
    assert Echelon([{}], 1, Q).solve({0: Fraction(1)}) is None


def test_solve_underdetermined_verifies():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    x = Echelon(rows, 2, Q).solve({0: Fraction(2)})
    assert sum(x.get(j, Fraction(0)) for j in range(2)) == 2


def test_solve_free_value_gives_second_solution():
    ech = Echelon([{0: Fraction(1), 1: Fraction(1)}], 2, Q)
    x0 = ech.solve({0: Fraction(2)})
    x1 = ech.solve({0: Fraction(2)}, free_value=1)
    assert x0 != x1
    for x in (x0, x1):
        assert x.get(0, Fraction(0)) + x.get(1, Fraction(0)) == 2


def test_extend_to_basis_examples():
    e = [{i: Q.one} for i in range(3)]
    assert extend_to_basis([], e, Q) == e
    assert extend_to_basis([e[0]], [e[0], e[1]], Q) == [e[1]]
    assert extend_to_basis(e, e, Q) == []
    # dependent inside vectors are discarded silently
    assert extend_to_basis([e[0], e[0]], [e[0], e[2]], Q) == [e[2]]


def test_eliminator_membership():
    elim = Eliminator(Q)
    assert elim.insert({0: Fraction(1), 1: Fraction(1)})
    assert not elim.insert({0: Fraction(2), 1: Fraction(2)})
    assert elim.contains({0: Fraction(-3), 1: Fraction(-3)})
    assert elim.dim == 1


@st.composite
def sparse_matrix(draw, field):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            v = draw(st.integers(-4, 4))
            if v:
                row[j] = field.of(v)
        rows.append(row)
    return rows, ncols


def mat_vec(rows, v, field):
    out = {}
    for i, row in enumerate(rows):
        acc = field.zero
        for j, c in row.items():
            acc = acc + c * v.get(j, field.zero)
        if acc:
            out[i] = acc
    return out


@settings(max_examples=60, deadline=None)
@given(sparse_matrix(Q))
def test_kernel_and_rank_invariants_q(mat):
    rows, ncols = mat
    ech = Echelon(rows, ncols, Q)
    kb = ech.kernel_basis()
    assert ech.rank + len(kb) == ncols
    for v in kb:
        assert mat_vec(rows, v, Q) == {}


@settings(max_examples=60, deadline=None)
@given(sparse_matrix(F5))
def test_kernel_and_rank_invariants_f5(mat):
    rows, ncols = mat
    ech = Echelon(rows, ncols, F5)
    kb = ech.kernel_basis()
    assert ech.rank + len(kb) == ncols
    for v in kb:
        assert mat_vec(rows, v, F5) == {}


@settings(max_examples=60, deadline=None)
@given(sparse_matrix(Q), st.data())
def test_solve_reproduces_rhs(mat, data):
    rows, ncols = mat
    # build a consistent rhs from a random preimage
    x = {j: Fraction(data.draw(st.integers(-3, 3))) for j in range(ncols)}
    x = {j: c for j, c in x.items() if c}
    b = mat_vec(rows, x, Q)
    got = Echelon(rows, ncols, Q).solve(b)
    assert got is not None
    assert mat_vec(rows, got, Q) == b


@settings(max_examples=40, deadline=None)
@given(sparse_matrix(Q))
def test_rank_deterministic_and_rref_idempotent(mat):
    rows, ncols = mat
    assert Echelon(rows, ncols, Q).rank == Echelon(rows, ncols, Q).rank
    red, piv = reduced(rows, ncols, Q)
    red2, piv2 = reduced(red, ncols, Q)
    assert piv == piv2
    assert dense(red, ncols, Q) == dense(red2, ncols, Q)
    assert piv == sorted(piv)


@st.composite
def degenerate_matrix(draw, field):
    """A sparse matrix with zero, duplicate and dependent rows mixed in."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    rows = []
    for _ in range(nrows):
        row = {j: field.of(v) for j in range(ncols) if (v := draw(entry))}
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        new = {}
        if kind == "duplicate":
            new = dict(draw(st.sampled_from(rows)))
        elif kind == "combination":
            for src in (draw(st.sampled_from(rows)), draw(st.sampled_from(rows))):
                c = field.of(draw(st.integers(1, 3)))
                for j, v in src.items():
                    new[j] = new.get(j, field.zero) + c * v
            new = {j: v for j, v in new.items() if v}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


def reference_solve(rows, ncols, b, field, free_value):
    """Particular solution read off the dense RREF of [M | b], or None."""
    aug = [r + [b.get(i, field.zero)] for i, r in enumerate(dense(rows, ncols, field))]
    red, pivots = rref_dense(aug, field)
    if ncols in pivots:
        return None
    fv = field.of(free_value)
    x = {j: fv for j in range(ncols) if j not in pivots}
    for row, col in zip(red, pivots):
        val = row[ncols]
        for j in x:
            val = val - row[j] * fv
        x[col] = val
    return {j: v for j, v in x.items() if v}


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_echelon_matches_dense_gauss_jordan(field, data):
    rows, ncols = data.draw(degenerate_matrix(field))
    ech = Echelon(rows, ncols, field)
    red, pivots = rref_dense(dense(rows, ncols, field), field)
    assert ech.pivot_cols == pivots
    assert dense([row for _, row in ech.rows], ncols, field) == red
    kernel = [{fc: field.one} | {col: -row[fc] for row, col in zip(red, pivots) if row[fc]}
              for fc in range(ncols) if fc not in pivots]
    assert ech.kernel_basis() == kernel
    rank_only = Echelon(rows, ncols, field, solvable=False)
    assert rank_only.rows == ech.rows
    assert rank_only.pivot_cols == ech.pivot_cols
    assert rank_only.rank == ech.rank
    assert rank_only.kernel_basis() == kernel
    with pytest.raises(ValueError, match="solvable=False"):
        rank_only.solve({})
    value = st.integers(-3, 3).map(field.of)
    x = {j: v for j in range(ncols) if (v := data.draw(value))}
    inside = mat_vec(rows, x, field)
    anywhere = {i: v for i in range(len(rows)) if (v := data.draw(value))}
    for b in (inside, anywhere):
        for fv in (0, 1):
            want = reference_solve(rows, ncols, b, field, fv)
            assert ech.solve(b, free_value=fv) == want
        if b is inside:
            assert want is not None
