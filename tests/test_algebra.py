"""Truncated Groebner bases, quotient arithmetic, morphisms, skew extensions."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extalg import (
    GradedAlgebra,
    Generator,
    MorphismError,
    NotInvertibleError,
    TruncationError,
    identity_morphism,
    morphism_from_images,
    parse_poly,
    parse_presentation,
    polynomial_algebra_presentation,
    skew_extension,
)
from extalg.algebra import reduce_poly
from extalg.linalg import PrimeField, RationalField

from oracles import quotient_dimension
from strategies import presentations


def test_quantum_plane_groebner_single_element(qplane):
    A = GradedAlgebra(qplane, 6)
    assert len(A.groebner.elements) == 1
    assert A.groebner.elements[0] == {(0, 1): Fraction(1), (1, 0): Fraction(-2)}
    assert A.groebner.complete_through == 6


def test_free_algebra_empty_basis():
    A = GradedAlgebra(parse_presentation("field Q\ngens x:1 y:1"), 4)
    assert A.groebner.elements == []
    assert [A.hilbert(d) for d in range(5)] == [1, 2, 4, 8, 16]


def test_monomial_relation_basis():
    A = GradedAlgebra(parse_presentation("field Q\ngens x:1\nrel x^2"), 5)
    assert [A.hilbert(d) for d in range(6)] == [1, 1, 0, 0, 0, 0]
    assert A.basis[1] == [(0,)]


def test_hilbert_matches_ideal_oracle(qplane):
    A = GradedAlgebra(qplane, 5)
    for d in range(6):
        assert A.hilbert(d) == quotient_dimension(qplane, d)


@settings(max_examples=25, deadline=None)
@given(presentations())
def test_random_presentation_hilbert_matches_ideal_oracle(pres):
    A = GradedAlgebra(pres, 4)
    for d in range(5):
        assert A.hilbert(d) == quotient_dimension(pres, d)


def test_hilbert_oracle_three_generators():
    pres = parse_presentation("field Q\ngens x:1 y:1 w:1\nrel x*y - y*x\nrel x*w + w*y")
    A = GradedAlgebra(pres, 4)
    for d in range(5):
        assert A.hilbert(d) == quotient_dimension(pres, d)


def test_normal_form_examples(qplane):
    A = GradedAlgebra(qplane, 6)
    fa = A.free
    assert A.normal_form(parse_poly(fa, "x*y")) == {(1, 0): Fraction(2)}
    assert A.normal_form(dict(qplane.relations[0])) == {}
    assert A.normal_form(parse_poly(fa, "y*x")) == {(1, 0): Fraction(1)}


def test_normal_form_idempotent_linear_multiplicative(qplane):
    A = GradedAlgebra(qplane, 6)
    fa = A.free
    f = parse_poly(fa, "x*y*x + 3*y*x*y")
    g = parse_poly(fa, "x*x - y*y")
    nf = A.normal_form
    assert nf(nf(f)) == nf(f)
    assert nf(fa.add(f, g)) == fa.add(nf(f), nf(g))
    assert nf(fa.mul(f, g)) == nf(fa.mul(nf(f), nf(g)))


def test_normal_form_truncation_guard(qplane):
    A = GradedAlgebra(qplane, 3)
    deep = {(0,) * 4: Fraction(1)}
    with pytest.raises(TruncationError):
        A.normal_form(deep)
    assert A.normal_form(deep, strict=False) == deep


def test_groebner_over_prime_field():
    A = GradedAlgebra(parse_presentation("field F3\ngens x:1 y:1\nrel x*y - 2*y*x"), 5)
    F3 = PrimeField(3)
    assert [A.hilbert(d) for d in range(6)] == [1, 2, 3, 4, 5, 6]
    assert A.normal_form({(0, 1): F3.one}) == {(1, 0): F3.of(2)}


def test_groebner_needs_new_elements():
    # x^2 - yx forces the overlap completion to add a cubic element
    pres = parse_presentation("field Q\ngens x:1 y:1\nrel x^2 - y*x")
    A = GradedAlgebra(pres, 6)
    assert len(A.groebner.elements) >= 2
    for g in A.groebner.elements:
        assert g[max(g, key=A.free.word_key)] == Fraction(1)
    # leading words are pairwise subword-free (inter-reduced)
    leads = A.groebner.leading_words
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not any(a[k:k + len(b)] == b for k in range(len(a) - len(b) + 1))
    for d in range(7):
        assert A.hilbert(d) == quotient_dimension(pres, d)


def test_scaling_automorphism_inverse(kx):
    A = GradedAlgebra(kx, 6)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    assert sigma.inverse.images[0] == {(0,): Fraction(1, 2)}
    assert sigma.inverse.inverse is sigma


def test_identity_morphism(qplane):
    A = GradedAlgebra(qplane, 5)
    m = identity_morphism(A)
    assert m.certified_through == 5
    f = parse_poly(A.free, "x*y + y*y")
    assert m.apply(f) == A.normal_form(f)


def test_swap_not_a_morphism(qplane):
    A = GradedAlgebra(qplane, 5)
    with pytest.raises(MorphismError):
        morphism_from_images(A, A, {0: A.free.gen_poly(1), 1: A.free.gen_poly(0)},
                             automorphism=True)


def test_non_invertible_rejected(kx):
    A = GradedAlgebra(kx, 4)
    with pytest.raises(NotInvertibleError):
        morphism_from_images(A, A, {0: {}}, automorphism=True)


def test_automorphism_with_killed_generator():
    # a relation may kill a generator outright; the induced map on the empty
    # graded piece is still invertible and the inverse image is zero
    pres = parse_presentation("field Q\ngens x:1 y:2\nrel y^2\nrel x*y\nrel y*x\nrel x^2 - 2*y")
    A = GradedAlgebra(pres, 5)
    assert [A.hilbert(d) for d in range(4)] == [1, 1, 1, 0]
    sigma = morphism_from_images(
        A, A, {0: {(0,): Fraction(2)}, 1: {(1,): Fraction(4)}}, automorphism=True)
    assert sigma.inverse.images[0] == {(0,): Fraction(1, 2)}


def test_nondiagonal_automorphism_of_free_algebra():
    A = GradedAlgebra(parse_presentation("field Q\ngens x:1 y:1"), 4)
    images = {0: parse_poly(A.free, "x + y"), 1: A.free.gen_poly(1)}
    sigma = morphism_from_images(A, A, images, automorphism=True)
    assert sigma.inverse.images[0] == {(0,): Fraction(1), (1,): Fraction(-1)}
    # round trip on a quadratic element
    f = parse_poly(A.free, "x*y - y*x")
    assert sigma.inverse.apply(sigma.apply(f)) == A.normal_form(f)


def test_skew_extension_of_kx(kx):
    A = GradedAlgebra(kx, 6)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(2)}}, automorphism=True)
    bp = skew_extension(A, sigma, 1, "z")
    assert bp.generators == (Generator("x", 1), Generator("z", 1))
    B = GradedAlgebra(bp, 6)
    assert [B.hilbert(d) for d in range(7)] == [d + 1 for d in range(7)]
    # the defining commutation z*x = 2*x*z holds; with x > z the normal words
    # are z^i x^j, so it is x*z that reduces
    xi, zi = 0, 1
    rel = {(zi, xi): Fraction(1), (xi, zi): Fraction(-2)}
    assert B.normal_form(rel) == {}
    assert B.normal_form({(xi, zi): Fraction(1)}) == {(zi, xi): Fraction(1, 2)}


def test_skew_extension_identity_twist_central_z(qplane):
    A = GradedAlgebra(qplane, 5)
    bp = skew_extension(A, identity_morphism(A), 2, "t")
    assert len(bp.generators) == 3 and bp.generators[-1] == Generator("t", 2)
    assert len(bp.relations) == 3
    B = GradedAlgebra(bp, 5)
    for d in range(6):
        want = sum(A.hilbert(d - 2 * j) for j in range(d // 2 + 1))
        assert B.hilbert(d) == want


def test_skew_extension_hilbert_general_degree(cube):
    A = GradedAlgebra(cube, 6)
    sigma = morphism_from_images(A, A, {0: {(0,): Fraction(-1)}}, automorphism=True)
    bp = skew_extension(A, sigma, 3, "z")
    B = GradedAlgebra(bp, 6)
    for d in range(7):
        want = sum(A.hilbert(d - 3 * j) for j in range(d // 3 + 1))
        assert B.hilbert(d) == want


def test_skew_extension_name_clash(kx):
    A = GradedAlgebra(kx, 3)
    with pytest.raises(ValueError):
        skew_extension(A, identity_morphism(A), 1, "x")


def test_polynomial_algebra_presentation():
    pres = polynomial_algebra_presentation(RationalField(), "z", 3)
    A = GradedAlgebra(pres, 9)
    assert [A.hilbert(d) for d in range(10)] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


# -- the word normal-form memo ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(presentations(), st.data())
def test_memoized_normal_form_equals_direct_reduction(pres, data):
    D = 4
    A = GradedAlgebra(pres, D)
    fa, k = A.free, len(pres.generators)
    word = st.lists(st.integers(0, k - 1), max_size=D + 2).map(tuple)
    coeff = st.integers(-4, 4).map(A.field.of).filter(bool)
    for _ in range(3):
        f = data.draw(st.dictionaries(word, coeff, max_size=5))
        direct = reduce_poly(fa, f, A._reduction)
        # twice: once filling the memo, once reading it
        assert A.normal_form(f, strict=False) == direct
        assert A.normal_form(f, strict=False) == direct
        low = {w: c for w, c in f.items() if fa.word_degree(w) <= A.groebner.complete_through}
        assert A.normal_form(low) == reduce_poly(fa, low, A._reduction)
        for w in f:
            assert A.word_normal_form(w) == reduce_poly(fa, {w: A.field.one}, A._reduction)


SKL = ("field Q\ngens x:1 y:1 w:1\nrel x*y - 2*y*x + w^2\nrel y*w - 2*w*y + x^2\n"
       "rel w*x - 2*x*w + y^2\n")


def _fingerprint(elements):
    canon = repr([sorted((w, str(c)) for w, c in g.items()) for g in elements])
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("text, D, size, digest", [
    # recorded with the completion that recomputed every leading word per rewrite
    (SKL, 10, 28, "669d18b1536e358a96587cb9111c4c67f42012ed3ed0942c5820072f686a913a"),
    ("field Q\ngens x:1\nrel x^3\n", 8, 1,
     "f044e738fbec105486b0f7e9d740e37de3f8dffeffa065dd7e7f3aeb6696ab0e"),
], ids=["skl", "cube"])
def test_groebner_elements_fixed_under_memo(text, D, size, digest):
    A = GradedAlgebra(parse_presentation(text), D)
    before = [dict(g) for g in A.groebner.elements]
    assert len(before) == size and _fingerprint(before) == digest
    assert A.groebner.leading_words == [A.free.leading_word(g) for g in before]
    k = len(A.free.gens)
    for n in range(6):
        for w in itertools.product(range(k), repeat=n):
            A.normal_form({w: A.field.one})
    A.normal_form({(0,) * (D + 2): A.field.one}, strict=False)
    assert A.groebner.elements == before
    assert _fingerprint(A.groebner.elements) == digest
