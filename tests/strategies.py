"""Hypothesis strategies shared by the property tests."""

import itertools

from hypothesis import strategies as st

from extalg import FreeAlgebra, Generator, Presentation
from extalg.linalg import PrimeField, RationalField

FIELDS = {"Q": RationalField(), "F5": PrimeField(5)}


@st.composite
def presentations(draw):
    """2 or 3 generators (one may have degree 2) and 1-2 random relations."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    degs = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=2, max_size=3))
    gens = tuple(Generator("g%d" % i, d) for i, d in enumerate(degs))
    fa = FreeAlgebra(field, gens)
    words_of = {}
    for w in itertools.product(range(len(gens)), repeat=2):
        words_of.setdefault(fa.word_degree(w), []).append(w)
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.sampled_from(sorted(words_of)))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(words_of[d]),
                               max_size=len(words_of[d])))
        rel = {w: field.of(c) for w, c in zip(words_of[d], coeffs) if field.of(c)}
        if rel:
            rels.append(fa.monic(rel))
    return Presentation(field, gens, tuple(rels))
