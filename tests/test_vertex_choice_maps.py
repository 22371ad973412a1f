"""Differential tests on vertex-choice maps, whose answer is known in advance.

A vertex-choice map g: Sd(M) -> M sends the barycenter of each simplex s of
M to some vertex of s.  It is simplicial for every choice (a flag
s0 < ... < sk goes into sk) and onto every simplex of M (remove the chosen
vertex repeatedly and the resulting flag has distinct chosen vertices), so
f∘g has exactly the image of f and the complement count of the catalog map f.
"""

import random

import pytest

from sepcheck.catalog import build_catalog
from sepcheck.complexes import barycentric_subdivide
from sepcheck.maps import SimplicialMap, image_subcomplex
from sepcheck.obstruction import mv_sequence_check, obstruction_summary, theta_pushforward_check
from sepcheck.separation import (
    HypothesisError,
    beta0_formula_thm32,
    complement_components_oracle,
    eq1_identity_check,
)

CATALOG = build_catalog()
SEEDS = range(5)


def vertex_choice_map(m, seed: int) -> SimplicialMap:
    """g: Sd(m) -> m sending each barycenter to a seeded vertex of its simplex."""
    sd, vertex_of = barycentric_subdivide(m)
    rng = random.Random(seed)
    return SimplicialMap(f"choice{seed}({m.name})", sd, m,
                         {b: rng.choice(vertex_of[b]) for b in sd.vertices})


def compose(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """f∘g, for g's codomain equal to f's domain."""
    return SimplicialMap(f"{f.name}∘{g.name}", g.domain, f.codomain,
                         {v: f.vertex_map[w] for v, w in g.vertex_map.items()})


COMPOSED = ["equator_s1_s2", "figure_eight_s1_s2", "triple_bouquet_s1_s2", "equator_s2_s3"]


@pytest.mark.parametrize("cid", COMPOSED)
def test_vertex_choice_composite_keeps_image_and_separation(cid):
    entry = CATALOG[cid]
    f = entry.map
    image = image_subcomplex(f)
    for seed in SEEDS:
        h = compose(f, vertex_choice_map(f.domain, seed))
        assert image_subcomplex(h) == image, seed
        assert complement_components_oracle(h.codomain, image_subcomplex(h)) \
            == entry.expected["beta0_oracle"], seed
        try:
            report = beta0_formula_thm32(h)
        except HypothesisError:
            continue
        assert report.agreement, seed


@pytest.mark.parametrize("cid", COMPOSED)
def test_vertex_choice_composite_satisfies_the_obstruction_claims(cid):
    """The identity, theta's pushforward, exactness and the final predicate.

    The predicate holds for the figure-eight and the bouquet; the equators
    are embeddings, with no nonzero mu.
    """
    entry = CATALOG[cid]
    predicate = entry.expected.get("predicate_thm_final", False)
    assert predicate or entry.expected["final_refusal"] == "exists_nonzero_mu"
    for seed in SEEDS:
        h = compose(entry.map, vertex_choice_map(entry.map.domain, seed))
        assert eq1_identity_check(h), seed
        assert theta_pushforward_check(h), seed
        assert mv_sequence_check(h)["exact"], seed
        assert obstruction_summary(h).predicate_thm_final == predicate, seed


REFUSED = ["double_wrap_s1", "essential_circle_t2", "rp2_identity", "rp2_essential_circle"]


@pytest.mark.parametrize("cid", REFUSED)
def test_vertex_choice_composite_is_refused_like_its_entry(cid):
    """f∘g keeps the hypothesis f fails, and the oracle count where one is given."""
    entry = CATALOG[cid]
    for seed in SEEDS:
        h = compose(entry.map, vertex_choice_map(entry.map.domain, seed))
        with pytest.raises(HypothesisError) as exc:
            beta0_formula_thm32(h)
        assert exc.value.hypothesis == entry.expected["separation_refusal"], seed
        if "beta0_oracle" in entry.expected:
            assert complement_components_oracle(h.codomain, image_subcomplex(h)) \
                == entry.expected["beta0_oracle"], seed
