"""The memo (``complexes.memo``): each derived fact is built once per object.

A memoized fact must not depend on what ran before it on the same map, and
a refusal is not stored, so it is raised again with the same name.
"""

import sys
from collections import Counter, defaultdict

import pytest

from sepcheck import complexes, duality, homology, separation
from sepcheck.catalog import build_catalog, octahedron, square_circle
from sepcheck.cli import EXIT_REFUSED, analyze_instance
from sepcheck.complexes import SimplicialComplex, barycentric_subdivide, is_certified_manifold
from sepcheck.maps import (
    SimplicialMap,
    image_complex,
    image_subcomplex,
    self_intersection,
    self_intersection_maps,
    subdivide_map,
)
from sepcheck.obstruction import (
    cor317_check,
    dual_class_Uf,
    final_theorem_check,
    mu_solve,
    mv_sequence_check,
    theta,
    theta_pushforward_check,
    w1_of_map,
)
from sepcheck.separation import (
    HypothesisError,
    eq1_identity_check,
    jordan_brouwer_check,
    prop34_check,
)

CHECKS = (dual_class_Uf, w1_of_map, theta, theta_pushforward_check, mu_solve,
          cor317_check, mv_sequence_check, eq1_identity_check, prop34_check,
          jordan_brouwer_check, final_theorem_check)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every sepcheck namespace that holds it; returns its call args."""
    real = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sepcheck."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_analyze_builds_each_fact_of_the_map_once(monkeypatch):
    f = build_catalog()["figure_eight_s1_s2"].map  # fresh, so its memo is empty
    oracle = _count_calls(monkeypatch, separation, "complement_components_oracle")
    duals = _count_calls(monkeypatch, duality, "poincare_dual")
    w1s = _count_calls(monkeypatch, duality, "w1")
    pullbacks = _count_calls(monkeypatch, homology, "induced_on_cohomology")
    # The oracle keeps its count on the subcomplex, so it may be called again
    # on one; only the first call on each runs the union-find.
    counts = []
    real_count = separation._count_components
    monkeypatch.setattr(separation, "_count_components",
                        lambda *args: counts.append(1) or real_count(*args))
    analyze_instance(f)
    img, b = image_subcomplex(f), self_intersection(f).B
    assert {id(sub) for _, sub in oracle} == {id(img), id(b)}
    assert len(counts) == 2  # one count each on img and b
    assert len(duals) == 1
    assert len(w1s) == 2  # one for the codomain, one for the domain
    assert [d for g, d in pullbacks if g is f] == [1]  # f^* on H^1, for w1(f) and theta


def test_analyze_certifies_each_complex_once(monkeypatch):
    """A failing certificate is kept on its complex like a passing one."""
    faces = [list(s) for s in octahedron().maximal_simplices()]
    ybad = SimplicialComplex.from_maximal_simplices("dangling", faces + [["n", "x"]])
    square = square_circle()
    f = SimplicialMap("equator_in_dangling", square, ybad, {v: v for v in square.vertices})
    certs = _count_calls(monkeypatch, complexes, "manifold_certificate")
    report, code = analyze_instance(f)
    assert code == EXIT_REFUSED
    assert report["separation"] == {"refused": "codomain_closed_manifold"}
    assert Counter((k.name, n) for k, n in certs) == {("square", 1): 1, ("dangling", 2): 1}
    sd, _ = barycentric_subdivide(ybad)
    assert not is_certified_manifold(sd, 2)
    assert certs[-1] == (sd, 2)  # a failure is not inherited, so sd is certified anew


def test_analyze_at_sd1_builds_each_fact_of_a_complex_once(monkeypatch):
    """One chain complex per complex, no reduction of a subdivision, at most one
    reduction per (chain complex, direction, degree) and one fundamental-chain
    check per (complex, n), on fresh complexes."""
    f, _, _ = subdivide_map(build_catalog()["figure_eight_s1_s2"].map)
    m, n = f.domain, f.codomain
    asked = _count_calls(monkeypatch, homology, "chain_complex")
    built = []
    real_init = homology.ChainComplexZ2.__init__
    monkeypatch.setattr(homology.ChainComplexZ2, "__init__",
                        lambda c, simplices, index, base=None: built.append(c)
                        or real_init(c, simplices, index, base))
    reductions = defaultdict(list)
    real_reduction = homology._clearing_reduction

    def reducing(c, cohomology, d):
        reductions[c, cohomology, d].append(real_reduction(c, cohomology, d))
        return reductions[c, cohomology, d][-1]

    monkeypatch.setattr(homology, "_clearing_reduction", reducing)
    # fundamental_class checks the certificate of (k, n) each time it builds
    # the chain; nothing else in duality asks for one during analyze
    checks = []
    real_certified = duality.is_certified_manifold
    monkeypatch.setattr(duality, "is_certified_manifold",
                        lambda k, n: checks.append((k, n)) or real_certified(k, n))
    analyze_instance(f)
    asked = {id(k) for k, in asked}
    assert len(built) == 5  # M, N, f(M), A, B
    # the bases hexagon and octahedron are asked too: the catalog built their
    # chain complexes when it computed their Betti numbers
    assert len(asked) == 7 and {id(m.base), id(n.base)} <= asked
    incl, f_a = self_intersection_maps(f)
    img, a, b = image_complex(f), incl.domain, f_a.codomain
    by_complex = {id(homology.chain_complex(k)): k for k in (m, n, m.base, n.base, img, a, b)}
    reduced = defaultdict(set)
    for c, cohomology, d in reductions:
        reduced[by_complex[id(c)]].add((cohomology, d))
    # M and N are subdivisions: their (co)homology is carried, never reduced
    assert m not in reduced and n not in reduced
    # their bases are asked for reductions in degrees with β > 0 only:
    # the hexagon's H_0, H_1, H^0 and H^1, and the octahedron's H_0 and the
    # H^0 that gives the duals of H_0(N) read by theta_pushforward_check
    assert reduced[m.base] == {(False, 0), (False, 1), (True, 0), (True, 1)}
    assert reduced[n.base] == {(False, 0), (True, 0)}
    # f(M), A and B have no base and are reduced as before
    assert reduced[img] == {(False, 0), (False, 1)}
    assert reduced[a] == reduced[b] == {(False, 0), (True, 0)}
    assert all(all(r is rs[0] for r in rs) for rs in reductions.values())
    assert Counter((k.name, n) for k, n in checks) == {(f.domain.name, 1): 1,
                                                       (f.codomain.name, 2): 1}


def _outcome(check, f):
    try:
        return check(f)
    except HypothesisError as e:
        return ("refused", e.hypothesis)


def _fresh(f: SimplicialMap) -> SimplicialMap:
    """The same map over the same complexes, with an empty memo."""
    return SimplicialMap(f.name, f.domain, f.codomain, f.vertex_map)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("cid", sorted(build_catalog()))
def test_checks_ignore_what_ran_before_them(cid, level):
    f = build_catalog()[cid].map
    for _ in range(level):
        f, _, _ = subdivide_map(f)
    alone = [_outcome(check, _fresh(f)) for check in CHECKS]
    g = _fresh(f)
    analyze_instance(g)
    after = [_outcome(check, g) for check in reversed(CHECKS)]
    assert after[::-1] == alone
