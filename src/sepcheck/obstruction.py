"""Embedding-obstruction pipeline for codimension-1 maps.

Computes the dual class of the pushed-forward fundamental class, the
first Stiefel-Whitney class of the stable normal bundle, the primary
obstruction class, the linear system locating it on the self-intersection
set, the ladder-extracted exact sequence, and the three-components
theorem with its oracle cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2 import BitMatrix, SubspaceBasis, kernel_basis, rank, solve
from .complexes import is_certified_manifold
from .duality import (
    CohomologyClass,
    cap,
    cohomology_class_is_zero,
    fundamental_class,
    poincare_dual,
    w1,
)
from .homology import (
    HomologyBasis,
    betti,
    chain_complex,
    homology_basis,
    induced_map_from_chain_matrix,
    induced_on_homology,
)
from .maps import (
    SimplicialMap,
    _require_valid,
    chain_map,
    image_complex,
    map_into,
    per_map,
    self_intersection,
    self_intersection_maps,
)
from .separation import (
    HypothesisError,
    _require_codim1_certificates,
    _require_positive_codim1,
    image_components,
)


@dataclass
class AffineSolutionSet:
    """Particular solution plus kernel basis of a GF(2) affine system."""

    space_dim: int
    particular: int | None
    kernel: SubspaceBasis

    @property
    def solvable(self) -> bool:
        return self.particular is not None

    def contains_zero(self) -> bool:
        return self.solvable and self.kernel.contains(self.particular)

    def has_nonzero(self) -> bool:
        if not self.solvable:
            return False
        return self.particular != 0 or self.kernel.dim > 0

    def all_nonzero(self) -> bool:
        return self.solvable and not self.contains_zero()


@dataclass
class ObstructionReport:
    Uf: CohomologyClass
    w1f: CohomologyClass
    theta_coords: int            # class in H_{m-1}(M), canonical basis
    theta_is_zero: bool
    theta_pushforward_zero: bool
    mu_solutions: AffineSolutionSet
    exists_nonzero_mu: bool
    all_mu_nonzero: bool
    predicate_thm_final: bool
    beta0_oracle: int
    dim_Hm_image: int
    A_proper: bool
    Uf_is_zero: bool = field(default=False)
    w1f_is_zero: bool = field(default=False)

    def to_json_dict(self) -> dict:
        return {
            "Uf_is_zero": self.Uf_is_zero,
            "w1f_is_zero": self.w1f_is_zero,
            "theta_is_zero": self.theta_is_zero,
            "theta_pushforward_zero": self.theta_pushforward_zero,
            "exists_nonzero_mu": self.exists_nonzero_mu,
            "predicate_thm_final": self.predicate_thm_final,
            "beta0_oracle": self.beta0_oracle,
            "dim_Hm_image": self.dim_Hm_image,
        }


@per_map
def dual_class_Uf(f: SimplicialMap) -> CohomologyClass:
    """Poincare dual in the codomain of the pushed-forward fundamental class."""
    m = _require_codim1_certificates(f)
    n = f.codomain
    fcm = fundamental_class(f.domain, m)
    pushed = chain_map(f, m).matvec(fcm.chain)
    cn = chain_complex(n)
    assert cn.boundary_map(m).matvec(pushed) == 0, "image chain is not a cycle"
    hm = homology_basis(cn, m)
    return poincare_dual(n, m + 1, hm.coordinates(pushed), m)


@per_map
def w1_of_map(f: SimplicialMap) -> CohomologyClass:
    """Degree-1 Stiefel-Whitney class of the stable normal bundle of f.

    Over Z2 this is f^* w1(codomain) + w1(domain); the dimension gap may
    be any nonnegative integer here (identity maps are legitimate inputs).
    """
    _require_valid(f)
    m = f.domain.dim
    n = f.codomain.dim
    if not (is_certified_manifold(f.domain, m) and is_certified_manifold(f.codomain, n)):
        raise HypothesisError("closed_manifold_certificates")
    w1_cod = w1(f.codomain, n)
    w1_dom = w1(f.domain, m)
    pulled = chain_map(f, 1).transpose().matvec(w1_cod.cocycle)
    return CohomologyClass(f.domain, 1, pulled ^ w1_dom.cocycle)


@per_map
def theta(f: SimplicialMap) -> tuple[int, HomologyBasis]:
    """Primary obstruction (f^* U_f + w1(f)) cap [M], as H_{m-1}(M) coordinates."""
    m = _require_positive_codim1(f)
    uf = dual_class_Uf(f)
    w1f = w1_of_map(f)
    pulled_uf = chain_map(f, 1).transpose().matvec(uf.cocycle)
    total = CohomologyClass(f.domain, 1, pulled_uf ^ w1f.cocycle)
    fcm = fundamental_class(f.domain, m)
    z = cap(total, fcm.chain, m)
    hm1 = homology_basis(chain_complex(f.domain), m - 1)
    return hm1.coordinates(z), hm1


def theta_pushforward_check(f: SimplicialMap) -> bool:
    """f_* theta(f) vanishes; a failure here is a bug, not a finding."""
    m = _require_positive_codim1(f)
    th, hm1 = theta(f)
    tgt = homology_basis(chain_complex(f.codomain), m - 1)
    return induced_map_from_chain_matrix(chain_map(f, m - 1), hm1, tgt).apply(th) == 0


def mu_solve(f: SimplicialMap, theta_coords: int | None = None) -> AffineSolutionSet:
    """Solve j_* mu = theta(f), (f|_A)_* mu = 0 over H_{m-1}(A;Z2).

    ``theta_coords`` (in the canonical H_{m-1}(domain) basis) may be given
    explicitly; by default it is computed from the obstruction class.
    """
    _require_valid(f)
    m = f.domain.dim
    if theta_coords is None:
        theta_coords, _ = theta(f)
    if self_intersection(f).A.is_empty():
        if theta_coords != 0:
            raise AssertionError("empty self-intersection with nonzero obstruction")
        return AffineSolutionSet(0, 0, SubspaceBasis(0, ()))
    j, f_a = self_intersection_maps(f)  # A -> M, A -> B
    j_star = induced_on_homology(j, m - 1)
    h_b = homology_basis(chain_complex(f_a.codomain), m - 1)
    fa_star = induced_map_from_chain_matrix(chain_map(f_a, m - 1), j_star.source, h_b)
    system = j_star.matrix.vstack(fa_star.matrix)
    particular = solve(system, theta_coords)  # rhs: theta then zeros
    if particular is None:
        raise AssertionError("obstruction localization system unsolvable")
    return AffineSolutionSet(j_star.source.dim, particular, kernel_basis(system))


def cor317_check(f: SimplicialMap) -> bool:
    """dim A < m-1 forces theta(f) = 0; vacuous truth is recorded as truth."""
    m = _require_positive_codim1(f)
    si = self_intersection(f)
    if si.dim_A >= m - 1:
        return True
    th, _ = theta(f)
    assert th == 0, "low-dimensional self-intersection with nonzero obstruction"
    return True


def mv_sequence_check(f: SimplicialMap) -> dict:
    """Ladder-extracted exact sequence in degrees m and m-1.

      H_m(A) -> H_m(B) + H_m(M) -> H_m(f(M)) -> H_{m-1}(A) -> H_{m-1}(B) + H_{m-1}(M)

    with alpha = ((f|_A)_*, i_*) and middle map j''_* + fbar_*; the
    connecting map factors through the chain-level excision bijection
    between relative simplices of (M, A) and (f(M), B).
    """
    _require_valid(f)
    m = f.domain.dim
    si = self_intersection(f)
    incl, f_a = self_intersection_maps(f)
    img_cx = image_complex(f)
    M = f.domain
    cM = chain_complex(M)
    cA = chain_complex(incl.domain)
    jpp = map_into(f_a.codomain, img_cx, "j''")
    fbar = SimplicialMap("fbar", M, img_cx, f.vertex_map)

    def alpha_matrix(d):
        fa_star = induced_on_homology(f_a, d)
        return fa_star.matrix.vstack(induced_on_homology(incl, d).matrix), fa_star.source

    def beta_matrix(d):
        fbar_star = induced_on_homology(fbar, d)
        return (induced_on_homology(jpp, d).matrix.hstack(fbar_star.matrix),
                fbar_star.matrix, fbar_star.target)

    # chain-level excision bijection on relative m-simplices
    def connecting_matrix(hi_m, ha_m1):
        rel_M = [s for s in M.simplices_of_dim(m) if s not in si.A.simplices]
        rel_I_index = {}
        for s in rel_M:
            img_s = f.image_simplex(s)
            assert len(img_s) == m + 1 and img_s not in si.B.simplices, \
                "excision bijection violated"
            assert img_s not in rel_I_index, "excision bijection not injective"
            rel_I_index[img_s] = s
        iM = M.simplex_index(m)
        cols = []
        for z in hi_m.representatives.vectors:
            # project the cycle on f(M) to relative chains and pull back
            zk = 0
            for i, s in enumerate(img_cx.simplices_of_dim(m)):
                if (z >> i) & 1 and s in rel_I_index:
                    zk |= 1 << iM[rel_I_index[s]]
            bz = cM.boundary_map(m).matvec(zk)
            # result must be supported on A and be a cycle there
            za = 0
            for i, s in enumerate(M.simplices_of_dim(m - 1)):
                if (bz >> i) & 1:
                    assert s in si.A.simplices, "connecting chain escapes A"
                    za |= 1 << cA.index[m - 1][s]
            cols.append(ha_m1.coordinates(za))
        return BitMatrix.from_columns(ha_m1.dim, cols)

    alpha_m, _ = alpha_matrix(m)
    beta_m, fbar_m, hi_m = beta_matrix(m)
    alpha_m1, ha_m1 = alpha_matrix(m - 1)
    delta = connecting_matrix(hi_m, ha_m1)

    exact = True
    # at H_m(B) + H_m(M)
    if not beta_m.matmul(alpha_m).is_zero():
        exact = False
    if rank(alpha_m) != beta_m.cols - rank(beta_m):
        exact = False
    # at H_m(f(M))
    if not delta.matmul(beta_m).is_zero():
        exact = False
    if rank(beta_m) != hi_m.dim - rank(delta):
        exact = False
    # at H_{m-1}(A)
    if not alpha_m1.matmul(delta).is_zero():
        exact = False
    if rank(delta) != ha_m1.dim - rank(alpha_m1):
        exact = False

    fbar_surjective = rank(fbar_m) == hi_m.dim
    return {
        "exact": exact,
        "fbar_surjective": fbar_surjective,
        "ker_alpha_dim": ha_m1.dim - rank(alpha_m1),
    }


def final_theorem_check(f: SimplicialMap) -> ObstructionReport:
    """Three-or-more components verdict under A != M, mu != 0, w1(f) = 0."""
    _require_codim1_certificates(f)
    if betti(f.codomain, 1) != 0:
        raise HypothesisError("h1_N_zero")
    rep = obstruction_summary(f)
    for name, holds in (("A_proper", rep.A_proper),
                        ("exists_nonzero_mu", rep.exists_nonzero_mu),
                        ("w1f_zero", rep.w1f_is_zero)):
        if not holds:
            raise HypothesisError(name)
    # intermediate identity from the proof: beta0 = dim H_m(f(M)) + 1
    assert rep.beta0_oracle == rep.dim_Hm_image + 1, "component-count identity violated"
    return rep


def obstruction_summary(f: SimplicialMap) -> ObstructionReport:
    """Full pipeline without the final-theorem hypothesis gate."""
    m = _require_positive_codim1(f)
    uf = dual_class_Uf(f)
    w1f = w1_of_map(f)
    th, _ = theta(f)
    push_ok = theta_pushforward_check(f)
    mu = mu_solve(f, th)
    a_proper = self_intersection(f).A.simplices != f.domain.simplices
    dim_hm_image = homology_basis(chain_complex(image_complex(f)), m).dim
    oracle = image_components(f)
    w1f_zero = cohomology_class_is_zero(w1f)
    predicate = a_proper and mu.has_nonzero() and w1f_zero
    if predicate:
        assert oracle >= 3, "three-components conclusion violated"
    return ObstructionReport(
        Uf=uf, w1f=w1f, theta_coords=th, theta_is_zero=(th == 0),
        theta_pushforward_zero=push_ok, mu_solutions=mu,
        exists_nonzero_mu=mu.has_nonzero(), all_mu_nonzero=mu.all_nonzero(),
        predicate_thm_final=predicate, beta0_oracle=oracle,
        dim_Hm_image=dim_hm_image, A_proper=a_proper,
        Uf_is_zero=cohomology_class_is_zero(uf), w1f_is_zero=w1f_zero,
    )
