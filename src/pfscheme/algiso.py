"""Algebraic isomorphisms and base-triple reconstruction of point maps.

An algebraic isomorphism is a relation bijection preserving every
intersection number.  For imprimitive equivalenced schemes whose tensor
matches a Frobenius scheme, a base triple (mu, nu, rho) with (mu, nu)
inside a parabolic e and (mu, rho) outside it coordinatizes the points:
alpha is pinned by x = r(mu, alpha) together with y = r(rho, alpha) for
in-block alpha and y = r(nu, alpha) for out-of-block alpha.  Transporting
coordinates through a relation bijection reconstructs candidate point
maps, each verified exhaustively before being reported.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .arith import sorted_unique
from .parabolic import Parabolic, enumerate_parabolics, parabolic_closure
from .scheme import IntersectionTensor, Scheme, SchemeError, _carries, partition_equal
from .tcond import check_t_condition


def _mismatched_rows(T1: IntersectionTensor, T2: IntersectionTensor,
                     mapping) -> np.ndarray:
    """The relations t, ascending, with c1[r, s, t] != c2[m r, m s, m t] for
    some r and s, where m = mapping and r, s, t range over the set A of
    relations that m assigns (mapping[x] >= 0).

    Row t of a tensor's `ref` lists the codes r * R + s of c[:, :, t] with
    their multiplicities.  So the counts agree on A x A x {t} exactly when
    the codes of ref1[t] with both parts in A, relabelled through m, are
    the codes of ref2[m t] with both parts in m(A): every other code of
    either row becomes -1, and the two rows are compared sorted.
    """
    R, dt = T1.rank, T1.ref.dtype
    m = np.asarray(mapping)
    assigned = m >= 0
    A = np.flatnonzero(assigned)
    in_image = np.zeros(R, dtype=bool)
    in_image[m[A]] = True
    # both indexed by a code r * R + s
    relabel = np.where(assigned[:, None] & assigned, m[:, None] * R + m, -1).astype(dt)
    keep = np.where(in_image[:, None] & in_image, np.arange(R * R).reshape(R, R), -1).astype(dt)
    rows1 = np.sort(relabel.ravel()[T1.ref[A]], axis=1)
    rows2 = np.sort(keep.ravel()[T2.ref[m[A]]], axis=1)
    return A[(rows1 != rows2).any(axis=1)]


class RelationBijection:
    """Color bijection with every c[r][s][t] re-verified on construction."""

    def __init__(self, source: Scheme, target: Scheme, mapping: tuple):
        if source.rank != target.rank or sorted(mapping) != list(range(source.rank)):
            raise SchemeError("mapping is not a color bijection")
        if mapping[0] != 0:
            raise SchemeError("algebraic isomorphisms fix the diagonal color")
        if source.n != target.n:
            raise SchemeError("schemes have different degrees")
        T1, T2 = source.tensor(), target.tensor()
        bad = _mismatched_rows(T1, T2, mapping)
        if len(bad):
            # the least differing (r, s, t): the least (r, s) of each bad t
            perm, cells = np.asarray(mapping), []
            for t in bad.tolist():
                c1, c2 = T1.slice(t), T2.slice(perm[t])[np.ix_(perm, perm)]
                r, s = (int(v) for v in np.argwhere(c1 != c2)[0])
                cells.append((r, s, t, int(c1[r, s]), int(c2[r, s])))
            raise SchemeError("intersection numbers differ at (%d,%d,%d): %d vs %d"
                              % min(cells))
        self.source, self.target, self.mapping = source, target, mapping

    def __getitem__(self, s: int) -> int:
        return self.mapping[s]

    def image_parabolic(self, e: Parabolic) -> Parabolic:
        rels = frozenset(self.mapping[s] for s in e.relations)
        out = parabolic_closure(self.target, rels)
        if out.relations != rels:
            raise SchemeError("relation bijection does not map the parabolic "
                              "to a parabolic")
        return out


def find_algebraic_isomorphisms(source: Scheme, target: Scheme,
                                limit: int | None = None):
    """Backtracking over color assignments; returns (isos, truncated).

    Colors are assigned in (valency, index) order with star closure and,
    as pruning, agreement of the tensor on the assigned colors
    (`_mismatched_rows`); each completed assignment is re-verified in full
    by the RelationBijection constructor.
    """
    R = source.rank
    nv1, nv2 = source.valencies(), target.valencies()
    if (target.rank != R or source.n != target.n
            or sorted(nv1) != sorted(nv2)):
        return [], False
    T1, T2 = source.tensor(), target.tensor()
    st1, st2 = source.star, target.star
    order = sorted(range(1, R), key=lambda s: (nv1[s], s))
    out: list[RelationBijection] = []
    truncated = False
    mapping = [-1] * R
    mapping[0] = 0
    used = [False] * R
    used[0] = True

    def rec(pos: int) -> bool:
        nonlocal truncated
        while pos < len(order) and mapping[order[pos]] >= 0:
            pos += 1
        if pos == len(order):
            iso = RelationBijection(source, target, tuple(mapping))
            out.append(iso)
            if limit is not None and len(out) >= limit:
                truncated = True
                return True
            return False
        s = order[pos]
        for img in range(1, R):
            if used[img] or nv1[s] != nv2[img]:
                continue
            if (st1[s] == s) != (st2[img] == img):
                continue
            newly = [s]
            mapping[s] = img
            used[img] = True
            ok = True
            if st1[s] != s:
                partner = st2[img]
                if mapping[st1[s]] >= 0:
                    ok = mapping[st1[s]] == partner
                elif used[partner]:
                    ok = False
                else:
                    mapping[st1[s]] = partner
                    used[partner] = True
                    newly.append(st1[s])
            if ok and not len(_mismatched_rows(T1, T2, mapping)) and rec(pos + 1):
                return True
            for a in newly:
                used[mapping[a]] = False
                mapping[a] = -1
        return False

    rec(0)
    return out, truncated


# -- base triples and coordinates -------------------------------------------


class BaseTriple(NamedTuple):
    mu: int
    nu: int
    rho: int


def is_base_triple(scheme: Scheme, e: Parabolic, mu: int, nu: int, rho: int) -> bool:
    """(mu, nu) inside e with mu != nu, and (mu, rho) outside e."""
    P = scheme.colors
    return (mu != nu and int(P[mu, nu]) in e.relations
            and int(P[mu, rho]) not in e.relations)


def _relation_mask(scheme: Scheme, e: Parabolic) -> np.ndarray:
    in_e = np.zeros(scheme.rank, dtype=bool)
    in_e[list(e.relations)] = True
    return in_e


def _transversal(scheme: Scheme, e: Parabolic) -> list[int]:
    """Smallest point of each class of e, ascending."""
    least = _relation_mask(scheme, e)[scheme.colors].argmax(axis=1)
    return np.flatnonzero(least == np.arange(scheme.n)).tolist()


class CoordinateMap(NamedTuple):
    """f: alpha -> (x_alpha, y_alpha), with bijectivity onto the pair set.

    The pair set depends only on (e, in_color, out_color); the counted
    size pair_count equals n exactly when f is a bijection, which is a
    tensor-level property.  in_color is r(mu, nu), inside e; out_color is
    r(mu, rho), outside e.  keys are the codes x * rank + y, sorted, and
    points[i] is the point with code keys[i] (the greatest, where codes
    repeat): f^{-1} is one searchsorted in keys.
    """

    in_color: int
    out_color: int
    x: np.ndarray
    y: np.ndarray
    keys: np.ndarray
    points: np.ndarray
    pair_count: int
    bijective: bool


def _pair_counts(scheme: Scheme, in_e: np.ndarray) -> np.ndarray:
    """[s, r]: size of the pair set of a base triple with in-colour s and
    out-colour r.

    alpha's pair is (x, y) with x = r(mu, alpha), and y ranges over the
    colours with c[x][y*][t] > 0, where t = r for x inside e and t = s
    otherwise.  So the count is a sum of one term per in-colour and one
    per out-colour, and one tensor pass per parabolic gives every key.
    The number of such y is per_x[x, t], the number of distinct codes of
    `ref[t]` (a sorted row) whose r part is x.
    """
    ref, R = scheme.tensor().ref, scheme.rank
    first = np.ones(ref.shape, dtype=bool)
    first[:, 1:] = ref[:, 1:] != ref[:, :-1]
    t_of = np.nonzero(first)[0]
    per_x = np.bincount(ref[first] // R * R + t_of, minlength=R * R).reshape(R, R)
    return per_x[~in_e].sum(axis=0)[:, None] + per_x[in_e].sum(axis=0)[None, :]


def _coordinate_map(scheme: Scheme, in_e: np.ndarray, counts: np.ndarray,
                    triple: BaseTriple) -> CoordinateMap:
    P = scheme.colors
    mu, nu, rho = triple.mu, triple.nu, triple.rho
    s_in = int(P[mu, nu])
    r_out = int(P[mu, rho])
    x = P[mu].astype(np.int64)          # widened for the codes
    y = np.where(in_e[x], P[rho], P[nu]).astype(np.int64)
    codes = x * scheme.rank + y
    points = np.argsort(codes, kind="stable").astype(np.int32)
    keys = codes[points]
    pair_count = int(counts[s_in, r_out])
    bijective = pair_count == scheme.n
    if bijective and (keys[1:] == keys[:-1]).any():
        raise AssertionError("pair-set count says bijective but coordinates collide")
    return CoordinateMap(in_color=s_in, out_color=r_out, x=x, y=y, keys=keys,
                         points=points, pair_count=pair_count, bijective=bijective)


def base_coordinates(scheme: Scheme, e: Parabolic, triple: BaseTriple) -> CoordinateMap:
    if not is_base_triple(scheme, e, triple.mu, triple.nu, triple.rho):
        raise SchemeError("not a base triple for the given parabolic")
    in_e = _relation_mask(scheme, e)
    return _coordinate_map(scheme, in_e, _pair_counts(scheme, in_e), triple)


def base_triple_counts(scheme: Scheme, e: Parabolic):
    """Pair counts of all base triples whose mu is the least point of its
    class of e, one mu at a time, mu ascending.

    Yields (mu, nus, rhos, counts), nus and rhos ascending: counts[i, j]
    is the pair count of (mu, nus[i], rhos[j]), and that triple's
    coordinate map is bijective exactly when it equals n.
    Raises AssertionError when a triple counted bijective has colliding
    coordinates.  Whether a point lies in e is read off its x, so two
    points with equal coordinates both lie inside, where y comes from the
    row of rho, or both outside, where it comes from the row of nu: the
    triple collides exactly when nu's row collides outside or rho's
    inside.
    """
    P, n = scheme.colors, scheme.n
    in_e = _relation_mask(scheme, e)
    table = _pair_counts(scheme, in_e)

    def collide(points, rows):
        """Per row a of rows: whether two of the points share (x, P[a])."""
        codes = np.sort(x[points] * scheme.rank + P[np.ix_(rows, points)], axis=1)
        return (codes[:, 1:] == codes[:, :-1]).any(axis=1)

    for mu in _transversal(scheme, e):
        x = P[mu].astype(np.int64)      # widened for the codes of `collide`
        inside = in_e[x]
        members = np.flatnonzero(inside)
        nus = members[members != mu]
        rhos = np.flatnonzero(~inside)
        counts = table[x[nus][:, None], x[rhos][None, :]]
        bad = collide(rhos, nus)[:, None] | collide(members, rhos)[None, :]
        if (bad & (counts == n)).any():
            raise AssertionError("pair-set count says bijective but coordinates collide")
        yield mu, nus, rhos, counts


# -- induced point maps ------------------------------------------------------


def induced_point_map(psi: RelationBijection, f1: CoordinateMap,
                      f2: CoordinateMap) -> np.ndarray | None:
    """Compose f1, the color transport, and f2^{-1} (one searchsorted in
    f2's keys); None if a pair is missing."""
    perm = np.asarray(psi.mapping)
    want = perm[f1.x] * len(perm) + perm[f1.y]
    at = np.searchsorted(f2.keys, want, side="right") - 1
    if at.min() < 0 or not np.array_equal(f2.keys[at], want):
        return None
    return f2.points[at]


class InducedIsomorphism(NamedTuple):
    psi: RelationBijection
    tau: BaseTriple
    tau_prime: BaseTriple
    g: np.ndarray


def _first_valid_triple(scheme: Scheme, e: Parabolic):
    """The first bijective triple of `base_triple_counts`, in the order
    (mu, nu, rho), and its coordinate map; (None, None) when none is."""
    for mu, nus, rhos, counts in base_triple_counts(scheme, e):
        hits = np.argwhere(counts == scheme.n)
        if len(hits):
            triple = BaseTriple(mu, int(nus[hits[0, 0]]), int(rhos[hits[0, 1]]))
            in_e = _relation_mask(scheme, e)
            return triple, _coordinate_map(scheme, in_e, _pair_counts(scheme, in_e), triple)
    return None, None


def _verified_maps(source: Scheme, target: Scheme, psi: RelationBijection, mus):
    """Yield (e, tau, tau2, g) for every verified point map g inducing psi.

    e is the first nontrivial parabolic of the source, and tau is its
    first bijective base triple.  tau2 runs over the target triples (mu2
    in `mus`, or every point when it is None) carrying the psi-images of
    tau's three colours; each transported coordinate map g is verified
    before it is yielded.  Any point map inducing psi sends tau to such a
    triple, so the scan finds every one.
    """
    e = next((p for p in enumerate_parabolics(source)
              if not p.is_trivial() and not p.is_full()), None)
    if e is None:
        raise SchemeError("base-triple reconstruction needs a nontrivial parabolic")
    e2 = psi.image_parabolic(e)
    tau, f1 = _first_valid_triple(source, e)
    if tau is None:
        raise SchemeError("no bijective base triple exists for the parabolic")
    in_e2 = _relation_mask(target, e2)
    counts2 = _pair_counts(target, in_e2)
    # the image in the colours' dtype: each map's n^2 gather and
    # comparison move the fewest bytes
    P2 = target.colors
    image = np.asarray(psi.mapping, dtype=P2.dtype)[source.colors]
    s2, r2 = psi[f1.in_color], psi[f1.out_color]
    t2 = psi[int(source.colors[tau.nu, tau.rho])]
    # psi preserves the tensor, so every tau2 has tau's pair count n:
    # its coordinate map is bijective.
    for mu2 in range(target.n) if mus is None else mus:
        for nu2 in np.flatnonzero(P2[mu2] == s2):
            for rho2 in np.flatnonzero((P2[mu2] == r2) & (P2[nu2] == t2)):
                tau2 = BaseTriple(int(mu2), int(nu2), int(rho2))
                g = induced_point_map(psi, f1, _coordinate_map(target, in_e2, counts2, tau2))
                if g is not None and _carries(g, P2, image):
                    yield e, tau, tau2, g


def induced_isomorphism(source: Scheme, target: Scheme, psi: RelationBijection,
                        mu_candidates=None) -> InducedIsomorphism | None:
    """First verified point map inducing psi, or None if there is none.

    One bijective base triple tau of the source is fixed; tau' runs over
    every target triple carrying the psi-images of tau's three colors.
    Any point map inducing psi sends tau to such a triple, so the scan
    decides inducedness of psi completely.
    """
    found = next(_verified_maps(source, target, psi, mu_candidates), None)
    if found is None:
        return None
    _, tau, tau2, g = found
    return InducedIsomorphism(psi=psi, tau=tau, tau_prime=tau2, g=g)


# -- constructive schurity ----------------------------------------------------


class SchurityResult(NamedTuple):
    schurian: bool
    four_condition_passed: bool
    automorphisms: np.ndarray      # int32, one verified map per row
    group_order: int
    relation_transitive: tuple
    orbital_scheme_equal: bool
    parabolic_rels: tuple
    tau: tuple | None
    reason: str


def _symmetric_group_result(scheme: Scheme) -> SchurityResult:
    """A transposition and an n-cycle, both verified, generate S_n, whose
    orbitals are the diagonal and its complement."""
    n, P = scheme.n, scheme.colors
    gens = np.array([[1, 0, *range(2, n)], [*range(1, n), 0]] if n >= 2 else [],
                    dtype=np.int32).reshape(-1, n)
    if not all(_carries(g, P, P) for g in gens):
        raise AssertionError("symmetric generator is not an automorphism")
    return SchurityResult(schurian=True, four_condition_passed=True,
                          automorphisms=gens, group_order=math.factorial(n),
                          relation_transitive=tuple([True] * scheme.rank),
                          orbital_scheme_equal=partition_equal(np.eye(n, dtype=np.int64), P),
                          parabolic_rels=(), tau=None, reason="rank <= 2")


def schurity_via_base_triples(scheme: Scheme) -> SchurityResult:
    """Certify schurity by reconstructing automorphisms from base triples.

    Requires the 4-condition, which is checked first.  One bijective base
    triple tau is fixed; for every triple tau' carrying the same three
    colors the transported coordinate map is built and verified.  Each
    automorphism sends tau to such a triple and is fixed by it, so the
    maps are the whole group G (the orbit-stabilizer equation is
    asserted).  They are distinct, as each sends tau to its own tau', the
    points with tau's coordinates.  G must be transitive, and the orbits
    of its stabilizer of 0 must be the colour classes of row 0.  The maps
    are the rows of one int32 array.
    """
    if scheme.rank <= 2:
        return _symmetric_group_result(scheme)
    if not check_t_condition(scheme, 4).passed:
        return SchurityResult(
            schurian=False, four_condition_passed=False,
            automorphisms=np.empty((0, scheme.n), dtype=np.int32),
            group_order=0, relation_transitive=tuple([False] * scheme.rank),
            orbital_scheme_equal=False, parabolic_rels=(), tau=None,
            reason="4-condition fails; reconstruction not applicable")
    identity = RelationBijection(scheme, scheme, tuple(range(scheme.rank)))
    maps = _verified_maps(scheme, scheme, identity, None)
    first = next(maps, None)
    if first is None:
        raise SchemeError("no verified automorphism arises from the base triple")
    e, tau, _, g = first
    n, P0 = scheme.n, scheme.colors[0]
    A = np.fromiter(itertools.chain([g], (h for *_, h in maps)), dtype=np.dtype((np.int32, (n,))))
    orbit, stab = sorted_unique(A[:, 0]), A[A[:, 0] == 0]
    if len(A) != len(orbit) * len(stab):
        raise AssertionError("verified maps break the orbit-stabilizer equation")
    # each stabilizer orbit named by its least point; row 0 meets every
    # orbital of a transitive group
    transitive, least = len(orbit) == n, stab.min(axis=0)
    spread = np.bincount(sorted_unique(P0.astype(np.int64) * n + least) // n,
                         minlength=scheme.rank)
    rel_trans = tuple((transitive & (spread == 1)).tolist())
    eq = transitive and partition_equal(least, P0)
    schurian = eq and all(rel_trans)
    return SchurityResult(
        schurian=schurian, four_condition_passed=True,
        automorphisms=A, group_order=len(A),
        relation_transitive=rel_trans, orbital_scheme_equal=eq,
        parabolic_rels=tuple(sorted(e.relations)), tau=tuple(tau),
        reason="verified base-triple automorphisms" if schurian
        else "generated group misses some relation")
