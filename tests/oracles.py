"""Exact references for the kernels of `pfscheme`, for the tests only.

Each function here computes what a kernel computes, the slow and plain
way: per-point loops, dict lookups, dense tensors, pair scans and
exhaustive enumerations.  A test compares a kernel with its reference on
the schemes of `corpus`, so a new shortcut is checked by one more entry in
such a comparison.  Nothing here imports a test module.
"""

import hashlib
from math import gcd

import numpy as np

from pfscheme import parabolic
from pfscheme import tcond as tcond_mod
from pfscheme.algiso import BaseTriple
from pfscheme.arith import d3_cases, difference_table, digit_add, digit_strides, divisors, prime_power
from pfscheme.frobenius import ClassificationProfile, _element_orders, chain_sections, invariant_lattice
from pfscheme.gf import GF
from pfscheme.lattice import JoinLattice, bits_of, indices_of
from pfscheme.parabolic import _verdict_from_chains, enumerate_parabolics
from pfscheme.scheme import NotCoherentError, Scheme, SchemeError, _carries, canonical_relabel, compute_tensor
from pfscheme.tcond import TConditionReport, TConditionWitness


# -- the intersection tensor and the WL closure ----------------------------


def reference_tensor(scheme):
    """compute_tensor as a per-point n x R^2 histogram pass (the reference),
    on the colours widened to int64."""
    P = scheme.colors.astype(np.int64)
    n, R = scheme.n, scheme.rank
    reps = [scheme.representative(t) for t in range(R)]
    claimed = np.zeros((R, R * R), dtype=np.int64)
    for t, (a, b) in enumerate(reps):
        claimed[t] = np.bincount(P[a, :] * R + P[:, b], minlength=R * R)
    offsets = np.arange(n, dtype=np.int64)[None, :] * (R * R)
    for a in range(n):
        codes = P[a, :, None] * R + P
        hist = np.bincount((codes + offsets).ravel(), minlength=n * R * R)
        hist = hist.reshape(n, R * R)
        expect = claimed[P[a]]
        if not np.array_equal(hist, expect):
            b = int(np.nonzero((hist != expect).any(axis=1))[0][0])
            cell = int(np.nonzero(hist[b] != expect[b])[0][0])
            r, s = divmod(cell, R)
            t = int(P[a, b])
            raise NotCoherentError(r, s, t, reps[t], (a, b),
                                   int(expect[b, cell]), int(hist[b, cell]))
    return claimed.reshape(R, R, R).transpose(1, 2, 0)


def reference_wl_closure(colors):
    """wl_closure with one Python dict lookup per pair (the reference)."""
    M = np.asarray(colors, dtype=np.int64)
    n = M.shape[0]
    base = int(M.max()) + 1
    keys = np.eye(n, dtype=np.int64) * (base * base) + M * base + M.T
    _, P = np.unique(keys, return_inverse=True)
    P = P.reshape(n, n).astype(np.int64)
    R = int(P.max()) + 1
    while True:
        sig_ids = {}
        newP = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            V = P[a, :, None] * R + P
            V.sort(axis=0)
            cols = V.T.copy()
            for b in range(n):
                newP[a, b] = sig_ids.setdefault((int(P[a, b]), cols[b].tobytes()),
                                                len(sig_ids))
        if len(sig_ids) == R:
            break
        P, R = newP, len(sig_ids)
    return canonical_relabel(P)


def dense_tensor(T):
    """The dense (R, R, R) int64 array c[r, s, t] of a tensor, one
    `slice(t)` per t (the test oracle for readers of the counts)."""
    c = np.empty((T.rank,) * 3, dtype=np.int64)
    for t in range(T.rank):
        c[:, :, t] = T.slice(t)
    return c


def kernel_tensor(scheme):
    return dense_tensor(compute_tensor(scheme))


def reference_verify_triangle(T):
    """verify_triangle on four R^3 temporaries (the reference)."""
    nv = np.asarray(T.valencies, dtype=np.int64)
    st = np.asarray(T.star)
    D = dense_tensor(T)[:, :, st]
    a = nv[None, None, :] * D
    b = nv[:, None, None] * D.transpose(2, 0, 1)
    cc = nv[None, :, None] * D.transpose(1, 2, 0)
    if not (np.array_equal(a, b) and np.array_equal(a, cc)):
        bad = np.argwhere((a != b) | (a != cc))[0]
        raise SchemeError("triangle identity fails at (r,s,t)=%s" % (tuple(int(x) for x in bad),))


def reference_digit_table(p, k):
    """D[a, b] = b - a in (Z_p)^k on little-endian base-p digits."""
    n = p ** k
    D = np.zeros((n, n), dtype=np.int64)
    for j in range(k):
        digit = np.arange(n) // p ** j % p
        D += (digit[None, :] - digit[:, None]) % p * p ** j
    return D


# -- the t-condition --------------------------------------------------------


def reference_signature(P, R, a, b, t):
    """Sorted (codes, counts) histogram of the pair's pattern codes, through
    np.unique on the unsorted codes (the reference)."""
    if t == 3:
        codes = P[a].astype(np.int64) * R + P[b]
    else:
        A = P[a][:, None].astype(np.int64)
        B = P[b][:, None]
        C = P[a][None, :]
        D = P[b][None, :]
        codes = ((((A * R + B) * R + C) * R + D) * R + P).ravel()
    return np.unique(codes, return_counts=True)


def reference_witness(scheme, a, b, ra, rb, t):
    """The deviating histogram cell through union1d and searchsorted (the
    reference): (code, ref_count, count)."""
    P, R = scheme.colors, scheme.rank
    v1, c1 = reference_signature(P, R, ra, rb, t)
    v2, c2 = reference_signature(P, R, a, b, t)
    allv = np.union1d(v1, v2)
    i1 = np.minimum(np.searchsorted(v1, allv), len(v1) - 1)
    i2 = np.minimum(np.searchsorted(v2, allv), len(v2) - 1)
    f1 = np.where(v1[i1] == allv, c1[i1], 0)
    f2 = np.where(v2[i2] == allv, c2[i2], 0)
    j = int(np.nonzero(f1 != f2)[0][0])
    return int(allv[j]), int(f1[j]), int(f2[j])


def reference_fingerprint(vals, counts):
    """blake2b of np.unique's histogram, the int64 bytes of the distinct
    codes and then of their counts (the reference for the streamed
    fingerprint)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(vals.astype(np.int64).tobytes())
    h.update(counts.astype(np.int64).tobytes())
    return h.hexdigest()


def reference_t_condition(scheme, t):
    """Row-major scan that fingerprints every pair's histogram and compares
    it with its colour's first pair (the reference).  Row 0 alone when the
    scheme is certified, like the kernel."""
    P, R, n = scheme.colors, scheme.rank, scheme.n
    rows = range(1) if scheme.translations is not None else range(n)
    ref_pair, ref_fp = {}, {}

    def report(passed, pairs_checked, witness=None):
        return TConditionReport(
            t=t, passed=passed, n=n, rank=R, scheme_fingerprint=scheme.fingerprint(),
            pairs_checked=pairs_checked,
            class_fingerprints=tuple(ref_fp[c] for c in sorted(ref_fp)),
            witness=witness)

    for a in rows:
        for b in range(n):
            r = int(P[a, b])
            fp = reference_fingerprint(*reference_signature(P, R, a, b, t))
            if r not in ref_fp:
                ref_fp[r], ref_pair[r] = fp, (a, b)
            elif fp != ref_fp[r]:
                ra, rb = ref_pair[r]
                code, ref_count, count = reference_witness(scheme, a, b, ra, rb, t)
                return report(False, a * n + b + 1, TConditionWitness(
                    alpha=a, beta=b, color=r, ref_alpha=ra, ref_beta=rb, code=code,
                    pattern=tcond_mod._decode(code, R, t),
                    ref_count=ref_count, count=count))
    return report(True, n * n)


# -- algebraic isomorphisms and induced maps --------------------------------


def dense_isomorphisms(source, target, limit=None):
    """find_algebraic_isomorphisms with its pruning read triple by triple
    off the dense tensors (the reference); returns the mappings."""
    R = source.rank
    c1, c2 = dense_tensor(source.tensor()), dense_tensor(target.tensor())
    nv1, nv2 = source.valencies(), target.valencies()
    st1, st2 = source.star, target.star
    order = sorted(range(1, R), key=lambda s: (nv1[s], s))
    out, m, used = [], [0] + [-1] * (R - 1), [True] + [False] * (R - 1)

    def consistent(newly):
        assigned = [s for s in range(R) if m[s] >= 0]
        return all(c1[a, x, y] == c2[m[a], m[x], m[y]]
                   and c1[x, a, y] == c2[m[x], m[a], m[y]]
                   and c1[x, y, a] == c2[m[x], m[y], m[a]]
                   for a in newly for x in assigned for y in assigned)

    def rec(pos):
        while pos < len(order) and m[order[pos]] >= 0:
            pos += 1
        if pos == len(order):
            out.append(tuple(m))
            return len(out) == limit
        s = order[pos]
        for img in range(1, R):
            if used[img] or nv1[s] != nv2[img] or (st1[s] == s) != (st2[img] == img):
                continue
            newly, ok = [s], True
            m[s], used[img] = img, True
            if st1[s] != s:
                partner = st2[img]
                if m[st1[s]] >= 0:
                    ok = m[st1[s]] == partner
                elif used[partner]:
                    ok = False
                else:
                    m[st1[s]], used[partner] = partner, True
                    newly.append(st1[s])
            if ok and consistent(newly) and rec(pos + 1):
                return True
            for a in newly:
                used[m[a]], m[a] = False, -1
        return False

    rec(0)
    return out


def reference_induced_point_map(psi, f1, f2):
    """The dict lookup of f2^{-1} that `induced_point_map` replaced: the
    last point with a pair wins."""
    point_of = {pair: alpha for alpha, pair in enumerate(zip(f2.x.tolist(), f2.y.tolist()))}
    perm = np.asarray(psi.mapping)
    xs, ys = perm[f1.x], perm[f1.y]
    g = np.empty(len(xs), dtype=np.int64)
    for alpha in range(len(xs)):
        beta = point_of.get((int(xs[alpha]), int(ys[alpha])))
        if beta is None:
            return None
        g[alpha] = beta
    return g


def reference_base_triples(scheme, e):
    """Every base triple (mu, nu, rho) of the parabolic e whose mu is the
    least point of its class, one at a time in lexicographic order: the
    order in which `base_triple_counts` lists them."""
    inside = [r in e.relations for r in range(scheme.rank)]
    for mu in range(scheme.n):
        row = scheme.colors[mu].tolist()
        if next(a for a, c in enumerate(row) if inside[c]) != mu:
            continue                    # a smaller point shares mu's class
        for nu, c in enumerate(row):
            if inside[c] and nu != mu:
                for rho, d in enumerate(row):
                    if not inside[d]:
                        yield BaseTriple(mu, nu, rho)


# -- parabolics -------------------------------------------------------------


def union_find(labels, pairs):
    """Merge the classes of each pair, starting from `labels` (each point's
    least class mate); returns the merged labels."""
    parent = list(labels)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(len(parent))]


def relation_pairs(scheme, s):
    """Pairs a < b in relation s or its transpose."""
    P = scheme.colors
    return np.argwhere(np.triu((P == s) | (P == scheme.star[s]), 1)).tolist()


def union_find_classes(scheme, rels):
    labels = list(range(scheme.n))
    for s in rels:
        labels = union_find(labels, relation_pairs(scheme, s))
    return np.array(labels)


def exhaustive_parabolics(scheme):
    """Every relation subset that covers exactly the pairs inside its
    union-find classes, as sorted (n_e, relations); rank <= 12 only."""
    assert scheme.rank <= 12
    pairs = [relation_pairs(scheme, s) for s in range(scheme.rank)]
    labels = {0: list(range(scheme.n))}     # bit s - 1 stands for relation s
    out = []
    for bits in range(1 << (scheme.rank - 1)):
        if bits:
            top = bits.bit_length()
            labels[bits] = union_find(labels[bits ^ 1 << (top - 1)], pairs[top])
        comp = np.array(labels[bits])
        rels = [0] + [s for s in range(1, scheme.rank) if bits >> (s - 1) & 1]
        if np.unique(scheme.colors[comp[:, None] == comp[None, :]]).tolist() == rels:
            out.append((int(np.count_nonzero(comp == 0)), tuple(rels)))
    return sorted(out)


def pairwise_divide_records(scheme):
    """(n_lower, n_upper, quotient, ok) of every nested parabolic pair, by
    a frozenset `<` test on every ordered pair of `enumerate_parabolics`
    in row-major order (the reference)."""
    k = scheme.is_equivalenced()
    paras = enumerate_parabolics(scheme)
    return [(e1.n_e, e2.n_e, e2.n_e // e1.n_e, (e2.n_e // e1.n_e - 1) % k == 0)
            for e1 in paras for e2 in paras if e1.relations < e2.relations]


def squaring_closure(scheme, rels):
    """(relations, n_e) of the closure by squaring, the path of a scheme
    without the Z_n certificate (the reference)."""
    mask = np.zeros(scheme.rank, dtype=bool)
    mask[0] = True
    for r in rels:
        mask[[r, scheme.star[r]]] = True
    block = parabolic._squaring_class(scheme.colors, mask)
    return frozenset(np.unique(scheme.colors[0, block]).tolist()), int(block.sum())


def _reference_chain_verdict(n, k, sizes, incl):
    """The verdict scan as plain loops over (i, j[, l]) in size order."""
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    for i in order:
        for j in order:
            if incl[i, j]:
                for l in order:
                    if incl[j, l]:
                        return "long-chain", (1, sizes[i], sizes[j], sizes[l], n)
    for i in order:
        for j in order:
            if incl[i, j]:
                mset = tuple(sorted((sizes[i] - 1, sizes[j] // sizes[i] - 1,
                                     n // sizes[j] - 1)))
                if mset != (k, k, k) and mset != tuple(sorted((k, k, 2 * k))):
                    return "multiset", (sizes[i], sizes[j]) + mset
    return None, ()


# -- the join-closure engine ------------------------------------------------


def reference_covers(inclusion):
    """The earlier cover test: OR the outer products through every member."""
    between = np.zeros_like(inclusion)
    for k in np.flatnonzero(inclusion.any(axis=0) & inclusion.any(axis=1)):
        between |= inclusion[:, k, None] & inclusion[None, k, :]
    return inclusion & ~between


def reference_join_closure(seeds, top, join) -> JoinLattice:
    """The earlier engine: every new member is joined against every earlier
    one (a pair scan), and inclusion is tested pairwise after the scan."""
    top_bits, n = top
    half = n // 2
    divs = divisors(n)
    members, sizes = [], []
    by_size, known, floors = {}, set(), {}

    def add(bits, size):
        if bits not in known:
            known.add(bits)
            members.append(bits)
            sizes.append(size)
            by_size.setdefault(size, []).append(bits)

    for bits, size in seeds:
        add(bits, size)
    add(top_bits, n)
    i = 0
    while i < len(members):
        a, la = members[i], sizes[i]
        above = {}
        for j in range(i):
            b, lb = members[j], sizes[j]
            floor = floors.get((la, lb))
            if floor is None:
                lcm = la * lb // gcd(la, lb)
                floor = floors[la, lb] = next(
                    (d for d in divs if d % lcm == 0 and d > max(la, lb)), n)
            if floor > half:
                continue
            if (la % lb == 0 and b & ~a == 0) or (lb % la == 0 and a & ~b == 0):
                continue
            ups = above.get(floor)
            if ups is None:
                ups = above[floor] = [s for s in by_size.get(floor, ()) if a & ~s == 0]
            if any(b & ~s == 0 for s in ups):
                continue
            bits, size = join(a, b)
            if bits not in known:
                add(bits, size)
                if size in above:
                    above[size].append(bits)
        i += 1

    order = sorted(range(len(members)),
                   key=lambda i: (sizes[i], indices_of(members[i]).tolist()))
    members = [members[i] for i in order]
    sizes = [sizes[i] for i in order]
    m = len(members)
    incl = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            if sizes[i] < sizes[j] and members[i] & ~members[j] == 0:
                incl[i, j] = True
    cov = reference_covers(incl)
    longest, shortest = [0] * m, [0] * m
    for j in range(1, m):
        preds = np.flatnonzero(cov[:, j])
        longest[j] = max(longest[p] for p in preds) + 1
        shortest[j] = min(shortest[p] for p in preds) + 1
    return JoinLattice(members=members, sizes=sizes, inclusion=incl,
                       longest=longest[-1], shortest=shortest[-1])


# -- Frobenius specs: the invariant lattice and its chain -------------------


def _least_cover_chain(lat):
    """Indices of the chain that steps to the first cover each time: the
    least member above the current one that has nothing strictly between."""
    incl = lat.inclusion
    chain = [0]
    while chain[-1] != len(lat.subgroups) - 1:
        above = incl[chain[-1]]
        between = incl[above].any(axis=0)
        chain.append(int(np.flatnonzero(above & ~between)[0]))
    return chain


def _lattice_route(spec):
    """(sections, profile, verdict) as read off the whole invariant lattice."""
    lat = invariant_lattice(spec)
    n, k, d = spec.kernel_order, spec.complement_order, lat.d
    sections = chain_sections(spec, [lat.subgroups[i] for i in _least_cover_chain(lat)])
    cases = d3_cases(n, k, sections) if d == 3 else ()
    if d <= 1:
        return sections, ClassificationProfile(
            n=n, k=k, pi=lat.pi, d=d, primitive=True, in_table=False, section_degrees=(),
            section_ranks=(), d3_cases=(), verdict="primitive"), None
    in_table = len(lat.pi) in (1, 2) and d in (2, 3)
    profile = ClassificationProfile(
        n=n, k=k, pi=lat.pi, d=d, primitive=False, in_table=in_table,
        section_degrees=tuple(s.degree for s in sections),
        section_ranks=tuple(s.rank for s in sections), d3_cases=cases,
        verdict="open" if in_table and (d == 2 or cases) else "excluded")
    nt = [i for i, s in enumerate(lat.subgroups) if 1 < s.order < n]
    verdict = _verdict_from_chains(n, k, [lat.subgroups[i].order for i in nt],
                                   lat.inclusion[np.ix_(nt, nt)], d, cases)
    return sections, profile, verdict


def _close_orbit(spec, gens):
    """The subgroup generated by the kernel elements `gens`, by adding
    them until the point mask stops growing."""
    seen = np.zeros(spec.kernel_order, dtype=bool)
    seen[0] = seen[gens] = True
    while True:
        grown = seen.copy()
        grown[digit_add(np.flatnonzero(seen)[:, None], gens[None, :], spec.radices)] = True
        if np.array_equal(grown, seen):
            return seen
        seen = grown


def reference_principal_subgroups(spec):
    """Close the complement orbit of every element of prime power order,
    one orbit at a time, as a set of (bitset, order)."""
    n = spec.kernel_order
    orders = _element_orders(spec)
    out = {(1, 1)}
    done = np.zeros(n, dtype=bool)
    for i in range(1, n):
        if done[i] or not prime_power(int(orders[i])):
            continue
        gens = np.unique(spec.complement[:, i])
        done[gens] = True
        seen = _close_orbit(spec, gens)
        if seen.sum() < n:
            out.add((bits_of(seen), int(seen.sum())))
    return out


def reference_principal_subgroup_list(spec):
    """One closure per element x of prime power order whose class (its
    complement orbit times the units modulo ord x) holds no smaller
    element, one orbit at a time, in ascending x: a list of (bitset, order)."""
    n = spec.kernel_order
    orders = _element_orders(spec)
    strides = np.asarray(digit_strides(spec.radices))
    radices = np.asarray(spec.radices)
    out = [(1, 1)]
    done = np.zeros(n, dtype=bool)
    for x in range(1, n):
        o = int(orders[x])
        if done[x] or not prime_power(o):
            continue
        units = np.array([m for m in range(1, o) if gcd(m, o) == 1])
        done[spec.complement[:, units[:, None] * (x // strides % radices) % radices @ strides]] = True
        seen = _close_orbit(spec, np.unique(spec.complement[:, x]))
        if seen.sum() <= n // 2:
            out.append((bits_of(seen), int(seen.sum())))
    return out


# -- permutation groups and automorphism search -----------------------------


def reference_orbitals(G) -> list[int]:
    """Orbital labels of all n^2 pairs by BFS over every generator."""
    n = G.degree
    labels = [-1] * (n * n)
    gens = [g.images for g in G.generators]
    cls = 0
    for start in range(n * n):
        if labels[start] != -1:
            continue
        labels[start] = cls
        frontier = [start]
        while frontier:
            nxt = []
            for code in frontier:
                a, b = divmod(code, n)
                for img in gens:
                    c = img[a] * n + img[b]
                    if labels[c] == -1:
                        labels[c] = cls
                        nxt.append(c)
            frontier = nxt
        cls += 1
    return labels


def reference_solutions(search, partial, limit=None, levels=None):
    """`_Search.solutions` as it was before forced branches were completed
    in one step: one point per step, two n x n comparisons each.  Appends
    to `levels` the number of branch points above each branch point."""
    img, cand = search._start(partial)
    P, found = search.P, 0
    stack = [(img, cand, 0)]
    while stack:
        img, cand, level = stack.pop()
        while True:
            unassigned = np.nonzero(img < 0)[0]
            if len(unassigned) == 0:
                assert _carries(img, P, P)
                yield img
                found += 1
                if limit is not None and found >= limit:
                    return
                break
            counts = cand[unassigned].sum(axis=1)
            pos = int(np.argmin(counts))
            u, m = int(unassigned[pos]), int(counts[pos])
            if m == 0:
                break
            vs = np.nonzero(cand[u])[0]
            if m > 1:
                if levels is not None:
                    levels.append(level)
                for v in vs[:0:-1]:
                    img2, cand2 = img.copy(), cand.copy()
                    img2[u] = v
                    cand2 &= np.equal.outer(P[:, u], P[:, int(v)])
                    cand2 &= np.equal.outer(P[u, :], P[int(v), :])
                    stack.append((img2, cand2, level + 1))
                level += 1
            v = int(vs[0])
            img[u] = v
            cand &= np.equal.outer(P[:, u], P[:, v])
            cand &= np.equal.outer(P[u, :], P[v, :])


# -- spreads ----------------------------------------------------------------


def reference_spread_colors(spread):
    """The scalar construction: an F.sub table colours (a, b) by the
    component of a - b."""
    q, F = spread.q, GF(spread.q)
    sub = np.array([[F.sub(i, j) for j in range(q)] for i in range(q)])
    idx = np.arange(spread.n)
    x, y = idx % q, idx // q
    diff = sub[x[:, None], x[None, :]] + sub[y[:, None], y[None, :]] * q
    colors = spread.component_of()[diff] + 1
    np.fill_diagonal(colors, 0)
    return colors


def reference_closed(spread) -> bool:
    """The scalar closure loop: F.add on both coordinates of every pair of
    vectors in a component stays in it."""
    q, F = spread.q, GF(spread.q)
    for comp in spread.components:
        cs = set(comp)
        for u in comp:
            for v in comp:
                if F.add(u % q, v % q) + F.add(u // q, v // q) * q not in cs:
                    return False
    return True


def pairwise_spread_scheme(spread):
    """The spread scheme built on all n^2 pairs: the component of each
    digitwise difference, with the diagonal as colour 0."""
    colors = spread.component_of()[difference_table([spread.p] * (2 * spread.e))] + 1
    np.fill_diagonal(colors, 0)
    return Scheme(colors)
