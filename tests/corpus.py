"""Named schemes for the tests, built once per session.

`scheme(name)` returns a new `Scheme` on every call.  The session keeps
the builder's read-only colour array and the radices the builder
certified, if any (`frobenius_scheme`'s mixed radices, for one, which
the colours alone do not give back).  `build(name)` returns the
builder's own output, built afresh.  No tensor or parabolic
lattice carries from one call to the next, so a test that patches a
kernel runs the patched kernel on a corpus scheme.  A scheme is built
when first asked for: ask before patching anything its builder runs.

`names(*families, max_n=...)` lists the names of some families up to an
order, in definition order, so that a comparison reads "every scheme of
these families up to n" and grows with the corpus.  The families:

- "catalog": the orbital schemes of `batch_specs()`, under their names;
- "spread": the Desarguesian and Hall spread schemes up to q = 16;
- "thin": the thin schemes of Z_n and of two elementary abelian groups;
- "cycle": the WL closures of the n-cycles (the circulants of the
  benchmark's `classify wl` jobs among them);
- "units": the WL closures of circulants built from unit groups;
- "graph": the Petersen, rook, Shrikhande and Paley graphs, and the
  graph of a rigid Latin square, coherent but without a certificate;
- "variant": schemes made from others by permuting points or by
  swapping the colours of two symmetric pairs, and the colourings of
  three cycles (incoherent ones);
- "random": seeded symmetric Z_n-invariant colourings, mostly not
  coherent.

Beside them are the colourings the closures start from, the helpers
that make variants, and `write_scheme`, which writes a scheme file as
the CLI reads it.  Nothing here imports a test module.
"""

import json
from functools import cache, partial

import numpy as np

from pfscheme.arith import difference_table
from pfscheme.catalog import batch_specs
from pfscheme.circulants import CirculantSpec, circulant_from_connection, color_matrix, frobenius_circulant
from pfscheme.scheme import Scheme, canonical_relabel, frobenius_scheme, wl_closure
from pfscheme.spreads import desarguesian_spread, hall_spread, spread_scheme

# -- colourings -------------------------------------------------------------


def zn_table(n):
    """The thin colouring of Z_n: (a, b) has colour b - a mod n."""
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


def graph_coloring(n, edges):
    """0 on the diagonal, 1 on the (symmetric) edges, 2 elsewhere."""
    M = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(M, 0)
    for i, j in edges:
        M[i, j] = M[j, i] = 1
    return M


def cycle_coloring(n):
    return graph_coloring(n, [(i, (i + 1) % n) for i in range(n)])


def complete_colors(n):
    M = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(M, 0)
    return M


def cyclic_colors(n):
    """The difference classes of Z_n folded by negation: (a, b) has colour
    min(d, n - d) for d = b - a mod n."""
    D = zn_table(n)
    return np.minimum(D, n - D)


def petersen_coloring():
    verts = [frozenset(p) for p in
             ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))]
    return graph_coloring(10, [(i, j) for i in range(10) for j in range(10)
                               if i != j and not verts[i] & verts[j]])


def rook_coloring():
    """The line graph of K_{4,4}: srg(16, 6, 2, 2)."""
    return graph_coloring(16, [(i, j) for i in range(16) for j in range(16)
                               if i != j and (i // 4 == j // 4 or i % 4 == j % 4)])


def shrikhande_coloring():
    """The Cayley graph of Z_4 x Z_4 with connection {+-(1,0), +-(0,1),
    +-(1,1)}: srg(16, 6, 2, 2), the rook graph's parameters."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return graph_coloring(16, [(x, y) for x in range(16) for y in range(16)
                               if ((y // 4 - x // 4) % 4, (y % 4 - x % 4) % 4) in conn])


def latin_square_coloring():
    """The graph of an order-8 Latin square: cells are adjacent when they
    share a row, a column or a symbol.  No automorphism but the identity
    fixes a point, and none maps 0 to 1."""
    rows = "34265017 01536274 43157602 75624130 10743526 52370461 67012345 26401753"
    L = np.array([[int(x) for x in row] for row in rows.split()])
    r, c = np.divmod(np.arange(L.size), len(L))
    sym = L[r, c]
    M = np.where((r[:, None] == r) | (c[:, None] == c) | (sym[:, None] == sym), 1, 2)
    np.fill_diagonal(M, 0)
    return M


def paley_coloring():
    n = 13
    squares = {x * x % n for x in range(1, n)}
    return graph_coloring(n, [(i, j) for i in range(n) for j in range(n)
                              if i != j and (j - i) % n in squares])


# -- variants ---------------------------------------------------------------


def swap_pairs(P, first, second):
    """P with the colours of two pairs swapped, and of their transposes:
    still a valid scheme colouring, but rarely a coherent one."""
    Q = np.array(P)
    (a, b), (c, d) = first, second
    Q[a, b], Q[c, d] = Q[c, d], Q[a, b]
    Q[b, a], Q[d, c] = Q[d, c], Q[b, a]
    return Q


def swap_symmetric_pairs(P, rng):
    """Swap the colours of two random pairs of different colours, and of
    their transposes, so the result is still a valid (but rarely coherent)
    scheme."""
    n = P.shape[0]
    while True:
        a, b, c, d = (int(x) for x in rng.integers(0, n, size=4))
        if a != b and c != d and {a, b} != {c, d} and P[a, b] != P[c, d]:
            return Scheme(swap_pairs(P, (a, b), (c, d)))


def perturbed(s):
    """Swap the colours of (0, 1) and of the first (0, b) of another colour,
    and of their transposes: still a scheme by C1 and C2, but not coherent."""
    P = s.colors
    b = int(np.flatnonzero((P[0] != P[0, 1]) & (P[0] != 0))[0])
    return Scheme(swap_pairs(P, (0, 1), (0, b)))


def permuted(s, seed=0):
    """The scheme with its points shuffled: it keeps no translation table."""
    perm = np.random.default_rng(seed).permutation(s.n)
    return Scheme(s.colors[np.ix_(perm, perm)])


def swapped_thin_scheme(n=12):
    """The thin colouring of Z_n with two symmetric pairs swapped off row 0.

    Every colour occurs once in row 0, so row 0 alone agrees with its own
    references; the full pass must find the swap."""
    return swap_pairs(zn_table(n), (1, 3), (2, 7))


# -- scheme files -----------------------------------------------------------


def scheme_document(s, **fields):
    """The fields `gen` writes for a scheme, the colours as lists, and `fields`."""
    return {"n": s.n, "rank": s.rank, "star": list(s.star), "colors": s.colors.tolist(), **fields}


def write_scheme(path, s, **fields):
    """Write `scheme_document(s, **fields)` to the pathlib `path` as JSON;
    return the path as a string."""
    path.write_text(json.dumps(scheme_document(s, **fields)))
    return str(path)


# -- the named schemes ------------------------------------------------------

# the circulants of the benchmark's `classify wl` jobs, and one more unit
# circulant, under the name of their WL closure
CIRCULANTS = {
    **{"cycle%d" % n: circulant_from_connection(n, [1, -1])
       for n in (64, 81, 99, 101, 127, 165, 189, 243)},
    **{"units-%d" % n: frobenius_circulant(CirculantSpec(n, units, reps))
       for n, units, reps in ((105, (104,), (1, 2)), (195, (194,), (1, 2)),
                              (157, (14,), (1,)), (91, (16,), (1,)))},
}
CYCLES = (8, 9, *range(12, 61), 64, 81, 99, 101, 105, 127, 165, 189, 243)

_ENTRIES = {}         # name -> (family, n, build)


def _add(family, name, n, build):
    _ENTRIES[name] = (family, n, build)


def _random_circulant_rows():
    """Row 0 of symmetric Z_n-invariant colourings, mostly not coherent."""
    rng = np.random.default_rng(7)
    for n in (9, 14, 21, 32):
        for k in (2, 3, 4):
            half = rng.integers(1, k + 1, size=n // 2 + 1)
            yield "random-%d-%d" % (n, k), np.array([0] + [half[min(d, n - d)] for d in range(1, n)])


for _name, _spec in batch_specs():
    _add("catalog", _name, _spec.kernel_order, partial(frobenius_scheme, _spec))
for _q in (3, 9, 16):
    _add("spread", "desarguesian%d" % _q, _q * _q,
         lambda q=_q: spread_scheme(desarguesian_spread(q)))
for _q in (9, 16):
    _add("spread", "hall%d" % _q, _q * _q, lambda q=_q: spread_scheme(hall_spread(q)))
for _n in (8, 9, 12, 190, 255, 256, 257, 300):
    _add("thin", "thin%d" % _n, _n, lambda n=_n: Scheme(zn_table(n)))
for _radices in ((2, 2, 2), (2, 6)):
    _add("thin", "thin" + "-".join(map(str, _radices)), int(np.prod(_radices)),
         lambda r=_radices: Scheme(difference_table(r)))
for _n in CYCLES:
    _add("cycle", "cycle%d" % _n, _n, lambda n=_n: wl_closure(cycle_coloring(n)))
for _name, _circ in CIRCULANTS.items():
    if _name.startswith("units"):
        _add("units", _name, _circ.n, lambda c=_circ: wl_closure(color_matrix(c)))
for _name, _n, _coloring in (("petersen", 10, petersen_coloring), ("rook4x4", 16, rook_coloring),
                             ("shrikhande", 16, shrikhande_coloring),
                             ("paley13", 13, paley_coloring),
                             ("latin8-rigid", 64, latin_square_coloring)):
    _add("graph", _name, _n, lambda c=_coloring: Scheme(c()))
_add("variant", "hall9-permuted", 81, lambda: permuted(scheme("hall9")))
_add("variant", "hall9-incoherent", 81, lambda: perturbed(scheme("hall9")))
_add("variant", "hall9-swapped", 81,            # off row 0: (1, 2) and (1, 9)
     lambda: Scheme(swap_pairs(scheme("hall9").colors, (1, 2), (1, 9))))
_add("variant", "thin12-swapped", 12, lambda: Scheme(swapped_thin_scheme()))
for _n in (6, 9, 16):                           # a cycle's colouring is not coherent
    _add("variant", "cycle-graph-%d" % _n, _n, lambda n=_n: Scheme(cycle_coloring(n)))
for _name, _row in _random_circulant_rows():
    _add("random", _name, len(_row), lambda row=_row: canonical_relabel(row[zn_table(len(row))]))


def build(name):
    """The named scheme as its builder returns it, built afresh."""
    return _ENTRIES[name][2]()


@cache
def _built(name):
    s = build(name)
    return s.colors, s.__dict__.get("radices")


def scheme(name):
    """A new Scheme on the named scheme's colours, with its builder's
    radices when the builder set them."""
    colors, radices = _built(name)
    s = Scheme(colors)
    if radices is not None:
        s.radices = radices
    return s


def names(*families, max_n=None):
    """The names of the given families (all when none is given) of at
    most max_n points, in definition order."""
    return [name for name, (family, n, _) in _ENTRIES.items()
            if (not families or family in families) and (max_n is None or n <= max_n)]

