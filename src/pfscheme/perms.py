"""Permutations on {0,...,n-1} and finitely generated permutation groups:
the reference groups.  `frobenius.build_frobenius` returns a Frobenius
group as a PermGroup, and the tests compare `scheme.frobenius_scheme`
with its orbitals; the commands build schemes from tables alone.

Composition is a right action throughout: (p * q)(x) = q(p(x)), so that
x^(p*q) = (x^p)^q.  Group order comes from a deterministic Schreier-Sims
stabilizer chain with base 0, 1, 2, ...  Orbitals come from a numpy
Schreier tree at point 0 and the orbits of its stabilizer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Permutation:
    """Immutable permutation stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("not a permutation of 0..%d: %r" % (len(imgs) - 1, imgs))
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        o = other.images
        return Permutation([o[i] for i in self.images])

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return "Permutation(%s)" % (self.cycle_string(),)


class _ChainLevel:
    """One level of a stabilizer chain: a base point with its basic orbit."""

    __slots__ = ("base", "transversal", "gens")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.transversal: dict[int, tuple[int, ...]] = {base: tuple(range(degree))}
        self.gens: list[tuple[int, ...]] = []


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[i] for i in p)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class PermGroup:
    """Permutation group given by generators, with lazy stabilizer chain."""

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for the trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d != %d" % (g.degree, degree))
        self.degree = degree
        self.generators = [g for g in gens if not g.is_identity()]
        self._chain: list[_ChainLevel] | None = None
        self._order: int | None = None

    def orbit(self, point: int) -> set[int]:
        """Orbit of a point under the generated group (BFS, ascending gens)."""
        seen = {point}
        frontier = [point]
        gens = [g.images for g in self.generators]
        while frontier:
            nxt = []
            for x in frontier:
                for img in gens:
                    y = img[x]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def orbitals(self) -> np.ndarray:
        """Class labels for the diagonal action on ordered pairs.

        Returns a flat row-major int64 array of length degree**2 with
        labels 0..R-1.  A Schreier tree from point 0 gives U[a] with
        U[a](0) = a and inv[a, b] = U[a]^-1(b); the Schreier elements
        U[g(a)]^-1 g U[a] generate the stabilizer of 0 (Schreier's lemma),
        and (a, b) is labelled by the stabilizer orbit of inv[a, b],
        numbered by its least point.  Requires a transitive group.
        """
        n = self.degree
        gens = np.array([g.images for g in self.generators], dtype=np.intp).reshape(-1, n)
        points = np.arange(n)
        U = np.full((n, n), -1, dtype=np.intp)
        U[0] = points
        frontier = points[:1]
        while len(frontier):
            found = [points[:0]]
            for g in gens:
                new, first = np.unique(g[frontier], return_index=True)
                fresh = U[new, 0] < 0
                U[new[fresh]] = g[U[frontier[first[fresh]]]]
                found.append(new[fresh])
            frontier = np.concatenate(found)
        if (U[:, 0] < 0).any():
            raise ValueError("orbitals require a transitive group")
        inv = np.empty_like(U)
        inv[points[:, None], U] = points
        # distinct Schreier elements: a small stabilizer repeats them n times
        stab = dict.fromkeys([points.tobytes()])
        for g in gens:
            stab.update(dict.fromkeys(map(bytes, inv[g[:, None], g[U]])))
        stab = np.frombuffer(b"".join(stab), dtype=np.intp).reshape(-1, n)
        least = points
        while True:
            lower = least[stab].min(axis=0)
            if np.array_equal(lower, least):
                break
            least = lower[lower]
        _, label = np.unique(least, return_inverse=True)
        return label.astype(np.int64)[inv].ravel()

    # -- stabilizer chain ------------------------------------------------

    def _sift(self, p: tuple[int, ...], start: int = 0):
        """Factor p through the chain; return (residue, level it stuck at)."""
        chain = self._chain
        for lvl in range(start, len(chain)):
            level = chain[lvl]
            target = p[level.base]
            rep = level.transversal.get(target)
            if rep is None:
                return p, lvl
            p = _compose(p, _invert(rep))
        return p, len(chain)

    def _extend_orbit(self, lvl: int, new_gens: list[tuple[int, ...]]):
        """Grow level lvl's basic orbit; sift fresh Schreier generators."""
        chain = self._chain
        level = chain[lvl]
        level.gens.extend(new_gens)
        frontier = list(level.transversal)
        while frontier:
            nxt = []
            for x in frontier:
                rep = level.transversal[x]
                for g in level.gens:
                    y = g[x]
                    if y not in level.transversal:
                        level.transversal[y] = _compose(rep, g)
                        nxt.append(y)
                    else:
                        schreier = _compose(_compose(rep, g), _invert(level.transversal[y]))
                        self._add_strong(schreier, lvl + 1)
            frontier = nxt

    def _add_strong(self, p: tuple[int, ...], lvl: int):
        residue, stuck = self._sift(p, lvl)
        if all(i == j for i, j in enumerate(residue)):
            return
        chain = self._chain
        if stuck == len(chain):
            base = min(i for i, j in enumerate(residue) if i != j)
            chain.append(_ChainLevel(base, self.degree))
        self._extend_orbit(stuck, [residue])
        # the new strong generator also acts on the levels above its own
        for up in range(stuck - 1, lvl - 1, -1):
            self._extend_orbit(up, [residue])

    def _build_chain(self):
        if self._chain is not None:
            return
        self._chain = []
        for g in self.generators:
            self._add_strong(g.images, 0)

    def order(self) -> int:
        """Group order via the product of basic orbit lengths."""
        if self._order is None:
            self._build_chain()
            n = 1
            for level in self._chain:
                n *= len(level.transversal)
            self._order = n
        return self._order

    def __repr__(self) -> str:
        return "PermGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))
