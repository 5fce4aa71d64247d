"""Finite groups by multiplication table, and the group-algebra functor
with its inverse: :func:`group_algebra` builds kG, and
:func:`coradical_group` reads G(H) back from a declared group-like basis.

These are what resolving, validating and reading the group-likes of a
catalog algebra need.  The group-level calculus (group maps,
endomorphisms, crossed homomorphisms, difference operators and actions)
lives in :mod:`hopfdiff.groups`, which only the classification solver
and the group-algebra difference-operator functions import, so the
other commands do not compile it.
"""

from __future__ import annotations

import itertools

from .exactlin import Mat, ONE, ZERO
from .hopf import FinDimHopf, _stored, basis_vec, is_grouplike


class FinGroup:
    """Group of order n with elements 0..n-1 and a full product table."""

    def __init__(self, labels, table, name=""):
        self.labels = list(labels)
        self.order = len(self.labels)
        self.name = name
        if len(table) != self.order or any(len(r) != self.order for r in table):
            raise ValueError("table must be order x order")
        self.table = [[int(x) for x in row] for row in table]
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._validate()
        # the validated adjoint action, built by hopfdiff.groups.adjoint_action
        self._adjoint_action = None

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][a] == a and self.table[a][e] == a for a in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self):
        inv = []
        for a in range(self.order):
            two_sided = [
                b for b in range(self.order)
                if self.table[a][b] == self.identity and self.table[b][a] == self.identity
            ]
            if not two_sided:
                raise ValueError(f"element {self.labels[a]} has no two-sided inverse")
            inv.append(two_sided[0])
        return inv

    def _validate(self):
        n = self.order
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise ValueError("table rows must be permutations (Latin square)")
        for c in range(n):
            if sorted(self.table[r][c] for r in range(n)) != list(range(n)):
                raise ValueError("table columns must be permutations (Latin square)")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order) for b in range(self.order)
        )

    def has_exponent_two(self) -> bool:
        return all(self.mul(a, a) == self.identity for a in range(self.order))

    def generating_set(self) -> list[int]:
        """A minimal generating set, found by increasing subset size."""
        nontrivial = [a for a in range(self.order) if a != self.identity]
        if not nontrivial:
            return []
        for size in range(1, self.order + 1):
            for combo in itertools.combinations(nontrivial, size):
                if self._closure(combo) == self.order:
                    return list(combo)
        raise AssertionError("unreachable: full element set generates")

    def _closure(self, gens) -> int:
        seen = {self.identity}
        frontier = list(gens)
        seen.update(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(g, x)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return len(seen)

    def __repr__(self):
        return f"FinGroup({self.name or self.labels}, order={self.order})"


def group_algebra(g: FinGroup, name: str | None = None) -> FinDimHopf:
    """kG with Delta(g) = g (x) g, eps(g) = 1, S(g) = g^-1."""
    n = g.order
    mult = [[[ONE if k == g.mul(i, j) else ZERO for k in range(n)] for j in range(n)]
            for i in range(n)]
    unit = basis_vec(n, g.identity)
    comult = [[(i, i, ONE)] for i in range(n)]
    counit = [ONE] * n
    antipode = Mat.from_cols([basis_vec(n, g.inv(i)) for i in range(n)])
    return FinDimHopf(
        name or (f"k[{g.name}]" if g.name else "k[G]"),
        g.labels, mult, unit, comult, counit, antipode,
        coradical_group_basis=list(range(n)),
    )


def coradical_group(h: FinDimHopf):
    """G(H): the declared group-like basis of H as a FinGroup, with the
    declared indices and their positions, (group, idxs, pos); the inverse
    of :func:`group_algebra`.

    A missing declaration, one that does not list distinct basis indices,
    a declared element that is not group-like, a product that leaves the
    declared basis and a group-like basis element left out of the
    declaration raise ValueError; the last three name the element or the
    pair.  Only basis elements are scanned: a group-like that is not a basis
    vector goes unnoticed.
    """
    if h.coradical_group_basis is None:
        raise ValueError("no declared group-algebra coradical")
    idxs = h.coradical_group_basis
    # the indices are checked before they are hashed: a file may give a list
    if not all(isinstance(b, int) and 0 <= b < h.dim for b in idxs) or \
            len(set(idxs)) != len(idxs):
        raise ValueError("declared coradical must list distinct basis indices")
    pos = {b: i for i, b in enumerate(idxs)}
    for b in idxs:
        if not is_grouplike(h, basis_vec(h.dim, b)):
            raise ValueError(f"declared coradical element {h.label(b)} is not group-like")
    table = []
    for a in idxs:
        row = []
        for b in idxs:
            terms = _stored(h.mult_terms(a, b))
            if [m for _, m in terms] != [ONE] or terms[0][0] not in pos:
                raise ValueError(f"declared coradical not closed under multiplication "
                                 f"at ({h.label(a)}, {h.label(b)})")
            row.append(pos[terms[0][0]])
        table.append(row)
    for b in range(h.dim):
        if b not in pos and is_grouplike(h, basis_vec(h.dim, b)):
            raise ValueError(f"basis element {h.label(b)} is group-like but not in the "
                             f"declared coradical")
    return FinGroup([h.label(b) for b in idxs], table, name=f"G({h.name})"), idxs, pos
