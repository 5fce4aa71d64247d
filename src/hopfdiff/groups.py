"""Finite groups by multiplication table; crossed homomorphisms and
difference operators at the group level, and the group-algebra functor."""

from __future__ import annotations

import itertools

from .exactlin import FrozenRecord, Mat, ONE, ZERO
from .hopf import FinDimHopf, LinMap, _stored, basis_vec, is_grouplike

ENDO_ORDER_BOUND = 24


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
        # the validated adjoint action, built by adjoint_action
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


class GroupMap(FrozenRecord):
    """Set map between groups, stored as target indices per source element."""

    _fields = ("source", "target", "images")

    def __init__(self, source: FinGroup, target: FinGroup, images: tuple):
        if len(images) != source.order:
            raise ValueError("image vector length must equal source order")
        self._set(source=source, target=target, images=images)

    def __call__(self, a: int) -> int:
        return self.images[a]


def is_group_hom(f: GroupMap) -> bool:
    src, tgt = f.source, f.target
    return all(
        f(src.mul(a, b)) == tgt.mul(f(a), f(b))
        for a in range(src.order) for b in range(src.order)
    )


def enumerate_endos(g: FinGroup) -> list[GroupMap]:
    """All group endomorphisms, by brute force over generator images.

    Ordered lexicographically on the full image vectors.
    """
    if g.order > ENDO_ORDER_BOUND:
        raise ValueError(f"order {g.order} exceeds the enumeration bound {ENDO_ORDER_BOUND}")
    gens = g.generating_set()
    if not gens:
        return [GroupMap(g, g, (g.identity,))]
    # words expressing every element in the generators, by BFS
    words = {g.identity: ()}
    frontier = [g.identity]
    while frontier:
        x = frontier.pop(0)
        for gi, gen in enumerate(gens):
            y = g.mul(x, gen)
            if y not in words:
                words[y] = words[x] + (gi,)
                frontier.append(y)
    found = []
    for choice in itertools.product(range(g.order), repeat=len(gens)):
        images = []
        for a in range(g.order):
            val = g.identity
            for gi in words[a]:
                val = g.mul(val, choice[gi])
            images.append(val)
        f = GroupMap(g, g, tuple(images))
        if is_group_hom(f):
            found.append(f)
    found.sort(key=lambda m: m.images)
    return found


def check_group_diffop(d: GroupMap) -> bool:
    """D(gh) = D(g) g D(h) g^-1 on all pairs: D is a crossed homomorphism
    of the adjoint action."""
    if d.source is not d.target:
        raise ValueError("a group difference operator must map a group to itself")
    return _crossed_hom_holds(d, adjoint_action(d.source))


def diffop_from_endo(f: GroupMap) -> GroupMap:
    """F -> (g -> F(g) g^-1)."""
    g = f.source
    return GroupMap(g, g, tuple(g.mul(f(a), g.inv(a)) for a in range(g.order)))


def endo_from_diffop(d: GroupMap) -> GroupMap:
    """D -> (g -> D(g) g)."""
    g = d.source
    return GroupMap(g, g, tuple(g.mul(d(a), a) for a in range(g.order)))


def endo_diffop_bijection(g: FinGroup):
    """Matched (endomorphism, difference operator) pairs with both
    composites verified as identities."""
    endos = enumerate_endos(g)
    pairs = []
    for f in endos:
        d = diffop_from_endo(f)
        if not check_group_diffop(d):
            raise AssertionError("difference operator derived from an endomorphism must verify")
        if endo_from_diffop(d).images != f.images:
            raise AssertionError("bijection round trip failed")
        pairs.append((f, d))
    for _, d in pairs:
        f = endo_from_diffop(d)
        if diffop_from_endo(f).images != d.images:
            raise AssertionError("bijection round trip failed")
    return pairs


class GroupAction(FrozenRecord):
    """Action of G on H by automorphisms: one permutation of H per g."""

    _fields = ("acting", "target", "maps")

    def __init__(self, acting: FinGroup, target: FinGroup, maps: tuple):
        # maps[g] is a tuple of images of H under Phi(g)
        self._set(acting=acting, target=target, maps=maps)

    def __call__(self, g: int, h: int) -> int:
        return self.maps[g][h]

    def validate(self):
        gg, hh = self.acting, self.target
        for g in range(gg.order):
            f = GroupMap(hh, hh, tuple(self.maps[g]))
            if len(set(self.maps[g])) != hh.order or not is_group_hom(f):
                raise ValueError(f"Phi({gg.labels[g]}) is not an automorphism")
        for a in range(gg.order):
            for b in range(gg.order):
                ab = gg.mul(a, b)
                for h in range(hh.order):
                    if self(ab, h) != self(a, self(b, h)):
                        raise ValueError("Phi is not a homomorphism to Aut(H)")
        for h in range(hh.order):
            if self(gg.identity, h) != h:
                raise ValueError("Phi(identity) must be the identity")
        return self


def trivial_action(g: FinGroup, h: FinGroup) -> GroupAction:
    ident = tuple(range(h.order))
    return GroupAction(g, h, tuple(ident for _ in range(g.order))).validate()


def adjoint_action(g: FinGroup) -> GroupAction:
    """The action of G on itself by conjugation, validated on first use and
    memoized on g."""
    if g._adjoint_action is None:
        maps = tuple(
            tuple(g.conjugate(a, h) for h in range(g.order)) for a in range(g.order)
        )
        g._adjoint_action = GroupAction(g, g, maps).validate()
    return g._adjoint_action


def check_group_crossed_hom(d: GroupMap, action: GroupAction) -> bool:
    """D(gh) = D(g) Phi(g)(D(h)) on all pairs."""
    action.validate()
    if d.source is not action.acting or d.target is not action.target:
        raise ValueError("map endpoints must match the action")
    return _crossed_hom_holds(d, action)


def _crossed_hom_holds(d: GroupMap, action: GroupAction) -> bool:
    """The pair loop of check_group_crossed_hom, for a validated action
    whose endpoints are those of d."""
    gg, hh = action.acting, action.target
    for a in range(gg.order):
        for b in range(gg.order):
            if d(gg.mul(a, b)) != hh.mul(d(a), action(a, d(b))):
                return False
    return True


def derived_group_action(d: GroupMap, action: GroupAction):
    """Derived action Phi_D(g)h = D(g) Phi(g)(h) D(g)^-1 and the derived
    crossed homomorphism g -> D(g)^-1, both verified."""
    if not check_group_crossed_hom(d, action):
        raise ValueError("the map is not a crossed homomorphism for this action")
    gg, hh = action.acting, action.target
    maps = tuple(
        tuple(hh.mul(hh.mul(d(g), action(g, h)), hh.inv(d(g))) for h in range(hh.order))
        for g in range(gg.order)
    )
    derived = GroupAction(gg, hh, maps).validate()
    dbar = GroupMap(gg, hh, tuple(hh.inv(d(g)) for g in range(gg.order)))
    if not check_group_crossed_hom(dbar, derived):
        raise AssertionError("derived crossed homomorphism failed verification")
    return derived, dbar


# -- group algebras -----------------------------------------------------------

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
    pos = {b: i for i, b in enumerate(idxs)}
    if len(pos) != len(idxs) or not all(isinstance(b, int) and 0 <= b < h.dim
                                        for b in idxs):
        raise ValueError("declared coradical must list distinct basis indices")
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


def lift_map(f: GroupMap, kg_source: FinDimHopf, kg_target: FinDimHopf) -> LinMap:
    """Linear extension of a set map between groups to the group algebras."""
    cols = [basis_vec(kg_target.dim, f(a)) for a in range(f.source.order)]
    return LinMap(kg_source, kg_target, Mat.from_cols(cols))
