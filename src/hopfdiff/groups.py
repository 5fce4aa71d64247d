"""Crossed homomorphisms and difference operators at the group level:
group maps, endomorphisms, actions, and the lift of a group map to the
group algebras.  The groups themselves, :class:`FinGroup`, and the
group-algebra functor and its inverse live in :mod:`hopfdiff.fingroup`."""

from __future__ import annotations

import itertools

from .exactlin import FrozenRecord, Mat
from .fingroup import FinGroup
from .hopf import FinDimHopf, LinMap, basis_vec

ENDO_ORDER_BOUND = 24


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


def lift_map(f: GroupMap, kg_source: FinDimHopf, kg_target: FinDimHopf) -> LinMap:
    """Linear extension of a set map between groups to the group algebras."""
    cols = [basis_vec(kg_target.dim, f(a)) for a in range(f.source.order)]
    return LinMap(kg_source, kg_target, Mat.from_cols(cols))
