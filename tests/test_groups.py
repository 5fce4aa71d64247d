import itertools

import pytest

from hopfdiff import catalog
from hopfdiff.fingroup import FinGroup
from hopfdiff.groups import (
    GroupAction,
    GroupMap,
    adjoint_action,
    check_group_crossed_hom,
    check_group_diffop,
    derived_group_action,
    diffop_from_endo,
    endo_diffop_bijection,
    endo_from_diffop,
    enumerate_endos,
    is_group_hom,
    lift_map,
    trivial_action,
)
from hopfdiff.hopf import validate_hopf, grouplikes


def test_group_validation_rejects_broken_tables():
    with pytest.raises(ValueError):
        FinGroup(["e", "a"], [[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(ValueError):
        FinGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # no associativity


def test_is_group_hom_examples():
    s3 = catalog.build("S3")
    ident = GroupMap(s3, s3, tuple(range(6)))
    assert is_group_hom(ident)
    const = GroupMap(s3, s3, (0,) * 6)
    assert is_group_hom(const)
    c4 = catalog.build("C4")
    swap = GroupMap(c4, c4, (0, 2, 1, 3))  # r <-> r2: r.r = r2 maps to r2.r2 = 1 != r
    assert not is_group_hom(swap)


def test_endo_counts():
    assert len(enumerate_endos(catalog.build("C2"))) == 2
    assert len(enumerate_endos(catalog.build("C2xC2"))) == 16
    assert len(enumerate_endos(catalog.build("S3"))) == 10


def test_endos_are_lex_ordered():
    endos = enumerate_endos(catalog.build("C2xC2"))
    images = [e.images for e in endos]
    assert images == sorted(images)


def test_group_diffop_examples():
    s3 = catalog.build("S3")
    inv = GroupMap(s3, s3, tuple(s3.inv(a) for a in range(6)))
    assert check_group_diffop(inv)
    ident_elt = GroupMap(s3, s3, (s3.identity,) * 6)
    assert check_group_diffop(ident_elt)
    assert not check_group_diffop(GroupMap(s3, s3, tuple(range(6))))  # D = id fails


def test_endo_diffop_bijection_c2():
    c2 = catalog.build("C2")
    pairs = endo_diffop_bijection(c2)
    as_images = {(f.images, d.images) for f, d in pairs}
    assert as_images == {((0, 1), (0, 0)), ((0, 0), (0, 1))}


def test_endo_diffop_bijection_s3_and_inverses():
    s3 = catalog.build("S3")
    pairs = endo_diffop_bijection(s3)
    assert len(pairs) == 10
    for f, d in pairs:
        assert endo_from_diffop(d).images == f.images
        assert diffop_from_endo(f).images == d.images


def test_identity_endo_pairs_with_trivial_diffop():
    for name in ("C2", "C4", "S3"):
        g = catalog.build(name)
        ident = GroupMap(g, g, tuple(range(g.order)))
        assert diffop_from_endo(ident).images == (g.identity,) * g.order


def test_crossed_hom_with_trivial_action_is_hom():
    s3 = catalog.build("S3")
    triv = trivial_action(s3, s3)
    ident = GroupMap(s3, s3, tuple(range(6)))
    assert check_group_crossed_hom(ident, triv)
    assert not check_group_crossed_hom(
        GroupMap(s3, s3, (0, 0, 0, 0, 1, 1)), triv)


def test_crossed_hom_adjoint_matches_diffop():
    s3 = catalog.build("S3")
    adj = adjoint_action(s3)
    for f in enumerate_endos(s3):
        d = diffop_from_endo(f)
        assert check_group_crossed_hom(d, adj) == check_group_diffop(d)


@pytest.mark.parametrize("name", ["C2", "C4", "C2xC2", "S3"])
def test_check_group_diffop_validates_the_adjoint_action_once(name, monkeypatch):
    """At most one GroupAction.validate per group, the one adjoint_action
    runs when it first builds the action it memoizes on the group, and on
    every self-map the verdict of check_group_crossed_hom on the adjoint
    action, written out here as its pair loop over one validated action."""
    g = catalog.build(name)
    calls = []
    validate = GroupAction.validate
    monkeypatch.setattr(GroupAction, "validate",
                        lambda self: calls.append(self) or validate(self))
    maps = [GroupMap(g, g, images)
            for images in itertools.product(range(g.order), repeat=g.order)]
    verdicts = [check_group_diffop(d) for d in maps]
    adj = adjoint_action(g)
    assert calls == [adj]
    assert adjoint_action(g) is adj
    for d, verdict in zip(maps, verdicts):
        composite = all(d(g.mul(a, b)) == g.mul(d(a), adj(a, d(b)))
                        for a in range(g.order) for b in range(g.order))
        assert verdict == composite, d.images
    assert len(verdicts) == g.order ** g.order
    assert any(verdicts) and not all(verdicts)


def test_c2_on_c4_inversion_crossed_hom():
    c2, c4 = catalog.build("C2"), catalog.build("C4")
    inv_map = tuple((-h) % 4 for h in range(4))
    action = GroupAction(c2, c4, (tuple(range(4)), inv_map)).validate()
    d = GroupMap(c2, c4, (0, 1))  # D(s) = r
    assert check_group_crossed_hom(d, action)


def test_derived_action_trivial_crossed_hom():
    s3 = catalog.build("S3")
    adj = adjoint_action(s3)
    d = GroupMap(s3, s3, (s3.identity,) * 6)
    derived, dbar = derived_group_action(d, adj)
    assert derived.maps == adj.maps
    assert dbar.images == d.images


def test_derived_action_of_inversion_is_trivial():
    s3 = catalog.build("S3")
    adj = adjoint_action(s3)
    inv = GroupMap(s3, s3, tuple(s3.inv(a) for a in range(6)))
    derived, dbar = derived_group_action(inv, adj)
    assert derived.maps == trivial_action(s3, s3).maps
    assert dbar.images == tuple(range(6))  # D-bar(g) = g


def test_derived_action_c2_on_c4():
    c2, c4 = catalog.build("C2"), catalog.build("C4")
    action = GroupAction(c2, c4, (tuple(range(4)), tuple((-h) % 4 for h in range(4)))).validate()
    d = GroupMap(c2, c4, (0, 1))
    derived, dbar = derived_group_action(d, action)
    assert dbar.images == (0, 3)


def test_group_algebra_functor(ks3):
    assert validate_hopf(ks3).ok
    assert len(grouplikes(ks3).elements) == 6


def test_lifted_group_diffop_is_hopf_diffop(kc2):
    from hopfdiff.diffops import DiffOp, check_diffop

    c2 = catalog.build("C2")
    for f in enumerate_endos(c2):
        d = diffop_from_endo(f)
        lifted = lift_map(d, kc2, kc2)
        assert isinstance(check_diffop(kc2, lifted), DiffOp)


def test_dihedral_group_catalog_entry():
    d4 = catalog.build("D4")
    orders = sorted(_element_order(d4, a) for a in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    assert not d4.is_abelian()


def _element_order(g, a):
    n = 1
    x = a
    while x != g.identity:
        x = g.mul(x, a)
        n += 1
    return n
