from fractions import Fraction

import pytest

from hopfdiff import catalog, formats
from hopfdiff.hopf import FinDimHopf, validate_hopf

F = Fraction


def test_all_hopf_entries_validate():
    for name in catalog.names():
        obj = catalog.build(name)
        if isinstance(obj, FinDimHopf):
            assert validate_hopf(obj).ok, name


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown catalog entry"):
        catalog.build("H16")


def test_h4_basis(h4):
    assert h4.basis == ["1", "g", "x", "gx"]


def test_h8_z_square_relation(h8):
    z = 4
    prod = h8.mult_basis(z, z)
    assert prod == [F(1, 2), F(1, 2), F(1, 2), F(-1, 2), 0, 0, 0, 0]


def test_h8_comult_of_z_has_four_half_triples(h8):
    triples = h8.comult_triples(4)
    assert len(triples) == 4
    assert sorted(c for (_, _, c) in triples) == [F(-1, 2), F(1, 2), F(1, 2), F(1, 2)]
    # pre-expanded storage must match the product form
    # (1(x)1 + 1(x)x + y(x)1 - y(x)x)(z(x)z)/2
    expect = {(4, 4): F(1, 2), (4, 5): F(1, 2), (6, 4): F(1, 2), (6, 5): F(-1, 2)}
    assert {(i, j): c for (i, j, c) in triples} == expect


def test_h8_commutation_relations(h8):
    # zx = yz and zy = xz
    import hopfdiff.hopf as hopf

    z, x, y = 4, 1, 2
    assert h8.mult_basis(z, x) == hopf.basis_vec(8, 6)
    assert h8.mult_basis(z, y) == hopf.basis_vec(8, 5)


def test_group_algebra_entries_match_group_functor():
    from hopfdiff.fingroup import group_algebra

    for gname, aname in (("C2", "kC2"), ("S3", "kS3")):
        g = catalog.build(gname)
        built = catalog.build(aname)
        direct = group_algebra(g, aname)
        assert formats.algebra_to_dict(built) == formats.algebra_to_dict(direct)


def test_algebra_export_round_trip(h8):
    data = formats.algebra_to_dict(h8)
    back = formats.algebra_from_dict(data)
    assert formats.algebra_to_dict(back) == data
    assert validate_hopf(back).ok


def test_algebra_parser_rejects_unknown_keys(h4):
    data = formats.algebra_to_dict(h4)
    data["flavour"] = "sweedler"
    with pytest.raises(ValueError, match="unknown keys"):
        formats.algebra_from_dict(data)


def test_group_export_round_trip():
    s3 = catalog.build("S3")
    data = formats.group_to_dict(s3)
    back = formats.group_from_dict(data)
    assert back.table == s3.table and back.labels == s3.labels
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        formats.group_from_dict(data)


def test_lie_format_round_trip():
    from hopfdiff.lie import FinLie

    sl2 = FinLie.from_pairs(
        ["e", "f", "h"], {(0, 1): [0, 0, 1], (0, 2): [-2, 0, 0], (1, 2): [0, 2, 0]},
        "sl2")
    back = formats.lie_from_dict(formats.lie_to_dict(sl2))
    assert back.bracket_tensor == sl2.bracket_tensor


def test_action_export_round_trip(inversion_action):
    data = formats.action_to_dict(inversion_action)
    back = formats.action_from_dict(data, lambda name: catalog.build(name))
    assert back.tensor == inversion_action.tensor


def test_operator_hash_guards_against_wrong_algebra():
    op = catalog.build("op:ueps:H4")
    data = formats.operator_to_dict(op)
    data["algebra"] = "H8"
    data = dict(data)
    with pytest.raises(ValueError, match="hash mismatch|different"):
        formats.operator_from_dict(data, lambda name: catalog.build(name))


def test_plan_export_round_trip():
    plan = catalog.build("plan:H8")
    data = formats.plan_to_dict(plan)
    back = formats.plan_from_dict(data, lambda name: catalog.build(name))
    back.validate()
    assert back.grouplike_indices == plan.grouplike_indices
    assert [b.cosets for b in back.blocks] == [b.cosets for b in plan.blocks]


def test_expected_tables_round_trip():
    tables = catalog.build("expected:H8-bijective")
    data = formats.expected_to_dict(tables)
    back = formats.expected_from_dict(data)
    assert len(back) == 8
    # the z image of the first table is (z + xz + yz - xyz)/2
    assert back[0]["images"][4][4:] == [F(1, 2), F(1, 2), F(1, 2), F(-1, 2)]


def test_canonical_json_is_stable(h4):
    a = formats.canonical_json(formats.algebra_to_dict(h4))
    b = formats.canonical_json(formats.algebra_to_dict(catalog.build("H4")))
    assert a == b
    assert formats.algebra_hash(h4) == formats.algebra_hash(catalog.build("H4"))
