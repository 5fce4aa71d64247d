"""The record classes of every layer are plain classes on
``exactlin.Record``; they keep the dataclass semantics they had: the
constructor signature, fresh mutable defaults, value equality, the shape
and validity checks, unhashable mutable records, and hashable immutable
group maps and actions."""

import inspect

import pytest

from hopfdiff import catalog
from hopfdiff.actions import CrossedHom, GraphResult
from hopfdiff.diffops import DiffModuleBialgebra, DiffOp
from hopfdiff.exactlin import Mat
from hopfdiff.truncated import LyndonBasis, TruncatedTensor
from hopfdiff.groups import GroupAction, GroupMap, adjoint_action
from hopfdiff.hopf import AxiomReport, CheckReport, GrouplikeResult, LinMap
from hopfdiff.maps import identity_map
from hopfdiff.lie import FinLie, LieAction, LieGraphResult
from hopfdiff.solver import (BranchReport, ClassificationResult, GeneratorBlock,
                             PublishedDiff, SearchPlan)

SIGNATURES = {
    LinMap: ["domain", "codomain", "cols"],
    CheckReport: ["ok", "failures", "skipped", "checked", "details"],
    AxiomReport: ["checks"],
    GrouplikeResult: ["elements", "complete"],
    GroupMap: ["source", "target", "images"],
    GroupAction: ["acting", "target", "maps"],
    GeneratorBlock: ["generator", "cosets"],
    SearchPlan: ["target", "grouplike_indices", "blocks", "commutation"],
    BranchReport: ["index", "group_images", "status", "operators", "quadratic_candidates",
                   "residual"],
    ClassificationResult: ["algebra", "operators", "certificate", "branches",
                           "bijective_only"],
    PublishedDiff: ["matched", "missing", "extra", "entry_mismatches"],
    DiffOp: ["map", "verified", "bijective"],
    DiffModuleBialgebra: ["d_h", "d_k", "action", "verified"],
    CrossedHom: ["map", "action", "verified"],
    GraphResult: ["basis", "closed", "witness"],
    LieAction: ["acting", "target", "phi"],
    LieGraphResult: ["basis", "closed", "agrees_with_direct_check"],
    LyndonBasis: ["tensor"],
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    assert list(inspect.signature(cls).parameters) == SIGNATURES[cls]


def test_mutable_defaults_are_fresh_per_instance():
    a, b = CheckReport(True), CheckReport(True)
    assert (a.failures, a.skipped, a.checked, a.details) == ([], [], 0, {})
    a.failures.append(("x",))
    a.skipped.append(("y",))
    a.details["k"] = 1
    assert (b.failures, b.skipped, b.details) == ([], [], {})
    r, s = AxiomReport(), AxiomReport()
    r.record("unit", False, (0,))
    assert s.checks == [] and not r.ok and s.ok


def test_equal_fields_compare_equal_and_mutable_records_are_unhashable(h4):
    pairs = [
        (CheckReport(True, [], [], 3), CheckReport(ok=True, checked=3),
         CheckReport(True, checked=4)),
        (AxiomReport([("unit", True, None)]), AxiomReport([("unit", True, None)]),
         AxiomReport()),
        (GrouplikeResult([[1, 0]], True), GrouplikeResult([[1, 0]], True),
         GrouplikeResult([[1, 0]], False)),
        (identity_map(h4), identity_map(h4), LinMap(h4, h4, [[0] * 4] * 4)),
    ]
    for x, y, z in pairs:
        assert x == y and not x != y
        assert x != z
        assert x != object()
        with pytest.raises(TypeError):
            hash(x)


def test_defaults_of_the_solver_and_action_records(h4):
    """The dataclass defaults: fresh lists, None and False."""
    a, b = BranchReport(0, ["1"], "empty"), BranchReport(0, ["1"], "empty")
    a.operators.append([])
    assert b.operators == [] and (b.quadratic_candidates, b.residual) == (None, None)
    r = ClassificationResult("H4", [], "complete")
    assert (r.branches, r.bijective_only) == ([], False)
    assert r.branches is not ClassificationResult("H4", [], "complete").branches
    assert SearchPlan(h4, [0, 1], []).commutation is None
    ident = identity_map(h4)
    assert not CrossedHom(ident, None).verified
    assert not DiffModuleBialgebra(ident, ident, None).verified
    assert DiffOp(ident, True, True) == DiffOp(ident, True, True)
    assert DiffOp(ident, True, True) != DiffOp(ident, True, False)
    with pytest.raises(TypeError):
        hash(DiffOp(ident, True, True))


def test_lyndon_basis_and_lie_action_keep_their_checks():
    tensor = TruncatedTensor(2, 4)
    basis = LyndonBasis(tensor)
    assert basis.dims() == [2, 1, 2, 3] and basis == LyndonBasis(tensor)
    assert [w for w, _ in basis.vectors][:3] == [(0,), (1,), (0, 1)]
    assert repr(basis).startswith("LyndonBasis(tensor=TruncatedTensor(2 letters, budget 4), ")
    line = FinLie.from_pairs(["e"], {}, "abelian1")
    with pytest.raises(ValueError, match="one matrix per basis element"):
        LieAction(line, line, [])
    with pytest.raises(ValueError, match="dim"):
        LieAction(line, line, [Mat.identity(2)])
    act = LieAction(line, line, [Mat.identity(1)])
    assert act == LieAction(line, line, [Mat.identity(1)])
    assert repr(act).startswith("LieAction(acting=")


def test_linmap_equality_needs_the_same_algebras(h4):
    other = catalog.build("H4")
    assert identity_map(h4) != identity_map(other)
    assert identity_map(h4) == LinMap(h4, h4, identity_map(other).cols)


def test_group_maps_and_actions_are_hashable_and_immutable():
    s3 = catalog.build("S3")
    f = GroupMap(s3, s3, tuple(range(6)))
    g = GroupMap(s3, s3, tuple(range(6)))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != GroupMap(s3, s3, (0,) * 6)
    a, b = adjoint_action(s3), adjoint_action(s3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for obj, name in ((f, "images"), (a, "maps")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())
        with pytest.raises(AttributeError):
            obj.extra = 1
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert f.images == tuple(range(6))


def test_shape_errors_still_raise(h4):
    with pytest.raises(ValueError):
        LinMap(h4, h4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        LinMap(h4, h4, [[1, 0, 0, 0, 0]] * 4)
    with pytest.raises(ValueError):
        GroupMap(catalog.build("C2"), catalog.build("C2"), (0,))
