import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hopfdiff.cli import COMMANDS, run


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def export_entry(capsys, tmp_path, name, filename):
    code, payload, _ = invoke(capsys, "catalog", name)
    assert code == 0
    path = tmp_path / filename
    path.write_text(json.dumps(payload["payload"]))
    return str(path)


def test_validate_h8(capsys):
    code, payload, err = invoke(capsys, "validate", "--algebra", "H8")
    assert code == 0
    assert payload["ok"] is True
    assert payload["schema_version"] == 1
    assert all(c["ok"] for c in payload["axioms"])
    assert "all axioms pass" in err


def test_validate_reports_deterministically(capsys):
    run(["validate", "--algebra", "H8"])
    first = capsys.readouterr().out
    run(["validate", "--algebra", "H8"])
    second = capsys.readouterr().out
    assert first == second


def test_grouplikes_and_primitives(capsys):
    code, payload, _ = invoke(capsys, "grouplikes", "--algebra", "H8")
    assert code == 0 and payload["complete"] and len(payload["elements"]) == 4
    code, payload, _ = invoke(capsys, "primitives", "--algebra", "H4")
    assert code == 0 and payload["dimension"] == 0


def test_skew_primitives(capsys):
    code, payload, _ = invoke(capsys, "skew-primitives", "--algebra", "H4",
                              "--left-grouplike", "0", "--right-grouplike", "1")
    assert code == 0 and payload["dimension"] == 2


def test_check_diffop_pass_and_fail(capsys, tmp_path):
    ok_op = export_entry(capsys, tmp_path, "op:ueps:H4", "ueps.json")
    code, payload, _ = invoke(capsys, "check-diffop", "--operator", ok_op)
    assert code == 0 and payload["ok"] and payload["bijective"] is False
    bad_op = export_entry(capsys, tmp_path, "op:id:H4", "id.json")
    code, payload, _ = invoke(capsys, "check-diffop", "--operator", bad_op)
    assert code == 1
    assert payload["witness"] == [1, 2]
    assert payload["witness_labels"] == ["g", "x"]


def test_check_crossed_hom(capsys, tmp_path):
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    pi = export_entry(capsys, tmp_path, "op:crossed:kC2:kC4", "pi.json")
    code, payload, _ = invoke(capsys, "check-crossed-hom",
                              "--action", action, "--operator", pi)
    assert code == 0 and payload["ok"]


def test_classify_h4_against_expected(capsys, tmp_path):
    expected = export_entry(capsys, tmp_path, "expected:H4", "expected.json")
    code, payload, _ = invoke(capsys, "classify-diffops", "--plan", "plan:H4",
                              "--expected", expected)
    assert code == 0
    assert payload["certificate"] == "complete"
    assert payload["operator_count"] == 1
    assert payload["expected_comparison"]["equal"]


def test_classify_mismatched_expected_exits_nonzero(capsys, tmp_path):
    code, payload, _ = invoke(capsys, "catalog", "expected:H4")
    data = payload["payload"]
    data["operators"][0]["images"][2][3] = "1/3"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, payload, _ = invoke(capsys, "classify-diffops", "--plan", "plan:H4",
                              "--expected", str(path))
    assert code == 1
    assert not payload["expected_comparison"]["equal"]
    assert payload["expected_comparison"]["entry_mismatches"][0]["positions"] == [[2, 3]]


@pytest.mark.parametrize("entry, argv, dim", [
    ("expected:H8-bijective", ["--plan", "plan:H4"], 4),
    ("expected:H4", ["--algebra", "kS3"], 6),
], ids=["H8-tables-on-H4", "H4-tables-on-kS3"])
def test_classify_expected_tables_of_another_size_exit_two(capsys, tmp_path, entry, argv, dim):
    expected = export_entry(capsys, tmp_path, entry, "expected.json")
    code, payload, err = invoke(capsys, "classify-diffops", *argv, "--expected", expected)
    assert code == 2
    assert payload["ok"] is False
    assert payload["error"].endswith(f"its tables are not {dim} x {dim}, the dimension of "
                                     f"{argv[1].removeprefix('plan:')}")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, count, bijective", [
    ("kS3", 10, 1), ("kC4", 4, 2), ("H8", 6, 4)])
def test_classify_derives_the_plan_of_an_algebra(capsys, tmp_path, name, count, bijective):
    """--algebra with no --plan derives the plan, from a catalog name or
    from an algebra file."""
    for spec in (name, export_entry(capsys, tmp_path, name, "algebra.json")):
        code, payload, err = invoke(capsys, "classify-diffops", "--algebra", spec)
        assert code == 0
        assert payload["certificate"] == "complete"
        assert payload["operator_count"] == count
        assert sum(op["bijective"] for op in payload["operators"]) == bijective


def test_classify_with_neither_plan_nor_algebra_exits_two(capsys):
    code, payload, err = invoke(capsys, "classify-diffops")
    assert code == 2
    assert payload["error"] == ("--plan or --algebra is required (a plan file or catalog "
                                "plan name, or an algebra to derive the plan of)")
    assert "Traceback" not in err


def _set_generators(*blocks):
    return lambda d: d.__setitem__("generators", [
        {"generator": c, "cosets": {str(b): list(f) for b, f in cosets.items()}}
        for c, cosets in blocks])


def test_smash_and_graph(capsys, tmp_path):
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    code, payload, _ = invoke(capsys, "smash", "--action", action)
    assert code == 0 and payload["dimension"] == 8 and payload["grouplike_count"] == 8
    pi = export_entry(capsys, tmp_path, "op:crossed:kC2:kC4", "pi.json")
    code, payload, _ = invoke(capsys, "graph", "--action", action, "--operator", pi)
    assert code == 0 and payload["verdicts_agree"]


def test_monoid_table(capsys):
    code, payload, _ = invoke(capsys, "monoid-table", "--algebra", "kS3")
    assert code == 0
    assert payload["size"] == 10
    assert payload["associative"] and payload["transport_is_monoid_map"]


def test_rota_baxter(capsys, tmp_path):
    op = export_entry(capsys, tmp_path, "op:inv:kS3", "inv.json")
    code, payload, _ = invoke(capsys, "rota-baxter", "--operator", op)
    assert code == 0 and payload["ok"]


def test_rota_baxter_expands_each_basis_element_once(capsys, tmp_path, monkeypatch):
    """The Rota-Baxter identity takes Delta^2(e_i) once per i, not once per
    pair (i, j): 6 expansions on kS3, where 36 were made."""
    from hopfdiff import diffops

    op = export_entry(capsys, tmp_path, "op:inv:kS3", "inv.json")
    calls = []
    _counting(monkeypatch, diffops, "sweedler_expand", calls)
    code, payload, _ = invoke(capsys, "rota-baxter", "--operator", op)
    assert code == 0 and payload["ok"]
    assert len(calls) == 6


def test_extend_smash_diff(capsys, tmp_path):
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    dh = export_entry(capsys, tmp_path, "op:id:kC4", "dh.json")
    dk = export_entry(capsys, tmp_path, "op:id:kC2", "dk.json")
    code, payload, _ = invoke(capsys, "extend-smash-diff", "--action", action,
                              "--operator", dh, "--operator-k", dk)
    assert code == 0 and payload["compatible"]
    bad = export_entry(capsys, tmp_path, "op:ueps:kC4", "bad.json")
    code, payload, _ = invoke(capsys, "extend-smash-diff", "--action", action,
                              "--operator", bad, "--operator-k", dk)
    assert code == 1
    assert payload["witness"] == ["s", "r"]


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to calls."""
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_extend_smash_diff_resolves_and_checks_each_input_once(capsys, tmp_path, monkeypatch):
    """On catalog exports, each algebra name is built once per command, so
    every loader gets the same object and no algebra is hashed to compare
    two copies: only each operator file's own content-hash check hashes.
    The action's module axioms are checked once, by the pair check, and
    not again for the smash product."""
    from hopfdiff import actions, catalog, formats

    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    dh = export_entry(capsys, tmp_path, "op:id:kC4", "dh.json")
    dk = export_entry(capsys, tmp_path, "op:id:kC2", "dk.json")
    builds, hashes, axioms = [], [], []
    _counting(monkeypatch, catalog, "build", builds)
    _counting(monkeypatch, formats, "algebra_hash", hashes)
    _counting(monkeypatch, actions, "module_axiom_report", axioms)
    code, payload, _ = invoke(capsys, "extend-smash-diff", "--action", action,
                              "--operator", dh, "--operator-k", dk)
    assert code == 0 and payload["smash"] == "kC4#kC2"
    assert sorted(name for name, in builds) == ["kC2", "kC4"]
    assert [h.name for h, in hashes] == ["kC4", "kC2"]
    assert len(axioms) == 1


@pytest.mark.parametrize("command", ["check-crossed-hom", "graph"])
def test_check_crossed_hom_checks_the_coalgebra_map_once(command, capsys, tmp_path, monkeypatch):
    """graph takes the coalgebra-map check of the crossed-hom verdict and
    does not check the map again for the graph."""
    from hopfdiff import hopf

    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    pi = export_entry(capsys, tmp_path, "op:crossed:kC2:kC4", "pi.json")
    calls = []
    _counting(monkeypatch, hopf, "coalgebra_map_failures", calls)
    code, payload, _ = invoke(capsys, command, "--action", action, "--operator", pi)
    assert code == 0 and payload["ok"]
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["check-crossed-hom", "graph"])
def test_check_crossed_hom_rejects_a_map_that_is_not_a_coalgebra_map(command, capsys, tmp_path):
    """Twice the crossed homomorphism kC2 -> kC4 misses the counit: an input
    error named by the coalgebra entries of the crossed-hom report."""
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    code, payload, _ = invoke(capsys, "catalog", "op:crossed:kC2:kC4")
    data = payload["payload"]
    data["matrix"] = [[str(2 * int(c)) for c in row] for row in data["matrix"]]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    code, payload, err = invoke(capsys, command, "--action", action,
                                "--operator", str(path))
    assert code == 2
    assert payload["error"] == "map is not a coalgebra homomorphism"
    assert "Traceback" not in err


@pytest.mark.parametrize("operator, message", [
    ("op:id:kC4", "acting algebra"),        # domain is the target, not the acting algebra
    ("op:id:kC2", "matrix shape"),          # right domain, but its images lie in kC2
])
def test_graph_with_operator_on_wrong_algebra_exits_two(capsys, tmp_path, operator, message):
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    op = export_entry(capsys, tmp_path, operator, "op.json")
    code, payload, err = invoke(capsys, "graph", "--action", action, "--operator", op)
    assert code == 2
    assert payload["ok"] is False and message in payload["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check-crossed-hom", "graph"])
def test_crossed_hom_into_another_algebra_exits_two(capsys, tmp_path, command):
    """The crossed homomorphism kC2 -> kC4 relabelled as a map into H4, with
    H4's content hash: H4 has kC4's dimension, but it is not the target of
    the action, so the map is an input error and not a verdict."""
    from hopfdiff import catalog
    from hopfdiff.formats import algebra_hash

    code, payload, _ = invoke(capsys, "catalog", "op:crossed:kC2:kC4")
    data = payload["payload"]
    data["codomain"] = "H4"
    data["codomain_sha256"] = algebra_hash(catalog.build("H4"))
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(data))
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    code, payload, err = invoke(capsys, command, "--action", action, "--operator", str(path))
    assert code == 2
    assert payload["ok"] is False and "codomain does not match" in payload["error"]
    assert "Traceback" not in err


def test_extend_smash_diff_with_operator_on_another_algebra_exits_two(capsys, tmp_path):
    """D_H = id on H4 has the dimension of the action's target kC4 but is an
    operator on another algebra."""
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    dh = export_entry(capsys, tmp_path, "op:id:H4", "dh.json")
    dk = export_entry(capsys, tmp_path, "op:id:kC2", "dk.json")
    code, payload, err = invoke(capsys, "extend-smash-diff", "--action", action,
                                "--operator", dh, "--operator-k", dk)
    assert code == 2
    assert payload["ok"] is False and "D_H is not an operator on kC4" in payload["error"]
    assert "Traceback" not in err


def test_extend_smash_diff_with_swapped_operators_exits_two(capsys, tmp_path):
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    dh = export_entry(capsys, tmp_path, "op:id:kC2", "dh.json")
    dk = export_entry(capsys, tmp_path, "op:id:kC4", "dk.json")
    code, payload, err = invoke(capsys, "extend-smash-diff", "--action", action,
                                "--operator", dh, "--operator-k", dk)
    assert code == 2
    assert payload["ok"] is False and "not an operator on" in payload["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, operators, error", [
    ("smash", [], "not a module bialgebra"),
    ("check-crossed-hom", ["--operator", "op:crossed:kC2:kC4"], "not a module algebra"),
    ("graph", ["--operator", "op:crossed:kC2:kC4"], "not a module algebra"),
    ("extend-smash-diff", ["--operator", "op:id:kC4", "--operator-k", "op:id:kC2"],
     "not a module bialgebra"),
], ids=["smash", "check-crossed-hom", "graph", "extend-smash-diff"])
def test_action_failing_module_axioms_gives_structured_report(capsys, tmp_path, command,
                                                              operators, error):
    """kC2 acting on kC4 with s acting by the rotation x -> x+1: s.(s.1) is
    r^2, not 1, so module associativity fails first, at (s, s, 1)."""
    code, payload, _ = invoke(capsys, "catalog", "action:inv:kC2:kC4")
    action = payload["payload"]
    action["tensor"][1] = [["1" if p == (x + 1) % 4 else "0" for p in range(4)]
                           for x in range(4)]
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(action))
    argv = [command, "--action", str(path)]
    for flag, entry in zip(operators[::2], operators[1::2]):
        argv += [flag, export_entry(capsys, tmp_path, entry, f"{flag[2:]}.json")]
    code, payload, err = invoke(capsys, *argv)
    assert code == 1
    assert payload["ok"] is False and payload["command"] == command
    assert (payload["acting"], payload["target"]) == ("kC2", "kC4")
    assert payload["error"] == error
    assert payload["axiom"] == "module-associativity" and payload["witness"] == [1, 1, 0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, code, error", [
    ("check-crossed-hom", 1, "not a module algebra"),
    ("graph", 2, "map is not a coalgebra homomorphism"),
])
def test_which_error_wins_on_a_bad_action_and_a_map_that_is_not_a_coalgebra_map(
        capsys, tmp_path, command, code, error):
    """The rotation action above with twice the crossed homomorphism:
    check-crossed-hom refuses the action first and graph the map first."""
    _, payload, _ = invoke(capsys, "catalog", "action:inv:kC2:kC4")
    action = payload["payload"]
    action["tensor"][1] = [["1" if p == (x + 1) % 4 else "0" for p in range(4)]
                           for x in range(4)]
    _, payload, _ = invoke(capsys, "catalog", "op:crossed:kC2:kC4")
    pi = payload["payload"]
    pi["matrix"] = [[str(2 * int(c)) for c in row] for row in pi["matrix"]]
    paths = [tmp_path / "rotation.json", tmp_path / "twice.json"]
    for path, data in zip(paths, (action, pi)):
        path.write_text(json.dumps(data))
    got, payload, _ = invoke(capsys, command, "--action", str(paths[0]),
                             "--operator", str(paths[1]))
    assert (got, payload["error"]) == (code, error)


def test_free_lie_tasks(capsys):
    code, payload, _ = invoke(capsys, "free-lie", "lyndon-dims",
                              "--generators", "2", "--budget", "4")
    assert code == 0 and payload["lyndon"] == [2, 1, 2, 3]
    code, payload, _ = invoke(capsys, "free-lie", "mm-check",
                              "--generators", "2", "--budget", "3")
    assert code == 0 and payload["uniqueness"]
    code, payload, _ = invoke(capsys, "free-lie", "ckmm-mixed", "--budget", "3")
    assert code == 0 and payload["compatible"]


def test_free_lie_mm_check_at_budget_five(capsys):
    """The pair and skip counts of mm-check at budget 5, pinned: the
    crossed-homomorphism extension's checked pairs, and every skip of the
    extension, the restriction and the module-axiom check."""
    code, payload, _ = invoke(capsys, "free-lie", "mm-check", "--budget", "5")
    assert code == 0 and payload["ok"] is True
    assert (payload["pairs_checked"], payload["skipped"]) == (321, 503274)
    assert payload["uniqueness"] is True


def test_free_lie_diffop_from_hom_with_phi_file(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"images": [{"a": "1"}, {"b": "1"}]}))
    code, payload, _ = invoke(capsys, "free-lie", "diffop-from-hom",
                              "--generators", "2", "--budget", "3",
                              "--phi", str(phi))
    assert code == 0
    assert payload["diffop_images"]["a"] == "a"
    assert payload["diffop_images"]["ab"] == "2*ab - ba"


@pytest.mark.parametrize("task", ["mm-check", "diffop-from-hom"])
@pytest.mark.parametrize("content, message", [
    ({}, "must map every letter"),
    ({"images": [{"a": "-1"}]}, "must map every letter"),
    ({"images": [{"a": "-1"}, {"b": "-1"}, {"c": "1"}]}, "must map every letter"),
    ([{"a": "-1"}, {"b": "-1"}], "must map every letter"),
    ({"images": [3, {"b": "-1"}]}, "words to coefficients"),
    ({"images": [{"aaaa": "1"}, {"b": "-1"}]}, "exceeds budget 3"),
    ({"images": [{"a": "1/0"}, {"b": "-1"}]}, "bad coefficient"),
    ({"images": [{"a": [1]}, {"b": "-1"}]}, "bad coefficient"),
    ({"images": [{"x": "1"}, {"b": "-1"}]}, "bad letter"),
    ({"images": [{"a": "-1"}, {"b": "-1"}], "pi": []}, "unknown keys"),
], ids=["no-images", "too-few", "too-many", "not-an-object", "image-not-a-table",
        "word-beyond-budget", "division-by-zero", "coefficient-not-a-number", "bad-letter",
        "unknown-key"])
def test_free_lie_malformed_phi_file_exits_two(capsys, tmp_path, task, content, message):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(content))
    code, payload, err = invoke(capsys, "free-lie", task, "--generators", "2",
                                "--budget", "3", "--phi", str(phi))
    assert code == 2
    assert payload["ok"] is False and message in payload["error"]
    assert "Traceback" not in err


def test_free_lie_mm_check_with_phi_file(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"images": [{"a": "-1"}, {"b": "-1"}]}))
    code, payload, _ = invoke(capsys, "free-lie", "mm-check", "--generators", "2",
                              "--budget", "3", "--phi", str(phi))
    assert code == 0 and payload["ok"] and payload["uniqueness"]
    code, default, _ = invoke(capsys, "free-lie", "mm-check", "--generators", "2",
                              "--budget", "3")
    assert payload == default


def test_free_lie_mm_check_budget_skip_is_not_a_failure(capsys, tmp_path):
    """pi(a) = -a + [a, b], pi(b) = -b: pi(a) pi(a) leaves budget 3, so
    degree 2 of the uniqueness check is undecided.  That is a skip, and
    uniqueness is null, not false."""
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"images": [{"a": "-1", "ab": "1", "ba": "-1"},
                                          {"b": "-1"}]}))
    code, payload, _ = invoke(capsys, "free-lie", "mm-check", "--generators", "2",
                              "--budget", "3", "--phi", str(phi))
    assert code == 0 and payload["ok"] is True
    assert payload["uniqueness"] is None


def test_ckmm_check(capsys, tmp_path):
    op = export_entry(capsys, tmp_path, "op:inv:kS3", "inv.json")
    code, payload, _ = invoke(capsys, "ckmm-check", "--operator", op)
    assert code == 0 and payload["ok"]


def test_catalog_list_and_export(capsys):
    from hopfdiff import catalog
    from hopfdiff.actions import ActionData
    from hopfdiff.groups import FinGroup
    from hopfdiff.hopf import FinDimHopf, LinMap
    from hopfdiff.solver import SearchPlan

    kinds = [(FinDimHopf, "algebra"), (FinGroup, "group"), (ActionData, "action"),
             (SearchPlan, "plan"), (LinMap, "operator"), (list, "expected-tables")]
    code, payload, _ = invoke(capsys, "catalog")
    assert code == 0 and payload["entries"] == catalog.names()
    assert "H8" in payload["entries"]
    seen = set()
    for name in catalog.names():
        built = catalog.build(name)
        expected = [kind for cls, kind in kinds if isinstance(built, cls)]
        code, payload, _ = invoke(capsys, "catalog", name)
        assert code == 0 and [payload["kind"]] == expected, name
        seen.add(payload["kind"])
    assert seen == {kind for _, kind in kinds}


# the kind of every catalog export
EXPORT_KINDS = {
    "C2": "group", "C2xC2": "group", "C4": "group", "D4": "group", "S3": "group",
    "H4": "algebra", "H8": "algebra", "kC2": "algebra", "kC2xC2": "algebra",
    "kC4": "algebra", "kD4": "algebra", "kS3": "algebra",
    "action:inv:kC2:kC4": "action",
    "aut:H8:swap": "operator", "op:D1:H8": "operator", "op:crossed:kC2:kC4": "operator",
    "op:id:H4": "operator", "op:id:kC2": "operator", "op:id:kC4": "operator",
    "op:inv:kS3": "operator", "op:ueps:H4": "operator", "op:ueps:kC4": "operator",
    "expected:H4": "expected-tables", "expected:H8-bijective": "expected-tables",
    "plan:H4": "plan", "plan:H8": "plan", "plan:kC2": "plan", "plan:kC2xC2": "plan",
}


def test_every_catalog_entry_exports_with_its_kind(capsys):
    from hopfdiff import catalog

    assert sorted(catalog.names()) == sorted(EXPORT_KINDS)
    for name in catalog.names():
        code, payload, err = invoke(capsys, "catalog", name)
        assert code == 0 and payload["kind"] == EXPORT_KINDS[name], name
        assert err == f"catalog {name}: exported ({EXPORT_KINDS[name]})\n"


# argv -> exit code, stdout and stderr of hopfdiff, recorded with COLUMNS=80:
# --help of hopfdiff and of every command, an unknown command, and an option
# that only another command takes
USAGE = json.loads((Path(__file__).parent / "cli_usage.json").read_text(encoding="utf-8"))


def test_usage_cases_cover_every_command():
    assert {argv.split()[0] for argv in USAGE if argv.endswith(" --help")} == set(COMMANDS)


@pytest.mark.parametrize("argv", list(USAGE))
def test_usage_text_is_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = USAGE[argv]
    assert run(argv.split()) == want["code"]
    captured = capsys.readouterr()
    assert captured.out == want["stdout"]
    assert captured.err == want["stderr"]


def test_unknown_flag_exits_two():
    assert run(["validate", "--algebra", "H4", "--frobnicate"]) == 2


def test_missing_file_exits_two(capsys):
    code, payload, _ = invoke(capsys, "check-diffop", "--operator", "/nonexistent.json")
    assert code == 2
    assert payload["ok"] is False and "error" in payload


def test_unknown_catalog_name_exits_two(capsys):
    code, payload, _ = invoke(capsys, "validate", "--algebra", "H16")
    assert code == 2


@pytest.mark.parametrize("entry, argv, corrupt", [
    ("kC2", ["validate", "--algebra"], lambda d: d["counit"].__setitem__(0, "1/0")),
    ("op:id:kC2", ["check-diffop", "--operator"],
     lambda d: d["matrix"][0].__setitem__(0, "1/0")),
    ("action:inv:kC2:kC4", ["smash", "--action"],
     lambda d: d["tensor"][0][0].__setitem__(0, "1/0")),
    ("plan:H4", ["classify-diffops", "--plan"], lambda d: d["generators"][0].pop("cosets")),
    ("expected:H4", ["classify-diffops", "--plan", "plan:H4", "--expected"],
     lambda d: d["operators"][0]["images"][0].__setitem__(0, "1/0")),
    # plan files that parse but are not valid plans
    ("plan:H4", ["classify-diffops", "--plan"], lambda d: d.__setitem__("generators", [])),
    ("plan:H4", ["classify-diffops", "--plan"], lambda d: d.__setitem__("grouplikes", [0, 9])),
    ("plan:H4", ["classify-diffops", "--plan"],
     lambda d: d["generators"][0]["cosets"].__setitem__("7", [0, 2])),
    # plans the coset rule rejects: group-likes short of the declared
    # coradical, overlapping blocks, and a coset split in two
    ("plan:kC2xC2", ["classify-diffops", "--plan"], lambda d: (
        d.__setitem__("grouplikes", [0, 1]), _set_generators((2, {2: (0, 2), 3: (1, 2)}))(d))),
    ("plan:H8", ["classify-diffops", "--plan"], _set_generators(
        (4, {4: (0, 4), 5: (1, 4), 6: (2, 4), 7: (3, 4)}),
        (5, {5: (0, 5), 4: (1, 5), 7: (2, 5), 6: (3, 5)}))),
    ("plan:H4", ["classify-diffops", "--plan"],
     _set_generators((2, {2: (0, 2)}), (3, {3: (0, 3)}))),
], ids=["algebra", "operator", "action", "plan", "expected", "plan-uncovered",
        "plan-grouplike-range", "plan-coset-range", "plan-partial-coradical",
        "plan-overlapping-blocks", "plan-split-coset"])
def test_malformed_file_exits_two(capsys, tmp_path, entry, argv, corrupt):
    path = tmp_path / "bad.json"
    code, payload, _ = invoke(capsys, "catalog", entry)
    corrupt(payload["payload"])
    path.write_text(json.dumps(payload["payload"]))
    code, payload, err = invoke(capsys, *argv, str(path))
    assert code == 2
    assert payload["ok"] is False and "error" in payload
    assert "Traceback" not in err


@pytest.mark.parametrize("task, options", [
    ("lyndon-dims", ["--budget", "8"]),
    ("mm-check", ["--generators", "4"]),
    ("ckmm-mixed", ["--budget", "8"]),
])
def test_free_lie_beyond_caps_exits_two(capsys, task, options):
    code, payload, _ = invoke(capsys, "free-lie", task, *options)
    assert code == 2
    assert payload["ok"] is False and "budget capped at 7" in payload["error"]


@pytest.mark.parametrize("task, options", [
    ("lyndon-dims", ["--budget", "-1"]),
    ("lyndon-dims", ["--budget", "0"]),
    ("mm-check", ["--budget", "-1"]),
    ("lyndon-dims", ["--generators", "0"]),
    ("ckmm-mixed", ["--budget", "-1"]),
])
def test_free_lie_below_range_exits_two(capsys, task, options):
    code, payload, err = invoke(capsys, "free-lie", task, *options)
    assert code == 2
    assert payload["ok"] is False and "at least 1" in payload["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("generators", ["1", "2", "3"])
def test_free_lie_mm_check_at_budget_one_exits_two(capsys, generators):
    """The brackets of the adjoint action have degree 2, so budget 1 is an
    input error, not a traceback."""
    code, payload, err = invoke(capsys, "free-lie", "mm-check", "--budget", "1",
                                "--generators", generators)
    assert code == 2
    assert payload["ok"] is False
    assert payload["error"] == ("mm-check needs budget 2 or more for the brackets of the "
                                "adjoint action: degree 2 exceeds budget 1")
    assert "Traceback" not in err


def test_out_flag_writes_identical_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = invoke(capsys, "validate", "--algebra", "H4", "--out", str(out))
    assert code == 0
    run(["validate", "--algebra", "H4"])
    captured = capsys.readouterr()
    assert out.read_text() == captured.out


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfdiff", "validate", "--algebra", "kC2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    assert proc.stderr.strip()


def test_classify_accepts_catalog_algebra_shorthand(capsys, tmp_path):
    expected = export_entry(capsys, tmp_path, "expected:H4", "expected.json")
    code, payload, _ = invoke(capsys, "classify-diffops", "--algebra", "H4",
                              "--expected", expected)
    assert code == 0 and payload["operator_count"] == 1


def test_seed_is_recorded(capsys):
    code, payload, _ = invoke(capsys, "validate", "--algebra", "H4", "--seed", "7")
    assert code == 0 and payload["seed"] == 7


@pytest.mark.parametrize("command", ["grouplikes", "monoid-table", "classify-diffops"])
def test_non_hopf_algebra_file_gives_structured_report(capsys, tmp_path, command):
    code, payload, _ = invoke(capsys, "catalog", "kC2")
    payload["payload"]["counit"] = ["1", "0"]
    path = tmp_path / "bad_counit.json"
    path.write_text(json.dumps(payload["payload"]))
    code, payload, err = invoke(capsys, command, "--algebra", str(path))
    assert code == 1
    assert payload["ok"] is False and payload["command"] == command
    assert payload["axiom"] == "counit" and payload["witness"] == [1]
    assert "Traceback" not in err
    # validate still reports every axiom
    code, payload, _ = invoke(capsys, "validate", "--algebra", str(path))
    assert code == 1
    assert [c["axiom"] for c in payload["axioms"] if not c["ok"]] == [
        "counit", "bialgebra", "antipode"]


@pytest.mark.parametrize("entry, field, argv", [
    ("op:id:kC2", "algebra", ["check-diffop", "--operator"]),
    ("action:inv:kC2:kC4", "target", ["smash", "--action"]),
    ("plan:kC2", "algebra", ["classify-diffops", "--plan"]),
], ids=["operator", "action", "plan"])
def test_file_naming_non_hopf_algebra_file_gives_structured_report(capsys, tmp_path,
                                                                   entry, field, argv):
    """An operator, action or plan file whose algebra field is the path of
    an algebra file failing a Hopf axiom gets that algebra's report (exit 1),
    not the file's parse error (exit 2)."""
    code, payload, _ = invoke(capsys, "catalog", "kC2")
    payload["payload"]["counit"] = ["1", "0"]
    algebra = tmp_path / "bad_counit.json"
    algebra.write_text(json.dumps(payload["payload"]))
    code, payload, _ = invoke(capsys, "catalog", entry)
    payload["payload"][field] = str(algebra)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload["payload"]))
    code, payload, err = invoke(capsys, *argv, str(path))
    assert code == 1
    assert payload["ok"] is False and payload["error"] == "not a Hopf algebra"
    assert payload["algebra"] == "kC2"
    assert payload["axiom"] == "counit" and payload["witness"] == [1]
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["op:id:kC4", "op:crossed:kC2:kC4"])
@pytest.mark.parametrize("command", ["check-diffop", "rota-baxter", "ckmm-check"])
def test_operator_into_another_algebra_is_an_input_error(capsys, tmp_path, command, entry):
    """A difference operator maps its algebra to itself.  An operator file
    with another algebra as codomain exits 2 with a JSON error naming both:
    the identity of kC4 declared as a map to H4, a square matrix, as well
    as the crossed homomorphism kC2 -> kC4."""
    code, payload, _ = invoke(capsys, "catalog", entry)
    data = payload["payload"]
    data.setdefault("codomain", "H4")
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    code, payload, err = invoke(capsys, command, "--operator", str(path))
    assert code == 2
    assert payload["ok"] is False and payload["command"] == command
    assert f"maps {data['algebra']} to {data['codomain']}" in payload["error"]
    assert "Traceback" not in err


def test_extend_smash_diff_reads_difference_operators(capsys, tmp_path):
    code, payload, _ = invoke(capsys, "catalog", "op:id:kC4")
    data = payload["payload"]
    data["codomain"] = "H4"
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    action = export_entry(capsys, tmp_path, "action:inv:kC2:kC4", "action.json")
    identity = export_entry(capsys, tmp_path, "op:id:kC2", "id_kC2.json")
    code, payload, err = invoke(capsys, "extend-smash-diff", "--action", action,
                                "--operator", str(path), "--operator-k", identity)
    assert code == 2 and "maps kC4 to H4" in payload["error"]
    assert "Traceback" not in err


def test_operator_with_its_own_algebra_as_codomain_is_accepted(capsys, tmp_path):
    code, payload, _ = invoke(capsys, "catalog", "op:id:kC4")
    data = payload["payload"]
    data["codomain"] = "kC4"
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(data))
    for command in ("check-diffop", "rota-baxter", "ckmm-check"):
        code, payload, _ = invoke(capsys, command, "--operator", str(path))
        assert code == 0 and payload["ok"] is True


# faults of the declared coradical of an H4 file, and the message each gets
CORADICAL_FAULTS = {
    "not-closed": ([1], "declared coradical not closed under multiplication at (g, g)"),
    "not-grouplike": ([0, 2], "declared coradical element x is not group-like"),
    "undeclared": (None, "no declared group-algebra coradical"),
    "not-basis-indices": ([0, 9], "declared coradical must list distinct basis indices"),
    "missing-grouplike": ([0], "basis element g is group-like but not in the declared coradical"),
}


@pytest.mark.parametrize("fault", list(CORADICAL_FAULTS))
def test_bad_coradical_declaration_exits_two_with_one_message(capsys, tmp_path, fault):
    """Every command that reads G(H) exits 2 with the same message for the
    same fault; the plan file's message, and the message of a plan derived
    from the file, has its context in front.
    With no declaration grouplikes scans the basis instead, and commands
    that do not read G(H) still succeed."""
    declared, message = CORADICAL_FAULTS[fault]
    code, payload, _ = invoke(capsys, "catalog", "H4")
    algebra = payload["payload"]
    if declared is None:
        del algebra["coradical_group_basis"]
    else:
        algebra["coradical_group_basis"] = declared
    path = tmp_path / "h4.json"
    path.write_text(json.dumps(algebra))
    files = {}
    for entry in ("plan:H4", "op:ueps:H4"):
        code, payload, _ = invoke(capsys, "catalog", entry)
        data = payload["payload"]
        data["algebra"] = str(path)
        del data["algebra_sha256"]
        files[entry] = tmp_path / f"{entry.replace(':', '_')}.json"
        files[entry].write_text(json.dumps(data))
    commands = [("monoid-table", "--algebra", path),
                ("classify-diffops", "--algebra", path),
                ("classify-diffops", "--plan", files["plan:H4"]),
                ("ckmm-check", "--operator", files["op:ueps:H4"])]
    if declared is not None:
        commands.append(("grouplikes", "--algebra", path))
    for command, flag, arg in commands:
        code, payload, err = invoke(capsys, command, flag, str(arg))
        assert code == 2
        assert payload["ok"] is False and payload["command"] == command
        context = ("" if command != "classify-diffops" else
                   "bad plan file: " if flag == "--plan" else f"no search plan for {path}: ")
        assert payload["error"] == context + message
        assert "Traceback" not in err
    for command in ("validate", "primitives") + (("grouplikes",) if declared is None else ()):
        code, payload, _ = invoke(capsys, command, "--algebra", str(path))
        assert code == 0 and payload["ok"] is True
        if command == "grouplikes":
            assert payload["complete"] is False and payload["elements"] == ["1", "g"]


def test_a_proper_subgroup_declared_as_the_coradical_exits_two(capsys, tmp_path):
    """kC2xC2 declared with the coradical {1, x}: the classification would
    search only the branches of that subgroup (8 operators, where kC2xC2
    has 16) and still read complete."""
    path = export_entry(capsys, tmp_path, "kC2xC2", "kc2xc2.json")
    with open(path) as f:
        algebra = json.loads(f.read())
    algebra["coradical_group_basis"] = [0, 1]
    with open(path, "w") as f:
        f.write(json.dumps(algebra))
    message = "basis element y is group-like but not in the declared coradical"
    for command, context in (("classify-diffops", f"no search plan for {path}: "),
                             ("grouplikes", "")):
        code, payload, err = invoke(capsys, command, "--algebra", path)
        assert code == 2
        assert payload["error"] == context + message
        assert "Traceback" not in err


def test_monoid_table_on_a_non_group_algebra_exits_two(capsys):
    code, payload, err = invoke(capsys, "monoid-table", "--algebra", "H4")
    assert code == 2
    assert payload["error"] == ("H4 is not a group algebra: its declared group-likes "
                                "span 2 of 4 dimensions")
    assert "Traceback" not in err


# exit code and sha256 of the whole stdout of one run of every command, the
# reports that go through an action first; a refactor of the action layer
# or of the CLI's report plumbing must leave every byte of them unchanged
REPORT_SHA256 = {
    "smash": (0, "daebb60c407a6a0c1e32d2b339340498bc0b72ad7ddba4ee60c5748ea7b73afe"),
    "check-crossed-hom": (0, "7b8fadc9bc050b501298b879d9fd27a294934cf50d6a9334a48ba8a1386ad283"),
    "graph": (0, "9173d4d441c09c7d248f2d7de52f7b89b13f06998abd25eb2f7c0cf518be7755"),
    "extend-smash-diff": (0, "3f69dfe5c90dfbaddfa6a4955527b05e72c373be832c0f426bfb0f6286680997"),
    "ckmm-mixed": (0, "7a1abdc81eee8cf1f54300e537fb71efca04ed57c75082cb6264a7de5bb3de88"),
    "mm-check": (0, "f40755adf1ac2c9abe0ba9a5dafba7fb3a0583dec83d59b9c4a3bff25c738bb2"),
    "mm-check-b5": (0, "7f24c92bb0baa0049b8ea14188d226c8b253a3117b8b7e38024363c1be82b67e"),
    "mm-check-b6": (0, "3e9d765d5b2df23454b73fb311606c684d1d0dea36117017eaa8f9ccd16f7090"),
    "mm-check-b7": (0, "e0f11cc45ff7f4ec260048a2b83481522a0b9acedee512b410dd83a4ba28b98a"),
    "validate": (0, "0d7ba8346edd8fc89ee77c460a41a461336150a3a61911c78ccc1a4013fcf8c5"),
    "grouplikes": (0, "250bd580a3e4c16f9d8cc2b7adb91d842da3aa54efc2b3752b65eaafaa83e59a"),
    "primitives": (0, "307c69a4a58eccc4c86be88fddab821b6590037486c187f44409661259d810db"),
    "skew-primitives": (0, "e011a951fc5b14c2213b32e1dc694dc3e210339aa9982fea4e1b76605dfdbaf7"),
    "check-diffop": (0, "1326c0bb32aaf7e4cd49fdf3bd78ccd021c720c71b032740ed130b63e236484c"),
    "classify-diffops": (0, "b77f12a7dd9aeabe9d414ca5637fd2b875ec9b0f2f6601dd3f8c7c3a79d3b6f8"),
    "monoid-table": (0, "986869622fa560c98236502421c42fe24616426d3a274c9d354a51a20f548036"),
    "monoid-table-kD4": (0, "cccff85580dfabef750cd2bdf00a1dd3c55d857386015fbf261b28e4737e7774"),
    "rota-baxter": (0, "11cb527e3b51e4318cb75d5d76e1d8f9450b1ce4732221ecaafe9863aeaf24ed"),
    "ckmm-check": (0, "369a2cde0c29fea72fc21a26662ab6adf3e3fce621fa26dbfd826c8a809d2942"),
    "catalog": (0, "3deaacffbc886c43201156a67989f992b2b32dfaa3bc909e3a4d737e63a0a95f"),
    "lyndon-dims": (0, "34945d3f79572d469418c66653570213a5b9f93725979ec63630161b91929f00"),
    "diffop-from-hom": (0, "4bf8f50dd5c549a129431f1b130f41f4c302f660b4a0e73f49f688251f160fb4"),
    "exit-1": (1, "dea1983b64f2212c03243efd1056ed7db075777a3e008606325249d8332b9d28"),
    "exit-2": (2, "ae2f703e08d85c2cc8748ef20d979fbb212214186d5a18947b210de2123cc5fb"),
    "seed": (0, "eff0acc36aaddd53ee44ec711724a51d4d7d3c000a7e8664eaae08ebfbccb070"),
    "catalog-plan-H8": (0, "286873584cae10d936a42453f0aa3bddfd67db4211e2d7e0382501fdd66637f4"),
    "catalog-plan-kC2": (0, "d2503011126204d365c9be23fb89d086282377d62e270b84a440c42b4c1cc0ba"),
    "catalog-plan-kC2xC2": (0, "0fc3bbfbef3637c3a0814b54178dd56b3c9bd55adb641cef6e89569ae16d5290"),
    "classify-diffops-H8": (0, "7798a9fa820bbc885aeae1d7582208f377dfec37cbe16b8a30497377fead2911"),
    "classify-diffops-kS3": (0, "3b0bbc15b179240a27b4fce4c7e17d79372197779c254b141d8ec879da164ca5"),
    "classify-diffops-kD4": (0, "d9994bdaf2ac2b526ce9bec400469872090c7832c11dc43aede050caa2155c2f"),
    "classify-diffops-kC4": (0, "659990f78a20353b84c17b65d2e5ebd2043ae6a3150a42acdeae5a1c90565069"),
    "classify-diffops-kC2": (0, "6ee36d573c583092cf9d7d808455af24f9dc4947d10d3824b7081b813d2cb334"),
    "classify-diffops-kC2xC2": (0, "ea0804de46490fe1cdc761e8f6f67241f36ed060d3ca4d49adbd6212ef74d518"),
}


@pytest.mark.parametrize("name, argv", [
    ("smash", ["smash", "--action", "action:inv:kC2:kC4"]),
    ("check-crossed-hom", ["check-crossed-hom", "--action", "action:inv:kC2:kC4",
                           "--operator", "op:crossed:kC2:kC4"]),
    ("graph", ["graph", "--action", "action:inv:kC2:kC4",
               "--operator", "op:crossed:kC2:kC4"]),
    ("extend-smash-diff", ["extend-smash-diff", "--action", "action:inv:kC2:kC4",
                           "--operator", "op:id:kC4", "--operator-k", "op:id:kC2"]),
    ("ckmm-mixed", ["free-lie", "ckmm-mixed", "--budget", "4"]),
    ("mm-check", ["free-lie", "mm-check", "--budget", "4"]),
    ("validate", ["validate", "--algebra", "H8"]),
    ("grouplikes", ["grouplikes", "--algebra", "kS3"]),
    ("primitives", ["primitives", "--algebra", "H8"]),
    ("skew-primitives", ["skew-primitives", "--algebra", "H4",
                         "--left-grouplike", "0", "--right-grouplike", "1"]),
    ("check-diffop", ["check-diffop", "--operator", "op:ueps:H4"]),
    ("classify-diffops", ["classify-diffops", "--plan", "plan:H4",
                          "--expected", "expected:H4"]),
    ("monoid-table", ["monoid-table", "--algebra", "kS3"]),
    ("rota-baxter", ["rota-baxter", "--operator", "op:inv:kS3"]),
    ("ckmm-check", ["ckmm-check", "--operator", "op:inv:kS3"]),
    ("catalog", ["catalog", "plan:H4"]),
    ("lyndon-dims", ["free-lie", "lyndon-dims", "--generators", "3", "--budget", "4"]),
    ("diffop-from-hom", ["free-lie", "diffop-from-hom", "--budget", "3"]),
    # a mathematical failure, an input error, and a seed recorded in the report
    ("exit-1", ["check-diffop", "--operator", "op:id:H4"]),
    ("exit-2", ["monoid-table", "--algebra", "H4"]),
    ("seed", ["classify-diffops", "--plan", "plan:kC2", "--seed", "7"]),
    # the exports and one classification of the catalog's search plans
    ("catalog-plan-H8", ["catalog", "plan:H8"]),
    ("catalog-plan-kC2", ["catalog", "plan:kC2"]),
    ("catalog-plan-kC2xC2", ["catalog", "plan:kC2xC2"]),
    ("classify-diffops-H8", ["classify-diffops", "--plan", "plan:H8"]),
    # the group algebras, whose plans have no blocks
    ("classify-diffops-kS3", ["classify-diffops", "--algebra", "kS3"]),
    ("classify-diffops-kD4", ["classify-diffops", "--algebra", "kD4"]),
    ("classify-diffops-kC4", ["classify-diffops", "--algebra", "kC4"]),
    ("classify-diffops-kC2", ["classify-diffops", "--plan", "plan:kC2"]),
    ("classify-diffops-kC2xC2", ["classify-diffops", "--plan", "plan:kC2xC2"]),
    # mm-check at budgets 5 and 6, recorded before its stages ran on
    # integer tables, and at budget 7, the cap: 33 259 666 skipped tuples
    ("mm-check-b5", ["free-lie", "mm-check", "--budget", "5"]),
    ("mm-check-b6", ["free-lie", "mm-check", "--budget", "6"]),
    ("mm-check-b7", ["free-lie", "mm-check", "--budget", "7"]),
    # the monoid on the 36 difference operators of kD4
    ("monoid-table-kD4", ["monoid-table", "--algebra", "kD4"]),
])
def test_action_reports_are_byte_identical(capsys, tmp_path, name, argv):
    """The exit code and full stdout of one run of every command, the
    action reports on the catalog action of kC2 on kC4 by inversion, the
    stdout hashed; every catalog name after a flag is exported to a file
    first."""
    args = []
    for i, arg in enumerate(argv):
        if ":" in arg and argv[i - 1].startswith("--"):
            arg = export_entry(capsys, tmp_path, arg, arg.replace(":", "_") + ".json")
        args.append(arg)
    code, digest = REPORT_SHA256[name]
    assert run(args) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
