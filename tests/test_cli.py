import json
import subprocess
import sys

import pytest

from hopfdiff.cli import run


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


def test_free_lie_tasks(capsys):
    code, payload, _ = invoke(capsys, "free-lie", "lyndon-dims",
                              "--generators", "2", "--budget", "4")
    assert code == 0 and payload["lyndon"] == [2, 1, 2, 3]
    code, payload, _ = invoke(capsys, "free-lie", "mm-check",
                              "--generators", "2", "--budget", "3")
    assert code == 0 and payload["uniqueness"]
    code, payload, _ = invoke(capsys, "free-lie", "ckmm-mixed", "--budget", "3")
    assert code == 0 and payload["compatible"]


def test_free_lie_diffop_from_hom_with_phi_file(capsys, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"images": [{"a": "1"}, {"b": "1"}]}))
    code, payload, _ = invoke(capsys, "free-lie", "diffop-from-hom",
                              "--generators", "2", "--budget", "3",
                              "--phi", str(phi))
    assert code == 0
    assert payload["diffop_images"]["a"] == "a"
    assert payload["diffop_images"]["ab"] == "2*ab - ba"


def test_ckmm_check(capsys, tmp_path):
    op = export_entry(capsys, tmp_path, "op:inv:kS3", "inv.json")
    code, payload, _ = invoke(capsys, "ckmm-check", "--operator", op)
    assert code == 0 and payload["ok"]


def test_catalog_list_and_export(capsys):
    code, payload, _ = invoke(capsys, "catalog")
    assert code == 0 and "H8" in payload["entries"]
    code, payload, _ = invoke(capsys, "catalog", "H4")
    assert code == 0 and payload["kind"] == "algebra"


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
], ids=["algebra", "operator", "action", "plan", "expected"])
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
])
def test_free_lie_beyond_caps_exits_two(capsys, task, options):
    code, payload, _ = invoke(capsys, "free-lie", task, *options)
    assert code == 2
    assert payload["ok"] is False and "budget capped" in payload["error"]


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


@pytest.mark.parametrize("command", ["grouplikes", "monoid-table"])
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
