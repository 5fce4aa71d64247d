"""Self-test of the independent checker against published tables.

    python3 perfbench/test_checker.py        (or: python3 -m pytest perfbench)

Reads the catalog exports through the command line, as the benchmark does.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402


def export(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    out = subprocess.run([sys.executable, "-m", "hopfdiff", "catalog", name], env=env,
                         capture_output=True, check=True).stdout
    return json.loads(out)["payload"]


def published_h8():
    h8 = checker.Algebra(export("H8"))
    tables = {t["name"]: checker.to_cols(t["images"])
              for t in export("expected:H8-bijective")["operators"]}
    return h8, tables


def test_accepts_published_d1():
    h8, tables = published_h8()
    assert checker.diffop_verdict(h8, tables["D1"]) == (True, None)


def test_rejects_published_d5_at_z_z():
    h8, tables = published_h8()
    z = h8.labels.index("z")
    assert checker.coalgebra_witness(h8, tables["D5"]) is None
    assert checker.diffop_verdict(h8, tables["D5"]) == (False, ("identity", z, z))


def test_rejects_one_perturbed_entry_of_inv_ks3():
    ks3 = checker.Algebra(export("kS3"))
    cols = checker.rows_to_cols(export("op:inv:kS3")["matrix"])
    assert checker.diffop_verdict(ks3, cols) == (True, None)
    cols[4][5] += 1
    assert not checker.diffop_verdict(ks3, cols)[0]


def test_group_counts():
    assert len(checker.endomorphisms(export("C2xC2")["table"])) == 16
    assert len(checker.endomorphisms(export("S3")["table"])) == 10
    assert checker.witt_dims(2, 6) == [2, 1, 2, 3, 6, 9]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
