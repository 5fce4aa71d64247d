"""Fuzz test of the commands that read the smash layer and the
Rota-Baxter check, of the algebra commands, and of the plan,
expected-tables and phi formats: catalog exports of an action, of
operators, of algebras, of plans and of expected tables, and a phi file,
are mutated and run through ``cli.run``.  An algebra file goes through
``validate``, ``grouplikes``, ``primitives`` and ``skew-primitives
--left-grouplike 0 --right-grouplike 0``, which resolve it through the
axiom check alone, and through ``classify-diffops --algebra`` and
``monoid-table``, which go on to the solver and the operator monoid; a
plan through ``classify-diffops --plan``, expected
tables through ``classify-diffops --expected`` against a plan of their
algebra or of one of another dimension, and a phi file through
``free-lie diffop-from-hom`` and ``mm-check``.

A mutation drops or duplicates a row of some list, sets one entry to
another rational, a string, a list, ``1/0``, a float or a boolean, or
swaps an algebra name for another catalog algebra.  Whatever the input, a
run must exit 0, 1 or 2, print one JSON object on stdout and no traceback
on stderr; an exception out of ``cli.run`` is a traceback.  A plan,
expected-tables or phi file with a float or a boolean where a number was
must exit 2: none of them reads one as a number or an index.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopfdiff.cli import run

ACTION = "action:inv:kC2:kC4"
# each command with its file options, each naming the catalog entry whose
# export it reads
COMMANDS = {
    "smash": {"--action": ACTION},
    "graph": {"--action": ACTION, "--operator": "op:crossed:kC2:kC4"},
    "check-crossed-hom": {"--action": ACTION, "--operator": "op:crossed:kC2:kC4"},
    "extend-smash-diff": {"--action": ACTION, "--operator": "op:id:kC4",
                          "--operator-k": "op:id:kC2"},
    "rota-baxter": {"--operator": "op:inv:kS3"},
}
# the algebra command lines, each reading an algebra export
ALGEBRA_COMMANDS = (["validate"], ["grouplikes"], ["primitives"],
                    ["skew-primitives", "--left-grouplike", "0", "--right-grouplike", "0"],
                    ["classify-diffops"], ["monoid-table"])
NAME_FIELDS = ("algebra", "codomain", "acting", "target")
ALGEBRAS = ["kC2", "kC4", "kC2xC2", "kS3", "H4"]
# the entries a mutation writes; MALFORMED are read as no number or index
MALFORMED = (1.5, True)
ENTRIES = st.sampled_from(["2", "-1/2", "0", "x", [1], "1/0", *MALFORMED])
PLANS = ["plan:kC2", "plan:H4", "plan:kC2xC2"]
# expected tables with the plan they are compared with; plan:kC2's algebra
# has another dimension than the tables
EXPECTED = [("expected:H4", "plan:H4"), ("expected:H4", "plan:kC2")]
# letter images of the two-letter tensor algebra: primitive, so that
# diffop-from-hom accepts them unmutated
PHI = {"images": [{"a": "1", "ab": "1/2", "ba": "-1/2"}, {"b": -1}]}
PHI_COMMANDS = (["free-lie", "diffop-from-hom", "--budget", "3"],
                ["free-lie", "mm-check", "--budget", "3"])


def capture(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def export(name: str) -> dict:
    code, out, _ = capture(["catalog", name])
    assert code == 0
    return json.loads(out)["payload"]


EXPORTS = {name: export(name) for name in {n for opts in COMMANDS.values()
                                          for n in opts.values()}
           | set(ALGEBRAS) | set(PLANS) | {table for table, _ in EXPECTED}}


def places(node, path=()):
    """(path, kind) of every list ("rows") and scalar ("entry") below node."""
    if isinstance(node, list):
        yield path, "rows"
        for i, child in enumerate(node):
            yield from places(child, path + (i,))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from places(child, path + (key,))
    else:
        yield path, "entry"


def at(node, path):
    for key in path:
        node = node[key]
    return node


def is_number(value) -> bool:
    """Whether a file entry is a number: an integer or a rational string."""
    if isinstance(value, str):
        try:
            Fraction(value)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return type(value) is int


@st.composite
def mutation(draw, payload: dict) -> tuple[dict, bool]:
    """A mutated copy of payload, and whether the mutation wrote a
    MALFORMED entry where a number was."""
    payload = copy.deepcopy(payload)
    names = [key for key in NAME_FIELDS if key in payload]
    kind = draw(st.sampled_from(["rows", "entry", "name"] if names else ["rows", "entry"]))
    if kind == "name":
        payload[draw(st.sampled_from(names))] = draw(st.sampled_from(ALGEBRAS))
        return payload, False
    path = draw(st.sampled_from([p for p, k in places(payload)
                                 if k == kind and p and p[0] not in NAME_FIELDS]))
    parent, last = at(payload, path[:-1]), path[-1]
    if kind == "entry":
        was = parent[last]
        parent[last] = draw(ENTRIES)
        return payload, parent[last] in MALFORMED and is_number(was)
    rows = parent[last]
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            del rows[i]
        else:
            rows.insert(i, copy.deepcopy(rows[i]))
    return payload, False


def mutated(payload: dict):
    return mutation(payload).map(lambda m: m[0])


@st.composite
def runs(draw):
    """A command and its files' payloads, one of them mutated."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    target = draw(st.sampled_from(sorted(options)))
    payloads = {flag: draw(mutated(EXPORTS[name])) if flag == target else EXPORTS[name]
                for flag, name in options.items()}
    return [command], payloads


@st.composite
def algebra_runs(draw):
    """An algebra command line and the payload of a mutated algebra export."""
    argv = draw(st.sampled_from(ALGEBRA_COMMANDS))
    return argv, {"--algebra": draw(mutated(EXPORTS[draw(st.sampled_from(ALGEBRAS))]))}


@st.composite
def format_runs(draw):
    """A command line, the mutated payload of the plan, expected-tables or
    phi file it reads, and whether that payload has a MALFORMED entry
    where a number was."""
    kind = draw(st.sampled_from(["plan", "expected", "phi"]))
    if kind == "plan":
        argv, flag, payload = ["classify-diffops"], "--plan", EXPORTS[draw(st.sampled_from(PLANS))]
    elif kind == "expected":
        table, plan = draw(st.sampled_from(EXPECTED))
        argv, flag, payload = ["classify-diffops", "--plan", plan], "--expected", EXPORTS[table]
    else:
        argv, flag, payload = draw(st.sampled_from(PHI_COMMANDS)), "--phi", PHI
    payload, malformed = draw(mutation(payload))
    return argv, {flag: payload}, malformed


def check_run(tmp, argv, payloads) -> int:
    """Run the command line argv on payloads written to files; it must exit
    0, 1 or 2 and print one JSON object and no traceback.  Returns the
    exit code."""
    argv = list(argv)
    for flag, payload in payloads.items():
        path = tmp / (flag.strip("-") + ".json")
        path.write_text(json.dumps(payload))
        argv += [flag, str(path)]
    code, out, err = capture(argv)
    assert code in (0, 1, 2), (argv, payloads)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err
    return code


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=runs())
def test_mutated_inputs_never_crash(tmp_path_factory, case):
    check_run(tmp_path_factory.mktemp("fuzz"), *case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=algebra_runs())
def test_mutated_algebras_never_crash(tmp_path_factory, case):
    check_run(tmp_path_factory.mktemp("fuzz"), *case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=format_runs())
def test_mutated_plans_expected_tables_and_phi_files_never_crash(tmp_path_factory, case):
    argv, payloads, malformed = case
    code = check_run(tmp_path_factory.mktemp("fuzz"), argv, payloads)
    assert code == 2 or not malformed, (argv, payloads)
