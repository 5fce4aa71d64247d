"""Fuzz test of the commands that read the smash layer and the
Rota-Baxter check, and of the algebra commands: catalog exports of an
action, of operators and of algebras are mutated and run through
``cli.run``.  An algebra file goes through ``validate``, ``grouplikes``
and ``primitives``, which resolve it through the axiom check alone.

A mutation drops or duplicates a row of some list, sets one entry to
another rational, a string, a list or ``1/0``, or swaps an algebra name
for another catalog algebra.  Whatever the input, a run must exit 0, 1
or 2, print one JSON object on stdout and no traceback on stderr; an
exception out of ``cli.run`` is a traceback.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

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
# the algebra commands, each reading an algebra export
ALGEBRA_COMMANDS = ("validate", "grouplikes", "primitives")
NAME_FIELDS = ("algebra", "codomain", "acting", "target")
ALGEBRAS = ["kC2", "kC4", "kC2xC2", "kS3", "H4"]
ENTRIES = st.sampled_from(["2", "-1/2", "0", "x", [1], "1/0"])


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
                                          for n in opts.values()} | set(ALGEBRAS)}


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


@st.composite
def mutated(draw, payload: dict) -> dict:
    payload = copy.deepcopy(payload)
    names = [key for key in NAME_FIELDS if key in payload]
    kind = draw(st.sampled_from(["rows", "entry", "name"] if names else ["rows", "entry"]))
    if kind == "name":
        payload[draw(st.sampled_from(names))] = draw(st.sampled_from(ALGEBRAS))
        return payload
    path = draw(st.sampled_from([p for p, k in places(payload)
                                 if k == kind and p and p[0] not in NAME_FIELDS]))
    parent, last = at(payload, path[:-1]), path[-1]
    if kind == "entry":
        parent[last] = draw(ENTRIES)
        return payload
    rows = parent[last]
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            del rows[i]
        else:
            rows.insert(i, copy.deepcopy(rows[i]))
    return payload


@st.composite
def runs(draw):
    """A command and its files' payloads, one of them mutated."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command]
    target = draw(st.sampled_from(sorted(options)))
    payloads = {flag: draw(mutated(EXPORTS[name])) if flag == target else EXPORTS[name]
                for flag, name in options.items()}
    return command, payloads


@st.composite
def algebra_runs(draw):
    """An algebra command and the payload of a mutated algebra export."""
    command = draw(st.sampled_from(ALGEBRA_COMMANDS))
    return command, {"--algebra": draw(mutated(EXPORTS[draw(st.sampled_from(ALGEBRAS))]))}


def check_run(tmp, command, payloads):
    """Run command on payloads written to files; it must exit 0, 1 or 2
    and print one JSON object and no traceback."""
    argv = [command]
    for flag, payload in payloads.items():
        path = tmp / (flag.strip("-") + ".json")
        path.write_text(json.dumps(payload))
        argv += [flag, str(path)]
    code, out, err = capture(argv)
    assert code in (0, 1, 2), (argv, payloads)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=runs())
def test_mutated_inputs_never_crash(tmp_path_factory, case):
    check_run(tmp_path_factory.mktemp("fuzz"), *case)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=algebra_runs())
def test_mutated_algebras_never_crash(tmp_path_factory, case):
    check_run(tmp_path_factory.mktemp("fuzz"), *case)
