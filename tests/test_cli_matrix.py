"""The CLI matrix of scripts/cli_matrix.py covers every command, every
catalog entry and every file option.  The cases are built in process, and
no command is run."""

import pytest

from hopfdiff import catalog, cli
from cli_matrix import FILE_OPTIONS, cases

# the options that read no input file
NON_FILE_OPTIONS = ["seed", "out", "left-grouplike", "right-grouplike", "bijective-only",
                    "task", "generators", "budget", "name"]


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    return [argv for argv, _, _ in cases(tmp_path_factory.mktemp("matrix"))]


def test_every_command_runs_beyond_its_usage(argvs):
    run = {argv[0] for argv in argvs if argv[1:] != ["--help"]}
    assert set(cli.COMMANDS) <= run


def test_every_catalog_entry_is_exported(argvs):
    for name in catalog.names():
        assert ["catalog", name] in argvs


def test_every_file_option_gets_the_unreadable_inputs():
    assert set(cli.OPTIONS) == set(FILE_OPTIONS) | set(NON_FILE_OPTIONS)


def test_every_expected_tables_export_runs_against_a_plan(argvs):
    for name in catalog.names():
        if name.startswith("expected:"):
            assert any(argv[0] == "classify-diffops" and "--plan" in argv
                       and argv[-2:-1] == ["--expected"] and argv[-1].endswith(f"{name}.json")
                       for argv in argvs), name
