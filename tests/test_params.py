"""The activation flags: one flag per field of each kind the CLI builds, bar
the code-only fixed_offset; each flag sets exactly its field, the kinds
without fields ignore the flags, and the help section that lists the flags is
fixed.  Flag values the CLI refuses are rows of test_cli.py's usage-error
table."""

from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest

from modhtan.activations import KINDS, Elu, Htan, ModHtan, SoftStep
from modhtan.bench import dump_curves
from modhtan.cli import _activation_from_flags, build_parser, main

# fixed_offset is the one field no flag sets: code freezes a trained offset_1 into it, and no
# run takes a constant offset from the command line
CODE_ONLY = (ModHtan, "fixed_offset")

LEAF_FIELDS = [(cls, f.name) for cls in KINDS.values() for f in fields(cls) if (cls, f.name) != CODE_ONLY]

# Per leaf field: flags that set it away from its default, and the default kind with that one change
MODHTAN = ModHtan()
CHANGED = {
    (ModHtan, "euler_mode"): (["--euler-mode", "direct"], replace(MODHTAN, euler_mode="direct")),
}

COMMANDS = {
    "curves": lambda name: ["curves", "--fn", name],
    "train": lambda name: ["train", "--fn", name],
    "bench": lambda name: ["bench", "--fns", name],
}

GRID = ["--lo", "-5", "--hi", "5", "--step", "0.5"]


def kind_of(argv, name):
    return _activation_from_flags(name, build_parser().parse_args(argv))


def field_id(key):
    owner, name = key
    return f"{owner.__name__}.{name}"


def test_every_leaf_field_has_a_flag():
    assert set(CHANGED) == set(LEAF_FIELDS)
    # no kind's field holds a nested dataclass, whose fields would need flags of their own
    held = {t for cls in KINDS.values() for hint in get_type_hints(cls).values()
            for t in get_args(hint) or (hint,) if is_dataclass(t)}
    assert held == set()


@pytest.mark.parametrize("key", list(CHANGED), ids=[field_id(k) for k in CHANGED])
def test_flag_sets_exactly_its_field(key):
    flags, kind = CHANGED[key]
    assert kind != KINDS[kind.name]()
    assert kind_of(["curves", "--fn", kind.name, *flags], kind.name) == kind


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("name", list(KINDS))
def test_no_flags_build_the_default_kind(name, command):
    assert kind_of(COMMANDS[command](name), name) == KINDS[name]()


@pytest.mark.parametrize(
    "name, flags, kind",
    [
        ("htan", ["--euler-mode", "direct"], Htan()),
        ("elu", ["--euler-mode", "direct"], Elu()),
        ("softstep", ["--euler-mode", "constant"], SoftStep()),
    ],
    ids=["htan", "elu", "softstep"],
)
def test_flags_the_kind_does_not_own_are_ignored(name, flags, kind, tmp_path, capsys):
    out, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert main(["curves", "--fn", name, *flags, *GRID, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    dump_curves(kind, -5.0, 5.0, 0.5, want)
    assert out.read_bytes() == want.read_bytes()


ACTIVATION_HELP = """\
activation parameters:
  --euler-mode {constant,direct}
                        tanh with slope ln E of the cached Euler constant, or
                        the rational formula per input (default constant)
"""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_the_activation_flags(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert main([command, "--help"]) == 0
    sections = capsys.readouterr().out.split("\n\n")
    assert [s.rstrip("\n") + "\n" for s in sections if s.startswith("activation parameters:")] == [ACTIVATION_HELP]
