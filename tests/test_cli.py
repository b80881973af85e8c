"""Spec files and the command-line entry point.

Exit codes: 0 for a completed run, 2 for a structured diagnostic (payload
on stdout), 1 for anything else (message on stderr).
"""

import enum
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

import horobound.cli as cli_mod
import horobound.metrics as metrics_mod
from horobound import vabelian
from horobound.annihilator import DEFAULT_GAP
from horobound.boundary import STABILITY_WINDOW, Functional
from horobound.cayley import DEFAULT_BUDGET, Ball
from horobound.cli import RunConfig, emit_report, main, parse_spec, run_command
from horobound.errors import Diagnostic, SchemaError, ValidationError
from horobound.examples import example
from horobound.groups import TABLE_ORDER_BUDGET, Group, cyclic_table
from oracles import oracle_report_bytes

SPECS = resources.files("horobound") / "specs"


def spec_path(name):
    return str(SPECS / name)


def run_cli(argv):
    """Call main() in process; returns (exit code, stdout bytes, stderr text)."""
    out, err = io.BytesIO(), io.StringIO()

    class _Stdout:
        buffer = out

        def write(self, text):
            out.write(text.encode("utf-8"))

        def flush(self):
            pass

    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Stdout(), err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parse_spec on the bundled specs

BUNDLED = {
    "cylinder_n3.spec": ("annihilator", {"m": "3", "r": "12"}),
    "cylinder_n30_diag.spec": (
        "bend",
        {"ell": "8", "m": "18", "r": "49", "scan_m": "2", "x": "(0,15)"},
    ),
    "cylinder_n4.spec": ("annihilator", {"m": "3", "r": "12"}),
    "cylinder_n4_ext.spec": ("polytope", {"r": "8"}),
    "cylinder_n5.spec": ("annihilator", {"m": "3", "r": "12"}),
    "cylinder_n6.spec": ("annihilator", {"m": "3", "r": "12"}),
    "fat_cylinder_n3.spec": ("annihilator", {"m": "2", "r": "10"}),
    "lamplighter.spec": ("ballsystem", {"n_max": "4"}),
    "z2_rot4.spec": ("boundary", {"m": "2", "r": "8"}),
    "z2_standard.spec": ("witness", {"k": "5", "m": "2", "r": "14"}),
    "z_line.spec": ("boundary", {"m": "3", "r": "10"}),
}


def test_bundled_spec_listing():
    names = sorted(p.name for p in SPECS.iterdir() if p.name.endswith(".spec"))
    assert names == sorted(BUNDLED)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_parse_spec_bundled(name):
    group, gens, cfg = parse_spec(spec_path(name))
    command, params = BUNDLED[name]
    assert cfg.command == command
    assert dict(cfg.params) == params
    assert len(cfg.generators) == len(gens)
    if cfg.labels is not None:
        assert len(cfg.labels) == len(gens)


def test_parse_spec_z_line_details():
    group, gens, cfg = parse_spec(spec_path("z_line.spec"))
    assert group.describe()["family"] == "fg_abelian"
    assert cfg.generators == ("(1)", "(-1)")
    assert cfg.labels == ("a", "a^-1")


def test_main_spec_with_witnesses_exits_1(tmp_path):
    # [generators] takes elements and labels only
    path = tmp_path / "witnessed.spec"
    path.write_text(
        "[group]\nfamily = lamplighter_z2\n"
        "[generators]\nelements = ({};1) ({};-1) ({0};0)\nwitnesses = ({1};0)\n"
    )
    code, out, err = run_cli(["ball", str(path), "--r", "2"])
    assert code == 1 and out == b""
    assert err == "error: SchemaError: [generators] unknown key 'witnesses'\n"


def test_main_lamplighter_list_that_does_not_generate_runs_ball(tmp_path):
    # generation is not checked for the lamplighter: <t> is a line
    path = tmp_path / "shift_only.spec"
    path.write_text("[group]\nfamily = lamplighter_z2\n[generators]\nelements = ({};1) ({};-1)\n")
    _, gens, _ = parse_spec(str(path))
    assert [str(x) for x in gens] == ["({};1)", "({};-1)"]
    code, out, err = run_cli(["ball", str(path), "--r", "3"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["layer_sizes"] == [1, 2, 2, 2] and report["size"] == 7


# ---------------------------------------------------------------------------
# rejected spec files

SCHEMA_CASES = [
    ("[generators]\nelements = (1) (-1)\n", r"missing \[group\] section"),
    ("[group]\nfamily = fg_abelian\nfree_rank = 1\n", r"missing \[generators\] section"),
    ("[group]\nfree_rank = 1\n\n[generators]\nelements = (1) (-1)\n", "'family' key"),
    (
        "[group]\nfamily = so3\n\n[generators]\nelements = (1) (-1)\n",
        "unknown family 'so3'",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\ncolor = red\n"
        "\n[generators]\nelements = (1) (-1)\n",
        "unknown key 'color'",
    ),
    ("[group]\nfamily = fg_abelian\n\n[generators]\nelements = (1) (-1)\n", "'free_rank'"),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = one\n"
        "\n[generators]\nelements = (1) (-1)\n",
        "expected an integer",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n"
        "\n[generators]\nelements = (1) (-1)\nlabels = a\n",
        "1 labels for 2 generators",
    ),
    ("[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nlabels = a\n", "'elements'"),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n"
        "\n[generators]\nelements = (1) (-1)\n\n[run]\ncommand = dance\n",
        r"\[run\] unknown command 'dance'",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements = x y\n",
        r"\[generators\] elements",
    ),
    (
        "[group]\nfamily = vab_extension\nrank = 1\nquotient = cyclic:0\n"
        "\n[generators]\nelements = (1;0) (-1;0)\n",
        r"\[group\] quotient: cyclic order must be >= 1, got 0",
    ),
    (
        "[group]\nfamily = vab_extension\nrank = 1\nquotient = cyclic:2\naction.7 = -1\n"
        "\n[generators]\nelements = (1;0) (-1;0) (0;1)\n",
        r"\[group\] action\.7: index outside the quotient 0\.\.1",
    ),
    (
        "[group]\nfamily = vab_extension\nrank = 1\nquotient = cyclic:2\naction.one = -1\n"
        "\n[generators]\nelements = (1;0) (-1;0) (0;1)\n",
        r"\[group\] action\.one: expected an integer, got 'one'",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements = (1) (-1)\n"
        "\n[run]\ncommand = annihilator\nr = 12\nm = 3\ngapp = 0\n",
        r"\[run\] unknown key 'gapp'",
    ),
]

# two spellings of one quotient index: neither line may silently win
_CYCLIC2 = "[group]\nfamily = vab_extension\nrank = 1\nquotient = cyclic:2\n"
_CYCLIC2_GENS = "\n[generators]\nelements = (1;0) (-1;0) (0;1)\n"
for a, b in [
    ("action.1", "action.01"),
    ("action.01", "action.1"),
    ("cocycle.1.1", "cocycle.01.1"),
    ("cocycle.01.1", "cocycle.1.1"),
]:
    SCHEMA_CASES.append(
        (
            f"{_CYCLIC2}{a} = -1\n{b} = 1\n{_CYCLIC2_GENS}",
            rf"\[group\] {re.escape(a)} and {re.escape(b)} set the same quotient index",
        )
    )


@pytest.mark.parametrize("text,match", SCHEMA_CASES)
def test_parse_spec_schema_errors(tmp_path, text, match):
    path = tmp_path / "bad.spec"
    path.write_text(text)
    with pytest.raises(SchemaError, match=match):
        parse_spec(str(path))


def test_parse_spec_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        parse_spec(str(tmp_path / "nope.spec"))


VALIDATION_CASES = [
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements = (1)\n",
        r"not symmetric, \(1\)\^-1 = \(-1\) is missing",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n"
        "\n[generators]\nelements = (0) (1) (-1)\n",
        "identity is not a generator",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements =\n",
        "elements is empty",
    ),
    (
        "[group]\nfamily = fg_abelian\nfree_rank = -1\n"
        "\n[generators]\nelements = (1) (-1)\n",
        r"\[group\]",
    ),
    # symmetric but generates 2Z, caught by the reachability check
    (
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements = (2) (-2)\n",
        r"\[generators\]",
    ),
]


@pytest.mark.parametrize(
    "text,message",
    [
        # an involution listed twice
        (
            "[group]\nfamily = finite\ntable = 0 1; 1 0\n\n[generators]\nelements = (1) (1)\n",
            "generator (1) is listed twice",
        ),
        # t and t^-1 under one label
        (
            "[group]\nfamily = lamplighter_z2\n\n"
            "[generators]\nelements = ({};1) ({};-1) ({0};0)\nlabels = t t a\n",
            "label 't' names two generators",
        ),
    ],
    ids=["element", "label"],
)
def test_main_repeated_generator_or_label_exits_1(tmp_path, text, message):
    spec = tmp_path / "repeat.spec"
    spec.write_text(text)
    code, out, err = run_cli(["ball", str(spec), "--r", "2"])
    assert (code, out) == (1, b"")
    assert err == f"error: ValidationError: {spec}: {message}\n"


@pytest.mark.parametrize("text,match", VALIDATION_CASES)
def test_parse_spec_validation_errors(tmp_path, text, match):
    path = tmp_path / "bad.spec"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        parse_spec(str(path))


# ---------------------------------------------------------------------------
# RunConfig.read_params and the PARAMS table


def _config(**params):
    _, _, cfg = parse_spec(spec_path("z_line.spec"))
    return cfg.with_params(**params)


def test_read_params_types_and_fills_defaults():
    # z_line.spec runs boundary with r = 10 and m = 3
    assert _config().read_params() == {
        "r": 10,
        "m": 3,
        "window": STABILITY_WINDOW,
        "budget": DEFAULT_BUDGET,
    }
    assert _config(window=5).read_params()["window"] == 5


def test_read_params_rejects_garbage():
    with pytest.raises(SchemaError, match="^parameter 'window' must be an integer, got 'soon'$"):
        _config(window="soon").read_params()


def test_read_params_missing():
    bend = replace(_config(), command="bend")
    with pytest.raises(SchemaError, match=r"needs parameter 'scan_m' \(a \[run\] entry\)"):
        bend.read_params()
    with pytest.raises(SchemaError, match=r"needs parameter 'x' \(a \[run\] entry\)"):
        bend.with_params(scan_m=2, ell=8).read_params()
    with pytest.raises(SchemaError, match=r"needs parameter 'r' \(--r or a \[run\] entry\)"):
        replace(bend, params=()).read_params()


REQUIRED_PAIRS = [
    (command, key)
    for command, row in cli_mod.PARAMS.items()
    for key, default in row.items()
    if default is cli_mod.REQUIRED
]
# a valid value of each parameter, as a [run] entry or flag writes it
VALUES = {"x": "(1,0)", "extreme": "index:0"}


@pytest.mark.parametrize("command, key", REQUIRED_PAIRS)
def test_missing_parameter_names_only_real_flags(command, key):
    # the message names a flag exactly when the command has that flag, and
    # the flag it names sets the parameter
    others = {k: VALUES.get(k, "1") for _, k in REQUIRED_PAIRS if k != key}
    cfg = replace(_config(), command=command, params=tuple(sorted(others.items())))
    with pytest.raises(SchemaError, match=f"needs parameter {key!r}") as info:
        cfg.read_params()
    named = re.findall(r"--[a-z-]+", str(info.value))
    assert bool(named) == (key not in cli_mod.RUN_ONLY)
    for flag in named:
        args = cli_mod._build_parser().parse_args([command, Z2_SPEC, flag, "1"])
        assert getattr(args, key) == 1


FLAGGED = sorted(frozenset().union(*map(cli_mod._flagged, cli_mod.PARAMS)))


def test_run_only_and_text_name_real_parameters():
    # a misspelt name here would silently give a parameter a flag or a type
    assert cli_mod.RUN_ONLY < cli_mod.RUN_KEYS
    assert cli_mod.TEXT < cli_mod.RUN_KEYS


@pytest.fixture
def full_spec(tmp_path):
    """z2_standard.spec with every required parameter of every command set."""
    spec = tmp_path / "full.spec"
    spec.write_text(
        (SPECS / "z2_standard.spec").read_text() + "\nscan_m = 1\nell = 1\nx = (1,0)\n"
    )
    return str(spec)


@pytest.mark.parametrize("key", FLAGGED)
@pytest.mark.parametrize("command", sorted(cli_mod.PARAMS))
def test_flag_is_accepted_only_by_commands_that_read_it(monkeypatch, full_spec, command, key):
    flag, value = cli_mod._flag(key), VALUES.get(key, "7")
    monkeypatch.setitem(cli_mod._HANDLERS, command, lambda group, gens, p: ({}, {}))
    code, out, err = run_cli([command, full_spec, flag, value])
    if key in cli_mod._flagged(command):
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["params"][key] == value
    else:
        assert (code, out) == (1, b"")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("command", sorted(cli_mod.PARAMS))
def test_handler_gets_exactly_its_typed_row(monkeypatch, command):
    seen = []

    def spy(group, gens, p):
        seen.append(p)
        return {}, {}

    monkeypatch.setitem(cli_mod._HANDLERS, command, spy)
    row = cli_mod.PARAMS[command]
    given = {k: VALUES.get(k, "6") for k, default in row.items() if default is cli_mod.REQUIRED}
    given["budget"] = "99"
    _, _, cfg = parse_spec(Z2_SPEC)
    run_command(replace(cfg, command=command, params=tuple(sorted(given.items()))))
    typed = {k: v if k in cli_mod.TEXT else int(v) for k, v in given.items()}
    assert seen == [{k: typed.get(k, default) for k, default in row.items()}]


@pytest.mark.parametrize(
    "spec, command, key, default",
    [
        ("z_line.spec", "boundary", "window", STABILITY_WINDOW),
        ("cylinder_n4.spec", "annihilator", "gap", DEFAULT_GAP),
    ],
)
def test_absent_parameter_runs_at_the_library_default(spec, command, key, default):
    # the config echo lists the parameters that were given, so it is left out
    def body(**params):
        _, _, cfg = parse_spec(spec_path(spec))
        report, sides = run_command(replace(cfg, command=command).with_params(**params))
        del report["config"]
        return emit_report(report), sides

    assert body() == body(**{key: default})


def test_seed_flag_is_a_usage_error():
    code, out, err = run_cli(["ball", Z2_SPEC, "--seed", "1"])
    assert (code, out) == (1, b"")
    assert err.startswith("usage: horobound")
    assert err.endswith("error: unrecognized arguments: --seed 1\n")


def test_seed_run_key_is_a_schema_error(tmp_path):
    spec = tmp_path / "seeded.spec"
    spec.write_text(
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n"
        "[generators]\nelements = (1) (-1)\n\n[run]\ncommand = ball\nr = 3\nseed = 1\n"
    )
    code, out, err = run_cli(["ball", str(spec)])
    assert (code, out) == (1, b"")
    assert err == f"error: SchemaError: {spec}: [run] unknown key 'seed'\n"


def test_runconfig_with_params_merges_sorted():
    cfg = _config(r=6, skipped=None)
    assert dict(cfg.params)["r"] == "6"
    assert "skipped" not in dict(cfg.params)
    assert list(cfg.params) == sorted(cfg.params)


# ---------------------------------------------------------------------------
# run_command / emit_report


def test_run_command_rejects_unknown_command():
    _, _, cfg = parse_spec(spec_path("z_line.spec"))
    from dataclasses import replace

    with pytest.raises(SchemaError, match="unknown command"):
        run_command(replace(cfg, command="dance"))


def test_run_command_deterministic_bytes():
    _, _, cfg = parse_spec(spec_path("z_line.spec"))
    first = emit_report(run_command(cfg)[0])
    second = emit_report(run_command(cfg)[0])
    assert first == second


def test_run_command_report_envelope():
    _, _, cfg = parse_spec(spec_path("z_line.spec"))
    report, sides = run_command(cfg)
    assert report["command"] == "boundary"
    assert report["group"]["family"] == "fg_abelian"
    assert report["config"]["params"] == {"m": "3", "r": "10"}
    assert sides == {}


def test_emit_report_format():
    blob = emit_report({"b": 1, "a": 2})
    assert blob.endswith(b"\n")
    assert blob.index(b'"a"') < blob.index(b'"b"')


@pytest.mark.parametrize(
    "leak",
    [lambda: example("z_line")[0].element((3,)), lambda: Fraction(1, 3), lambda: {1, 2}],
    ids=["element", "fraction", "set"],
)
def test_emit_report_is_strict(leak):
    with pytest.raises(TypeError):
        emit_report({"value": leak()})
    with pytest.raises(TypeError):
        emit_report({"nested": [{"value": leak()}]})


def test_emit_report_refuses_a_tuple_key():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        emit_report({"nested": {(1, 2): 3}})


def test_emit_report_refuses_a_circular_report():
    looped = {"a": [1]}
    looped["a"].append(looped)
    listed = [0]
    listed.append({"b": listed})
    for report in (looped, {"outer": listed}):
        with pytest.raises(ValueError, match="Circular reference detected"):
            emit_report(report)
    shared = [1, {"x": None}]  # the same container twice, never inside itself
    report = {"a": shared, "b": (shared, shared)}
    assert emit_report(report) == oracle_report_bytes(report)


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


class _Tag(str):
    pass


_CHARS = 'az09 "\\[]{},:/\x00\x1f\n\t\x7f\xe9\u4e2d\u2028\U0001f600'
_FLOATS = (0.0, -0.0, 0.1, -2.5, 1e300, -1e-300, 1e16, float("nan"), float("inf"), float("-inf"))
_INTS = (0, -1, 7, 2**64, -(10**40), _Level.HIGH, True, False)


def _random_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice(_FLOATS + (rng.uniform(-1e6, 1e6),))
    if kind == 2:
        return rng.choice(_INTS + (rng.randrange(-(10**12), 10**12),))
    if kind == 3:
        return _Tag(rng.choice(["", "tag", "\u00fc\\"]))
    return None if kind == 4 else rng.choice([True, False])


def _random_keys(rng, size):
    """Keys of one dict, of one sortable kind: strings, numbers or None."""
    kind = rng.randrange(4)
    if kind == 0:
        return [None][:size]
    if kind == 1:  # ints, floats, bools and an IntEnum sort together
        pool = [-2, 3, 2**70, 0.5, -0.0, 1e300, float("inf"), True, _Level.HIGH, _Level.LOW]
        return rng.sample(pool, min(size, len(pool)))
    return ["".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))) for _ in range(size)]


def _random_value(rng, depth):
    """Nested dicts, OrderedDicts, lists and tuples over the scalars above,
    with empty containers at every depth."""
    kind = rng.randrange(5) if depth < 5 else 0
    if kind == 0:
        return _random_scalar(rng)
    size = rng.choice([0, 1, 2, 3, 5])
    if kind == 1:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(_random_value(rng, depth + 1) for _ in range(size))
    items = [(key, _random_value(rng, depth + 1)) for key in _random_keys(rng, size)]
    return OrderedDict(items) if kind == 3 else dict(items)


@pytest.mark.parametrize("seed", range(40))
def test_emit_report_writes_the_stdlib_bytes(seed):
    rng = random.Random(seed)
    for _ in range(25):
        report = {"value": _random_value(rng, 0), "tail": _random_value(rng, 3)}
        assert emit_report(report) == oracle_report_bytes(report)


# ---------------------------------------------------------------------------
# main(): exit code 0


def test_main_boundary_z_line():
    code, out, err = run_cli(["boundary", spec_path("z_line.spec")])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "boundary"
    assert report["level"] == {"m": 3, "r": 10, "window": 3}
    assert report["class_count"] == 2
    assert report["stable_class_count"] == 2
    assert report["ball_order"][:3] == ["(0)", "(1)", "(-1)"]


def test_main_annihilator_writes_side_files(tmp_path):
    code, out, err = run_cli(
        ["annihilator", spec_path("cylinder_n4.spec"), "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["candidates"] == ["(0,0)", "(0,3)", "(0,1)", "(0,2)"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["candidates.csv", "report.json"]
    # the on-disk report is byte for byte what went to stdout
    assert (tmp_path / "report.json").read_bytes() == out
    lines = (tmp_path / "candidates.csv").read_text().splitlines()
    assert lines[0] == "element,norm,rho,witness_radius,candidate"
    assert lines[1] == '"(0,0)",0,-1,0,1'


def test_side_files_render_only_when_read(monkeypatch, tmp_path):
    # ball.csv formats every element, which costs more than growing a
    # lamplighter ball: a run without --out formats none, one with it once
    writes = []
    to_csv = Ball.to_csv

    def counting(self, fp):
        writes.append(1)
        to_csv(self, fp)

    monkeypatch.setattr(Ball, "to_csv", counting)
    code, out, _ = run_cli(["ball", spec_path("z2_standard.spec"), "--r", "4"])
    assert code == 0 and writes == []
    argv = ["ball", spec_path("z2_standard.spec"), "--r", "4", "--out", str(tmp_path)]
    code, again, _ = run_cli(argv)
    assert code == 0 and again == out and writes == [1]
    rows = (tmp_path / "ball.csv").read_text().splitlines()
    assert rows[:2] == ["element,distance,parent", '"(0,0)",0,']

    _, _, cfg = parse_spec(spec_path("z2_standard.spec"))
    _, sides = run_command(replace(cfg, command="ball").with_params(r=4))
    assert "ball.csv" in sides and list(sides) == ["ball.csv"] and writes == [1]
    assert sides["ball.csv"] is sides["ball.csv"] and writes == [1, 1]


BALL_SPEC = """\
[group]
family = fg_abelian
free_rank = 1

[generators]
elements = (1) (-1)

[run]
command = ball
r = 6
n = 3
"""


def test_main_ball_with_prefix_tree(tmp_path):
    spec = tmp_path / "zball.spec"
    spec.write_text(BALL_SPEC)
    code, out, err = run_cli(["ball", str(spec), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["radius"] == 6
    assert report["size"] == 13
    assert report["layer_sizes"] == [1, 2, 2, 2, 2, 2, 2]
    assert report["prefix_tree"] == {"count": 2, "depth": 3, "min_horizon": 6}
    csv = (tmp_path / "ball.csv").read_text().splitlines()
    assert csv[0] == "element,distance,parent"
    assert csv[1] == "(0),0,"
    assert csv[2] == "(1),1,s0"  # no labels in the spec, so generator 0 is s0
    # one line per DAG vertex (all of B_3 has reach 6) and per edge
    assert (tmp_path / "prefixes.dot").read_text() == (
        "digraph prefixes {\n"
        '  n0 [label="(0) h=6"];\n'
        '  n1 [label="(1) h=6"];\n'
        '  n2 [label="(-1) h=6"];\n'
        '  n3 [label="(2) h=6"];\n'
        '  n4 [label="(-2) h=6"];\n'
        '  n5 [label="(3) h=6"];\n'
        '  n6 [label="(-3) h=6"];\n'
        "  n0 -> n1;\n"
        "  n0 -> n2;\n"
        "  n1 -> n3;\n"
        "  n2 -> n4;\n"
        "  n3 -> n5;\n"
        "  n4 -> n6;\n"
        "}\n"
    )


def _finite_spec(tmp_path, elements):
    table = "; ".join(" ".join(map(str, row)) for row in cyclic_table(6))
    spec = tmp_path / "z6.spec"
    spec.write_text(
        f"[group]\nfamily = finite\ntable = {table}\n\n"
        f"[generators]\nelements = {elements}\n\n[run]\ncommand = ball\nr = 3\n"
    )
    return str(spec)


def test_main_ball_on_finite_table(tmp_path):
    code, out, err = run_cli(["ball", _finite_spec(tmp_path, "(1) (5)")])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["group"] == {"family": "finite", "order": 6}
    assert report["size"] == 6
    assert report["layer_sizes"] == [1, 2, 2, 1]


def test_main_quotient_past_the_table_budget_exits_1(tmp_path):
    n = TABLE_ORDER_BUDGET + 1
    spec = tmp_path / "big.spec"
    spec.write_text(
        f"[group]\nfamily = vab_extension\nrank = 1\nquotient = cyclic:{n}\n"
        "\n[generators]\nelements = (1;0) (-1;0) (0;1)\n"
    )
    code, out, err = run_cli(["ball", str(spec), "--r", "2"])
    assert code == 1 and out == b""
    assert err.startswith(f"error: SizeBudget: Z/{n} has order {n}, past the table budget")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["polytope", "witness"])
def test_main_cycle_dfs_budget_exits_1(monkeypatch, command):
    monkeypatch.setattr(vabelian, "CYCLE_DFS_BUDGET", 2)
    code, out, err = run_cli([command, spec_path("z2_standard.spec")])
    assert code == 1 and out == b""
    assert err == (
        "error: SizeBudget: simple-cycle DFS exceeded its budget of 2 steps"
        " (2 cycles found so far)\n"
    )


def test_main_finite_non_generating_exits_1(tmp_path):
    code, out, err = run_cli(["ball", _finite_spec(tmp_path, "(2) (4)")])
    assert code == 1 and out == b""
    assert err.startswith("error: ValidationError: ")
    assert err.endswith("[generators]: generators span a subgroup of index 2\n")


def test_module_entry_point_loads_once():
    # the package root does not import cli, so -m runs it without a
    # "found in sys.modules" RuntimeWarning
    src = os.path.dirname(os.path.dirname(cli_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "horobound.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: horobound" in proc.stdout
    assert proc.stderr == ""


def test_main_subcommand_overrides_run_section():
    # z_line.spec says boundary; the subcommand wins
    code, out, _ = run_cli(["ball", spec_path("z_line.spec")])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "ball"
    assert report["radius"] == 10
    assert report["size"] == 21


def test_main_flag_overrides_run_value():
    code, out, _ = run_cli(["boundary", spec_path("z_line.spec"), "--r", "6"])
    assert code == 0
    assert json.loads(out)["level"] == {"m": 3, "r": 6, "window": 3}


# ---------------------------------------------------------------------------
# main(): exit codes 1 and 2


def test_main_missing_spec_exits_1(tmp_path):
    code, out, err = run_cli(["boundary", str(tmp_path / "nope.spec")])
    assert code == 1
    assert out == b""
    assert "cannot read" in err


def test_main_out_naming_a_file_exits_1(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(["ball", Z2_SPEC, "--r", "2", "--out", str(taken)])
    assert (code, out) == (1, b"")
    assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err
    assert taken.read_text() == ""


def test_main_validation_failure_exits_1(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text(
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n[generators]\nelements = (1)\n"
    )
    code, out, err = run_cli(["boundary", str(spec)])
    assert code == 1
    assert "ValidationError" in err and "not symmetric" in err


@pytest.mark.parametrize("window", [0, -2])
def test_main_window_below_one_exits_1(tmp_path, window):
    spec = tmp_path / "window.spec"
    spec.write_text(
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n"
        "[generators]\nelements = (1) (-1)\n\n"
        f"[run]\ncommand = boundary\nr = 10\nm = 3\nwindow = {window}\n"
    )
    code, out, err = run_cli(["boundary", str(spec)])
    assert code == 1
    assert out == b""
    assert err == f"error: need a stability window >= 1, got {window}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["boundary", "z2_standard.spec", "--r", "3000", "--m", "3000"],
         "need 0 < m < r, got m=3000, r=3000"),
        (["bend", "cylinder_n30_diag.spec", "--r", "18", "--m", "18"],
         "need 0 < m < r, got m=18, r=18"),
        (["annihilator", "cylinder_n4.spec", "--r", "0", "--m", "3"],
         "OutOfBall: need 0 < m < ball radius 3, got m=3, r=0"),
    ],
)
def test_main_bad_level_exits_1_before_the_ball_grows(argv, message):
    # a one-element budget fails the first step of any growth, so the level
    # line shows that the level was refused first
    argv[1] = spec_path(argv[1])
    code, out, err = run_cli(argv + ["--budget", "1"])
    assert code == 1 and out == b""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("scan_m, ell", [(0, 8), (-1, 8), (2, 1), (1, 0), (1, -1)])
def test_main_bend_refuses_the_scan_range_before_the_ball_grows(tmp_path, monkeypatch, scan_m, ell):
    text = (SPECS / "cylinder_n30_diag.spec").read_text(encoding="utf-8")
    text = text.replace("scan_m = 2", f"scan_m = {scan_m}").replace("ell = 8", f"ell = {ell}")
    spec = tmp_path / "bend.spec"
    spec.write_text(text, encoding="utf-8")
    grown = []
    monkeypatch.setattr(cli_mod, "grow_ball", lambda *args, **kwargs: grown.append(args))
    code, out, err = run_cli(["bend", str(spec)])
    assert (code, out, grown) == (1, b"", [])
    assert err == f"error: RangeEmpty: need 1 <= scan_m <= ell, got scan_m={scan_m}, ell={ell}\n"


@pytest.mark.parametrize(
    "spec, argv, run, message",
    [
        ("cylinder_n3.spec", ["annihilator"], "gap = -1", "gap must lie in 0..11, got -1"),
        ("cylinder_n3.spec", ["annihilator", "--r", "1"], "", "gap must lie in 0..0, got 2"),
        ("cylinder_n3.spec", ["annihilator", "--r", "2", "--m", "2"], "gap = 2",
         "gap must lie in 0..1, got 2"),
        ("z2_standard.spec", ["ball", "--r", "5"], "n = -1", "need 0 <= n <= r, got n=-1, r=5"),
        ("z2_standard.spec", ["ball", "--r", "5"], "n = 6", "need 0 <= n <= r, got n=6, r=5"),
        ("cylinder_n3.spec", ["annihilator"], "", None),
        ("z2_standard.spec", ["ball", "--r", "5"], "n = 5", None),
    ],
)
def test_main_refuses_gap_and_prefix_depth_before_the_ball_grows(
    tmp_path, monkeypatch, spec, argv, run, message
):
    # the spec's [run] section comes last, so the extra key lands in it; a
    # valid run of each command grows its ball exactly once
    path = tmp_path / spec
    path.write_text((SPECS / spec).read_text(encoding="utf-8") + run + "\n", encoding="utf-8")
    grown, grow = [], cli_mod.grow_ball

    def counted(*args, **kwargs):
        grown.append(1)
        return grow(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "grow_ball", counted)
    code, out, err = run_cli([argv[0], str(path), *argv[1:]])
    if message is None:
        assert (code, err, grown) == (0, "", [1])
    else:
        assert (code, out, grown) == (1, b"", [])
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("r", ["0", "-4"])
def test_main_polytope_refuses_r_before_the_quotient_graph(monkeypatch, r):
    def refuse(group, gens):
        raise AssertionError("the quotient graph was built")

    monkeypatch.setattr(cli_mod, "quotient_graph", refuse)
    code, out, err = run_cli(["polytope", spec_path("z_line.spec"), "--r", r])
    assert (code, out) == (1, b"")
    assert err == f"error: need r >= 1, got r={r}\n"


Z2_SPEC = spec_path("z2_standard.spec")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ball", Z2_SPEC, "--bogus", "3"], "unrecognized arguments: --bogus 3"),
        # no prefix matching: --n is not --n-max, --bud is not --budget
        (["ball", Z2_SPEC, "--r", "3", "--n", "5"], "unrecognized arguments: --n 5"),
        (["ball", Z2_SPEC, "--bud", "10"], "unrecognized arguments: --bud 10"),
        # a flag of another command
        (
            ["ball", spec_path("z_line.spec"), "--r", "2", "--gap", "-5", "--extreme", "x"],
            "unrecognized arguments: --gap -5 --extreme x",
        ),
        (["ball"], "the following arguments are required: spec"),
    ],
)
def test_main_usage_error_exits_1(argv, message):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == b""
    assert err.startswith("usage: horobound")
    assert err.endswith(f"error: {message}\n")


def test_main_help_exits_0():
    code, out, err = run_cli(["ball", "-h"])
    assert code == 0
    assert out.startswith(b"usage: horobound ball")
    assert err == ""


class NoDominatorAtLevel(Diagnostic):
    """A diagnostic no command raises, so that only the exit path is tested."""


def test_main_diagnostic_exits_2(monkeypatch):
    def explode(group, gens, p):
        raise NoDominatorAtLevel("nothing dominates", level=7)

    monkeypatch.setitem(cli_mod._HANDLERS, "ball", explode)
    code, out, err = run_cli(["ball", spec_path("z_line.spec")])
    assert code == 2
    assert json.loads(out) == {
        "diagnostic": "NoDominatorAtLevel",
        "message": "nothing dominates",
        "detail": {"level": 7},
    }


def test_main_bound_violated_exits_2(tmp_path):
    # on Z the kernel is everything, so 6[G:K]+1 = 7, while the slow
    # geodesic to x = (80) moves the stable classes by 8 at scan_m = 8
    spec = tmp_path / "line_bend.spec"
    spec.write_text(
        "[group]\nfamily = fg_abelian\nfree_rank = 1\n\n"
        "[generators]\nelements = (1) (-1)\n\n"
        "[run]\ncommand = bend\nr = 90\nm = 80\nscan_m = 8\nell = 8\nx = (80)\n"
    )
    code, out, err = run_cli(["bend", str(spec)])
    assert code == 2 and err == ""
    report = json.loads(out)
    assert report["diagnostic"] == "BoundViolated"
    assert report["detail"]["value"] == -8
    assert report["detail"]["bound"] == 7


def test_main_polytope_bad_selector_exits_1():
    argv = ["polytope", spec_path("cylinder_n4_ext.spec"), "--extreme", "index:x"]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == b""
    assert err == "error: unknown extreme-point selector 'index:x'\n"


@pytest.mark.parametrize("k", ["0", "-1"])
def test_main_witness_k_below_one_exits_1(k):
    code, out, err = run_cli(["witness", Z2_SPEC, "--k", k])
    assert code == 1
    assert out == b""
    assert err == f"error: OutOfRange: need k >= 1 distinct restrictions, got k={k}\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_main_ballsystem_budget_below_one_exits_1(budget):
    code, out, err = run_cli(["ballsystem", spec_path("lamplighter.spec"), "--budget", budget])
    assert code == 1
    assert out == b""
    assert err == f"error: OutOfRange: budget must be >= 1, got {budget}\n"


def test_main_ball_budget_below_one_exits_1():
    code, out, err = run_cli(["ball", Z2_SPEC, "--r", "3", "--budget", "-5"])
    assert (code, out) == (1, b"")
    assert err == "error: OutOfRange: budget must be >= 1, got -5\n"


HUGE = str(10**12)


@pytest.mark.parametrize(
    "spec, n_max, message",
    [
        ("lamplighter.spec", "0", "OutOfRange: n_max must be >= 1, got 0"),
        (
            "lamplighter.spec",
            "1",
            "OutOfRange: n_max must be >= 2 on the lamplighter, got 1: the annihilator "
            "check reads |f^-1| for each f in F_1, whose lamps B_1 need not hold",
        ),
        ("lamplighter.spec", HUGE, f"SizeBudget: n_max {HUGE} exceeds the level budget 8"),
        ("z2_standard.spec", HUGE, f"SizeBudget: n_max {HUGE} exceeds the level budget 8"),
    ],
)
def test_main_ballsystem_refuses_n_max_before_building_a_chain(monkeypatch, spec, n_max, message):
    # build_ball_system builds the chain, n_max windows on the lamplighter
    # and n_max copies of [identity] on Z^2, only once n_max passes its
    # check; a chain begun first fails here at once instead of filling memory
    def refuse(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(metrics_mod, "Window", refuse)
    monkeypatch.setattr(metrics_mod, "WindowCosets", refuse)
    monkeypatch.setattr(Group, "identity", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(["ballsystem", spec_path(spec), "--n-max", n_max])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, b"")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[group]\nfamily = fg_abelian\nfree_rank  1\n\n[generators]\nelements = (1) (-1)\n",
            r"line 3: expected 'key = value', got 'free_rank  1\n'",
        ),
        (
            "free_rank = 1\n[group]\nfamily = fg_abelian\n",
            "line 1: 'free_rank = 1' comes before any [section] header",
        ),
    ],
    ids=["no-delimiter", "no-section"],
)
def test_main_malformed_ini_is_one_line(tmp_path, text, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    code, out, err = run_cli(["ball", str(spec)])
    assert (code, out) == (1, b"")
    assert err == f"error: SchemaError: {spec}: {message}\n"


# ---------------------------------------------------------------------------
# seeded mutations of the bundled specs

INTEGER = re.compile(r"-?\d+")
STRAY = ("x", "7", "(", "=", ";", "[run]", "#")


def mutate(text: str, rng: random.Random) -> str:
    """One random edit: a line dropped or doubled, an integer negated, moved
    by one, blanked or replaced by x, an '=' or '(' deleted, or a stray token
    appended to a line."""
    lines = text.splitlines(keepends=True)
    kind = rng.choice(("drop", "double", "integer", "integer", "delete", "stray"))
    if kind in ("drop", "double", "stray"):
        i = rng.randrange(len(lines))
        if kind == "stray":
            lines[i] = f"{lines[i].rstrip()} {rng.choice(STRAY)}\n"
        elif kind == "double":
            lines.insert(i, lines[i])
        else:
            del lines[i]
        return "".join(lines)
    if kind == "integer":
        found = rng.choice(list(INTEGER.finditer(text)))
        value = int(found.group())
        new = rng.choice((str(-value), str(value + 1), str(value - 1), "", "x"))
        return text[: found.start()] + new + text[found.end() :]
    spots = [i for i, c in enumerate(text) if c in rng.choice(("=", "("))]
    i = rng.choice(spots)
    return text[:i] + text[i + 1 :]


MUTANTS_PER_SPEC = 14


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_spec_mutants_end_cleanly(tmp_path, name):
    # every mutant exits 0, 1 or 2 without raising; stderr is empty, a usage
    # message or exactly one error line
    command = BUNDLED[name][0]
    budget = ["--budget", "20000"] if "budget" in cli_mod._flagged(command) else []
    text = (SPECS / name).read_text()
    rng = random.Random(f"{name}:2026")
    spec = tmp_path / name
    bad = []
    for _ in range(MUTANTS_PER_SPEC):
        mutant = mutate(text, rng)
        spec.write_text(mutant)
        try:
            code, out, err = run_cli([command, str(spec), *budget])
        except Exception as exc:  # a crash is the finding, not the test's end
            bad.append((mutant, repr(exc)))
            continue
        lines = err.splitlines()
        clean = err == "" if code != 1 else (
            err.startswith("usage: ") or (len(lines) == 1 and lines[0].startswith("error: "))
        )
        if code not in (0, 1, 2) or not clean:
            bad.append((mutant, code, err))
    assert not bad, bad


# ---------------------------------------------------------------------------
# bundled examples


def test_example_lookup():
    group, gens = example("z_line")
    assert group.describe()["family"] == "fg_abelian"
    assert len(gens) == 2


def test_example_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        example("noone")


def test_run_command_reuses_the_parsed_group(monkeypatch):
    # parse_spec builds the group and its generating set, with all their
    # checks, once; running the config it returned builds neither again
    builds = []
    for name in ("build_group", "symmetric_generating_set"):
        real = getattr(cli_mod, name)

        def counted(*args, real=real, name=name, **kwargs):
            builds.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, counted)
    _, _, config = parse_spec(spec_path("lamplighter.spec"))
    run_command(config)
    run_command(config)
    assert builds == ["build_group", "symmetric_generating_set"]


def test_bend_reads_classes_off_their_vectors(monkeypatch):
    # the scan and beta_m read each class's vector at a ball position, so a
    # bend run asks no functional for a value; its kernel holds every
    # generator, so only the 120 group products of growth remain
    group, _, config = parse_spec(spec_path("cylinder_n30_diag.spec"))
    values, products = [], []

    def value(self, x, real=Functional.value):
        values.append(x)
        return real(self, x)

    def mul_data(a, b, real=group.mul_data):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(Functional, "value", value)
    monkeypatch.setattr(group, "mul_data", mul_data)
    report, _ = run_command(config)
    assert report["bound"] == 7
    assert (len(values), len(products)) == (0, 120)


@pytest.mark.parametrize("spec,calls", [("cylinder_n30_diag.spec", 128), ("z2_rot4.spec", 305)])
def test_a_run_remembers_its_inverses(monkeypatch, spec, calls):
    # the ball remembers each inverse it reads, so the interior-shadow
    # prefixes and the translates ask for it again without inverting: bend
    # on cylinder_n30_diag made 233 calls, and boundary on z2_rot4 568,
    # when each prefix build inverted its candidate again
    group, _, config = parse_spec(spec_path(spec))
    inverted = []

    def inv_data(a, real=group.inv_data):
        inverted.append(a)
        return real(a)

    monkeypatch.setattr(group, "inv_data", inv_data)
    run_command(config)
    assert len(inverted) == calls


def test_replaced_generators_get_their_own_group():
    # configs that differ only in their generators, run in turn after a
    # parse, each get the generating set they name: B_2 of Z^2 has 13
    # elements on the standard generators and 19 with (1,1) and (-1,-1)
    _, _, config = parse_spec(spec_path("z2_standard.spec"))
    standard = replace(config, command="ball", labels=None).with_params(r=2)
    wide = replace(standard, generators=standard.generators + ("(1,1)", "(-1,-1)"))
    for cfg, size in ((wide, 19), (standard, 13), (wide, 19)):
        report, _ = run_command(cfg)
        assert report["size"] == size
        assert report["config"]["generators"] == list(cfg.generators)


@pytest.mark.parametrize(
    "generators,labels,error,match",
    [
        # a missing inverse is refused, not appended behind the listed two
        (("(1,0)", "(0,1)"), None, ValidationError, r"not symmetric, \(1,0\)\^-1"),
        (("(0,0)", "(1,0)", "(-1,0)"), None, ValidationError, "identity is not a generator"),
        ((), None, ValidationError, "elements is empty"),
        (("(1,0)", "(-1,0)"), ("a",), SchemaError, "1 labels for 2 generators"),
        (("(1,0)", "(-1,0)", "(1,0)"), None, ValidationError, r"generator \(1,0\) is listed twice"),
        (("(1,0)", "(-1,0)"), ("a", "a"), ValidationError, "label 'a' names two generators"),
    ],
)
def test_replaced_generators_pass_the_spec_checks(generators, labels, error, match):
    # a replaced config is built through the checks that parse_spec applies
    _, _, config = parse_spec(spec_path("z2_standard.spec"))
    bad = replace(config, command="ball", generators=generators, labels=labels)
    with pytest.raises(error, match=match):
        run_command(bad.with_params(r=2))
