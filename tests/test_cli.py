"""Spec files and the command-line entry point.

Exit codes: 0 for a completed run, 2 for a structured diagnostic (payload
on stdout), 1 for anything else (message on stderr).
"""

import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest

import horobound.cli as cli_mod
from horobound import vabelian
from horobound.cli import RunConfig, emit_report, main, parse_spec, run_command
from horobound.errors import NoDominatorAtLevel, SchemaError, ValidationError
from horobound.examples import example
from horobound.groups import TABLE_ORDER_BUDGET, Group, cyclic_table

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
    assert cfg.witnesses == ()
    assert cfg.seed is None


def test_parse_spec_lamplighter_witnesses():
    group, gens, cfg = parse_spec(spec_path("lamplighter.spec"))
    assert cfg.witnesses == ("({1};0)", "({-1};0)")
    assert gens.verified


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


@pytest.mark.parametrize("text,match", VALIDATION_CASES)
def test_parse_spec_validation_errors(tmp_path, text, match):
    path = tmp_path / "bad.spec"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        parse_spec(str(path))


# ---------------------------------------------------------------------------
# RunConfig helpers


def _config(**params):
    _, _, cfg = parse_spec(spec_path("z_line.spec"))
    return cfg.with_params(**params)


def test_runconfig_param_lookup():
    cfg = _config()
    assert cfg.param("r") == "10"
    assert cfg.param("absent") is None
    assert cfg.int_param("m") == 3
    assert cfg.int_param("absent", 7) == 7


def test_runconfig_int_param_rejects_garbage():
    cfg = _config(window="soon")
    with pytest.raises(SchemaError, match="'window' must be an integer"):
        cfg.int_param("window")


def test_runconfig_require_int_missing():
    cfg = _config()
    with pytest.raises(SchemaError, match=r"needs parameter 'ell' \(a \[run\] entry\)"):
        cfg.require_int("ell")
    with pytest.raises(SchemaError, match=r"needs parameter 'x' \(a \[run\] entry\)"):
        cfg.require_str("x")
    with pytest.raises(SchemaError, match=r"needs parameter 'r' \(--r or a \[run\] entry\)"):
        replace(cfg, params=()).require_int("r")


@pytest.mark.parametrize("key", sorted(cli_mod.RUN_KEYS))
def test_missing_parameter_names_only_real_flags(key):
    # the message names a flag exactly when the command has that flag
    parser = cli_mod._build_parser()
    for command, flags in cli_mod.COMMAND_FLAGS.items():
        cfg = replace(_config(), command=command, params=())
        with pytest.raises(SchemaError) as info:
            cfg.require_int(key)
        named = re.findall(r"--[a-z-]+", str(info.value))
        for flag in named:
            args = parser.parse_args([command, Z2_SPEC, flag, "1"])
            assert getattr(args, key) == ("1" if key == "extreme" else 1)
        assert bool(named) == (key in flags)


FLAGGED = sorted(frozenset().union(*cli_mod.COMMAND_FLAGS.values()))
READS = r"cfg\.(?:param|int_param|require_int|require_str)\(\"(\w+)\""


def test_command_flags_are_the_flagged_keys_each_handler_reads():
    for command, handler in cli_mod._HANDLERS.items():
        read = set(re.findall(READS, inspect.getsource(handler)))
        assert read & set(FLAGGED) == set(cli_mod.COMMAND_FLAGS[command]), command


@pytest.mark.parametrize("key", FLAGGED)
@pytest.mark.parametrize("command", cli_mod.COMMANDS)
def test_flag_is_accepted_only_by_commands_that_read_it(monkeypatch, command, key):
    flag, value = cli_mod._flag(key), ("index:0" if key == "extreme" else "7")
    monkeypatch.setitem(cli_mod._HANDLERS, command, lambda group, gens, cfg: ({}, {}))
    code, out, err = run_cli([command, Z2_SPEC, flag, value])
    if key in cli_mod.COMMAND_FLAGS[command]:
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["params"][key] == value
    else:
        assert (code, out) == (1, b"")
        assert err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def test_run_keys_are_the_keys_commands_read():
    # a key some handler reads but RUN_KEYS lacks would be rejected in a spec;
    # one RUN_KEYS lists but no handler reads would hide a misspelling
    read = set(re.findall(READS, inspect.getsource(cli_mod)))
    assert read == cli_mod.RUN_KEYS


def test_runconfig_with_params_merges_sorted():
    cfg = _config(r=6, skipped=None)
    assert cfg.param("r") == "6"
    assert cfg.param("skipped") is None
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
    [lambda: example("z_line")[0].element((3,)), lambda: Fraction(1, 3)],
    ids=["element", "fraction"],
)
def test_emit_report_is_strict(leak):
    with pytest.raises(TypeError):
        emit_report({"value": leak()})
    with pytest.raises(TypeError):
        emit_report({"nested": [{"value": leak()}]})


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


def test_main_diagnostic_exits_2(monkeypatch):
    def explode(group, gens, cfg):
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


HUGE = str(10**12)


@pytest.mark.parametrize(
    "spec, n_max, message",
    [
        ("lamplighter.spec", "0", "OutOfRange: n_max must be >= 1, got 0"),
        ("lamplighter.spec", HUGE, f"SizeBudget: n_max {HUGE} exceeds the level budget 5"),
        ("z2_standard.spec", HUGE, f"SizeBudget: n_max {HUGE} exceeds the level budget 5"),
    ],
)
def test_main_ballsystem_refuses_n_max_before_building_a_chain(monkeypatch, spec, n_max, message):
    # F_n of the lamplighter chain has 2^(2n+1) elements and the degenerate
    # chain on Z^2 is a list of n_max lists, so n_max is checked first. The
    # guards make a chain being built fail at once instead of filling memory
    calls = [0]
    identity = Group.identity

    def counted(self):
        calls[0] += 1
        assert calls[0] < 1000, "a degenerate chain is being built"
        return identity(self)

    def refuse(group, n):
        raise AssertionError("a lamplighter chain was built")

    monkeypatch.setattr(Group, "identity", counted)
    monkeypatch.setattr(cli_mod, "lamp_chain", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(["ballsystem", spec_path(spec), "--n-max", n_max])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, b"")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# bundled examples


def test_example_lookup():
    group, gens = example("z_line")
    assert group.describe()["family"] == "fg_abelian"
    assert len(gens) == 2


def test_example_unknown_name():
    with pytest.raises(ValueError, match="unknown example"):
        example("noone")
