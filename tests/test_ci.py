"""The CI workflow tests every minor Python from the oldest that
pyproject.toml admits to 3.13, runs the goldens again under a fixed second
hash seed, runs its scale smoke steps and an oracle check of grown balls
under a timeout, and runs the benchmark's correctness gate on every workload.

The workflow and pyproject.toml are read as text: ``tomllib`` only arrived
in Python 3.11.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_lowest_ci_python_is_the_declared_floor():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', project, re.M)
    matrix = re.search(r"^\s*python-version:\s*\[([^\]]*)\]", workflow, re.M)
    assert floor and matrix
    versions = [_version(v.strip().strip("'\"")) for v in matrix.group(1).split(",")]
    assert min(versions) == _version(floor.group(1))
    # every minor version from the floor up: 3.13 changed what configparser's
    # ParsingError holds, which only a run on 3.13 shows
    assert versions == [(3, 10), (3, 11), (3, 12), (3, 13)]


def _steps(workflow: str) -> dict[str, str]:
    """Step name -> the text of its step, for each named step."""
    parts = re.split(r"^\s*- name:\s*", workflow, flags=re.M)[1:]
    return {part.splitlines()[0].strip(): part for part in parts}


def test_goldens_run_again_under_a_fixed_hash_seed():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = " ".join(_steps(workflow)["goldens under a second hash seed"].split())
    assert "run: PYTHONHASHSEED=12345 PYTHONPATH=src python -m pytest -q tests/test_golden.py" in step


def test_scale_smoke_steps_run_under_a_timeout():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    steps = _steps(workflow)
    for name, argv in [
        ("ballsystem at n_max = 8", ["ballsystem", "lamplighter.spec", "--n-max", "8"]),
        ("ballsystem at n_max = 8 under a budget of 100",
         ["ballsystem", "lamplighter.spec", "--n-max", "8", "--budget", "100"]),
        ("ball on z2_rot4 at r = 60", ["ball", "z2_rot4.spec", "--r", "60"]),
        ("ball on lamplighter at r = 16", ["ball", "lamplighter.spec", "--r", "16"]),
        ("boundary on cylinder_n30_diag at (120, 40)",
         ["boundary", "cylinder_n30_diag.spec", "--r", "120", "--m", "40"]),
        ("bend on cylinder_n30_diag at (120, 40)",
         ["bend", "cylinder_n30_diag.spec", "--r", "120", "--m", "40"]),
        ("annihilator on z2_standard at (90, 30)",
         ["annihilator", "z2_standard.spec", "--r", "90", "--m", "30"]),
        ("witness on z2_rot4 at (60, 20)", ["witness", "z2_rot4.spec", "--r", "60", "--m", "20"]),
    ]:
        argv[1] = "src/horobound/specs/" + argv[1]
        step = " ".join(steps[name].split())
        assert "PYTHONPATH=src timeout 60 python -c" in step, name
        assert f"sys.exit(main({argv}))" in step, name
    # criterion 06 on z2_rot4 at twice the acceptance scale: a fixed sample,
    # the functional count and no violations
    step = " ".join(steps["criterion-06 sweep on z2_rot4 at radius 24"].split())
    assert "PYTHONPATH=src timeout 60 python -c" in step
    for part in [
        "example('z2_rot4'); ball = grow_ball(g, s, 24)",
        "random.Random(2026).choices(ball.data_up_to(16), k=200)",
        "bf(ball, z, 8)",
        "bf(ball, y, 8)",
        "segment(ball, one, y)",
        "sys.exit(len(bad) != 13659 or any(bad))",
    ]:
        assert part in step, part
    # the report writer against the stdlib encoder on a 1.38 MB report
    step = " ".join(steps["report writer on z2_rot4 boundary at (30, 8)"].split())
    assert "PYTHONPATH=src timeout 60 python -c" in step
    for part in [
        "parse_spec('src/horobound/specs/z2_rot4.spec')",
        "run_command(replace(c, command='boundary').with_params(r=30, m=8))",
        "out = emit_report(report)",
        "sys.exit(out != (json.dumps(report, sort_keys=True, indent=2) + '\\n').encode('utf-8'))",
    ]:
        assert part in step, part
    # the rank-2 class count at (80, 20) through run_command
    step = " ".join(steps["stable Busemann classes on z2_standard at (80, 20)"].split())
    assert "PYTHONPATH=src timeout 60 python -c" in step
    for part in [
        "parse_spec('src/horobound/specs/z2_standard.spec')",
        "run_command(replace(c, command='boundary').with_params(r=80, m=20))",
        "n = sum(k['stable'] and k['busemann'] for k in report['classes'])",
        "sys.exit(n != 160)",
    ]:
        assert part in step, part
    # grow_ball against oracle_ball, field by field, in each spec's own order
    step = " ".join(steps["grown balls against the oracle on z2_rot4 and lamplighter"].split())
    assert "PYTHONPATH=src:tests timeout 60 python -c" in step
    for part in [
        "from oracles import oracle_ball",
        "parse_spec(f'src/horobound/specs/{name}.spec')[:2], r) for name, r in "
        "[('z2_rot4', 40), ('lamplighter', 10)]",
        "grow_ball(g, s, r), "
        "oracle_ball(g.mul_data, [x.data for x in s.elements], g.identity_data(), r)",
        "[b.data, list(b.parent), list(b.parent_gen), b.offsets, [col[:-1] for col in b.nbr]] "
        "!= [want[k] for k in ('data', 'parent', 'parent_gen', 'offsets', 'nbr')]",
        "sys.exit(bool(bad))",
    ]:
        assert part in step, part


def test_benchmark_gate_runs_every_workload_under_a_timeout():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = _steps(workflow)["benchmark correctness gate"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    loop = re.search(r"for w in ([\w ]+); do", step)
    assert loop and loop.group(1).split() == names
    assert "if: matrix.python-version == '3.11'" in step
    assert 'timeout 120 python3 perfbench/run.py --workload "$w" --seconds 1' in step
    assert "['correct'] is not True" in step
