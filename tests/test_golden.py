"""Bundled runs against stored digests, so a refactor cannot change output.

``tests/golden/bundled.json`` maps each bundled spec to the sha256 of its
``emit_report`` bytes and of every side file its command writes. Criterion 11
only compares a rerun with the run before it; this compares with the bytes
recorded before a change. ``EXTRA_RUNS`` adds runs of a bundled spec under
another command at fixed parameters, stored under ``run_key``. After a
deliberate, documented change of output, rewrite the file with::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib
from dataclasses import replace
from importlib import resources

import pytest

from horobound.cli import emit_report, parse_spec, run_command
from oracles import oracle_report_bytes

SPECS = resources.files("horobound") / "specs"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "bundled.json"
SPEC_NAMES = sorted(p.name for p in SPECS.iterdir() if p.name.endswith(".spec"))

# (spec, command, params): the lamplighter outside ``ballsystem``. ``ball``
# with n set pins ball.csv and prefixes.dot; the annihilator report lists
# its candidates by (norm, data). ``ballsystem`` on Z^2 at n_max = 5 builds
# levels on the degenerate chain F_n = {e}, where every block k > n - k >= 2
# is reached and every element is its own coset representative.
EXTRA_RUNS = (
    ("lamplighter.spec", "ball", {"r": 6, "n": 4}),
    ("lamplighter.spec", "boundary", {"r": 4, "m": 2}),
    ("lamplighter.spec", "annihilator", {"r": 4, "m": 2}),
    ("z2_standard.spec", "ballsystem", {"n_max": 5}),
)


def run_key(spec: str, command: str, params: dict) -> str:
    return f"{spec}:{command}:" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


EXTRA_KEYS = {run_key(*run): run for run in EXTRA_RUNS}


def bundled_run(name: str, command: str | None = None, params: dict | None = None):
    """The report and side files of one bundled run."""
    _, _, config = parse_spec(str(SPECS / name))
    if command is not None:
        config = replace(config, command=command).with_params(**params)
    return run_command(config)


def digests(name: str, command: str | None = None, params: dict | None = None) -> dict[str, str]:
    """sha256 of the report and of each side file of one bundled run."""
    report, sides = bundled_run(name, command, params)
    out = {"report.json": hashlib.sha256(emit_report(report)).hexdigest()}
    for side, blob in sorted(sides.items()):
        out[side] = hashlib.sha256(blob).hexdigest()
    return out


def test_golden_covers_every_bundled_spec():
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(stored) == sorted(SPEC_NAMES + list(EXTRA_KEYS))
    assert len(SPEC_NAMES) == 11


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_bundled_run_matches_golden(name):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(name) == stored[name]


@pytest.mark.parametrize("key", sorted(EXTRA_KEYS))
def test_extra_run_matches_golden(key):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(*EXTRA_KEYS[key]) == stored[key]


@pytest.mark.parametrize(
    "run", [(name,) for name in SPEC_NAMES] + list(EXTRA_RUNS), ids=SPEC_NAMES + list(EXTRA_KEYS)
)
def test_report_bytes_match_the_stdlib_encoder(run):
    report, _ = bundled_run(*run)
    assert emit_report(report) == oracle_report_bytes(report)


if __name__ == "__main__":
    table = {name: digests(name) for name in SPEC_NAMES}
    table.update({key: digests(*run) for key, run in EXTRA_KEYS.items()})
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {GOLDEN}")
