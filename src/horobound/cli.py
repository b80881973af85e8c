"""Command-line front end: declarative spec files in, deterministic JSON out.

A spec file has three sections::

    [group]
    family = fg_abelian          # fg_abelian | vab_extension | finite | lamplighter_z2
    free_rank = 1
    torsion = 4                  # space-separated cyclic orders

    [generators]
    elements = (1,0) (-1,0) (1,1) (-1,3) (1,3) (-1,1)
    labels = a a^-1 b b^-1 c c^-1   # optional

    [run]
    command = boundary           # default parameters, flags override
    r = 10
    m = 3

For vab_extension the quotient is ``quotient = cyclic:<n>`` or an explicit
table ``quotient = 0 1; 1 0`` (rows ';'-separated); matrices go in
``action.<q>`` keys (rows ';'-separated, identity when omitted) and cocycle
vectors in ``cocycle.<q>.<p>`` keys (zero when omitted). For ``finite`` the
multiplication table goes in ``table``. Elements are written in canonical
form, e.g. ``(3,-1)``, ``(2,0;1)``, ``({0,2};-1)``.

The generator list must be symmetric exactly as written; a missing inverse is
a ValidationError, not something to silently repair.

Exit codes: 0 success, 2 a diagnostic finding (truncation artifacts such as a
violated finite-scale bound), 1 hard and usage errors. Reports are emitted on stdout
with sorted keys; reruns with equal configuration are byte-identical. With
``--out DIR`` the report plus command-specific CSV/DOT side files are also
written under DIR.

A run loads only its own command's pipeline. The module level imports only
what parsing a spec, dispatching and writing a report need (``errors``,
``groups``, ``linalg``); each handler imports its pipeline in its body, a
library default in ``PARAMS`` is read from its module when the command's
row is typed, and ``argparse`` is imported only where ``main`` builds its
parser. Past those three, a run loads:

- ``ball``: ``cayley``;
- ``boundary`` and ``bend``: ``boundary``, ``cayley``;
- ``annihilator``: ``annihilator``, ``boundary``, ``cayley``;
- ``polytope`` and ``witness``: ``vabelian``, ``polytope``, ``boundary``,
  ``cayley``;
- ``ballsystem``: ``metrics``.

Without bytecode (``PYTHONDONTWRITEBYTECODE=1``) every process compiles what
it loads, so a whole ``bend`` process on ``cylinder_n30_diag.spec`` took
132 ms where loading every pipeline took 164 ms, and ``ball`` on
``z_line.spec`` at r = 10 90 ms instead of 129 (medians of 12 alternating
runs, CPython 3.11.7 on a shared 2-vCPU VM; README.md gives more batches).
"""

from __future__ import annotations

import configparser
import io
import json
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import IO, Callable, Iterator

from .errors import (
    Diagnostic,
    HoroboundError,
    LabelCount,
    OutOfRange,
    RangeEmpty,
    RepeatedGenerator,
    SchemaError,
    ValidationError,
)
from .groups import (
    Element,
    FgAbelianSpec,
    FiniteGroupSpec,
    GeneratingSet,
    Group,
    GroupSpec,
    LamplighterGroup,
    LamplighterZ2Spec,
    VAbExtensionSpec,
    build_group,
    cyclic_table,
    symmetric_generating_set,
)
from .linalg import identity_matrix

__all__ = ["RunConfig", "parse_spec", "run_command", "emit_report", "main"]

REQUIRED = object()  # the default of a parameter that has none

# each command's parameters in the order they are read, and the value a
# missing one takes: a literal, or (module, name) for a library default,
# read from its module only when a run of the command types its row, so the
# default is defined once and cli loads no pipeline it does not run. The
# parser gives a command a flag per parameter outside RUN_ONLY; [run]
# accepts the parameters of every command, since the subcommand may run a
# spec under another command; each handler gets exactly its row, typed.
# TEXT parameters are strings, all others integers
_BUDGET = ("cayley", "DEFAULT_BUDGET")
_SELECTOR = ("vabelian", "DEFAULT_SELECTOR")
PARAMS: dict[str, dict[str, object]] = {
    "ball": {"r": REQUIRED, "budget": _BUDGET, "n": None},
    "boundary": {"r": REQUIRED, "m": REQUIRED, "window": ("boundary", "STABILITY_WINDOW"),
                 "budget": _BUDGET},
    "annihilator": {"r": REQUIRED, "m": REQUIRED, "budget": _BUDGET,
                    "gap": ("annihilator", "DEFAULT_GAP")},
    "polytope": {"r": REQUIRED, "budget": _BUDGET, "extreme": _SELECTOR},
    "witness": {"r": REQUIRED, "m": REQUIRED, "k": ("vabelian", "WITNESS_K"), "budget": _BUDGET,
                "extreme": _SELECTOR},
    "ballsystem": {"n_max": 4, "budget": ("metrics", "DEFAULT_SET_BUDGET")},
    "bend": {"r": REQUIRED, "m": REQUIRED, "scan_m": REQUIRED, "ell": REQUIRED,
             "budget": _BUDGET, "x": REQUIRED},
}
RUN_ONLY = frozenset({"n", "window", "scan_m", "ell", "x"})
TEXT = frozenset({"extreme", "x"})
RUN_KEYS = frozenset().union(*PARAMS.values())


def _library(module: str, name: str) -> object:
    """``name`` of the package's ``module``, which is imported if need be.
    ``__import__`` takes the import statement's own path, so ``-X importtime``
    lists the module, as it does not after ``importlib.import_module``."""
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flagged(command: str) -> list[str]:
    return [key for key in PARAMS[command] if key not in RUN_ONLY]


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; equal configs give identical bytes."""

    command: str | None
    group_spec: GroupSpec
    generators: tuple[str, ...]
    labels: tuple[str, ...] | None
    params: tuple[tuple[str, str], ...]
    out: str | None = None

    def read_params(self) -> dict[str, object]:
        """The command's PARAMS row, typed, with each absent key at its default."""
        given = dict(self.params)
        typed: dict[str, object] = {}
        for key, default in PARAMS[self.command].items():
            raw = given.get(key)
            if raw is None:
                if default is REQUIRED:
                    flag = "" if key in RUN_ONLY else f"{_flag(key)} or "
                    raise SchemaError(
                        f"command {self.command!r} needs parameter {key!r} ({flag}a [run] entry)"
                    )
                typed[key] = _library(*default) if isinstance(default, tuple) else default
            elif key in TEXT:
                typed[key] = raw
            else:
                try:
                    typed[key] = int(raw)
                except ValueError:
                    raise SchemaError(f"parameter {key!r} must be an integer, got {raw!r}") from None
        return typed

    def with_params(self, **updates: object) -> "RunConfig":
        merged = dict(self.params)
        for k, v in updates.items():
            if v is not None:
                merged[k] = str(v)
        return replace(self, params=tuple(sorted(merged.items())))

    def describe(self) -> dict:
        return {
            "command": self.command,
            "generators": list(self.generators),
            "labels": list(self.labels) if self.labels else None,
            "params": dict(self.params),
            "seed": None,  # kept while the stored reports carry it
        }


# the group and generating set of the last config parsed or run, keyed by
# every field they are built from, so that running a freshly parsed spec
# does not build them, with all their checks, a second time
_BUILT: dict[tuple, tuple[Group, GeneratingSet]] = {}


def _build_key(config: RunConfig) -> tuple:
    return (config.group_spec, config.generators, config.labels)


def _remember(config: RunConfig, group: Group, gens: GeneratingSet) -> None:
    _BUILT.clear()
    _BUILT[_build_key(config)] = (group, gens)


# ---------------------------------------------------------------------------
# spec files


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_int_row(section: str, key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(section, key, tok) for tok in raw.split())

def _parse_rows(section: str, key: str, raw: str) -> tuple[tuple[int, ...], ...]:
    rows = [row.strip() for row in raw.split(";")]
    return tuple(_parse_int_row(section, key, row) for row in rows if row)


def _parse_group_section(sec: configparser.SectionProxy) -> GroupSpec:
    family = sec.get("family")
    if family is None:
        raise SchemaError("[group] is missing the 'family' key")

    if family == "fg_abelian":
        _reject_unknown(sec, {"family", "free_rank", "torsion"})
        if "free_rank" not in sec:
            raise SchemaError("[group] fg_abelian needs 'free_rank'")
        free_rank = _parse_int("group", "free_rank", sec["free_rank"])
        torsion = _parse_int_row("group", "torsion", sec.get("torsion", ""))
        return FgAbelianSpec(free_rank=free_rank, torsion=torsion)

    if family == "vab_extension":
        known = {"family", "rank", "quotient"}
        for key in sec:
            if key in known or key.startswith("action.") or key.startswith("cocycle."):
                continue
            raise SchemaError(f"[group] unknown key {key!r} for family vab_extension")
        if "rank" not in sec or "quotient" not in sec:
            raise SchemaError("[group] vab_extension needs 'rank' and 'quotient'")
        rank = _parse_int("group", "rank", sec["rank"])
        quo = sec["quotient"].strip()
        if quo.startswith("cyclic:"):
            try:
                table = cyclic_table(_parse_int("group", "quotient", quo[len("cyclic:"):]))
            except ValueError as exc:
                raise SchemaError(f"[group] quotient: {exc}") from None
        else:
            table = _parse_rows("group", "quotient", quo)
        nq = len(table)
        action = [identity_matrix(rank)] * nq
        named: dict[object, str] = {}  # quotient index -> the key that set it
        for key in sec:
            if not key.startswith("action."):
                continue
            q = _parse_int("group", key, key[len("action."):])
            if not 0 <= q < nq:
                raise SchemaError(f"[group] {key}: index outside the quotient 0..{nq - 1}")
            _claim_index(named, q, key)
            action[q] = _parse_rows("group", key, sec[key])
        zero = (0,) * rank
        cocycle = [[zero] * nq for _ in range(nq)]
        for key in sec:
            if not key.startswith("cocycle."):
                continue
            parts = key.split(".")
            if len(parts) != 3:
                raise SchemaError(f"[group] cocycle keys look like cocycle.<q>.<p>, got {key!r}")
            q = _parse_int("group", key, parts[1])
            p = _parse_int("group", key, parts[2])
            if not (0 <= q < nq and 0 <= p < nq):
                raise SchemaError(f"[group] {key}: indices outside the quotient 0..{nq - 1}")
            _claim_index(named, (q, p), key)
            cocycle[q][p] = _parse_int_row("group", key, sec[key])
        return VAbExtensionSpec(
            rank=rank,
            quotient_table=table,
            action=tuple(action),
            cocycle=tuple(tuple(row) for row in cocycle),
        )

    if family == "finite":
        _reject_unknown(sec, {"family", "table"})
        if "table" not in sec:
            raise SchemaError("[group] finite needs 'table'")
        return FiniteGroupSpec(table=_parse_rows("group", "table", sec["table"]))

    if family == "lamplighter_z2":
        _reject_unknown(sec, {"family"})
        return LamplighterZ2Spec()

    raise SchemaError(f"[group] unknown family {family!r}")


def _claim_index(named: dict[object, str], index: object, key: str) -> None:
    """Record that key sets index; a second spelling of one index is an error."""
    if index in named:
        raise SchemaError(f"[group] {named[index]} and {key} set the same quotient index")
    named[index] = key


def _reject_unknown(sec: configparser.SectionProxy, known: set[str]) -> None:
    for key in sec:
        if key not in known:
            raise SchemaError(f"[{sec.name}] unknown key {key!r}")


def _parse_elements(group: Group, raw: str) -> list[Element]:
    out = []
    for tok in raw.split():
        try:
            out.append(group.parse(tok))
        except ValueError as exc:
            raise SchemaError(f"[generators] elements: {exc}") from None
    return out


def _ini_error(exc: configparser.Error, lines: list[str]) -> str:
    """One line for a configparser error on ``lines``, with the line number
    it names."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        # the line itself, not exc.errors' copy: Python 3.13 stopped storing
        # that copy as its repr()
        lineno = exc.errors[0][0]
        return f"line {lineno}: expected 'key = value', got {lines[lineno - 1]!r}"
    return " ".join(str(exc).split())


def parse_spec(path: str) -> tuple[Group, GeneratingSet, RunConfig]:
    """Read and validate a spec file.

    Structural problems (missing sections/keys, unparsable values) raise
    SchemaError; well-formed but invalid content (a bad group table, a
    non-symmetric generator list) raises ValidationError.
    """
    # ';' separates matrix rows and appears inside element literals, so only
    # '#' marks inline comments
    cp = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        inline_comment_prefixes=("#",),
    )
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        cp.read_file(lines, source=path)
    except configparser.Error as exc:  # its text runs over several lines
        raise SchemaError(f"{path}: {_ini_error(exc, lines)}") from None

    for required in ("group", "generators"):
        if required not in cp:
            raise SchemaError(f"{path}: missing [{required}] section")

    spec = _parse_group_section(cp["group"])
    try:
        group = build_group(spec)
    except (HoroboundError, ValueError) as exc:
        raise ValidationError(f"{path} [group]: {exc}") from None

    gsec = cp["generators"]
    _reject_unknown(gsec, {"elements", "labels"})
    if "elements" not in gsec:
        raise SchemaError(f"{path}: [generators] needs 'elements'")
    elements = _parse_elements(group, gsec["elements"])
    labels = tuple(gsec["labels"].split()) if "labels" in gsec else None
    gens = _generating_set(group, elements, labels, path)

    params: dict[str, str] = {}
    command = None
    if "run" in cp:
        for key, value in cp["run"].items():
            if key == "command":
                command = value.strip()
                if command not in PARAMS:
                    raise SchemaError(f"{path}: [run] unknown command {command!r}")
            elif key in RUN_KEYS:
                params[key] = value.strip()
            else:
                raise SchemaError(f"{path}: [run] unknown key {key!r}")

    config = RunConfig(
        command=command,
        group_spec=spec,
        generators=tuple(str(x) for x in elements),
        labels=labels,
        params=tuple(sorted(params.items())),
    )
    _remember(config, group, gens)
    return group, gens, config


def _generating_set(
    group: Group,
    elements: list[Element],
    labels: tuple[str, ...] | None,
    where: str,
) -> GeneratingSet:
    """The generating set a spec or a config names, once its list passes the
    checks: not empty, no identity, symmetric as written, and the library's
    own (no element or label listed twice, as many labels as generators).
    ``where`` starts each error message."""
    if not elements:
        raise ValidationError(f"{where}: [generators] elements is empty")
    if any(x.is_identity() for x in elements):
        raise ValidationError(f"{where}: the identity is not a generator")
    have = {x.data for x in elements}
    for x in elements:
        if x.inverse().data not in have:
            raise ValidationError(
                f"{where}: generator list is not symmetric, {x}^-1 = {x.inverse()} is missing"
            )
    try:
        return symmetric_generating_set(group, elements, labels)
    except LabelCount as exc:
        raise SchemaError(f"{where}: {exc}") from None
    except RepeatedGenerator as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except HoroboundError as exc:
        raise ValidationError(f"{where} [generators]: {exc}") from None


# ---------------------------------------------------------------------------
# commands: each handler imports its own pipeline, so a run loads only the
# modules of the command it runs


class _SideFiles(Mapping):
    """Side-file name -> bytes, each rendered by its writer on first read:
    ``main`` reads them only for ``--out``, so a run without it formats
    none."""

    def __init__(self, writers: dict[str, Callable[[IO[str]], None]]):
        self._writers = writers
        self._blobs: dict[str, bytes] = {}

    def __getitem__(self, name: str) -> bytes:
        if name not in self._blobs:
            buf = io.StringIO()
            self._writers[name](buf)
            self._blobs[name] = buf.getvalue().encode("utf-8")
        return self._blobs[name]

    def __contains__(self, name: object) -> bool:
        return name in self._writers

    def __iter__(self) -> Iterator[str]:
        return iter(self._writers)

    def __len__(self) -> int:
        return len(self._writers)


def _cmd_ball(group: Group, gens: GeneratingSet, p: dict):
    from .cayley import check_prefix_depth, geodesic_prefixes, grow_ball

    r = p["r"]
    if p["n"] is not None:
        check_prefix_depth(p["n"], r)  # before the ball is grown
    ball = grow_ball(group, gens, r, budget=p["budget"])
    body = {
        "radius": r,
        "size": ball.size(r),
        "layer_sizes": [ball.size(k) - ball.size(k - 1) for k in range(r + 1)],
    }
    sides = {"ball.csv": ball.to_csv}
    if p["n"] is not None:
        dag = geodesic_prefixes(ball, p["n"], r)
        body["prefix_tree"] = {
            "depth": dag.depth,
            "min_horizon": dag.min_horizon,
            "count": dag.count(),
        }
        sides["prefixes.dot"] = dag.to_dot
    return body, sides


def _cmd_boundary(group: Group, gens: GeneratingSet, p: dict):
    from .boundary import boundary_approx, check_level
    from .cayley import grow_ball

    check_level(p["r"], p["m"], p["window"])  # before the ball is grown
    ball = grow_ball(group, gens, p["r"] + p["m"], budget=p["budget"])
    approx = boundary_approx(ball, p["r"], p["m"], window=p["window"])
    return approx.to_json_dict(), {}


def _cmd_annihilator(group: Group, gens: GeneratingSet, p: dict):
    from .annihilator import annihilator_candidates, check_annulus
    from .cayley import grow_ball

    check_annulus(p["m"], p["r"] + p["m"], p["gap"])  # before the ball is grown
    ball = grow_ball(group, gens, p["r"] + p["m"], budget=p["budget"])
    report = annihilator_candidates(ball, p["m"], gap=p["gap"])
    return report.to_json_dict(), {"candidates.csv": report.to_csv}


def _cmd_polytope(group: Group, gens: GeneratingSet, p: dict):
    from .cayley import grow_ball
    from .vabelian import extreme_hull, lipschitz_hom, step1_membership

    r = p["r"]
    qg, cycles, cloud, poly, e_prime = extreme_hull(group, gens, p["extreme"], r)
    ball = grow_ball(group, gens, r, budget=p["budget"])
    body = {
        "quotient_graph": qg.to_json_dict(),
        "cycles": cycles.to_json_dict(),
        "cloud": cloud.to_json_dict(),
        "hull": poly.to_json_dict(),
        "membership": step1_membership(poly, ball, r).to_json_dict(),
        "functional": lipschitz_hom(poly, e_prime, cloud, ball).to_json_dict(),
    }
    return body, {}


def _cmd_witness(group: Group, gens: GeneratingSet, p: dict):
    from .vabelian import infinite_boundary_witness

    report = infinite_boundary_witness(
        group, gens, p["r"], p["m"], k=p["k"], selector=p["extreme"], budget=p["budget"]
    )
    return report.to_json_dict(), {}


def _cmd_ballsystem(group: Group, gens: GeneratingSet, p: dict):
    from .metrics import bs_annihilator_check, build_ball_system, metric_axiom_check

    n_max = p["n_max"]
    if n_max == 1 and isinstance(group, LamplighterGroup):
        # the check's range is B_0 = {1}; n_max < 1 is the library's refusal
        raise OutOfRange(
            f"n_max must be >= 2 on the lamplighter, got {n_max}: the annihilator "
            "check reads |f^-1| for each f in F_1, whose lamps B_1 need not hold"
        )
    bs = build_ball_system(group, gens, None, n_max, budget=p["budget"])
    checks = [
        bs_annihilator_check(bs, Element(group, data), 1).to_json_dict()
        for data in sorted(bs.chain[0], key=group.sort_key)
    ]
    body = {
        "levels": bs.to_json_dict(),
        "axioms": metric_axiom_check(bs).to_json_dict(),
        "annihilator_checks": checks,
    }
    return body, {}


def _cmd_bend(group: Group, gens: GeneratingSet, p: dict):
    from .boundary import boundary_approx, check_level, check_scan, slow_geodesic
    from .cayley import grow_ball

    r, m, scan_m, ell = p["r"], p["m"], p["scan_m"], p["ell"]
    try:
        x = group.parse(p["x"])
    except ValueError as exc:
        raise SchemaError(f"[run] x: {exc}") from None
    check_level(r, m)  # before the ball is grown, as is the scan range
    if not 1 <= scan_m <= ell:
        raise RangeEmpty(f"need 1 <= scan_m <= ell, got scan_m={scan_m}, ell={ell}")
    ball = grow_ball(group, gens, r + m, budget=p["budget"])
    check_scan(scan_m, ell, ball.norm(x), m)  # before the level is built
    approx = boundary_approx(ball, r, m)
    sg = slow_geodesic(x, scan_m, ell, approx)
    body = {
        "x": str(x),
        "level": {"r": r, "m": m},
        "scan_m": scan_m,
        "ell": ell,
        "t": sg.scan.t,
        "epsilon": sg.scan.epsilon,
        "kernel_index": sg.kernel_index,
        "kernel_index_exact": sg.kernel_index_exact,
        "bound": sg.bound,
        "class_values": list(sg.class_values),
        "beta": [group.format_data(ball.data[p]) for p in sg.beta],
        "phi": list(sg.scan.phi),
        "signs": list(sg.scan.signs),
        "two_lipschitz": sg.scan.is_two_lipschitz(),
    }
    return body, {}


_HANDLERS: dict[str, Callable] = {
    "ball": _cmd_ball,
    "boundary": _cmd_boundary,
    "annihilator": _cmd_annihilator,
    "polytope": _cmd_polytope,
    "witness": _cmd_witness,
    "ballsystem": _cmd_ballsystem,
    "bend": _cmd_bend,
}


def run_command(config: RunConfig) -> tuple[dict, Mapping[str, bytes]]:
    """Build the group from the config (or reuse the last build of the same
    fields) and dispatch; pure in the config. A build checks the generator
    list as ``parse_spec`` does. Side files are rendered when first read."""
    if config.command not in _HANDLERS:
        raise SchemaError(f"unknown command {config.command!r}")
    params = config.read_params()
    built = _BUILT.get(_build_key(config))
    if built is None:
        group = build_group(config.group_spec)
        elements = [group.parse(t) for t in config.generators]
        gens = _generating_set(group, elements, config.labels, "config")
        _remember(config, group, gens)
    else:
        group, gens = built
    body, sides = _HANDLERS[config.command](group, gens, params)
    report = {
        "command": config.command,
        "group": group.describe(),
        "config": config.describe(),
    }
    report.update(body)
    return report, _SideFiles(sides)


# the report writer. The stdlib's C encoder runs only without indent, so
# ``json.dumps(..., indent=2)`` spends most of a small report in the Python
# generators of ``json.encoder``; this writes the same text, each dict or
# list joining its own items into one string. Exact str, int, bool and None
# take the table; floats, subclasses of str and int, and anything JSON
# cannot hold go to the C encoder, which writes the first kind as
# ``json.dumps`` does and raises TypeError on the last
_ESCAPE = json.encoder.encode_basestring_ascii
_ENCODER = json.JSONEncoder(sort_keys=True)
_SCALARS: dict[type, Callable[[object], str]] = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key_text(key: object) -> str:
    """A dict key as ``json.dumps`` writes it: a key that is not a string
    becomes the string of its JSON value."""
    if isinstance(key, str):
        return _ESCAPE(key)
    if key is None or isinstance(key, (float, int)):
        return _ESCAPE(_SCALARS.get(type(key), _ENCODER.encode)(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _text(o: object, nl: str, active: set[int]) -> str:
    """o with each item of a container on its own line, indented two spaces
    past ``nl`` (a newline and the current indent). ``active`` holds the ids
    of the containers being written. Scalar items are formatted in place,
    which saves a call per item."""
    fmt = _SCALARS.get(type(o))
    if fmt is not None:
        return fmt(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        opener, closer = "{", "}"
    elif isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        opener, closer = "[", "]"
    else:
        return _ENCODER.encode(o)
    marker = id(o)
    if marker in active:
        raise ValueError("Circular reference detected")
    active.add(marker)
    inner = nl + "  "
    scalar = _SCALARS.get
    if opener == "[":
        parts = [
            fmt(v) if (fmt := scalar(type(v))) is not None else _text(v, inner, active)
            for v in o
        ]
    else:
        parts = [
            f"{_ESCAPE(k) if type(k) is str else _key_text(k)}: "
            f"{fmt(v) if (fmt := scalar(type(v))) is not None else _text(v, inner, active)}"
            for k, v in sorted(o.items())
        ]
    active.remove(marker)
    return f"{opener}{inner}{(',' + inner).join(parts)}{nl}{closer}"


def emit_report(report: dict) -> bytes:
    """Deterministic JSON bytes: sorted keys, two-space indent, trailing newline.

    The bytes are exactly those of
    ``(json.dumps(report, sort_keys=True, indent=2) + "\\n").encode("utf-8")``:
    each item of a non-empty dict or list (tuples are lists) on its own line,
    indented two spaces per depth, items separated by ``,`` and keys by
    ``": "``, keys sorted as ``sorted(d.items())`` sorts them, keys that are
    not strings (int, float, bool, None) quoted as their JSON value, empty
    containers as ``{}`` and ``[]``, and every non-ASCII character escaped.

    Strict: a value JSON cannot represent (an Element, a Fraction, a set)
    raises TypeError instead of being written as its str(), as does any other
    key; a report that contains itself raises ValueError.
    """
    return (_text(report, "\n", set()) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    import argparse  # only a command-line run builds the parser

    parser = argparse.ArgumentParser(
        prog="horobound",
        description="Boundary, annihilator and metric experiments on finitely generated groups.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PARAMS:
        p = sub.add_parser(name, help=f"run the {name} pipeline", allow_abbrev=False)
        p.add_argument("spec", help="path to a group spec file")
        for key in _flagged(name):
            p.add_argument(
                _flag(key),
                type=str if key in TEXT else int,
                default=None,
                dest=key,
                metavar="lex|index:<i>" if key == "extreme" else None,
            )
        p.add_argument("--out", type=str, default=None, metavar="DIR")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after -h
        return 1 if exc.code else 0
    try:
        _, _, config = parse_spec(args.spec)
        config = replace(config, command=args.command, out=args.out).with_params(
            **{key: getattr(args, key) for key in _flagged(args.command)}
        )
        report, sides = run_command(config)
    except Diagnostic as exc:
        payload = {
            "diagnostic": type(exc).__name__,
            "message": str(exc),
            "detail": exc.payload,
        }
        sys.stdout.buffer.write(emit_report(payload))
        return 2
    except HoroboundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = emit_report(report)
    if config.out:
        try:
            os.makedirs(config.out, exist_ok=True)
            for name, blob in {"report.json": out, **sides}.items():
                with open(os.path.join(config.out, name), "wb") as fh:
                    fh.write(blob)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    sys.stdout.buffer.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
