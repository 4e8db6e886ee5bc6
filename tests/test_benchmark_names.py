"""The benchmark's view of stabkit, checked without running it.

`perfbench/` is never imported by this suite, so a deleted or renamed name
would break the benchmark while every test here stays green.  This parses
`perfbench/*.py` with `ast`: every name imported from a stabkit module must
exist (a submodule counts), and so must every attribute read off such a name
(`decoders.MwpmDecoder`, `montecarlo.SimulationReport.to_csv`).  Names
reached through instances, such as `decoder.matching_problems` or `pt.p`,
are pinned in `INSTANCE_NAMES`: each must exist on a built instance or as a
dataclass field, and each must be read somewhere in `perfbench/*.py`, so
the list cannot go stale.  `perfbench/selftest.py` is still the full check.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from stabkit import code_library, decoders, montecarlo

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def stabkit_names(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (stabkit module, imported name) for each `from stabkit…
    import N` in the file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stabkit":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def imported(module: str, name: str):
    """The object `from module import name` binds, or AttributeError."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def reads(tree: ast.Module, bound: dict[str, object]):
    """(dotted text, owner, attribute) of each attribute read off a bound
    name, chains included, outermost last."""
    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            return getattr(owner, node.attr, None) if owner is not None else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = resolve(node.value)
            if owner is not None:
                yield ast.unparse(node), owner, node.attr


FILES = sorted(PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_stabkit_name_the_benchmark_uses_exists(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, missing = {}, []
    for local, (module, name) in stabkit_names(tree).items():
        try:
            bound[local] = imported(module, name)
        except AttributeError:
            missing.append(f"{module}.{name}")
    missing += [text for text, owner, attr in reads(tree, bound) if not hasattr(owner, attr)]
    assert not missing, f"{path.name} uses names stabkit lacks: {missing}"


def test_the_benchmark_imports_stabkit():
    # Guards the guard: a parse that found nothing would pass vacuously.
    checked = set()
    for path in FILES:
        tree = ast.parse(path.read_text())
        bound = {local: imported(*src) for local, src in stabkit_names(tree).items()}
        checked |= {f"{m}.{n}" for m, n in stabkit_names(tree).values()}
        checked |= {text for text, _, _ in reads(tree, bound)}
    assert len(checked) > 20


# Names the benchmark reads off instances it gets back from stabkit, by owner.
INSTANCE_NAMES = {
    "LookupDecoder": ("decode_value",),
    "MwpmDecoder": ("decode_value", "matching_problems"),
    "StabilizerCode": ("syndrome_value", "in_stabilizer_group", "m", "n", "name"),
    "ThresholdScan": ("reports", "p_threshold"),
    "SimulationReport": ("code", "points"),
    "RatePoint": ("p", "trials", "failures", "decoder_failures"),
    "MatchingProblem": ("defects", "boundary_costs", "pair_costs"),
}


def test_every_name_the_benchmark_reads_off_an_instance_exists():
    code = code_library.surface_code(3)
    built = {
        "LookupDecoder": decoders.LookupDecoder(code_library.shor_nine()),
        "MwpmDecoder": decoders.MwpmDecoder(code),
        "StabilizerCode": code,
    }
    dataclass_types = {
        "ThresholdScan": montecarlo.ThresholdScan,
        "SimulationReport": montecarlo.SimulationReport,
        "RatePoint": montecarlo.RatePoint,
        "MatchingProblem": decoders.MatchingProblem,
    }
    missing = []
    for owner, names in INSTANCE_NAMES.items():
        if owner in built:
            have = set(dir(built[owner]))
        else:
            have = {f.name for f in dataclasses.fields(dataclass_types[owner])}
        missing += [f"{owner}.{name}" for name in names if name not in have]
    assert not missing, f"the benchmark reads names stabkit lacks: {missing}"


def test_every_pinned_instance_name_is_read_by_the_benchmark():
    read = {
        node.attr
        for path in FILES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    stale = [
        f"{owner}.{name}" for owner, names in INSTANCE_NAMES.items() for name in names
        if name not in read
    ]
    assert not stale, f"pinned names no benchmark file reads: {stale}"
