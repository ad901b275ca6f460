"""The README's and the demos' code references name code that exists.

Every backticked dotted name in README.md whose first part is a module of
``treebsm`` or a name it exports (``montecarlo._lane``,
``StabilizerTableau.prepare``) must resolve, so a deleted or renamed helper
cannot linger in the docs, and the stream version the README states is the
sampler's.  Every name the README's library tour and the demos import from
``treebsm`` must exist; they are parsed, not run.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import treebsm
from treebsm import montecarlo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
MODULES = {m.name for m in pkgutil.iter_modules(treebsm.__path__)}


def cited_names() -> list[str]:
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text())
    return sorted({name for name in dotted
                   if name.split(".")[0] in MODULES or hasattr(treebsm, name.split(".")[0])})


def test_readme_cites_code():
    names = cited_names()
    assert {"montecarlo._lane", "montecarlo._WINDOW", "cli.MAX_RANGE_COUNT",
            "stabilizer.tableau_bytes"} <= set(names)
    assert "pyproject.toml" not in names


def test_every_cited_name_resolves():
    missing = []
    for name in cited_names():
        head, *rest = name.split(".")
        obj = importlib.import_module(f"treebsm.{head}") if head in MODULES else getattr(treebsm, head)
        for part in rest:
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    assert missing == []


def test_stated_stream_version_is_current():
    stated = re.findall(r"`montecarlo\.STREAM_VERSION` \(now (\d+)\)", README.read_text())
    assert stated == [str(montecarlo.STREAM_VERSION)]


def library_tour() -> str:
    return re.search(r"## Library tour\s+```python\n(.*?)```", README.read_text(), re.S).group(1)


def treebsm_imports(source: str) -> list[str]:
    """The dotted names a source imports from treebsm, e.g. ``treebsm.logical_bsm``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "treebsm"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treebsm":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def exists(name: str) -> bool:
    owner, _, attr = name.rpartition(".")
    if owner and hasattr(importlib.import_module(owner), attr):
        return True
    return importlib.util.find_spec(name) is not None  # a module not imported yet


def test_library_tour_is_parsed():
    assert {"treebsm.logical_bsm", "treebsm.run"} <= set(treebsm_imports(library_tour()))


@pytest.mark.parametrize("name", ["README.md", *DEMOS])
def test_every_imported_name_exists(name):
    source = library_tour() if name == "README.md" else (ROOT / "demos" / name).read_text()
    imported = treebsm_imports(source)
    assert imported
    assert [n for n in imported if not exists(n)] == []
