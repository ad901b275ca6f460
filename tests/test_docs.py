"""The README's code references name code that exists.

Every backticked dotted name in README.md whose first part is a module of
``treebsm`` or a name it exports (``montecarlo._lane``,
``StabilizerTableau.prepare``) must resolve, so a deleted or renamed helper
cannot linger in the docs, and the stream version the README states is the
sampler's.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import treebsm
from treebsm import montecarlo

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(treebsm.__path__)}


def cited_names() -> list[str]:
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text())
    return sorted({name for name in dotted
                   if name.split(".")[0] in MODULES or hasattr(treebsm, name.split(".")[0])})


def test_readme_cites_code():
    names = cited_names()
    assert {"montecarlo._lane", "montecarlo._WINDOW", "cli.MAX_RANGE_COUNT",
            "genseq.tableau_bytes"} <= set(names)
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
