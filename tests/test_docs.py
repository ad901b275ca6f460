"""The docs, demos and benchmark name code that exists, and every exported function is used.

Every backticked dotted name in README.md whose first part is a module of
``treebsm`` or a name it exports (``montecarlo._lane``,
``StabilizerTableau.prepare``), every bare CamelCase name (``VerifyResult``)
and every call form (``level_vertices(k)``) must resolve, so a deleted or
renamed helper cannot linger in the docs, and the stream version, the
sample-window counts, the search CSV columns and the tableau qubit cap the
README states are the code's.
Every name the README's library tour, the demos and the benchmark
(``perfbench/``) import from ``treebsm`` or read off such an import must
exist; they are parsed, not run.  In the other direction, every function
``treebsm/__init__.py`` exports must be referenced in code by the
package, a demo or the benchmark, and so must every public method and
property of a class it exports: code only the tests call belongs in
``tests/``.
"""

import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import treebsm
from treebsm import montecarlo, search, stabilizer
from treebsm.analytic import Protocol
from treebsm.trees import BranchingVector

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "treebsm"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
BENCH = sorted(f"perfbench/{path.name}" for path in (ROOT / "perfbench").glob("*.py"))
MODULES = {m.name for m in pkgutil.iter_modules(treebsm.__path__)}


def cited_names(text: str) -> list[str]:
    """The backticked names of ``text`` that name code: dotted names whose first
    part is a module or an export of treebsm, bare CamelCase names and call
    forms (``McEstimate.to_dict()``, ``children(v)``), the last as the name called."""
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)
    calls = re.findall(r"`([A-Za-z_][\w.]*)\([^`]*\)`", text)
    camel = re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)`", text)
    return sorted({name for name in dotted + calls
                   if name.split(".")[0] in MODULES or hasattr(treebsm, name.split(".")[0])}
                  | {name for name in calls + camel if "." not in name})


def has_member(obj, name: str) -> bool:
    """Whether ``obj`` has the attribute ``name``, or is a dataclass with that field."""
    return hasattr(obj, name) or (dataclasses.is_dataclass(obj)
                                  and name in {f.name for f in dataclasses.fields(obj)})


def resolves(name: str) -> bool:
    """A dotted name walks from a treebsm module or export; a bare one is an
    export, a module attribute, a member or field of an exported class, or a builtin."""
    head, *rest = name.split(".")
    if not rest:
        owners = [treebsm, builtins, *(importlib.import_module(f"treebsm.{m}") for m in MODULES),
                  *(getattr(treebsm, n) for n in exported(inspect.isclass))]
        return any(has_member(owner, head) for owner in owners)
    obj = importlib.import_module(f"treebsm.{head}") if head in MODULES else getattr(treebsm, head)
    for part in rest:
        if not has_member(obj, part):
            return False
        obj = getattr(obj, part, None)
    return True


def test_readme_cites_code():
    names = cited_names(README.read_text())
    assert {"montecarlo._lane", "montecarlo._WINDOW", "cli.MAX_RANGE_COUNT",
            "stabilizer.tableau_bytes", "VerifyResult", "ValueError", "level_vertices",
            "McEstimate.to_dict", "SearchBounds"} <= set(names)
    assert not {"pyproject.toml", "CZ", "None"} & set(names)


def test_every_cited_name_resolves():
    assert [name for name in cited_names(README.read_text()) if not resolves(name)] == []


def test_a_deleted_name_is_caught():
    # Names the package once had: a result type, a level lookup and a method.
    text = ("`LogicalBsmResult`, `level_of(v)`, `StabilizerTableau.to_text` "
            "beside `BsmRates`, `photon_count(b)` and `McEstimate.n_success`")
    assert [name for name in cited_names(text) if not resolves(name)] == [
        "LogicalBsmResult", "StabilizerTableau.to_text", "level_of"]


def test_stated_stream_version_is_current():
    stated = re.findall(r"`montecarlo\.STREAM_VERSION` \(now (\d+)\)", README.read_text())
    assert stated == [str(montecarlo.STREAM_VERSION)]


PROTOCOLS = {"static": Protocol.STATIC, "adaptive": Protocol.DYNAMIC,
             "loss-only": Protocol.LOSS_ONLY}


def test_stated_window_counts_are_current():
    # "(2,2) at eps 0 and N = 10^6 is 9 windows under the static rules and 7
    # windows under the loss-only rules": one case per count.
    text = " ".join(README.read_text().split())
    heads = list(re.finditer(r"\(([\d,]+)\) at eps ([\de.-]+) and N = ([\d^]+) is ", text))
    cases = []
    for head, end in zip(heads, [h.start() for h in heads[1:]] + [len(text)]):
        clause = text[head.end():end].split(". ")[0]
        cases += [(*head.groups(), protocol, int(count)) for count, protocol in re.findall(
            r"(\d+) windows (?:of [^,]*? samples )?under the ([\w-]+) rules", clause)]
    assert len(cases) == 3
    for b, eps, n, protocol, count in cases:
        vec = BranchingVector(tuple(map(int, b.split(","))))
        reads = montecarlo._READS[PROTOCOLS[protocol]]
        per_sample = sum(montecarlo._drawn_widths(vec, float(eps) > 0.0, reads))
        base, _, power = n.partition("^")
        windows = montecarlo._windows(int(base) ** int(power or 1), per_sample)
        assert len(list(windows)) == count, (b, eps, n, protocol)


def test_stated_search_columns_are_current():
    stated = re.findall(r"Search CSV columns:\s*`([^`]*)`", README.read_text())
    assert stated == [",".join(search.CSV_HEADER)]


def test_stated_tableau_cap_is_current():
    # Bisect for the largest q with tableau_bytes(q) <= MAX_TABLEAU_BYTES.
    lo, hi = 0, stabilizer.MAX_TABLEAU_BYTES
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if stabilizer.tableau_bytes(mid) <= stabilizer.MAX_TABLEAU_BYTES:
            lo = mid
        else:
            hi = mid - 1
    stated = re.findall(r"admits up to ([\d,]+) qubits", README.read_text())
    assert stated == [f"{lo:,}"]


def library_tour() -> str:
    return re.search(r"## Library tour\s+```python\n(.*?)```", README.read_text(), re.S).group(1)


def treebsm_names(source: str) -> list[str]:
    """The dotted treebsm names a source uses: its imports from treebsm
    (``treebsm.logical_bsm``) and the attributes it reads off them
    (``treebsm.run``, ``treebsm.families.default_family``)."""
    tree = ast.parse(source)
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "treebsm":
                    names.append(alias.name)
                    bound[alias.asname or "treebsm"] = alias.name if alias.asname else "treebsm"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treebsm":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names += [f"{bound[node.value.id]}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return names


def exists(name: str) -> bool:
    head, *rest = name.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, types.ModuleType):
            try:  # a submodule not imported yet
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        else:
            return False
    return True


def test_library_tour_is_parsed():
    assert {"treebsm.logical_bsm", "treebsm.run"} <= set(treebsm_names(library_tour()))


def test_benchmark_is_parsed():
    used = set(treebsm_names((ROOT / "perfbench" / "workloads.py").read_text()))
    assert {"treebsm.run", "treebsm.exhaustive_static", "treebsm.cli.main",
            "treebsm.families.default_family"} <= used


@pytest.mark.parametrize("name", ["README.md", *DEMOS, *BENCH])
def test_every_imported_name_exists(name):
    if name == "README.md":
        source = library_tour()
    else:
        source = (ROOT / (name if name in BENCH else f"demos/{name}")).read_text()
    used = treebsm_names(source)
    assert used or name in BENCH  # not every benchmark file imports treebsm
    assert [n for n in used if not exists(n)] == []


def code_references(source: str) -> set[str]:
    """Names a source refers to in code: names, attributes and imported names.

    A function's references to itself do not count, and neither do strings
    (``perfbench/spans.py`` names the functions it traces in strings).
    """
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def exported(test) -> list[str]:
    """The names ``treebsm/__init__.py`` exports whose object passes ``test``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    return sorted(n for n in names if test(getattr(treebsm, n)))


def used_outside_the_tests() -> set[str]:
    """Names referenced in code by the package (not its ``__init__``), the demos or the benchmark."""
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(code_references(path.read_text())
                         for path in sources if path != PACKAGE / "__init__.py"))


def test_every_exported_function_has_a_caller_outside_the_tests():
    functions = exported(inspect.isfunction)
    assert {"logical_bsm", "run", "verify_bell_pair"} <= set(functions)
    used = used_outside_the_tests()
    assert [name for name in functions if name not in used] == []


MEMBER_KINDS = (types.FunctionType, property, classmethod, staticmethod)


def public_members(cls: type) -> list[str]:
    """Functions, properties, classmethods and staticmethods defined in the body
    of ``cls``, without dunder or private names; fields are none of these."""
    return [name for name, value in vars(cls).items()
            if isinstance(value, MEMBER_KINDS) and not name.startswith("_")]


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    members = [f"{name}.{member}" for name in exported(inspect.isclass)
               for member in public_members(getattr(treebsm, name))]
    assert {"StabilizerTableau.measure", "BranchingVector.children",
            "ChannelParams.eps_bsm"} <= set(members)
    assert not {"BsmRates.pr_complete", "SampleConfig.seed"} & set(members)  # fields
    used = used_outside_the_tests()
    assert [m for m in members if m.rpartition(".")[2] not in used] == []


@pytest.mark.parametrize("module", ["montecarlo", "stabilizer", "genseq"])
def test_the_checking_engines_import_nothing_from_the_exact_engine(module):
    # The sampler and the verifier check the exact engine; the vocabulary
    # they share with it (Protocol, ChannelParams) lives in trees.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if name.split(".")[-1] == "analytic"]
