"""Package hygiene: no module imports a name it never uses, every name
the package exports exists, `import milnor` and the integer subcommands
load no numeric library and nothing in the package needs scipy."""

import argparse
import ast
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import milnor

SRC = pathlib.Path(milnor.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
TOOLS = TESTS.parent / "tools"


def unused_imports(path):
    """Names bound by import statements in the file and never loaded.
    Attribute chains count through their root name (np.sqrt uses np)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("{}:{} {}".format(path.name, line, name)
                  for name, line in imported.items() if name not in used)


def test_modules_have_no_unused_imports():
    """The package, the tests and the tools, so that no test keeps
    importing a name the package has dropped."""
    groups = [sorted(d.glob("*.py")) for d in (SRC, TESTS, TOOLS)]
    assert all(groups)
    modules = [p for group in groups for p in group]
    assert [entry for p in modules for entry in unused_imports(p)] == []


def test_exports_resolve():
    names = milnor.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(milnor, name)] == []


def test_exports_are_listed_and_star_importable():
    assert set(milnor.__all__) <= set(dir(milnor))
    namespace = {}
    exec("from milnor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(milnor.__all__)
    assert all(namespace[name] is getattr(milnor, name)
               for name in milnor.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        milnor.no_such_name


def loaded_names(tree):
    """Names read in a module, as bare names or as attributes, outside the
    top-level statement that defines them: a def, class or assignment
    does not count as a use of its own name."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = {stmt.name}
        else:
            own = {node.id for node in ast.walk(stmt)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        found |= {node.id for node in ast.walk(stmt)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)} - own
        found |= {node.attr for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute)} - own
    return found


#: Exports kept for work still to come: cor_47_families for the
#: label-driven gluing route.
UNCALLED_EXPORTS = {"cor_47_families"}


def test_every_export_has_a_reader():
    """Each public name is read somewhere in the package, named in the
    README or read by the acceptance criteria, so that a name no
    production path calls is deleted, not kept alive by its tests."""
    used = set()
    for path in sorted(SRC.glob("*.py")):
        used |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    used |= loaded_names(ast.parse(
        (TESTS / "test_acceptance.py").read_text(encoding="utf-8")))
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    unread = [name for name in milnor.__all__
              if name not in used and name not in UNCALLED_EXPORTS
              and not re.search(r"\b{}\b".format(name), readme)]
    assert unread == []


def test_no_module_imports_scipy():
    """numpy is the only numeric dependency; scipy is not imported
    anywhere in the package, not even inside a function."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["{}:{} {}".format(path.name, node.lineno, name)
                      for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def imported_modules(path, module_level=False):
    """Every module the file imports, relative ones with their dots
    (`from . import x` counts as `.x`); with module_level=True only the
    imports in the module body, not those inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in tree.body if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            found.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + node.module)
    return found


def test_bundles_imports_only_math_collections_and_errors():
    """The factorizer is deterministic (no `random`) and the integer CLI
    loads no module beyond these."""
    assert imported_modules(SRC / "bundles.py") == {
        "math", "collections", ".errors"}


def test_cli_imports_no_numeric_layer_at_module_level():
    """Every layer, integer or numeric, is imported inside the handlers
    that call it, so a subcommand loads only the layers it runs."""
    assert imported_modules(SRC / "cli.py", module_level=True) == {
        "argparse", "json", "math", "sys", ".data", ".errors"}


def test_deform_imports_fractions_only_where_it_uses_it():
    """deform reaches fractions only through errors.exact_real, so
    `import milnor.deform` does not load fractions and decimal. fractions
    is imported only inside functions, and only where numbers become
    exact: errors.exact_real, ReductiveSplit.is_abelian and the CLI's
    number parser."""
    assert "fractions" not in imported_modules(SRC / "deform.py",
                                               module_level=True)
    users = sorted(path.name for path in SRC.rglob("*.py")
                   if "fractions" in imported_modules(path))
    assert users == ["cli.py", "errors.py", "liealg.py"]
    assert not [path.name for path in SRC.rglob("*.py")
                if "fractions" in imported_modules(path, module_level=True)]


def test_no_module_imports_dataclasses():
    """The result records are named tuples: dataclasses would load
    inspect, ast, dis and tokenize into every integer CLI call."""
    found = ["{} {}".format(path.relative_to(SRC), name)
             for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(path)
             if name.split(".")[0] == "dataclasses"]
    assert found == []


#: Every result record and its fields, in order.
RECORD_FIELDS = {
    "MayerVietorisReport": ("matrix", "det", "torsion_order"),
    "CohomologyReport": ("kind", "label", "groups", "ring_note", "notes"),
    "BrieskornClass": ("n", "d", "dimension", "verdict", "exotic"),
    "InvolutionQuotientType": ("d", "diffeo_residue", "homeo_residue",
                               "exotic_candidate", "caveat"),
    "OrbitTypeSet": ("types", "orders"),
    "ScanResult": ("min_value", "u", "v", "n_planes", "n_valid", "seed"),
    "PlaneSearchResult": ("found", "value", "u", "v", "oracle_value",
                          "evaluations", "scan_min"),
    "GlueParams": ("a", "r", "plateau", "plateau_sq", "t_plateau"),
    "ClauseResult": ("name", "passed", "value", "tolerance", "detail"),
    "GluingCertificate": ("passed", "clauses"),
}


def test_the_profile_constructor_takes_its_plateau_from_the_gluing_data():
    """ProfileFunction reads t_plateau, plateau and plateau_sq from glue
    and always validates, so it takes no option for either."""
    import inspect

    params = inspect.signature(milnor.ProfileFunction).parameters
    assert tuple(params) == ("value", "derivative", "second_derivative",
                             "glue", "grid_step")


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_result_records_are_immutable_named_tuples(name):
    """Keyword construction, the Name(field=...) repr, and no assignment
    to a field or a new attribute."""
    fields = RECORD_FIELDS[name]
    record = getattr(milnor, name)(**{f: i for i, f in enumerate(fields)})
    assert record == tuple(range(len(fields)))
    assert repr(record) == "{}({})".format(
        name, ", ".join("{}={}".format(f, i) for i, f in enumerate(fields)))
    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_clause_detail_defaults_to_empty():
    assert milnor.ClauseResult("x", True, 0.0, 1e-9).detail == ""


NUMERIC_MODULES =("numpy", "scipy", "scipy.linalg", "scipy.optimize")


def run_fresh(code, flags=()):
    """Run `code` in a fresh interpreter, started with the given flags,
    that imports milnor from this checkout; return its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stderr


def numeric_modules_after(code):
    """Which of NUMERIC_MODULES a fresh interpreter left in sys.modules
    after running `code`."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in {!r}"
        " if m in sys.modules)), file=sys.stderr)".format(NUMERIC_MODULES))
    return json.loads(run_fresh(probe).splitlines()[-1])


def cli_code(*argv, code=0):
    return ("import milnor.cli\n"
            "assert milnor.cli.main({!r}) == {}".format(list(argv) + ["--json"],
                                                       code))


#: One call of every subcommand but the numeric curvature-scan and glue.
INTEGER_COMMANDS = {
    "solve": ["solve", "105"],
    "canonical": ["canonical", "105"],
    "euler": ["euler", "29", "1"],
    "classify": ["classify", "5", "-3", "1", "5"],
    "isotropy": ["isotropy", "-3", "5", "1", "5"],
    "table42": ["table42", "3", "-2"],
    "ek": ["ek", "2"],
    "diffeo": ["diffeo", "2", "58"],
    "brieskorn": ["brieskorn", "5", "3"],
    "rp5": ["rp5", "5"],
    "s7class": ["s7class", "5"],
    "cohomology": ["cohomology", "principal3", "3"],
    "repro": ["repro", "all"],
}


def test_integer_commands_cover_every_other_subcommand():
    from milnor import cli

    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert set(sub.choices) == set(INTEGER_COMMANDS) | {"curvature-scan",
                                                        "glue"}


@pytest.mark.parametrize("code", [
    "import milnor",
    "from milnor import solve_euler, eells_kuiper, orbit_types, ParameterError",
] + [cli_code(*argv) for argv in INTEGER_COMMANDS.values()],
    ids=["import", "from-import"] + ["cli-" + name for name in INTEGER_COMMANDS])
def test_integer_layer_loads_no_numeric_library(code):
    assert numeric_modules_after(code) == []


def test_integer_commands_run_where_numpy_cannot_be_imported():
    """With `import numpy` made to fail, every integer subcommand still
    exits 0."""
    run_fresh("\n".join(["import sys", "sys.modules['numpy'] = None"]
                        + [cli_code(*argv) for argv in INTEGER_COMMANDS.values()]))


#: Standard-library modules the integer path does without: dataclasses
#: loads inspect, ast, dis and tokenize, fractions loads decimal, and
#: importlib.resources loads typing, pathlib, zipfile and tempfile.
HEAVY_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "typing",
                "importlib.resources")


def test_integer_commands_run_where_heavy_stdlib_cannot_be_imported():
    """Started with -S, so that no site .pth file preloads anything, and
    with HEAVY_STDLIB made to fail on import, the integer names still
    import and every integer subcommand still exits 0."""
    run_fresh("\n".join(
        ["import sys"]
        + ["sys.modules[{!r}] = None".format(name) for name in HEAVY_STDLIB]
        + ["from milnor import solve_euler, orbit_types, diffeo_equiv"]
        + [cli_code(*argv) for argv in INTEGER_COMMANDS.values()]),
        flags=["-S"])


@pytest.mark.parametrize("code", [
    "import milnor; milnor.DeformedMetric",
    cli_code("glue", "--a", "4/3", "--r", "1", "--planes", "50"),
    cli_code("curvature-scan", "--algebra", "su2^3", "--subalgebra", "span-i",
             "--a", "3/2", "--find-negative"),
], ids=["attribute", "cli-glue", "cli-search-circle-witness"])
def test_the_numeric_layers_load_no_scipy(code):
    """The numeric layers and the numeric subcommands load numpy and no
    scipy module: neither scipy.linalg nor scipy.optimize."""
    assert numeric_modules_after(code) == ["numpy"]


def test_diagonal_witness_search_loads_no_scipy():
    """A search on the su(2)^3 diagonal, which the exact diagonal witness
    settles, runs in numpy and Fractions only."""
    code = cli_code("curvature-scan", "--algebra", "su2^3", "--subalgebra",
                    "diagonal", "--a", "21/20", "--budget", "300",
                    "--find-negative")
    assert numeric_modules_after(code) == ["numpy"]


def test_numeric_commands_run_where_scipy_cannot_be_imported():
    """With `import scipy` made to fail, the gluing certificate, a search
    that finds the diagonal's witness plane, and the oracle check all
    still run."""
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        cli_code("glue", "--a", "4/3", "--r", "1", "--planes", "200"),
        cli_code("curvature-scan", "--a", "1.05", "--budget", "2000",
                 "--find-negative"),
        "from milnor import DeformedMetric, ReductiveSplit, Su2Power",
        "metric = DeformedMetric(ReductiveSplit.diagonal(Su2Power(3)), 1.2)",
        "assert metric.oracle_agreement(samples=50, seed=3) < 1e-9",
    ])
    run_fresh(code)
