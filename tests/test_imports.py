"""Layout rules: the package imports only NumPy and the standard library;
no survbench module imports another module's private (underscore) names,
so shared code is made public where it lives. Only bench.py creates
files, so every artifact is written one way."""

import ast
import pathlib
import sys

import survbench

SRC = pathlib.Path(survbench.__file__).parent


def imported_packages(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_only_numpy_and_the_standard_library():
    # a dependency installed on one machine but not declared in
    # pyproject.toml would pass here and fail on a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "survbench"}
    offenders = {
        path.name: sorted(extra)
        for path in sorted(SRC.glob("*.py"))
        if (extra := imported_packages(path) - allowed)
    }
    assert offenders == {}


def private_imports(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "survbench"
        ):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_private_names():
    offenders = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := private_imports(path))
    }
    assert offenders == {}


# calls that create or replace files, as (module, function)
FILE_WRITERS = {("csv", "writer"), ("tempfile", "mkstemp"), ("os", "replace"), ("os", "open")}
OPENERS = {(None, "open"), ("os", "fdopen")}


def file_writes(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            call = (f.value.id, f.attr)
        elif isinstance(f, ast.Name):
            call = (None, f.id)
        else:
            continue
        if call in OPENERS:
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            # a mode that is not a literal might write
            writes = not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax"))
        else:
            writes = call in FILE_WRITERS
        if writes:
            found.append((node.lineno, ".".join(filter(None, call))))
    return found


def test_only_bench_creates_files():
    offenders = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "bench.py" and (hits := file_writes(path))
    }
    assert offenders == {}
