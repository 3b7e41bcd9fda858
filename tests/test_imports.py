"""Layout rule: no survbench module imports another module's private
(underscore) names; shared code is made public where it lives."""

import ast
import pathlib

import survbench

SRC = pathlib.Path(survbench.__file__).parent


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
