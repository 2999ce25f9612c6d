"""No package module imports another module's private (_-prefixed) names.

A private name is the owning module's to change.  The few that cross a
module boundary are listed here, so a new one is a deliberate choice.
"""

import ast
import pathlib

import casimir_lens

PACKAGE = pathlib.Path(casimir_lens.__file__).parent
# (importer, owner, name)
ALLOWED = {
    ("oscillator", "engine", "_leggauss"),
    ("oscillator", "engine", "_lifshitz"),
    ("oscillator", "specfun", "_horner"),
}


def _private_imports(path: pathlib.Path):
    """(importer, owner, name) of each private name path imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "casimir_lens":
                continue
            module = module.partition(".")[2]
        for alias in node.names:
            if alias.name.startswith("_"):
                yield path.stem, module, alias.name


def test_modules_import_no_private_name_of_another():
    found = {imp for path in sorted(PACKAGE.glob("*.py"))
             for imp in _private_imports(path)}
    assert found <= ALLOWED, sorted(found - ALLOWED)
