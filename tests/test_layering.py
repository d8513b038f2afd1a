"""Dependency rules between the qbloch modules, read from their source with
ast: the oracle stays independent of the machinery it checks, the verify
suites call the traced layers through their modules, and the CLI leaves the
oracle to them."""

import ast
from pathlib import Path

import qbloch

SRC = Path(qbloch.__file__).parent
#: The layers a tracer wraps in place, module attribute by module attribute.
TRACED = ("cli", "series", "pentagonal", "closed_form", "fseries", "classify", "oracle")


def package_imports(module):
    """(imported qbloch module, form) for every import of a qbloch module in
    module's source; form is "module" for `from . import x`, `import
    qbloch.x` and `from qbloch import x`, and "names" for `from .x import y`."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], "module") for alias in node.names
                      if alias.name.startswith("qbloch.")]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "qbloch" and not name.startswith("qbloch."):
                    continue
                name = name[len("qbloch."):] if "." in name else ""
            if name:
                found.append((name.split(".")[0], "names"))
            else:
                found += [(alias.name, "module") for alias in node.names]
    return found


def test_package_imports_reads_every_form():
    assert ("fseries", "module") in package_imports("verify")
    assert ("errors", "names") in package_imports("verify")
    assert ("verify", "names") in package_imports("cli")


def test_oracle_imports_only_errors():
    assert {name for name, _form in package_imports("oracle")} == {"errors"}


def test_verify_reaches_traced_layers_only_through_modules():
    from_imports = [name for name, form in package_imports("verify")
                    if form == "names" and name in TRACED]
    assert from_imports == []


def test_cli_does_not_import_the_oracle():
    assert "oracle" not in {name for name, _form in package_imports("cli")}
