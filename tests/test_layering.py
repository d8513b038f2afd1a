"""Dependency rules between the qbloch modules, read from their source with
ast: the oracle stays independent of the machinery it checks, the verify
suites call the traced layers through their modules, the CLI leaves the
oracle to them and the dense pentagonal series to the library, and the
package imports a fixed set of standard-library modules."""

import ast
from pathlib import Path

import qbloch

SRC = Path(qbloch.__file__).parent
#: The layers a tracer wraps in place, module attribute by module attribute.
TRACED = ("cli", "series", "pentagonal", "closed_form", "fseries", "classify", "oracle")


def _package_import_nodes(module):
    """(imported qbloch module, node) for every import node of module's
    source that names the package; the module is "" for `from . import x`
    and `from qbloch import x`, whose names are themselves modules."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qbloch."):
                    yield alias.name.split(".")[1], node
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "qbloch" and not name.startswith("qbloch."):
                    continue
                name = name[len("qbloch."):] if "." in name else ""
            yield name.split(".")[0], node


def package_imports(module):
    """(imported qbloch module, form) for every import of a qbloch module in
    module's source; form is "module" for `from . import x`, `import
    qbloch.x` and `from qbloch import x`, and "names" for `from .x import y`."""
    found = []
    for name, node in _package_import_nodes(module):
        if isinstance(node, ast.Import):
            found.append((name, "module"))
        elif name:
            found.append((name, "names"))
        else:
            found += [(alias.name, "module") for alias in node.names]
    return found


def imported_names(module):
    """Every name module's from-imports of the package bind, whether the
    name is a module (`from . import x`) or one of its attributes."""
    return {alias.name for _name, node in _package_import_nodes(module)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_package_imports_reads_every_form():
    assert ("fseries", "module") in package_imports("verify")
    assert ("errors", "names") in package_imports("verify")
    assert ("verify", "names") in package_imports("cli")
    assert {"SUITES", "pochhammer", "UsageError"} <= imported_names("cli")
    assert "fseries" in imported_names("verify")


def test_oracle_imports_only_errors():
    assert {name for name, _form in package_imports("oracle")} == {"errors"}


def test_verify_reaches_traced_layers_only_through_modules():
    from_imports = [name for name, form in package_imports("verify")
                    if form == "names" and name in TRACED]
    assert from_imports == []


def test_cli_does_not_import_the_oracle():
    assert "oracle" not in {name for name, _form in package_imports("cli")}


def test_cli_reaches_the_pentagonal_series_only_through_its_terms():
    # (q;q)_inf is printed from its O(sqrt N) terms; the dense series, which
    # costs O(N) memory, stays out of the CLI
    assert "pnt_series" not in imported_names("cli")
    assert ("pentagonal", "module") not in package_imports("cli")


def _functions_where(module, match):
    """The functions (methods included) of module with a node in their body
    for which match is true."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(match(sub) for sub in ast.walk(node))}


def functions_naming(module, name):
    """The functions of module whose body reads the bare name."""
    return _functions_where(
        module, lambda sub: isinstance(sub, ast.Name) and sub.id == name)


def functions_reading_attribute(module, attr):
    """The functions of module whose body reads attr off some object
    (x.attr), as the suites call fseries.F_direct through its module."""
    return _functions_where(
        module, lambda sub: isinstance(sub, ast.Attribute) and sub.attr == attr)


def test_only_the_identities_suite_reads_the_reference_sum():
    # every other suite builds its series with a builder; F_direct appears
    # only where a check compares a builder with it
    assert functions_reading_attribute("verify", "F_direct") == {"_suite_identities"}


def test_fseries_places_pentagonal_terms_in_one_loop():
    # every shifted +-factor copy of a pentagonal term, the bare tail
    # included, goes through _backsolved
    assert functions_naming("fseries", "pnt_terms") == {"_backsolved"}


def test_one_pentagonal_locator_takes_the_square_root():
    # pentagonal_index, both block locators and F_backsolve's slice count
    # place x among the pentagonal exponents through _pentagonal_floor
    named = {(path.stem, function) for path in SRC.glob("*.py")
             for function in functions_naming(path.stem, "isqrt")}
    assert named == {("pentagonal", "_pentagonal_floor")}


def test_two_loops_call_the_in_place_binomial():
    # series._carried_products carries a product of binomials, for
    # pochhammer and F_backsolve's sum route; fseries._nested_sum, the
    # reference sum in Horner form, multiplies regions of one list
    named = {(path.stem, function) for path in SRC.glob("*.py")
             for function in functions_naming(path.stem, "_mul_one_minus")}
    assert named == {("series", "_carried_products"), ("fseries", "_nested_sum")}


def test_the_reference_sum_shares_no_loop_with_the_route():
    # only F_backsolve's sum route reads the carried products, so F_direct
    # checks that route along an independent path
    assert functions_naming("fseries", "_carried_products") == {"_partial_sums"}


def test_one_reader_takes_coefficients_from_the_tails():
    # the S sweep's ladder and the window suite read (q;q)_m one coefficient
    # at a time; nothing sums whole windows of the tails
    assert functions_naming("classify", "_tail_coeff") == {"_s_witness", "window_sweep"}
    assert not any("_tail_coeffs" in path.read_text(encoding="utf-8")
                   for path in SRC.glob("*.py"))


#: Every module outside the package that src/qbloch imports.  A cold start,
#: `import qbloch.cli` plus build_parser(), pays for each of them, so a new
#: one is a deliberate edit here.
STDLIB = {"__future__", "argparse", "contextlib", "dataclasses", "itertools", "json",
          "math", "operator", "os", "re", "shutil", "sys"}


def outside_imports():
    """The top-level names of every absolute import in src/qbloch that is
    not the package itself, function-level imports included."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - {"qbloch"}


def test_the_package_imports_a_fixed_set_of_stdlib_modules():
    assert outside_imports() == STDLIB
