"""Dependency rules between the qbloch modules, read from their source with
ast: the oracle stays independent of the machinery it checks, the verify
suites call the traced layers through their modules, the CLI leaves the
oracle to them and the dense pentagonal series to the library, the
package imports a fixed set of standard-library modules, a cold start
loads none of the costly ones, and every function has a caller, an export
or a named user outside the package."""

import ast
import subprocess
import sys
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


def test_the_backsolved_loop_takes_only_a_low_cut_and_a_factor():
    # the head ends the terms through its own order, so no caller needs an
    # upper cut: the signature is (k, N, lo=0, factor=None) and nothing more
    tree = ast.parse((SRC / "fseries.py").read_text(encoding="utf-8"))
    [node] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_backsolved"]
    args = node.args
    assert [arg.arg for arg in args.posonlyargs + args.args] == ["k", "N", "lo", "factor"]
    assert [ast.literal_eval(default) for default in args.defaults] == [0, None]
    assert not (args.vararg or args.kwonlyargs or args.kwarg)


def test_one_builder_makes_the_split_head():
    # F_backsolve's slice route, the reconstructed tail, the bare tail and
    # the head, which tail_split and correction both read, are the only
    # callers of the backsolved loop
    assert functions_naming("fseries", "_backsolved") == {
        "F_backsolve", "reconstruct", "pentagonal_tail", "_split_head"}
    assert functions_naming("fseries", "_split_head") == {"tail_split", "correction"}


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
#: one is a deliberate edit here.  collections costs nothing extra: re loads
#: it through functools, and cli and argparse both import re.  json is
#: imported only where --format json renders its output.
STDLIB = {"__future__", "argparse", "collections", "contextlib", "itertools", "json",
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


#: Modules a cold start must not load: dataclasses and the modules it pulls
#: in (inspect, ast, dis, tokenize), typing, and json, which only a
#: --format json run needs.
COLD_START_EXCLUDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "json"}

COLD_START = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = set(sys.modules)\n"
    "import qbloch.cli\n"
    "qbloch.cli.build_parser()\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_a_cold_start_loads_none_of_the_costly_modules():
    # compared before and after, so a module the interpreter's site set-up
    # preloads is not counted against the package
    proc = subprocess.run([sys.executable, "-I", "-c", COLD_START, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "qbloch.cli" in loaded
    assert loaded & COLD_START_EXCLUDED == set()


#: Every function of src/qbloch that nothing there reads and the package does
#: not export, with the test outside src that keeps it.  An entry that gains
#: a caller in src, or whose function is gone, fails the check below.
EXTERNAL_USERS = {
    "oracle.signed_distinct_sum":
        "tests/test_acceptance.py::test_09_enumeration_equivalence_and_tail_splits",
    "oracle.eden_signed_sum":
        "tests/test_acceptance.py::test_09_enumeration_equivalence_and_tail_splits",
    "oracle.signed_distinct_table":
        "tests/test_acceptance.py::test_09_enumeration_equivalence_and_tail_splits",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unpinned(sources, exported):
    """The keys module.name of the top-level functions and classes of the
    modules in sources (name -> text), and module.Class.method of their
    methods other than dunders, that no module reads outside their own
    body, as a bare name or an attribute, and that are not in exported or
    methods of a class that is."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    found = set()
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, FUNCTIONS + (ast.ClassDef,)):
                continue
            members = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                members += [(f"{top.name}.{sub.name}", sub) for sub in top.body
                            if isinstance(sub, FUNCTIONS)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))]
            for key, node in members:
                inside = {id(sub) for sub in ast.walk(node)}
                if top.name not in exported and all(
                        id(read) in inside for read in reads.get(node.name, ())):
                    found.add(f"{module}.{key}")
    return found


def test_every_function_has_a_caller_an_export_or_a_named_user():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unpinned(sources, set(qbloch.__all__)) == set(EXTERNAL_USERS)
    root = Path(__file__).parent.parent
    for user in EXTERNAL_USERS.values():
        path, test = user.split("::")
        assert f"\ndef {test}(" in (root / path).read_text(encoding="utf-8"), user


def test_the_caller_rule_reads_names_attributes_and_exports():
    sources = {
        "a": "def used(): pass\n"
               "def recursive(n): return recursive(n - 1)\n"
               "class Box:\n"
               "    def __len__(self): return 0\n"
               "    def read(self): return self.peek()\n"
               "    def peek(self): return 0\n"
               "class Shown:\n"
               "    def alone(self): pass\n",
        "b": "from .a import used\nvalue = used()\n",
    }
    assert unpinned(sources, {"Shown"}) == {"a.recursive", "a.Box", "a.Box.read"}
