"""Checks on the library source itself."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cohomrep"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_bare_assert(path):
    # `python -O` strips assert statements, so library and script checks must
    # raise or exit explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


def test_usage_exit_only_at_the_cli_boundary():
    # a malformed input is a ValueError wherever it is found; only main maps
    # it to exit 64, and Parser.error does the same for argparse's own errors
    tree = ast.parse((SRC / "cli.py").read_text())
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and child.id == "EXIT_USAGE" and isinstance(child.ctx, ast.Load):
                sites.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    assert sites == {"main", "Parser.error"}
    names = {getattr(node, "id", getattr(node, "name", None)) for node in ast.walk(tree)}
    assert "UsageError" not in names


def test_box_and_nesting_rule_lives_in_one_function():
    # "lam and mu fit the p x q box, lam inside mu" is decided by
    # partitions.boxed alone; every other entry point calls it
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                        and ("does not fit in" in child.value or "is not contained in" in child.value)):
                    sites.add(f"{path.stem}.{'.'.join(scope)}")
                visit(child, inner)

        visit(ast.parse(path.read_text(), filename=str(path)), ())
    assert sites == {"partitions.boxed"}
    cli = ast.parse((SRC / "cli.py").read_text())
    assert "boxed" not in {node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}


def test_checked_partitions_are_made_only_in_partitions():
    # as_partition trusts a partitions._Checked tuple after one type test, so
    # only partitions.py names the type: no other layer can mark an unchecked
    # tuple as checked.  It makes one where it built or validated a partition
    named, made = set(), set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if "_Checked" in (getattr(child, "id", None), getattr(child, "attr", None)):
                    named.add(path.stem)
                if isinstance(child, ast.Call) and "_Checked" in (getattr(child.func, "id", None),
                                                                  getattr(child.func, "attr", None)):
                    made.add(f"{path.stem}.{'.'.join(scope)}")
                visit(child, inner)

        visit(ast.parse(path.read_text(), filename=str(path)), ())
    assert named == {"partitions"}
    assert made == {"partitions.as_partition", "partitions._CheckedTable.__missing__",
                    "partitions.enumerate_orthogonal"}


def _reached(tree, roots):
    """(functions, names): the module-level functions of tree that roots reach
    through one another, and every name those functions reference."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref:
                names.add(ref)
                if ref in defs:
                    todo.append(ref)
    return seen, names


def test_gl_character_oracle_shares_no_code_with_the_fast_route():
    # the GL-character oracle checks restrict_U_pair only while it reaches
    # none of the predicate's combinatorics: follow every branching-level
    # function the oracle names and collect what each one references
    tree = ast.parse((SRC / "branching.py").read_text())
    seen, names = _reached(tree, ["gl_character", "gl_decompose", "gl_branching_mult",
                                  "restrict_U_pair_oracle_mult"])
    assert {"_gl_weights", "_kostka_numbers", "_orbit", "_gl_pair_hw", "_checked_weights",
            "_restricted_decomposition"} <= seen
    banned = {"inscribes", "_inscribes", "subtract_rows", "_subtract_rows", "_skew_decompose",
              "skew_decompose", "rootdata", "rd", "ktype_weight_U", "_ktype_weight_U",
              "restrict_U_pair"}
    assert not names & banned, sorted(names & banned)
    imported = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert "rootdata" not in imported


def _imported_roots(node):
    """Top-level package names an import statement loads, else an empty set."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_serialize_loads_no_cohomrep_module():
    # rendering a catalog must not load the verdict engine: serialize imports
    # the records it annotates only for type checkers
    tree = ast.parse((SRC / "serialize.py").read_text())
    guarded = {id(node) for block in ast.walk(tree)
               if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
               for stmt in block.body for node in ast.walk(stmt)}
    ours = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and (getattr(node, "level", 0) or "cohomrep" in _imported_roots(node))]
    assert ours
    assert all(id(node) in guarded for node in ours), [node.lineno for node in ours if id(node) not in guarded]


def _run_on_import(node):
    """The nodes under node that run when its module is imported: none inside
    a function, a lambda or an ``if TYPE_CHECKING:`` block."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
            yield from (n for stmt in child.orelse for n in [stmt, *_run_on_import(stmt)])
            continue
        yield child
        yield from _run_on_import(child)


def test_cold_imports_skip_dataclasses_and_load_numpy_only_with_geometry():
    # what a module imports outside its functions, every command that loads
    # it pays for: dataclasses pulls in inspect, ast, dis and tokenize, and
    # numpy belongs to the geometry commands that compute with it
    numpy_at_top = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            assert "dataclasses" not in _imported_roots(node), f"{path.name}:{node.lineno}"
        if any("numpy" in _imported_roots(node) for node in _run_on_import(tree)):
            numpy_at_top.add(path.name)
    assert numpy_at_top == {"geometry.py"}


def test_lefschetz_loads_branching_only_for_component_restrictions():
    # degree, tensor and modular-symbol verdicts never read the branching
    # predicates, so lefschetz imports them inside the function that does
    tree = ast.parse((SRC / "lefschetz.py").read_text())

    def names_branching(node):
        if isinstance(node, ast.ImportFrom):
            return "branching" in (node.module or "").split(".") or "branching" in {a.name for a in node.names}
        return isinstance(node, ast.Import) and any("branching" in a.name.split(".") for a in node.names)

    assert not [node.lineno for node in _run_on_import(tree) if names_branching(node)]
    inside = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if names_branching(node)}
    assert inside == {"restriction_verdict"}


@pytest.mark.parametrize("name", ["cli.py", "serialize.py", "rootdata.py"])
def test_cold_modules_defer_json_csv_io_and_fractions(name):
    # every command loads cli and serialize, and every catalog rootdata:
    # json, csv and io serve only the csv and md renderers, Fraction only
    # the Dirac bound, so each is imported inside the function that uses it
    tree = ast.parse((SRC / name).read_text(), filename=name)
    at_top = {root for node in _run_on_import(tree) for root in _imported_roots(node)}
    assert not at_top & {"json", "csv", "io", "fractions"}, sorted(at_top & {"json", "csv", "io", "fractions"})


def test_compatibility_scan_stays_independent_of_the_level_word_oracle():
    # the tests check the row-run scan, the witness and the torus chain
    # against the level word, so the word lives in the test oracle alone:
    # no library module defines or names it
    tree = ast.parse((SRC / "partitions.py").read_text())
    seen, _ = _reached(tree, ["compatible_pair", "_skew_decompose", "ortho_classify"])
    assert {"boxed", "_skew_decompose", "_runs", "_orthogonal"} <= seen
    word = {"_level_word", "level_word", "_pair_of_word", "pair_of_word"}
    found = {f"{path.name}:{getattr(node, 'name', None) or getattr(node, 'id', None) or node.attr}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if (isinstance(node, ast.FunctionDef) and node.name in word)
             or (isinstance(node, ast.Name) and node.id in word)
             or (isinstance(node, ast.Attribute) and node.attr in word)
             or (isinstance(node, ast.alias) and node.name in word)}
    assert not found, sorted(found)


def test_row_runs_are_read_in_one_walk():
    # compatibility, the orthogonal classifier, the witness and the torus
    # chain all read a pair's levels off partitions._runs, so each calls it;
    # grouping rows with groupby is the test oracle runs_by_groupby, which
    # stays independent of the walk it checks, so no library module names it
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.Name) and node.id == "groupby")
                    or (isinstance(node, ast.Attribute) and node.attr == "groupby")
                    or (isinstance(node, ast.alias) and node.name == "groupby")):
                named.add(f"{path.name}:{node.lineno}")
    assert not named, sorted(named)
    readers = {("partitions", "_skew_decompose"), ("partitions", "build_witness_X"), ("isolation", "_torus_chain")}
    calling = set()
    for module, name in readers:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
        if any(isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_runs"
               for node in ast.walk(fn)):
            calling.add((module, name))
    assert calling == readers, sorted(readers - calling)


def _imported_modules(tree):
    """Every module an import statement anywhere in tree names, relative
    ones with their dots: ``from . import rootdata`` gives ".rootdata"."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found |= {base + alias.name for alias in node.names} if node.module is None else {base}
    return found


#: what each catalog-path module imports, at the top, under TYPE_CHECKING or
#: inside a function
CATALOG_PATH_IMPORTS = {
    "partitions": {"__future__", "operator", "typing"},
    "vz_catalog": {"__future__", "functools", "typing", ".partitions", ".rootdata"},
    "isolation": {"__future__", "typing", ".partitions"},
    "serialize": {"__future__", "itertools", "_json", "operator", "typing", "json",
                  ".lefschetz", ".rootdata", ".vz_catalog"},
}


@pytest.mark.parametrize("name", sorted(CATALOG_PATH_IMPORTS))
def test_catalog_path_imports_no_new_module(name):
    # every catalog-sweep pass compiles these modules from source and loads
    # what they import, which setup time and peak RSS pay for: a walk or a
    # key that needs another module (bisect, collections) has to earn it
    tree = ast.parse((SRC / f"{name}.py").read_text(), filename=name)
    extra = _imported_modules(tree) - CATALOG_PATH_IMPORTS[name]
    assert not extra, sorted(extra)


def test_o_ktype_oracle_uses_only_the_weight_record_of_rootdata():
    # ktype_box_sum_O checks rootdata.ktype_weight_O only while it builds the
    # eigenbases and the sum itself: it may take the Weight record, nothing else
    oracle = ast.parse((ROOT / "tests" / "_catalog_reference.py").read_text())
    seen, names = _reached(oracle, ["ktype_box_sum_O"])
    assert {"_basis_weights_p", "_dual_basis_weights_q"} <= seen
    from_rootdata = {alias.name for node in ast.walk(oracle) if isinstance(node, ast.ImportFrom)
                     and node.module in ("cohomrep.rootdata", "rootdata") for alias in node.names}
    assert from_rootdata == {"Weight"}
    rootdata = ast.parse((SRC / "rootdata.py").read_text())
    routines = {node.name for node in rootdata.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    banned = (routines - {"Weight"}) | {"rootdata", "rd"}
    assert not names & banned, sorted(names & banned)


def test_o_catalog_path_builds_no_conjugate_and_no_eigenbasis():
    # an orthogonal partition is classified, catalogued and tested for
    # isolation from its rows, its column lengths and its row runs: follow
    # every function the four entry points reach across the modules they use
    modules = ("partitions", "rootdata", "vz_catalog", "isolation")
    bodies = [ast.parse((SRC / f"{name}.py").read_text()).body for name in modules]
    defs = [node.name for body in bodies for node in body if isinstance(node, ast.FunctionDef)]
    assert len(defs) == len(set(defs)), "a name defined in two modules would hide one of them"
    merged = ast.Module(body=[node for body in bodies for node in body], type_ignores=[])
    seen, names = _reached(merged, ["enumerate_orthogonal", "ortho_classify", "modules_from_orth",
                                    "is_isolated_O"])
    assert {"_even_type", "_ktype_O", "_sign_variant", "_columns", "_torus_chain"} <= seen
    banned = {"_conjugate", "conjugate", "_eps_weights", "_gamma_star_weights"}
    assert not names & banned, sorted(names & banned)
    # the chain comes out in order: no sort, no clamp per level, and no
    # complement built, since it reads the complement's rows as q - lam_{p+1-i}
    (chain,) = [node for node in merged.body if getattr(node, "name", None) == "_torus_chain"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(chain) if isinstance(node, ast.Call)}
    banned = {"sort", "sorted", "min", "max", "_complement", "complement"}
    assert not called & banned, sorted(called & banned)
    # the classifier walks (lam, q - lam_{p+1-i}) too, and the walk tests nesting
    (classify,) = [node for node in merged.body if getattr(node, "name", None) == "ortho_classify"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(classify) if isinstance(node, ast.Call)}
    banned = {"_complement", "complement", "_contains", "contains"}
    assert not called & banned, sorted(called & banned)


def test_o_label_marks_come_from_one_table():
    # a label is two memo lookups and one table lookup, with no dict built per call
    tree = ast.parse((SRC / "vz_catalog.py").read_text())
    (label,) = [node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "VZModule"
                for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "label"]
    assert not [node for node in ast.walk(label) if isinstance(node, (ast.Dict, ast.DictComp))]
    assert "_O_MARKS" in {node.id for node in ast.walk(label) if isinstance(node, ast.Name)}


def test_catalog_report_reads_each_modules_pair():
    # a module carries the pair it was built from, so the report classifies nothing again
    tree = ast.parse((ROOT / "scripts" / "catalog_report.py").read_text())
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    banned = {"compatible_pair", "ortho_classify", "BoxContext"}
    assert not called & banned, sorted(called & banned)
    assert "pair" in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _references(node):
    """Every name node reads, and each attribute it reads as both "attr" and
    ".attr": a module's function is reached either way, a method only by
    attribute."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs |= {n.attr, "." + n.attr}
    return refs


def test_every_public_function_is_reached():
    # the library holds what a command, a script, a workload or an
    # acceptance test runs: start from their names and from what each
    # library module runs on import, follow every module-level function and
    # class those names reach, and find every public function left over, with
    # no exceptions.  A public method or property of a class is reached by
    # an attribute of its name (x.dim, not a local dim), the rest of the
    # class with the class
    roots = [SRC / "cli.py", SRC / "__main__.py", *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    todo = [name for path in roots for name in _references(ast.parse(path.read_text(), filename=str(path)))]
    defs, public = {}, {}  # public: label -> the name that reaches it
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                members = [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                for m in members:
                    defs.setdefault("." + m.name, []).append(m)
                    public[f"{node.name}.{m.name}"] = "." + m.name
                defs.setdefault(node.name, []).extend(
                    [*node.bases, *node.keywords, *node.decorator_list, *(m for m in node.body if m not in members)])
            else:
                todo += _references(node)
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [ref for node in defs.get(name, ()) for ref in _references(node)]
    orphans = {label for label, name in public.items() if name not in seen}
    assert not orphans, sorted(orphans)


def test_serialize_rows_copy_no_tuples():
    # a catalog row holds the record's own tuples, which every writer prints
    # as arrays; a list() copy per tuple would only add collector work
    tree = ast.parse((SRC / "serialize.py").read_text())
    builders = {"module_to_json", "weight_to_json", "_component_json"}
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in builders}
    assert set(found) == builders
    calls = {name for name, fn in found.items() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "list"}
    assert not calls, f"list() in {sorted(calls)}"
