import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pushgraph

# the package re-exports the function push, which shadows the submodule name
coloring = importlib.import_module("pushgraph.coloring")
hom = importlib.import_module("pushgraph.hom")
push = importlib.import_module("pushgraph.push")
search = importlib.import_module("pushgraph.search")
PACKAGE = Path(pushgraph.__file__).parent
BENCH_TRACING = PACKAGE.parents[1] / "bench" / "tracing.py"


def _relative_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_no_function_level_imports():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{path.name}:{node.name} imports inside a function"


def test_module_import_graph_is_acyclic():
    graph = {
        path.stem: set(_relative_imports(ast.parse(path.read_text())))
        for path in PACKAGE.glob("*.py")
    }
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        for dep in graph.get(module, ()):
            visit(dep, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def test_one_push_witness_type_and_fold():
    assert hom.PushHomWitness is push.PushHomWitness
    assert hom.fold_to_push_witness is push.fold_to_push_witness


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _called_names(func) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_one_class_augmentation():
    for module, name in (("hom", "enumerate_tournaments"), ("verify", "enumerate_oriented_graphs")):
        called = _called_names(_function(module, name))
        assert "_augment" in called and "canonical_code" not in called, f"{module}.{name}"


def test_one_push_presentation_walk():
    for module, name in (("push", "push_orbit"), ("hom", "brute_force_push_hom")):
        func = _function(module, name)
        shifted_ranges = [
            node
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.LShift) for b in ast.walk(node))
        ]
        assert not shifted_ranges, f"{module}.{name} walks push vectors itself"
        assert "_presentations" in _called_names(func), f"{module}.{name}"


def test_one_check_record():
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert "CheckRecord" in classes and "_Verdict" not in classes


def _module_level_imports(tree):
    """Each name a module-level import binds, also inside a module-level try."""
    for node in tree.body:
        block = [node]
        if isinstance(node, ast.Try):
            block = node.body + node.orelse + node.finalbody
            block += [stmt for handler in node.handlers for stmt in handler.body]
        for stmt in block:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    yield alias.asname or alias.name.split(".")[0]


def test_every_module_level_import_is_used():
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(set(_module_level_imports(tree)) - used)
        assert not unused, f"{path.name} imports {unused} and never uses them"


def test_extension_names_no_config_kind_member():
    # every configuration is extended through the same table lookup, and every
    # table is built by the same _SHAPES-driven step
    members = set(coloring.ConfigKind.__members__)
    for name in ("_extend", "build_extension_tables"):
        func = _function("coloring", name)
        named = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
        assert not named & members, f"coloring.{name} names {sorted(named & members)}"


def test_search_contract_lives_in_one_leaf_module():
    tree = ast.parse((PACKAGE / "search.py").read_text())
    assert set(_relative_imports(tree)) == {"graph"}
    contract = {"SearchBudget", "_Tracker", "InconclusiveSearch", "_SearchStatus", "require_complete"}
    defined: dict[str, list[str]] = {name: [] for name in contract}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in contract:
                defined[node.name].append(path.stem)
    assert defined == {name: ["search"] for name in contract}
    assert pushgraph.SearchBudget is hom.SearchBudget is search.SearchBudget
    assert pushgraph.InconclusiveSearch is coloring.InconclusiveSearch is search.InconclusiveSearch


def test_bench_tracer_layers_resolve(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.items():
        program = importlib.import_module(f"pushgraph.{module}")
        missing = [name for name in names if not hasattr(program, name)]
        assert not missing, f"pushgraph.{module} lacks {missing}"


def _calls_itself(func) -> bool:
    """A call by bare name, or through self, to the function's own name."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == func.name:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == func.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
        ):
            return True
    return False


def _self_calling_functions() -> set[str]:
    found: set[str] = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_recursion_only_where_its_depth_is_bounded():
    assert _self_calling_functions() == {
        # one level per tournament order, k <= 7
        "hom.enumerate_tournaments",
        # one level per placed vertex, n <= CANONICAL_SIZE_LIMIT
        "isomorphism._code.dfs",
        # one level per row of the 9-vertex tournament, depth 9
        "verify.nine_tournament_constraint_search.place_row",
        # one level per order below n; callers fill its cache bottom-up
        "verify.enumerate_oriented_graphs",
    }


def test_isomorphism_search_picks_its_own_coloring():
    # the push flag fixes the invariant coloring, so it is not a second argument
    args = _function("isomorphism", "_find_isomorphism").args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["g", "h", "push"]


def test_one_reduction_vs_brute_comparison():
    def calls_brute_force(func):
        # a call by bare name or through the hom module
        names = (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
        )
        return "brute_force_push_hom" in names

    tree = ast.parse((PACKAGE / "verify.py").read_text())
    callers = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and calls_brute_force(node)
    ]
    assert len(callers) == 1, f"verify.py compares reduction and brute force in {callers}"


def test_push_orbit_leaves_the_size_limit_to_canonical_code():
    func = _function("push", "push_orbit")
    named = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    assert "CANONICAL_SIZE_LIMIT" not in named


def test_each_gadget_property_is_checked_once_by_its_verify_check():
    # the constructors return their arcs; gadgets-p3 and girth8-lower check them
    for name in ("b0", "paley_plus", "y_gadget", "girth8_witness"):
        raises = [n for n in ast.walk(_function("families", name)) if isinstance(n, ast.Raise)]
        assert not raises, f"families.{name} checks its own properties"
    # zielonka/half-rebuild checks the half, so it is not split_graph's output
    assert "split_graph" not in _called_names(_function("families", "zielonka_half"))
    # cannot_identify is the same test on a non-adjacent pair
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "in_common_uc4" not in defined, path.name


def test_each_answer_is_checked_where_it_is_returned():
    # a chromatic order is certified by the walk's verified hit, not by a
    # quotient of the colouring the search found
    tree = ast.parse((PACKAGE / "hom.py").read_text())
    for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        assert "identify_vertices" not in _called_names(func), f"hom.{func.name}"
    # a push search is checked once, by the fold, not by find_hom as well
    assert "find_hom" not in _called_names(_function("hom", "find_push_hom"))
    # the underlying refinement is a test oracle, not a package function
    tree = ast.parse((PACKAGE / "isomorphism.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_underlying_colors" not in defined
    # no verdict quotients a graph by a vertex partition
    tree = ast.parse((PACKAGE / "graph.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "identify_vertices" not in defined


def test_one_rule_each_for_pushing_certifying_a_walk_hit_and_refusing():
    # the reversal of pushed arcs is written once, in _pushed_arcs
    for name in ("push", "_maps_pushed_arcs"):
        func = _function("push", name)
        assert "_pushed_arcs" in _called_names(func), f"push.{name}"
        reversals = [
            n for n in ast.walk(func)
            if isinstance(n, (ast.IfExp, ast.GeneratorExp, ast.ListComp, ast.SetComp))
        ]
        assert not reversals, f"push.{name} reverses arcs itself"
    # the fold certifies every tournament-walk hit, oriented or push
    called = _called_names(_function("hom", "_chromatic"))
    assert "fold_to_push_witness" in called and "find_hom" not in called
    # a graph the outerplanar colourer cannot colour is outside its family
    raised = {
        n.exc.func.id
        for n in ast.walk(_function("coloring", "color_outerplanar_g5"))
        if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
    }
    assert raised == {"GraphError", "InconclusiveSearch"}


def _functions(tree):
    """(qualified name, node) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_each_exception_maps_to_its_outcome_in_one_place():
    # VerdictReport.check turns these exceptions into check outcomes and
    # cli.main into exit codes; the two instance checks catch a
    # counterexample themselves only to name the instance that failed
    mapped = {"InconclusiveSearch", "GraphError", "FormatError", "CounterexampleFound"}
    handlers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, func in _functions(ast.parse(path.read_text())):
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught = {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node.type)
                        if isinstance(n, (ast.Name, ast.Attribute))
                    }
                    if caught & mapped:
                        handlers.append(f"{path.stem}.{name}")
    assert sorted(handlers) == [
        *["cli.main"] * 4,
        *["verify.VerdictReport.check"] * 3,
        "verify.suite_girth8_upper",
        "verify.suite_outerplanar5",
    ]
