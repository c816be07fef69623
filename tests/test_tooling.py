"""Checks on the code base itself: the benchmark's trace targets still exist,
the package carries no unused imports, no unreferenced functions, no
function that only the tests call outside the paper-content API, no
top-level function name defined in two modules, and no static
constructor unreferenced through its class, one gate picks the int64
engine, each verify function makes one linear engine call and one other,
zero tests are truthiness tests, no matrix is a hand-filled grid, no
sparse matrix has its rows sorted, only linalg imports scipy.sparse,
numpy and scipy load only when
that engine runs, the table builders merged across engines keep one
path, the file emitter reads table arrays only, and the docs name only
attributes that exist."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfrob"


def _load_bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve():
    """bench/spans.py wraps functions by module and name; a renamed target
    would break the traced benchmark run."""
    spans = _load_bench_spans()
    targets = [(mod, attr) for mod, attr, _ in spans.SPANNED + spans.COUNTED]
    assert targets
    missing = []
    for modname, attr in targets:
        owner = importlib.import_module(f"hopfrob.{modname}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # methods are wrapped through the class __dict__, as spans.install does
        found = vars(owner).get(name) if owner is not None else None
        if not callable(found):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"trace targets not found in hopfrob: {missing}"


def _names_in_annotation(node) -> set:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    unused = [msg for path in sorted(PACKAGE.glob("*.py")) for msg in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _referenced_names(path: Path) -> set:
    """Every name a module mentions: as a name, an attribute, an import, or a
    string of dotted identifiers (bench/spans.py names its targets so)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


# Paper content that no path of src/hopfrob calls, kept as API for the
# acceptance gates and the tests: the Frobenius-system transforms, the
# separability decisions, the Hopf-module decomposition, the embeddings of
# the double's factors, the opposite algebra, the group tables, and the
# field samples of the randomized gates.
PAPER_API = {
    "algebra.is_commutative",
    "algebra.opposite",
    "catalog.d4_table",
    "catalog.q8_table",
    "double.embed_algebra",
    "double.embed_dual",
    "frobenius.compare_systems",
    "frobenius.transform_by_antipode",
    "frobenius.translate_system",
    "hopfcore.hopf_module_decompose",
    "scalars.nonzero_elements_sample",
    "separability.idempotent_exists_by_solve",
    "separability.separability_from_system",
}


def test_package_has_no_unreferenced_functions():
    """Every function and method defined in src/hopfrob is referenced from
    src/, tests/ or bench/: a helper that nothing calls is deleted.  And
    each is referenced from src/hopfrob, wrapped in bench/spans.py, or paper
    content on PAPER_API: a function that only the tests call, restating a
    primitive they could call instead, is deleted too.  Dunders are called
    by the language."""
    used = set().union(*map(_referenced_names, [*PACKAGE.glob("*.py"), ROOT / "bench" / "spans.py"]))
    others = [*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    referenced = used.union(*map(_referenced_names, others))
    dead, test_only = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not (dunder or node.name in referenced):
                dead.append(f"{path.name}:{node.lineno}: {node.name}")
            elif not (dunder or node.name in used):
                test_only.add(f"{path.stem}.{node.name}")
    assert not dead, "functions nothing references:\n" + "\n".join(dead)
    # PAPER_API names neither a function the package now calls nor one gone
    assert test_only == PAPER_API, f"only the tests call, or no longer: {sorted(test_only ^ PAPER_API)}"


def test_module_level_function_names_are_unique():
    """No two modules of src/hopfrob define a top-level function of one
    name: the reference checks above match bare names, so either of two
    namesakes would pass on the other's callers."""
    owners: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.setdefault(node.name, []).append(path.stem)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not shared, f"top-level functions defined in more than one module: {shared}"


def _class_references(path: Path) -> set:
    """(owner, name) for each attribute read Owner.name of a module, where
    cls.name and self.name inside a class body read as that class's."""
    refs = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = node.value.id
            refs.add((cls if owner in ("cls", "self") else owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return refs


def test_static_constructors_are_referenced_through_their_class():
    """Every @staticmethod and @classmethod of src/hopfrob is referenced from
    src/, tests/ or bench/ as Owner.name, or as cls.name or self.name inside
    its class: a method whose name another method shares is no alibi."""
    files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    referenced = set().union(*map(_class_references, files))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                static = isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(d) in ("staticmethod", "classmethod") for d in node.decorator_list
                )
                if static and (cls.name, node.name) not in referenced:
                    dead.append(f"{path.name}:{node.lineno}: {cls.name}.{node.name}")
    assert not dead, "static constructors nothing references through their class:\n" + "\n".join(dead)


def _scopes(path: Path, match) -> list:
    """Qualified scope of each node of a module for which match(node) holds."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if match(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _field_tests(path: Path, cls: str) -> list:
    """Qualified scope of each isinstance(..., cls) call in a module."""
    return _scopes(
        path,
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and cls in ast.unparse(node.args[1]),
    )


def _names(name: str):
    """A match for each mention of name: as a name, an attribute or an import."""
    return lambda node: (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def test_engine_is_chosen_in_one_place():
    """linalg.machine_prime alone decides, from the field alone, whether a
    prime field runs on the int64 engine, and linalg.engine_primes, built
    on it, alone whether QQ does; apart from each field's own equality
    nothing else asks.  Outside linalg only algebra.first_failure asks
    engine_primes, hopfcore does not read a field's characteristic, and no
    module imports either gate by name, so patching linalg.machine_prime
    (the generic_engine fixture) moves every engine choice.  The two
    engines of the linear Hopf axioms are named only as arguments of one
    first_failure call in verify_hopf, so no hand-written engine branch
    picks between them."""
    from hopfrob import linalg

    found = {
        cls: sorted(s for path in PACKAGE.glob("*.py") for s in _field_tests(path, cls))
        for cls in ("PrimeField", "RationalField")
    }
    assert found == {
        "PrimeField": ["linalg.machine_prime", "scalars.PrimeField.__eq__"],
        "RationalField": ["linalg.engine_primes", "scalars.RationalField.__eq__"],
    }
    assert list(inspect.signature(linalg.machine_prime).parameters) == ["field"]
    askers = [
        s
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "linalg"
        for s in _scopes(path, _names("engine_primes"))
    ]
    assert askers == ["algebra.first_failure"]
    assert _scopes(PACKAGE / "hopfcore.py", _names("characteristic")) == []
    imported = [
        s
        for path in sorted(PACKAGE.glob("*.py"))
        for s in _scopes(
            path,
            lambda node: isinstance(node, ast.alias)
            and node.name in ("machine_prime", "engine_primes"),
        )
    ]
    assert imported == []
    # both engines are mentioned twice in all, and both as arguments of the
    # one first_failure call in verify_hopf that names them
    linear = {"_linear_failures", "_linear_failures_loops"}
    mentions = [s for path in PACKAGE.glob("*.py") for name in linear for s in _scopes(path, _names(name))]
    assert mentions == ["hopfcore.verify_hopf"] * 2
    tree = ast.parse((PACKAGE / "hopfcore.py").read_text(encoding="utf-8"))
    (verify_hopf,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "verify_hopf"]
    arguments = [
        {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)} & linear
        for node in ast.walk(verify_hopf)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "first_failure"
    ]
    assert [names for names in arguments if names] == [linear]


def _first_failure_arguments(path: Path, function: str) -> set:
    """The names mentioned inside the arguments of the first_failure calls
    of one function of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {
        n.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "first_failure"
        for arg in node.args
        for n in ast.walk(arg)
        if isinstance(n, ast.Name)
    }


def _first_failure_call(linear: bool):
    """A match for each first_failure call that passes linear=True, or for
    each that does not."""
    return lambda node: (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "first_failure"
        and any(k.arg == "linear" and ast.unparse(k.value) == "True" for k in node.keywords)
        == linear
    )


def test_each_verify_makes_one_linear_and_one_other_engine_call():
    """The engine calls of the package: verify_algebra makes the unit law's
    (in unit_failure, linear) and associativity's; verify_hopf makes the
    one of the five identities linear in the tables, Delta(1) = 1 (x) 1
    among them, and Delta multiplicative's; and multiplicative_failure
    ("phi is an algebra map") makes one, not linear.  No separate path for
    the unit's coproduct is left."""
    modules = sorted(PACKAGE.glob("*.py"))
    linear = [s for path in modules for s in _scopes(path, _first_failure_call(True))]
    other = [s for path in modules for s in _scopes(path, _first_failure_call(False))]
    assert linear == ["algebra.unit_failure", "hopfcore.verify_hopf"]
    assert other == [
        "algebra.verify_algebra",
        "algebra.multiplicative_failure",
        "hopfcore.verify_hopf",
    ]
    defined = [
        node.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    assert not [name for name in defined if name.startswith("_unit_coproduct_failure")]


def test_one_quadratic_axiom_path():
    """verify_hopf takes the Hopf algebra and a title, no strategy: the
    quadratic axioms always run through the product cover.  Their kernels
    are named only as arguments of the first_failure calls in verify_algebra
    (associativity) and verify_hopf (Delta multiplicative), so no second
    path reaches them."""
    from hopfrob.hopfcore import verify_hopf

    assert list(inspect.signature(verify_hopf).parameters) == ["H", "title"]
    for name, scope in (
        ("_associativity_failure", "algebra.verify_algebra"),
        ("_delta_failure", "hopfcore.verify_hopf"),
    ):
        assert [s for path in PACKAGE.glob("*.py") for s in _scopes(path, _names(name))] == [scope]
        module, function = scope.split(".")
        assert name in _first_failure_arguments(PACKAGE / f"{module}.py", function)


def _is_zero_call(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zero"
    )


def _zero_names(fn) -> set:
    """The names a function (with its nested ones) binds to a .zero() call,
    alone or in a tuple assignment such as z, o = f.zero(), f.one()."""
    names = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            else:
                pairs = [(target, node.value)]
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_zero_call(v)}
    return names


def _zero_comparisons(path: Path) -> list:
    """Each == or != in the module with an operand that is a .zero() call
    or a name its function binds to one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        zeros = _zero_names(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_zero_call(x) or (isinstance(x, ast.Name) and x.id in zeros) for x in operands):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_zero_tests_are_truthiness():
    """Both scalar types define bool(x) as "x is nonzero" (scalars.Field),
    so the package tests zeros with `if x`, never by comparing with a
    field's zero, which costs a Fraction.__eq__ per test over QQ."""
    found = [s for path in sorted(PACKAGE.glob("*.py")) for s in _zero_comparisons(path)]
    assert found == []


def test_zero_comparison_scan_finds_each_form(tmp_path):
    """The scan above sees a comparison with a .zero() call, with a name
    bound to one alone or in a tuple, in a nested function, and ignores a
    truthiness test and a comparison with the integer 0."""
    src = (
        "def f(field, x, v):\n"
        "    z, o = field.zero(), field.one()\n"
        "    zero = field.zero()\n"
        "    a = x != field.zero()\n"
        "    b = x == z\n"
        "    c = [y for y in v if zero != y]\n"
        "    def g(w):\n"
        "        return w == z\n"
        "    return bool(x), x == 0, x == o\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert _zero_comparisons(path) == [f"probe.py:{line}" for line in (4, 5, 6, 8)]


def _grid_fills(path: Path) -> list:
    """Each list comprehension of the module whose element is a list
    repeated by *, the hand-filled grid [[zero] * n for _ in range(m)]."""

    def repeated_list(node) -> bool:
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and (isinstance(node.left, ast.List) or isinstance(node.right, ast.List))
        )

    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ListComp) and repeated_list(node.elt)
    ]


def test_matrices_are_not_hand_filled_grids():
    """Every matrix read off a table goes through Matrix.from_entries, which
    sums, normalizes each named cell once and shares the zero rows, so no
    module of src/hopfrob fills a list-of-lists grid by hand."""
    found = [s for path in sorted(PACKAGE.glob("*.py")) for s in _grid_fills(path)]
    assert found == []


def test_grid_fill_scan_finds_each_form(tmp_path):
    """The scan above sees a repeated list on either side of *, with any
    element and loop, nested in a function, and ignores a list of empty
    lists, a single repeated list and a comprehension of products."""
    src = (
        "def f(field, m, n, v):\n"
        "    a = [[field.zero()] * n for _ in range(m)]\n"
        "    b = [n * [0] for i in v]\n"
        "    def g():\n"
        "        return [[0, 1] * n for _ in range(m)]\n"
        "    c = [[] for _ in range(n)]\n"
        "    d = [[0] * n]\n"
        "    e = [x * 2 for x in v]\n"
        "    return a, b, c, d, e\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert _grid_fills(path) == [f"probe.py:{line}" for line in (2, 3, 5)]


def _scipy_sparse_imports(path: Path) -> list:
    """Each place a module imports scipy.sparse or anything in it, in any
    form (import scipy.sparse, as an alias or with a submodule, from
    scipy.sparse or a submodule import a name, from scipy import sparse),
    or reaches it as the attribute chain scipy.sparse."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        if any(n == "scipy.sparse" or n.startswith("scipy.sparse.") for n in names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(set(found))]


def test_only_linalg_imports_scipy_sparse():
    """No module of src/hopfrob but linalg imports scipy.sparse, and linalg
    imports it in one place: every sparse operand is linalg's CSR triple,
    multiplied by scipy's compiled routines behind linalg.mulmod."""
    found = [s for path in sorted(PACKAGE.glob("*.py")) for s in _scipy_sparse_imports(path)]
    assert len(found) == 1 and found[0].startswith("linalg.py:")


def test_scipy_sparse_import_scan_finds_each_form(tmp_path):
    """The scan above sees scipy.sparse imported plain, under an alias,
    with a submodule, by name from it or a submodule, as the name sparse
    from scipy, and as the chain scipy.sparse, nested in a function, and
    ignores other scipy modules and relative imports."""
    src = (
        "import scipy.sparse\n"
        "import scipy.sparse as sp\n"
        "import scipy.sparse._sparsetools\n"
        "def f():\n"
        "    from scipy.sparse import csr_matrix\n"
        "    from scipy.sparse._sparsetools import csr_matmat\n"
        "    from scipy import sparse\n"
        "    return scipy.sparse.csr_matrix\n"
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from . import sparse\n"
        "import numpy as sparse_np\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert _scipy_sparse_imports(path) == [f"probe.py:{line}" for line in (1, 2, 3, 5, 6, 7, 8)]


def _solves(path: Path) -> list:
    """Each .solve, .solve_matrix or .rank of a module, called or not: an
    elimination besides the one inverse of each Gram matrix."""
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("solve", "solve_matrix", "rank")
    ]
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_frobenius_layer_eliminates_each_gram_matrix_once():
    """build_integral_data inverts the Gram matrix G once; N = G^-1 eps, the
    Nakayama matrix (G^-1)^T G and the derivative of two systems, read off
    the dual bases, are products, so frobenius.py solves no system and
    takes no rank."""
    assert _solves(PACKAGE / "frobenius.py") == []


def test_solve_scan_finds_each_form(tmp_path):
    """The scan above sees .solve, .solve_matrix and .rank on any
    expression, called or only named, nested in a function, and ignores
    .inverse(), a bare solve(...) and names that only start alike."""
    src = (
        "def f(M, v):\n"
        "    x = M.solve(v)\n"
        "    y = M.transpose().solve_matrix(M)\n"
        "    def g():\n"
        "        return M.rank()\n"
        "    h = M.solve\n"
        "    i = M.inverse()\n"
        "    j = solve(M, v)\n"
        "    k = M.ranked, M.solved()\n"
        "    return x, y, h, i, j, k\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert _solves(path) == [f"probe.py:{line}" for line in (2, 3, 5, 6)]


def _engine_branches(path: Path, function=None) -> list:
    """Each `is None` / `is not None` test and each dict display (literal
    or comprehension) of a module, or of one of its top-level functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if function is not None:
        (tree,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for node in ast.walk(tree):
        none_test = isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) and ast.unparse(x) == "None"
            for op, x in zip(node.ops, node.comparators)
        )
        if none_test:
            found.append((node.lineno, "None test"))
        if isinstance(node, (ast.Dict, ast.DictComp)):
            found.append((node.lineno, "dict display"))
    return [f"{path.name}:{line}: {kind}" for line, kind in sorted(found)]


def test_table_builders_keep_one_path():
    """Every table of D(H), the integral operator and the module transport
    of subext are each one numpy routine on the table arrays of both
    engines, which differ there only in the dtype of the values.  So no
    engine branch can come back unnoticed: double.py tests nothing against
    None (the engine gate's answer on the Python-scalar engine), and no
    function of it displays a dict, the form of the per-engine builders
    they replaced, nor do integral_operator, subext._translates and
    hopfcore.dual_hopf test against None or display a dict.  dual_hopf, H's
    table arrays relabelled, has no loop over table rows either: no for
    statement, no comprehension over a table or its items, and no call of
    a cleaning constructor (from_sparse, _clean_row).  The exceptions are
    the independent replay of the straightening through honest products
    (_straighten_direct) and its comparison with the arrays
    (_check_straightening), which keep their dicts on purpose."""
    replay = ("_straighten_direct", "_check_straightening")
    tree = ast.parse((PACKAGE / "double.py").read_text(encoding="utf-8"))
    functions = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert set(replay) <= set(functions)
    found = [f for f in _engine_branches(PACKAGE / "double.py") if f.endswith("None test")]
    for name in functions:
        if name not in replay:
            found += _engine_branches(PACKAGE / "double.py", name)
    found += _engine_branches(PACKAGE / "hopfcore.py", "integral_operator")
    found += _engine_branches(PACKAGE / "subext.py", "_translates")
    found += _engine_branches(PACKAGE / "hopfcore.py", "dual_hopf")
    assert found == []
    tree = ast.parse((PACKAGE / "hopfcore.py").read_text(encoding="utf-8"))
    (dual,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "dual_hopf"]
    for node in ast.walk(dual):
        assert not isinstance(node, (ast.For, ast.While)), node.lineno
        if isinstance(node, ast.comprehension):
            assert not re.search(r"\b(mul|comul|items|values)\b", ast.unparse(node.iter)), node
        if isinstance(node, ast.Call):
            assert ast.unparse(node.func).split(".")[-1] not in ("from_sparse", "_clean_row")


def test_engine_branch_scan_finds_each_form(tmp_path):
    """The scan above sees both None tests, a dict literal, an empty dict
    and a dict comprehension, and ignores an `is` test against another name
    and a dict() call."""
    src = (
        "def f(p, q, v):\n"
        "    a = p is None\n"
        "    b = 1 if q is not None else 2\n"
        "    c = {(0, 1): p}\n"
        "    d = {}\n"
        "    e = {k: k for k in v}\n"
        "    return p is q, dict(v)\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src, encoding="utf-8")
    assert [s.split(": ", 1)[0] for s in _engine_branches(path, "f")] == [
        f"probe.py:{line}" for line in (2, 3, 4, 5, 6)
    ]


def test_no_sparse_rows_are_sorted():
    """The two sides of an identity are compared as sorted int64 keys
    (algebra.entry_keys, whose fallback sorts by cell with argsort), so no
    module of src/hopfrob sorts the rows of a sparse matrix: neither
    sort_indices nor sorted_indices appears there."""
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bsort(ed)?_indices\b", line)
    ]
    assert found == []


def test_cli_import_loads_neither_numpy_nor_scipy():
    """The int64 engine imports numpy and scipy inside the functions that use
    them, so a run that never reaches it does not pay for their import."""
    code = "import sys, hopfrob.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# a dotted chain of identifiers, and a private name (underscore and two or
# more characters) not followed by a dot, a call or more of a word
DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)")
PRIVATE = re.compile(r"(?<![\w.])(_[A-Za-z]\w+)(?![\w.(])")
# a reference whose last part is one of these is a file name, not an attribute
FILE_SUFFIXES = {"txt", "hopf", "mat", "mod", "json", "md", "py"}


def _resolves(owner, parts) -> bool:
    """Whether owner.parts[0].parts[1]... exists; a dataclass field counts."""
    for part in parts:
        if hasattr(owner, part):
            owner = getattr(owner, part)
        elif dataclasses.is_dataclass(owner):
            return part in {f.name for f in dataclasses.fields(owner)}
        else:
            return False
    return True


def _stale_references(text: str, home=None) -> list:
    """The references of text that name nothing: module.name chains over
    hopfrob's modules and, when the text is the module home's own, Class.name
    chains over its classes and bare private names, which must be home's or
    one of its classes' attributes."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    stale = []
    for m in DOTTED.finditer(text):
        first, parts = m.group(1), m.group(2)[1:].split(".")
        if parts[-1] in FILE_SUFFIXES:
            continue
        if first in modules:
            owner = importlib.import_module(f"hopfrob.{first}")
        elif home is not None and isinstance(getattr(home, first, None), type):
            owner = getattr(home, first)
        else:
            continue
        if not _resolves(owner, parts):
            stale.append(m.group(0))
    if home is not None:
        classes = [c for c in vars(home).values() if isinstance(c, type)]
        for m in PRIVATE.finditer(text):
            name = m.group(1)
            if not (hasattr(home, name) or any(hasattr(c, name) for c in classes)):
                stale.append(name)
    return stale


def _docs_and_comments(path: Path):
    """Each docstring (module, class, function) and comment of a module."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def test_docs_name_only_what_exists():
    """Every module.name (or Class.name) reference in the docstrings and
    comments of src/hopfrob and in README.md, and every private name a
    module's own docstrings and comments mention, names an attribute that
    exists, and so does every module.name reference in the docstrings and
    comments of the tests, so a deleted or renamed helper leaves no prose
    behind."""
    stale = [
        f"{path.name}: {ref}"
        for path in sorted(PACKAGE.glob("*.py"))
        for text in _docs_and_comments(path)
        for ref in _stale_references(text, importlib.import_module(f"hopfrob.{path.stem}"))
    ]
    stale += [f"README.md: {ref}" for ref in _stale_references((ROOT / "README.md").read_text())]
    stale += [
        f"{path.name}: {ref}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for text in _docs_and_comments(path)
        for ref in _stale_references(text)
    ]
    assert stale == []


def test_stale_reference_scan_finds_each_form():
    """The scan above flags a missing module attribute, a missing class
    attribute and a missing private name of the module whose text it is,
    and passes file names, dataclass fields, math subscripts and names of
    other objects (np.int64, self.rows)."""
    from hopfrob import hopfcore, linalg

    text = (
        "linalg._no_such_helper, Matrix.no_such_method and _no_such_constant; "
        "linalg.Matrix.from_entries, _BLOCK_BYTES, --report report.txt, "
        "np.int64, self.rows, e_m, (x)_K and Matrix.field"
    )
    assert _stale_references(text, linalg) == [
        "linalg._no_such_helper",
        "Matrix.no_such_method",
        "_no_such_constant",
    ]
    assert _stale_references("frobenius.IntegralData.gram, linalg.mulmod", hopfcore) == []
    # a removed method, named from another module's prose
    assert _stale_references("hopfcore.HopfAlgebra.comul_row") == ["hopfcore.HopfAlgebra.comul_row"]


def test_emit_reads_only_table_arrays():
    """emit_hopf_text and its renderer read H's tables only as table arrays
    (structure_arrays, comul_arrays, the antipode's nonzero_entries): no
    tuple row of mul or comul (their .items(), .values(), .get(), the
    comul_row helper it replaced, or the tables themselves) and no dense
    grid of the antipode (.rows)."""
    tree = ast.parse((PACKAGE / "hopffile.py").read_text(encoding="utf-8"))
    emit = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ("emit_hopf_text", "_render")]
    reads = {n.attr for fn in emit for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert len(emit) == 2
    assert reads & {"rows", "comul_row", "items", "values", "get", "mul", "comul"} == set()
