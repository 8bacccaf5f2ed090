"""Source-level guards on the package.

``python -O`` strips ``assert`` statements, so an invariant checked by one
would pass silently there instead of ending in exit code 3. scipy takes
longer to import than a short run takes to compute, so only the exact
oracles import it at module level; everything else imports it where it
computes with it. Row-major orders of sites, of a torus or of a walk's
bounding box, are computed in one module, ``kernel.py``, both ways
(``ravel_multi_index`` and ``unravel_index``): the walk reduction too
decodes its pairs' site keys through ``kernel``'s box codec. A kernel is
built from its name by one rule, ``kernel.make_kernel``. Every exact
semigroup runs through one uniformization, whose Poisson tail bound and
weights are defined in ``walks.py`` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def test_only_exact_imports_scipy_at_module_level():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in modules
             if path.name != "exact.py"
             for node in ast.parse(path.read_text(), str(path)).body
             if _imports_scipy(node)]
    assert not found, f"module-level scipy imports outside exact.py: {found}"


def test_only_kernel_computes_the_row_major_order():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{lineno}" for path in modules
             if path.name != "kernel.py"
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             if "ravel_multi_index" in line or "unravel_index" in line]
    assert not found, f"ravel_multi_index or unravel_index outside kernel.py: {found}"


def test_only_kernel_builds_kernels():
    builders = {"make_nn_kernel", "make_power_kernel", "fold_to_torus"}
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in modules
             if path.name != "kernel.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders]
    assert not found, f"kernel builders called outside kernel.py: {found}"


def test_only_walks_defines_the_poisson_weights():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    trees = {path: ast.parse(path.read_text(), str(path)) for path in modules}
    defined = [f"{path.relative_to(SRC)}:{node.lineno}" for path, tree in trees.items()
               if path.name != "walks.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in {"_poisson_tail", "_poisson_weights"}]
    assert not defined, f"Poisson tail or weights defined outside walks.py: {defined}"
    imported = [f"{path.relative_to(SRC)}:{node.lineno}" for path, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and any(alias.name.split(".")[-1] in {"gammaln", "xlogy"}
                        for alias in node.names)]
    assert not imported, f"gammaln or xlogy imported: {imported}"
