"""Guard against test-only code growing back into the package.

Every module-level function and class in src/thermolb must be used by the
package itself: some module other than __init__.py refers to it, by name
or as an attribute, outside its own definition.  A reference formula that
only the tests compare against belongs in tests/oracles.py.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thermolb"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# reached only from bench/, which must keep finding them by these names
BENCHMARK_ONLY = {
    "eval_at": "bench/spans.py counts its calls (ratpoly.eval_at_calls)",
    "discrete_moment": "bench/spans.py times it and bench/workloads.py calls it",
    "gaussian_moment": "bench/workloads.py imports it from the top level",
}


def _unreferenced() -> list[str]:
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
        if path.name == "__init__.py":  # re-exports are not uses
            continue
        for stmt in tree.body:
            refs = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            refs |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            refs.discard(getattr(stmt, "name", None))  # a recursive call is not a use
            used |= refs
    return sorted(defined - used)


def test_every_module_level_definition_is_used_inside_the_package():
    unreferenced = _unreferenced()
    # main() dispatches to cmd_<subcommand> through globals()
    unused = [name for name in unreferenced
              if not name.startswith("cmd_") and name not in BENCHMARK_ONLY]
    assert unused == [], f"defined in src/ but used only outside it: {unused}"
    stale = sorted(set(BENCHMARK_ONLY) - set(unreferenced))
    assert stale == [], f"no longer benchmark-only, drop from the allowlist: {stale}"
