"""The package holds what its commands run.

Every public module-level function or class of ``src/mesostefan`` must be
referenced somewhere in the package outside its own definition: a name that
only tests reach is surface to delete, or to give a caller.  The exceptions
check claims of the paper that no command reports.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "mesostefan")

#: test-only names, each with the acceptance criterion it backs
PAPER_CHECKS = {
    "antisym.flux_defect": 2,                # mesoscopic Fourier law
    "spectral.eigenvector_shape_report": 6,  # eigenvector ~ interface slope
    "instanton.apply_transfer": 12,          # unit eigenvalue of the slope
}


def _statements():
    """(module, top-level statement, names and attribute names used in it)
    for every module but ``__init__``."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read())
            for node in tree.body:
                used = {n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}
                yield name[:-3], node, used


def unreferenced() -> list:
    """Public module-level functions and classes used nowhere in the
    package outside their own definition."""
    statements = list(_statements())
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        if not any(node.name in used
                   for _, other, used in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    unused = [name for name in unreferenced() if name not in PAPER_CHECKS]
    assert unused == []


def test_paper_checks_are_test_only():
    """The listed exceptions are still defined and still without a caller,
    so the list cannot outlive its reason."""
    assert sorted(PAPER_CHECKS) == sorted(
        name for name in unreferenced() if name in PAPER_CHECKS)
