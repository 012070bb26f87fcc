"""The package holds what its commands run.

Every public module-level function or class of ``src/mesostefan`` must be
referenced somewhere in the package outside its own definition: a name that
only tests reach is surface to delete, or to give a caller.  The exceptions
check claims of the paper that no command reports.  Likewise every field of
the run configuration must be set by a shipped config or by a command's
flags: a setting that nothing sets is a constant.
"""

import ast
import glob
import os
from dataclasses import fields

from mesostefan.config import RunConfig

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src", "mesostefan")
CONFIGS = os.path.join(HERE, "..", "scripts", "configs")

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


def unset_config_fields() -> list:
    """RunConfig fields that neither a ``scripts/configs/*.txt`` file nor
    ``cli._config_from_args`` (the flags of solve and solve-asym) sets."""
    keys = set()
    for path in glob.glob(os.path.join(CONFIGS, "*.txt")):
        with open(path) as fh:
            keys |= {line.split("#", 1)[0].partition("=")[0].strip()
                     for line in fh}
    with open(os.path.join(SRC, "cli.py")) as fh:
        tree = ast.parse(fh.read())
    from_args, = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_config_from_args"]
    keys |= {kw.arg for node in ast.walk(from_args)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "RunConfig"
             for kw in node.keywords}
    return [f.name for f in fields(RunConfig) if f.name not in keys]


def test_every_config_field_is_set_somewhere():
    assert unset_config_fields() == []
