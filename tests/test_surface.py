"""The package holds what its commands run.

Every public module-level function or class of ``src/mesostefan`` must be
referenced somewhere in the package outside its own definition: a name that
only tests reach is surface to delete, or to give a caller.  The exceptions
check claims of the paper that no command reports.  Likewise every field of
the run configuration must be set by a shipped config or by a command's
flags: a setting that nothing sets is a constant.  And a result or a
diagnostic holds one source of each input: beta and j its macroscopic
solution, eps its grid.  Only ``stefan`` reads where a branch ends.
"""

import ast
import glob
import inspect
import os
from dataclasses import fields

from mesostefan import antisym, asym
from mesostefan.config import RunConfig

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, "..", "src", "mesostefan")
CONFIGS = os.path.join(HERE, "..", "scripts", "configs")

#: test-only names, each with the acceptance criterion it backs
PAPER_CHECKS = {
    "antisym.flux_defect": 2,                # mesoscopic Fourier law
    "spectral.eigenvector_shape_report": 6,  # eigenvector ~ interface slope
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
    ``cli._config_from_args`` (the flags of solve, every mode's) sets."""
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


#: names under which a result or a diagnostic would hold a second copy of
#: what its macroscopic solution (beta, j) or its state (kernel, grid and
#: eps) already holds
COPIES = {"eps", "j", "params", "beta", "kernel"}


def test_results_and_diagnostics_hold_no_copy_of_their_inputs():
    """No field of a result type and no parameter of a diagnostic takes a
    name of COPIES: each reads beta and j from the macroscopic solution and
    eps from the grid, so a state cannot be paired with another current.
    The one exception is the seed's kernel, which neither the solution nor
    the grid holds: build_seed makes the first state."""
    stored = [f"{cls.__name__}.{f.name}"
              for cls in (antisym.AntisymResult, asym.OffCenterProblem,
                          asym.OffCenterResult)
              for f in fields(cls) if f.name in COPIES]
    taken = [f"{fn.__name__}({name})"
             for fn in (antisym.current_integral, antisym.t_map,
                        antisym.build_seed, antisym.fixed_point_defect,
                        antisym.flux_defect, antisym.hydrodynamic_error,
                        asym.projected_field, asym.admissibility_report)
             for name in inspect.signature(fn).parameters if name in COPIES]
    assert stored == []
    assert taken == ["build_seed(kernel)"]


#: the names under which a maximal solution gives where its branch ends
BRANCH_END = {"end", "ell_j", "ell_break"}


def branch_end_readers() -> list:
    """Top-level statements outside ``stefan`` that read a branch's end.
    An InfeasibleError caught by name may be read: it reports the end that
    ``stefan`` raised it with."""
    readers = []
    for module, node, _ in _statements():
        caught = {n.name for n in ast.walk(node)
                  if isinstance(n, ast.ExceptHandler) and n.name}
        if module != "stefan" and any(
                isinstance(n, ast.Attribute) and n.attr in BRANCH_END
                and isinstance(n.ctx, ast.Load)
                and getattr(n.value, "id", None) not in caught
                for n in ast.walk(node)):
            readers.append(f"{module}.{getattr(node, 'name', node.lineno)}")
    return readers


def test_only_stefan_decides_where_a_branch_ends():
    """The maximal solution's ``reach`` is the one feasibility rule: no
    other module compares with, or copies, a branch's end."""
    assert branch_end_readers() == []
