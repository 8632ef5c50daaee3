"""Source rules: the region geometry of a complex lives in ``geometry.py``,
and the choice of an exact minimization per cost family in ``problems.py``
and ``oracle.py``.

No other module of the package reads a complex's private ``_grid`` tuple
or attaches attributes to a complex; they ask the complex (``covers``,
``edges``, ``box``, ``refined``) instead.  No other module imports a cost
model class or tests a model's class with ``isinstance``; they call the
model's hooks (``z_opt_values``) or the oracle (``type_minima``) instead.
``oracle.py`` itself names only ``QuadraticBarycenterCost``, for its
closed-form faces; every other family states where its vertices are exact
(``affine_in_x``, ``affine_in_z``) or gives oracle terms.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "teamsolve"

# objects other than ``self`` whose attributes (and their attributes' ones)
# a module may set: none of them is a complex (the CLI's setup record,
# HiGHS's LP struct)
NOT_COMPLEXES = {("cli.py", "setup"), ("linprog.py", "lp")}


def _violations(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Attribute) and node.attr == "_grid" \
                or isinstance(node, ast.Constant) and node.value == "_grid":
            out.append(where + " reads _grid")
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            root = root.id if isinstance(root, ast.Name) else None
            direct_self = isinstance(node.value, ast.Name) and root == "self"
            if not direct_self and (path.name, root) not in NOT_COMPLEXES:
                out.append(where + " sets an attribute of %s"
                           % ast.unparse(node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr"):
            out.append(where + " calls " + node.func.id)
    return out


def test_only_geometry_touches_complex_internals():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "geometry.py")
    assert len(modules) >= 8
    found = [v for p in modules for v in _violations(p)]
    assert not found, found


def test_rule_catches_the_old_patterns(tmp_path):
    p = tmp_path / "linprog.py"       # where ``lp`` is allowed
    p.write_text("lo = z_space._grid[0]\n"
                 "g = getattr(space, '_grid', None)\n"
                 "z_space._faces = 1\n"
                 "self.complex.cache = 2\n"
                 "lp.a_matrix_.format_ = 0\n"
                 "setattr(space, 'x', 3)\n"
                 "self.ok = 4\n")
    assert len(_violations(p)) == 5


def _cost_model_classes():
    """Names of the ``CostModel`` subclasses that ``problems.py`` defines."""
    classes = [n for n in ast.walk(ast.parse((SRC / "problems.py")
                                             .read_text()))
               if isinstance(n, ast.ClassDef)]
    names = {"CostModel"}
    grown = True
    while grown:
        new = {c.name for c in classes
               if any(isinstance(b, ast.Name) and b.id in names
                      for b in c.bases)} - names
        names |= new
        grown = bool(new)
    return names - {"CostModel"}


def _cost_class_uses(path, classes):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.ImportFrom):
            out += [where + " imports " + a.name for a in node.names
                    if a.name in classes]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            out += [where + " isinstance on " + c
                    for c in sorted(named & classes)]
    return out


def test_only_problems_and_oracle_name_cost_families():
    classes = _cost_model_classes()
    assert {"BusinessLocationCost", "CappedAffineCost",
            "QuadraticBarycenterCost", "TabulatedCpwaCost"} <= classes
    modules = sorted(p for p in SRC.glob("*.py")
                     if p.name not in ("problems.py", "oracle.py"))
    assert len(modules) >= 7
    found = [v for p in modules for v in _cost_class_uses(p, classes)]
    assert not found, found


def test_cost_family_rule_catches_the_old_patterns(tmp_path):
    p = tmp_path / "equilibrium.py"
    p.write_text("from .problems import QuadraticBarycenterCost, CostModel\n"
                 "isinstance(m, (problems.TabulatedCpwaCost, FiniteSpace))\n"
                 "isinstance(m, QuadraticBarycenterCost)\n"
                 "isinstance(z_space, FiniteSpace)\n")
    assert len(_cost_class_uses(p, _cost_model_classes())) == 3


def test_oracle_names_only_the_quadratic_family():
    classes = _cost_model_classes() - {"QuadraticBarycenterCost"}
    found = _cost_class_uses(SRC / "oracle.py", classes)
    assert not found, found
