"""Source rules: the region geometry of a complex lives in ``geometry.py``.

No other module of the package reads a complex's private ``_grid`` tuple
or attaches attributes to a complex; they ask the complex (``covers``,
``edges``, ``box``, ``refined``) instead.
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
