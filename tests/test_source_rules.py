"""Source rules: the region geometry of a complex lives in ``geometry.py``,
and the choice of an exact minimization per cost family in ``problems.py``.

No other module of the package reads a complex's private ``_grid`` tuple or
attaches attributes to a complex; they ask the complex (``covers``,
``faces``, ``box``, ``refined``) instead.  No method of the complex calls
numpy's linear algebra: a Kuhn simplex's quantities come from its axis
steps.  No other module, ``oracle.py`` included, imports a cost model class
or tests a model's class with ``isinstance``; they call the model's hooks
(``z_opt_values``, ``face_minima``, ``oracle_terms``), read where its
vertices are exact (``affine_in_x``, ``affine_in_z``) or call the oracle
(``type_minima``) instead.  The barycenter family's closed-form face minima
take their frames from a complex's ``faces``.  The oracle has one
arrangement enumerator: a separable side takes its candidates from
``_pair_vertices``, and ``oracle.py`` imports no ``EdgeFrame``.
``oracle.py`` imports neither ``linprog`` nor scipy, so the oracle's
certified lower bound rests on no solver's tolerances.  ``oracle.py`` calls
no ``id``: its caches are keyed by content, so that equal geometry in new
objects shares an entry and a freed object's address reused by another
cannot match a stale one.

The HiGHS binding lives in ``linprog.py``: no other module reads a model's
``highs`` attribute, calls HiGHS's row or column methods or imports
scipy's ``_highspy``, so the cutting plane adds and deletes rows only
through ``LpProblem.add_rows`` and ``LpProblem.delete_rows``.  No module,
``linprog.py`` included, names ``passModel`` or ``HighsLp``: every model is
built one way, by ``addCols`` and ``addRows``.

No module imports ``scipy.sparse`` or ``scipy.optimize``, not even inside
a function: ``linprog.py`` loads the HiGHS binding alone and the package
builds its LP matrices with numpy, so ``import teamsolve`` pays for
neither package, and no solve pays for it later.

Threads live in ``equilibrium.py``, where ``z_opt`` spreads its chunks:
no other module imports ``threading`` or ``concurrent.futures``.  No
module reads the environment except ``cli.py``, for ``TEAMSOLVE_LOG``:
the package has no knob outside its options and config keys.

Every module-level function and class of the package has a caller in
``src/``, ``perfbench/`` or ``demos/``, an export from ``__init__``
included: no helper that only the tests use lives in the package.  Every
parameter with a default, a dataclass field's included, is set by some
caller there too, and some caller there relies on its default: no option
that only the tests set, and no default that every caller overrides.
Every parameter is read by its function's body: none is accepted and then
ignored.

Every ranking ranks by value, ties in index order: each ``argsort`` passes
``kind="stable"``, as numpy's default kernel, which numpy picks for the
CPU, breaks ties its own way.  ``partition`` and ``argpartition`` appear
only in ``oracle._lowest``, which returns a stable sort's first k.

Every module-level import of a test module is read by it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "teamsolve"

# objects other than ``self`` whose attributes (and their attributes' ones)
# a module may set: none of them is a complex (the CLI's setup record)
NOT_COMPLEXES = {("cli.py", "setup")}


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
    p = tmp_path / "linprog.py"
    p.write_text("lo = z_space._grid[0]\n"
                 "g = getattr(space, '_grid', None)\n"
                 "z_space._faces = 1\n"
                 "self.complex.cache = 2\n"
                 "lp.a_matrix_.format_ = 0\n"
                 "setattr(space, 'x', 3)\n"
                 "self.ok = 4\n")
    assert len(_violations(p)) == 6


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


def test_only_problems_names_cost_families():
    classes = _cost_model_classes()
    assert {"BusinessLocationCost", "CappedAffineCost",
            "QuadraticBarycenterCost", "TabulatedCpwaCost"} <= classes
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "problems.py")
    assert len(modules) >= 8
    found = [v for p in modules for v in _cost_class_uses(p, classes)]
    assert not found, found


def test_cost_family_rule_catches_the_old_patterns(tmp_path):
    p = tmp_path / "equilibrium.py"
    p.write_text("from .problems import QuadraticBarycenterCost, CostModel\n"
                 "isinstance(m, (problems.TabulatedCpwaCost, FiniteSpace))\n"
                 "isinstance(m, QuadraticBarycenterCost)\n"
                 "isinstance(z_space, FiniteSpace)\n")
    assert len(_cost_class_uses(p, _cost_model_classes())) == 3
    # the oracle's former generator choice
    p = tmp_path / "oracle.py"
    p.write_text("from .problems import (QuadraticBarycenterCost,\n"
                 "                       SeparableL1Term)\n"
                 "isinstance(model, QuadraticBarycenterCost)\n"
                 "isinstance(term, SeparableL1Term)\n"
                 "model.face_minima is not None\n")
    assert len(_cost_class_uses(p, _cost_model_classes())) == 2


def _solver_imports(path):
    """Imports of the package's ``linprog`` or of anything from scipy."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Import):
            out += [where + " imports " + a.name for a in node.names
                    if a.name.split(".")[0] == "scipy"
                    or "linprog" in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if parts[0] == "scipy" or "linprog" in parts \
                    or any(a.name == "linprog" for a in node.names):
                out.append(where + " imports from "
                           + "." * node.level + (node.module or ""))
    return out


def test_oracle_imports_no_lp_solver():
    found = _solver_imports(SRC / "oracle.py")
    assert not found, found
    assert _solver_imports(SRC / "transport.py")


def test_solver_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "oracle.py"
    p.write_text("from . import linprog\n"
                 "from .linprog import solve_min\n"
                 "from scipy import sparse\n"
                 "import scipy.optimize as so\n"
                 "import teamsolve.linprog\n"
                 "from .geometry import point_keys\n"
                 "import numpy as np\n")
    assert len(_solver_imports(p)) == 5


def _id_calls(path):
    """Where a module calls ``id``, as a cache key by identity would."""
    return ["%s:%d calls id" % (path.name, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "id"]


def test_oracle_keys_no_cache_by_identity():
    found = _id_calls(SRC / "oracle.py")
    assert not found, found


def test_identity_rule_catches_the_old_key(tmp_path):
    p = tmp_path / "oracle.py"
    p.write_text("def _anchor_key(side, anchor, space):\n"
                 "    return (side, None if anchor is None\n"
                 "            else point_key(anchor), id(space))\n"
                 "ident = identity(space)\n")
    assert _id_calls(p) == ["oracle.py:3 calls id"]


def _functions(path):
    """A module's function definitions by name, methods as
    ``Class.method``."""
    out = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update(("%s.%s" % (node.name, f.name), f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def _attrs(nodes):
    return {n.attr for f in nodes for n in ast.walk(f)
            if isinstance(n, ast.Attribute)}


def test_oracle_reads_faces_not_cell_inverses():
    # the barycenter faces come from ``faces``: in the frame builder and in
    # the family's face minima, which the oracle calls; its quality
    # selector reads the box
    geometry, problems = _functions(SRC / "geometry.py"), \
        _functions(SRC / "problems.py")
    frames = [geometry[name] for name in (
        "face_frames", "SimplicialComplex.face_frames")]
    minima, selector = (problems["QuadraticBarycenterCost." + name]
                        for name in ("face_minima", "z_opt_values"))
    assert "faces" in _attrs(frames)
    assert "face_frames" in _attrs([minima])
    assert "box" in _attrs([selector])


def _imported_names(path):
    """The names a module imports."""
    return {(a.asname or a.name).split(".")[0]
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names}


def test_oracle_has_one_arrangement_enumerator():
    # a separable side takes its candidates from ``_pair_vertices`` as a
    # coupled term does, so the oracle needs no edge crossings
    assert "EdgeFrame" not in _imported_names(SRC / "oracle.py")
    side = _functions(SRC / "oracle.py")["_side_candidates"]
    assert "_pair_vertices" in {n.id for n in ast.walk(side)
                                if isinstance(n, ast.Name)}


def _linalg_calls(fns):
    """Where the given functions read ``np.linalg`` (or ``linalg``)."""
    return ["%s:%d" % (name, n.lineno) for name, fn in sorted(fns.items())
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and n.attr == "linalg"
            or isinstance(n, ast.Name) and n.id == "linalg"]


def test_a_complex_takes_its_cell_quantities_in_closed_form():
    # a Kuhn simplex's volume, diameter and degeneracy come from its axis
    # steps: no method of ``SimplicialComplex`` calls numpy's linear
    # algebra (``face_frames`` keeps its Gram inverse, a module function)
    methods = {name: fn for name, fn in
               _functions(SRC / "geometry.py").items()
               if name.startswith("SimplicialComplex.")}
    assert len(methods) >= 10
    found = _linalg_calls(methods)
    assert not found, found


def test_linalg_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "geometry.py"
    p.write_text("class SimplicialComplex:\n"
                 "    def volumes(self):\n"
                 "        return np.abs(np.linalg.det(self.e))\n"
                 "    def inverses(self):\n"
                 "        return linalg.inv(self.m)\n"
                 "    def steps(self):\n"
                 "        return self.s.prod(axis=1)\n")
    assert _linalg_calls(_functions(p)) == [
        "SimplicialComplex.inverses:5", "SimplicialComplex.volumes:3"]


HIGHS_ATTRS = {"highs", "addRows", "deleteRows", "addCols", "deleteCols"}


def _highs_uses(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Attribute) and node.attr in HIGHS_ATTRS:
            out.append(where + " reads ." + node.attr)
        elif isinstance(node, ast.Import):
            out += [where + " imports " + a.name for a in node.names
                    if "_highspy" in a.name]
        elif isinstance(node, ast.ImportFrom) \
                and "_highspy" in (node.module or ""):
            out.append(where + " imports from " + node.module)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ("_highspy" in node.value or node.value in HIGHS_ATTRS):
            out.append(where + " names " + node.value)
    return out


def test_only_linprog_touches_highs():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linprog.py")
    assert len(modules) >= 8
    found = [v for p in modules for v in _highs_uses(p)]
    assert not found, found
    assert _highs_uses(SRC / "linprog.py")


WHOLE_MODEL_NAMES = {"passModel", "HighsLp"}


def _whole_model_uses(path):
    """Names of HiGHS's whole-model entry: ``passModel`` and its ``HighsLp``
    struct, as attributes, names, imported names or strings."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if name in WHOLE_MODEL_NAMES:
            out.append("%s:%d names %s" % (path.name, node.lineno, name))
    return out


def test_no_module_passes_a_whole_model():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [v for p in modules for v in _whole_model_uses(p)]
    assert not found, found


def test_whole_model_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "linprog.py"
    p.write_text("lp = _core.HighsLp()\n"
                 "highs.passModel(lp)\n"
                 "from scipy.optimize._highspy._core import HighsLp\n"
                 "getattr(highs, 'passModel')(lp)\n"
                 "highs.addRows(n, c, c, 0, starts, [], [])\n"
                 "passModel = 1\n")
    assert len(_whole_model_uses(p)) == 5


def test_highs_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "cutting_plane.py"
    p.write_text("problem.highs.deleteRows(2, idx)\n"
                 "import scipy.optimize._highspy._core as core\n"
                 "from scipy.optimize._highspy import _core\n"
                 "h = getattr(problem, 'highs')\n"
                 "problem.delete_rows(idx)\n"
                 "self.n_ineq = 3\n")
    assert len(_highs_uses(p)) == 5


HEAVY_SCIPY = ("scipy.sparse", "scipy.optimize")


def _heavy(name):
    return any(name == h or name.startswith(h + ".") for h in HEAVY_SCIPY)


def _heavy_scipy_imports(path):
    """Imports of ``scipy.sparse`` or ``scipy.optimize`` (or their
    submodules) anywhere in the module, also through ``import_module``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Import):
            out += [where + " imports " + a.name for a in node.names
                    if _heavy(a.name)]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""] + ["%s.%s" % (node.module, a.name)
                                           for a in node.names]
            if any(_heavy(n) for n in names):
                out.append(where + " imports from " + node.module)
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str) \
                and _heavy(node.args[0].value) \
                and ast.unparse(node.func).split(".")[-1] in (
                    "import_module", "__import__"):
            out.append(where + " imports " + node.args[0].value)
    return out


def test_no_module_imports_scipy_sparse_or_optimize():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [v for p in modules for v in _heavy_scipy_imports(p)]
    assert not found, found


def test_scipy_import_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "transport.py"
    p.write_text("from scipy import sparse\n"
                 "import scipy.optimize as so\n"
                 "from scipy.sparse import csr_matrix\n"
                 "def f():\n"
                 "    from scipy import optimize\n"
                 "    import scipy.sparse.linalg\n"
                 "    return importlib.import_module('scipy.optimize')\n"
                 "import scipy\n"
                 "from scipy import special\n"
                 "from .linprog import Csr\n"
                 "name = 'scipy.optimize._highspy._core'\n")
    assert len(_heavy_scipy_imports(p)) == 6


THREAD_MODULES = {"threading", "_thread", "concurrent"}


def _thread_imports(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Import):
            out += [where + " imports " + a.name for a in node.names
                    if a.name.split(".")[0] in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and (node.module or "").split(".")[0] in THREAD_MODULES:
            out.append(where + " imports from " + node.module)
    return out


def test_only_equilibrium_starts_threads():
    modules = sorted(p for p in SRC.glob("*.py")
                     if p.name != "equilibrium.py")
    assert len(modules) >= 8
    found = [v for p in modules for v in _thread_imports(p)]
    assert not found, found
    assert _thread_imports(SRC / "equilibrium.py")


def test_thread_rule_catches_the_patterns(tmp_path):
    p = tmp_path / "problems.py"
    p.write_text("import threading\n"
                 "from concurrent.futures import ThreadPoolExecutor\n"
                 "import concurrent.futures as cf\n"
                 "from threading import Lock\n"
                 "from .equilibrium import z_opt\n"
                 "import numpy as np\n")
    assert len(_thread_imports(p)) == 4


# environment variables a module may read, by module
ENV_READS = {"cli.py": {"TEAMSOLVE_LOG"}}
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environ_reads(path):
    """Reads of the process environment other than the module's
    ``os.environ.get(NAME, ...)`` calls for a NAME in ``ENV_READS``."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "environ" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value in ENV_READS.get(path.name, ()):
            allowed.add(id(node.func.value))
    out = []
    for node in ast.walk(tree):
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES \
                and id(node) not in allowed:
            out.append(where + " reads ." + node.attr)
        elif isinstance(node, ast.Name) and node.id in ENV_NAMES:
            out.append(where + " reads " + node.id)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [where + " imports os." + a.name for a in node.names
                    if a.name in ENV_NAMES]
    return out


def test_no_module_reads_the_environment():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [v for p in modules for v in _environ_reads(p)]
    assert not found, found


def test_environment_rule_catches_the_patterns(tmp_path):
    text = ('level = os.environ.get("TEAMSOLVE_LOG", "error")\n'
            'chunk = int(os.environ["TEAMSOLVE_CHUNK"])\n'
            'threads = os.getenv("TEAMSOLVE_THREADS")\n'
            'w = os.environ.get("TEAMSOLVE_WORKERS", 1)\n'
            "from os import environ\n"
            "import os\n")
    cli = tmp_path / "cli.py"
    cli.write_text(text)
    assert len(_environ_reads(cli)) == 4
    other = tmp_path / "equilibrium.py"
    other.write_text(text)
    assert len(_environ_reads(other)) == 5


# the trees whose modules may call the package's functions and classes
CALLER_TREES = ("src", "perfbench", "demos")


def _names_used(path):
    """The names a module reads, imports or reads as attributes, each
    outside the definition of that name, so that recursion calls nothing."""
    out = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(ast.parse(path.read_text(), str(path)), frozenset())
    return out


def _uncalled(modules, callers):
    """The module-level functions and classes of ``modules`` that no module
    of ``callers`` names."""
    used = set().union(*(_names_used(p) for p in callers))
    return ["%s:%d defines %s, which nothing calls" % (p.name, n.lineno,
                                                       n.name)
            for p in modules for n in ast.parse(p.read_text(), str(p)).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and n.name not in used]


def test_every_package_function_has_a_caller_outside_the_tests():
    root = SRC.parents[1]
    callers = [p for tree in CALLER_TREES for p in (root / tree).rglob("*.py")]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9 and len(callers) > len(modules)
    found = _uncalled(modules, callers)
    assert not found, found


def test_caller_rule_catches_a_helper_only_the_tests_use(tmp_path):
    package = tmp_path / "geometry.py"
    package.write_text("def point_key(p):\n"
                       "    return point_keys(p)[0]\n"
                       "def point_keys(P):\n"
                       "    return P\n"
                       "def _depth(n):\n"
                       "    return _depth(n - 1) if n else 0\n"
                       "class Unused:\n"
                       "    pass\n")
    caller = tmp_path / "oracle.py"
    caller.write_text("from .geometry import point_keys\n"
                      "keys = point_keys(P)\n")
    assert _uncalled([package], [package, caller]) == [
        "geometry.py:1 defines point_key, which nothing calls",
        "geometry.py:5 defines _depth, which nothing calls",
        "geometry.py:7 defines Unused, which nothing calls"]


def _dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _fields_with_defaults(cls):
    """A dataclass's fields with a default, as ``(node, position, name)``:
    the position among the fields of its ``__init__``, a ``field(...)``
    without ``default`` or ``default_factory`` giving none and one with
    ``init=False`` taking no position."""
    out, position = [], 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        keywords = {}
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        if value is not None and (not keywords or "default" in keywords
                                  or "default_factory" in keywords):
            out.append((node, position, node.target.id))
        position += 1
    return out


def _defaulted_parameters(path):
    """A module's parameters with a default, of its functions and methods
    at any depth and of its dataclasses' ``__init__``, as ``(module, line,
    qualified name, callee name, position, name)``: a method's position
    does not count ``self`` or ``cls`` (a static method's counts from its
    first parameter), a keyword-only parameter has none, and an
    ``__init__`` is called by its class's name; a dataclass field's
    qualified name is its class's."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _dataclass(child):
                    out.extend((path.name, f.lineno, child.name, child.name,
                                j, arg)
                               for f, j, arg in _fields_with_defaults(child))
                visit(child, child)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            if cls is not None and not static:
                positional = positional[1:]
            name = (cls.name if cls is not None and child.name == "__init__"
                    else child.name)
            qualified = ("" if cls is None else cls.name + ".") + child.name
            first = len(positional) - len(args.defaults)
            out.extend((path.name, child.lineno, qualified, name, j, a.arg)
                       for j, a in enumerate(positional) if j >= first)
            out.extend((path.name, child.lineno, qualified, name, None, a.arg)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None)
            visit(child, None)

    visit(ast.parse(path.read_text(), str(path)), None)
    return out


def _calls_by_name(paths):
    """Per callee name (a called name or attribute), what each call sets:
    ``(star, positional count, keywords)``, where ``star`` is a ``*`` or
    ``**`` argument, which may set any parameter."""
    out = {}
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append(
                (star, len(node.args), {k.arg for k in node.keywords}))
    return out


def _unset_options(modules, callers):
    """The parameters with a default in ``modules`` that no call in
    ``callers`` to a callee of that name sets, by keyword, by position or
    through ``*`` or ``**``."""
    calls = _calls_by_name(callers)
    return ["%s:%d %s: no caller sets %s" % (module, line, qualified, arg)
            for p in modules
            for module, line, qualified, name, j, arg
            in _defaulted_parameters(p)
            if not any(star or arg in keywords
                       or j is not None and j < count
                       for star, count, keywords in calls.get(name, ()))]


def test_every_optional_parameter_is_set_outside_the_tests():
    """Matching is by name, as for the callers above: a call to another
    function or method of the same name, such as a cost model's ``eval``
    and ``HatBasis.eval``, counts, so a shared name can hide a parameter
    that only the tests set."""
    root = SRC.parents[1]
    callers = [p for tree in CALLER_TREES for p in (root / tree).rglob("*.py")]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9 and len(callers) > len(modules)
    found = _unset_options(modules, callers)
    assert not found, found


def test_option_rule_catches_a_keyword_only_the_tests_set(tmp_path):
    package = tmp_path / "geometry.py"
    package.write_text("class HatBasis:\n"
                       "    def __init__(self, complex, excluded=None):\n"
                       "        self.complex = complex\n"
                       "    def eval(self, x, tol=1e-9, *, out=None):\n"
                       "        return x\n"
                       "    @staticmethod\n"
                       "    def key(p, decimals=12):\n"
                       "        return p\n"
                       "def covers(X, tol=1e-9, margin=0.0):\n"
                       "    return X\n"
                       "@dataclass\n"
                       "class Frame:\n"
                       "    points: list\n"
                       "    hit: list = field(default_factory=list)\n")
    caller = tmp_path / "oracle.py"
    caller.write_text("b = HatBasis(space)\n"
                      "g = b.eval(x, 1e-6)\n"
                      "k = HatBasis.key(p, 10)\n"
                      "m = covers(X, **options)\n"
                      "f = Frame(p)\n")
    test = tmp_path / "test_geometry.py"
    test.write_text("b = HatBasis(space, excluded=2)\n"
                    "g = b.eval(x, out=buf)\n"
                    "f = Frame(p, hit=h)\n")
    assert _unset_options([package], [package, caller]) == [
        "geometry.py:2 HatBasis.__init__: no caller sets excluded",
        "geometry.py:4 HatBasis.eval: no caller sets out",
        "geometry.py:14 Frame: no caller sets hit"]
    caller.write_text("b = HatBasis(space, excluded=2)\n"
                      "g = b.eval(x, out=buf)\n"
                      "k = HatBasis.key(p, decimals=10)\n"
                      "m = covers(X, *args)\n"
                      "g = b.eval(x, tol=1e-6)\n"
                      "f = Frame(p, [])\n")
    assert _unset_options([package], [package, caller]) == []


# the defaults on which no call outside the tests relies, by module,
# qualified name and parameter: none
DEFAULTS_KEPT = set()


def _unrelied_defaults(modules, callers, kept):
    """The defaults in ``modules``, other than ``kept``, on which no call in
    ``callers`` to a callee of that name relies: every such call sets the
    parameter by keyword or by position, and none passes ``*`` or ``**``,
    which may leave it unset.  Also each entry of ``kept`` on which some
    call relies or that is gone."""
    calls = _calls_by_name(callers)
    found, out = set(), []
    for p in modules:
        for module, line, qualified, name, j, arg in _defaulted_parameters(p):
            if any(star or arg not in keywords and (j is None or j >= count)
                   for star, count, keywords in calls.get(name, ())):
                continue
            found.add((module, qualified, arg))
            if (module, qualified, arg) not in kept:
                out.append("%s:%d %s: no caller relies on the default of %s"
                           % (module, line, qualified, arg))
    return out + ["%s %s: the default of %s is kept, but a caller relies on "
                  "it or it is gone" % k for k in sorted(set(kept) - found)]


def test_every_default_is_relied_on_outside_the_tests():
    """A default that every call overrides is a required parameter in
    disguise: its value is stated a second time, and may differ, at the
    callers.  Matching is by name, as above."""
    root = SRC.parents[1]
    callers = [p for tree in CALLER_TREES for p in (root / tree).rglob("*.py")]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9 and len(callers) > len(modules)
    found = _unrelied_defaults(modules, callers, DEFAULTS_KEPT)
    assert not found, found


def test_default_rule_catches_a_default_every_caller_overrides(tmp_path):
    package = tmp_path / "equilibrium.py"
    package.write_text("def construct(res, mc_n=100000, seed=0, i_hat=0):\n"
                       "    return res\n"
                       "def write(report, path, extra=None, *, fmt=None):\n"
                       "    return path\n"
                       "@dataclass(frozen=True)\n"
                       "class Report:\n"
                       "    alpha: float\n"
                       "    kept: bool = False\n"
                       "    chain: object = field(default=None)\n"
                       "    late: int = field(init=False, default=0)\n"
                       "    n: int = field(repr=False)\n")
    caller = tmp_path / "cli.py"
    caller.write_text("r = construct(res, 10, seed=1, i_hat=2)\n"
                      "r = construct(res, mc_n=5, seed=2, i_hat=1)\n"
                      "write(r, p, {}, fmt='%d')\n"
                      "write(r, p, extra={})\n"
                      "Report(1.0, True, None, n=3)\n")
    kept = {("equilibrium.py", "construct", "i_hat")}
    assert _unrelied_defaults([package], [package, caller], kept) == [
        "equilibrium.py:1 construct: no caller relies on the default of mc_n",
        "equilibrium.py:1 construct: no caller relies on the default of seed",
        "equilibrium.py:3 write: no caller relies on the default of extra",
        "equilibrium.py:8 Report: no caller relies on the default of kept",
        "equilibrium.py:9 Report: no caller relies on the default of chain"]
    # a call through ``*`` or ``**`` may leave every default unset, and a
    # kept default on which a caller relies is reported
    caller.write_text("r = construct(res, *args)\n"
                      "write(r, p, **options)\n"
                      "Report(**fields)\n")
    assert _unrelied_defaults([package], [package, caller], kept) == [
        "equilibrium.py construct: the default of i_hat is kept, but a "
        "caller relies on it or it is gone"]


def _parameters(fn, method):
    """The parameters of a function or lambda, without a method's ``self``
    or ``cls``."""
    a = fn.args
    positional = a.posonlyargs + a.args
    return (positional[1:] if method else positional) + a.kwonlyargs \
        + [p for p in (a.vararg, a.kwarg) if p is not None]


def _reads(node, name):
    """Whether the tree ``node`` reads ``name``, outside the bodies of the
    nested functions and lambdas that take a parameter of that name (their
    defaults and decorators are read where they are defined)."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, (ast.FunctionDef, ast.Lambda)) \
            and name in {p.arg for p in _parameters(node, False)}:
        outer = node.args.defaults + [d for d in node.args.kw_defaults if d] \
            + getattr(node, "decorator_list", [])
        return any(_reads(n, name) for n in outer)
    return any(_reads(c, name) for c in ast.iter_child_nodes(node))


def _stub(fn):
    """A protocol stub: a docstring at most, then one ``raise`` or one
    ``return`` of a constant."""
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                    ast.Constant):
        body = body[1:]
    return len(body) == 1 and (
        isinstance(body[0], ast.Raise)
        or isinstance(body[0], ast.Return)
        and isinstance(body[0].value, (ast.Constant, type(None))))


def _unread_parameters(path):
    """The parameters that a module's functions, methods and lambdas at any
    depth take and never read, but for protocol stubs' (``_stub``), as
    ``(module, line, qualified name, parameter)``; a lambda's name is
    ``<lambda>``, qualified by the functions and classes around it."""
    out = []

    def visit(node, cls, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, outer + child.name + ".")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, cls, outer)
                continue
            lam = isinstance(child, ast.Lambda)
            name = outer + ("<lambda>" if lam else child.name)
            static = not lam and any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            body = [child.body] if lam else child.body
            if lam or not _stub(child):
                out.extend((path.name, child.lineno, name, p.arg)
                           for p in _parameters(child, cls is not None
                                                and not lam and not static)
                           if not any(_reads(n, p.arg) for n in body))
            visit(child, None, name + ".")

    visit(ast.parse(path.read_text(), str(path)), None, "")
    return out


# parameters that no body reads, by module, qualified name and parameter,
# kept because ``perfbench/`` passes them; both go with the next benchmark
# change (ROADMAP item 6)
UNREAD_KEPT = {("oracle.py", "make_oracle", "pool_margin"),
               ("equilibrium.py", "construct", "semidiscrete_params")}


def _unread_violations(modules, kept):
    """The unread parameters of ``modules`` other than ``kept``, and each
    entry of ``kept`` that is read or gone."""
    found = [u for p in modules for u in _unread_parameters(p)]
    keys = {(module, name, arg) for module, _, name, arg in found}
    return (["%s:%d %s reads no %s" % u for u in found
             if (u[0], u[2], u[3]) not in kept]
            + ["%s %s: %s is kept as unread, but it is read or gone" % k
               for k in sorted(set(kept) - keys)])


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = _unread_violations(modules, UNREAD_KEPT)
    assert not found, found


def test_read_rule_catches_a_parameter_no_body_reads(tmp_path):
    p = tmp_path / "problems.py"
    p.write_text("class ScalarRampTerm:\n"
                 "    def kinks(self, dim):\n"
                 "        return self.s\n"
                 "    def eval(self, i, X, Z):\n"
                 "        'A stub.'\n"
                 "        raise NotImplementedError\n"
                 "    def buffers(self, z_space):\n"
                 "        return None\n"
                 "    @staticmethod\n"
                 "    def key(p, *args, **kw):\n"
                 "        return kw\n"
                 "def check(rng, x_sampler, n=3):\n"
                 "    f = lambda i, m: x_sampler(i, m)\n"
                 "    def draw(rng, k=n):\n"
                 "        return rng.random(k)\n"
                 "    return f, draw\n"
                 "def outer(a, b):\n"
                 "    def inner(c):\n"
                 "        return a\n"
                 "    return inner\n"
                 "g = lambda x, y: x\n")
    assert _unread_violations([p], set()) == [
        "problems.py:2 ScalarRampTerm.kinks reads no dim",
        "problems.py:10 ScalarRampTerm.key reads no p",
        "problems.py:10 ScalarRampTerm.key reads no args",
        "problems.py:12 check reads no rng",
        "problems.py:17 outer reads no b",
        "problems.py:18 outer.inner reads no c",
        "problems.py:21 <lambda> reads no y"]
    # a kept parameter is left out, and one that is read or gone reported
    kept = {("problems.py", "check", "rng"), ("problems.py", "outer", "a")}
    assert _unread_violations([p], kept)[3:] == [
        "problems.py:17 outer reads no b",
        "problems.py:18 outer.inner reads no c",
        "problems.py:21 <lambda> reads no y",
        "problems.py outer: a is kept as unread, but it is read or gone"]


# the one function that may partition, by module
PARTITION_IN = ("oracle.py", "_lowest")


def _unstable_rankings(path):
    """``argsort`` other than called with ``kind="stable"``, and
    ``partition`` or ``argpartition`` outside ``PARTITION_IN``."""
    tree = ast.parse(path.read_text(), str(path))
    stable = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and any(k.arg == "kind" and isinstance(k.value, ast.Constant)
                      and k.value.value == "stable" for k in node.keywords)}
    out = []

    def walk(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
        if name == "argsort" and id(node) not in stable:
            out.append(where + ' argsort without kind="stable"')
        elif name in ("partition", "argpartition") \
                and (path.name, function) != PARTITION_IN:
            out.append(where + " names " + name)
        for child in ast.iter_child_nodes(node):
            walk(child, function)

    walk(tree, None)
    return out


def test_every_ranking_breaks_ties_in_index_order():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = [v for p in modules for v in _unstable_rankings(p)]
    assert not found, found


def test_ranking_rule_catches_the_patterns(tmp_path):
    text = ("low = np.argsort(vals)[:8]\n"
            "keep = np.argsort(w)[::-1][:cap]\n"
            "order = vals.argsort()\n"
            "rank = np.argsort(vals, kind='quicksort')\n"
            "key = np.argsort\n"
            "order = np.argsort(-frac, axis=1, kind='stable')\n"
            "kth = np.partition(v, 3)\n"
            "def _lowest(v, k):\n"
            "    return np.argpartition(v, k)\n")
    oracle = tmp_path / "oracle.py"
    oracle.write_text(text)
    assert len(_unstable_rankings(oracle)) == 6
    other = tmp_path / "measures.py"
    other.write_text(text)
    assert len(_unstable_rankings(other)) == 7


TESTS = SRC.parents[1] / "tests"


def _unread_imports(path):
    """The module-level imports of a module whose names it never reads."""
    tree = ast.parse(path.read_text(), str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d imports %s, which it never reads"
            % (path.name, node.lineno, a.asname or a.name)
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
            if (a.asname or a.name).split(".")[0] not in read]


def test_every_test_import_is_read():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 20
    found = [v for p in modules for v in _unread_imports(p)]
    assert not found, found


def test_import_rule_catches_an_import_never_read(tmp_path):
    p = tmp_path / "test_cli.py"
    p.write_text("from __future__ import annotations\n"
                 "import json\n"
                 "import numpy as np\n"
                 "import os.path\n"
                 "from helpers import (random_cpwa,\n"
                 "                     brute)\n"
                 "def test_x():\n"
                 "    import math\n"
                 "    return json.loads(brute(os.path.sep))\n")
    assert _unread_imports(p) == [
        "test_cli.py:3 imports np, which it never reads",
        "test_cli.py:5 imports random_cpwa, which it never reads"]

