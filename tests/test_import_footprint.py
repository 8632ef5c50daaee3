"""``import teamsolve`` loads scipy's HiGHS binding alone: neither
``scipy.optimize`` nor ``scipy.sparse`` is imported, and importing
``scipy.optimize`` before or after the package leaves one binding module
that both use.  Each check runs in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_loads_neither_scipy_optimize_nor_sparse():
    # the binding registers its own submodules (``cb``, ...) as it loads
    assert _run("""
        import sys
        import teamsolve
        print("scipy.optimize" in sys.modules, "scipy.sparse" in sys.modules)
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.optimize.", "scipy.sparse."))
                     and not m.startswith("scipy.optimize._highspy._core.")))
        """) == ["False", "False", "[]"]


# what both import orders check once both are imported
CHECK = """
    import scipy.optimize
    from teamsolve import linprog
    print(linprog._core is scipy.optimize._highspy._core)
    print(linprog._core is sys.modules["scipy.optimize._highspy._core"])
    res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                                 method="highs-ds")
    print(res.status, res.fun)
    print(linprog.solve_min([1.0, 2.0], [[1.0, 1.0]], [1.0]).value)
"""


@pytest.mark.parametrize("first", ["teamsolve", "scipy.optimize"])
def test_one_binding_in_either_import_order(first):
    assert _run("import sys\nimport %s\n" % first + textwrap.dedent(CHECK)) \
        == ["True", "True", "0", "1.0", "1.0"]
