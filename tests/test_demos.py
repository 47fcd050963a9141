"""The quick demos run to completion against the library in src/.

Demos 02 and 03 simulate large batches (about half a minute each) and
are not run here (CI runs them in a step of their own); every demo's
imports from matcascade are checked instead.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_model_and_conditions.py",
                                  "04_mbrw_reduction.py"])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_exist(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "matcascade"
             for alias in node.names]
    assert names, "the demo imports nothing from matcascade"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (
            f"{module} has no {name}")
