"""Module layering: the null laws (``calibration``), the Stein diagnostic
(``stein``) and the Gaussian engine with its lagged Gram (``gaussian``)
stand below the test layer (``inference``), which re-exports the public
names of the first two."""

import ast
import inspect
import os
import subprocess
import sys

import pytest

import dirinfo
from dirinfo import calibration, inference, stein


def _loaded_after(statement):
    """The ``dirinfo`` modules a fresh interpreter holds after ``statement``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dirinfo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('dirinfo')))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(ast.literal_eval(out.strip()))


def test_calibration_and_stein_load_without_the_test_layer():
    after_calibration = _loaded_after("import dirinfo.calibration")
    assert "dirinfo.calibration" in after_calibration
    assert not after_calibration & {"dirinfo.inference", "dirinfo.stein"}
    after_stein = _loaded_after("import dirinfo.stein")
    assert "dirinfo.stein" in after_stein
    assert "dirinfo.inference" not in after_stein


def test_gaussian_loads_without_the_test_layer():
    after_gaussian = _loaded_after("import dirinfo.gaussian")
    assert "dirinfo.gaussian" in after_gaussian
    assert not after_gaussian & {"dirinfo.inference", "dirinfo.stein"}


def _public_names(module):
    """The public names ``module`` defines at its top level: its functions,
    classes and assigned constants."""
    names = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


@pytest.mark.parametrize("module", [calibration, stein], ids=["calibration", "stein"])
def test_inference_reexports_each_public_name(module):
    names = _public_names(module)
    assert names
    for name in names:
        assert getattr(inference, name) is getattr(module, name), name
