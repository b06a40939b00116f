"""layerburn.lapack: scipy's compiled LAPACK wrappers, bound without
importing scipy.linalg, and the top eigenvalue the audit's log-norm takes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import eigh_tridiagonal

from conftest import shipped_problem
from layerburn import hypothesis, lapack
from layerburn.hypothesis import audit_problem

SRC = str(Path(lapack.__file__).resolve().parents[1])
SHIPPED = ("drift_benchmark", "reactive_two_layer", "ignition_coupled", "dependence_study")
ROUTINES = ("dgttrf", "dgttrs", "dpttrf", "dpttrs", "dgbtrf", "dgbtrs")


def _fresh(script, *args):
    """stdout of `script` run with `args` in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True).stdout


_SAME_OBJECTS = """
import sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg.lapack
import layerburn.io_cli
from layerburn import lapack as ours
print("scipy.linalg" in sys.modules)
import scipy.linalg.lapack as theirs
from scipy.linalg import solve_banded
assert sys.modules["scipy.linalg._flapack"] is ours._flapack
assert ours._dstebz is theirs.dstebz
for name in sys.argv[2:]:
    assert getattr(ours, name) is getattr(theirs, name), name
assert solve_banded((1, 1), [[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]], [3.0, 3.0]).tolist() == [1.0, 1.0]
print("ok")
"""


@pytest.mark.parametrize("first", ["scipy-first", "layerburn-first"])
def test_routines_are_the_objects_scipy_linalg_lapack_exports(first):
    # one extension module in either import order: the routine objects are shared
    out = _fresh(_SAME_OBJECTS, first, *ROUTINES).split()
    assert out == [str(first == "scipy-first"), "ok"]


def test_missing_extension_is_an_import_error_naming_the_folder(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=f"no _flapack extension module in {tmp_path}"):
        lapack._load_flapack()


def _eigh_top(d, e, tol):
    top = (d.size - 1,) * 2
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=top, tol=tol)[0]


def test_top_eigenvalue_equals_eigh_tridiagonal_bit_for_bit():
    rng = np.random.default_rng(26)
    for m in (2, 3, 5, 64, 401, 1024, *rng.integers(2, 1025, 40)):
        d = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        e = rng.standard_normal(m - 1) * 10.0 ** rng.integers(-3, 4)
        tol = np.finfo(float).eps * (np.abs(d).max() + 2.0 * np.abs(e).max())
        for t in (0.0, tol):
            assert lapack.top_eigenvalue(d, e, t).hex() == float(_eigh_top(d, e, t)).hex()


@pytest.mark.parametrize("bad", ["d", "e"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_top_eigenvalue_refuses_non_finite_input_as_eigh_tridiagonal_does(bad, value):
    d, e = np.ones(4), np.full(3, -0.5)
    (d if bad == "d" else e)[1] = value
    message = "array must not contain infs or NaNs"
    with pytest.raises(ValueError, match=message):
        _eigh_top(d, e, 0.0)
    with pytest.raises(ValueError, match=message):
        lapack.top_eigenvalue(d, e, 0.0)


def _audit_omega(name, monkeypatch):
    """omega of growth_beta as audit_problem calls it on a shipped config."""
    seen = []
    real = hypothesis.growth_beta
    with monkeypatch.context() as patch:
        patch.setattr(hypothesis, "growth_beta", lambda *args: seen.append(real(*args)) or seen[-1])
        audit_problem(*shipped_problem(name))
    return seen[0][1]


@pytest.mark.parametrize("name", SHIPPED)
def test_audit_omega_equals_eigh_tridiagonal_on_shipped_configs(name, monkeypatch):
    omega = _audit_omega(name, monkeypatch)
    monkeypatch.setattr(hypothesis, "top_eigenvalue", _eigh_top)
    reference = _audit_omega(name, monkeypatch)
    assert omega.shape == reference.shape
    assert [w.hex() for w in omega.ravel()] == [w.hex() for w in reference.ravel()]
