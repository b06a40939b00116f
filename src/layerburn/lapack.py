"""The LAPACK routines layerburn calls, from scipy's compiled _flapack extension.

This module is the one place that knows where LAPACK comes from.  scipy ships
its Fortran wrappers in one extension module, scipy/linalg/_flapack, but
importing it as scipy.linalg.lapack first runs scipy.linalg's __init__, which
pulls in scipy's array-API layer, numpy.f2py and numpy.testing: most of the
import time of the CLI and about 20 MB of its resident memory, for seven
routines.  Here `import scipy` runs scipy's own start-up (its
_distributor_init), and the extension is then loaded from scipy's folder
under its real name, scipy.linalg._flapack.  A later `import scipy.linalg`
finds that entry in sys.modules and reuses it, and an entry that is already
there is reused here, so the extension is never loaded twice and every
routine below is the object scipy.linalg.lapack exports, whichever module a
process imports first.  Everything is bound at import, so no solve pays for
the loading.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    """scipy.linalg._flapack: the entry in sys.modules, else loaded from its file."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no _flapack extension module in {folder}", name=_NAME)
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_NAME, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load_flapack()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs  # general tridiagonal LU
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs  # symmetric positive definite tridiagonal
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs  # general banded LU
_dstebz = _flapack.dstebz  # bisection for eigenvalues of a symmetric tridiagonal


def top_eigenvalue(d, e, tol: float) -> float:
    """Largest eigenvalue of the symmetric tridiagonal with diagonal d and
    off-diagonal e, located by bisection to within tol.

    This is the dstebz call scipy.linalg.eigh_tridiagonal(d, e,
    eigvals_only=True, select="i", select_range=(m-1, m-1), tol=tol) makes,
    with its guards: non-finite input raises ValueError("array must not
    contain infs or NaNs") and a nonzero LAPACK info raises LinAlgError.
    """
    d = np.asarray_chkfinite(d)
    e = np.asarray_chkfinite(e)
    m = d.size
    _, w, _, _, info = _dstebz(d, e, 2, 0.0, 1.0, m, m, float(tol), "E")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with LAPACK info {info}")
    return float(w[0])
