"""numpy, imported on first attribute access rather than at package import, and
scipy's ARPACK library, loaded on first use without importing scipy."""

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

ARPACK_REQUIREMENT = "scipy>=1.17"  # the version whose _arpacklib interface profile drives


def _lazy_numpy():
    """Return the numpy module, loaded no earlier than its first attribute access.

    Commands on the infinite parents, ``girth`` and ``group info`` run on tuple
    tables and never touch an array, so they skip numpy's import.  When numpy is
    already imported, the module in ``sys.modules`` is returned unchanged;
    otherwise a ``LazyLoader`` module takes its place there, so every later
    ``import numpy`` (scipy's too) gets the same object.  On Python 3.10 and 3.11
    a lazy module is not safe to load from two threads at once; the package
    starts no threads.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


@functools.cache
def arpack():
    """scipy's compiled ARPACK extension ``_arpacklib``, loaded from its file.

    ``find_spec`` finds scipy's directory without importing it, and the
    extension is loaded under its bare name, so no scipy module enters
    ``sys.modules``.  Importing ``scipy.sparse.linalg`` would also load
    ``scipy.linalg`` and SuperLU, about 0.2 s and 30 MB per process, where the
    Dirichlet solve needs only ``dsaupd_wrap`` and ``dseupd_wrap``.  Their
    interface is private to scipy, so a missing extension or routine raises
    ``ImportError`` naming the version it was written against.
    """
    spec = importlib.util.find_spec("scipy")
    dirs = spec.submodule_search_locations if spec is not None else []
    found = [path for d in dirs for suffix in importlib.machinery.EXTENSION_SUFFIXES
             if (path := Path(d, "sparse", "linalg", "_eigen", "arpack",
                              "_arpacklib" + suffix)).is_file()]
    if not found:
        raise ImportError(f"profile certificates need {ARPACK_REQUIREMENT}: "
                          "its ARPACK library _arpacklib was not found")
    lib_spec = importlib.util.spec_from_file_location("_arpacklib", found[0])
    lib = importlib.util.module_from_spec(lib_spec)
    lib_spec.loader.exec_module(lib)
    if not all(hasattr(lib, name) for name in ("dsaupd_wrap", "dseupd_wrap")):
        raise ImportError(f"profile certificates need {ARPACK_REQUIREMENT}: "
                          f"{found[0].name} lacks dsaupd_wrap or dseupd_wrap")
    return lib
