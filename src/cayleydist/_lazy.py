"""numpy, imported on first attribute access rather than at package import."""

import importlib.util
import sys


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
