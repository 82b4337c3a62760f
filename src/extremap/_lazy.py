"""numpy, loaded on first use.

Only the Monte Carlo estimators run numpy, so ``montecarlo`` holds it
as a lazily loaded module: the exact commands (``bounds``, ``check``,
``ei``, ``pressure``) never load it.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """numpy as a module that runs on the first read of one of its
    attributes (the ``LazyLoader`` recipe of the importlib docs), or the
    module itself when numpy is already imported.

    A lazy module is loaded by whichever thread reads it first, so
    ``montecarlo`` loads it before its pool starts threads and forks.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module
