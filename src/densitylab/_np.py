"""numpy, imported in one place and without OpenBLAS's worker threads.

This is the package's only ``import numpy``.  densitylab makes no BLAS call:
its arrays go through ufuncs, sorts, searches and cumulative sums, none of
which runs on OpenBLAS.  Yet when numpy loads, OpenBLAS starts one worker
thread per core and joins them again at exit, which can cost a short
process more time than its own work.  So the first import runs with
``OPENBLAS_NUM_THREADS=1``, and the variable is removed from ``os.environ``
right after, so child processes never inherit it.  Nothing is set when the
user has set one of OpenBLAS's own variables (those win), or when numpy is
loaded already (that process keeps its pool).

``numpy`` is the real module, for the modules that build arrays at import
(``from ._np import numpy as np``).  ``np`` stands for it in the modules whose
point queries and closed forms build no array (intset, monad, numerics,
productset, progressions), so a process that only asks those never imports
numpy.  ``np`` reads each attribute from the real module when it is looked
up, so a numpy function replaced at run time reaches them.
"""

import os
import sys

_OPENBLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_numpy = None


def _load():
    global _numpy
    single = "numpy" not in sys.modules and not any(v in os.environ for v in _OPENBLAS_THREAD_VARIABLES)
    if single:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if single:
            del os.environ["OPENBLAS_NUM_THREADS"]
    _numpy = numpy
    return numpy


class _Numpy:
    def __getattr__(self, name):
        return getattr(_numpy or _load(), name)


np = _Numpy()


def __getattr__(name):
    if name == "numpy":
        return _numpy or _load()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
