"""numpy, imported on first use.

``np`` stands for the numpy module in the modules whose point queries build
no array (intset, numerics, progressions), so a process that only asks point
queries never imports numpy.  Each attribute is read from the real module
when it is looked up, so a numpy function replaced at run time reaches them.
"""


class _Numpy:
    def __getattr__(self, name):
        import numpy

        return getattr(numpy, name)


np = _Numpy()
