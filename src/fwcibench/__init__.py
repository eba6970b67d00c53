"""Citation-impact benchmarking toolkit.

Decomposes grant-funded publication corpora into per-paper FWCI values,
fits lognormal impact models to histograms with bin-ensemble confidence
intervals, and corrects small-sample award averages against simulated
international medians.

Submodules load on first use (``fwcibench.lognormal`` imports it), so that
importing the package, or only its corpus layer, does not import NumPy.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["corpus", "histogram", "leastsq", "lognormal", "simulate", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
