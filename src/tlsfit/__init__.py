"""Ordinary and total least squares fitting on small dense problems.

The package solves four related problems exactly at desk scale:

* ordinary least squares (normal equations, QR, SVD pseudo-inverse),
* orthogonal-distance line and hyperplane fitting through the centroid,
* TLS solution of an overdetermined system via the augmented-matrix SVD,
* multi-right-hand-side and frozen-column TLS generalizations,

together with the dense kernels (Householder QR, one-sided Jacobi SVD)
they run on and a CSV/JSON CLI.

``import tlsfit`` loads neither the solvers nor numpy.  The first lookup
of a public name, or of ``__all__``, loads all six library modules at
once and binds their public names here, so ``tlsfit.X`` and
``from tlsfit import *`` behave as with eager imports.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # Reached only for a name not bound here (PEP 562).  The first lookup
    # binds every public name and __all__, so later ones never load again.
    namespace = globals()
    if "__all__" not in namespace:
        import importlib
        modules = [importlib.import_module(f"{__name__}.{module}")
                   for module in ("errors", "extensions", "geometry",
                                  "linalg", "ols", "system")]
        # Each public name is listed once, in its module's __all__.
        namespace.update({public: getattr(module, public)
                          for module in modules for public in module.__all__})
        namespace["__all__"] = [public for module in modules
                                for public in module.__all__]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")  # binds the public names before they are listed
    return sorted(globals())
