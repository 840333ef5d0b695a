"""Build script: compiles the optional speedup kernels.

The package is fully functional without the extension (a pure-Python
implementation of the same kernels is selected at import time), so a
failed compile only costs speed.  With Cython the extension is built from
``_speedups.pyx``; without it, from the committed ``_speedups.c``, which
needs only a C compiler:

    python3 setup.py build_ext --inplace
"""

import sys

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/algconn/_kernels/_speedups.pyx"],
        language_level="3",
    )
except ImportError:  # pragma: no cover - build-environment dependent
    print("Cython not found; building the committed _speedups.c", file=sys.stderr)
    ext_modules = [
        Extension(
            "algconn._kernels._speedups",
            ["src/algconn/_kernels/_speedups.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
