"""Build script: compiles the optional speedup kernels.

The package is fully functional without the extension (a pure-Python
implementation of the same kernels is selected at import time), so a
failed compile only costs speed.  The extension is built from the
committed ``_speedups.c``, the file the test suite cross-checks, which
needs only a C compiler:

    python3 setup.py build_ext --inplace

After editing ``_speedups.pyx``, regenerate the C file by hand with
``cython -3 src/algconn/_kernels/_speedups.pyx`` and commit both.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "algconn._kernels._speedups",
            ["src/algconn/_kernels/_speedups.c"],
            optional=True,
        )
    ]
)
