"""Build script: compiles the optional speedup kernels.

The package is fully functional without the extension (a pure-Python
implementation of the same kernels is selected at import time), so a
failed compile only costs speed.  The extension is the hand-written
``_speedups.c``, a port of ``_pure`` to the CPython API, which needs only
a C compiler:

    python3 setup.py build_ext --inplace
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
