"""Kernel selection: compiled extension when available, pure Python otherwise.

Both backends run the same algorithms and give the same results; see
``_pure``, the reference.  Set ``ALGCONN_PURE=1`` to force the pure fallback
even when the extension is built; the benchmark runs that way, and
``test_pure_env_forces_fallback`` checks it.  The cross-implementation tests
do not use it: they build ``_speedups.c`` themselves and compare that build
with ``_pure`` directly.
"""

import os

if os.environ.get("ALGCONN_PURE"):
    from . import _pure as _impl

    HAVE_SPEEDUPS = False
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        HAVE_SPEEDUPS = True
    except ImportError:
        from . import _pure as _impl  # type: ignore[no-redef]

        HAVE_SPEEDUPS = False

canon_perm = _impl.canon_perm
canon_key = _impl.canon_key
free_tree_layouts = _impl.free_tree_layouts


def backend() -> str:
    """Name of the kernel implementation in use."""
    return "compiled" if HAVE_SPEEDUPS else "pure"
