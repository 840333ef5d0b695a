"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``ALGCONN_PURE=1`` to force the pure fallback even when the extension is
built (used by the benchmark and the cross-implementation tests).
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


def _height_filtered(walk):
    """A ``free_tree_layouts`` with a height cap, built on a walk without one.

    The compiled walk takes no cap, so it walks every tree and the layouts
    deeper than the cap are dropped afterwards, where the pure walk prunes
    them by prefix.  The layouts and their order are the same.
    """

    def free_tree_layouts(n, dmax, max_height=None):
        layouts = walk(n, dmax)
        if max_height is None:
            return layouts
        return (t for t in layouts if max(t) <= max_height)

    return free_tree_layouts


canon_perm = _impl.canon_perm
canon_key = _impl.canon_key
if HAVE_SPEEDUPS:
    free_tree_layouts = _height_filtered(_impl.free_tree_layouts)
else:
    free_tree_layouts = _impl.free_tree_layouts


def backend() -> str:
    """Name of the kernel implementation in use."""
    return "compiled" if HAVE_SPEEDUPS else "pure"
