"""Algebraic connectivity of small graphs.

Spectra, certified lower bounds, exhaustive extremal searches over trees and
regular graphs, and greedy spectral edge augmentation.
"""

from ._kernels import backend as kernel_backend
from .augment import compare_families, edge_augmentation
from .bounds import (
    bound_report,
    girth_bound,
    nilli_bound,
    tk_bound,
    tree_bound_precise,
)
from .families import bethe_tree, named, named_graph_names
from .graphs import (
    Graph,
    GraphFormatError,
    canonical_form,
    from_edges,
    graph6_decode,
    graph6_encode,
    read_graph6_file,
)
from .search import (
    count_trees,
    enumerate_cubic,
    enumerate_graphs,
    enumerate_trees,
    maximize_lambda2,
    maximize_trees,
    verify_conjecture_cubic,
    verify_conjecture_k2,
    verify_conjecture_tree2,
)
from .spectral import (
    algebraic_connectivity,
    consensus_decay_rate,
    fiedler_vector,
    laplacian,
    laplacian_spectrum,
    modified_lambda,
)
from .treetools import find_splitting_vertex, is_well_balanced, split_spectral_bound

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "algebraic_connectivity",
    "bethe_tree",
    "bound_report",
    "canonical_form",
    "compare_families",
    "consensus_decay_rate",
    "count_trees",
    "edge_augmentation",
    "enumerate_cubic",
    "enumerate_graphs",
    "enumerate_trees",
    "fiedler_vector",
    "find_splitting_vertex",
    "from_edges",
    "girth_bound",
    "graph6_decode",
    "graph6_encode",
    "is_well_balanced",
    "kernel_backend",
    "laplacian",
    "laplacian_spectrum",
    "maximize_lambda2",
    "maximize_trees",
    "modified_lambda",
    "named",
    "named_graph_names",
    "nilli_bound",
    "read_graph6_file",
    "split_spectral_bound",
    "tk_bound",
    "tree_bound_precise",
    "verify_conjecture_cubic",
    "verify_conjecture_k2",
    "verify_conjecture_tree2",
    "__version__",
]
