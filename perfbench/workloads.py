"""The four benchmark workloads: the CLI command each runs and its size.

Why each was chosen is in README.md.  This module imports nothing outside
the standard library, so the benchmark process stays small while it launches
jobs (a child inherits its parent's peak RSS through vfork and exec).
"""

from __future__ import annotations

from dataclasses import dataclass

# OEIS A000672(20): trees on 20 vertices with maximum degree <= 3.
TREES_N20_D3 = 52233
# OEIS A002851(14): connected 3-regular graphs on 14 vertices.
CUBIC_N14 = 509
# Connected graphs with 9 vertices, 14 edges and minimum degree >= 2, up to
# isomorphism.  `python3 perfbench/count_k2.py` recounts them without algconn.
K2_N9 = 5553
AUGMENT_STEPS = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    items: int  # units of work one job does: trees, graphs or steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trees-n20-d3", ("enumerate", "trees", "-n", "20", "-d", "3", "--max-lambda2"), TREES_N20_D3),
        Workload("cubic-n14", ("enumerate", "cubic", "-n", "14"), CUBIC_N14),
        Workload("k2-n9", ("verify", "k2", "-n", "9"), K2_N9),
        Workload("augment-n200", ("augment", "-n", "200", "-m", str(AUGMENT_STEPS)), AUGMENT_STEPS),
    )
}
