"""The benchmark's workloads: one input graph and one algorithm each.

Each workload builds its edge list from the benchmark seed, so the same seed
gives the same graph; the per-job RC seeds are drawn from the same stream.
Sizes are chosen so that a run -- a Spark session, set-up, one warm-up job
and the timed jobs -- fits the benchmark's time budget on a 4-core machine,
where every engine statement costs about half a second however small its
input.  The ``test`` profile is the smoke test's smaller variant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from repro.graphs import generators as G


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    method: str | None  # randomisation method of the RC variants
    why: str
    graph: Callable[[int, str], pd.DataFrame]  # (seed, profile) -> edges v, w

    @property
    def layer(self) -> str:
        """The layer that runs the job behind ``connected_components``."""
        return "core" if self.algorithm.startswith("rc") else "baselines"


def tiny_paths(seed: int, profile: str) -> pd.DataFrame:
    """Hundreds of 3-vertex paths (a batch of tiny clusters), randomised IDs.

    RC contracts a 3-vertex path in one round or two, two with probability
    2/3 each, so with hundreds of them every job takes exactly two rounds.
    Randomising the IDs keeps the affine hash of one job from ordering all
    components alike.
    """
    n = 400 if profile == "bench" else 6
    return G.randomise_ids(G.path_union([3] * n, numbering="sequential"), seed)


def zigzag_paths(seed: int, profile: str) -> pd.DataFrame:
    """Zig-zag numbered paths (PathUnion10's shape) in seeded order.

    The seed orders a fixed set of lengths, so every seed gives the same
    number of edges and Two-Phase, which draws nothing at random, the same
    number of rounds.
    """
    lengths = [4, 5] * (8 if profile == "bench" else 1)
    return G.path_union(np.random.default_rng(seed).permutation(lengths).tolist(),
                        numbering="zigzag")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rc-gf64",
            "rc",
            "gf64",
            "RC with GF(2^64): the only workload whose hot path runs the ff "
            "pandas UDF",
            tiny_paths,
        ),
        Workload(
            "tp-zigzag",
            "two_phase",
            None,
            "the Two-Phase competitor on its worst case: many rounds, a "
            "convergence read after each, different engine use than RC",
            zigzag_paths,
        ),
    )
}
