"""The benchmark's workloads: one generated dataset and one (τ, λ) each.

Each dataset comes from the package's public generator with the seed
its experiment harness uses (AirBnB 11, COMPAS 7). For AirBnB that seed
also draws the dataset's *structure* (the amenity rates of its eight
listing prototypes), and with another structure the MUP count and the
traversal cost move by 2x and more. The benchmark's
``--seed`` therefore permutes rows across partitions instead (see
``run.py``).

τ is the paper's threshold rate × n (COMPAS: the paper's τ = 10). The
sizes are set by the run budget; README.md records what was left out.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (spark, seed) -> DataFrame, via the public generator
    data_seed: int
    attrs: List[str]
    cards: List[int]
    tau: int
    lam: int
    cube: bool = False  # cross-check (and trace) core.cube.mups_spark


def workloads() -> dict:
    from repro import synth_data as sd

    d = 10
    out = [
        Workload(
            "airbnb_deep",
            "traversal-bound: AirBnB-like n=100,000, d=10, tau=10 (rate 1e-4), lambda=6",
            lambda spark, seed: sd.airbnb_like(spark, n=100_000, d=d, seed=seed),
            11, sd.airbnb_attrs(d), [2] * d, tau=10, lam=6,
        ),
        Workload(
            "compas_audit",
            "Spark-latency-bound: the paper's COMPAS audit, n=6,889, d=4, tau=10, lambda=2",
            lambda spark, seed: sd.compas_like(spark, n=6_889, seed=seed),
            7, list(sd.COMPAS_ATTRS), list(sd.COMPAS_CARDS), tau=10, lam=2, cube=True,
        ),
    ]
    return {w.name: w for w in out}
