"""Seeded inputs for the benchmark workloads, and the outputs they must give.

A workload is a list of jobs: plain dicts, so they can be handed to the
in-process child as JSON.  Every input is written to a file and the CLI
reads only that file.  The same workload seed writes the same files.

Each graph is built as an interval model first.  Edge lists are derived
from it by an endpoint sweep here, and the expected dimension comes from
the library's `param_report`, so every check is known before the CLI runs.
"""

from __future__ import annotations

import heapq
import json
import random
from fractions import Fraction
from pathlib import Path

from intervalcubes import (
    GenConfig,
    Graph,
    IntervalModel,
    label_vertices,
    model_to_clique_ordering,
    param_report,
    random_interval_model,
)

WORKLOADS = ("model-dense", "edgelist-sparse", "oracle-small")

# Sizes are set so that a round takes a few seconds and a 30 s run repeats
# every operation many times, seconds apart; see end_to_end_metrics in run.py.
DENSE_N = 400  # about 33k edges per model: O(n^2) stages dominate
DENSE_SEEDS = 1  # models per distribution; at n = 400 every seed gives the
# same dimension (5 for uniform, 7 for nested-heavy) and edges within 10%
SPARSE_N = 500  # m close to n: recognition and all-pairs verify dominate
SEARCH_COUNT = 20
# The oracle's time is exponential in non-edges.  At --n-max 8 one search
# seed of 20 graphs took from 0.35 s to 35 s over seeds 0..29, too uneven
# for a steady per-seed figure; n = 8 is covered by the fixed exact graphs.
SEARCH_N_MAX = 7
# At --n-max 7 a few 7-vertex samples still take most of the time: the
# summed time of 16 search seeds spread 0.39 (interquartile range over
# median) from one random set of seeds to another, and no run length in the
# time budget averages that out.  So oracle-small searches the same seeds,
# 0..15, whatever the workload seed; only its other inputs follow the seed.
SEARCH_SEEDS = range(16)
PROBE_N = 6  # graphs for the oracle probes on the construct workloads
PROBE_SEARCHES = 3


def path_intervals(n: int) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(i), Fraction(i + 1)) for i in range(n)]


def star_intervals(leaves: int) -> list[tuple[Fraction, Fraction]]:
    centre = (Fraction(0), Fraction(2 * leaves))
    return [centre] + [(Fraction(2 * i + 1), Fraction(2 * i + 1)) for i in range(leaves)]


def caterpillar_intervals(spine: int) -> list[tuple[Fraction, Fraction]]:
    """A path of `spine` vertices with one pendant leg on each."""
    body = [(Fraction(3 * i), Fraction(3 * i + 3)) for i in range(spine)]
    legs = [(Fraction(3 * i + 1), Fraction(3 * i + 1)) for i in range(spine)]
    return body + legs


def interval_edges(ivs) -> list[tuple[int, int]]:
    """Closed-interval overlap edges (u < v), by a sweep in O(n log n + m)."""
    active: list[tuple[Fraction, int]] = []
    edges = []
    for v in sorted(range(len(ivs)), key=lambda v: ivs[v][0]):
        lo, hi = ivs[v]
        while active and active[0][0] < lo:
            heapq.heappop(active)
        edges.extend((min(u, v), max(u, v)) for _, u in active)
        heapq.heappush(active, (hi, v))
    return edges


def _model_text(ivs) -> str:
    # byte for byte what `intervalcubes gen` writes
    obj = IntervalModel(tuple(ivs)).to_json_obj()
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _edge_list_text(ivs, rng: random.Random) -> str:
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in interval_edges(ivs)]
    rng.shuffle(edges)
    return "".join([f"{len(ivs)} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


class _Writer:
    """Writes one workload's input files and collects its jobs."""

    def __init__(self, seed: int, directory: Path, generate):
        self.seed = seed
        self.directory = directory
        self.generate = generate
        self.jobs: list[dict] = []
        self.intervals: dict[str, list] = {}

    def gen(self, dist: str, n: int, offset: int = 0):
        cfg = GenConfig(n=n, seed=self.seed + offset, dist=dist)
        return list(self.generate(cfg).intervals)

    def relabel(self, name: str, ivs) -> list:
        """The fixed shapes list their vertices in order along the line;
        put them in a seeded random order, as generated models already are."""
        ivs = list(ivs)
        random.Random(f"{self.seed}:{name}:labels").shuffle(ivs)
        return ivs

    def graph(self, name: str, ivs, fmt: str) -> dict:
        """Write the graph as an interval model ("model") or as an edge
        list in a seeded random order ("edges")."""
        if fmt == "model":
            text = _model_text(ivs)
        else:
            text = _edge_list_text(ivs, random.Random(f"{self.seed}:{name}"))
        path = self.directory / f"{name}.{'json' if fmt == 'model' else 'txt'}"
        path.write_text(text, encoding="utf-8")
        self.intervals[name] = ivs
        return {"name": name, "graph": str(path), "n": len(ivs), "format": fmt}

    def construct(self, name: str, ivs, fmt: str) -> dict:
        job = {"kind": "construct", **self.graph(name, ivs, fmt)}
        self.jobs.append(job)
        return job

    def oracle_probes(self):
        """Small exact runs, one per input format, and three short searches,
        so that the construct workloads report every metric.  Interpreter
        start-up dominates them, so they run twice a round, half a round
        apart: after the first half of the construct jobs and at the end."""
        model = self.graph(f"probe-uniform-{PROBE_N}", self.gen("uniform", PROBE_N), "model")
        edges = self.graph(f"probe-nested-{PROBE_N}", self.gen("nested-heavy", PROBE_N), "edges")
        probes = [_exact_job(model), _exact_job(edges)]
        probes += [_search_job(self.seed + i, PROBE_N) for i in range(PROBE_SEARCHES)]
        half = len(self.jobs) // 2
        self.jobs[half:half] = probes
        self.jobs += probes


def _exact_job(graph: dict, cubicity: int | None = None) -> dict:
    return {**graph, "kind": "exact", "cubicity": cubicity}


def _search_job(seed: int, n_max: int) -> dict:
    return {"kind": "search", "name": f"search-{seed}", "seed": seed,
            "count": SEARCH_COUNT, "n_max": n_max}


def write_inputs(workload: str, seed: int, directory: Path, generate=random_interval_model):
    """Write the workload's inputs into `directory`.

    Returns the jobs and each input's intervals by name, in the vertex
    order of its file.
    `generate` is the library's model generator, passed in so that set-up
    can time it.
    """
    w = _Writer(seed, directory, generate)
    if workload == "model-dense":
        # each file is byte for byte what `intervalcubes gen` writes for its seed
        for i in range(DENSE_SEEDS):
            for dist in ("uniform", "nested-heavy"):
                w.construct(f"{dist}-{DENSE_N}-{i}", w.gen(dist, DENSE_N, i), "model")
        w.oracle_probes()
    elif workload == "edgelist-sparse":
        shapes = {
            f"path-{SPARSE_N}": path_intervals(SPARSE_N),
            f"star-{SPARSE_N}": star_intervals(SPARSE_N),
            f"caterpillar-{SPARSE_N // 2}": caterpillar_intervals(SPARSE_N // 2),
        }
        for name, ivs in shapes.items():
            w.construct(name, w.relabel(name, ivs), "edges")
        w.construct(f"unit-jitter-{SPARSE_N}", w.gen("unit-jitter", SPARSE_N), "edges")
        w.oracle_probes()
    elif workload == "oracle-small":
        path = w.construct("path-8", w.relabel("path-8", path_intervals(8)), "model")
        star = w.construct("star-6", w.relabel("star-6", star_intervals(6)), "edges")
        # exact on P_8 is one long operation whose time depends a little on
        # the vertex order, so it runs on two seeded orders, half a round apart
        path_exacts = [_exact_job(path, cubicity=1),
                       _exact_job(w.graph("path-8-b", w.relabel("path-8-b", path_intervals(8)),
                                          "model"), cubicity=1)]
        searches = [_search_job(i, SEARCH_N_MAX) for i in SEARCH_SEEDS]
        # interpreter start-up dominates construct and verify here, so they
        # run four times a round, a quarter of a round apart
        quarter = len(searches) // 4
        w.jobs += [path_exacts[0], _exact_job(star, cubicity=3), *searches[:quarter],
                   path, star, *searches[quarter:2 * quarter],
                   path, star, path_exacts[1], *searches[2 * quarter:3 * quarter],
                   path, star, *searches[3 * quarter:]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return w.jobs, w.intervals


def best_dimension(psi: int, alpha: int) -> int:
    """The dimension `build_best` reaches, including its degenerate cases:
    a disjoint union of cliques takes one dimension, a clique none."""
    if psi < 2:
        return 0 if alpha <= 1 else 1
    return min((psi - 1).bit_length() + 2, (alpha - 1).bit_length())


def add_expectations(jobs: list[dict], intervals: dict[str, list], seed: int) -> dict:
    """Fill in what each job's output must be.  Returns the summed psi and
    alpha of the construct inputs."""
    totals = {"psi": 0, "alpha": 0}
    for job in jobs:
        # a job that runs more than once a round appears each time, as the same dict
        if job["kind"] == "search" or "lo" in job or "dim" in job:
            continue
        ivs = intervals[job["name"]]
        edges = interval_edges(ivs)
        ordering = model_to_clique_ordering(IntervalModel(tuple(ivs)))
        report = param_report(ordering, Graph(len(ivs), edges), label_vertices(ordering))
        dim = best_dimension(report.psi, report.alpha)
        if job["kind"] == "exact":
            job["lo"], job["hi"] = report.lower_bound, dim
            continue
        totals["psi"] += report.psi
        totals["alpha"] += report.alpha
        job["dim"] = dim
        # the corrupted copy shifts about 1% of the vertices, chosen from
        # the graph alone; the verifier must name exactly the edges cut
        rng = random.Random(f"{seed}:{job['name']}:moved")
        moved = set(rng.sample(range(len(ivs)), max(1, round(len(ivs) / 100))))
        job["moved"] = sorted(moved)
        job["missing"] = sorted([u, v] for u, v in edges if (u in moved) != (v in moved))
    return totals
