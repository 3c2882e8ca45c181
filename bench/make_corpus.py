"""Regenerate bench/corpus.json: base instances, committed answers, probes, digests.

    python3 bench/make_corpus.py

The answers (undominated actions, cell vertex sets, experiment values and
orders) and the output digests are whatever the library in ./src computes
when this runs; the committed file holds those of the library as it was when
the benchmark was introduced. Rerun it only to extend the corpus, never to
make a run pass: a changed answer is a changed output.

Instances come from fixed generators and are kept or skipped by structure
only (number of undominated actions, cell vertex counts), never by timing or
by whether the library handles them. Mutated datasets are built from fixed
base data by the operators named in their ids; every one of them describes
data that no convex value function satisfies, so reconstruct_value must
reject each.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from math import comb
from random import Random

from corpus import CORPUS_PATH, draw_prior, enc_row, encode_data
from measure import Runner
import run
import workloads

DIGEST_SEEDS = range(10)

ROUNDTRIP_SPECS = {
    # (states, actions, count)
    # 8 actions, of which 2-4 survive, so generate is LP-bound. At k = 16 it
    # takes 1.5-3 s and at k = 10-12 0.2-0.7 s on the Xeon of measure.py:
    # too long for a run to time it in enough of the machine's fast
    # stretches. At k = 8 it takes 0.07-0.13 s.
    "roundtrip-manyactions": [(2, 8, 3), (3, 8, 3)],
    # one n = 5 instance: reconstruct at n = 5 takes 0.2-0.7 s, and more of
    # them would leave too few passes in a run for the same reason
    "roundtrip-highdim": [(4, 4, 3), (5, 4, 1), (6, 4, 1)],
}

# reconstruct_value at n = 6 enumerates sum C(V, 5) hull subsets; the instance
# is drawn to need at least this many, far beyond what its budget allows
N6_MIN_SUBSETS = 50_000
N6_RECONSTRUCT_BUDGET_S = 2.0
N5_MAX_CELL_VERTICES = 12


def random_utility(rng: Random, n: int, k: int) -> list[tuple[Fraction, ...]]:
    rows: list[tuple[Fraction, ...]] = []
    while len(rows) < k:
        row = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 20)) for _ in range(n))
        if row not in rows:
            rows.append(row)
    return rows


def random_likelihood(rng: Random, n: int, signals: int) -> list[tuple[Fraction, ...]]:
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 6) for _ in range(signals)]
        if not any(weights):
            weights[rng.randrange(signals)] = 1
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return rows


def _acceptable(n: int, sub) -> bool:
    vertex_counts = [len(cell.geometry.vertices) for cell in sub.cells]
    if len(sub.cells) < (3 if n >= 4 else 2):
        return False
    if n == 5:
        return max(vertex_counts) <= N5_MAX_CELL_VERTICES
    if n == 6:
        return sum(comb(v, 5) for v in vertex_counts) >= N6_MIN_SUBSETS
    return True


def roundtrip_instances(mods, workload: str, specs=None) -> list[dict]:
    rng = Random(workload)
    out = []
    for n, k, count in specs or ROUNDTRIP_SPECS[workload]:
        for index in range(count):
            while True:
                utility = random_utility(rng, n, k)
                sub = mods.decision.compute_subdivision(mods.decision.make_problem(utility))
                if _acceptable(n, sub):
                    break
            key = f"n{n}k{k}-{index}"
            inst = {
                "id": key,
                "utility": [enc_row(row) for row in utility],
                "prior": enc_row(draw_prior(Random(f"{workload}:{key}:prior"), n)),
                "winners": [cell.action_index for cell in sub.cells],
                "cells": [[enc_row(v.coords) for v in cell.geometry.vertices] for cell in sub.cells],
            }
            if n == 6:
                inst["budget_s"] = {"reconstruct": N6_RECONSTRUCT_BUDGET_S}
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# mutated datasets
# ---------------------------------------------------------------------------


def _zero_gap(data):
    data["cardinal"][0]["gap"] = "0"


def _negated_gap(data):
    data["cardinal"][0]["gap"] = str(-Fraction(data["cardinal"][0]["gap"]))


def _swapped_sides(data):
    d = data["cardinal"][0]
    d["lhs"], d["rhs"] = d["rhs"], d["lhs"]


def _flipped_edge(data):
    data["cardinal"][0]["edge"].reverse()


def _dropped_difference(data):
    data["cardinal"].pop()


def _dropped_pair(data):
    first = next(i for i, s in enumerate(data["ordinal"]) if s["tag"][0] == "pair")
    data["ordinal"].pop(first)


def _root_out_of_range(data):
    data["root"] = sum(1 for s in data["ordinal"] if s["tag"][0] == "cell")


def _drop_last_cell(data):
    """Remove the last cell's equality with its pair statements and differences."""
    last = sum(1 for s in data["ordinal"] if s["tag"][0] == "cell") - 1
    data["ordinal"] = [
        s
        for s in data["ordinal"]
        if s["tag"] != ["cell", last] and not (s["tag"][0] == "pair" and last in s["tag"][1:])
    ]
    data["cardinal"] = [d for d in data["cardinal"] if last not in d["edge"]]


MUTATIONS = {
    "zero-gap": _zero_gap,
    "negated-gap": _negated_gap,
    "swapped-sides": _swapped_sides,
    "flipped-edge": _flipped_edge,
    "dropped-difference": _dropped_difference,
    "dropped-pair": _dropped_pair,
    "root-out-of-range": _root_out_of_range,
}


def _generated(mods, utility, prior) -> dict:
    dp = mods.decision.make_problem(utility)
    return encode_data(mods.identification.generate_identification(dp, mods.geometry.Belief(prior)))


def _mutants(name: str, base: dict, operators) -> list[dict]:
    out = []
    for op in operators:
        data = copy.deepcopy(base)
        MUTATIONS[op](data)
        out.append({"id": f"{name}-{op}", "data": data})
    return out


def roundtrip_probes(mods, workload: str, instances: list[dict]) -> list[dict]:
    rng = Random(f"{workload}-probes")
    if workload == "roundtrip-manyactions":
        # the two reproductions of missing checks in reconstruct_value
        safe_or_bet = _generated(mods, [[0, 0], [-1, 1]], (Fraction(1, 2),) * 2)
        _zero_gap(safe_or_bet)
        guess = _generated(mods, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (Fraction(1, 3),) * 3)
        _drop_last_cell(guess)
        probes = [
            {"id": "safe-or-bet-zero-gap", "data": safe_or_bet},
            {"id": "guess-the-state-dropped-cell", "data": guess},
        ]
        base_inst = next(i for i in instances if i["id"] == "n3k8-0")
        operators = list(MUTATIONS)
    else:
        probes = []
        base_inst = next(i for i in instances if i["id"] == "n4k4-0")
        operators = ["zero-gap", "negated-gap", "flipped-edge", "dropped-pair"]
    utility = [tuple(Fraction(v) for v in row) for row in base_inst["utility"]]
    base = _generated(mods, utility, draw_prior(rng, len(utility[0])))
    return probes + _mutants(base_inst["id"], base, operators)


# ---------------------------------------------------------------------------
# experiment valuation
# ---------------------------------------------------------------------------


def rank_corpus(mods) -> dict:
    info = mods.information
    rng = Random("rank-experiments")
    instances = []
    for n in range(2, 7):
        for k in (4, 8, 16, 32):
            utility = random_utility(rng, n, k)
            prior = draw_prior(rng, n)
            pair = [random_likelihood(rng, n, rng.randint(2, 8)) for _ in range(2)]
            dp = mods.decision.make_problem(utility)
            belief = mods.geometry.Belief(prior)
            experiments = [
                info.Experiment(tuple(f"s{i + 1}" for i in range(len(rows[0]))), tuple(rows)) for rows in pair
            ]
            instances.append(
                {
                    "id": f"n{n}k{k}",
                    "utility": [enc_row(row) for row in utility],
                    "prior": enc_row(prior),
                    "first": [enc_row(row) for row in pair[0]],
                    "second": [enc_row(row) for row in pair[1]],
                    "values": [str(info.value_of_experiment(dp, belief, e)) for e in experiments],
                    "order": info.rank(dp, belief, *experiments).value,
                }
            )
    base = instances[-1]
    n = len(base["prior"])
    probes = [
        {
            "id": "boundary-prior",
            "call": "value_of_experiment",
            "utility": base["utility"],
            "prior": ["0"] + [str(Fraction(1, n - 1))] * (n - 1),
            "experiment": base["first"],
            "rejects": ["BoundaryPrior"],
        },
        {
            "id": "too-many-states",
            "call": "value_of_experiment",
            "utility": [row[:-1] for row in base["utility"]],
            "prior": [str(Fraction(1, n - 1))] * (n - 1),
            "experiment": base["first"],
            "rejects": ["ShapeMismatch"],
        },
        {
            "id": "wrong-mean",
            "call": "experiment_of",
            "utility": base["utility"],
            "prior": base["prior"],
            "split_prior": [str(Fraction(1, n))] * n,
            "experiment": base["first"],
            "rejects": ["MeanMismatch"],
        },
    ]
    return {"instances": instances, "probes": probes}


def _first_pass_digests(corpus: dict, workload: str, seed: int) -> dict[str, str]:
    mods = run.import_library()
    runner = Runner(workloads.build(mods, corpus, workload, seed))
    runner.run(0)
    print(workload, seed, runner.failures(), flush=True)
    return {key: stats.digest for key, stats in runner.stats.items() if stats.digest is not None}


def digests(corpus: dict) -> dict:
    """Digest of every op's output on the first pass.

    A round trip's inputs do not depend on the seed, so it has one table; the
    rank-experiments inputs are relabeled by the seed, so it has one per seed
    in DIGEST_SEEDS.
    """
    out: dict = {}
    for workload in workloads.WORKLOADS:
        if workload in workloads.SEEDED_INPUTS:
            out[workload] = {
                str(seed): _first_pass_digests(corpus, workload, seed) for seed in DIGEST_SEEDS
            }
        else:
            out[workload] = _first_pass_digests(corpus, workload, 0)
    return out


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_library()
    corpus: dict = {
        "note": "answers and digests computed by make_corpus.py; see its docstring",
    }
    for workload in ROUNDTRIP_SPECS:
        instances = roundtrip_instances(mods, workload)
        corpus[workload] = {"instances": instances, "probes": roundtrip_probes(mods, workload, instances)}
        print(workload, [(i["id"], len(i["winners"])) for i in instances], flush=True)
    corpus["rank-experiments"] = rank_corpus(mods)
    corpus["digests"] = digests(corpus)
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
