"""The three workloads: ops built from the committed corpus and the seed, with checks.

roundtrip-manyactions and roundtrip-highdim run generate_identification
(forward) and then reconstruct_value on its output (backward) for each
instance, at the instance's committed interior prior, plus fixed mutated
datasets that reconstruct_value must reject. The seed orders the instances
and the mutated datasets within a pass and changes no input: the work of a
round trip depends on its prior, and the sum of the fastest generate times
of manyactions moved by 12 % (IQR over median) between priors drawn from
ten seeds, half the gate's bound, on top of the machine's noise. For the
same reason the problems keep their committed order of states and actions:
the simplex behind dominance pivots by Bland's rule, so relabeling alone
moved its work by up to 40 %.

rank-experiments values experiment pairs (forward), recovers the canonical
experiment behind a posterior distribution (backward), and sends invalid
requests that must be rejected. There the seed relabels states, actions and
signals, which leaves every value unchanged.

Checks use only exact arithmetic written here and the committed answers,
never the library, and they accept any witness points that satisfy them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from random import Random

from corpus import (
    Relabeling,
    dec_row,
    dec_rows,
    decode_data,
    enc_row,
    encode_data,
    encode_value_fn,
    instance_rng,
)
from measure import CheckFailed, Op

WORKLOADS = ("roundtrip-manyactions", "roundtrip-highdim", "rank-experiments")
# workloads whose inputs, not only their order, depend on the seed
SEEDED_INPUTS = ("rank-experiments",)

# Per-op budget unless an instance sets its own; the slowest valid op of the
# corpus takes under 2 s, so only a far slower library runs out of it.
BUDGET_S = 20.0

IDENTIFICATION_REJECTIONS = ("MalformedData", "InconsistentData", "SingularSolve")


def build(mods, corpus: dict, workload: str, seed: int) -> list[Op]:
    spec = corpus[workload]
    if workload == "rank-experiments":
        return _rank_ops(mods, spec, seed)
    return _roundtrip_ops(mods, spec, seed)


def _errors(mods, names) -> tuple[type, ...]:
    return tuple(getattr(mods.errors, name) for name in names)


# ---------------------------------------------------------------------------
# exact arithmetic for the checks
# ---------------------------------------------------------------------------


def _value_at(utility, x) -> Fraction:
    return max(sum(u * c for u, c in zip(row, x)) for row in utility)


def _expectation(utility, dist) -> Fraction:
    return sum(p * _value_at(utility, b.coords) for b, p in dist.atoms)


def _mean(dist) -> tuple[Fraction, ...]:
    n = len(dist.atoms[0][0].coords)
    return tuple(sum(p * b.coords[i] for b, p in dist.atoms) for i in range(n))


# ---------------------------------------------------------------------------
# identification round trips
# ---------------------------------------------------------------------------


def check_generated(data, *, prior, utility, cells) -> None:
    """Every statement holds for the true problem, and each gap is exact."""
    if data.prior.coords != prior:
        raise CheckFailed("the data's prior is not the requested prior")
    equalities = sum(1 for s in data.ordinal if s.relation == "eq")
    if equalities != len(cells):
        raise CheckFailed(f"{equalities} affineness equalities for {len(cells)} cells")
    for index, s in enumerate(data.ordinal):
        if _mean(s.lhs) != prior or _mean(s.rhs) != prior:
            raise CheckFailed(f"statement {index} does not average to the prior")
        left, right = _expectation(utility, s.lhs), _expectation(utility, s.rhs)
        holds = left == right if s.relation == "eq" else s.relation == "gt" and left > right
        if not holds:
            raise CheckFailed(f"statement {index} ({s.relation}) fails for the true problem")
    for index, d in enumerate(data.cardinal):
        if _mean(d.lhs) != prior or _mean(d.rhs) != prior:
            raise CheckFailed(f"difference {index} does not average to the prior")
        if _expectation(utility, d.lhs) - _expectation(utility, d.rhs) != d.gap:
            raise CheckFailed(f"difference {index} states a wrong gap")


def check_reconstructed(fn, *, utility, cells) -> None:
    """Cells match the committed vertex sets; pieces are the winners' rows plus one transfer."""
    keys = [frozenset(v.coords for v in cell.geometry.vertices) for cell in fn.subdivision.cells]
    if len(keys) != len(cells) or set(keys) != set(cells):
        raise CheckFailed("cell vertex sets differ from the committed ones")
    shifts = {
        tuple(a - u for a, u in zip(piece.coeffs, utility[cells[key]]))
        for key, piece in zip(keys, fn.pieces)
    }
    if len(shifts) != 1:
        raise CheckFailed("pieces are not the winners' payoff rows up to one state transfer")


def _roundtrip_ops(mods, spec: dict, seed: int) -> list[Op]:
    ident = mods.identification
    order = Random(seed)
    instances, probes = list(spec["instances"]), list(spec["probes"])
    order.shuffle(instances)
    order.shuffle(probes)
    ops = []
    for inst in instances:
        key = inst["id"]
        utility = dec_rows(inst["utility"])
        prior = dec_row(inst["prior"])
        cells = {
            frozenset(dec_row(v) for v in vertices): winner
            for winner, vertices in zip(inst["winners"], inst["cells"])
        }
        dp = mods.decision.make_problem(utility)
        belief = mods.geometry.Belief(prior)
        budget = inst.get("budget_s", {})
        ops.append(
            Op(
                key=f"{key}/generate",
                group="forward",
                call=lambda _, dp=dp, belief=belief: ident.generate_identification(dp, belief),
                budget=budget.get("generate", BUDGET_S),
                check=partial(check_generated, prior=prior, utility=utility, cells=cells),
                encode=encode_data,
            )
        )
        ops.append(
            Op(
                key=f"{key}/reconstruct",
                group="backward",
                call=lambda data: ident.reconstruct_value(data),
                budget=budget.get("reconstruct", BUDGET_S),
                check=partial(check_reconstructed, utility=utility, cells=cells),
                needs=f"{key}/generate",
                encode=encode_value_fn,
            )
        )
    rejects = _errors(mods, IDENTIFICATION_REJECTIONS)
    for probe in probes:
        data = decode_data(mods, probe["data"])
        ops.append(
            Op(
                key=f"{probe['id']}/reject",
                group="reject",
                call=lambda _, data=data: ident.reconstruct_value(data),
                budget=BUDGET_S,
                rejects=rejects,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# experiment valuation
# ---------------------------------------------------------------------------


def check_recovered(experiment, *, prior, dist) -> None:
    """The experiment's Bayes split at the prior is exactly the distribution."""
    rows = experiment.likelihood
    if len(rows) != len(prior):
        raise CheckFailed("recovered experiment has the wrong number of states")
    merged: dict[tuple, Fraction] = {}
    for s in range(len(rows[0])):
        marginal = sum(m * row[s] for m, row in zip(prior, rows))
        if marginal:
            posterior = tuple(m * row[s] / marginal for m, row in zip(prior, rows))
            merged[posterior] = merged.get(posterior, Fraction(0)) + marginal
    if merged != {b.coords: p for b, p in dist.atoms}:
        raise CheckFailed("recovered experiment does not generate the distribution")


def _equals(expected, result) -> None:
    if result != expected:
        raise CheckFailed(f"expected {expected}, got {result}")


def _experiment(mods, rows, signal_order):
    labels = tuple(f"s{i + 1}" for i in range(len(signal_order)))
    return mods.information.Experiment(labels, tuple(tuple(row[c] for c in signal_order) for row in rows))


def _rank_ops(mods, spec: dict, seed: int) -> list[Op]:
    info = mods.information
    ops = []
    for inst in spec["instances"]:
        key = inst["id"]
        base = dec_rows(inst["utility"])
        rng = instance_rng(seed, key)
        relabel = Relabeling.draw(rng, len(base[0]), len(base))
        dp = mods.decision.make_problem(relabel.utility(base))
        prior = relabel.point(dec_row(inst["prior"]))
        belief = mods.geometry.Belief(prior)
        experiments = []
        for rows in (inst["first"], inst["second"]):
            order = list(range(len(rows[0])))
            rng.shuffle(order)
            experiments.append(_experiment(mods, relabel.point(dec_rows(rows)), order))
        for label, experiment, value in zip("ab", experiments, inst["values"]):
            ops.append(
                Op(
                    key=f"{key}/value-{label}",
                    group="forward",
                    kind="valuation",
                    call=lambda _, dp=dp, belief=belief, e=experiment: info.value_of_experiment(dp, belief, e),
                    budget=BUDGET_S,
                    check=partial(_equals, Fraction(value)),
                    encode=str,
                )
            )
        ops.append(
            Op(
                key=f"{key}/rank",
                group="forward",
                call=lambda _, dp=dp, belief=belief, pair=tuple(experiments): info.rank(dp, belief, *pair),
                budget=BUDGET_S,
                check=lambda order, expected=inst["order"]: _equals(expected, order.value),
                encode=lambda order: order.value,
            )
        )
        for label, experiment in zip("ab", experiments):
            dist = info.bayes_split(belief, experiment)
            ops.append(
                Op(
                    key=f"{key}/recover-{label}",
                    group="backward",
                    call=lambda _, belief=belief, dist=dist: info.experiment_of(belief, dist),
                    budget=BUDGET_S,
                    check=partial(check_recovered, prior=prior, dist=dist),
                    encode=lambda e: [enc_row(row) for row in e.likelihood],
                )
            )
    for probe in spec["probes"]:
        ops.append(
            Op(
                key=f"{probe['id']}/reject",
                group="reject",
                call=_rank_probe_call(mods, probe),
                budget=BUDGET_S,
                rejects=_errors(mods, probe["rejects"]),
            )
        )
    return ops


def _rank_probe_call(mods, probe: dict):
    info = mods.information
    dp = mods.decision.make_problem(dec_rows(probe["utility"]))
    prior = mods.geometry.Belief(dec_row(probe["prior"]))
    rows = dec_rows(probe["experiment"])
    experiment = _experiment(mods, rows, range(len(rows[0])))
    if probe["call"] == "value_of_experiment":
        return lambda _: info.value_of_experiment(dp, prior, experiment)
    dist = info.bayes_split(mods.geometry.Belief(dec_row(probe["split_prior"])), experiment)
    return lambda _: info.experiment_of(prior, dist)
