"""Benchmark for infoval: identification round trips and experiment valuation.

Run from the root of a checkout:

    python3 bench/run.py --workload roundtrip-highdim --seed 3 --seconds 40 --trace 0

Workloads: roundtrip-manyactions, roundtrip-highdim, rank-experiments (see
workloads.py and BENCHMARK.json). The library is imported from ./src of the
checkout, never from elsewhere; without it the run fails with exit code 2.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. attempted and failed count the workload's ops, not
their calls (see measure.Runner.totals), so they do not depend on how many
passes a run makes. With --trace 0 the metrics are the end-to-end ones:

    setup_s      median time of a fresh import of infoval plus building the
                 workload's inputs from the corpus (read once beforehand),
                 over SETUP_REPEATS repeats: one before the first pass, the
                 others between passes, spread over the run. Repeats made
                 back to back all fall in one stretch of the machine's speed
                 (see measure.py), and their median moved by a factor 1.8
                 from run to run; spread out, the median sees the run's mix
    forward_s    per pass: generate_identification, or value_of_experiment
                 and rank
    backward_s   per pass: reconstruct_value, or experiment_of
    reject_s     per pass: the invalid inputs that must be rejected
    peak_rss_mb  peak resident memory of the process

A "per pass" figure is the sum over the workload's ops of each op's typical
time in the run, its fastest sample (see measure.py). An op that runs out of
its time budget counts as failed, counts its budget as its time and is not
run again. With --trace 1 every public function of the library is wrapped
(tracer.py) and the metrics are the per-layer ones. The line before the result holds informational fields:
environment, src/ line count, outputs_changed against the committed digests,
failures, and the per-workload breakdowns. The round trips' inputs do not
depend on the seed, so their outputs_changed is always filled in; the
rank-experiments digests are committed for seeds 0-9 only
(make_corpus.DIGEST_SEEDS), and with any other seed its outputs_changed is
null.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from corpus import load_corpus  # noqa: E402  (bench modules sit next to this file)
from measure import Runner  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21


class MissingLibrary(Exception):
    """The checkout has no importable src/infoval."""


def import_library() -> SimpleNamespace:
    """A fresh import of infoval from the checkout's src/."""
    for name in [m for m in sys.modules if m == "infoval" or m.startswith("infoval.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("infoval")
    if Path(package.__file__).resolve().parent != SRC / "infoval":
        raise MissingLibrary(f"infoval was imported from {package.__file__}, not from {SRC}")
    mods = {short: importlib.import_module(f"infoval.{short}") for short in (*MODULES, "errors")}
    return SimpleNamespace(
        **mods,
        package_modules={m: sys.modules[m] for m in sys.modules if m == "infoval" or m.startswith("infoval.")},
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(runner: Runner, setup_s: float) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "forward_s": {"value": runner.group_seconds("forward"), "unit": "s"},
        "backward_s": {"value": runner.group_seconds("backward"), "unit": "s"},
        "reject_s": {"value": runner.group_seconds("reject"), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(runner: Runner, tracer: Tracer) -> dict:
    table = tracer.per_pass(runner.executions)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "linprog.maximize",
        "decision.undominated_actions",
        "decision.compute_subdivision",
        "decision.evaluate_value",
        "geometry.hull_halfspaces",
        "geometry.vertices_of",
        "geometry.facet_between",
        "information.bayes_split",
        "information.expected_value",
        "information.experiment_of",
    ):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    out["decision.undominated_actions.kept_ratio"] = (
        _ratio(get("decision.undominated_actions", "kept"), get("decision.undominated_actions", "actions")),
        "ratio",
    )
    for name in ("geometry.hull_halfspaces", "geometry.vertices_of"):
        out[f"{name}.subsets"] = (get(name, "subsets"), "count")
        out[f"{name}.yield"] = (_ratio(get(name, "found"), get(name, "subsets")), "ratio")
    out["geometry.facet_between.hit_ratio"] = (
        _ratio(get("geometry.facet_between", "hits"), get("geometry.facet_between", "calls")),
        "ratio",
    )
    for name in (
        "gen_affineness_equalities",
        "gen_nonaffineness_inequalities",
        "gen_utility_differences",
        "extract_subdivision",
        "reconstruct_value",
    ):
        out[f"identification.{name}.self_s"] = (get(f"identification.{name}", "self_s"), "s")
    generate = "identification.generate_identification"
    out["identification.statements"] = (get(generate, "statements"), "count")
    out["identification.differences"] = (get(generate, "differences"), "count")
    out["identification.max_bits"] = (tracer.max_of(generate, "max_bits"), "bits")
    out["trace.overhead_s"] = (trace_overhead(runner), "s")
    out["ops_failed_frac"] = (ops_failed_frac(runner), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def ops_failed_frac(runner: Runner) -> float:
    """Share of the workload's ops that failed at least once (see Runner.totals)."""
    attempted, failed, _ = runner.totals()
    return _ratio(failed, attempted)


def trace_overhead(runner: Runner) -> float:
    """Traced minus untraced time per pass, over ops that ran both ways."""
    total = 0.0
    for op in runner.ops:
        stats = runner.stats[op.key]
        if op.group != "reject" and stats.samples and stats.traced:
            total += stats.typical(traced=True) - stats.typical()
    return total


def info(runner: Runner, workload: str, seed: int, corpus: dict, setup_times: list[float]) -> dict:
    attempted, failed, incorrect = runner.totals()
    fields = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "infoval").glob("*.py"))),
        "passes": runner.passes,
        "calls": runner.calls(),
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "ops_failed_frac": ops_failed_frac(runner),
        "setup_s_samples": setup_times,
        "timeouts": [key for key, s in runner.stats.items() if s.timed_out],
        "op_s": {key: s.typical() for key, s in runner.stats.items()},
        "failures": runner.failures(),
    }
    committed = corpus.get("digests", {}).get(workload, {})
    if workload in workloads.SEEDED_INPUTS:
        committed = committed.get(str(seed))
    if committed is None:
        fields["outputs_changed"] = None
    else:
        fields["outputs_changed"] = sum(
            1
            for key, s in runner.stats.items()
            if key in committed and s.digest is not None and s.digest != committed[key]
        )
    if workload.startswith("roundtrip-"):
        forward, backward = runner.group_seconds("forward"), runner.group_seconds("backward")
        fields.update(generate_s=forward, reconstruct_s=backward, roundtrip_s=forward + backward)
    # a cheap op's sample is the mean of a batch of calls (measure.py)
    valuations = [
        t for op in runner.ops if op.kind == "valuation" for t in runner.stats[op.key].samples
    ]
    if valuations:
        count = sum(1 for op in runner.ops if op.kind == "valuation")
        per_pass = sum(runner.stats[op.key].typical() for op in runner.ops if op.kind == "valuation")
        cuts = statistics.quantiles(valuations, n=100) if len(valuations) > 1 else valuations * 99
        fields["valuations_per_s"] = count / per_pass
        fields["valuation_us_p50"] = statistics.median(valuations) * 1e6
        fields["valuation_us_p99"] = cuts[98] * 1e6
        fields["valuation_samples"] = len(valuations)
    return fields


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infoval" / "__init__.py").is_file():
        print(f"no infoval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    corpus = load_corpus()
    setup_times: list[float] = []

    def set_up():
        start = perf_counter()
        mods = import_library()
        ops = workloads.build(mods, corpus, args.workload, args.seed)
        setup_times.append(perf_counter() - start)
        return mods, ops

    def more_setups(progress: float) -> None:
        """Catch up with SETUP_REPEATS spread evenly over the run.

        Afterwards sys.modules holds the first import again, the one the ops
        call: a function-level import in the library (decision.py imports
        InconsistentData inside a function) would otherwise raise a class of
        the newest import, which the ops' `rejects` do not match.
        """
        while len(setup_times) < 1 + (SETUP_REPEATS - 1) * progress:
            set_up()
            sys.modules.update(mods.package_modules)
            gc.collect()  # the replaced modules, so that peak memory does not hang on gc timing

    mods, ops = set_up()
    tracer = Tracer(mods.package_modules) if args.trace else None
    runner = Runner(ops, tracer)
    runner.run(args.seconds, between_passes=more_setups)
    more_setups(1.0)

    attempted, failed, incorrect = runner.totals()
    fields = info(runner, args.workload, args.seed, corpus, setup_times)
    if tracer is not None:
        metrics = per_layer(runner, tracer)
        fields["layers"] = tracer.per_pass(runner.executions)
    else:
        metrics = end_to_end(runner, statistics.median(setup_times))
    print(json.dumps({"info": fields}))
    print(
        json.dumps(
            {"correct": incorrect == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MissingLibrary as exc:
        print(exc, file=sys.stderr)
        sys.exit(2)
