"""The benchmark's workloads and the layer-to-metric map.

Each workload is a complete ``repro.run(spec)`` call.  The spec document is
generated here from the benchmark's ``--seed`` (it becomes the spec's
``context.seed``); the program under test receives only that document.
Graphs, sizes and parallelism are fixed per workload, so two seeds differ
only in the random draws, never in the amount of work asked for.
"""

from __future__ import annotations

#: A seed kept out of development runs.  A later claim of a gain must also
#: hold when the benchmark is run with ``--seed`` set to this value.
HELD_OUT_SEED = 7_919


def _maximize(dataset, probability, approach, num_samples, k, context, pool_size):
    return {
        "kind": "maximize",
        "graph": {"dataset": dataset, "probability": probability},
        "estimator": {"approach": approach, "num_samples": num_samples},
        "k": k,
        "pool_size": pool_size,
        "context": context,
    }


# The oracle pools, and the snapshot workload's k, are small so that one run
# takes a few seconds and a measurement holds enough runs for a steady median
# on a shared host.


def ris_maximize_wiki_vote(seed: int) -> dict:
    return _maximize(
        "wiki_vote", "uc0.1", "ris", 1024, 10, {"seed": seed, "jobs": 2}, pool_size=4_000
    )


def snapshot_maximize_ba_d(seed: int) -> dict:
    return _maximize("ba_d", "uc0.1", "snapshot", 16, 1, {"seed": seed}, pool_size=2_000)


def ris_sweep_karate(seed: int) -> dict:
    # examples/specs/solution_distribution_study_ris.json with jobs=2, copied
    # so that an edit to the example does not silently change the benchmark.
    return {
        "kind": "sweep",
        "graph": {"dataset": "karate", "probability": "uc0.1"},
        "approach": "ris",
        "k": 1,
        "min_exponent": 2,
        "max_exponent": 12,
        "num_trials": 40,
        "pool_size": 50_000,
        "context": {"seed": seed, "jobs": 2},
    }


def oneshot_bitparallel_ba_d(seed: int) -> dict:
    return _maximize(
        "ba_d", "iwc", "oneshot", 64, 1, {"seed": seed, "batch_mode": "bitparallel"},
        pool_size=5_000,
    )


#: Workload name -> spec function.  Each workload's one-line rationale is
#: declared with it in BENCHMARK.json.
WORKLOADS = {
    spec.__name__: spec
    for spec in (
        ris_maximize_wiki_vote,
        snapshot_maximize_ba_d,
        ris_sweep_karate,
        oneshot_bitparallel_ba_d,
    )
}

#: Per-layer metric -> {workload: end-to-end metrics it should move there}.
#: A workload missing from a row is one where the prediction for a change to
#: that layer is "no change".
LAYER_MAP = {
    "graphs.resolve_s": {"ris_maximize_wiki_vote": ["run_s"]},
    "oracle.build_s": {
        "ris_maximize_wiki_vote": ["run_s", "peak_rss_mb"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "oracle.rr_vertices_per_s": {
        "ris_maximize_wiki_vote": ["run_s", "peak_rss_mb"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "oracle.score_s": {
        "ris_maximize_wiki_vote": ["run_s"],
        "ris_sweep_karate": ["run_s"],
    },
    "estimator.build_s": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "estimator.estimate_s": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "estimator.estimate_us": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "estimator.update_s": {"snapshot_maximize_ba_d": ["run_s"]},
    "greedy.overhead_s": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "estimator.build_edges_per_s": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    "estimator.estimate_edges_per_s": {
        "snapshot_maximize_ba_d": ["run_s"],
        "oneshot_bitparallel_ba_d": ["run_s"],
    },
    # Only the oracle's bit-parallel RR path counts lanes: Oneshot's forward
    # cascades emit no counter, so a change to them cannot move this figure.
    "bitparallel.lane_fill": {"oneshot_bitparallel_ba_d": ["run_s"]},
    "runtime.pickle_bytes": {
        "ris_maximize_wiki_vote": ["run_s", "peak_rss_mb"],
        "ris_sweep_karate": ["run_s", "peak_rss_mb"],
    },
    "runtime.chunks": {
        "ris_maximize_wiki_vote": ["run_s"],
        "ris_sweep_karate": ["run_s"],
    },
    "runtime.kernel_s": {
        "ris_maximize_wiki_vote": ["run_s"],
        "ris_sweep_karate": ["run_s"],
    },
    "runtime.parallel_efficiency": {
        "ris_maximize_wiki_vote": ["run_s"],
        "ris_sweep_karate": ["run_s"],
    },
    "runtime.pool_start_s": {
        "ris_maximize_wiki_vote": ["run_s"],
        "ris_sweep_karate": ["run_s"],
    },
    "trials.point_s.<theta>": {"ris_sweep_karate": ["run_s"]},
    "trials.per_trial_ms": {"ris_sweep_karate": ["run_s"]},
}


def spec_document(name: str, seed: int) -> dict:
    """The spec document of workload ``name`` for benchmark seed ``seed``."""
    return WORKLOADS[name](seed)
