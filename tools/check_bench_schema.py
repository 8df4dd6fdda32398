#!/usr/bin/env python3
"""Guards the machine-readable bench reports against schema drift.

CI smoke-runs the whole bench suite (E1..E19) and validates the resulting
JSON here (stdlib only). The committed full-run reports at the repo root
satisfy the same schemas, so this can also be pointed at them.

Usage: check_bench_schema.py REPORT.json [REPORT.json ...]
"""
import json
import sys

# Per-experiment schema: required top-level keys, plus required keys for
# every element of the named arrays. Extra keys are allowed (additive
# evolution does not break consumers); missing keys fail CI.
SCHEMAS = {
    "e1_error_vs_rank": {
        "top": {"experiment", "n", "smoke", "results"},
        "arrays": {
            "results": {"name", "retained", "max_relerr", "mean_relerr"},
        },
    },
    "e2_accuracy_vs_k": {
        "top": {"experiment", "n", "reps", "smoke", "results"},
        "arrays": {
            "results": {"k", "retained", "mean_relerr", "max_relerr"},
        },
    },
    "e3_space_vs_n": {
        "top": {"experiment", "smoke", "results"},
        "arrays": {
            "results": {
                "n",
                "req_retained",
                "req_norm",
                "zw_retained",
                "zw_norm",
                "levels",
            },
        },
    },
    "e4_comparison": {
        "top": {"experiment", "n", "smoke", "results"},
        "arrays": {
            "results": {"name", "retained", "max_relerr", "mean_relerr"},
        },
    },
    "e5_mergeability": {
        "top": {
            "experiment",
            "n",
            "smoke",
            "streaming_max_relerr",
            "results",
        },
        "arrays": {
            "results": {
                "parts",
                "topology",
                "max_relerr",
                "mean_relerr",
                "retained",
                "vs_base",
            },
        },
    },
    "e6_adversarial_order": {
        "top": {"experiment", "n", "smoke", "results"},
        "arrays": {
            "results": {
                "order",
                "req_retained",
                "req_max_relerr",
                "ckms_retained",
                "ckms_max_relerr",
            },
        },
    },
    "e7_failure_prob": {
        "top": {"experiment", "n", "reps", "smoke", "results"},
        "arrays": {
            "results": {
                "k",
                "sigma",
                "sigma_k",
                "frac_over_1s",
                "frac_over_2s",
                "frac_over_3s",
                "mean_err",
            },
        },
    },
    "e8_unknown_n": {
        "top": {"experiment", "smoke", "results"},
        "arrays": {
            "results": {"n", "variant", "retained", "max_relerr",
                        "mean_relerr"},
        },
    },
    "e9_schedule_ablation": {
        "top": {"experiment", "n", "reps", "smoke", "results"},
        "arrays": {
            "results": {
                "order",
                "schedule",
                "k",
                "retained",
                "max_relerr",
                "mean_relerr",
            },
        },
    },
    "e10_throughput": {
        "top": {"experiment", "smoke", "results"},
        "arrays": {
            "results": {"name", "real_time_ns", "items_per_second"},
        },
    },
    "e11_smalldelta": {
        "top": {"experiment", "smoke", "formulas", "results"},
        "arrays": {
            "formulas": {"delta", "k_eq6", "k_eq15", "space_thm1",
                         "space_thm2"},
            "results": {"order", "k", "worst_max", "worst_mean"},
        },
    },
    "e12_all_quantiles": {
        "top": {"experiment", "n", "reps", "smoke", "results"},
        "arrays": {
            "results": {"k", "retained", "mean_of_maxes", "frac_over_eps"},
        },
    },
    "e13_hotpath": {
        "top": {"experiment", "items", "reps", "batch_api", "results"},
        "arrays": {
            "results": {"metric", "k", "value", "unit"},
        },
    },
    "e15_window": {
        "top": {
            "experiment",
            "items",
            "reps",
            "smoke",
            "results",
            "single_baseline",
            "summary",
        },
        "arrays": {
            "results": {
                "k",
                "buckets",
                "window_items",
                "bucket_items",
                "update_mups",
                "rotate_us",
                "merged_build_us",
                "warm_rank_ns",
                "rotations",
            },
            "single_baseline": {"k", "window_items", "build_us",
                                "warm_rank_ns"},
            "summary": {"k", "buckets", "window_items",
                        "cold_ratio_vs_single", "warm_ratio_vs_single"},
        },
    },
    "e17_service": {
        "top": {
            "experiment",
            "items_per_client",
            "batch",
            "workers",
            "smoke",
            "results",
            "highconn",
            "summary",
        },
        "arrays": {
            "results": {
                "engine",
                "clients",
                "append_mups",
                "append_wall_s",
                "queries",
                "query_p50_us",
                "query_p99_us",
            },
            "highconn": {
                "connections",
                "workers",
                "appends",
                "append_p50_us",
                "append_p99_us",
            },
            "summary": {"engine", "peak_append_mups",
                        "max_clients_p99_us"},
        },
    },
    "e18_persistence": {
        "top": {"experiment", "items", "batch", "smoke", "results",
                "recovery", "summary"},
        "arrays": {
            # Gated rows (none/wal_nosync) add "append_mups"; fsync rows
            # add the ungated "append_rate" -- only the shared keys are
            # required here.
            "results": {"mode", "wall_s", "batch_cost_ms", "wal_bytes"},
            "recovery": {"batches", "checkpoint", "recover_ms",
                         "recovered_items", "tail_bytes"},
            "summary": {"wal_nosync_overhead_pct",
                        "fsync_always_batch_ms", "replay_mups"},
        },
    },
    "e19_churn": {
        "top": {"experiment", "metrics", "smoke", "footprint", "latency",
                "rehydrate", "churn", "summary"},
        "arrays": {
            "footprint": {"phase", "bytes_per_metric",
                          "observed_rss_per_metric"},
            "latency": {"op", "p50_us", "p99_us"},
            # Disk-bound, hence the ungated *_ms fields (E18 precedent).
            "rehydrate": {"metrics", "p50_ms", "p99_ms"},
            "churn": {"rounds", "ops_per_sec"},
            "summary": {"metrics", "idle_bytes_per_metric",
                        "list_page_p99_us", "rehydrate_p99_ms"},
        },
    },
    "e20_chaos": {
        "top": {"experiment", "items", "smoke", "results",
                "injected_latency", "throttle", "overload", "summary"},
        "arrays": {
            # Sub-noise-floor _us rows only; sleep/storm-dominated
            # timings live in the ungated _ms objects (E18/E19
            # precedent) and are claims for ratios, not the perf gate.
            "results": {"scenario", "queries", "query_p50_us",
                        "query_p99_us"},
        },
    },
    "e16_query": {
        "top": {"experiment", "items", "reps", "smoke", "results",
                "window", "summary"},
        "arrays": {
            "results": {
                "k",
                "retained",
                "cold_view_build_us",
                "seed_view_build_us",
                "warm_incremental_rank_ns",
                "warm_full_rank_ns",
                "bulk_rank_ns",
                "view_scalar_rank_ns",
                "scalar_loop_rank_ns",
                "cdf_1k_us",
                "serialize_us",
            },
            "window": {"k", "buckets", "post_rotate_query_us",
                       "warm_rank_ns"},
            "summary": {"k", "warm_repair_speedup",
                        "bulk_vs_scalar_speedup"},
        },
    },
}


def check(path):
    errors = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            report = json.load(f)
        except json.JSONDecodeError as e:
            return [f"{path}: not valid JSON: {e}"]
    experiment = report.get("experiment")
    schema = SCHEMAS.get(experiment)
    if schema is None:
        return [
            f"{path}: unknown experiment {experiment!r}; "
            f"expected one of {sorted(SCHEMAS)}"
        ]
    missing = schema["top"] - report.keys()
    if missing:
        errors.append(f"{path}: missing top-level keys {sorted(missing)}")
    for array_name, required in schema["arrays"].items():
        rows = report.get(array_name)
        if not isinstance(rows, list) or not rows:
            errors.append(f"{path}: {array_name!r} must be a non-empty list")
            continue
        for i, row in enumerate(rows):
            row_missing = required - row.keys()
            if row_missing:
                errors.append(
                    f"{path}: {array_name}[{i}] missing {sorted(row_missing)}"
                )
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(check(path))
    for error in all_errors:
        print(f"SCHEMA DRIFT: {error}", file=sys.stderr)
    if all_errors:
        return 1
    print(f"schema OK for {len(argv) - 1} report(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
