"""A8 — the replicated-KV service under a ≥100k-op open-loop zipf load.

Three backends serve the *identical* seeded workload (3 client
replicas, zipf-1.1 keys, 50/45/5 put/get/delete mix, batches of 8):

* ``scd``  — SCD-broadcast replicas (two broadcasts per batch, no consensus);
* ``to``   — TO-broadcast replicas (one consensus instance per batch wave);
* ``abd``  — per-key ABD quorum registers (two quorum round trips per op).

Every backend runs **twice**; the run's ``stats_digest`` (sha256 over
all schedule-derived numbers: latency percentiles, throughput, payload
units, final replica state) must match byte-for-byte across the
reruns — the acceptance bar that the whole service stack is
deterministic.  Each backend runs in its own freshly spawned
interpreter, so a case's ``peak_rss_bytes`` is that backend's own peak
rather than a high-water mark over the backends before it.  Results
land in ``BENCH_kvservice.json``.

CI smoke: ``python benchmarks/bench_kvservice.py --smoke`` does the
same with a ~1.5k-op workload, bounded to seconds.
"""

import time
from multiprocessing import get_context

from bench_json import peak_rss_bytes, write_bench_artifact

from repro.workload import BACKENDS, WorkloadSpec, run_service

FULL_SPEC = WorkloadSpec(
    clients=3,
    batches_per_client=4167,  # 3 * 4167 * 8 = 100,008 ops
    batch_size=8,
    keys=512,
    distribution="zipf",
    zipf_s=1.1,
    # A batch costs SCD ~4 one-way delays (sync + write barrier), so
    # 1.5t between arrivals keeps SCD/TO below saturation while ABD
    # (~9t per batch of quorum round trips) visibly saturates — the
    # open-loop queueing tail is part of the result.
    mean_interarrival=1.5,
    seed=2024,
)

SMOKE_SPEC = WorkloadSpec(
    clients=3,
    batches_per_client=64,  # 1,536 ops
    batch_size=8,
    keys=128,
    distribution="zipf",
    zipf_s=1.1,
    seed=2024,
)


def run_backend(spec, backend, n=3, seed=1):
    """Run ``backend`` twice; assert digest equality; return a case."""
    start = time.perf_counter()
    first = run_service(spec, backend=backend, n=n, seed=seed)
    second = run_service(spec, backend=backend, n=n, seed=seed)
    wall = time.perf_counter() - start
    assert first.stats_digest == second.stats_digest, (
        f"{backend} rerun diverged: {first.stats_digest} vs {second.stats_digest}"
    )
    assert first.completed_ops == spec.total_ops, (
        f"{backend} dropped ops: {first.completed_ops}/{spec.total_ops}"
    )
    return {
        "case": f"{backend}-{spec.total_ops}ops",
        "backend": backend,
        "n": n,
        "ops": first.completed_ops,
        "virtual_time": round(first.final_time, 3),
        "throughput_ops_per_vt": round(first.throughput, 3),
        "lat_p50": round(first.latency.p50, 4),
        "lat_p99": round(first.latency.p99, 4),
        "messages_sent": first.messages_sent,
        "payload_units": first.payload_sent,
        "stats_digest": first.stats_digest,
        "wall_s": round(wall / 2, 3),  # per single run
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_backend_alone(spec, backend):
    """:func:`run_backend` in a fresh spawned interpreter of its own."""
    with get_context("spawn").Pool(1) as pool:
        return pool.apply(run_backend, (spec, backend))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (~1.5k ops)"
    )
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)
    spec = SMOKE_SPEC if args.smoke else FULL_SPEC
    cases = [run_backend_alone(spec, backend) for backend in BACKENDS]
    name = "kvservice_smoke" if args.smoke else "kvservice"
    path = write_bench_artifact(
        name,
        cases,
        out_dir=args.out,
        unit="one backend serving the workload (run twice, digest-checked)",
        extra_meta={
            "rss_note": (
                "peak_rss_bytes is the peak of the spawned interpreter "
                "that ran that backend alone"
            ),
            "workload": (
                f"{spec.total_ops} ops, zipf s={spec.zipf_s} over {spec.keys} "
                f"keys, mix {dict(spec.op_mix)}, batch={spec.batch_size}, "
                f"spec seed {spec.seed}, run seed 1"
            ),
        },
    )
    for case in cases:
        print(
            f"{case['backend']:>4}  ops={case['ops']:>7}  "
            f"thr={case['throughput_ops_per_vt']:>8} ops/vt  "
            f"p50={case['lat_p50']:>8}  p99={case['lat_p99']:>8}  "
            f"payload={case['payload_units']:>9}u  wall={case['wall_s']:>7}s  "
            f"digest={case['stats_digest'][:12]}"
        )
    print(f"artifact: {path}")


if __name__ == "__main__":
    main()
