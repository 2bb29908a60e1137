"""Verified-query benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_mixed --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard
output is the result object; the line before it is a report with every
metric by name and unit, plus the post-setup ADS root, the certificate
version and (on remote_cold) the server class.

Every process the benchmark runs gets a ``PYTHONHASHSEED`` derived from
``--seed``: the data generator seeds from ``hash()``, so without it the
same seed would build a different ADS in every process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("warm_mixed", "remote_cold", "ingest_mixed")

#: End-to-end metrics: name -> unit.  Printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "vo_bytes_per_query": "bytes",
    "net_bytes_per_query": "bytes",
    "peak_rss_mb": "MB",
}

#: Reported beside the end-to-end metrics but not bounded.  The counts
#: are 0 on some workloads (no page requests once warm, no freshness
#: checks without the inter-query cache, no failures when all is well).
#: The modeled network time is a function of the bytes and requests and
#: never changes on warm_mixed.  The block timings come from set-up
#: alone unless the workload ingests in its timed phase, and
#: ``setup_s`` already bounds set-up.  The ``*_all_*`` and ``wall_*``
#: metrics are the latency and throughput over every timed execution;
#: they follow the host's load (see README.md, "Steadiness").
REPORT_ONLY = {
    "net_model_ms_per_query": "ms",
    "ingest_block_p50_ms": "ms",
    "ingest_block_p90_ms": "ms",
    "page_requests_per_query": "count",
    "check_requests_per_query": "count",
    "failed_frac": "ratio",
    "query_all_p50_ms": "ms",
    "query_all_p90_ms": "ms",
    "wall_queries_per_s": "1/s",
}

_ISP = ("get_certificate", "open_session", "get_file_meta", "get_page",
        "validate_path", "finalize_session")

#: Per-layer metrics: name -> unit.  Printed with ``--trace 1``.
PER_LAYER = {
    "db.engine.execute.self_ms": "ms",
    "db.pager.read_page.calls": "count",
    "db.pager.read_page.self_ms": "ms",
    "core.certificate.verify_signature.calls": "count",
    "core.certificate.verify_signature.ms": "ms",
    "core.certificate.vbf.ms": "ms",
    "client.query.self_ms": "ms",
    "client.access_page.calls": "count",
    "client.access_page.self_ms": "ms",
    "client.finalize.self_ms": "ms",
    "client.inter_cache.hit_ratio": "ratio",
    "vbf.fresh_since.true_ratio": "ratio",
    "page_requests_per_query": "count",
    "check_requests_per_query": "count",
    "isp.get_page.calls": "count",
    "isp.get_page.ms": "ms",
    "isp.validate_path.calls": "count",
    "isp.validate_path.ms": "ms",
    "isp.get_file_meta.calls": "count",
    "isp.get_file_meta.ms": "ms",
    "isp.open_session.calls": "count",
    "isp.open_session.ms": "ms",
    "isp.finalize_session.ms": "ms",
    "isp.sync_update.ms": "ms",
    "merkle.verify_read_proof.ms": "ms",
    "merkle.apply_writes.ms": "ms",
    "merkle.gen_read_proof.ms": "ms",
    "merkle.gen_write_proof.ms": "ms",
    **{f"rpc.remote.{m}.calls": "count" for m in _ISP},
    **{f"rpc.remote.{m}.ms": "ms" for m in _ISP},
    "rpc.overhead_ms_per_query": "ms",
    "chain.advance_block.ms": "ms",
    "dcert.certify.ms": "ms",
    "ci.process_blocks.self_ms": "ms",
    "sgx.ocalls": "count",
    "sgx.overhead_ms": "ms",
    "ci.pages_read": "count",
    "ci.pages_written": "count",
    "ci.proof_bytes": "bytes",
    "ci.write_amplification": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` every process of a ``--seed`` run uses."""
    return str(1 + seed % 4294967295)


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``,
    inclusive method); needs at least two values."""
    cut = round(fraction * 100)
    return statistics.quantiles(values, n=100, method="inclusive")[cut - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(result) -> dict:
    """The latency metrics take each distinct query at the median of its
    runs in the timed phase; ``queries_per_s`` is one pass over those."""
    timed = result.timed
    stats = timed.count_stats
    blocks = result.setup_block_ms + timed.block_ms
    typical = [statistics.median(runs) for runs in timed.by_sql.values()]
    return {
        "setup_s": result.setup_s,
        "query_p50_ms": statistics.median(typical),
        "query_p90_ms": percentile(typical, 0.9),
        "queries_per_s": len(typical) / (sum(typical) / 1e3),
        "query_all_p50_ms": statistics.median(timed.query_ms),
        "query_all_p90_ms": percentile(timed.query_ms, 0.9),
        "wall_queries_per_s": len(timed.query_ms) / timed.wall_s,
        "net_model_ms_per_query": mean(s.net_s for s in stats) * 1e3,
        "vo_bytes_per_query": mean(s.vo_bytes for s in stats),
        "net_bytes_per_query": mean(s.bytes_transferred for s in stats),
        "ingest_block_p50_ms": statistics.median(blocks),
        "ingest_block_p90_ms": percentile(blocks, 0.9),
        "peak_rss_mb": result.peak_rss_mb,
        "page_requests_per_query": mean(s.page_requests for s in stats),
        "check_requests_per_query": mean(s.check_requests for s in stats),
        "failed_frac": result.failed / result.attempted,
    }


def per_layer(result) -> dict:
    from tracing import LayerTotals

    queries = LayerTotals(result.client_spans, "query", "traced")
    remote = bool(result.server_spans)
    block_spans = result.server_spans if remote else result.client_spans
    blocks = LayerTotals(block_spans, "block")
    isp = LayerTotals(result.server_spans, "rpc") if remote else queries
    n = max(queries.op_count, 1)

    def isp_calls(name):
        return isp.calls.get(name, 0) / n

    def isp_ms(name):
        return isp.total_s.get(name, 0.0) / n * 1e3

    metrics = {
        "db.engine.execute.self_ms":
            queries.self_ms_per_op("db.engine.execute"),
        "db.pager.read_page.calls":
            queries.calls_per_op("db.pager.read_page"),
        "db.pager.read_page.self_ms":
            queries.self_ms_per_op("db.pager.read_page"),
        "core.certificate.verify_signature.calls":
            queries.calls_per_op("core.certificate.verify_signature"),
        "core.certificate.verify_signature.ms":
            queries.ms_per_op("core.certificate.verify_signature"),
        "core.certificate.vbf.ms": queries.ms_per_op("core.certificate.vbf"),
        "client.query.self_ms": queries.self_ms_per_op("client.query"),
        "client.access_page.calls":
            queries.calls_per_op("client.access_page"),
        "client.access_page.self_ms":
            queries.self_ms_per_op("client.access_page"),
        "client.finalize.self_ms": queries.self_ms_per_op("client.finalize"),
        "client.inter_cache.hit_ratio":
            queries.true_ratio("client.inter_cache.get"),
        "vbf.fresh_since.true_ratio": queries.true_ratio("vbf.fresh_since"),
        "merkle.verify_read_proof.ms":
            queries.ms_per_op("merkle.verify_read_proof"),
        "rpc.overhead_ms_per_query": 0.0,
    }
    stats = result.timed.count_stats
    metrics["page_requests_per_query"] = mean(s.page_requests for s in stats)
    metrics["check_requests_per_query"] = mean(
        s.check_requests for s in stats
    )
    for method in ("get_page", "validate_path", "get_file_meta",
                   "open_session"):
        metrics[f"isp.{method}.calls"] = isp_calls(f"isp.{method}")
        metrics[f"isp.{method}.ms"] = isp_ms(f"isp.{method}")
    metrics["isp.finalize_session.ms"] = isp_ms("isp.finalize_session")
    for method in _ISP:
        name = f"rpc.remote.{method}"
        metrics[f"{name}.calls"] = queries.calls_per_op(name)
        metrics[f"{name}.ms"] = queries.ms_per_op(name)
    if remote:
        client_rpc_s = sum(
            queries.total_s.get(f"rpc.remote.{m}", 0.0) for m in _ISP
        )
        server_isp_s = sum(isp.total_s.get(f"isp.{m}", 0.0) for m in _ISP)
        metrics["rpc.overhead_ms_per_query"] = (
            (client_rpc_s - server_isp_s) / n * 1e3
        )

    metrics.update({
        "isp.sync_update.ms": blocks.ms_per_op("isp.sync_update"),
        "merkle.apply_writes.ms": blocks.ms_per_op("merkle.apply_writes"),
        "merkle.gen_read_proof.ms":
            blocks.ms_per_op("merkle.gen_read_proof"),
        "merkle.gen_write_proof.ms":
            blocks.ms_per_op("merkle.gen_write_proof"),
        "chain.advance_block.ms": blocks.ms_per_op("chain.advance_block"),
        "dcert.certify.ms": blocks.ms_per_op("dcert.certify"),
        "ci.process_blocks.self_ms":
            blocks.self_ms_per_op("ci.process_blocks"),
    })
    reports = result.block_reports
    metrics["sgx.ocalls"] = mean(r[0] for r in reports)
    metrics["sgx.overhead_ms"] = mean(r[1] for r in reports) * 1e3
    metrics["ci.pages_read"] = mean(r[2] for r in reports)
    metrics["ci.pages_written"] = mean(r[3] for r in reports)
    metrics["ci.proof_bytes"] = mean(r[4] for r in reports)
    metrics["ci.write_amplification"] = (
        sum(r[3] for r in reports) * 4096 / result.row_bytes
        if result.row_bytes else 0.0
    )

    # Coverage: self time of every traced-segment span (queries and, on
    # ingest_mixed, blocks) over the segment's timed wall.
    traced_blocks = LayerTotals(block_spans, "block", "traced")
    covered = queries.self_total_s() + traced_blocks.self_total_s()
    traced, reference = result.timed, result.reference
    metrics["trace.coverage"] = covered / traced.wall_s
    metrics["trace.overhead"] = (
        (traced.wall_s / traced.units) / (reference.wall_s / reference.units)
    )
    return metrics


def source_digest() -> str:
    """Digest of the program's sources, so a changed program starts a
    fresh record of roots."""
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as source:
                    digest.update(source.read())
    return digest.hexdigest()[:16]


def record_root(seed: int, hours: int, root: str, version: int) -> bool:
    """Remember the post-setup ADS root per (program, seed, hours); False
    when an earlier run of the same seed certified a different one."""
    path = os.path.join(WORK_DIR, "ads_roots.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as source:
            known = json.load(source)
    key = f"{source_digest()}:{seed}:{hours}"
    if key in known:
        return known[key] == [root, version]
    known[key] = [root, version]
    partial = f"{path}.{os.getpid()}.partial"
    with open(partial, "w", encoding="utf-8") as out:
        json.dump(known, out, sort_keys=True)
    os.replace(partial, path)
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hours", type=int, default=None,
        help="history to build (default: the profile's 56; the "
             "benchmark's own tests use a small value)",
    )
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    pinned = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != pinned:
        env = dict(os.environ, PYTHONHASHSEED=pinned)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    # A terminated run unwinds like an exception, so remote_cold still
    # stops its server process and waits for it.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)

    import workloads

    hours = args.hours if args.hours is not None else workloads.HOURS
    trace = bool(args.trace)
    if args.workload == "remote_cold":
        result = workloads.remote_cold(
            args.seed, args.seconds, trace, HERE, WORK_DIR, hours=hours
        )
    else:
        run = getattr(workloads, args.workload)
        result = run(args.seed, args.seconds, trace, hours=hours)

    same_root = record_root(args.seed, hours, result.ads_root,
                            result.cert_version)
    if not same_root:
        print("perfbench: post-setup ADS root differs from an earlier "
              "run of this seed", file=sys.stderr)
    if trace:
        spans_file = os.path.join(
            WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl.gz"
        )
        from tracing import dump_spans

        dump_spans(result.client_spans, spans_file)
        values, units = per_layer(result), PER_LAYER
    else:
        values, units = end_to_end(result), END_TO_END

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "hours": hours,
        "pythonhashseed": pinned,
        "ads_root": result.ads_root,
        "cert_version": result.cert_version,
        "server_class": result.server_class,
        "timed_queries": len(result.timed.query_ms),
        "timed_blocks": len(result.timed.block_ms),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value,
                   "unit": {**END_TO_END, **REPORT_ONLY, **PER_LAYER}[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0 and same_root,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
