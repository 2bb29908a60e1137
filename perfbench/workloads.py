"""The benchmark's workloads, run against the system's public API.

Every workload uses the profile data: ``SystemConfig(txs_per_block=8)``
with ``HOURS`` of two-chain history, one client, closed loop.  Queries
come from the eight ``QUERY_TEMPLATES`` in Mixed proportions, drawn from
the benchmark's own RNG (see README.md for why each workload exists).

Every verified answer is compared, outside the timed sections, with the
plain engine of :meth:`V2FSSystem.plain_replica` running the same SQL on
the same snapshot.  A mismatch, a verification error or any other
exception counts as one failed operation; none of them stops the run.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from tracing import Tracer, client_targets, load_spans

from repro.chain.datagen import DEFAULT_START_TIME, Universe
from repro.chain.etl import extract_rows
from repro.client.query_client import QueryClient, QueryStats
from repro.client.vfs import QueryMode
from repro.core.system import SystemConfig, V2FSSystem
from repro.db.engine import Engine
from repro.db.record import encode_record
from repro.rpc import connect_client
from repro.vfs.local import LocalFilesystem
from repro.workloads.queries import QUERY_TEMPLATES

#: Hours of two-chain history (one block per chain per hour).
HOURS = 56
TXS_PER_BLOCK = 8
WINDOW_HOURS = 12
#: Mixed proportions: this many instances of each of the eight types.
PER_TYPE = 5
#: Zipf exponent for window recency, as in the paper's workloads.
RECENCY_EXPONENT = 1.2
#: ingest_mixed: verified queries after each ``advance_all(1)``.
QUERIES_PER_STEP = 2
#: ingest_mixed: the count metrics average over this many first steps,
#: so they repeat exactly for a seed however long the timed phase runs.
COUNT_STEPS = 8

clock = time.perf_counter


@dataclass
class Segment:
    """What one timed segment measured."""

    wall_s: float = 0.0
    query_ms: List[float] = field(default_factory=list)
    #: Wall times of each distinct SQL text in the segment.
    by_sql: Dict[str, List[float]] = field(default_factory=dict)
    block_ms: List[float] = field(default_factory=list)
    #: Stats of the queries the count metrics average over.
    count_stats: List[QueryStats] = field(default_factory=list)

    @property
    def units(self) -> int:
        return len(self.query_ms) + len(self.block_ms)


@dataclass
class RunResult:
    """Everything a workload run hands back to ``run.py``."""

    setup_s: float
    setup_block_ms: List[float]
    ads_root: str
    cert_version: int
    timed: Segment
    reference: Optional[Segment] = None
    attempted: int = 0
    failed: int = 0
    server_class: Optional[str] = None
    #: Per-block (ocalls, sgx overhead s, pages read, pages written,
    #: proof bytes) for every block the run ingested.
    block_reports: List[Tuple[int, float, int, int, int]] = field(
        default_factory=list
    )
    row_bytes: int = 0
    client_spans: list = field(default_factory=list)
    server_spans: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


class Counter:
    """Attempted and failed operations; failures are logged, not fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: {what} failed: {detail}", file=sys.stderr)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def render(rng: random.Random, universe: Universe, query_type: str,
           end: int) -> str:
    window_s = WINDOW_HOURS * 3600
    return QUERY_TEMPLATES[query_type].render(
        end - window_s, end, rng, universe
    )


def mixed_pool(rng: random.Random, universe: Universe, data_start: int,
               data_end: int) -> List[str]:
    """``PER_TYPE`` queries of each template, Zipf-recent 12 h windows.

    The recency draws are stratified: the j-th instance of a template
    draws from the j-th of ``PER_TYPE`` equal slices of [0, 1), so every
    seed spreads each template's windows over the same range."""
    span = data_end - data_start
    queries = []
    for query_type in sorted(QUERY_TEMPLATES):
        for stratum in range(PER_TYPE):
            draw = (stratum + rng.random()) / PER_TYPE
            back = int(
                (draw ** RECENCY_EXPONENT)
                * max(1, span - WINDOW_HOURS * 3600)
            )
            queries.append(render(rng, universe, query_type,
                                  data_end - back))
    rng.shuffle(queries)
    return queries


def pool_order(seed: int, pool: List[str]):
    """Endless sequence of seeded shuffles of the pool, pass by pass."""
    rng = random.Random(f"perfbench-order-{seed}")
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------------
# Set-up and oracle
# ----------------------------------------------------------------------


def build_system(hours: int) -> Tuple[V2FSSystem, List[float]]:
    """Bootstrap, then ingest ``hours`` blocks per chain one at a time
    (what ``advance_all(hours)`` does), timing each block."""
    system = V2FSSystem(SystemConfig(txs_per_block=TXS_PER_BLOCK))
    block_ms = []
    for _ in range(hours):
        for chain_id in sorted(system.generators):
            started = clock()
            system.advance_block(chain_id)
            block_ms.append((clock() - started) * 1e3)
    return system, block_ms


def block_reports(system: V2FSSystem):
    # update_reports[0] is the schema bootstrap, not a block.
    return [
        (r.ocalls, r.sgx_overhead_s, r.pages_read, r.pages_written,
         r.proof_bytes)
        for r in system.update_reports[1:]
    ]


def ingested_row_bytes(system: V2FSSystem) -> int:
    """Encoded size of every row extracted from every block."""
    total = 0
    for chain in system.chains.values():
        for block in chain.blocks():
            for rows in extract_rows(block).values():
                for row in rows:
                    total += len(encode_record(list(row.values())))
    return total


def replica_files(system: V2FSSystem) -> Dict[str, bytes]:
    local = system.plain_replica().vfs
    return {path: local.read_all(path) for path in local.list_files()}


def pack_files(files: Dict[str, bytes]) -> bytes:
    parts = []
    for path in sorted(files):
        name = path.encode()
        parts.append(struct.pack(">HI", len(name), len(files[path])))
        parts.append(name)
        parts.append(files[path])
    return b"".join(parts)


def unpack_engine(blob: bytes) -> Engine:
    local = LocalFilesystem()
    offset = 0
    while offset < len(blob):
        name_len, data_len = struct.unpack_from(">HI", blob, offset)
        offset += 6
        path = blob[offset:offset + name_len].decode()
        offset += name_len
        local.write_all(path, blob[offset:offset + data_len])
        offset += data_len
    return Engine(local)


class Oracle:
    """Plain-engine answers on one snapshot, memoised by SQL text."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._answers: Dict[str, Tuple[list, list]] = {}

    def answer(self, sql: str) -> Tuple[list, list]:
        answer = self._answers.get(sql)
        if answer is None:
            result = self.engine.execute(sql)
            answer = self._answers[sql] = (result.columns, result.rows)
        return answer


def timed_query(client: QueryClient, sql: str, oracle: Oracle,
                counter: Counter, segment: Optional[Segment],
                count_stats: bool) -> None:
    """One verified query, timed from outside, then checked untimed."""
    counter.attempted += 1
    started = clock()
    try:
        result = client.query(sql)
    except Exception as error:  # any failure is a failed operation
        elapsed = clock() - started
        counter.fail("query", f"{type(error).__name__}: {error}")
        if segment is not None:
            segment.wall_s += elapsed
        return
    elapsed = clock() - started
    if segment is not None:
        segment.wall_s += elapsed
        segment.query_ms.append(elapsed * 1e3)
        segment.by_sql.setdefault(sql, []).append(elapsed * 1e3)
        if count_stats:
            segment.count_stats.append(result.stats)
    try:
        columns, rows = oracle.answer(sql)
    except Exception:
        counter.fail("plain engine", traceback.format_exc(limit=2))
        return
    if result.columns != columns or result.rows != rows:
        counter.fail("query", f"rows differ from the plain engine: {sql}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Timed phase scaffolding
# ----------------------------------------------------------------------


def run_segments(seconds: float, tracer: Optional[Tracer],
                 run_segment: Callable[[Segment, float], None],
                 before_traced: Callable[[], None] = lambda: None,
                 ) -> Tuple[Segment, Optional[Segment]]:
    """Untraced run: one segment of ``seconds``.  Traced run: an untraced
    reference segment, then a traced one, each of half the time; their
    ratio is ``trace.overhead``."""
    if tracer is None:
        timed = Segment()
        run_segment(timed, seconds)
        return timed, None
    reference = Segment()
    run_segment(reference, seconds / 2)
    before_traced()
    tracer.segment = "traced"
    tracer.install()
    try:
        traced = Segment()
        run_segment(traced, seconds / 2)
    finally:
        tracer.uninstall()
    return traced, reference


def query_loop(client: QueryClient, oracle: Oracle, counter: Counter,
               seed: int, pool: List[str]):
    """Queries in seeded pool order until the segment's time is spent.

    Every segment replays the same order from the start.  The count
    metrics average over the first full pass, which always runs."""

    def run_segment(segment: Segment, seconds: float) -> None:
        for index, sql in enumerate(pool_order(seed, pool)):
            first_pass = index < len(pool)
            if not first_pass and segment.wall_s >= seconds:
                return
            timed_query(client, sql, oracle, counter, segment,
                        count_stats=first_pass)

    return run_segment


def set_up_in_process(trace: bool, hours: int, counter: Counter,
                      wrap_isp: Callable = None):
    """Build the system and its Inter+Vbf client, timing ``setup_s``.

    A traced run traces set-up, so its blocks give the per-block layer
    metrics.  ``wrap_isp`` puts a wrapper between client and ISP (tests).
    """
    tracer = Tracer(client_targets()) if trace else None
    if tracer is not None:
        tracer.install()
    started = clock()
    system, setup_block_ms = build_system(hours)
    client = system.make_client(QueryMode.INTER_VBF)
    if wrap_isp is not None:
        client.isp = wrap_isp(client.isp)
    setup_s = clock() - started
    if tracer is not None:
        tracer.uninstall()
    counter.attempted += len(setup_block_ms)
    return tracer, system, client, setup_s, setup_block_ms


# ----------------------------------------------------------------------
# warm_mixed
# ----------------------------------------------------------------------


def warm_mixed(seed: int, seconds: float, trace: bool, hours: int = HOURS,
               wrap_isp: Callable = None) -> RunResult:
    """In-process ISP, one Inter+Vbf client, cache warmed by one pass."""
    counter = Counter()
    tracer, system, client, setup_s, setup_block_ms = set_up_in_process(
        trace, hours, counter, wrap_isp
    )
    root, version = certified_root(system)
    oracle = Oracle(system.plain_replica())
    pool = mixed_pool(random.Random(f"perfbench-pool-{seed}"),
                      system.universe, system.config.start_time,
                      system.latest_time)
    for sql in pool:  # the untimed warm-up pass, checked like the rest
        timed_query(client, sql, oracle, counter, None, False)
    timed, reference = run_segments(
        seconds, tracer, query_loop(client, oracle, counter, seed, pool)
    )
    return RunResult(
        setup_s=setup_s, setup_block_ms=setup_block_ms, ads_root=root,
        cert_version=version, timed=timed, reference=reference,
        attempted=counter.attempted, failed=counter.failed,
        block_reports=block_reports(system),
        row_bytes=ingested_row_bytes(system) if trace else 0,
        client_spans=tracer.spans if tracer else [],
        peak_rss_mb=peak_rss_mb(),
    )


def certified_root(system: V2FSSystem) -> Tuple[str, int]:
    certificate = system.ci.certificate
    return certificate.ads_root.hex(), certificate.version


# ----------------------------------------------------------------------
# ingest_mixed
# ----------------------------------------------------------------------


def ingest_mixed(seed: int, seconds: float, trace: bool,
                 hours: int = HOURS) -> RunResult:
    """In-process; each step ingests one block per chain, then a
    persistent Inter+Vbf client queries windows ending at the newest
    block.  The plain replica is rebuilt after every step."""
    counter = Counter()
    tracer, system, client, setup_s, setup_block_ms = set_up_in_process(
        trace, hours, counter
    )
    root, version = certified_root(system)
    rng = random.Random(f"perfbench-ingest-{seed}")
    deck: List[str] = []

    def next_queries() -> List[str]:
        queries = []
        for _ in range(QUERIES_PER_STEP):
            if not deck:
                deck.extend(sorted(QUERY_TEMPLATES))
                rng.shuffle(deck)
            queries.append(
                render(rng, system.universe, deck.pop(), system.latest_time)
            )
        return queries

    # Untimed warm-up: one query of each type on the set-up snapshot.
    oracle = Oracle(system.plain_replica())
    for _ in range(len(QUERY_TEMPLATES) // QUERIES_PER_STEP):
        for sql in next_queries():
            timed_query(client, sql, oracle, counter, None, False)

    def run_segment(segment: Segment, seconds: float) -> None:
        step = 0
        while step < COUNT_STEPS or segment.wall_s < seconds:
            in_count_window = step < COUNT_STEPS
            step += 1
            for chain_id in sorted(system.generators):
                counter.attempted += 1
                block_started = clock()
                try:
                    system.advance_block(chain_id)
                except Exception as error:  # counted, never fatal
                    counter.fail("block", f"{type(error).__name__}: "
                                 f"{error}")
                    segment.wall_s += clock() - block_started
                    continue
                elapsed = clock() - block_started
                segment.wall_s += elapsed
                segment.block_ms.append(elapsed * 1e3)
            queries = next_queries()
            snapshot_oracle = Oracle(system.plain_replica())
            for sql in queries:
                timed_query(client, sql, snapshot_oracle, counter,
                            segment, count_stats=in_count_window)

    timed, reference = run_segments(seconds, tracer, run_segment)
    return RunResult(
        setup_s=setup_s, setup_block_ms=setup_block_ms, ads_root=root,
        cert_version=version, timed=timed, reference=reference,
        attempted=counter.attempted, failed=counter.failed,
        block_reports=block_reports(system),
        row_bytes=ingested_row_bytes(system) if trace else 0,
        client_spans=tracer.spans if tracer else [],
        peak_rss_mb=peak_rss_mb(),
    )


# ----------------------------------------------------------------------
# remote_cold
# ----------------------------------------------------------------------


class ServerProcess:
    """The ISP server in its own process, driven over stdin/stdout.

    Readiness is the port file appearing.  Commands are single lines
    (``info``, ``trace off``, ``trace on``, ``stop``); each is answered
    with ``ok``.  ``stop`` shuts the server down and the process exits
    with status 0, after dumping its spans in a traced run."""

    def __init__(self, bench_dir: str, work_dir: str, hours: int,
                 trace: bool) -> None:
        self.port_file = os.path.join(work_dir, "port")
        self.info_file = os.path.join(work_dir, "info.json")
        self.replica_file = os.path.join(work_dir, "replica.bin")
        self.spans_file = os.path.join(work_dir, "server-spans.jsonl.gz")
        for path in (self.port_file, self.info_file, self.replica_file,
                     self.spans_file):
            if os.path.exists(path):
                os.remove(path)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(bench_dir, "server.py"),
             "--hours", str(hours), "--port-file", self.port_file,
             "--info-file", self.info_file,
             "--replica-file", self.replica_file,
             "--spans-file", self.spans_file,
             "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def wait_ready(self, timeout_s: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} "
                    "before it was ready"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server was not ready in time")
            time.sleep(0.01)
        with open(self.port_file, encoding="utf-8") as source:
            host, port = source.read().strip().rsplit(":", 1)
        return host, int(port)

    def command(self, line: str, timeout_s: float = 60.0) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        reply = self.proc.stdout.readline().strip() if ready else ""
        if reply != "ok":
            raise RuntimeError(f"server did not acknowledge {line!r}")

    def stop(self, timeout_s: float = 30.0) -> int:
        """Ask the server to stop; returns its exit status."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            return self.proc.wait(timeout=timeout_s)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def remote_cold(seed: int, seconds: float, trace: bool, bench_dir: str,
                work_dir: str, hours: int = HOURS) -> RunResult:
    """The default RPC server in its own process, one Baseline client
    (no client cache) over one loopback connection.  The served
    certificate check and the server's exit status count as one
    operation each."""
    counter = Counter()
    started = clock()
    server = ServerProcess(bench_dir, work_dir, hours, trace)
    try:
        host, port = server.wait_ready(timeout_s=150.0)
        client = connect_client(host, port, mode=QueryMode.BASELINE)
        setup_s = clock() - started
        server.command("info")
        with open(server.info_file, encoding="utf-8") as source:
            info = json.load(source)
        if trace:
            server.command("trace off")
        counter.attempted += len(info["setup_block_ms"]) + 2
        served = client.isp.get_certificate()
        if (served.ads_root.hex(), served.version) != (
            info["ads_root"], info["cert_version"]
        ):
            counter.fail("bootstrap", "served certificate differs from "
                         "the server's post-setup root")
        with open(server.replica_file, "rb") as source:
            oracle = Oracle(unpack_engine(source.read()))
        pool = mixed_pool(random.Random(f"perfbench-pool-{seed}"),
                          Universe(seed=SystemConfig().seed),
                          DEFAULT_START_TIME, info["latest_time"])
        tracer = Tracer(client_targets()) if trace else None
        timed, reference = run_segments(
            seconds, tracer, query_loop(client, oracle, counter, seed, pool),
            before_traced=lambda: server.command("trace on"),
        )
        client.isp.close()
        status = server.stop()
    finally:
        server.kill()
    if status != 0:
        counter.fail("server", f"exit status {status}")
    server_spans = load_spans(server.spans_file) if trace else []
    return RunResult(
        setup_s=setup_s, setup_block_ms=info["setup_block_ms"],
        ads_root=info["ads_root"], cert_version=info["cert_version"],
        timed=timed, reference=reference,
        attempted=counter.attempted, failed=counter.failed,
        server_class=info["server_class"],
        block_reports=[tuple(r) for r in info["block_reports"]],
        row_bytes=info["row_bytes"],
        client_spans=tracer.spans if tracer else [],
        server_spans=server_spans,
        peak_rss_mb=peak_rss_mb(),
    )
