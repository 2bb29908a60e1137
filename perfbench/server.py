"""remote_cold's ISP server process.

Builds the profile system, serves it with the server that
``repro.rpc.serve_system(system)`` returns by default, and signals
readiness by writing ``host:port`` to the port file.  It then answers
one-line commands on stdin with ``ok`` on stdout:

* ``info``: write the post-setup facts (certified ADS root and version,
  per-block timings and maintenance reports, server class name) and the
  plain replica's files for the client's output check;
* ``trace off`` / ``trace on``: uninstall / install the span tracer;
* ``stop`` (or end of input): stop the server, dump the spans of a
  traced run, exit with status 0.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, client_targets, dump_spans  # noqa: E402
from workloads import (  # noqa: E402
    block_reports,
    build_system,
    certified_root,
    ingested_row_bytes,
    pack_files,
    replica_files,
)

from repro.rpc import serve_system  # noqa: E402


def write_atomically(path: str, data: bytes) -> None:
    partial = path + ".partial"
    with open(partial, "wb") as out:
        out.write(data)
    os.replace(partial, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hours", type=int, required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--info-file", required=True)
    parser.add_argument("--replica-file", required=True)
    parser.add_argument("--spans-file", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer(client_targets(root_kind_isp="rpc"))
        tracer.install()
    started = time.perf_counter()
    system, setup_block_ms = build_system(args.hours)
    server = serve_system(system)
    server.start()
    try:
        host, port = server.address
        write_atomically(args.port_file, f"{host}:{port}".encode())
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "info":
                root, version = certified_root(system)
                info = {
                    "ads_root": root,
                    "cert_version": version,
                    "server_class": type(server).__name__,
                    "latest_time": system.latest_time,
                    "server_setup_s": time.perf_counter() - started,
                    "setup_block_ms": setup_block_ms,
                    "block_reports": block_reports(system),
                    "row_bytes": ingested_row_bytes(system),
                }
                write_atomically(args.replica_file,
                                 pack_files(replica_files(system)))
                write_atomically(args.info_file, json.dumps(info).encode())
            elif command == "trace off" and tracer is not None:
                tracer.uninstall()
            elif command == "trace on" and tracer is not None:
                tracer.segment = "traced"
                tracer.install()
            else:
                print(f"unknown command {command!r}", file=sys.stderr)
                return 2
            print("ok", flush=True)
    finally:
        server.stop()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        dump_spans(tracer.spans, args.spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
