"""In-memory span tracer for the benchmark's traced runs.

The tracer times calls into the system's public functions from the
outside: :meth:`Tracer.install` swaps each target method for a wrapper
and :meth:`Tracer.uninstall` puts the original back, so an untraced
segment runs the unmodified code.  Nothing inside ``src/`` is touched.

A span is recorded only inside an *operation*: a call to one of the
root targets (``QueryClient.query`` is a query, ``V2FSSystem.
advance_block`` a block, and in the server process each ISP surface call
an ``rpc``).  Calls outside an operation, such as the plain-engine
oracle, run through the wrapper unrecorded.  Each span keeps its name,
start, end, parent span, operation and self time, where self time is
the duration minus the time its child spans cover (children run
sequentially on the parent's thread, so their durations add up).
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One traced method: (owner class, attribute, span name, root kind or
#: None, outcome predicate or None).  The predicate turns the call's
#: result into a bool that is counted (cache hit, VBF says fresh).
Target = Tuple[type, str, str, Optional[str], Optional[Callable]]

#: Span record: (span id, name, start, end, parent id, op, self seconds,
#: outcome).  ``op`` is (kind, op id, segment).
Span = Tuple[int, str, float, float, int, tuple, float, Optional[bool]]

ISP_METHODS = (
    "get_certificate", "open_session", "get_file_meta", "get_page",
    "validate_path", "finalize_session",
)


def _is_not_none(result) -> bool:
    return result is not None


def _truthy(result) -> bool:
    return bool(result)


def client_targets(root_kind_isp: Optional[str] = None) -> List[Target]:
    """The layer boundaries the benchmark times.

    ``root_kind_isp`` makes each in-process ISP surface call a root of
    its own (the server process, where no client query encloses it).
    """
    from repro.chain.datagen import _GeneratorBase
    from repro.client.caches import InterQueryCache
    from repro.client.query_client import QueryClient
    from repro.client.vfs import ClientSession
    from repro.core.certificate import V2fsCertificate
    from repro.core.ci import V2fsCertificateIssuer
    from repro.core.system import V2FSSystem
    from repro.db.engine import Engine
    from repro.db.pager import Pager
    from repro.dcert.certifier import DCertIssuer
    from repro.isp.server import IspServer
    from repro.merkle.ads import V2fsAds
    from repro.rpc.client import RemoteIsp
    from repro.vbf.versioned_bloom import VersionedBloomFilter

    targets: List[Target] = [
        (QueryClient, "query", "client.query", "query", None),
        (V2FSSystem, "advance_block", "system.advance_block", "block",
         None),
        (V2fsCertificate, "verify_signature",
         "core.certificate.verify_signature", None, None),
        (V2fsCertificate, "vbf", "core.certificate.vbf", None, None),
        (Engine, "execute", "db.engine.execute", None, None),
        (Pager, "read_page", "db.pager.read_page", None, None),
        (ClientSession, "access_page", "client.access_page", None, None),
        (ClientSession, "finalize", "client.finalize", None, None),
        (InterQueryCache, "get", "client.inter_cache.get", None,
         _is_not_none),
        (VersionedBloomFilter, "fresh_since", "vbf.fresh_since", None,
         _truthy),
        (V2fsAds, "verify_read_proof", "merkle.verify_read_proof", None,
         None),
        (V2fsAds, "apply_writes", "merkle.apply_writes", None, None),
        (V2fsAds, "gen_read_proof", "merkle.gen_read_proof", None, None),
        (V2fsAds, "gen_write_proof", "merkle.gen_write_proof", None,
         None),
        (_GeneratorBase, "advance_block", "chain.advance_block", None,
         None),
        (DCertIssuer, "certify", "dcert.certify", None, None),
        (V2fsCertificateIssuer, "process_blocks", "ci.process_blocks",
         None, None),
        (IspServer, "sync_update", "isp.sync_update", None, None),
    ]
    for method in ISP_METHODS:
        targets.append(
            (IspServer, method, f"isp.{method}", root_kind_isp, None)
        )
        targets.append(
            (RemoteIsp, method, f"rpc.remote.{method}", None, None)
        )
    return targets


class Tracer:
    """Records spans for the installed targets; see the module doc."""

    def __init__(self, targets: Iterable[Target]) -> None:
        self.targets = list(targets)
        self.spans: List[Span] = []
        #: Label stamped on every operation started from now on.
        self.segment = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, root_kind, outcome in self.targets:
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            function = raw.__func__ if is_static else raw
            wrapper = self._wrap(function, name, root_kind, outcome)
            setattr(owner, attr,
                    staticmethod(wrapper) if is_static else wrapper)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, function, name, root_kind, outcome):
        tracer = self
        local = self._local
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent_frame = stack[-1]
                parent, op = parent_frame[0], parent_frame[1]
            elif root_kind is not None:
                parent = 0
                op = (root_kind, next(ids), tracer.segment)
            else:
                return function(*args, **kwargs)
            frame = [next(ids), op, 0.0]
            stack.append(frame)
            start = clock()
            flag = None
            try:
                result = function(*args, **kwargs)
                if outcome is not None:
                    flag = outcome(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                spans.append((frame[0], name, start, end, parent, op,
                              duration - frame[2], flag))

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced


def dump_spans(spans: Iterable[Span], path: str) -> None:
    """Write spans one JSON array per line, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for span in spans:
            out.write(json.dumps(span))
            out.write("\n")


def load_spans(path: str) -> List[Span]:
    spans: List[Span] = []
    with gzip.open(path, "rt", encoding="utf-8") as source:
        for line in source:
            span_id, name, start, end, parent, op, self_s, flag = (
                json.loads(line)
            )
            spans.append((span_id, name, start, end, parent, tuple(op),
                          self_s, flag))
    return spans


class LayerTotals:
    """Per-name sums over the spans of one kind of operation."""

    def __init__(self, spans: Iterable[Span], kind: str,
                 segment: Optional[str] = None) -> None:
        self.ops = set()
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.true_count: Dict[str, int] = defaultdict(int)
        for _, name, start, end, _, op, self_s, flag in spans:
            if op[0] != kind or (segment is not None and op[2] != segment):
                continue
            self.ops.add(op[1])
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += self_s
            if flag:
                self.true_count[name] += 1

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def per_op(self, value: float) -> float:
        return value / self.op_count if self.ops else 0.0

    def calls_per_op(self, name: str) -> float:
        return self.per_op(self.calls.get(name, 0))

    def ms_per_op(self, name: str) -> float:
        return self.per_op(self.total_s.get(name, 0.0)) * 1e3

    def self_ms_per_op(self, name: str) -> float:
        return self.per_op(self.self_s.get(name, 0.0)) * 1e3

    def true_ratio(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.true_count.get(name, 0) / calls if calls else 0.0

    def self_total_s(self) -> float:
        return sum(self.self_s.values())
