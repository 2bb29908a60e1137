"""Interprocedural lock-discipline analysis: ``lock-order`` and
``guarded-by``.

The per-module rules in :mod:`repro.analysis.rules` are pure functions
of one syntax tree; concurrency discipline is not.  Whether
``IspServer._sessions`` may be touched on some line depends on which
locks every *transitive caller* holds, and whether two locks can
deadlock depends on acquisition orders scattered across modules.  This
module builds the whole-program substrate both rules share:

1. a **symbol index** over every analyzed module — classes (with
   resolved bases), functions, lock objects (attributes or module
   globals assigned ``threading.Lock()`` / ``RLock()`` / ``SanLock``),
   inferred attribute types (from constructor-parameter annotations
   and ``self.x = ClassName(...)`` assignments), and ``guarded-by``
   field annotations;
2. **per-function summaries** — lock acquisitions (``with lock:``
   blocks and bare ``.acquire()`` calls) with the locks already held
   at that point, resolved call edges (``self.m()``, module functions,
   attribute chains like ``self.isp.open_session()``, constructors,
   ``super()``), thread-spawn sites (``Thread(target=...)`` /
   ``SanThread``), reads/writes of annotated fields, and the blocking
   primitives and unbounded waits ``blocking-effect`` polices — all
   from one walk per function, with every call site indexed under its
   callee as well as its caller;
3. two interprocedural fixpoints, both solved by
   :func:`repro.analysis.core.solve` — ``H(f)``, the set of locks held
   on *every* path into ``f`` (the meet over call sites; a
   thread-spawn site contributes the empty set, because the child runs
   without the spawner's locks), and ``Acq*(f)``, the locks ``f``
   acquires transitively.

On top of that substrate:

* **lock-order** derives the global lock-acquisition graph — an edge
  ``A -> B`` wherever ``B`` is acquired (directly or through a call)
  with ``A`` held — and reports every cycle as a potential deadlock;
* **guarded-by** checks that every access to a field annotated
  ``# repro: guarded-by(<lock>)`` happens with that lock in
  ``H(f) ∪ locally-held`` (accesses in the owning ``__init__`` are
  construction and exempt; ``writes`` mode exempts reads for
  deliberately lock-free-read structures).  Annotations naming an
  unknown lock are rejected with a did-you-mean hint, the same UX as
  ``failpoint-names``.

Lock identity is the *defining site* (``module.Class.attr`` or
``module.NAME``), matching the runtime sanitizer's ``SanLock.name``
granularity.  The analysis is deliberately conservative: a lock or
callee it cannot resolve contributes nothing — it can miss discipline
violations through reflection or untyped locals, but what it reports
is derived from real call paths.
"""

from __future__ import annotations

import ast
import difflib
import re
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.core import (
    Finding,
    ModuleContext,
    ProgramRule,
    register,
    solve,
)

#: Method names whose call mutates the receiver collection in place.
_MUTATORS = frozenset({
    "append", "add", "insert", "extend", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})

#: Constructor names that create a lock object.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "SanLock"})

#: Thread classes whose ``target=`` keyword spawns a new root.
_THREAD_FACTORIES = frozenset({"Thread", "SanThread"})

_GUARDED_BY_RE = re.compile(
    r"#\s*repro:\s*guarded-by\(\s*([A-Za-z_]\w*)"
    r"(?:\s*,\s*([A-Za-z_]\w*))?\s*\)"
)

_MODE_ALL = "all"
_MODE_WRITES = "writes"

#: Unresolvable-receiver method names that are socket operations.
_SOCKET_METHODS = frozenset({"recv", "sendall", "accept"})


def _dotted(node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Index structures
# ----------------------------------------------------------------------


class ClassInfo:
    """Everything the analysis knows about one class."""

    __slots__ = ("class_id", "module", "name", "base_refs", "methods",
                 "lock_attrs", "attr_types", "annotated_fields")

    def __init__(self, class_id: str, module: str, name: str) -> None:
        self.class_id = class_id
        self.module = module
        self.name = name
        #: Unresolved base expressions (dotted strings).
        self.base_refs: List[str] = []
        self.methods: Set[str] = set()
        #: attr name -> lock id for ``self.x = Lock()`` assignments.
        self.lock_attrs: Dict[str, str] = {}
        #: attr name -> class id, inferred.
        self.attr_types: Dict[str, str] = {}
        #: attr name -> FieldAnnotation.
        self.annotated_fields: Dict[str, "FieldAnnotation"] = {}


class FieldAnnotation:
    """One ``# repro: guarded-by(lock[, mode])`` annotation."""

    __slots__ = ("class_id", "attr", "lock_name", "mode", "line", "path")

    def __init__(self, class_id: str, attr: str, lock_name: str,
                 mode: str, line: int, path: str) -> None:
        self.class_id = class_id
        self.attr = attr
        self.lock_name = lock_name
        self.mode = mode
        self.line = line
        self.path = path

    @property
    def field_id(self) -> str:
        return f"{self.class_id}.{self.attr}"


class CallSite:
    """One resolved call edge (or thread spawn) out of a function."""

    __slots__ = ("caller", "callee", "held", "line", "is_thread_target")

    def __init__(self, caller: str, callee: str, held: FrozenSet[str],
                 line: int, is_thread_target: bool) -> None:
        self.caller = caller
        self.callee = callee
        self.held = held
        self.line = line
        self.is_thread_target = is_thread_target


class Acquisition:
    """One lock acquisition site (with-block or bare ``.acquire()``)."""

    __slots__ = ("lock", "held", "line")

    def __init__(self, lock: str, held: FrozenSet[str], line: int) -> None:
        self.lock = lock
        self.held = held
        self.line = line


class BlockSite:
    """One direct blocking primitive with the locks held around it."""

    __slots__ = ("kind", "detail", "line", "held")

    def __init__(self, kind: str, detail: str, line: int,
                 held: FrozenSet[str]) -> None:
        self.kind = kind
        self.detail = detail
        self.line = line
        self.held = held


class WaitSite:
    """One unbounded wait (no timeout argument)."""

    __slots__ = ("detail", "line")

    def __init__(self, detail: str, line: int) -> None:
        self.detail = detail
        self.line = line


class FieldAccess:
    """One read/write of a field whose owning class resolved; the rules
    look up their own annotations (guarded-by, confined-to) on it."""

    __slots__ = ("owner", "attr", "is_write", "held", "line")

    def __init__(self, owner: str, attr: str, is_write: bool,
                 held: FrozenSet[str], line: int) -> None:
        self.owner = owner
        self.attr = attr
        self.is_write = is_write
        self.held = held
        self.line = line


class FunctionInfo:
    """The per-function summary both rules consume."""

    __slots__ = ("func_id", "class_id", "ctx", "name", "acquires",
                 "calls", "accesses", "blocking", "waits",
                 "param_types", "local_types", "node")

    def __init__(self, func_id: str, class_id: Optional[str],
                 ctx: ModuleContext, name: str,
                 node: Optional[ast.AST] = None) -> None:
        self.func_id = func_id
        self.class_id = class_id
        self.ctx = ctx
        self.name = name
        self.acquires: List[Acquisition] = []
        self.calls: List[CallSite] = []
        self.accesses: List[FieldAccess] = []
        self.blocking: List[BlockSite] = []
        self.waits: List[WaitSite] = []
        self.param_types: Dict[str, str] = {}
        self.local_types: Dict[str, str] = {}
        #: The function's own AST, for rules (dataflow) that need to
        #: re-walk the body with a different abstraction.
        self.node = node


class Program:
    """The fully indexed program: every module, one symbol space."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: lock id -> defining (path, line).
        self.locks: Dict[str, Tuple[str, int]] = {}
        #: The subset of :attr:`locks` constructed via ``SanLock`` —
        #: the DESIGN §8 inventory the blocking-effect policy guards.
        self.san_locks: Set[str] = set()
        self.annotations: List[FieldAnnotation] = []
        #: Hygiene findings produced while indexing (bad annotations).
        self.index_findings: List[Finding] = []
        #: module name -> {local name -> dotted ref}.
        self.symbols: Dict[str, Dict[str, str]] = {}
        #: func id -> the call sites (spawns included) that resolve to
        #: it, in sorted caller order.
        self.callers: Dict[str, List[CallSite]] = {}
        self._mro_cache: Dict[str, List[str]] = {}

    def calls_into(self, func_id: str) -> List[CallSite]:
        """Non-spawn call sites that resolve to ``func_id``."""
        return [
            site for site in self.callers.get(func_id, ())
            if not site.is_thread_target
        ]

    def callees(self, func_id: str, threads: bool = False) -> List[str]:
        """Analyzed functions ``func_id`` calls (spawns only on request:
        a spawned target runs on its own thread, not inside the call)."""
        return [
            site.callee for site in self.functions[func_id].calls
            if site.callee in self.functions
            and (threads or not site.is_thread_target)
        ]

    # -- symbol resolution ---------------------------------------------

    def resolve_class(self, module: str, name: str) -> Optional[str]:
        ref = self.symbols.get(module, {}).get(name, f"{module}.{name}")
        return ref if ref in self.classes else None

    def mro(self, class_id: str) -> List[str]:
        cached = self._mro_cache.get(class_id)
        if cached is not None:
            return cached
        order: List[str] = []
        seen: Set[str] = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            info = self.classes[current]
            for base_ref in info.base_refs:
                resolved = self.symbols.get(info.module, {}).get(
                    base_ref, base_ref
                )
                if resolved in self.classes:
                    stack.append(resolved)
        self._mro_cache[class_id] = order
        return order

    def lookup_method(self, class_id: str, name: str) -> Optional[str]:
        for cid in self.mro(class_id):
            if name in self.classes[cid].methods:
                return f"{cid}.{name}"
        return None

    def lookup_attr_type(self, class_id: str, attr: str) -> Optional[str]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].attr_types.get(attr)
            if hit is not None:
                return hit
        return None

    def lookup_lock_attr(self, class_id: str, attr: str) -> Optional[str]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].lock_attrs.get(attr)
            if hit is not None:
                return hit
        return None

    def lookup_annotation(
        self, class_id: str, attr: str
    ) -> Optional[FieldAnnotation]:
        for cid in self.mro(class_id):
            hit = self.classes[cid].annotated_fields.get(attr)
            if hit is not None:
                return hit
        return None

    def known_lock_names(self, class_id: Optional[str],
                         module: str) -> List[str]:
        names: Set[str] = set()
        if class_id is not None:
            for cid in self.mro(class_id):
                names.update(self.classes[cid].lock_attrs)
        prefix = module + "."
        for lock_id in self.locks:
            if lock_id.startswith(prefix):
                remainder = lock_id[len(prefix):]
                if "." not in remainder:
                    names.add(remainder)
        return sorted(names)


# ----------------------------------------------------------------------
# Indexing pass 1: symbols, classes, locks, attribute types
# ----------------------------------------------------------------------


def _module_symbols(ctx: ModuleContext) -> Dict[str, str]:
    symbols: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                symbols[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                symbols[local] = alias.name
    for node in ctx.tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            symbols[node.name] = f"{ctx.module}.{node.name}"
    return symbols


def _lock_factory_name(call: ast.expr) -> Optional[str]:
    """``Lock``/``RLock``/``SanLock`` when ``call`` constructs a lock."""
    if not isinstance(call, ast.Call):
        return None
    dotted = _dotted(call.func)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    return last if last in _LOCK_FACTORIES else None


def _is_lock_factory(call: ast.expr) -> bool:
    return _lock_factory_name(call) is not None


def _annotation_class_ref(node: Optional[ast.expr]) -> Optional[str]:
    """A dotted name from a parameter/attribute annotation, if simple.

    Plain names, dotted names, and string forward references resolve;
    ``Optional[X]``-style subscripts are out of scope on purpose.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        candidate = node.value.strip()
        return candidate if candidate.replace(".", "").isidentifier() \
            else None
    if isinstance(node, ast.Subscript):
        # Peel Optional[X]: the wrapped class is what the attribute
        # holds when it holds anything (other subscripted generics
        # stay out of scope — a Dict[int, X] is not an X).
        head = _dotted(node.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class_ref(node.slice)
    return _dotted(node)


def _index_module(program: Program, ctx: ModuleContext) -> None:
    symbols = _module_symbols(ctx)
    program.symbols[ctx.module] = symbols
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
            factory = _lock_factory_name(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lock_id = f"{ctx.module}.{target.id}"
                    program.locks[lock_id] = (ctx.path, node.lineno)
                    if factory == "SanLock":
                        program.san_locks.add(lock_id)
        if not isinstance(node, ast.ClassDef):
            continue
        class_id = f"{ctx.module}.{node.name}"
        info = ClassInfo(class_id, ctx.module, node.name)
        for base in node.bases:
            ref = _dotted(base)
            if ref is not None:
                info.base_refs.append(ref)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                ref = _annotation_class_ref(item.annotation)
                if ref is not None:
                    resolved = symbols.get(ref, f"{ctx.module}.{ref}")
                    info.attr_types[item.target.id] = resolved
        program.classes[class_id] = info


def _index_class_bodies(program: Program, ctx: ModuleContext) -> None:
    """Second sweep over class methods: lock attrs and attribute types
    (needs every class indexed first, so ``ClassName(...)`` resolves)."""
    symbols = program.symbols[ctx.module]
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = program.classes[f"{ctx.module}.{node.name}"]
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            param_types: Dict[str, str] = {}
            for arg in item.args.args + item.args.kwonlyargs:
                ref = _annotation_class_ref(arg.annotation)
                if ref is not None:
                    resolved = symbols.get(ref, ref)
                    if resolved in program.classes:
                        param_types[arg.arg] = resolved
            for stmt in ast.walk(item):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if value is not None and _is_lock_factory(value):
                        lock_id = f"{info.class_id}.{attr}"
                        info.lock_attrs[attr] = lock_id
                        program.locks[lock_id] = (ctx.path, stmt.lineno)
                        if _lock_factory_name(value) == "SanLock":
                            program.san_locks.add(lock_id)
                    elif isinstance(value, ast.Call):
                        ref = _dotted(value.func)
                        if ref is not None:
                            resolved = symbols.get(ref, ref)
                            if resolved in program.classes:
                                info.attr_types[attr] = resolved
                    elif isinstance(value, ast.Name):
                        hinted = param_types.get(value.id)
                        if hinted is not None:
                            info.attr_types[attr] = hinted
                    if isinstance(stmt, ast.AnnAssign):
                        ref = _annotation_class_ref(stmt.annotation)
                        if ref is not None:
                            resolved = symbols.get(ref, ref)
                            if resolved in program.classes:
                                info.attr_types[attr] = resolved


# ----------------------------------------------------------------------
# Indexing pass 2: guarded-by annotations (comment-level, via regex
# over source lines; strings cannot confuse it because the annotation
# must share a line with a real self-attribute assignment)
# ----------------------------------------------------------------------


def _field_assignment_lines(
    ctx: ModuleContext,
) -> Dict[int, Tuple[str, str]]:
    """line -> (class_id, attr) for every ``self.X = ...`` statement."""
    lines: Dict[int, Tuple[str, str]] = {}
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        class_id = f"{ctx.module}.{node.name}"
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    lines[stmt.lineno] = (class_id, target.attr)
    return lines


def _collect_annotations(program: Program, ctx: ModuleContext) -> None:
    assign_lines = _field_assignment_lines(ctx)
    for lineno, text in enumerate(ctx.lines, start=1):
        match = _GUARDED_BY_RE.search(text)
        if match is None:
            continue
        lock_name, mode = match.group(1), match.group(2) or _MODE_ALL
        owner = assign_lines.get(lineno)
        if owner is None:
            program.index_findings.append(Finding(
                path=ctx.path, line=lineno, rule=GuardedByRule.name,
                message=(
                    "guarded-by annotation is not attached to a "
                    "'self.<field> = ...' assignment line"
                ),
            ))
            continue
        class_id, attr = owner
        if mode not in (_MODE_ALL, _MODE_WRITES):
            program.index_findings.append(Finding(
                path=ctx.path, line=lineno, rule=GuardedByRule.name,
                message=(
                    f"guarded-by mode {mode!r} for field {attr!r} is "
                    f"unknown; expected '{_MODE_WRITES}' or "
                    f"'{_MODE_ALL}'"
                ),
            ))
            continue
        annotation = FieldAnnotation(
            class_id, attr, lock_name, mode, lineno, ctx.path
        )
        existing = program.classes[class_id].annotated_fields.get(attr)
        if existing is not None and (
            existing.lock_name != lock_name or existing.mode != mode
        ):
            program.index_findings.append(Finding(
                path=ctx.path, line=lineno, rule=GuardedByRule.name,
                message=(
                    f"field {attr!r} is annotated guarded-by"
                    f"({lock_name}) here but guarded-by"
                    f"({existing.lock_name}) elsewhere; pick one lock"
                ),
            ))
            continue
        program.classes[class_id].annotated_fields[attr] = annotation
        program.annotations.append(annotation)


def _resolve_annotation_locks(program: Program) -> None:
    """Turn annotation lock *names* into lock ids; reject unknowns."""
    resolved: List[FieldAnnotation] = []
    for annotation in program.annotations:
        info = program.classes[annotation.class_id]
        lock_id = program.lookup_lock_attr(
            annotation.class_id, annotation.lock_name
        )
        if lock_id is None:
            module_lock = f"{info.module}.{annotation.lock_name}"
            if module_lock in program.locks:
                lock_id = module_lock
        if lock_id is None:
            known = program.known_lock_names(
                annotation.class_id, info.module
            )
            hint = difflib.get_close_matches(
                annotation.lock_name, known, n=1, cutoff=0.5
            )
            program.index_findings.append(Finding(
                path=annotation.path, line=annotation.line,
                rule=GuardedByRule.name,
                message=(
                    f"guarded-by names unknown lock "
                    f"{annotation.lock_name!r} for field "
                    f"{annotation.attr!r}"
                    + (f" (did you mean {hint[0]!r}?)" if hint else "")
                    + "; locks are attributes assigned Lock()/RLock()/"
                      "SanLock() or module-level lock globals"
                ),
            ))
            continue
        annotation.lock_name = lock_id
        resolved.append(annotation)
    program.annotations = resolved


# ----------------------------------------------------------------------
# Summary pass: per-function lock/call/access facts
# ----------------------------------------------------------------------


class _FunctionVisitor:
    """Walks one function body tracking the held-lock stack."""

    def __init__(self, program: Program, ctx: ModuleContext,
                 func: FunctionInfo) -> None:
        self.program = program
        self.ctx = ctx
        self.func = func
        self.held: List[str] = []

    # -- resolution helpers --------------------------------------------

    def resolve_receiver(self, expr: ast.expr) -> Optional[str]:
        """The class id an expression evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.func.class_id:
                return self.func.class_id
            hit = self.func.param_types.get(expr.id)
            if hit is not None:
                return hit
            return self.func.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.resolve_receiver(expr.value)
            if base is not None:
                return self.program.lookup_attr_type(base, expr.attr)
            # module attribute: mod.ClassName
            dotted = _dotted(expr)
            if dotted is not None:
                symbols = self.program.symbols.get(self.ctx.module, {})
                head, _, rest = dotted.partition(".")
                ref = symbols.get(head)
                if ref is not None:
                    candidate = f"{ref}.{rest}" if rest else ref
                    if candidate in self.program.classes:
                        return candidate
            return None
        if isinstance(expr, ast.Call):
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "super"
                and self.func.class_id is not None
            ):
                mro = self.program.mro(self.func.class_id)
                return mro[1] if len(mro) > 1 else None
            ref = _dotted(expr.func)
            if ref is not None:
                symbols = self.program.symbols.get(self.ctx.module, {})
                resolved = symbols.get(ref, ref)
                if resolved in self.program.classes:
                    return resolved
        return None

    def resolve_lock(self, expr: ast.expr) -> Optional[str]:
        """The lock id a ``with``-expression names, if inferable."""
        if isinstance(expr, ast.Name):
            module_lock = f"{self.ctx.module}.{expr.id}"
            if module_lock in self.program.locks:
                return module_lock
            return None
        if isinstance(expr, ast.Attribute):
            owner = self.resolve_receiver(expr.value)
            if owner is not None:
                return self.program.lookup_lock_attr(owner, expr.attr)
        return None

    def resolve_callable(self, func: ast.expr) -> Optional[str]:
        """The function id a call expression targets, if inferable."""
        if isinstance(func, ast.Name):
            symbols = self.program.symbols.get(self.ctx.module, {})
            ref = symbols.get(func.id, f"{self.ctx.module}.{func.id}")
            if ref in self.program.classes:
                return self.program.lookup_method(ref, "__init__")
            # The functions dict is still filling during collection
            # (later modules are not summarized yet), so membership
            # cannot be checked here — return the candidate and let
            # the fixpoints drop refs that never resolve (builtins,
            # stdlib calls).
            return ref
        if isinstance(func, ast.Attribute):
            owner = self.resolve_receiver(func.value)
            if owner is not None:
                return self.program.lookup_method(owner, func.attr)
            dotted = _dotted(func)
            if dotted is not None and "." in dotted:
                symbols = self.program.symbols.get(self.ctx.module, {})
                head, _, rest = dotted.partition(".")
                ref = symbols.get(head)
                if ref is not None:
                    return f"{ref}.{rest}"
        return None

    # -- the walk -------------------------------------------------------

    def held_set(self) -> FrozenSet[str]:
        return frozenset(self.held)

    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            pushed = 0
            for item in stmt.items:
                lock = self.resolve_lock(item.context_expr)
                if lock is not None:
                    if lock not in self.held:
                        self.func.acquires.append(Acquisition(
                            lock, self.held_set(), stmt.lineno
                        ))
                    self.held.append(lock)
                    pushed += 1
                else:
                    self.visit_expr(item.context_expr)
            self.visit_body(stmt.body)
            for _ in range(pushed):
                self.held.pop()
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate summary units
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self.visit_stmt(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            else:
                self.visit_generic(child)

    def visit_generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.visit_stmt(child)
            elif isinstance(child, ast.expr):
                self.visit_expr(child)
            else:
                self.visit_generic(child)

    def visit_expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            self.visit_call(expr)
            return
        if isinstance(expr, ast.Attribute):
            # ast marks assignment/deletion targets with Store/Del ctx,
            # so `self.F = x` and `del self.F` classify as writes here.
            self.note_field_access(expr, is_write=isinstance(
                expr.ctx, (ast.Store, ast.Del)
            ))
            self.visit_expr(expr.value)
            return
        if isinstance(expr, ast.Subscript):
            # self.F[k] = v mutates the collection behind self.F even
            # though the inner Attribute itself has Load ctx.
            if isinstance(expr.value, ast.Attribute):
                self.note_field_access(
                    expr.value,
                    is_write=isinstance(expr.ctx, (ast.Store, ast.Del)),
                )
                self.visit_expr(expr.value.value)
            else:
                self.visit_expr(expr.value)
            self.visit_expr(expr.slice)
            return
        if isinstance(expr, ast.Lambda):
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.visit_expr(child)
            else:
                self.visit_generic(child)

    def visit_call(self, call: ast.Call) -> None:
        dotted = _dotted(call.func)
        last = dotted.rsplit(".", 1)[-1] if dotted else None
        # Thread spawn: the target runs with no caller locks.
        if last in _THREAD_FACTORIES:
            for keyword in call.keywords:
                if keyword.arg == "target":
                    target = self.resolve_callable(keyword.value)
                    if target is None and isinstance(
                        keyword.value, ast.Attribute
                    ):
                        owner = self.resolve_receiver(keyword.value.value)
                        if owner is not None:
                            target = self.program.lookup_method(
                                owner, keyword.value.attr
                            )
                    if target is not None:
                        self.func.calls.append(CallSite(
                            self.func.func_id, target, frozenset(),
                            call.lineno, is_thread_target=True,
                        ))
        # Bare .acquire(): counts as an acquisition for lock ordering.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "acquire"
        ):
            lock = self.resolve_lock(call.func.value)
            if lock is not None and lock not in self.held:
                self.func.acquires.append(Acquisition(
                    lock, self.held_set(), call.lineno
                ))
        # Mutating method on an annotated field: self.F.append(x) is a
        # write; any other method call on it (values(), items()) reads.
        receiver_noted = False
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATORS
            and isinstance(call.func.value, ast.Attribute)
        ):
            self.note_field_access(call.func.value, is_write=True)
            receiver_noted = True
        callee = self.resolve_callable(call.func)
        if callee is not None:
            self.func.calls.append(CallSite(
                self.func.func_id, callee, self.held_set(), call.lineno,
                is_thread_target=False,
            ))
        self.note_primitives(call, callee)
        for arg in call.args:
            self.visit_expr(arg)
        for keyword in call.keywords:
            self.visit_expr(keyword.value)
        if isinstance(call.func, ast.Attribute):
            if receiver_noted:
                self.visit_expr(call.func.value.value)
            else:
                self.visit_expr(call.func.value)

    def note_field_access(self, attr: ast.Attribute,
                          is_write: bool) -> None:
        owner = self.resolve_receiver(attr.value)
        if owner is None:
            return
        self.func.accesses.append(FieldAccess(
            owner, attr.attr, is_write, self.held_set(), attr.lineno
        ))

    def note_primitives(self, call: ast.Call,
                        callee: Optional[str]) -> None:
        """Record blocking primitives and unbounded waits (the
        ``blocking-effect`` and ``loop-blocking`` material)."""
        attr = (
            call.func.attr
            if isinstance(call.func, ast.Attribute) else None
        )
        kind: Optional[str] = None
        if callee == "time.sleep":
            kind = "sleep"
        elif callee == "os.fsync":
            kind = "fsync"
        elif callee is not None and (
            callee == "subprocess" or callee.startswith("subprocess.")
        ):
            kind = "subprocess"
        elif callee in ("socket.create_connection", "socket.socket"):
            kind = "socket"
        elif callee is None and attr in _SOCKET_METHODS:
            kind = "socket"
        if kind is not None:
            detail = callee if callee is not None else f".{attr}()"
            self.func.blocking.append(BlockSite(
                kind, detail, call.lineno, self.held_set()
            ))
        self.note_unbounded_wait(call, callee, attr)

    def note_unbounded_wait(self, call: ast.Call,
                            callee: Optional[str],
                            attr: Optional[str]) -> None:
        has_timeout_kw = any(
            keyword.arg == "timeout" for keyword in call.keywords
        )
        if callee is None and attr in ("join", "wait"):
            if not call.args and not has_timeout_kw:
                self.func.waits.append(WaitSite(
                    f"{attr}() without a timeout", call.lineno
                ))
            return
        if attr == "acquire" and not call.args and not call.keywords:
            if self.resolve_lock(call.func.value) is not None:
                self.func.waits.append(WaitSite(
                    "lock acquire() without a timeout", call.lineno
                ))
            return
        if callee == "socket.create_connection":
            if len(call.args) < 2 and not has_timeout_kw:
                self.func.waits.append(WaitSite(
                    "create_connection without a timeout", call.lineno
                ))
            return
        if attr == "settimeout" and len(call.args) == 1:
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and arg.value is None:
                self.func.waits.append(WaitSite(
                    "settimeout(None) disables the socket timeout",
                    call.lineno,
                ))


def _collect_function(program: Program, ctx: ModuleContext,
                      node: ast.AST, func_id: str,
                      class_id: Optional[str]) -> None:
    func = FunctionInfo(func_id, class_id, ctx, node.name, node)
    symbols = program.symbols[ctx.module]
    for arg in node.args.args + node.args.kwonlyargs:
        ref = _annotation_class_ref(arg.annotation)
        if ref is not None:
            resolved = symbols.get(ref, ref)
            if resolved in program.classes:
                func.param_types[arg.arg] = resolved
    resolver = _FunctionVisitor(program, ctx, func)
    for stmt in ast.walk(node):
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            continue
        target = stmt.targets[0].id
        if isinstance(stmt.value, ast.Call):
            ref = _dotted(stmt.value.func)
            if ref is not None:
                resolved = symbols.get(ref, ref)
                if resolved in program.classes:
                    func.local_types[target] = resolved
        elif isinstance(stmt.value, (ast.Attribute, ast.Name)):
            # Local alias of a typed attribute or parameter
            # (``cache = self.inter_cache``) — a single pass suffices
            # for the assign-then-use idiom; chained aliases that only
            # resolve on a later sweep stay unresolved (conservative).
            hit = resolver.resolve_receiver(stmt.value)
            if hit is not None:
                func.local_types.setdefault(target, hit)
    program.functions[func_id] = func
    _FunctionVisitor(program, ctx, func).visit_body(node.body)


def _collect_summaries(program: Program, ctx: ModuleContext) -> None:
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _collect_function(
                program, ctx, node, f"{ctx.module}.{node.name}", None
            )
        elif isinstance(node, ast.ClassDef):
            class_id = f"{ctx.module}.{node.name}"
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    _collect_function(
                        program, ctx, item,
                        f"{class_id}.{item.name}", class_id,
                    )


# ----------------------------------------------------------------------
# Interprocedural fixpoints
# ----------------------------------------------------------------------


def _is_private(func_id: str) -> bool:
    """Private helpers (one leading underscore, not dunders) are the
    only functions whose entry-held set may be derived from callers:
    anything public is assumed reachable from outside the analyzed
    tree (tests, API users) with no locks held."""
    name = func_id.rsplit(".", 1)[-1]
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _entry_held(program: Program) -> Dict[str, FrozenSet[str]]:
    """``H(f)``: locks held on every known path into ``f``.

    Meet over call sites for private helpers, solved callers first
    down from the all-locks top; public functions, thread targets, and
    helpers with no known callers get the empty set.
    """
    def derived(func_id: str) -> bool:
        return _is_private(func_id) and func_id in program.callers

    def step(func_id: str,
             held: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
        if not derived(func_id):
            return frozenset()
        contributions = [
            frozenset() if site.is_thread_target
            else site.held | held[site.caller]
            for site in program.callers[func_id]
        ]
        return frozenset.intersection(*contributions)

    universe = frozenset(program.locks)
    return solve(
        "entry-held",
        {
            func_id: universe if derived(func_id) else frozenset()
            for func_id in sorted(program.functions)
        },
        lambda func_id: [
            site.caller for site in program.callers.get(func_id, ())
        ] if derived(func_id) else [],
        step,
        lambda old, new: new <= old,
    )


def _transitive_acquires(program: Program) -> Dict[str, FrozenSet[str]]:
    """``Acq*(f)``: locks acquired by ``f`` or any (non-thread) callee."""
    def step(func_id: str,
             acq: Dict[str, FrozenSet[str]]) -> FrozenSet[str]:
        return acq[func_id].union(
            *(acq[callee] for callee in program.callees(func_id))
        )

    return solve(
        "transitive-acquires",
        {
            func_id: frozenset(a.lock for a in func.acquires)
            for func_id, func in sorted(program.functions.items())
        },
        program.callees,
        step,
        lambda old, new: old <= new,
    )


def build_program(contexts: Sequence[ModuleContext]) -> Program:
    """Index + summarize ``contexts`` as one program (both rules share
    the result through a one-entry cache keyed on the context set)."""
    program = Program()
    for ctx in contexts:
        _index_module(program, ctx)
    for ctx in contexts:
        _index_class_bodies(program, ctx)
    for ctx in contexts:
        _collect_annotations(program, ctx)
    _resolve_annotation_locks(program)
    for ctx in contexts:
        _collect_summaries(program, ctx)
    for func_id in sorted(program.functions):
        for site in program.functions[func_id].calls:
            if site.callee in program.functions:
                program.callers.setdefault(site.callee, []).append(site)
    return program


_program_cache: List[Tuple[Tuple[int, ...], Program]] = []


def _cached_program(contexts: Sequence[ModuleContext]) -> Program:
    key = tuple(id(ctx) for ctx in contexts)
    for cached_key, cached in _program_cache:
        if cached_key == key:
            return cached
    program = build_program(contexts)
    _program_cache[:] = [(key, program)]
    return program


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------


def _short(lock_id: str) -> str:
    """``repro.isp.server.IspServer._lock`` -> ``IspServer._lock``."""
    parts = lock_id.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) >= 2 else lock_id


@register
class LockOrderRule(ProgramRule):
    """No cycles in the interprocedural lock-acquisition graph.

    Two threads taking the same pair of locks in opposite orders is a
    deadlock waiting for the right interleaving; Fig. 13b's
    update-vs-query interference runs exactly that experiment against
    the serving path.  The graph is derived over call edges, so a
    nesting hidden behind three helper calls still counts.  The
    runtime mirror lives in :class:`repro.sanitize.runtime.SanLock`.
    """

    name = "lock-order"
    description = (
        "the global lock-acquisition graph (with-blocks and acquire() "
        "calls, propagated across call edges) must be cycle-free"
    )
    invariant = (
        "liveness of the serving path: concurrent queries and "
        "sync_update ingestion can never deadlock"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        program = _cached_program(contexts)
        entry_held = _entry_held(program)
        acq_star = _transitive_acquires(program)
        # edge (A, B) -> (path, line, via-function) witness, first wins
        # in deterministic function order.
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        for func_id in sorted(program.functions):
            func = program.functions[func_id]
            base = entry_held.get(func_id, frozenset())
            for acquisition in func.acquires:
                for held in sorted(base | acquisition.held):
                    if held == acquisition.lock:
                        continue
                    edges.setdefault(
                        (held, acquisition.lock),
                        (func.ctx.path, acquisition.line, func_id),
                    )
            for site in func.calls:
                if site.is_thread_target:
                    continue
                inner = acq_star.get(site.callee)
                if not inner:
                    continue
                for held in sorted(base | site.held):
                    for lock in sorted(inner):
                        if held == lock:
                            continue
                        edges.setdefault(
                            (held, lock),
                            (func.ctx.path, site.line, func_id),
                        )
        yield from self._cycle_findings(edges)

    def _cycle_findings(
        self, edges: Dict[Tuple[str, str], Tuple[str, int, str]]
    ) -> Iterator[Finding]:
        graph: Dict[str, List[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, []).append(dst)
        for successors in graph.values():
            successors.sort()
        reported: Set[FrozenSet[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            rendered = " -> ".join(
                _short(lock) for lock in cycle + [cycle[0]]
            )
            witnesses = "; ".join(
                f"{_short(a)} -> {_short(b)} in "
                f"{edges[(a, b)][2]}"
                for a, b in zip(cycle, cycle[1:] + [cycle[0]])
                if (a, b) in edges
            )
            path, line, _func = edges[(cycle[0], cycle[1])] if (
                (cycle[0], cycle[1]) in edges
            ) else next(iter(edges.values()))
            yield Finding(
                path=path, line=line, rule=self.name,
                message=(
                    f"lock-order cycle {rendered} is a potential "
                    f"deadlock ({witnesses})"
                ),
            )

    @staticmethod
    def _find_cycle(graph: Dict[str, List[str]],
                    start: str) -> Optional[List[str]]:
        """A cycle through ``start``, as a lock list, if one exists."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in graph.get(node, ()):
                if succ == start:
                    return path
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None


@register
class GuardedByRule(ProgramRule):
    """Annotated shared fields are only touched with their lock held.

    ``# repro: guarded-by(<lock>)`` on a field assignment declares the
    lock that protects it; every read/write anywhere in the program
    must then hold that lock, either locally or on every call path in
    (``H(f)``).  ``guarded-by(<lock>, writes)`` exempts reads — the
    documented pattern for structures whose readers are deliberately
    lock-free (snapshot-pinned session lookups, metric instrument
    lookups) and whose runtime races the sanitizer's write-only
    tracking still watches.  Accesses inside the owning class's
    ``__init__`` are construction, before the object can be shared.
    """

    name = "guarded-by"
    description = (
        "fields annotated '# repro: guarded-by(<lock>)' must only be "
        "accessed with that lock held on every interprocedural path; "
        "unknown lock names are rejected with a did-you-mean hint"
    )
    invariant = (
        "serving-path memory safety: the session table, page map, and "
        "instrument map cannot be torn by handler threads racing "
        "sync_update"
    )

    def check_program(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        program = _cached_program(contexts)
        yield from program.index_findings
        annotations = {
            annotation.field_id: annotation
            for annotation in program.annotations
        }
        if not annotations:
            return
        entry_held = _entry_held(program)
        for func_id in sorted(program.functions):
            func = program.functions[func_id]
            base = entry_held.get(func_id, frozenset())
            for access in func.accesses:
                found = program.lookup_annotation(access.owner, access.attr)
                annotation = (
                    annotations.get(found.field_id) if found else None
                )
                if annotation is None:
                    continue
                if (
                    annotation.mode == _MODE_WRITES
                    and not access.is_write
                ):
                    continue
                if (
                    func.name == "__init__"
                    and func.class_id is not None
                    and annotation.class_id in program.mro(func.class_id)
                ):
                    continue
                held = base | access.held
                if annotation.lock_name in held:
                    continue
                kind = "write to" if access.is_write else "read of"
                held_note = (
                    f"holding only {sorted(_short(h) for h in held)}"
                    if held else "holding no lock"
                )
                yield Finding(
                    path=func.ctx.path, line=access.line,
                    rule=self.name,
                    message=(
                        f"{kind} {_short(annotation.field_id)} in "
                        f"{func_id} without its guarded-by lock "
                        f"{_short(annotation.lock_name)} "
                        f"({held_note} on some call path)"
                    ),
                )
