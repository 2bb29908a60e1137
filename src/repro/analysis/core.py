"""Analyzer core: findings, rules, suppressions, baselines, the driver.

The moving parts, in the order they act on a file:

1. the file is parsed once with :func:`ast.parse` into a
   :class:`ModuleContext` (tree + source lines + dotted module name);
2. every registered :class:`Rule` whose :meth:`Rule.applies_to` accepts
   the module walks the tree and yields :class:`Finding`\\ s;
3. inline suppressions (``# repro: allow(<rule>) -- rationale``) on the
   finding's line — or on a comment line directly above it — filter
   findings out; a suppression **must** carry a rationale after ``--``
   or it is itself reported (``suppression-rationale``), and a
   suppression that filtered nothing is reported as a warning
   (``unused-suppression``) so stale allowances cannot accumulate;
4. a baseline (a checked-in JSON file of grandfathered findings) is
   subtracted; whatever remains is reported.

Program rules reach their interprocedural facts through :func:`solve`,
the package's one fixpoint loop.

Exit-code policy lives in :mod:`repro.analysis.cli`: error-severity
findings always fail, warnings fail only under ``--strict``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import AnalysisError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Findings synthesized by the core itself (not by a registered rule).
RULE_PARSE = "parse"
RULE_SUPPRESSION_RATIONALE = "suppression-rationale"
RULE_UNUSED_SUPPRESSION = "unused-suppression"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, rule, message) — the stable sort key used
    by every reporter, so output is diffable across runs and machines.
    """

    path: str
    line: int
    rule: str
    message: str
    severity: str = SEVERITY_ERROR

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: deliberately line-number-free, so pure
        line drift does not invalidate a grandfathered finding."""
        return (self.path, self.rule, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class ModuleContext:
    """Everything a rule may inspect about one parsed module."""

    def __init__(self, path: str, module: str, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        #: Dotted module name (``repro.db.pager``) — rules scope on this,
        #: never on raw filesystem paths.
        self.module = module
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()

    def finding(self, node: ast.AST, rule: str, message: str,
                severity: str = SEVERITY_ERROR) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            rule=rule,
            message=message,
            severity=severity,
        )

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`name`, :attr:`description`, and
    :attr:`invariant` (the paper property the rule protects), override
    :meth:`check`, and optionally narrow :meth:`applies_to`.
    """

    name: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""
    #: One line tying the rule to the V2FS soundness argument.
    invariant: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self.applies_to(ctx):
            yield from self.check(ctx)


class ProgramRule(Rule):
    """A rule that needs the *whole program*, not one module at a time.

    Per-module rules are pure functions of one tree; interprocedural
    properties (lock ordering across call edges, guarded-by discipline
    through helper functions) are not.  A ProgramRule receives every
    parsed :class:`ModuleContext` at once via :meth:`check_program`;
    the driver runs it after the per-module pass, and its findings go
    through the same suppression and baseline machinery (each finding's
    ``path`` must name one of the analyzed modules for suppressions to
    apply).
    """

    def check_program(
        self, contexts: Sequence["ModuleContext"]
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Running a program rule over a single module is well-defined:
        # the program simply has one module (the fixture entry point).
        yield from self.check_program([ctx])


#: The process-wide rule registry, keyed by rule name.
_RULES: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the registry (instantiated once)."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if rule.name in _RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _RULES[rule.name] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    # Importing the rule modules populates the registry on first use.
    from repro.analysis import concurrency as _concurrency  # noqa: F401
    from repro.analysis import dataflow as _dataflow  # noqa: F401
    from repro.analysis import ownership as _ownership  # noqa: F401
    from repro.analysis import rules as _rules  # noqa: F401

    return [_RULES[name] for name in sorted(_RULES)]


# ----------------------------------------------------------------------
# The fixpoint solver
# ----------------------------------------------------------------------

V = TypeVar("V")


def solve(
    analysis: str,
    initial: Dict[Hashable, V],
    reads: Callable[[Hashable], Iterable[Hashable]],
    step: Callable[[Hashable, Dict[Hashable, V]], V],
    leq: Callable[[V, V], bool],
) -> Dict[Hashable, V]:
    """The one fixpoint loop of :mod:`repro.analysis`.

    ``initial`` gives every node its starting value, ``reads(n)`` the
    nodes whose values ``step(n, values)`` consults, and ``leq(a, b)``
    the analysis's order (``a`` at or below ``b``).  Strongly connected
    components of the reads graph are solved one at a time, each after
    every component it reads: callees first when nodes read their
    callees (bottom-up summaries), callers first when they read their
    callers (entry-held locks, roles).  A node is re-evaluated only when
    something it reads has changed, so an acyclic chain converges in one
    pass whatever its depth.

    A step result order-equal to the current value is no change (the
    current value, witnesses included, stays); one not above it raises
    :class:`AnalysisError` naming the analysis and the node.  There is
    no round cap: values climb orders over finite, program-derived
    sets, so the loop ends, and a step that breaks this is reported,
    never cut short into a partial answer.
    """
    values = dict(initial)
    deps = {
        node: [d for d in reads(node) if d in values] for node in values
    }
    readers: Dict[Hashable, List[Hashable]] = {node: [] for node in values}
    for node, sources in deps.items():
        for source in sources:
            readers[source].append(node)
    for component in _components(values, deps):
        members = set(component)
        queue = deque(reversed(component))  # discovery order
        queued = set(members)
        while queue:
            node = queue.popleft()
            queued.discard(node)
            new = step(node, values)
            if not leq(values[node], new):
                raise AnalysisError(analysis, node)
            if leq(new, values[node]):
                continue
            values[node] = new
            for reader in readers[node]:
                if reader in members and reader not in queued:
                    queued.add(reader)
                    queue.append(reader)
    return values


def _components(
    nodes: Iterable[Hashable], deps: Dict[Hashable, List[Hashable]],
) -> List[List[Hashable]]:
    """Strongly connected components of ``deps``, each listed after
    every component it reaches (Tarjan's order, without recursion so
    call-graph depth is unbounded)."""
    number: Dict[Hashable, int] = {}
    low: Dict[Hashable, int] = {}
    stack: List[Hashable] = []
    on_stack = set()
    components: List[List[Hashable]] = []
    for root in nodes:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(deps[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in number:
                    number[succ] = low[succ] = len(number)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(deps[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], number[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == number[node]:
                    component = []
                    while not component or component[-1] != node:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                    components.append(component)
    return components


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

# Matches an allow(...) suppression comment with its optional rationale
# (the syntax is spelled out in this module's docstring, deliberately
# not here: a literal example would register as a real suppression).
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_\-,\s]+?)\s*\)"
    r"(?:\s*--\s*(\S.*))?"
)


@dataclass
class Suppression:
    line: int
    #: The line the suppression shields: its own line for a trailing
    #: comment; the next statement line for a standalone comment block
    #: (rationales may continue over several comment lines).
    target: int
    rules: Tuple[str, ...]
    rationale: Optional[str]
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        return (
            finding.rule in self.rules
            and finding.line in (self.line, self.target)
        )


def collect_suppressions(ctx: ModuleContext) -> List[Suppression]:
    """Scan real ``#`` comments (via :mod:`tokenize`, so the suppression
    syntax quoted inside strings or docstrings never counts)."""
    found: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(ctx.source).readline
        ))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found  # the parse rule already reports broken files
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        lineno = token.start[0]
        target = lineno
        if token.line.strip().startswith("#"):
            # Standalone comment: shield the next statement line, past
            # any continuation of the rationale comment block.
            target = lineno + 1
            while target <= len(ctx.lines):
                text = ctx.lines[target - 1].strip()
                if text and not text.startswith("#"):
                    break
                target += 1
        found.append(Suppression(lineno, target, rules, match.group(2)))
    return found


def apply_suppressions(
    ctx: ModuleContext, findings: List[Finding],
    active_rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Filter suppressed findings; report suppression hygiene issues.

    ``active_rules`` names the rules this run actually executed (None
    means all).  A suppression naming only inactive rules is skipped
    entirely — neither applied nor reported unused — so a filtered
    ``lint --rule`` pass does not flag allowances that belong to the
    rules it deliberately did not run.
    """
    suppressions = collect_suppressions(ctx)
    # "Unknown rule" must mean unknown to the registry, not merely
    # not-yet-imported: force every rule module in before judging.
    all_rules()
    known = set(_RULES) | {
        RULE_PARSE, RULE_SUPPRESSION_RATIONALE, RULE_UNUSED_SUPPRESSION
    }
    if active_rules is not None:
        active = set(active_rules)
        # Keep suppressions that touch an active rule, plus any naming
        # an unknown rule: a typo'd allowance is a hygiene error no
        # matter which subset of rules this run executes.
        suppressions = [
            s for s in suppressions
            if active.intersection(s.rules)
            or any(r not in known for r in s.rules)
        ]
    kept: List[Finding] = []
    for finding in findings:
        covering = next(
            (s for s in suppressions if s.covers(finding)), None
        )
        if covering is None:
            kept.append(finding)
        else:
            covering.used = True
    for sup in suppressions:
        if sup.rationale is None:
            kept.append(Finding(
                path=ctx.path, line=sup.line,
                rule=RULE_SUPPRESSION_RATIONALE,
                message=(
                    "suppression has no rationale; write "
                    "'# repro: allow(rule) -- why this is sound'"
                ),
            ))
        for rule_name in sup.rules:
            if rule_name not in known:
                kept.append(Finding(
                    path=ctx.path, line=sup.line,
                    rule=RULE_UNUSED_SUPPRESSION,
                    message=f"suppression names unknown rule {rule_name!r}",
                    severity=SEVERITY_WARNING,
                ))
        if not sup.used:
            kept.append(Finding(
                path=ctx.path, line=sup.line,
                rule=RULE_UNUSED_SUPPRESSION,
                message=(
                    "suppression matched no finding "
                    f"({', '.join(sup.rules)}); remove it"
                ),
                severity=SEVERITY_WARNING,
            ))
    return kept


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------


def load_baseline(path: Path) -> List[Dict[str, str]]:
    """Load a baseline file: a JSON object with a ``findings`` list of
    ``{"path", "rule", "message"}`` entries (line numbers are excluded
    on purpose — see :meth:`Finding.key`)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(
        data.get("findings"), list
    ):
        raise ValueError(
            f"{path}: baseline must be an object with a 'findings' list"
        )
    return data["findings"]


def subtract_baseline(
    findings: List[Finding], baseline: Iterable[Dict[str, str]]
) -> List[Finding]:
    """Remove baselined findings (multiset semantics: each baseline
    entry absorbs at most one finding)."""
    budget: Dict[Tuple[str, str, str], int] = {}
    for entry in baseline:
        key = (entry.get("path", ""), entry.get("rule", ""),
               entry.get("message", ""))
        budget[key] = budget.get(key, 0) + 1
    kept: List[Finding] = []
    for finding in findings:
        remaining = budget.get(finding.key(), 0)
        if remaining > 0:
            budget[finding.key()] = remaining - 1
        else:
            kept.append(finding)
    return kept


def baseline_entries(findings: Sequence[Finding]) -> List[Dict[str, str]]:
    """Render findings as sorted baseline entries (``--write-baseline``)."""
    entries = [
        {"path": f.path, "rule": f.rule, "message": f.message}
        for f in findings
    ]
    entries.sort(key=lambda e: (e["path"], e["rule"], e["message"]))
    return entries


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path (``src/repro/db/pager.py``
    -> ``repro.db.pager``); falls back to the stem for odd layouts."""
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.name]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _run_rules(
    contexts: Sequence[ModuleContext],
    rules: Sequence[Rule],
) -> List[Finding]:
    """Per-module rules on each context, program rules once over all,
    then suppressions applied per module."""
    findings: List[Finding] = []
    for ctx in contexts:
        for rule in rules:
            if not isinstance(rule, ProgramRule):
                findings.extend(rule.run(ctx))
    program_scope = [
        (rule, [ctx for ctx in contexts if rule.applies_to(ctx)])
        for rule in rules if isinstance(rule, ProgramRule)
    ]
    for rule, scoped in program_scope:
        if scoped:
            findings.extend(rule.check_program(scoped))
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    # A filtered run (lint --rule) must not flag suppressions that
    # belong to rules it did not execute; an unfiltered run sees every
    # registered rule, so the scoping is a no-op there.
    active = {rule.name for rule in rules}
    kept: List[Finding] = []
    for ctx in contexts:
        kept.extend(apply_suppressions(
            ctx, by_path.pop(ctx.path, []), active_rules=active
        ))
    for stray in by_path.values():  # findings on unanalyzed paths
        kept.extend(stray)
    return sorted(kept)


def analyze_source(
    source: str,
    *,
    module: str,
    path: str = "<fixture>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze one source string (the test fixtures' entry point)."""
    return analyze_sources([(module, path, source)], rules=rules)


def parse_sources(
    named_sources: Sequence[Tuple[str, str, str]],
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Parse ``(module, path, source)`` triples into contexts.

    Returns the parsed contexts plus parse-failure findings.  Split out
    from :func:`analyze_sources` so a caller (the CLI) can parse once
    and reuse the same context objects for both the rule pass and the
    effect-table export — identity reuse is what makes the program
    cache in :mod:`repro.analysis.concurrency` hit.
    """
    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    for module, path, source in named_sources:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            findings.append(Finding(
                path=path, line=error.lineno or 1, rule=RULE_PARSE,
                message=f"syntax error: {error.msg}",
            ))
            continue
        contexts.append(ModuleContext(path, module, tree, source))
    return contexts, findings


def analyze_sources(
    named_sources: Sequence[Tuple[str, str, str]],
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze ``(module, path, source)`` triples as one program.

    The multi-module entry point for interprocedural rule fixtures: a
    test can hand the analyzer a whole miniature package and check
    cross-module call-graph reasoning.
    """
    contexts, findings = parse_sources(named_sources)
    findings.extend(_run_rules(
        contexts, rules if rules is not None else all_rules()
    ))
    return sorted(findings)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def parse_paths(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
) -> Tuple[List[ModuleContext], List[Finding]]:
    """Read and parse every ``*.py`` under ``paths`` into contexts.

    Reported paths are made relative to ``root`` (default: the current
    directory) when possible, and always use ``/`` separators, so JSON
    output is stable across checkouts and platforms.
    """
    base = root if root is not None else Path.cwd()
    named_sources: List[Tuple[str, str, str]] = []
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(base.resolve())
        except ValueError:
            rel = file_path
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                path=rel.as_posix(), line=1, rule=RULE_PARSE,
                message=f"unreadable source file: {error}",
            ))
            continue
        named_sources.append(
            (module_name_for(file_path), rel.as_posix(), source)
        )
    contexts, parse_findings = parse_sources(named_sources)
    findings.extend(parse_findings)
    return contexts, findings


def analyze_paths(
    paths: Sequence[Path],
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Analyze every ``*.py`` under ``paths``; returns sorted findings.

    All files are parsed before any program rule runs, so
    interprocedural rules see the complete call graph.
    """
    contexts, findings = parse_paths(paths, root=root)
    findings.extend(_run_rules(
        contexts, rules if rules is not None else all_rules()
    ))
    return sorted(findings)
