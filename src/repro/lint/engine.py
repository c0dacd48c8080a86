"""Rule engine: pragma parsing, hot-scope resolution, rule dispatch.

The engine parses each file once, extracts the comment pragmas
(``# repro: hot`` / ``# repro: cold`` / ``# repro: commit`` /
``# repro: noqa R00x``), resolves which scopes are hot, runs every
registered rule's AST visitor, and filters suppressed violations.

Hotness has two sources:

* **direct marks** — a ``# repro: hot`` pragma, an ``@hot_kernel``
  decorator, or lexical nesting inside a marked scope; and
* **call-graph propagation** — when linting a set of files together
  (:func:`lint_paths`), :mod:`repro.lint.callgraph` follows call sites
  out of every directly-hot scope, so a kernel that is only *reached*
  from a hot scope is analyzed too.  ``# repro: cold`` is a propagation
  barrier in both directions.

Suppression hygiene is checked alongside the rules: a bare
``# repro: noqa`` (no rule ids) raises warning ``W001`` instead of
silently silencing everything, and a rule-scoped noqa whose named rules
no longer fire on that line raises ``W002`` (stale suppression).  The
``W`` pseudo-rules are never themselves noqa-suppressible — use the
baseline (:mod:`repro.lint.baseline`) to grandfather them.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_PRAGMA_HOT = re.compile(r"#\s*repro:\s*hot\b")
_PRAGMA_COLD = re.compile(r"#\s*repro:\s*cold\b")
_PRAGMA_COMMIT = re.compile(r"#\s*repro:\s*commit\b")
_PRAGMA_NOQA = re.compile(
    r"#\s*repro:\s*noqa\b\s*:?\s*([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)?")

#: pseudo-rules emitted by the engine itself (suppression hygiene).
WARNING_RULES = ("W001", "W002")


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to a file/line/column."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything rules need about one source file."""

    path: str
    source: str
    tree: ast.Module
    #: line -> set of suppressed rule ids (empty set = suppress all rules)
    noqa: Dict[int, Set[str]] = field(default_factory=dict)
    #: line -> column of the noqa comment (for W001/W002 reports)
    noqa_cols: Dict[int, int] = field(default_factory=dict)
    #: lines carrying a `# repro: hot` comment
    hot_lines: Set[int] = field(default_factory=set)
    #: lines carrying a `# repro: cold` comment
    cold_lines: Set[int] = field(default_factory=set)
    #: lines carrying a `# repro: commit` comment (R008 epoch boundary)
    commit_lines: Set[int] = field(default_factory=set)
    module_hot: bool = False
    #: dotted in-file qualnames made hot by call-graph propagation
    propagated_hot: Set[str] = field(default_factory=set)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in WARNING_RULES:
            return False  # suppression hygiene cannot be noqa'd away
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        return not rules or rule in rules


def _scan_pragmas(ctx: FileContext) -> None:
    """Populate pragma tables from the token stream (comments only)."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(ctx.source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line, col = tok.start
            text = tok.string
            m = _PRAGMA_NOQA.search(text)
            if m:
                ids = m.group(1)
                ctx.noqa[line] = (
                    {s.strip() for s in ids.split(",")} if ids else set())
                ctx.noqa_cols[line] = col
            if _PRAGMA_HOT.search(text):
                ctx.hot_lines.add(line)
                # Standalone comment at column 0 marks the whole module.
                if col == 0:
                    src_line = ctx.source.splitlines()[line - 1]
                    if src_line.lstrip().startswith("#"):
                        ctx.module_hot = True
            if _PRAGMA_COLD.search(text):
                ctx.cold_lines.add(line)
            if _PRAGMA_COMMIT.search(text):
                ctx.commit_lines.add(line)
    except tokenize.TokenError:
        pass


def build_context(source: str, path: str = "<string>") -> FileContext:
    """Parse one file into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path=path, source=source, tree=tree)
    _scan_pragmas(ctx)
    return ctx


def _decorated_hot(node: ast.AST) -> bool:
    """True when a def/class carries an ``@hot_kernel`` decorator."""
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "hot_kernel":
            return True
    return False


def _scope_lines(node: ast.AST) -> Iterable[int]:
    """Lines that may carry a scope-level pragma: decorators + def line(s)."""
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    # The def line itself may wrap; take through the line before the first
    # body statement (that line belongs to the nested statement, which may
    # carry its own pragma), clamped for single-line `def f(): ...` forms.
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        stop = max(start, body[0].lineno - 1)
    else:  # lambdas: body is a single expression
        stop = getattr(body, "lineno", node.lineno)
    return range(start, stop + 1)


def scope_name(node: ast.AST) -> str:
    """The qualname component a scope contributes (lambdas included)."""
    return getattr(node, "name", "<lambda>")


class ScopedVisitor(ast.NodeVisitor):
    """AST visitor tracking whether the current scope is hot.

    Hotness is inherited from the enclosing scope; a ``# repro: cold``
    pragma on the def/class line forces cold, a ``# repro: hot`` pragma
    or ``@hot_kernel`` decorator forces hot, and a scope whose qualname
    is in ``ctx.propagated_hot`` (reached from a hot scope through the
    call graph) is hot unless cold-marked.

    A parallel *commit* flag tracks ``# repro: commit`` scopes — the
    sanctioned epoch-boundary writers rule R008 keys off.
    """

    rule = "R000"

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.violations: List[Violation] = []
        self._hot_stack: List[bool] = [ctx.module_hot]
        self._commit_stack: List[bool] = [False]
        self._qual_stack: List[str] = []

    @property
    def hot(self) -> bool:
        return self._hot_stack[-1]

    @property
    def in_commit(self) -> bool:
        return self._commit_stack[-1]

    @property
    def qualname(self) -> str:
        return ".".join(self._qual_stack)

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            rule=self.rule, path=self.ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), message=message))

    # -- scope bookkeeping -----------------------------------------------------
    def _effective_hot(self, node: ast.AST) -> bool:
        lines = set(_scope_lines(node))
        if lines & self.ctx.cold_lines:
            return False
        if lines & self.ctx.hot_lines or _decorated_hot(node):
            return True
        qual = ".".join(self._qual_stack + [scope_name(node)])
        if qual in self.ctx.propagated_hot:
            return True
        return self.hot

    def _effective_commit(self, node: ast.AST) -> bool:
        if set(_scope_lines(node)) & self.ctx.commit_lines:
            return True
        return self.in_commit

    def _enter_scope(self, node: ast.AST) -> None:
        self._hot_stack.append(self._effective_hot(node))
        self._commit_stack.append(self._effective_commit(node))
        self._qual_stack.append(scope_name(node))
        self.scope_entered(node)
        self.generic_visit(node)
        self.scope_left(node)
        self._qual_stack.pop()
        self._commit_stack.pop()
        self._hot_stack.pop()

    def scope_entered(self, node: ast.AST) -> None:  # hook for rules
        pass

    def scope_left(self, node: ast.AST) -> None:  # hook for rules
        pass

    def visit_FunctionDef(self, node):
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node):
        self._enter_scope(node)

    def visit_ClassDef(self, node):
        self._enter_scope(node)

    def visit_Lambda(self, node):
        self._enter_scope(node)


def _suppression_warnings(ctx: FileContext, raw: Sequence[Violation],
                          run_rules: Set[str]) -> List[Violation]:
    """W001 for bare noqas, W002 for noqas that no longer match a hit.

    ``raw`` is the pre-suppression rule output; staleness is only judged
    against rules that actually ran (``run_rules``), so linting with
    ``--select R006`` does not flag every R002 suppression as stale.
    """
    fired: Dict[int, Set[str]] = {}
    for v in raw:
        fired.setdefault(v.line, set()).add(v.rule)
    out: List[Violation] = []
    for line, ids in sorted(ctx.noqa.items()):
        col = ctx.noqa_cols.get(line, 0)
        if not ids:
            out.append(Violation(
                rule="W001", path=ctx.path, line=line, col=col,
                message="bare '# repro: noqa' suppresses every rule on "
                        "the line — name the rule id(s), e.g. "
                        "'# repro: noqa R002'"))
            continue
        stale = sorted(r for r in ids & run_rules
                       if r not in fired.get(line, set()))
        if stale:
            out.append(Violation(
                rule="W002", path=ctx.path, line=line, col=col,
                message=f"stale suppression: {', '.join(stale)} no longer "
                        f"fire(s) on this line — drop the noqa"))
    return out


def _lint_context(ctx: FileContext,
                  rule_classes: Sequence[type]) -> List[Violation]:
    """Run rules over one prepared context; returns unsuppressed
    violations plus suppression-hygiene warnings."""
    raw: List[Violation] = []
    for cls in rule_classes:
        visitor = cls(ctx)
        visitor.visit(ctx.tree)
        raw.extend(visitor.violations)
    out = [v for v in raw if not ctx.is_suppressed(v.rule, v.line)]
    out.extend(_suppression_warnings(
        ctx, raw, {cls.rule for cls in rule_classes}))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[type]] = None,
                callgraph: bool = True) -> List[Violation]:
    """Lint one source string; returns unsuppressed violations.

    Call-graph hot-scope propagation runs within the single file (pass
    ``callgraph=False`` for the directly-marked-scopes-only behavior).
    """
    from repro.lint.rules import ALL_RULES
    rule_classes = list(rules) if rules is not None else list(ALL_RULES)
    try:
        ctx = build_context(source, path)
    except SyntaxError as exc:
        return [Violation(rule="E999", path=path, line=exc.lineno or 0,
                          col=(exc.offset or 1) - 1,
                          message=f"syntax error: {exc.msg}")]
    if callgraph:
        from repro.lint.callgraph import propagate_hot
        propagate_hot([ctx])
    return _lint_context(ctx, rule_classes)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of .py files."""
    out: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(
                f for f in path.rglob("*.py")
                if "__pycache__" not in f.parts))
        elif path.suffix == ".py":
            out.append(path)
    return out


def lint_paths(paths: Sequence[str],
               select: Optional[Set[str]] = None,
               callgraph: bool = True
               ) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns (violations, files_checked).

    All files are parsed first so hot-scope status can propagate through
    intra-repo call sites (including cross-file calls) before any rule
    runs.
    """
    from repro.lint.rules import ALL_RULES
    rule_classes = [r for r in ALL_RULES
                    if select is None or r.rule in select]
    files = discover_files(paths)
    violations: List[Violation] = []
    contexts: List[FileContext] = []
    for f in files:
        try:
            source = f.read_text(encoding="utf-8")
        except OSError as exc:
            violations.append(Violation(
                rule="E998", path=str(f), line=0, col=0,
                message=f"cannot read file: {exc}"))
            continue
        try:
            contexts.append(build_context(source, str(f)))
        except SyntaxError as exc:
            violations.append(Violation(
                rule="E999", path=str(f), line=exc.lineno or 0,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}"))
    if callgraph and contexts:
        from repro.lint.callgraph import propagate_hot
        propagate_hot(contexts)
    for ctx in contexts:
        violations.extend(_lint_context(ctx, rule_classes))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, len(files)
