"""The rule catalog — AST checks enforcing the paper's kernel contracts.

===== =====================================================================
R001  per-particle Python loop doing scalar gathers off an SoA container
      inside a hot scope (defeats row vectorization; Fig. 5/6 contract)
R002  hard-coded dtype literal (``np.float64``, ``dtype=float``,
      ``.astype(np.float32)``) in a hot scope — kernels must thread a
      ``PrecisionPolicy``/``dtype`` parameter (Sec. 7.2 contract)
R003  element-wise / strided SoA-row access in a hot scope: converting a
      row with ``np.asarray``/``list`` or gathering a scalar index behind
      a slice (``data[:, i]``) instead of consuming the contiguous row
R004  accumulation carried in ``value_dtype`` where the paper mandates
      ``accum_dtype`` (per-walker sums are always double; Sec. 7.2)
R005  per-step serialization of array payloads in a hot scope — pickling
      walker state, or shipping arrays through ``.send()``/``.put()``
      pipes/queues; bulk state crosses processes only through the
      shared-memory blocks (docs/parallel_crowds.md zero-copy contract)
R012  per-electron Python-loop backend dispatch in a hot scope — a
      ``for k in range(n)`` loop calling registered backend kernels
      pays the dispatch seam n times per sweep; the loop belongs
      behind the seam (``sweep_run``) where dispatch is amortized to
      once per sweep (docs/sweep_fusion.md)
===== =====================================================================

The checks are deliberately heuristic: they key off the naming and idiom
conventions of this codebase (SoA receivers are called ``Rsoa`` /
``data`` / ``distances`` / ``temp_r`` / ...; rows are obtained via
``dist_row`` / ``disp_row`` / ``row``).  False positives are silenced
with ``# repro: noqa R00x`` plus a justification comment — see
docs/static_analysis.md for the suppression policy.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.engine import ScopedVisitor

#: attribute/variable names treated as SoA storage for R001/R003.
SOA_RECEIVERS: Set[str] = {
    "Rsoa", "soa", "data", "distances", "displacements",
    "temp_r", "temp_dr", "row_r", "row_dr",
}

#: methods returning (views of) SoA rows, for the R003 conversion check.
ROW_METHODS: Set[str] = {"dist_row", "disp_row", "row", "padded_row"}

#: np.* reductions where an explicit float64 accumulator dtype is the
#: *mandated* behavior (accumulate in double), so R002 exempts them.
REDUCTION_FUNCS: Set[str] = {"sum", "dot", "einsum", "mean", "vdot", "add"}

FLOAT_DTYPE_ATTRS: Set[str] = {"float64", "float32", "float16",
                               "single", "double", "half"}
FLOAT_DTYPE_STRINGS: Set[str] = {"float64", "float32", "float16",
                                 "f4", "f8", "single", "double"}


def _receiver_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_dtype_literal(node: ast.AST) -> Optional[str]:
    """Return a printable spelling when ``node`` is a hard-coded dtype."""
    if isinstance(node, ast.Attribute) and node.attr in FLOAT_DTYPE_ATTRS:
        return f"np.{node.attr}"
    if isinstance(node, ast.Name) and node.id == "float":
        return "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in FLOAT_DTYPE_STRINGS:
        return repr(node.value)
    return None


def _index_elements(index: ast.AST) -> List[ast.AST]:
    """Flatten a subscript index into its per-axis elements."""
    if isinstance(index, ast.Tuple):
        return list(index.elts)
    return [index]


def _contains_name(node: ast.AST, name: str) -> bool:
    """True when ``name`` occurs in ``node`` outside any Slice subtree."""
    if isinstance(node, ast.Slice):
        return False
    if isinstance(node, ast.Name) and node.id == name:
        return True
    return any(_contains_name(child, name) for child in ast.iter_child_nodes(node))


class RuleR001(ScopedVisitor):
    """Per-particle loop with scalar gathers off an SoA container."""

    rule = "R001"

    def _loop_vars(self, target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Tuple):
            return [e.id for e in target.elts if isinstance(e, ast.Name)]
        return []

    def _is_particle_iter(self, it: ast.AST) -> bool:
        """range()/enumerate() over something that is not a tiny literal."""
        if not isinstance(it, ast.Call):
            return False
        name = _call_name(it.func)
        if name == "enumerate":
            return True
        if name != "range":
            return False
        # A literal range(3)/range(4) is a dimension loop, not per-particle.
        consts = [a.value for a in it.args
                  if isinstance(a, ast.Constant) and isinstance(a.value, int)]
        if len(consts) == len(it.args) and consts and max(consts) <= 8:
            return False
        return True

    def _check_loop(self, loop_node: ast.AST, target: ast.AST,
                    it: ast.AST, body: List[ast.AST]) -> None:
        if not (self.hot and self._is_particle_iter(it)):
            return
        loop_vars = self._loop_vars(target)
        if not loop_vars:
            return
        for stmt in body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, ast.Load)):
                    continue
                recv = _receiver_name(node.value)
                if recv not in SOA_RECEIVERS:
                    continue
                for elem in _index_elements(node.slice):
                    if isinstance(elem, ast.Slice):
                        continue
                    if any(_contains_name(elem, v) for v in loop_vars):
                        self.report(loop_node, (
                            f"per-particle loop gathers scalar elements "
                            f"from SoA container '{recv}' — use one "
                            f"vectorized operation over the padded row"))
                        return

    def visit_For(self, node: ast.For):
        self._check_loop(node, node.target, node.iter, node.body)
        self.generic_visit(node)

    def _visit_comp(self, node):
        if self.hot:
            for gen in node.generators:
                elt = getattr(node, "elt", None) or getattr(node, "key", None)
                body = [e for e in (elt, getattr(node, "value", None))
                        if e is not None]
                self._check_loop(node, gen.target, gen.iter, body)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp


class RuleR002(ScopedVisitor):
    """Hard-coded dtype literal in a hot scope."""

    rule = "R002"

    def _is_accum_reduction(self, node: ast.Call, spelled: str) -> bool:
        """np.sum(..., dtype=np.float64) is the mandated DP accumulation."""
        return (spelled in ("np.float64", "np.double", "'float64'", "'f8'")
                and _call_name(node.func) in REDUCTION_FUNCS)

    def visit_Call(self, node: ast.Call):
        if self.hot:
            # dtype=<literal> keyword anywhere in a hot scope
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                spelled = _is_dtype_literal(kw.value)
                if spelled and not self._is_accum_reduction(node, spelled):
                    self.report(kw.value, (
                        f"hard-coded dtype {spelled} — thread the "
                        f"PrecisionPolicy (policy.value_dtype / "
                        f"accum_dtype) instead"))
            # .astype(<literal>) casts
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "astype" and node.args:
                spelled = _is_dtype_literal(node.args[0])
                if spelled:
                    self.report(node, (
                        f"hard-coded cast .astype({spelled}) — use the "
                        f"policy/table dtype"))
            # direct scalar constructors np.float32(x) / np.float64(x)
            spelled = _is_dtype_literal(node.func)
            if spelled and spelled.startswith("np."):
                self.report(node, (
                    f"hard-coded scalar constructor {spelled}(...) — use "
                    f"the policy dtype"))
        self.generic_visit(node)

    def scope_entered(self, node: ast.AST) -> None:
        if not (self.hot and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            return
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += list(zip(args.kwonlyargs, args.kw_defaults))
        for param, default in pairs:
            if param is None or default is None:
                continue
            if param.arg == "dtype":
                spelled = _is_dtype_literal(default)
                if spelled:
                    self.report(default, (
                        f"parameter default dtype={spelled} — default to "
                        f"None and resolve via "
                        f"repro.precision.resolve_value_dtype"))


class RuleR003(ScopedVisitor):
    """Row conversions and strided gathers off SoA storage in hot scopes."""

    rule = "R003"

    CONVERTERS = {"asarray", "array", "list", "tuple", "ascontiguousarray"}

    def _mentions_soa_row(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) \
                    and _call_name(sub.func) in ROW_METHODS:
                return True
            if isinstance(sub, ast.Attribute) \
                    and sub.attr in ("temp_r", "temp_dr", "Rsoa"):
                return True
        return False

    def visit_Call(self, node: ast.Call):
        if self.hot and _call_name(node.func) in self.CONVERTERS \
                and node.args and self._mentions_soa_row(node.args[0]):
            self.report(node, (
                "converting/copying an SoA row with "
                f"{_call_name(node.func)}() — rows are already contiguous "
                "ndarrays; consume them in place"))
        self.generic_visit(node)

    def _is_scalar_index(self, elem: ast.AST) -> bool:
        """Clearly-scalar index elements (Name alone could be a slice var)."""
        if isinstance(elem, ast.Constant) and isinstance(elem.value, int):
            return True
        return isinstance(elem, (ast.BinOp, ast.UnaryOp))

    def visit_Subscript(self, node: ast.Subscript):
        if self.hot and isinstance(node.ctx, ast.Load):
            recv = _receiver_name(node.value)
            if recv in SOA_RECEIVERS:
                elems = _index_elements(node.slice)
                slice_seen = False
                for elem in elems:
                    if isinstance(elem, ast.Slice):
                        slice_seen = True
                    elif slice_seen and self._is_scalar_index(elem):
                        self.report(node, (
                            f"strided per-particle gather "
                            f"'{recv}[..., i]' — scalar index behind a "
                            f"slice defeats the contiguous-row layout"))
                        break
        self.generic_visit(node)


class RuleR004(ScopedVisitor):
    """Accumulation carried in value_dtype instead of accum_dtype."""

    rule = "R004"

    ARRAY_CTORS = {"zeros", "empty", "ones", "full", "zeros_like",
                   "empty_like", "full_like"}
    SP_SPELLINGS = {"np.float32", "np.single", "np.half", "np.float16",
                    "'float32'", "'f4'"}

    def __init__(self, ctx):
        super().__init__(ctx)
        self._accumulators: List[dict] = [{}]

    def scope_entered(self, node: ast.AST) -> None:
        self._accumulators.append({})

    def scope_left(self, node: ast.AST) -> None:
        self._accumulators.pop()

    def _is_value_dtype_expr(self, node: ast.AST) -> bool:
        """dtype expressions that are the *kernel* precision."""
        spelled = _is_dtype_literal(node)
        if spelled in self.SP_SPELLINGS:
            return True
        return isinstance(node, ast.Attribute) and node.attr == "value_dtype"

    def visit_Assign(self, node: ast.Assign):
        if self.hot and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call):
            call = node.value
            name = _call_name(call.func)
            tainted = False
            if name in ("float32", "single", "half", "float16"):
                tainted = True
            elif name in self.ARRAY_CTORS:
                for kw in call.keywords:
                    if kw.arg == "dtype" \
                            and self._is_value_dtype_expr(kw.value):
                        tainted = True
            if tainted:
                self._accumulators[-1][node.targets[0].id] = node.lineno
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        if self.hot and isinstance(node.op, (ast.Add, ast.Sub)) \
                and isinstance(node.target, ast.Name) \
                and node.target.id in self._accumulators[-1]:
            self.report(node, (
                f"accumulating into value-precision variable "
                f"'{node.target.id}' (declared line "
                f"{self._accumulators[-1][node.target.id]}) — per-walker "
                f"sums must use policy.accum_dtype (float64)"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        if self.hot and _call_name(node.func) in REDUCTION_FUNCS:
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_value_dtype_expr(kw.value):
                    self.report(node, (
                        "reduction with a single-precision accumulator "
                        "dtype — per-walker sums must accumulate in "
                        "policy.accum_dtype (float64)"))
        self.generic_visit(node)


class RuleR005(ScopedVisitor):
    """Per-step serialization of array payloads inside a hot scope."""

    rule = "R005"

    PICKLE_MODULES = {"pickle", "cPickle", "cloudpickle", "marshal"}
    PICKLE_FUNCS = {"dumps", "loads", "dump", "load"}
    SHIP_METHODS = {"send", "put", "send_bytes", "put_nowait"}
    #: names whose appearance in a shipped payload marks it array-ish —
    #: the canonical walker-state fields plus the SoA containers.
    ARRAYISH: Set[str] = SOA_RECEIVERS | {
        "R", "weight", "logpsi", "local_energy", "age",
        "batch", "positions", "walkers", "G", "L",
    }

    def _is_pickle_call(self, node: ast.Call) -> bool:
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr in self.PICKLE_FUNCS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self.PICKLE_MODULES)

    def _mentions_array(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name = _receiver_name(sub)
            if name in self.ARRAYISH:
                return True
        return False

    def visit_Call(self, node: ast.Call):
        if self.hot:
            if self._is_pickle_call(node):
                self.report(node, (
                    "pickling inside a hot scope — walker state crosses "
                    "process boundaries through shared-memory blocks "
                    "(SharedWalkerState), never per-step serialization"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in self.SHIP_METHODS \
                    and any(self._mentions_array(a) for a in node.args):
                self.report(node, (
                    f".{node.func.attr}() of an array payload in a hot "
                    f"scope — only small control tuples ride the pipes; "
                    f"bulk walker arrays go through shared memory"))
        self.generic_visit(node)


class RuleR012(ScopedVisitor):
    """Per-electron Python-loop backend kernel dispatch in a hot scope."""

    rule = "R012"

    #: call spellings that resolve to the kernel seam at runtime
    DISPATCH_GETTERS = {"active", "get_backend"}

    def __init__(self, ctx):
        super().__init__(ctx)
        #: calls already reported (nested loops walk the same subtree)
        self._seen: Set[int] = set()

    def _dispatch_spelling(self, node: ast.Call) -> Optional[str]:
        """``backend.accept_mask(...)`` / ``active().det_ratio(...)`` ->
        printable spelling, else None.  Keyed off the registered kernel
        surface (repro.backend.base.KERNEL_NAMES) plus a backend-shaped
        receiver, so ordinary methods sharing a kernel's name on other
        objects don't fire."""
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in BACKEND_KERNEL_NAMES:
            return None
        recv = node.func.value
        dotted = _dotted_name(recv)
        if dotted is not None \
                and "backend" in dotted.rsplit(".", 1)[-1].lower():
            return f"{dotted}.{node.func.attr}"
        if isinstance(recv, ast.Call) \
                and _call_name(recv.func) in self.DISPATCH_GETTERS:
            return f"{_call_name(recv.func)}().{node.func.attr}"
        return None

    def visit_For(self, node: ast.For):
        if self.hot and isinstance(node.iter, ast.Call) \
                and _call_name(node.iter.func) == "range":
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if not (isinstance(sub, ast.Call)
                            and id(sub) not in self._seen):
                        continue
                    spelled = self._dispatch_spelling(sub)
                    if spelled is not None:
                        self._seen.add(id(sub))
                        self.report(sub, (
                            f"per-electron backend dispatch "
                            f"{spelled}() inside a range() loop — the "
                            f"seam is crossed once per iteration; move "
                            f"the loop behind the backend (the "
                            f"sweep_run pipeline kernel) so dispatch "
                            f"is paid once per sweep "
                            f"(docs/sweep_fusion.md)"))
        self.generic_visit(node)


from repro.backend.base import (  # noqa: E402 — after rule defs, like below
    KERNEL_NAMES as BACKEND_KERNEL_NAMES,
)
from repro.lint.determinism import (  # noqa: E402 — avoids import cycle
    DETERMINISM_CATALOG, DETERMINISM_RULES, _dotted_name,
)

ALL_RULES = [RuleR001, RuleR002, RuleR003, RuleR004,
             RuleR005, RuleR012] + DETERMINISM_RULES

#: short catalog for reporters and docs
RULE_CATALOG = {
    "R001": "per-particle Python loop gathering scalars off an SoA container",
    "R002": "hard-coded dtype literal in a hot kernel",
    "R003": "SoA row conversion/copy or strided gather in a hot kernel",
    "R004": "accumulation in value_dtype where accum_dtype is mandated",
    "R005": "per-step pickling or pipe-shipping of arrays in a hot kernel",
    "R012": "per-electron Python-loop backend dispatch in a hot scope",
    **DETERMINISM_CATALOG,
    "W001": "bare '# repro: noqa' — suppressions must be rule-scoped",
    "W002": "stale suppression — named rule no longer fires on the line",
}
