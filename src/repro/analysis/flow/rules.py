"""The interprocedural rules: FLOW001–FLOW003 and KER006.

These run only under ``repro lint --flow`` (they need the whole-project
call graph, so they are project-scope and meaningfully slower than the
syntactic rules).  Findings feed through the same suppression machinery
as every other rule.

FLOW001  a nondeterministic effect (unseeded RNG, wall clock, direct
         stdout/stderr) is *reachable* from worker task code — the
         interprocedural upgrade of DET001–DET003/OBS002.  Worker task
         code means: any function submitted to
         ``ExecutionEngine.submit``/``dispatch``, any module-level
         ``*_task`` function, and everything in ``repro.core.worker``.
FLOW002  an argument object is mutated *after* being submitted to the
         pool — under fork the mutation may or may not be visible to
         the worker depending on dispatch timing; under spawn it never
         is.  Either way the result depends on a race.
FLOW003  an unpicklable value (lambda, generator expression, nested
         function, open file handle) reaches a submit call — as the
         task callable or an argument, directly or through a call
         chain.  It covers everything PAR001/PAR002 flag, which stay
         for plain ``repro lint`` (no flow pass).
KER006   dtype-lattice propagation through the DP kernels: a wide
         score value is stored into packed-DP storage whose capacity is
         below the ScoringScheme-derived value bound (see
         :mod:`.dtypeflow`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..findings import Finding, Severity
from .callgraph import CallGraph, CallSite, FunctionNode
from .dtypeflow import DP_VALUE_BOUND, SCORING_PEAK, module_narrowings
from .effects import EffectAnalysis

#: Rule ids contributed by the flow layer (joined into known_rule_ids).
FLOW_RULE_IDS = ("FLOW001", "FLOW002", "FLOW003", "KER006")

#: Effects that make worker output nondeterministic or interleaved.
_GATED_KINDS = ("rng", "clock", "stdout")

_KIND_LABEL = {
    "rng": "unseeded/global RNG",
    "clock": "wall-clock read",
    "stdout": "direct stdout/stderr write",
}

#: Pool dispatch entry points (ExecutionEngine.submit / .dispatch).
_DISPATCH_METHODS = ("submit", "dispatch")


def _dispatch_calls(function: FunctionNode) -> Iterator[CallSite]:
    for site in function.calls:
        func = site.node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DISPATCH_METHODS
            and site.node.args
        ):
            yield site


def _submitted_roots(graph: CallGraph) -> Dict[str, str]:
    """qualname -> why it is worker-root (for the finding message)."""
    roots: Dict[str, str] = {}
    for function in graph.functions.values():
        for site in _dispatch_calls(function):
            task = site.node.args[0]
            if not isinstance(task, ast.Name):
                continue
            targets, _ = _resolve_task_name(graph, function, task.id)
            for target in targets:
                roots.setdefault(
                    target,
                    f"submitted to the pool at "
                    f"{function.path}:{site.line}",
                )
    for qualname, function in graph.functions.items():
        if (
            function.class_name is None
            and function.name.endswith("_task")
            # The analyzer itself never runs in workers; its rule
            # checkers (check_lambda_task, ...) are not task code.
            and not function.modname.startswith("repro.analysis")
        ):
            if "<locals>" not in qualname:
                roots.setdefault(qualname, "module-level *_task function")
        if _is_worker_module(function.modname):
            roots.setdefault(
                qualname, f"defined in worker module {function.modname}"
            )
    return roots


def _is_worker_module(modname: str) -> bool:
    parts = modname.split(".")
    return "worker" in parts or "workers" in parts


def _resolve_task_name(
    graph: CallGraph, function: FunctionNode, name: str
) -> Tuple[Tuple[str, ...], Optional[str]]:
    """Resolve a bare task name the same way the call graph would."""
    # Local defs shadow module-level ones.
    scope = function.qualname
    while True:
        candidate = f"{scope}.<locals>.{name}"
        if candidate in graph.functions:
            return (candidate,), None
        if ".<locals>." not in scope:
            break
        scope = scope.rsplit(".<locals>.", 1)[0]
    candidate = f"{function.modname}.{name}"
    if candidate in graph.functions:
        return (candidate,), None
    # Imported task: find any project def with that terminal name.
    matches = tuple(
        qualname
        for qualname, node in graph.functions.items()
        if node.name == name and node.class_name is None
        and "<locals>" not in qualname
    )
    return matches, None


def check_flow001(
    graph: CallGraph, effects: EffectAnalysis
) -> Iterator[Finding]:
    roots = _submitted_roots(graph)
    for qualname in sorted(roots):
        function = graph.functions.get(qualname)
        if function is None:
            continue
        for kind in _GATED_KINDS:
            if kind not in effects.effects.get(qualname, {}):
                continue
            chain = effects.describe_chain(qualname, kind)
            yield Finding(
                rule="FLOW001",
                severity=Severity.ERROR,
                path=function.path,
                line=function.line,
                col=function.col,
                message=(
                    f"{_KIND_LABEL[kind]} reachable from worker task "
                    f"{function.name} ({roots[qualname]}): {chain} — "
                    "route the effect through repro.obs or thread an "
                    "explicit seed/clock through the task arguments"
                ),
            )


# ---------------------------------------------------------------------------
# FLOW002: mutation of an argument object after it was submitted.
# ---------------------------------------------------------------------------

#: In-place mutation method names (same set the effect pass uses).
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "appendleft",
    "extendleft",
    "sort",
    "reverse",
    "fill",
}


def _argument_names(call: ast.Call) -> Set[str]:
    """Names passed as task *arguments* (everything after the callable)."""
    names: Set[str] = set()
    for arg in call.args[1:]:
        if isinstance(arg, ast.Name):
            names.add(arg.id)
        elif isinstance(arg, ast.Starred) and isinstance(
            arg.value, ast.Name
        ):
            names.add(arg.value.id)
    for keyword in call.keywords:
        if isinstance(keyword.value, ast.Name):
            names.add(keyword.value.id)
    return names


def _mutation_of(node: ast.AST, live: Set[str]) -> Optional[Tuple[str, str]]:
    """(name, how) when ``node`` mutates a tracked name in place."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base: ast.AST = target
            depth = 0
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
                depth += 1
            if depth and isinstance(base, ast.Name) and base.id in live:
                how = (
                    "subscript store"
                    if isinstance(target, ast.Subscript)
                    else "attribute store"
                )
                return base.id, how
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        receiver = node.func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in live
            and node.func.attr in _MUTATING_METHODS
        ):
            return receiver.id, f".{node.func.attr}() call"
    return None


def _rebound_names(node: ast.AST) -> Set[str]:
    """Names plainly rebound by ``node`` (rebinding ends tracking)."""
    rebound: Set[str] = set()
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                rebound.add(target.id)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            rebound.add(node.target.id)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        if isinstance(node.target, ast.Name):
            rebound.add(node.target.id)
    return rebound


def check_flow002(graph: CallGraph) -> Iterator[Finding]:
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        submits = [
            (site, _argument_names(site.node))
            for site in _dispatch_calls(function)
        ]
        submits = [(site, names) for site, names in submits if names]
        if not submits:
            continue
        # Walk the body in source order; statements after each submit
        # that mutate a submitted name (without rebinding it first) are
        # racy under fork and lost under spawn.
        body = (
            function.node.body
            if not isinstance(function.node, ast.Lambda)
            else []
        )
        for node in ast.walk(ast.Module(body=list(body), type_ignores=[])):
            if not hasattr(node, "lineno"):
                continue
            for site, live in submits:
                if node.lineno <= site.line:
                    continue
                live -= _rebound_names(node)
                hit = _mutation_of(node, live)
                if hit is None:
                    continue
                name, how = hit
                live.discard(name)  # one finding per name per submit
                yield Finding(
                    rule="FLOW002",
                    severity=Severity.ERROR,
                    path=function.path,
                    line=node.lineno,
                    col=getattr(node, "col_offset", 0),
                    message=(
                        f"{name} is mutated ({how}) after being "
                        f"submitted to the pool at line {site.line} — "
                        "the worker may see either state depending on "
                        "dispatch timing; copy the object or mutate "
                        "before submitting"
                    ),
                )


# ---------------------------------------------------------------------------
# FLOW003: unpicklable values reaching submit through a call chain.
# ---------------------------------------------------------------------------


def _nested_def_names(function: FunctionNode) -> Set[str]:
    """Names of defs/lambda-bindings nested inside this function."""
    nested: Set[str] = set()
    node = function.node
    if isinstance(node, ast.Lambda):
        return nested
    for inner in ast.walk(node):
        if inner is node:
            continue
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.add(inner.name)
        elif isinstance(inner, ast.Assign) and isinstance(
            inner.value, ast.Lambda
        ):
            for target in inner.targets:
                if isinstance(target, ast.Name):
                    nested.add(target.id)
    return nested


def _open_handles(function: FunctionNode) -> Set[str]:
    """Names bound to ``open(...)`` results (incl. with-statement)."""
    handles: Set[str] = set()
    node = function.node
    if isinstance(node, ast.Lambda):
        return handles

    def is_open(value: ast.AST) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "open"
        )

    for inner in ast.walk(node):
        if isinstance(inner, ast.Assign) and is_open(inner.value):
            for target in inner.targets:
                if isinstance(target, ast.Name):
                    handles.add(target.id)
        elif isinstance(inner, (ast.With, ast.AsyncWith)):
            for item in inner.items:
                if is_open(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    handles.add(item.optional_vars.id)
    return handles


def _unpicklable_reason(
    expr: ast.AST, function: FunctionNode
) -> Optional[str]:
    """Why ``expr`` cannot cross the process boundary, or None."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(expr, ast.Name):
        if expr.id in _nested_def_names(function):
            return f"the nested function {expr.id}"
        if expr.id in _open_handles(function):
            return f"the open file handle {expr.id}"
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "open"
    ):
        return "an open file handle"
    return None


def _submitted_values(site: CallSite) -> List[ast.AST]:
    """The task callable (``args[0]``), its arguments and keywords."""
    return list(site.node.args) + [kw.value for kw in site.node.keywords]


def _param_positions_reaching_submit(
    graph: CallGraph,
) -> Dict[str, Set[int]]:
    """Fixed point: which positional params of which functions flow
    into a pool-dispatch argument, directly or through further calls."""
    reaching: Dict[str, Set[int]] = {}
    # Seed: parameters passed directly as submit arguments.
    for qualname, function in graph.functions.items():
        params = {name: i for i, name in enumerate(function.params)}
        for site in _dispatch_calls(function):
            for arg in _submitted_values(site):
                if isinstance(arg, ast.Name) and arg.id in params:
                    reaching.setdefault(qualname, set()).add(
                        params[arg.id]
                    )
    # Propagate: caller param -> callee param position already reaching.
    changed = True
    while changed:
        changed = False
        for qualname, function in graph.functions.items():
            params = {name: i for i, name in enumerate(function.params)}
            if not params:
                continue
            for site in function.calls:
                for target in site.targets:
                    target_reaching = reaching.get(target)
                    if not target_reaching:
                        continue
                    callee = graph.functions.get(target)
                    offset = 1 if callee is not None and callee.is_method else 0
                    for pos, arg in enumerate(site.node.args):
                        if pos + offset not in target_reaching:
                            continue
                        if (
                            isinstance(arg, ast.Name)
                            and arg.id in params
                        ):
                            bucket = reaching.setdefault(qualname, set())
                            if params[arg.id] not in bucket:
                                bucket.add(params[arg.id])
                                changed = True
    return reaching


def check_flow003(graph: CallGraph) -> Iterator[Finding]:
    reaching = _param_positions_reaching_submit(graph)
    # Direct: unpicklable expressions in submit argument position.
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        for site in _dispatch_calls(function):
            for arg in _submitted_values(site):
                reason = _unpicklable_reason(arg, function)
                if reason is None:
                    continue
                role = (
                    "the task callable"
                    if arg is site.node.args[0]
                    else "a task argument"
                )
                yield Finding(
                    rule="FLOW003",
                    severity=Severity.ERROR,
                    path=function.path,
                    line=getattr(arg, "lineno", site.line),
                    col=getattr(arg, "col_offset", 0),
                    message=(
                        f"{reason} is passed as {role} — it cannot be "
                        "pickled across the process boundary; submit a "
                        "module-level function, pass plain data and "
                        "rebuild objects inside the worker"
                    ),
                )
    # Transitive: unpicklable values handed to a parameter that flows
    # into a submit argument somewhere down the call chain.
    for qualname in sorted(graph.functions):
        function = graph.functions[qualname]
        for site in function.calls:
            for target in site.targets:
                positions = reaching.get(target)
                if not positions:
                    continue
                callee = graph.functions.get(target)
                if callee is None:
                    continue
                offset = 1 if callee.is_method else 0
                for pos, arg in enumerate(site.node.args):
                    if pos + offset not in positions:
                        continue
                    reason = _unpicklable_reason(arg, function)
                    if reason is None:
                        continue
                    param = (
                        callee.params[pos + offset]
                        if pos + offset < len(callee.params)
                        else f"argument {pos}"
                    )
                    yield Finding(
                        rule="FLOW003",
                        severity=Severity.ERROR,
                        path=function.path,
                        line=getattr(arg, "lineno", site.line),
                        col=getattr(arg, "col_offset", 0),
                        message=(
                            f"{reason} flows into parameter "
                            f"{param} of {target}, which reaches a "
                            "pool submit — it cannot be pickled "
                            "across the process boundary"
                        ),
                    )


# ---------------------------------------------------------------------------
# KER006: dtype-lattice narrowing through the DP kernels.
# ---------------------------------------------------------------------------


def _in_align_kernels(module) -> bool:
    if module.modname == "repro.align._reference":
        return False
    return module.modname.startswith("repro.align")


def check_ker006(modules) -> Iterator[Finding]:
    for module in modules:
        if not _in_align_kernels(module):
            continue
        for _function, narrowing in module_narrowings(module):
            yield Finding(
                rule="KER006",
                severity=Severity.ERROR,
                path=module.path,
                line=narrowing.line,
                col=narrowing.col,
                message=(
                    f"{narrowing.source_dtype} value stored into "
                    f"{narrowing.dest_dtype} storage ({narrowing.dest}) "
                    f"— DP values under the ScoringScheme bound (peak "
                    f"step {SCORING_PEAK}) can reach "
                    f"{DP_VALUE_BOUND:,}, past {narrowing.dest_dtype} "
                    "capacity; allocate via kernel_dtype() or widen "
                    "the slab"
                ),
            )


def run_flow_rules(
    context, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run every (selected) flow rule over a built :class:`FlowContext`."""
    wanted = set(select) if select else None

    def on(rule: str) -> bool:
        return wanted is None or rule in wanted

    findings: List[Finding] = []
    if on("FLOW001"):
        findings.extend(check_flow001(context.graph, context.effects))
    if on("FLOW002"):
        findings.extend(check_flow002(context.graph))
    if on("FLOW003"):
        findings.extend(check_flow003(context.graph))
    if on("KER006"):
        findings.extend(check_ker006(context.modules))
    return findings
