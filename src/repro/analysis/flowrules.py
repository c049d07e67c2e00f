"""The RPL1xx rule family: dataflow-aware invariants.

Where the RPL0xx rules in :mod:`repro.analysis.rules` pattern-match
syntax, these rules run on the shared analysis core — per-function CFGs
(:mod:`repro.analysis.cfg`), scope/origin resolution
(:mod:`repro.analysis.dataflow`), and the cross-module symbol table
(:mod:`repro.analysis.symbols`) — so they can *prove* properties about
paths and provenance instead of grepping for shapes:

RPL101 **pickle-safety**
    Any callable/object flowing into a worker boundary —
    ``ProcessPoolExecutor.submit``/``apply_async``, ``ShardSupervisor``'s
    task list, ``ShardTask(...)`` construction, ``Process(target=...)`` —
    must resolve to a module-level definition. Lambdas, closures, and
    locally defined classes pickle by qualified name and fail (or worse,
    resolve to the wrong object) when the spawn start method imports the
    module fresh in the worker.
RPL102 **span/ledger discipline**
    Every ``push_site`` must be popped on *all* CFG paths out of the
    function — including the exceptional ones — i.e. the pop is provably
    reached via ``try/finally``; and no ``pop_site`` may run with a
    provably empty site stack. An unpopped site mis-attributes every
    subsequent distance call, silently breaking the
    ``sum(by_site) == n_calls`` conservation law the observability layer
    guarantees.
RPL103 **seed provenance**
    RNG construction must derive from a parameter / ``SeedSequence``
    dataflow. Hard-coded literal seeds, wall-clock-derived seeds, and
    bare entropy constructions are flagged: the first silently couples
    runs, the latter two destroy reproducibility.
RPL104 **external-count booking**
    ``count_external`` — the only way to book distance calls that
    happened in another process — may appear only in the accounting-layer
    modules, and any *site-attributed* booking must be post-dominated (on
    normal flow) by a residual site-less booking, so a partial
    attribution loop can never leave ``sum(by_site) < n_calls``.
RPL105 **float-stability**
    In the numerics-bearing modules (``birch/``, ``core/features.py``,
    ``fastmap/``), flag catastrophic-cancellation shapes — differences of
    squared magnitudes (``a*a - b*b``, sum-of-squares minus
    square-of-sum) — and scalar ``+=`` accumulation of squared
    distances. These are the exact patterns the BETULA refactor (ROADMAP
    item 3) replaces with stable incremental forms; true positives are
    suppressed with a ``BETULA``-tagged justification to form that
    worklist.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.cfg import CFG, FunctionCFG, iter_function_cfgs
from repro.analysis.dataflow import OriginKind, resolve_expr
from repro.analysis.rules import Finding, Rule, RuleContext

__all__ = ["FLOW_RULES"]


# ----------------------------------------------------------------------
# RPL101 — pickle-safety at worker boundaries
# ----------------------------------------------------------------------
#: Attribute calls whose every argument crosses the pickle boundary.
_SUBMIT_METHODS = frozenset({"submit", "apply_async"})
#: Constructors whose every argument crosses the pickle boundary.
_TASK_CTORS = frozenset({"ShardTask"})
#: Constructors where only specific arguments cross (pos index / kw name).
_SUPERVISOR_CTORS = frozenset({"ShardSupervisor"})
_PROCESS_CTORS = frozenset({"Process"})

_BAD_PICKLE_KINDS = frozenset({OriginKind.LAMBDA, OriginKind.LOCAL_DEF})


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _shipped_args(call: ast.Call, callee: str) -> list[ast.expr]:
    """The argument expressions of ``call`` that cross a pickle boundary."""
    if callee in _SUBMIT_METHODS or callee in _TASK_CTORS:
        args = [a for a in call.args]
        args.extend(kw.value for kw in call.keywords if kw.arg is not None)
        return args
    if callee in _SUPERVISOR_CTORS:
        shipped = list(call.args[:1])
        shipped.extend(kw.value for kw in call.keywords if kw.arg == "tasks")
        return shipped
    if callee in _PROCESS_CTORS:
        return [kw.value for kw in call.keywords if kw.arg in ("target", "args")]
    return []


def _check_pickle_safety(ctx: RuleContext) -> Iterator[Finding]:
    scopes = ctx.scopes
    # Walk with scope tracking: resolve each shipped argument from the
    # scope of the function the call appears in.
    for fn_cfg in ctx.function_cfgs:
        container = fn_cfg.func if fn_cfg.func is not None else ctx.tree
        scope = scopes.scope_of(container)
        for call in _calls_in(container):
            callee = _callee_name(call.func)
            if callee is None:
                continue
            sink = _sink_label(call, callee)
            if sink is None:
                continue
            for arg in _shipped_args(call, callee):
                for origin in resolve_expr(arg, scope, ctx.symbols):
                    if origin.kind in _BAD_PICKLE_KINDS:
                        what = origin.detail or origin.kind.value
                        yield (
                            arg.lineno,
                            arg.col_offset,
                            f"{what} flows into {sink} but only module-level "
                            "definitions survive pickling to a spawned worker; "
                            "move it to module scope",
                        )
                        break


def _sink_label(call: ast.Call, callee: str) -> str | None:
    if callee in _SUBMIT_METHODS:
        return f"a worker-pool `.{callee}(...)`"
    if callee in _TASK_CTORS:
        return "a shard task"
    if callee in _SUPERVISOR_CTORS:
        return "the ShardSupervisor task list"
    if callee in _PROCESS_CTORS and isinstance(call.func, (ast.Attribute, ast.Name)):
        # Only worker-process constructions, not arbitrary `Process` names:
        # require a target=/args= keyword to be present at all.
        if any(kw.arg in ("target", "args") for kw in call.keywords):
            return "a spawned Process"
    return None


def _calls_in(container: ast.AST) -> Iterator[ast.Call]:
    """Calls lexically inside ``container``, excluding nested function
    bodies (each function is visited under its own scope)."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(container))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# RPL102 — push_site/pop_site pairing on every CFG path
# ----------------------------------------------------------------------
#: Bound on tracked stack depth; saturation still reports the violation
#: (an over-deep stack never empties), it just guarantees termination.
_MAX_SITE_DEPTH = 8

#: (label, line, col) describing one open push.
_PushEntry = tuple[str, int, int]
_Stack = tuple[_PushEntry, ...]


def _node_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The sub-expressions evaluated *at* a CFG node for ``stmt``.

    A compound statement's node represents only its header (test, iterable,
    context managers, match subject) — the suite bodies have CFG nodes of
    their own, and counting their calls here would double-book them.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try) or (
        hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
    ):
        return []
    return [stmt]


def _calls_at(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Calls executed when this CFG node runs (nested defs excluded)."""
    stack: list[ast.AST] = list(_node_exprs(stmt))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # executed at call time, not here
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _site_calls(stmt: ast.stmt) -> list[tuple[str, ast.Call]]:
    """``("push"|"pop", call)`` for the ledger-site calls evaluated at
    ``stmt``'s CFG node, in source order."""
    found: list[tuple[str, ast.Call]] = []
    for node in _calls_at(stmt):
        name = _callee_name(node.func)
        if name == "push_site":
            found.append(("push", node))
        elif name == "pop_site":
            found.append(("pop", node))
    found.sort(key=lambda item: (item[1].lineno, item[1].col_offset))
    return found


def _push_label(call: ast.Call) -> str:
    if call.args and isinstance(call.args[0], ast.Constant):
        return str(call.args[0].value)
    return "<site>"


def _check_span_discipline(ctx: RuleContext) -> Iterator[Finding]:
    if "push_site" not in ctx.source and "pop_site" not in ctx.source:
        return
    for fn_cfg in ctx.function_cfgs:
        yield from _check_function_pairing(fn_cfg)


def _pure_site_stmt(stmt: ast.stmt) -> bool:
    """A statement that is exactly one ``push_site``/``pop_site`` call.

    The ledger accessors are trivial list operations; modeling them as
    able to raise *mid-pairing* would flag every correctly written
    ``finally: pop_site()`` (the pop itself would "escape" unpopped).
    """
    if not isinstance(stmt, ast.Expr):
        return False
    calls = [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]
    if len(calls) != 1:
        return False
    return _callee_name(calls[0].func) in ("push_site", "pop_site")


def _check_function_pairing(fn_cfg: FunctionCFG) -> Iterator[Finding]:
    cfg = fn_cfg.cfg
    ops: dict[int, list[tuple[str, ast.Call]]] = {}
    pure_site: set[int] = set()
    any_ops = False
    for node in cfg.statement_nodes():
        calls = _site_calls(node.stmt) if node.stmt is not None else []
        if calls:
            ops[node.index] = calls
            any_ops = True
            if node.stmt is not None and _pure_site_stmt(node.stmt):
                pure_site.add(node.index)
    if not any_ops:
        return

    # Forward worklist over stacks-of-open-sites. Exception edges carry
    # the PRE-state (a statement that raises performed no push/pop).
    states: dict[int, set[_Stack]] = {cfg.entry: {()}}
    worklist = [cfg.entry]
    while worklist:
        index = worklist.pop()
        pre = states.get(index, set())
        node_ops = ops.get(index, [])
        post: set[_Stack] = set()
        for stack in pre:
            current = stack
            for op, call in node_ops:
                if op == "push":
                    if len(current) < _MAX_SITE_DEPTH:
                        entry: _PushEntry = (
                            _push_label(call), call.lineno, call.col_offset
                        )
                        current = (*current, entry)
                elif current:
                    current = current[:-1]
            post.add(current)
        exc_state: set[_Stack] = set() if index in pure_site else pre
        for successors, flowing in ((cfg.succ[index], post), (cfg.exc_succ[index], exc_state)):
            for succ in successors:
                known = states.setdefault(succ, set())
                new = flowing - known
                if new:
                    known |= new
                    worklist.append(succ)

    # Unmatched pushes: any stack still open at either exit.
    reported: set[tuple[int, int]] = set()
    for exit_index, how in ((cfg.exit_raise, "an exception path"), (cfg.exit_normal, "a normal path")):
        for stack in states.get(exit_index, set()):
            for label, line, col in stack:
                if (line, col) not in reported:
                    reported.add((line, col))
                    yield (
                        line,
                        col,
                        f"push_site({label!r}) is not popped on {how} out of "
                        f"`{fn_cfg.name}`; close it in a try/finally so site "
                        "attribution cannot leak",
                    )

    # Definitely-unmatched pops: every state reaching the pop is empty.
    for index, node_ops in ops.items():
        pre = states.get(index)
        if not pre:
            continue  # unreachable code: nothing to prove
        stack_depths = {len(stack) for stack in pre}
        depth_budget = min(stack_depths)
        for op, call in node_ops:
            if op == "push":
                depth_budget += 1
            else:
                if depth_budget == 0:
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"pop_site() in `{fn_cfg.name}` can never match a "
                        "push_site on any path; it would close an outer "
                        "caller's site",
                    )
                    break
                depth_budget -= 1


# ----------------------------------------------------------------------
# RPL103 — seed provenance for RNG construction
# ----------------------------------------------------------------------
_RNG_CTORS = frozenset({"default_rng", "RandomState", "Random", "ensure_rng", "SeedSequence"})
#: Origin kinds acceptable as seed provenance.
_OK_SEED_KINDS = frozenset(
    {OriginKind.PARAM, OriginKind.SEED_DERIVED, OriginKind.ATTRIBUTE,
     OriginKind.UNKNOWN, OriginKind.EXTERNAL, OriginKind.MODULE_DEF}
)


def _seed_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "entropy"):
            return kw.value
    return None


def _check_seed_provenance(ctx: RuleContext) -> Iterator[Finding]:
    scopes = ctx.scopes
    for fn_cfg in ctx.function_cfgs:
        container = fn_cfg.func if fn_cfg.func is not None else ctx.tree
        scope = scopes.scope_of(container)
        for call in _calls_in(container):
            callee = _callee_name(call.func)
            if callee not in _RNG_CTORS:
                continue
            seed = _seed_argument(call)
            if seed is None:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"`{callee}()` without a seed draws fresh entropy; derive "
                    "the seed from a parameter or SeedSequence so the run is "
                    "reproducible",
                )
                continue
            origins = resolve_expr(seed, scope, ctx.symbols)
            kinds = {origin.kind for origin in origins}
            if any(kind == OriginKind.TIME for kind in kinds):
                detail = next(
                    (o.detail for o in origins if o.kind == OriginKind.TIME), "clock"
                )
                yield (
                    call.lineno,
                    call.col_offset,
                    f"`{callee}(...)` seeded from the wall clock ({detail}) is "
                    "unreproducible by construction; thread an explicit seed",
                )
            elif kinds and kinds <= {OriginKind.LITERAL}:
                if _is_none_literal(seed):
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"`{callee}(None)` requests fresh entropy; derive the "
                        "seed from a parameter or SeedSequence instead",
                    )
                else:
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"`{callee}(...)` with a hard-coded literal seed couples "
                        "every caller to one stream; accept a seed parameter "
                        "and derive per-use seeds with SeedSequence.spawn",
                    )


def _is_none_literal(seed: ast.expr) -> bool:
    return isinstance(seed, ast.Constant) and seed.value is None


# ----------------------------------------------------------------------
# RPL104 — external-count booking stays in the accounting layer
# ----------------------------------------------------------------------
#: Modules allowed to book external counts: the primitive itself, the
#: guard wrapper that owns its counting, and the parallel build's
#: re-booking of shard ledgers.
_BOOKING_ALLOWLIST = (
    "metrics/base.py",
    "robustness/guarded.py",
    "parallel/build.py",
)


def _is_count_external(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "count_external"


def _is_super_delegation(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _has_site_kw(call: ast.Call) -> bool:
    return any(kw.arg == "site" for kw in call.keywords) or len(call.args) >= 2


def _check_booking_discipline(ctx: RuleContext) -> Iterator[Finding]:
    if "count_external" not in ctx.source:
        return
    allowlisted = ctx.path.endswith(_BOOKING_ALLOWLIST)
    for fn_cfg in ctx.function_cfgs:
        site_nodes: list[tuple[int, ast.Call]] = []
        residual_nodes: set[int] = set()
        for node in fn_cfg.cfg.statement_nodes():
            if node.stmt is None:
                continue
            for call in _calls_at(node.stmt):
                if not _is_count_external(call):
                    continue
                if not allowlisted:
                    yield (
                        call.lineno,
                        call.col_offset,
                        "count_external() outside the accounting layer "
                        f"({', '.join(_BOOKING_ALLOWLIST)}) can fabricate NCD; "
                        "route worker counts through the parallel build",
                    )
                    continue
                if _is_super_delegation(call):
                    continue  # the override chain IS the re-booking
                if _has_site_kw(call):
                    site_nodes.append((node.index, call))
                else:
                    residual_nodes.add(node.index)
        if not site_nodes or ctx.path.endswith("metrics/base.py"):
            # The primitive's own definition performs the site push itself.
            continue
        postdom = fn_cfg.cfg.postdominators()
        for index, call in site_nodes:
            if not (postdom[index] & residual_nodes):
                yield (
                    call.lineno,
                    call.col_offset,
                    "site-attributed count_external() is not post-dominated by "
                    "a residual site-less booking; a partial attribution loop "
                    "could leave sum(by_site) < n_calls",
                )


# ----------------------------------------------------------------------
# RPL105 — catastrophic-cancellation shapes in the numerics modules
# ----------------------------------------------------------------------
_STABILITY_SCOPE = ("birch/", "fastmap/", "core/features")

#: Names that denote squared magnitudes by project convention.
_SQUARE_NAMES = frozenset({"ss", "dss", "sq", "cross_sq", "r1_sq", "r2_sq"})
_SQUARE_NAME_RE = re.compile(r"(_sq\d*$|sq$|sumsq|sq_sum|squared|^d[a-z_]*2$|^r\d$)")


def _square_name(name: str) -> bool:
    return name in _SQUARE_NAMES or bool(_SQUARE_NAME_RE.search(name))


def _is_squareish(expr: ast.expr) -> bool:
    """True when ``expr`` denotes a squared magnitude."""
    if isinstance(expr, ast.BinOp):
        if isinstance(expr.op, ast.Pow):
            return isinstance(expr.right, ast.Constant) and expr.right.value == 2
        if isinstance(expr.op, ast.Mult):
            return ast.dump(expr.left) == ast.dump(expr.right)
        if isinstance(expr.op, ast.Div):
            # sum-of-squares normalized by a count is still a square scale.
            return _is_squareish(expr.left)
        if isinstance(expr.op, ast.Add):
            return _is_squareish(expr.left) and _is_squareish(expr.right)
        return False
    if isinstance(expr, ast.Call):
        name = _callee_name(expr.func)
        if name in ("float", "int", "abs") and expr.args:
            return _is_squareish(expr.args[0])
        if name == "square":
            return True
        if name == "dot" and len(expr.args) == 2:
            return ast.dump(expr.args[0]) == ast.dump(expr.args[1])
        if name is not None and _square_name(name):
            return True
        if name == "sum" and isinstance(expr.func, ast.Attribute):
            return _is_squareish(expr.func.value)
        return False
    if isinstance(expr, ast.Name):
        return _square_name(expr.id)
    if isinstance(expr, ast.Attribute):
        return _square_name(expr.attr)
    if isinstance(expr, ast.Subscript):
        return _is_squareish(expr.value)
    return False


def _check_float_stability(ctx: RuleContext) -> Iterator[Finding]:
    if not any(marker in ctx.path for marker in _STABILITY_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if _is_squareish(node.left) and _is_squareish(node.right):
                yield (
                    node.lineno,
                    node.col_offset,
                    "difference of squared magnitudes cancels catastrophically "
                    "when the operands are close (BETULA, PAPERS.md); prefer a "
                    "numerically stable incremental form",
                )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if _is_squareish(node.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    "scalar += accumulation of squared magnitudes loses "
                    "precision at large n; use a compensated or pairwise "
                    "summation (BETULA worklist)",
                )


FLOW_RULES: tuple[Rule, ...] = (
    Rule(
        code="RPL101",
        summary="objects shipped to worker processes must resolve to module-level definitions",
        rationale="lambdas/closures/local classes fail to pickle under the spawn start method",
        checker=_check_pickle_safety,
    ),
    Rule(
        code="RPL102",
        summary="push_site/pop_site must pair on every CFG path, including exceptional ones",
        rationale="an unpopped site mis-attributes all later calls and breaks NCD conservation",
        checker=_check_span_discipline,
    ),
    Rule(
        code="RPL103",
        summary="RNG seeds must derive from a parameter/SeedSequence dataflow",
        rationale="literal or wall-clock seeds destroy reproducibility or couple callers",
        checker=_check_seed_provenance,
    ),
    Rule(
        code="RPL104",
        summary="count_external only in the accounting layer, site bookings followed by a residual",
        rationale="external booking elsewhere (or partial attribution) falsifies sum(by_site) == n_calls",
        checker=_check_booking_discipline,
    ),
    Rule(
        code="RPL105",
        summary="no cancellation-prone squared-magnitude arithmetic in the numerics modules",
        rationale="difference-of-squares and scalar squared accumulation drift at scale (BETULA)",
        checker=_check_float_stability,
    ),
)
