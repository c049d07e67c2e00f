"""The reprolint rule catalogue.

Each rule encodes one invariant of the reproduction (rationale in
``docs/analysis.md``):

RPL001
    No raw ``metric._distance`` / ``_one_to_many`` / ``_pairwise`` /
    ``_cross`` calls outside the allowlisted modules (``metrics/base.py``,
    where the counted wrappers live, and ``core/routing.py``, whose
    cached-geometry maintenance is NCD-neutral by design and tracked
    separately in ``PruningStats``). The public wrappers are the *only*
    counted path — a raw hook call bypasses NCD accounting (the paper's
    headline cost metric, Section 6) and every GuardedMetric policy.
    Calls on bare ``self`` are allowed: that is an implementation hook
    delegating to a sibling hook, and counting happens in the caller.
RPL002
    No unseeded randomness inside the library: ``np.random.default_rng()``
    without a seed, legacy global-state ``np.random.*`` functions, and
    stdlib ``random.*``. Every run must be reproducible from a seed
    threaded through :func:`repro.utils.rng.ensure_rng`.
RPL003
    No ``==`` / ``!=`` between distance values. Distances are floats
    produced by arbitrary user metrics; compare with a tolerance
    (``math.isclose`` / ``np.isclose``) instead.
RPL004
    No scalar/batch distance calls nested two or more loops deep outside
    the sanctioned all-pairs modules (``evaluation/``, ``experiments/``):
    the accidental-O(n²)-NCD lint.
RPL005
    Public modules must declare ``__all__`` so the public surface is
    explicit (and the typing gate knows what to hold stable).
RPL105
    In the numerics-bearing modules (``birch/``, ``core/features.py``,
    ``fastmap/``), no catastrophic-cancellation shapes: differences of
    squared magnitudes (``a*a - b*b``, sum-of-squares minus
    square-of-sum) and scalar ``+=`` accumulation of squared distances.
    The CF* code uses stable incremental forms (Welford/Chan, compensated
    RowSums); the irreducible remainder carries a justified suppression.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

__all__ = ["BASE_RULES", "META_RULE", "Finding", "Rule", "RuleContext"]

#: A single finding: (line, column, message).
Finding = tuple[int, int, str]

_RAW_HOOKS = frozenset({"_distance", "_one_to_many", "_pairwise", "_cross"})
_SCALAR_DISTANCE_CALLS = frozenset({"distance", "distance_to", "leaf_entry_distance"})
_BATCH_DISTANCE_CALLS = frozenset({"one_to_many", "pairwise", "cross"})

#: Modules whose raw-hook reads are sanctioned: the counted wrappers
#: themselves, and the pruned routing engine's NCD-neutral geometry
#: maintenance (accounted for separately via ``PruningStats``).
_RAW_HOOK_ALLOWLIST = ("metrics/base.py", "core/routing.py")

#: numpy.random constructors that are deterministic *given arguments*.
_SEEDED_CTORS = frozenset({"default_rng", "RandomState"})
#: numpy.random types that carry their own explicit seeding.
_RNG_TYPES = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM",
     "Philox", "SFC64", "MT19937"}
)


class RuleContext:
    """What a checker sees of one module: its AST and its path."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path


#: Checker signature shared by every concrete rule.
Checker = Callable[[RuleContext], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """One lint rule: metadata plus a ``check`` callable.

    ``checker`` is ``None`` for the RPL000 meta rule, whose findings
    (syntax errors, unused or unjustified suppressions) are produced by
    the engine itself rather than by a per-module checker.
    """

    code: str
    summary: str
    rationale: str
    checker: Checker | None = field(repr=False, default=None)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        """Yield ``(line, col, message)`` findings for ``ctx.tree``."""
        if self.checker is not None:
            yield from self.checker(ctx)


def _dotted_name(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _callee_name(func: ast.expr) -> str | None:
    """``f(...)`` -> ``"f"``, ``a.b.f(...)`` -> ``"f"``; None otherwise."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# ----------------------------------------------------------------------
# RPL001 — raw distance-hook calls
# ----------------------------------------------------------------------
def _check_raw_hooks(ctx: RuleContext) -> Iterator[Finding]:
    if ctx.path.endswith(_RAW_HOOK_ALLOWLIST):
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr not in _RAW_HOOKS:
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            continue  # hook-to-hook delegation; the public wrapper counts
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
        ):
            continue  # super()._hook(...) overrides stay inside the hook layer
        yield (
            node.lineno,
            node.col_offset,
            f"raw `{attr}` call bypasses NCD accounting and guard policies; "
            "use the counted public API (.distance/.one_to_many/.pairwise)",
        )


# ----------------------------------------------------------------------
# RPL002 — unseeded randomness
# ----------------------------------------------------------------------
class _RandomnessVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        self.stdlib_random_aliases: set[str] = set()
        self.from_random_names: dict[str, str] = {}
        self.from_numpy_random_names: dict[str, str] = {}
        self.findings: list[Finding] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.numpy_random_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add("numpy")
            elif alias.name == "random":
                self.stdlib_random_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.numpy_random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                self.from_numpy_random_names[alias.asname or alias.name] = alias.name
        elif node.module == "random" and node.level == 0:
            for alias in node.names:
                self.from_random_names[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def _has_seed_argument(self, node: ast.Call) -> bool:
        if node.args:
            return True
        return any(kw.arg in (None, "seed") for kw in node.keywords)

    def _numpy_random_function(self, func: ast.expr) -> str | None:
        parts = _dotted_name(func)
        if parts is None:
            return None
        if len(parts) == 3 and parts[0] in self.numpy_aliases and parts[1] == "random":
            return parts[2]
        if len(parts) == 2 and parts[0] in self.numpy_random_aliases:
            return parts[1]
        if len(parts) == 1 and parts[0] in self.from_numpy_random_names:
            return self.from_numpy_random_names[parts[0]]
        return None

    def _stdlib_random_function(self, func: ast.expr) -> str | None:
        parts = _dotted_name(func)
        if parts is None:
            return None
        if len(parts) == 2 and parts[0] in self.stdlib_random_aliases:
            return parts[1]
        if len(parts) == 1 and parts[0] in self.from_random_names:
            return self.from_random_names[parts[0]]
        return None

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._numpy_random_function(node.func)
        if fn is not None:
            if fn in _SEEDED_CTORS:
                if not self._has_seed_argument(node):
                    self.findings.append((
                        node.lineno, node.col_offset,
                        f"`{fn}()` without a seed is nondeterministic; thread a "
                        "seed/Generator through repro.utils.rng.ensure_rng",
                    ))
            elif fn not in _RNG_TYPES:
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"legacy global-state `np.random.{fn}` is unseedable per-call; "
                    "use a seeded np.random.Generator",
                ))
        else:
            fn = self._stdlib_random_function(node.func)
            if fn is not None and not (fn == "Random" and self._has_seed_argument(node)):
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"stdlib `random.{fn}` draws from hidden global state; use a "
                    "seeded np.random.Generator",
                ))
        self.generic_visit(node)


def _check_unseeded_randomness(ctx: RuleContext) -> Iterator[Finding]:
    visitor = _RandomnessVisitor()
    visitor.visit(ctx.tree)
    yield from visitor.findings


# ----------------------------------------------------------------------
# RPL003 — exact equality between distance values
# ----------------------------------------------------------------------
_DIST_NAMES = frozenset({"d", "dist", "dists", "distance", "distances"})
_DIST_PREFIXES = ("dist_", "d_")
_DIST_SUFFIXES = ("_dist", "_dists", "_distance", "_distances")


def _is_distance_name(name: str) -> bool:
    return (
        name in _DIST_NAMES
        or name.startswith(_DIST_PREFIXES)
        or name.endswith(_DIST_SUFFIXES)
    )


def _is_distance_value(node: ast.expr) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in (_SCALAR_DISTANCE_CALLS | _BATCH_DISTANCE_CALLS)
    if isinstance(node, ast.Name):
        return _is_distance_name(node.id)
    if isinstance(node, ast.Attribute):
        return _is_distance_name(node.attr)
    if isinstance(node, ast.Subscript):
        return _is_distance_value(node.value)
    return False


def _check_distance_equality(ctx: RuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_distance_value(left) or _is_distance_value(right):
                yield (
                    node.lineno,
                    node.col_offset,
                    "exact ==/!= on a distance value is fragile for "
                    "metric-space floats; compare with a tolerance "
                    "(math.isclose / np.isclose)",
                )
                break


# ----------------------------------------------------------------------
# RPL004 — nested loops around distance calls
# ----------------------------------------------------------------------
_SANCTIONED_ALL_PAIRS = ("evaluation/", "experiments/")


class _LoopDepthVisitor(ast.NodeVisitor):
    """Track explicit-loop nesting depth within each function scope."""

    def __init__(self) -> None:
        self.depth = 0
        self.findings: list[Finding] = []

    def _enter_scope(self, node: ast.AST) -> None:
        saved, self.depth = self.depth, 0
        self.generic_visit(node)
        self.depth = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_scope(node)

    def _enter_loop(self, node: ast.AST, levels: int = 1) -> None:
        self.depth += levels
        self.generic_visit(node)
        self.depth -= levels

    def visit_For(self, node: ast.For) -> None:
        self._enter_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._enter_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._enter_loop(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        self._enter_loop(node, levels=len(getattr(node, "generators", [])) or 1)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and self.depth >= 2:
            attr = node.func.attr
            if attr in _SCALAR_DISTANCE_CALLS or attr in _BATCH_DISTANCE_CALLS:
                self.findings.append((
                    node.lineno, node.col_offset,
                    f"`.{attr}(...)` inside {self.depth} nested loops is an "
                    "all-pairs NCD pattern; use .pairwise()/.one_to_many() at "
                    "the outer level or move the scan into evaluation/ or "
                    "experiments/",
                ))
        self.generic_visit(node)


def _check_nested_distance_loops(ctx: RuleContext) -> Iterator[Finding]:
    if any(marker in ctx.path for marker in _SANCTIONED_ALL_PAIRS):
        return
    visitor = _LoopDepthVisitor()
    visitor.visit(ctx.tree)
    yield from visitor.findings


# ----------------------------------------------------------------------
# RPL005 — public modules declare __all__
# ----------------------------------------------------------------------
def _declares_all(tree: ast.Module) -> bool:
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
    return False


def _has_public_content(tree: ast.Module) -> bool:
    return any(
        isinstance(
            node,
            (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        )
        for node in tree.body
    )


def _check_declares_all(ctx: RuleContext) -> Iterator[Finding]:
    tree = ctx.tree
    basename = ctx.path.rsplit("/", 1)[-1]
    if basename.startswith("_") and basename != "__init__.py":
        return  # private modules and __main__ entry points
    if not _has_public_content(tree):
        return  # empty namespace marker
    if not _declares_all(tree):
        yield (
            1, 0,
            "public module does not declare __all__; make the public "
            "surface explicit",
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


META_RULE = Rule(
    code="RPL000",
    summary="lint integrity: syntax errors, unused or unjustified suppressions",
    rationale="a suppression that no longer fires (or carries no reason) hides drift",
    checker=None,
)

BASE_RULES: tuple[Rule, ...] = (
    Rule(
        code="RPL001",
        summary="no raw metric hook calls outside metrics/base.py and core/routing.py",
        rationale="raw hook calls bypass NCD accounting and GuardedMetric policies",
        checker=_check_raw_hooks,
    ),
    Rule(
        code="RPL002",
        summary="no unseeded randomness in library code",
        rationale="reproducibility: every stochastic choice must flow from a seed",
        checker=_check_unseeded_randomness,
    ),
    Rule(
        code="RPL003",
        summary="no ==/!= comparisons between distance values",
        rationale="distances are metric-dependent floats; equality needs a tolerance",
        checker=_check_distance_equality,
    ),
    Rule(
        code="RPL004",
        summary="no distance calls nested >= 2 loops deep outside evaluation//experiments/",
        rationale="accidental all-pairs scans silently inflate NCD, the paper's cost metric",
        checker=_check_nested_distance_loops,
    ),
    Rule(
        code="RPL005",
        summary="public modules must declare __all__",
        rationale="an explicit public surface is what the typing gate holds stable",
        checker=_check_declares_all,
    ),
    Rule(
        code="RPL105",
        summary="no cancellation-prone squared-magnitude arithmetic in the numerics modules",
        rationale="difference-of-squares and scalar squared accumulation drift at scale (BETULA)",
        checker=_check_float_stability,
    ),
)
