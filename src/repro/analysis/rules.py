"""The built-in contract rules of ``reprolint``.

Each rule encodes one invariant the rest of the repository relies on;
``docs/analysis.md`` is the narrative catalog (rationale, examples,
how to suppress).  Rule ids are grouped by theme:

* ``REP0xx`` — determinism: every number this library produces must be
  a pure function of explicit seeds and specs.
* ``REP1xx`` — robustness: failures must stay observable.
* ``REP2xx`` — architecture contracts: plan picklability, cache-key
  purity, registry/spec round-tripping.
* ``REP3xx`` — typing: the public API carries complete annotations.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .base import FileContext, Rule, Violation, dotted_name, register

#: ``numpy.random`` module-level attributes that are *not* the legacy
#: global-state API and therefore remain allowed in library code.
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator"})

#: Call targets (matched by dotted suffix) that read the wall clock.
_WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Class names whose constructor arguments must survive ``pickle`` —
#: they are shipped to worker processes by the process backend.
_PLAN_CLASS_NAMES = frozenset({"ExecutionPlan", "Cell"})

#: Registries whose entries must stay constructible from spec strings.
_SPEC_REGISTRY_NAMES = frozenset(
    {"SAMPLERS", "KEY_POLICIES", "DISTRIBUTIONS", "TRACES", "SCENARIOS"}
)

#: Field-name tokens that mark an execution-only knob.  The executor
#: guarantees bit-identical results across these, so they must never
#: reach a cache key (they would fragment the store for nothing).
_EXECUTION_KNOB_TOKENS = ("chunk", "backend", "jobs", "workers", "parallel", "materialis")

#: Module prefixes forming the typed public API surface (rule REP301).
API_MODULE_PREFIXES = (
    "repro.pipeline",
    "repro.store",
    "repro.sweep",
    "repro.registry",
    "repro.spec",
    "repro.analysis",
    "repro.telemetry",
)

#: ``# noqa: CODE - reason`` style justification tag (rule REP101
#: accepts it as equivalent to a reprolint suppression with a reason).
_NOQA_JUSTIFIED = re.compile(r"#\s*noqa\b[^#]*?[-—:]\s*\S")


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register
class GlobalRngRule(Rule):
    """REP001: no global random state inside the library."""

    id = "REP001"
    name = "global-rng"
    library_only = True
    rationale = (
        "Results must be pure functions of explicit seeds: all randomness "
        "flows through an injected numpy Generator/SeedSequence, never the "
        "process-global numpy legacy API or the stdlib random module."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            context,
                            node,
                            "stdlib `random` is process-global state; take a "
                            "numpy Generator/SeedSequence parameter instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        context,
                        node,
                        "stdlib `random` is process-global state; take a "
                        "numpy Generator/SeedSequence parameter instead",
                    )
        for call in _walk_calls(context.tree):
            target = dotted_name(call.func)
            if target is None:
                continue
            parts = target.split(".")
            if len(parts) < 3:
                continue
            head, middle, fn = parts[-3], parts[-2], parts[-1]
            if head in ("np", "numpy") and middle == "random" and fn not in _NP_RANDOM_ALLOWED:
                yield self.violation(
                    context,
                    call,
                    f"`{target}` uses numpy's global RNG state; derive a local "
                    "generator with np.random.default_rng(seed) or accept a "
                    "Generator parameter",
                )


@register
class WallClockRule(Rule):
    """REP002: no wall-clock reads inside the library."""

    id = "REP002"
    name = "wall-clock"
    library_only = True
    rationale = (
        "A result that depends on when it was computed can never be "
        "reproduced or content-addressed; timestamps belong to callers "
        "(benchmarks, reports), not to the library."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        for call in _walk_calls(context.tree):
            target = dotted_name(call.func)
            if target is None:
                continue
            for suffix in _WALL_CLOCK_SUFFIXES:
                if target == suffix or target.endswith("." + suffix):
                    yield self.violation(
                        context,
                        call,
                        f"`{target}()` reads the wall clock; pass timestamps in "
                        "from the caller so results stay reproducible",
                    )
                    break


@register
class UnorderedIterationRule(Rule):
    """REP003: no iteration over unordered sets."""

    id = "REP003"
    name = "unordered-iteration"
    library_only = True
    rationale = (
        "Set iteration order depends on string hash randomisation, so it "
        "differs across processes — poison for bit-identical parallel "
        "backends; wrap the set in sorted() before iterating."
    )

    def _is_set_expression(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def check(self, context: FileContext) -> Iterator[Violation]:
        message = (
            "iterating a set is order-nondeterministic across processes; "
            "iterate sorted(...) instead"
        )
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_set_expression(node.iter):
                yield self.violation(context, node.iter, message)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expression(generator.iter):
                        yield self.violation(context, generator.iter, message)
            elif isinstance(node, ast.Call):
                func = node.func
                consumes = (
                    isinstance(func, ast.Name) and func.id in ("list", "tuple", "enumerate", "iter")
                ) or (isinstance(func, ast.Attribute) and func.attr == "join")
                if consumes and len(node.args) == 1 and self._is_set_expression(node.args[0]):
                    yield self.violation(context, node.args[0], message)


@register
class FloatEqualityRule(Rule):
    """REP004: no equality comparisons against inexact float literals."""

    id = "REP004"
    name = "float-eq"
    autofixable = True
    rationale = (
        "`x == 0.1` silently depends on how x was computed; exact sentinel "
        "guards (0.0, 1.0 and other integral floats are exactly "
        "representable) are fine, everything else goes through "
        "np.isclose/math.isclose."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                value = operand.value if isinstance(operand, ast.Constant) else None
                if isinstance(value, float) and not value.is_integer():
                    yield self.violation(
                        context,
                        operand,
                        f"equality against the inexact float literal {value!r}; "
                        "use math.isclose/np.isclose (or an integral sentinel)",
                    )


@register
class BroadExceptRule(Rule):
    """REP101: no bare/broad except without a justification tag."""

    id = "REP101"
    name = "broad-except"
    requires_reason = True
    rationale = (
        "A silent `except Exception` can swallow the exact failures the "
        "determinism contracts exist to surface; narrow the exception, or "
        "keep it broad with a written reason on the line."
    )

    def _is_broad(self, expression: ast.expr | None) -> bool:
        if expression is None:
            return True  # bare except:
        if isinstance(expression, ast.Tuple):
            return any(self._is_broad(element) for element in expression.elts)
        name = dotted_name(expression)
        return name in ("Exception", "BaseException", "builtins.Exception")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if _NOQA_JUSTIFIED.search(context.line_at(node.lineno)):
                continue  # `# noqa: CODE - reason` counts as justified
            caught = "bare `except:`" if node.type is None else "broad `except Exception`"
            yield self.violation(
                context,
                node,
                f"{caught} hides failures; catch the specific exceptions, or "
                "justify it in place with `# reprolint: disable=broad-except "
                "-- <reason>`",
            )


@register
class MutableDefaultRule(Rule):
    """REP102: no mutable default arguments."""

    id = "REP102"
    name = "mutable-default"
    autofixable = True
    rationale = (
        "A mutable default is shared across every call — state leaks "
        "between runs, which is exactly the cross-run coupling the "
        "pipeline's per-run isolation tests exist to rule out."
    )

    _MUTABLE_CONSTRUCTORS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in self._MUTABLE_CONSTRUCTORS
        return False

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is not None and self._is_mutable(default):
                    yield self.violation(
                        context,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and create the value inside the function",
                    )


@register
class UnpicklablePlanRule(Rule):
    """REP201: nothing unpicklable goes into ExecutionPlan/Cell."""

    id = "REP201"
    name = "unpicklable-plan"
    rationale = (
        "A plan's sampler specs and cells are pickled to worker processes; "
        "a lambda, local closure or open file handle stored on a plan risks "
        "turning the process backend into a runtime error (or a serial fallback)."
    )

    def _local_def_names(self, function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(function):
            if node is function:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _check_call(
        self, context: FileContext, call: ast.Call, local_defs: set[str]
    ) -> Iterator[Violation]:
        func_name = dotted_name(call.func)
        if func_name is None or func_name.split(".")[-1] not in _PLAN_CLASS_NAMES:
            return
        class_name = func_name.split(".")[-1]
        values = [*call.args, *(keyword.value for keyword in call.keywords)]
        for value in values:
            if isinstance(value, ast.Lambda):
                yield self.violation(
                    context,
                    value,
                    f"lambda stored on {class_name} cannot be pickled to worker "
                    "processes; use a module-level function",
                )
            elif isinstance(value, ast.Name) and value.id in local_defs:
                yield self.violation(
                    context,
                    value,
                    f"locally defined `{value.id}` stored on {class_name} cannot "
                    "be pickled to worker processes; define it at module level",
                )
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "open"
            ):
                yield self.violation(
                    context,
                    value,
                    f"open file handle stored on {class_name} cannot be pickled; "
                    "store the path and open lazily inside the worker",
                )

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_defs = self._local_def_names(node)
                for call in _walk_calls(node):
                    yield from self._check_call(context, call, local_defs)
        # Module-level constructions (rare, but lambdas/open still matter).
        top_level_calls = [
            call
            for statement in context.tree.body
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for call in _walk_calls(statement)
        ]
        for call in top_level_calls:
            yield from self._check_call(context, call, set())


@register
class CacheKeyPurityRule(Rule):
    """REP202: execution-only knobs stay out of RunSpec and store keys."""

    id = "REP202"
    name = "cache-key-purity"
    rationale = (
        "Chunk size, backend and worker count are bit-identical by the "
        "executor's contracts; hashing them into store keys would make "
        "identical results cache-miss each other and fragment every sweep."
    )

    def _knob_token(self, name: str) -> str | None:
        lowered = name.lower()
        for token in _EXECUTION_KNOB_TOKENS:
            if token in lowered:
                return token
        return None

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunSpec":
                for statement in node.body:
                    target: ast.expr | None = None
                    if isinstance(statement, ast.AnnAssign):
                        target = statement.target
                    elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                        target = statement.targets[0]
                    if isinstance(target, ast.Name) and self._knob_token(target.id):
                        yield self.violation(
                            context,
                            statement,
                            f"RunSpec field `{target.id}` names an execution-only "
                            "knob; results are bit-identical across it, so it "
                            "must not enter the cache key",
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name != "store_key":
                    continue
                arguments = [
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                ]
                for argument in arguments:
                    if self._knob_token(argument.arg):
                        yield self.violation(
                            context,
                            argument,
                            f"store_key parameter `{argument.arg}` names an "
                            "execution-only knob; cache keys must not depend on "
                            "how a run is executed",
                        )


@register
class RegistrySpecRule(Rule):
    """REP203: registry entries stay constructible from spec strings."""

    id = "REP203"
    name = "registry-spec"
    rationale = (
        "Every registered factory must be buildable from a parsed "
        "`name:key=value` spec: literal defaults only (no computed "
        "expressions) and no positional-only *args, so .spec strings "
        "round-trip through parse_kwargs."
    )

    def _is_spec_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float, str, bool, type(None)))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._is_spec_literal(node.operand)
        if isinstance(node, (ast.Tuple, ast.List)):
            return all(self._is_spec_literal(element) for element in node.elts)
        return False

    def _registered_by(self, function: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
        for decorator in function.decorator_list:
            if not (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)):
                continue
            if decorator.func.attr != "register":
                continue
            owner = decorator.func.value
            if isinstance(owner, ast.Name) and owner.id in _SPEC_REGISTRY_NAMES:
                return owner.id
        return None

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            registry = self._registered_by(node)
            if registry is None:
                continue
            if node.args.vararg is not None:
                yield self.violation(
                    context,
                    node,
                    f"{registry} entry `{node.name}` takes *{node.args.vararg.arg}; "
                    "spec strings carry only key=value arguments",
                )
            arguments = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            # Positional defaults align with the tail of the argument list.
            padded: list[ast.expr | None] = [None] * (len(arguments) - len(defaults))
            padded.extend(defaults)
            for argument, default in zip(arguments, padded):
                if argument.arg == "rng" or default is None:
                    continue
                if not self._is_spec_literal(default):
                    yield self.violation(
                        context,
                        default,
                        f"{registry} entry `{node.name}`: default for "
                        f"`{argument.arg}` is not a spec literal, so the entry's "
                        ".spec cannot round-trip through parse_kwargs",
                    )


#: Module prefixes holding on-disk store state (rule REP204): every
#: file write there must publish atomically via the temp + replace
#: idiom, because concurrent sweep workers read these paths live.
_STORE_MODULE_PREFIXES = ("repro.store",)

#: Dotted call suffixes that atomically publish a finished file.
_ATOMIC_PUBLISH_SUFFIXES = ("os.replace", "os.rename", "os.link")

#: ``open()`` mode letters that write (truncate, append or create).
_WRITE_MODE_LETTERS = frozenset("wax")


@register
class NonAtomicWriteRule(Rule):
    """REP204: store modules publish files atomically (temp + os.replace)."""

    id = "REP204"
    name = "non-atomic-write"
    library_only = True
    rationale = (
        "N uncoordinated sweep workers read the store directory while "
        "others write it; a bare open(..., 'w') (or write_text/write_bytes) "
        "exposes torn, half-written files to concurrent readers and to "
        "crash recovery.  Every write under repro.store must land on a "
        "temporary name and be published with os.replace/os.rename/os.link."
    )

    def _applies_to(self, module: str | None) -> bool:
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _STORE_MODULE_PREFIXES
        )

    def _write_call_reason(self, call: ast.Call) -> str | None:
        """Why this call writes a file in place, or ``None`` if it doesn't."""
        target = dotted_name(call.func)
        if target is not None and (target == "open" or target.endswith(".open")):
            mode: ast.expr | None = None
            if len(call.args) >= 2:
                mode = call.args[1]
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and set(mode.value) & _WRITE_MODE_LETTERS
            ):
                return f"`open(..., {mode.value!r})` truncates or appends in place"
            return None
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "write_text",
            "write_bytes",
        ):
            return f"`.{call.func.attr}(...)` writes the target path in place"
        return None

    def _publishes_atomically(self, function: ast.AST) -> bool:
        for call in _walk_calls(function):
            target = dotted_name(call.func)
            if target is None:
                continue
            for suffix in _ATOMIC_PUBLISH_SUFFIXES:
                if target == suffix or target.endswith("." + suffix):
                    return True
        return False

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not self._applies_to(context.module):
            return
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(context.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        atomic_cache: dict[ast.AST, bool] = {}
        for call in _walk_calls(context.tree):
            reason = self._write_call_reason(call)
            if reason is None:
                continue
            cursor: ast.AST | None = call
            publishes = False
            while cursor is not None:
                if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if cursor not in atomic_cache:
                        atomic_cache[cursor] = self._publishes_atomically(cursor)
                    if atomic_cache[cursor]:
                        publishes = True
                        break
                cursor = parents.get(cursor)
            if not publishes:
                yield self.violation(
                    context,
                    call,
                    f"{reason}; concurrent store readers can observe a torn "
                    "file — write to a temporary name and publish it with "
                    "os.replace (see _atomic_write_bytes)",
                )


#: Modules forming the flow-accounting hot path (rule REP205).  A chunk
#: of N packets must be accounted in O(N); an ``argsort``/``lexsort``
#: there silently regresses the hash kernel back to an O(N log N)
#: sort-based group-by.
_HOT_PATH_MODULES = frozenset({"repro.flows.accounting", "repro.flows.groupby"})

#: The sort-based group-by function — exempt from REP205 by design: the
#: bounded table folds a segment that cannot overflow it through it, so
#: its sort is the point, not a regression.
_SORT_GROUPBY_FUNCTIONS = frozenset({"aggregate_codes"})

#: Call leaf names that perform an O(N log N) sort-based group-by.
_SORT_CALL_NAMES = frozenset({"argsort", "lexsort"})


@register
class HotPathSortRule(Rule):
    """REP205: no sort-based group-bys on the flow-accounting hot path."""

    id = "REP205"
    name = "hot-path-sort"
    library_only = True
    requires_reason = True
    rationale = (
        "The per-chunk accounting path is the pipeline's throughput "
        "ceiling and is deliberately O(N) via the hash-accumulator "
        "kernel; an np.argsort/np.lexsort in repro.flows.accounting or "
        "repro.flows.groupby (outside the designated sort-based "
        "group-by functions) silently reintroduces an O(N log N) pass "
        "per chunk.  "
        "Suppressions must say why the sort is not per-packet work."
    )

    def _enclosing_function(
        self, call: ast.Call, parents: dict[ast.AST, ast.AST]
    ) -> str | None:
        cursor: ast.AST | None = call
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cursor.name
            cursor = parents.get(cursor)
        return None

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.module not in _HOT_PATH_MODULES:
            return
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(context.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for call in _walk_calls(context.tree):
            target = dotted_name(call.func)
            if target is None:
                continue
            leaf = target.rsplit(".", 1)[-1]
            if leaf not in _SORT_CALL_NAMES:
                continue
            function = self._enclosing_function(call, parents)
            if function in _SORT_GROUPBY_FUNCTIONS:
                continue
            yield self.violation(
                context,
                call,
                f"`{target}` on the flow-accounting hot path is an "
                "O(N log N) pass per chunk; group with the hash "
                "accumulator, move the sort into the sort-based group-by "
                f"({', '.join(sorted(_SORT_GROUPBY_FUNCTIONS))}), or "
                "suppress with a reason explaining why the sorted input "
                "is not per-packet work",
            )


#: Module whose chunk loops must grow pending packets through the
#: :class:`repro.traces.buffers.ChunkBuffer`/``RunQueue`` primitives
#: (rule REP206) instead of re-concatenating arrays every chunk.
_SOURCE_HOT_MODULES = frozenset({"repro.traces.source"})

#: Calls that reallocate-and-copy the full pending state.  ``append``
#: is only the numpy one — ``list.append`` is amortised O(1) and fine.
_CONCAT_LEAF_NAMES = frozenset({"concatenate"})
_CONCAT_FULL_NAMES = frozenset({"np.append", "numpy.append"})


@register
class SourceHotConcatRule(Rule):
    """REP206: no concatenate-growth in source chunk loops."""

    id = "REP206"
    name = "source-hot-concat"
    library_only = True
    requires_reason = True
    rationale = (
        "Packet sources are the pipeline's generation ceiling; an "
        "np.concatenate/np.append inside a chunk loop of "
        "repro.traces.source copies the entire pending state on every "
        "chunk, turning O(N) streaming into O(N^2/chunk) churn.  Grow "
        "pending packets through repro.traces.buffers (ChunkBuffer "
        "amortised growth, RunQueue zero-copy runs) instead.  "
        "Suppressions must say why the copy is not per-chunk work."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.module not in _SOURCE_HOT_MODULES:
            return
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(context.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for call in _walk_calls(context.tree):
            target = dotted_name(call.func)
            if target is None:
                continue
            leaf = target.rsplit(".", 1)[-1]
            if leaf not in _CONCAT_LEAF_NAMES and target not in _CONCAT_FULL_NAMES:
                continue
            in_loop = False
            cursor: ast.AST | None = parents.get(call)
            while cursor is not None:
                if isinstance(cursor, (ast.For, ast.AsyncFor, ast.While)):
                    in_loop = True
                    break
                cursor = parents.get(cursor)
            if not in_loop:
                continue
            yield self.violation(
                context,
                call,
                f"`{target}` inside a chunk loop copies the whole pending "
                "state every iteration; grow through "
                "repro.traces.buffers (ChunkBuffer/RunQueue) or suppress "
                "with a reason explaining why the copy is not per-chunk "
                "work",
            )


#: The one library module sanctioned to read ``time.perf_counter``
#: directly: the telemetry registry wraps it behind named spans with a
#: zero-overhead off-switch (rule REP207).
_RAW_TIMING_EXEMPT_MODULES = frozenset({"repro.telemetry"})

#: Call targets (matched by dotted suffix) that time code raw.
_RAW_TIMING_SUFFIXES = ("time.perf_counter", "time.perf_counter_ns")


@register
class RawTimingRule(Rule):
    """REP207: raw perf_counter timing goes through repro.telemetry."""

    id = "REP207"
    name = "raw-timing"
    library_only = True
    requires_reason = True
    rationale = (
        "Ad-hoc `time.perf_counter()` pairs scattered through library "
        "code cannot be switched off, aggregated, or merged across "
        "worker processes; repro.telemetry.span() provides exactly that "
        "(and is itself the one sanctioned perf_counter caller).  "
        "Timing in benchmarks/harness code is out of scope — the rule "
        "is library-only.  Suppressions must say why a span cannot "
        "carry the measurement."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.module in _RAW_TIMING_EXEMPT_MODULES:
            return
        for call in _walk_calls(context.tree):
            target = dotted_name(call.func)
            if target is None:
                continue
            for suffix in _RAW_TIMING_SUFFIXES:
                if target == suffix or target.endswith("." + suffix):
                    yield self.violation(
                        context,
                        call,
                        f"`{target}()` times code raw; wrap the region in "
                        "repro.telemetry.span(...) so the measurement is "
                        "switchable, aggregated and mergeable — or "
                        "suppress with a reason explaining why a span "
                        "cannot carry it",
                    )
                    break


@register
class MissingAnnotationsRule(Rule):
    """REP301: the public API carries complete type annotations."""

    id = "REP301"
    name = "missing-annotations"
    library_only = True
    rationale = (
        "The pipeline/store/sweep/registry/spec/analysis surface is the "
        "contract downstream code builds on; every public function and "
        "method there is fully annotated (and mypy --strict checks the "
        "bodies in CI)."
    )

    def _applies_to(self, module: str | None) -> bool:
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".") for prefix in API_MODULE_PREFIXES
        )

    def _public_functions(
        self, context: FileContext
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
        for statement in context.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not statement.name.startswith("_"):
                    yield statement, statement.name
            elif isinstance(statement, ast.ClassDef) and not statement.name.startswith("_"):
                for member in statement.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    name = member.name
                    is_dunder = name.startswith("__") and name.endswith("__")
                    if name.startswith("_") and not is_dunder:
                        continue
                    yield member, f"{statement.name}.{name}"

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not self._applies_to(context.module):
            return
        for function, qualified in self._public_functions(context):
            if function.returns is None:
                yield self.violation(
                    context,
                    function,
                    f"public API function `{qualified}` has no return annotation",
                )
            arguments = [
                *function.args.posonlyargs,
                *function.args.args,
                *function.args.kwonlyargs,
            ]
            if function.args.vararg is not None:
                arguments.append(function.args.vararg)
            if function.args.kwarg is not None:
                arguments.append(function.args.kwarg)
            for argument in arguments:
                if argument.arg in ("self", "cls"):
                    continue
                if argument.annotation is None:
                    yield self.violation(
                        context,
                        argument,
                        f"public API function `{qualified}`: parameter "
                        f"`{argument.arg}` has no type annotation",
                    )


__all__ = [
    "API_MODULE_PREFIXES",
    "BroadExceptRule",
    "CacheKeyPurityRule",
    "FloatEqualityRule",
    "GlobalRngRule",
    "HotPathSortRule",
    "MissingAnnotationsRule",
    "MutableDefaultRule",
    "NonAtomicWriteRule",
    "RawTimingRule",
    "RegistrySpecRule",
    "SourceHotConcatRule",
    "UnorderedIterationRule",
    "UnpicklablePlanRule",
    "WallClockRule",
]
