"""Static per-function lockset summaries from workload ASTs (pass 1).

The extractor parses workload sources with :mod:`ast` — it never imports
or executes them — and produces, for every function/method in the corpus,
an ordered summary of the lock operations the function may perform:

* ``StaticAcquire`` — an acquisition site (``with lock.at(...):``,
  ``with lock:``, or an explicit ``lock.acquire(...)``) together with the
  stack of statically-held locks at that point;
* ``StaticCall`` — a call made while (possibly) holding locks, recorded
  with enough receiver information for :mod:`repro.analysis.lockgraph`
  to resolve it interprocedurally.

Lock identity is **alias-conservative**: every lock-creating expression
(``rt.new_lock(...)``) is folded into a :class:`LockToken` abstraction —
a local variable, an instance attribute (``self.mutex``), or a list
element (``forks[*]``).  Distinct concrete locks that the analysis cannot
tell apart share one token with ``many=True``; a *self-edge* on such a
token is a candidate deadlock (two instances acquired in opposite order),
while self-edges on singleton tokens are reentrant acquisitions and are
ignored.  Site labels keep literal strings verbatim and collapse f-string
holes to ``*`` wildcards, so static sites can be matched against the
dynamic trace's concrete sites (:func:`site_matches`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Methods of the runtime lock/condition/handle API that are consumed by
#: the extractor itself (or are irrelevant to lock order) and must not be
#: treated as interprocedural calls.
_RUNTIME_METHODS = frozenset(
    {
        "acquire",
        "release",
        "at",
        "new_lock",
        "spawn",
        "join",
        "checkpoint",
        "condition",
        "wait",
        "notify",
        "notify_all",
        "locked",
        "is_alive",
    }
)


def site_matches(pattern: str, site: str) -> bool:
    """Match a concrete dynamic site against a static site pattern.

    Patterns are literal except for ``*``, which matches any (possibly
    empty) substring — the residue of f-string holes in workload site
    labels.  A plain pattern must match exactly.
    """
    parts = pattern.split("*")
    if len(parts) == 1:
        return pattern == site
    if not site.startswith(parts[0]) or not site.endswith(parts[-1]):
        return False
    pos = len(parts[0])
    end = len(site) - len(parts[-1])
    for mid in parts[1:-1]:
        if mid:
            found = site.find(mid, pos, end)
            if found < 0:
                return False
            pos = found + len(mid)
    return pos <= end


@dataclass(frozen=True)
class LockToken:
    """Alias-conservative static lock identity.

    ``many`` marks tokens that may denote more than one concrete lock
    (instance attributes, list elements, loop-created locks); only those
    can self-deadlock.
    """

    name: str
    many: bool = False
    #: Human-oriented label (the ``name=`` literal when available).
    display: str = field(default="", compare=False)

    def pretty(self) -> str:
        return self.display or self.name


@dataclass(frozen=True)
class StaticAcquire:
    """One static acquisition: ``token`` acquired at ``site`` while the
    ``held`` stack (outermost first) is held."""

    token: LockToken
    site: str
    held: Tuple[Tuple[LockToken, str], ...]
    file: str
    line: int


@dataclass(frozen=True)
class StaticCall:
    """A call executed while ``held`` is held (held may be empty — the
    callee's own acquisitions still matter transitively)."""

    #: Called attribute/function name (``equals``, ``philosopher`` ...).
    name: str
    #: Static receiver class when known (from ``self``, an annotation, or
    #: an instance-typed local); ``None`` means "any class with a method
    #: of this name" (conservative).
    receiver_class: Optional[str]
    #: True for plain-name calls (``helper()``), resolved against
    #: functions rather than methods.
    plain: bool
    held: Tuple[Tuple[LockToken, str], ...]
    file: str
    line: int


@dataclass
class FunctionSummary:
    qualname: str
    module: str
    file: str
    line: int
    class_name: Optional[str]
    acquires: List[StaticAcquire] = field(default_factory=list)
    calls: List[StaticCall] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    module: str
    bases: Tuple[str, ...]
    #: Lock-valued instance attributes: attr name -> token.
    attr_locks: Dict[str, LockToken] = field(default_factory=dict)
    #: Lock-list-valued attributes: attr name -> element token.
    attr_lock_lists: Dict[str, LockToken] = field(default_factory=dict)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class CorpusSummary:
    """Everything pass 1 extracted from a set of source files."""

    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: module stem -> {imported-or-local constant name -> string value}
    constants: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module stem -> set of corpus module stems it imports from
    imports: Dict[str, List[str]] = field(default_factory=dict)


# -- environment ------------------------------------------------------------

#: A binding in the static environment.
#: ("lock", token) / ("locklist", element token) /
#: ("instance", class name) / ("str", literal value)
_Binding = Tuple[str, object]


class _Env:
    """Lexical scope chain (module -> enclosing defs -> current def)."""

    def __init__(self, parent: Optional["_Env"] = None) -> None:
        self.parent = parent
        self.vars: Dict[str, _Binding] = {}

    def lookup(self, name: str) -> Optional[_Binding]:
        env: Optional[_Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None

    def bind(self, name: str, binding: _Binding) -> None:
        self.vars[name] = binding


def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _site_pattern(node: ast.AST, env: _Env) -> str:
    """Render a site argument as a literal-with-wildcards pattern."""
    lit = _literal_str(node)
    if lit is not None:
        return lit
    if isinstance(node, ast.Name):
        bound = env.lookup(node.id)
        if bound is not None and bound[0] == "str":
            return str(bound[1])
        return "*"
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            lit = _literal_str(value)
            parts.append(lit if lit is not None else "*")
        return "".join(parts) or "*"
    return "*"


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name out of a parameter annotation (``C``, ``"C"``,
    ``Optional[C]`` is not unwrapped — conservative ``None``)."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    lit = _literal_str(node)
    if lit is not None:
        # Forward references are plain names in this corpus.
        return lit if lit.isidentifier() else None
    return None


def _is_new_lock(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "new_lock"
    )


def _new_lock_display(node: ast.Call) -> str:
    for kw in node.keywords:
        if kw.arg == "name":
            lit = _literal_str(kw.value)
            if lit is not None:
                return lit
    return ""


class _ModuleExtractor:
    """Two-pass extraction over one parsed module."""

    def __init__(self, corpus: CorpusSummary, module: str, file: str) -> None:
        self.corpus = corpus
        self.module = module
        self.file = file

    # -- pass 1: constants, classes, attribute locks ----------------------

    def collect_declarations(self, tree: ast.Module) -> None:
        consts = self.corpus.constants.setdefault(self.module, {})
        imports = self.corpus.imports.setdefault(self.module, [])
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                lit = _literal_str(stmt.value)
                if isinstance(target, ast.Name) and lit is not None:
                    consts[target.id] = lit
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                src = stmt.module.rsplit(".", 1)[-1]
                imports.append(src)
                for alias in stmt.names:
                    consts.setdefault(f"@from:{alias.asname or alias.name}", src)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = tuple(b.id for b in node.bases if isinstance(b, ast.Name))
        summary = ClassSummary(name=node.name, module=self.module, bases=bases)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qual = f"{self.module}.{node.name}.{stmt.name}"
            summary.methods[stmt.name] = qual
            for sub in ast.walk(stmt):
                if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                token_name = f"{self.module}.{node.name}.{target.attr}"
                if _is_new_lock(sub.value):
                    summary.attr_locks.setdefault(
                        target.attr,
                        LockToken(
                            token_name,
                            many=True,
                            display=_new_lock_display(sub.value),  # type: ignore[arg-type]
                        ),
                    )
                elif self._is_lock_list(sub.value):
                    summary.attr_lock_lists.setdefault(
                        target.attr, LockToken(f"{token_name}[*]", many=True)
                    )
        self.corpus.classes[node.name] = summary

    @staticmethod
    def _is_lock_list(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Tuple)):
            return any(_is_new_lock(el) for el in node.elts)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return _is_new_lock(node.elt)
        return False

    # -- pass 2: function summaries ----------------------------------------

    def collect_functions(self, tree: ast.Module) -> None:
        env = self._module_env()
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self._function(stmt, self.module, None, env)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        self._function(
                            sub, f"{self.module}.{stmt.name}", stmt.name, env
                        )

    def _module_env(self) -> _Env:
        env = _Env()
        for name, value in self.corpus.constants.get(self.module, {}).items():
            if not name.startswith("@from:"):
                env.bind(name, ("str", value))
        # Imported string constants resolve through their source module.
        for key, src in self.corpus.constants.get(self.module, {}).items():
            if key.startswith("@from:"):
                name = key[len("@from:") :]
                value = self.corpus.constants.get(src, {}).get(name)
                if value is not None:
                    env.bind(name, ("str", value))
        return env

    def _function(
        self,
        node: ast.FunctionDef,
        qualprefix: str,
        class_name: Optional[str],
        parent_env: _Env,
        *,
        in_loop: bool = False,
    ) -> None:
        qual = f"{qualprefix}.{node.name}"
        summary = FunctionSummary(
            qualname=qual,
            module=self.module,
            file=self.file,
            line=node.lineno,
            class_name=class_name,
        )
        env = _Env(parent_env)
        for arg in node.args.args + node.args.kwonlyargs:
            ann = _annotation_name(arg.annotation)
            if ann is not None:
                env.bind(arg.arg, ("instance", ann))
        walker = _BodyWalker(self, summary, env, qual, in_loop=in_loop)
        walker.walk(node.body)
        self.corpus.functions[qual] = summary


class _BodyWalker:
    """Statement walker tracking the statically-held lock stack."""

    def __init__(
        self,
        mod: _ModuleExtractor,
        summary: FunctionSummary,
        env: _Env,
        qual: str,
        *,
        in_loop: bool = False,
    ) -> None:
        self.mod = mod
        self.summary = summary
        self.env = env
        self.qual = qual
        #: (token, site) stack: ``with`` nesting + explicit acquire()s.
        self.held: List[Tuple[LockToken, str]] = []
        self.loop_depth = 1 if in_loop else 0

    # -- expression resolution --------------------------------------------

    def resolve_lock(self, node: ast.AST) -> Optional[LockToken]:
        """Resolve an expression to a lock token, or None."""
        if isinstance(node, ast.Name):
            bound = self.env.lookup(node.id)
            if bound is not None and bound[0] == "lock":
                return bound[1]  # type: ignore[return-value]
            return None
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Name):
                bound = self.env.lookup(base.id)
                if bound is not None and bound[0] == "locklist":
                    return bound[1]  # type: ignore[return-value]
            if isinstance(base, ast.Attribute):
                cls = self._receiver_class(base.value)
                token = self._attr_list_token(cls, base.attr)
                if token is not None:
                    return token
            return None
        if isinstance(node, ast.Attribute):
            cls = self._receiver_class(node.value)
            return self._attr_token(cls, node.attr)
        return None

    def _receiver_class(self, node: ast.AST) -> Optional[str]:
        """Static class of a receiver expression, when inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.summary.class_name
            bound = self.env.lookup(node.id)
            if bound is not None and bound[0] == "instance":
                return str(bound[1])
        return None

    def _class_chain(self, cls: Optional[str]) -> List[ClassSummary]:
        """``cls``, its corpus bases, and its corpus subclasses — the
        conservative dispatch set; all corpus classes when unknown."""
        classes = self.mod.corpus.classes
        if cls is None or cls not in classes:
            return [classes[name] for name in sorted(classes)]
        chain: List[ClassSummary] = []
        seen = set()

        def add_with_bases(name: str) -> None:
            if name in seen or name not in classes:
                return
            seen.add(name)
            chain.append(classes[name])
            for base in classes[name].bases:
                add_with_bases(base)

        add_with_bases(cls)
        for name in sorted(classes):
            if name not in seen and any(b in seen for b in classes[name].bases):
                add_with_bases(name)
        return chain

    def _attr_token(self, cls: Optional[str], attr: str) -> Optional[LockToken]:
        for summary in self._class_chain(cls):
            if attr in summary.attr_locks:
                return summary.attr_locks[attr]
        return None

    def _attr_list_token(self, cls: Optional[str], attr: str) -> Optional[LockToken]:
        for summary in self._class_chain(cls):
            if attr in summary.attr_lock_lists:
                return summary.attr_lock_lists[attr]
        return None

    # -- lock-operation recognition ----------------------------------------

    def _acquire_target(
        self, node: ast.AST
    ) -> Optional[Tuple[LockToken, str, int]]:
        """Decode a ``with`` item: ``lock.at(site)`` or a bare lock."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
            and node.args
        ):
            token = self.resolve_lock(node.func.value)
            if token is not None:
                return token, _site_pattern(node.args[0], self.env), node.lineno
            return None
        token = self.resolve_lock(node)
        if token is not None:
            site = f"{Path(self.mod.file).name}:{node.lineno}"
            return token, site, node.lineno
        return None

    def _record_acquire(self, token: LockToken, site: str, line: int) -> None:
        self.summary.acquires.append(
            StaticAcquire(
                token=token,
                site=site,
                held=tuple(self.held),
                file=self.mod.file,
                line=line,
            )
        )

    def _call_site_args(self, node: ast.Call) -> Optional[str]:
        """Site argument of an explicit acquire()/release() call."""
        if node.args:
            return _site_pattern(node.args[0], self.env)
        for kw in node.keywords:
            if kw.arg == "site":
                return _site_pattern(kw.value, self.env)
        return None

    # -- statement walking -------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            self._with(stmt)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt)
            self._scan_calls(stmt.value)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self._scan_calls(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._expr_statement(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_calls(stmt.value)
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.While):
            self._scan_calls(stmt.test)
            self.loop_depth += 1
            self.walk(stmt.body)
            self.walk(stmt.orelse)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.If):
            self._scan_calls(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, ast.FunctionDef):
            # Nested function: a separate summary sharing this scope.
            self.mod._function(
                stmt,
                self.qual,
                self.summary.class_name,
                self.env,
                in_loop=self.loop_depth > 0,
            )
        # Other statement kinds carry no lock operations in this corpus.

    def _with(self, stmt: ast.With) -> None:
        pushed = 0
        for item in stmt.items:
            target = self._acquire_target(item.context_expr)
            if target is None:
                self._scan_calls(item.context_expr)
                continue
            token, site, line = target
            if self._reentrant(token):
                continue
            self._record_acquire(token, site, line)
            self.held.append((token, site))
            pushed += 1
        self.walk(stmt.body)
        for _ in range(pushed):
            self.held.pop()

    def _reentrant(self, token: LockToken) -> bool:
        """A singleton token already on the held stack is a reentrant
        acquisition of the same lock — no new order constraint."""
        return not token.many and any(t == token for t, _ in self.held)

    def _expr_statement(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "acquire":
                token = self.resolve_lock(node.func.value)
                if token is not None:
                    site = self._call_site_args(node) or (
                        f"{Path(self.mod.file).name}:{node.lineno}"
                    )
                    if not self._reentrant(token):
                        self._record_acquire(token, site, node.lineno)
                        self.held.append((token, site))
                    return
            elif attr == "release":
                token = self.resolve_lock(node.func.value)
                if token is not None:
                    for i in range(len(self.held) - 1, -1, -1):
                        if self.held[i][0] == token:
                            del self.held[i]
                            break
                    return
        self._scan_calls(node)

    def _assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            self._bind_value(target.id, stmt.value)
        elif (
            isinstance(target, ast.Tuple)
            and isinstance(stmt.value, ast.Tuple)
            and len(target.elts) == len(stmt.value.elts)
        ):
            for t, v in zip(target.elts, stmt.value.elts, strict=True):
                if isinstance(t, ast.Name):
                    self._bind_value(t.id, v)

    def _bind_value(self, name: str, value: ast.AST) -> None:
        if _is_new_lock(value):
            many = self.loop_depth > 0
            token = LockToken(
                f"{self.qual}.{name}",
                many=many,
                display=_new_lock_display(value),  # type: ignore[arg-type]
            )
            self.env.bind(name, ("lock", token))
            return
        if _ModuleExtractor._is_lock_list(value):
            token = LockToken(f"{self.qual}.{name}[*]", many=True)
            self.env.bind(name, ("locklist", token))
            return
        token_or_none = self.resolve_lock(value)
        if token_or_none is not None:
            self.env.bind(name, ("lock", token_or_none))
            return
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self.mod.corpus.classes
        ):
            self.env.bind(name, ("instance", value.func.id))
            return
        lit = _literal_str(value)
        if lit is not None:
            self.env.bind(name, ("str", lit))

    def _for(self, stmt: ast.For) -> None:
        self._scan_calls(stmt.iter)
        self._bind_loop_targets(stmt.target, stmt.iter)
        self.loop_depth += 1
        self.walk(stmt.body)
        self.walk(stmt.orelse)
        self.loop_depth -= 1

    def _bind_loop_targets(self, target: ast.AST, source: ast.AST) -> None:
        """``for mine, other in ((a, b), (b, a)):`` — bind targets to a
        class when every iterate resolves to the same one."""
        names: List[str] = []
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, ast.Tuple):
            if not all(isinstance(el, ast.Name) for el in target.elts):
                return
            names = [el.id for el in target.elts]  # type: ignore[union-attr]
        if not names or not isinstance(source, ast.Tuple):
            return
        classes: set = set()
        for element in source.elts:
            parts = (
                element.elts if isinstance(element, ast.Tuple) else [element]
            )
            for part in parts:
                if isinstance(part, ast.Name):
                    bound = self.env.lookup(part.id)
                    if bound is not None and bound[0] == "instance":
                        classes.add(str(bound[1]))
                        continue
                classes.add("?")
        if len(classes) == 1 and "?" not in classes:
            cls = classes.pop()
            for name in names:
                self.env.bind(name, ("instance", cls))

    def _scan_calls(self, node: ast.AST) -> None:
        """Record every interprocedural call under the current held stack."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                if func.attr in _RUNTIME_METHODS or func.attr.startswith("__"):
                    continue
                self.summary.calls.append(
                    StaticCall(
                        name=func.attr,
                        receiver_class=self._receiver_class(func.value),
                        plain=False,
                        held=tuple(self.held),
                        file=self.mod.file,
                        line=sub.lineno,
                    )
                )
            elif isinstance(func, ast.Name):
                self.summary.calls.append(
                    StaticCall(
                        name=func.id,
                        receiver_class=None,
                        plain=True,
                        held=tuple(self.held),
                        file=self.mod.file,
                        line=sub.lineno,
                    )
                )


# -- entry points -----------------------------------------------------------


def analyze_source(
    source: str, *, filename: str = "<static>", module: Optional[str] = None
) -> CorpusSummary:
    """Extract summaries from one source string (tests, ad-hoc files)."""
    corpus = CorpusSummary()
    stem = module or Path(filename).stem
    _extract_into(corpus, source, stem, filename)
    return corpus


def analyze_corpus(paths: Sequence[Union[str, Path]]) -> CorpusSummary:
    """Extract summaries from ``paths`` (files, or directories scanned
    recursively for ``*.py``), in sorted order for determinism."""
    files: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    corpus = CorpusSummary()
    parsed: List[Tuple[str, str, str]] = []
    for path in files:
        parsed.append((path.read_text(), path.stem, str(path)))
    # Declarations first so cross-module constants/classes resolve
    # regardless of file order.
    extractors = []
    for source, stem, filename in parsed:
        tree = ast.parse(source, filename=filename)
        extractor = _ModuleExtractor(corpus, stem, filename)
        extractor.collect_declarations(tree)
        extractors.append((extractor, tree))
    for extractor, tree in extractors:
        extractor.collect_functions(tree)
    return corpus


def _extract_into(
    corpus: CorpusSummary, source: str, module: str, filename: str
) -> None:
    tree = ast.parse(source, filename=filename)
    extractor = _ModuleExtractor(corpus, module, filename)
    extractor.collect_declarations(tree)
    extractor.collect_functions(tree)
