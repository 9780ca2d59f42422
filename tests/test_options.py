"""Every defaulted parameter of the library is set by at least one program.

A keyword option that no call site in ``src/`` or ``stripbench/`` ever
passes is a constant in disguise: it doubles the configurations a reader
must consider without any program needing the second one. A test is not a
caller here: a knob that only tests turn is a constant too, and a test that
needs another value builds it from the pieces the constant feeds. This test
parses the package and every program file (the ``tests`` directories of
both trees excluded), and fails on each defaulted parameter no program
passes, unless ``ALLOWED`` names it with a reason.

The fields of a ``@dataclass`` are options of its generated ``__init__``:
a field with a plain default (or ``field(default=...)``) counts as a
defaulted parameter, set by a call ``Cls(...)`` by keyword or by position.
A ``field(default_factory=...)`` is an accumulator the class fills itself,
not an option.

Call sites are matched to definitions by name only (``f(...)`` and
``obj.f(...)`` both match every ``def f``), so same-named functions share
their callers; that errs toward counting a parameter as used. A keyword
argument counts for its name, a positional argument for the parameter in its
place (after ``self`` or ``cls`` for methods called through an attribute),
``*args`` for every remaining positional parameter and ``**mapping`` for
every parameter.

Forwarding is not a use by itself. Inside the package, an argument that is
a defaulted parameter of an enclosing function, never reassigned there,
sets the callee's parameter only if some caller sets the enclosing one; and
``**kwargs`` passed on from an enclosing ``**kwargs`` sets only the keywords
that callers of the enclosing function pass into it.

The command line follows the same rule: every option string of
``cli.build_parser()`` must appear as a string literal in some test.

The same holds for whole names: every function, class, method and property
of the package must be referenced from ``src/`` or ``stripbench/``, not only
from ``tests/`` or ``stripbench/tests/``, unless ``TEST_ONLY`` names it with
a reason. Names are matched as for the options: an identifier, an attribute
or a string constant (``verify``'s stage tables name their checks) counts
wherever it appears, except inside the definition it names and in
``__all__``. So must every field of a top-level ``@dataclass`` of the
package, but a field counts as read only through an attribute access,
``obj.field``, in a program file: a same-named local variable, keyword
argument or string does not read it.

Two rules keep the gate one statement: every bound a ``check_*`` function of
``verify`` compares against is a named entry of ``THRESHOLDS``, which the
manifest records, and ``verify-all`` runs exactly the checks that
``tests/test_acceptance.py`` runs.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

from stripdamp import cli, verify

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stripdamp"
CALLER_DIRS = (ROOT / "src", ROOT / "tests", ROOT / "stripbench")

# (module, function, parameter) kept although no program call sets it
ALLOWED = {
    # stripbench/tracing.py binds find_eigenvalue's arguments and reads
    # max_iter to count runs that iterate to the limit
    ("eigen", "find_eigenvalue", "max_iter"): "read by the benchmark's tracer",
    # stripbench/tracing.py reads the tol default through inspect.signature
    # to tell coarse solves from default ones
    ("resolvent", "resolvent_norm", "tol"): "default read by the benchmark's tracer",
    # the console script calls main() with no arguments; argv exists so the
    # command line can be driven from Python
    ("cli", "main", "argv"): "entry point",
}

# (module, qualified name) kept although only tests reference it
TEST_ONLY = {
    ("cap", "boundary_value_by_shooting"): "independent oracle of the half-line solver",
    ("cap", "boundary_value_closed_form_beta0"): "independent oracle: the beta = 0 exponential",
    ("quasimode", "direct_residual_norm"): "independent oracle of the collapsed residual",
    ("resolvent", "quasimode_lower_bound"): "independent lower bound on the scanned norms",
    ("verify", "time_pinned_resolvent_scan"): "runtime reference of the resolvent scan test",
}


class _Def:
    """Signature facts of one function, or of one dataclass's ``__init__``."""

    def __init__(self, key, positional, defaulted, kwonly=(), varkw=None,
                 is_method=False, assigned=frozenset(), is_dataclass=False):
        self.key = key
        self.positional = positional
        self.named = set(positional) | set(kwonly)
        self.defaulted = defaulted
        self.varkw = varkw
        self.is_method = is_method
        self.assigned = assigned
        self.is_dataclass = is_dataclass

    @classmethod
    def of_function(cls, module: str, fn: ast.FunctionDef, in_class: bool):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = set(positional[len(positional) - len(args.defaults):]
                        if args.defaults else ())
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None}
        return cls(
            (module, fn.name), positional, defaulted,
            kwonly=[a.arg for a in args.kwonlyargs],
            varkw=args.kwarg.arg if args.kwarg else None,
            is_method=in_class and positional[:1] in (["self"], ["cls"]),
            assigned={n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)},
        )

    @classmethod
    def of_dataclass(cls, module: str, node: ast.ClassDef):
        fields = _fields(node)
        defaulted = {name for name, value in fields if _plain_default(value)}
        return cls((module, node.name), [name for name, _ in fields], defaulted,
                   is_dataclass=True)


def _called_name(func):
    """f for a call f(...) or obj.f(...), else None."""
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_called_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _fields(node: ast.ClassDef):
    """(name, right-hand side or None) of each field of a dataclass, in order."""
    return [(f.target.id, f.value) for f in node.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def _plain_default(value) -> bool:
    """Whether a field's right-hand side gives a default an __init__ call can set."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _called_name(value.func) == "field":
        return any(kw.arg == "default" for kw in value.keywords)
    return True


def _parse_all():
    """path -> syntax tree of every file the scan reads, each parsed once."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for directory in CALLER_DIRS for path in sorted(directory.rglob("*.py"))}


def _is_test(path: Path) -> bool:
    """Files under a tests directory: tests/ and stripbench/tests/."""
    return "tests" in path.relative_to(ROOT).parts


def _definitions(trees):
    """name -> list of _Def, plus id(FunctionDef node) -> _Def.

    Top-level functions, methods, and the generated __init__ of each
    top-level dataclass of every package module.
    """
    by_name, by_node = {}, {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            members = [(node, False)]
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    d = _Def.of_dataclass(path.stem, node)
                    by_name.setdefault(node.name, []).append(d)
                members = [(n, True) for n in node.body]
            for fn, in_class in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    d = _Def.of_function(path.stem, fn, in_class)
                    by_name.setdefault(fn.name, []).append(d)
                    by_node[id(fn)] = d
    return by_name, by_node


class _CallScan(ast.NodeVisitor):
    """Collects (callee parameter key, condition key or None) for each use."""

    def __init__(self, by_name, by_node):
        self.by_name, self.by_node = by_name, by_node
        self.stack: list[ast.FunctionDef] = []
        self.uses: list[tuple] = []

    def _visit_function(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _condition(self, value):
        """Key an argument value depends on when it forwards an enclosing option."""
        if not isinstance(value, ast.Name):
            return None
        for fn in reversed(self.stack):
            d = self.by_node.get(id(fn))
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args
                      + fn.args.kwonlyargs}
            if value.id not in params:
                continue
            if d is not None and value.id in d.defaulted and value.id not in d.assigned:
                return d.key + (value.id,)
            return None
        return None

    def _varkw_owner(self, value):
        """The enclosing package function whose **kwargs this value is."""
        if not isinstance(value, ast.Name):
            return None
        for fn in reversed(self.stack):
            d = self.by_node.get(id(fn))
            if d is not None and d.varkw == value.id:
                return d
        return None

    def visit_Call(self, call):
        self.generic_visit(call)
        func = call.func
        for d in self.by_name.get(_called_name(func), ()):
            params = d.positional[1:] if d.is_method and isinstance(func, ast.Attribute) \
                else d.positional
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    self.uses += [(d.key + (p,), None) for p in params[i:]]
                    break
                if i < len(params):
                    self.uses.append((d.key + (params[i],), self._condition(arg)))
            for kw in call.keywords:
                if kw.arg is None:
                    owner = self._varkw_owner(kw.value)
                    for p in d.named:
                        cond = None if owner is None else owner.key + ("**" + p,)
                        self.uses.append((d.key + (p,), cond))
                elif kw.arg in d.named:
                    self.uses.append((d.key + (kw.arg,), self._condition(kw.value)))
                elif d.varkw:
                    # lands in **kwargs; only a forward of it can use it
                    self.uses.append((d.key + ("**" + kw.arg,),
                                      self._condition(kw.value)))


def scan_options():
    """(function options, dataclass field options, options no program sets).

    Each option is a (module, function or class, parameter) key.
    """
    trees = _parse_all()
    by_name, by_node = _definitions(trees)
    scan = _CallScan(by_name, by_node)
    for path, tree in trees.items():
        if not _is_test(path):
            scan.visit(tree)
    used, grew = set(), True
    while grew:
        before = len(used)
        used |= {key for key, cond in scan.uses if cond is None or cond in used}
        grew = len(used) > before
    defs = [d for ds in by_name.values() for d in ds]
    params = {d.key + (p,) for d in defs if not d.is_dataclass for p in d.defaulted}
    fields = {d.key + (p,) for d in defs if d.is_dataclass for p in d.defaulted}
    return params, fields, sorted((params | fields) - used)


def unused_options():
    return scan_options()[2]


def test_every_defaulted_parameter_has_a_caller():
    params, fields, unused = scan_options()
    print(f"{len(params)} defaulted parameters, {len(fields)} dataclass field "
          f"defaults, {len(ALLOWED)} allowed")
    unused = [k for k in unused if k not in ALLOWED]
    assert not unused, (
        "defaulted parameters no program call sets (make them constants, or "
        "allow them with a reason): "
        + ", ".join(f"{m}.{f}({p})" for m, f, p in unused)
    )


def test_allowlist_names_only_unused_parameters():
    # an entry whose parameter is gone or is now set by a caller is stale
    stale = sorted(set(ALLOWED) - set(unused_options()))
    assert not stale, f"stale allowlist entries: {stale}"


class _References(ast.NodeVisitor):
    """Names a file reads, outside the definition they name and ``__all__``,
    and the attribute names it reads as ``obj.name``, anywhere."""

    def __init__(self):
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self.inside: list[str] = []

    def _visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def _read(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        if isinstance(node.ctx, ast.Load):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._read(node.value)


def names_used_only_by_tests():
    """(module, qualified name) of package definitions and dataclass fields
    no program file reads."""
    trees = _parse_all()
    refs = _References()
    for path, tree in trees.items():
        if not _is_test(path):
            refs.visit(tree)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, definitions):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{n.name}", n) for n in node.body
                            if isinstance(n, definitions) and not n.name.startswith("__")]
            unused |= {(path.stem, qualname) for qualname, d in members
                       if d.name not in refs.names}
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unused |= {(path.stem, f"{node.name}.{name}") for name, _ in _fields(node)
                           if name not in refs.attributes}
    return unused


def test_every_package_name_is_used_outside_the_tests():
    # a capability only its own tests reach is one no program needs
    found = names_used_only_by_tests()
    unused = sorted(found - set(TEST_ONLY))
    stale = sorted(set(TEST_ONLY) - found)
    assert not unused and not stale, (
        "package names only tests reference (delete them, or keep them in "
        f"TEST_ONLY with a reason): {unused}; stale TEST_ONLY entries: {stale}"
    )


def test_a_field_is_read_only_through_an_attribute():
    # build_quasimode has locals named like fields (phi, dv): a local, a
    # keyword, a string or a store does not read a field
    refs = _References()
    refs.visit(ast.parse("phi = dv\nQ(phi=phi, dv='d2v')\nqm.h2 = 0\nu = qm.u\n"))
    assert refs.attributes == {"u"}


def _option_strings(parser):
    """Every option string of parser and its subcommands, help aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from action.option_strings


def test_every_cli_option_is_passed_by_a_test():
    # the same rule for the command line: a flag no test passes is untested
    passed = {node.value for path in sorted((ROOT / "tests").rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    untested = sorted(set(_option_strings(cli.build_parser())) - passed)
    assert not untested, f"CLI options no test passes: {untested}"


def _bare_bounds(tree):
    """Float literals other than 0.0 a check_* function compares against.

    A literal counts when it is an operand of a comparison, or of arithmetic
    on one side of it; the arguments of a call are part of the measured
    quantity (``abs(value - 1.0)``), not the bound.
    """
    def literals(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float) and node.value != 0.0:
                yield node.value
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            for child in ast.iter_child_nodes(node):
                yield from literals(child)

    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_"):
            for cmp in ast.walk(fn):
                if isinstance(cmp, ast.Compare):
                    for operand in [cmp.left] + cmp.comparators:
                        yield from ((fn.name, v) for v in literals(operand))


def test_every_bound_of_a_check_is_a_threshold():
    # manifest.json records THRESHOLDS as the numbers the gate compares against
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    bare = sorted(_bare_bounds(tree))
    assert not bare, f"bare bounds in verify's checks (move them to THRESHOLDS): {bare}"


def test_gate_and_suite_run_the_same_checks():
    # verify-all and tests/test_acceptance.py must certify the same statement
    gate = {fn for _, fn in verify.SHARED_STAGES + verify.BETA_STAGES}
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    suite = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr.startswith("check_")}
    assert gate == suite, (f"only in verify-all: {sorted(gate - suite)}; "
                           f"only in the acceptance suite: {sorted(suite - gate)}")
