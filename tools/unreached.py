#!/usr/bin/env python3
"""List the library names and settings that nothing outside ``tests/`` reaches.

    python3 tools/unreached.py

Reads ``src/wnc`` with ``ast`` (standard library only) and prints one line
per entry, then the counts:

    name   a public function, class, method or property of ``src/wnc`` that
           no code in ``src/wnc``, ``bench/`` or ``tools/`` refers to outside
           its own definition
    param  a parameter with a default (a dataclass field with a default
           counts as one of its class) that no call in those directories
           sets, by position or by keyword

References and calls are matched by name.  A bare ``f`` or ``module.f``
reaches the module-level ``f`` (outside the package, only where ``f`` or
its module is imported from wnc); any other ``x.f`` reaches every method
or property named ``f``, except on a module imported from elsewhere
(``np.convolve``).  Calls through ``*args``/``**kwargs`` set every
parameter they could reach, and a module-level function or class used as
a value (kept in a table, passed on) may be called with any arguments, so
its parameters are not listed.  The lists are therefore a lower bound of
what nothing uses; each entry is a candidate for deletion, to be checked
by hand.  Tests do not count: a name that only tests reach is listed.
"""

import ast
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "wnc")
SCANNED = (PACKAGE, os.path.join(ROOT, "bench"), os.path.join(ROOT, "tools"))


def _python_files(top):
    for dirpath, _, files in sorted(os.walk(top)):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _decorator_names(node):
    out = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        out.add(target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", ""))
    return out


class Definition:
    """A function, class or method: its qualified name, the (module, node)
    that holds its body, and its defaulted parameters with their index
    among the parameters a call passes (None: keyword only)."""

    def __init__(self, qualname, name, path, node, kind="top"):
        self.qualname, self.name, self.path, self.node = qualname, name, path, node
        self.kind = kind            # top: module level; member: a method
        self.defaults = []


def _signature_defaults(fn, bound):
    """(param, positional index or None) for each defaulted parameter; the
    first parameter is dropped when a call binds it (self, cls)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if bound and positional:
        positional = positional[1:]
    out = []
    for arg, _ in zip(reversed(positional), reversed(args.defaults)):
        out.append((arg.arg, positional.index(arg)))
    out.reverse()
    out += [(arg.arg, None) for arg, default
            in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _dataclass_defaults(cls):
    """Fields of a dataclass with a default, with their positional index."""
    out, index = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
            kws = {k.arg: k.value for k in value.keywords}
            init = kws.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in kws or "default_factory" in kws
        else:
            has_default = value is not None
        if has_default:
            out.append((stmt.target.id, index))
        index += 1
    return out


def definitions():
    """Every module-level function and class of the package, and every
    method of its classes."""
    defs = []
    for path in _python_files(PACKAGE):
        module = "wnc." + os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
        module = module.removesuffix(".__init__")
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                d = Definition(f"{module}.{node.name}", node.name, path, node)
                d.defaults = _signature_defaults(node, bound=False)
                defs.append(d)
            elif isinstance(node, ast.ClassDef):
                cls = Definition(f"{module}.{node.name}", node.name, path, node)
                if "dataclass" in _decorator_names(node):
                    cls.defaults = _dataclass_defaults(node)
                defs.append(cls)
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if item.name == "__init__":
                        cls.defaults = _signature_defaults(item, bound=True)
                        continue
                    d = Definition(f"{cls.qualname}.{item.name}", item.name,
                                   path, item, "member")
                    d.defaults = _signature_defaults(
                        item, bound="staticmethod" not in _decorator_names(item))
                    defs.append(d)
    return defs


def _aliases(tree, modules):
    """(names bound to wnc modules, other names imported from wnc, names
    bound by other imports) in a file."""
    ours, imported, foreign = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                (ours if top == "wnc" else foreign).add(a.asname or top)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "wnc":
                foreign.update(a.asname or a.name for a in node.names)
                continue
            for a in node.names:
                (ours if a.name in modules else imported).add(a.asname or a.name)
    return ours, imported, foreign


def _kind(node, ours, imported, foreign, modules, in_package):
    """'top' for f or module.f (a module-level name of wnc), 'member' for
    x.f (a method or property), None for anything else: a bare name that a
    file outside the package has not imported from wnc, an attribute of a
    foreign import."""
    if isinstance(node, ast.Name):
        return "top" if in_package or node.id in imported else None
    base = node.value
    while isinstance(base, ast.Attribute) and base.attr in modules:
        base = base.value
    if isinstance(base, ast.Name) and base.id in ours:
        return "top"
    if isinstance(node.value, ast.Name) and node.value.id in foreign:
        return None
    return "member"


def _escapes(node, parent):
    """Whether a function or class is used here as a value that other code
    may call: an element of a table, an argument, an assigned or returned
    value (not an isinstance check or an annotation)."""
    def is_check(call):
        return (isinstance(call, ast.Call)
                and getattr(call.func, "id", "") in ("isinstance", "issubclass"))

    up = parent.get(node)
    if isinstance(up, (ast.Tuple, ast.List, ast.Set)):
        holder = parent.get(up)
        return not (isinstance(holder, ast.Subscript) or is_check(holder))
    if isinstance(up, ast.Call):
        return node is not up.func and not is_check(up)
    return isinstance(up, (ast.Dict, ast.keyword, ast.Assign, ast.Return,
                           ast.Lambda))


def references():
    """Uses and calls in the scanned directories, keyed by (kind, name).

    uses:    (kind, name) -> [(path, line)] of each Name or Attribute
    calls:   (kind, name) -> [(positional count, keywords, has *args,
             has **kwargs)] of each call
    escaped: module-level names used as values (stored, passed,
             returned), which other code may call with any arguments
    """
    modules = {f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")}
    uses, calls, escaped = defaultdict(list), defaultdict(list), set()
    for top in SCANNED:
        for path in _python_files(top):
            tree = _parse(path)
            ours, imported, foreign = _aliases(tree, modules)
            in_package = path.startswith(PACKAGE + os.sep)
            parent = {child: node for node in ast.walk(tree)
                      for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if not isinstance(fn, (ast.Name, ast.Attribute)):
                    continue
                kind = _kind(fn, ours, imported, foreign, modules, in_package)
                if kind is None:
                    continue
                name = fn.id if isinstance(fn, ast.Name) else fn.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords if k.arg is not None}
                double = any(k.arg is None for k in node.keywords)
                calls[kind, name].append((len(node.args), kws, starred, double))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Name, ast.Attribute)):
                    continue
                kind = _kind(node, ours, imported, foreign, modules, in_package)
                if kind is None:
                    continue
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses[kind, name].append((path, node.lineno))
                if kind == "top" and _escapes(node, parent):
                    escaped.add(name)
    return uses, calls, escaped


def _outside(d, sites):
    """The use sites that lie outside d's own body."""
    lo, hi = d.node.lineno, d.node.end_lineno
    return [s for s in sites if not (s[0] == d.path and lo <= s[1] <= hi)]


def _is_set(param, index, shapes):
    for n_pos, kws, starred, double in shapes:
        if param in kws or double:
            return True
        if index is not None and (n_pos > index or starred):
            return True
    return False


def main() -> int:
    defs = definitions()
    uses, calls, escaped = references()
    public = [d for d in defs
              if not d.name.startswith("_") and not _is_dunder(d.name)]
    unreached = [d for d in public
                 if not _outside(d, uses.get((d.kind, d.name), []))]
    params = [(d, p, i) for d in defs for p, i in d.defaults]
    unset = [(d, p) for d, p, i in params
             if not (d.kind == "top" and d.name in escaped)
             and not _is_set(p, i, calls.get((d.kind, d.name), []))]
    for d in unreached:
        print(f"name   {d.qualname}")
    for d, p in unset:
        print(f"param  {d.qualname}({p})")
    print(f"{len(unreached)} of {len(public)} public names unreached, "
          f"{len(unset)} of {len(params)} defaulted parameters never set",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
