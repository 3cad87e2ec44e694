"""The package exports what its commands, scripts and benchmark call, and nothing else."""

import argparse
import ast
import dataclasses
import re
import types
from collections import Counter
from pathlib import Path

import prpd
from prpd.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prpd"

def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def names_in(tree):
    """Every name, attribute and dotted string ('pdist.matrix_form') in an AST, with counts.

    A def or class statement does not reference its own name.
    """
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)+", node.value)):
            names.update(node.value.split("."))            # a traced "module.function"
    return names


def referenced_names():
    """names_in the package's modules other than __init__.py, scripts/ and bench/, summed."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return sum((names_in(ast.parse(path.read_text())) for path in files), Counter())


def test_exports_have_non_test_callers():
    exported, referenced = exported_names(), referenced_names()
    unused = [name for name in exported if name not in referenced]
    assert unused == [], "exported, but called only by tests: move them to tests/lemmas.py"
    assert len(exported) == len(set(exported))


def package_definitions():
    """Every module-level function and class in src/prpd, and every method of such a class."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def test_definitions_have_non_test_callers():
    # a reference inside a function's own body (a recursive call) does not count
    referenced = referenced_names()
    unused = sorted(node.name for node in package_definitions()
                    if not node.name.startswith("__")
                    and referenced[node.name] == names_in(node)[node.name])
    assert unused == [], "defined, but called only by tests: move them to tests/lemmas.py"


def test_only_pdist_and_recursion_call_bundles():
    # a generator's bundles are enumerated by pdist and composed by recursion; a module
    # looping over them itself would be a second way to evaluate a generator
    callers = sorted(path.name for path in PACKAGE.glob("*.py")
                     if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "bundle"
                            for node in ast.walk(ast.parse(path.read_text()))))
    assert callers == ["pdist.py", "recursion.py"]


def cert_comparisons(tree):
    """The comparisons in an AST with an operand that reads some .cert.eps or .cert.delta."""
    def reads_cert(node):
        return any(isinstance(n, ast.Attribute) and n.attr in ("eps", "delta")
                   and isinstance(n.value, ast.Attribute) and n.value.attr == "cert"
                   for n in ast.walk(node))

    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(reads_cert(side) for side in [node.left, *node.comparators])]


def test_only_sampler_judges_certificates():
    # Certificate.covers, through require_certified, is the one judge of a sampler's
    # certificate; a module comparing cert fields itself would be a second one. Copying
    # them (into a ledger slot) is no comparison
    source = ("if g.cert.eps > e: pass\nok = Fraction(s.cert.delta) <= d\n"
              "slot = Slot(cert_eps=g.cert.eps)\nok = slot.cert_eps <= e\n")
    assert cert_comparisons(ast.parse(source)) == ["g.cert.eps > e",
                                                   "Fraction(s.cert.delta) <= d"]
    judged = {path.name: cert_comparisons(ast.parse(path.read_text()))
              for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
              if path.name != "sampler.py"}
    assert {name: found for name, found in judged.items() if found} == {}


def bit_text_uses(tree):
    """Where an AST turns ints into bit strings or back: an import of prpd.bits, int() with
    a base, format(), bin(), str.format() and an f-string format spec."""
    def found(node):
        if isinstance(node, ast.ImportFrom):
            return node.module in ("bits", "prpd.bits") or any(a.name == "bits" for a in node.names)
        if isinstance(node, ast.Import):
            return any(a.name == "prpd.bits" for a in node.names)
        if isinstance(node, ast.Call):
            func = node.func
            return ((isinstance(func, ast.Name) and (func.id in ("format", "bin") or func.id == "int"
                     and (len(node.args) > 1 or any(kw.arg == "base" for kw in node.keywords))))
                    or (isinstance(func, ast.Attribute) and func.attr == "format"))
        return isinstance(node, ast.FormattedValue) and node.format_spec is not None

    return [ast.unparse(node) for node in ast.walk(tree) if found(node)]


def test_sampler_layer_handles_no_bit_strings():
    # a sampler maps (int, int) to int; strings are converted where a generator reads one
    # (recursion.behind), so prpd.sampler neither parses nor formats bit text
    source = ("from .bits import all_bits\nfrom prpd import bits\nv = int(x, 2)\n"
              "v = int(x, base=2)\nz = format(v, w)\nz = bin(v)\nz = '{:b}'.format(v)\n"
              "z = f'{v:0{m}b}'\nok = int(v) + len(f'{v!r}')\n")
    assert bit_text_uses(ast.parse(source)) == [
        "from .bits import all_bits", "from prpd import bits", "int(x, 2)", "int(x, base=2)",
        "format(v, w)", "bin(v)", "'{:b}'.format(v)", "{v:0{m}b}"]
    assert bit_text_uses(ast.parse((PACKAGE / "sampler.py").read_text())) == []


def test_pdist_is_the_module():
    # the package re-exports no function called pdist, so its attribute is the module
    assert isinstance(prpd.pdist, types.ModuleType)


# every knob a user can set: a flag or field added or removed must be edited here too
FLAGS = {
    "build-prpd": ["--n", "--w", "--eps", "--k", "--gamma", "--c", "--out"],
    "verify-error": ["--n", "--w", "--eps", "--k", "--gamma", "--robps", "--seed", "--out"],
    "certify-sampler": ["--kind", "--n", "--d", "--m", "--eps", "--delta", "--seed", "--out"],
    "sz-demo": ["--w", "--n1", "--n2", "--d", "--eps", "--approximator", "--matrices", "--seed",
                "--out"],
    "ledger-check": ["--ledger", "--out"],
}


def test_knobs_pinned():
    [commands] = [a.choices for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [opt for action in sub._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")] for name, sub in commands.items()}
    assert flags == FLAGS
    assert [f.name for f in dataclasses.fields(prpd.RecursionParams)] == ["gamma", "k", "c"]
    assert ([f.name for f in dataclasses.fields(prpd.Sampler)]
            == ["n", "d", "m", "sample", "cert", "row"])


ENV_READERS = {"environ", "getenv"}


def _os_attr(node, *attrs):
    return (isinstance(node, ast.Attribute) and node.attr in attrs
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def env_reads(tree):
    """(uses of os.environ or os.getenv, the keys read by those that are key reads).

    A key given by a module-level constant resolves to the constant's value.
    """
    constants = {target.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}

    def key(node):
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return node.value if isinstance(node, ast.Constant) else None

    uses, keys = 0, []
    for node in ast.walk(tree):
        if _os_attr(node, *ENV_READERS):
            uses += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += sum(alias.name in ENV_READERS for alias in node.names)
        if isinstance(node, ast.Call) and node.args and (
                _os_attr(node.func, "getenv")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                    and _os_attr(node.func.value, "environ"))):
            keys.append(key(node.args[0]))
        elif isinstance(node, ast.Subscript) and _os_attr(node.value, "environ"):
            keys.append(key(node.slice))
    return uses, keys


def test_only_environment_read_is_the_enum_limit():
    # a tuning value read from the environment would be a knob test_knobs_pinned cannot see
    uses, keys = 0, []
    for path in PACKAGE.glob("*.py"):
        u, k = env_reads(ast.parse(path.read_text()))
        uses, keys = uses + u, keys + k
    assert keys == ["PRPD_ENUM_LIMIT"] and uses == len(keys)


MEMOS = {"cache", "lru_cache"}


def process_wide_memos(tree):
    """Module-level functions and methods a functools memo decorates, and memos made outside
    any function body. A memo made inside a function lives for one call and is not listed."""
    names = MEMOS | {alias.asname for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "functools"
                     for alias in node.names if alias.name in MEMOS and alias.asname}

    def is_memo(node):
        node = node.func if isinstance(node, ast.Call) else node
        return ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in names))

    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if not in_function and not isinstance(child, ast.Lambda):
                    found.extend(child.name for d in child.decorator_list if is_memo(d))
                visit(child, True)
            else:
                if not in_function and isinstance(child, ast.Call) and is_memo(child):
                    found.append(ast.unparse(child.func))
                visit(child, in_function)

    visit(tree, False)
    return found


def test_no_process_wide_memo():
    # a memo that outlives a call would keep state between calls and let a bench unit that
    # repeats an input time cache hits; _ten_to is keyed on the interpreter's digit limit
    source = ("import functools\nfrom functools import cache as memo\n"
              "@functools.lru_cache(maxsize=None)\ndef f(): pass\ng = memo(f)\n"
              "class C:\n    @cache\n    def m(self): pass\n"
              "def h():\n    return functools.cache(lambda: 1)\n")
    assert process_wide_memos(ast.parse(source)) == ["f", "memo", "m"]
    found = {(path.name, name) for path in PACKAGE.glob("*.py")
             for name in process_wide_memos(ast.parse(path.read_text()))}
    assert found == {("errors.py", "_ten_to")}
