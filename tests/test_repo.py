"""Checks on the repository itself: no dead imports, no definitions that
only tests use, a README whose examples run, whose command lines parse
and whose prose states every maximum of the CLI's limits.

They use the standard library (``ast``, ``re``, ``shlex``) and the CLI's
own argument parser.
"""

import ast
import importlib.util
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest

from chiralis import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chiralis"


def unused_imports(source: str):
    """Imported names that their scope never reads: a module-level import
    must be read somewhere in the module, and an import inside a function
    somewhere in that function."""
    tree = ast.parse(source)
    unused = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            continue
        imported = {}
        todo = list(ast.iter_child_nodes(scope))
        while todo:  # the scope's own statements, not its inner functions
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and (
                    node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            todo.extend(ast.iter_child_nodes(node))
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused.update((line, name) for name, line in imported.items()
                      if name not in read)
    return sorted(unused)


def test_unused_import_finder():
    src = "import os, sys\nfrom . import ring\nfrom .x import a, b as c\n" \
          "print(sys.argv, ring.ZERO, c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "a")]
    # an import inside a function is read in that function or not at all
    src = "import os\n\ndef f():\n    from .x import a, b\n    return b\n" \
          "\ndef g():\n    import sys\n    return a, os\n"
    assert unused_imports(src) == [(4, "a"), (8, "sys")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


# definitions that only tests and the benchmark tracer name, with why
# they stay in the library
TEST_ONLY = {
    "koszul.ChiralKoszul.differential_matrix": "a benchmark tracer span",
    "fock.borcherds_full_check": "a benchmark tracer span",
    "chevalley.chevalley_d": "the Chevalley differential, d^2 = 0",
}


def names(tree):
    """How often a syntax tree reads each name or attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(modules, elsewhere):
    """Top-level definitions and public methods of ``modules`` (name ->
    source) that no module names outside the definition itself, and that
    the text ``elsewhere`` never mentions."""
    trees = {m: ast.parse(src) for m, src in modules.items()}
    read = sum(map(names, trees.values()),
               Counter(re.findall(r"\w+", elsewhere)))
    found = []
    for mod, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs = [(top.name, top)] + [
                    (f"{top.name}.{f.name}", f) for f in top.body
                    if isinstance(f, ast.FunctionDef) and f.name[0] != "_"]
                found += [f"{mod}.{qual}" for qual, node in defs
                          if read[node.name] == names(node)[node.name]]
    return found


def test_unreferenced_finder():
    a = "def f():\n    return g()\n\ndef g():\n    return g()\n\n" \
        "class C:\n    def used(self):\n        pass\n\n" \
        "    def unused(self):\n        return self.unused()\n"
    assert unreferenced({"a": a, "b": "h = f"}, "") == [
        "a.C", "a.C.used", "a.C.unused"]
    assert unreferenced({"a": a}, "C().used(); f") == ["a.C.unused"]


def test_library_code_has_callers():
    """Each definition of the package is named by the package, a demo or
    a code block of the README (not its prose, where a word may match a
    name), or is listed in ``TEST_ONLY``."""
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    elsewhere = "\n".join(readme_blocks("python|sh") + [
        p.read_text() for p in ROOT.glob("demos/*.py")])
    assert sorted(unreferenced(modules, elsewhere)) == sorted(TEST_ONLY)


def test_tracer_targets_resolve(monkeypatch):
    """Every span of the benchmark's tracer names a function the package
    has, so a rename fails here instead of tracing nothing.  The one stale
    span is ``algebroid.twist_chiral``, whose function is gone; when the
    tracer drops it, this set shrinks."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    stale = set()
    for name, modname, attr in tracer.LAYERS:
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            stale.add(name)
    assert stale == {"algebroid.twist_chiral"}


def readme_blocks(langs="python"):
    """The README's fenced code blocks in the languages ``langs``, a
    regex alternation."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"```(?:{langs})\n(.*?)```", text, re.S)


def test_readme_has_python_blocks():
    assert len(readme_blocks()) >= 2


@pytest.mark.parametrize("block", readme_blocks())
def test_readme_block(block):
    """Each python block runs; a trailing ``expr  # value`` line must
    evaluate to the value in its comment."""
    *body, last = block.rstrip().splitlines()
    expr, _, want = last.partition("#")
    ns: dict = {}
    if not expr.strip():
        exec(block, ns)
        return
    exec("\n".join(body), ns)
    assert eval(expr, ns) == eval(want, {})


def readme_commands():
    """The ``chiralis ...`` lines of the README's command block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    return [line for line in block.group(1).splitlines()
            if line.startswith("chiralis ")]


def command_variants(line):
    """The argv lists of a line: each ``[--flag]`` left out, and given."""
    words = shlex.split(line)[1:]
    bare = [w for w in words if not w.startswith("[")]
    full = [w.strip("[]") for w in words]
    return [bare] if bare == full else [bare, full]


def test_command_variants():
    assert command_variants("chiralis x --m 2 [--t]") == [
        ["x", "--m", "2"], ["x", "--m", "2", "--t"]]


def test_readme_names_every_subcommand():
    names = [shlex.split(line)[1] for line in readme_commands()]
    assert sorted(names) == sorted(cli.SCHEMAS)


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line, capsys):
    """A README command that names a removed option fails here."""
    for argv in command_variants(line):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{argv}: {capsys.readouterr().err}")
        assert args.command == argv[0]


def test_readme_states_every_limit():
    """The prose of the README's "Command line" section names each
    maximum of ``cli.LIMITS``, so the limits it states cannot drift from
    the table (their lower ends are 0 or 1, which would prove nothing)."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"## Command line\n.*?```\n(.*?)\n## ", text,
                        re.S).group(1)
    maxima = {lim.hi for lims in cli.LIMITS.values() for lim in lims}
    assert {m for m in maxima if not re.search(rf"\b{m}\b", section)} == set()
