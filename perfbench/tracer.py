"""Per-layer spans for one ``chiralis`` command, recorded from outside.

Child side: ``python3 perfbench/tracer.py PREFIX COMMAND_ID -- CLI_ARGS...``
runs ``chiralis.cli.run(CLI_ARGS)`` with every function in ``LAYERS``
wrapped.
The program's files are not edited.  A module function is rebound in its
defining module and under every name another ``chiralis`` module imported
it as; a method is patched on its class.  Each call records a span (name id,
parent span, start, end, all in memory) and writes nothing until the
command ends.  Then ``PREFIX.bin`` gets the four span arrays and
``PREFIX.json`` the names, the counts taken from arguments and return
values, and any target the program no longer has.

Parent side: ``summarize(PREFIX)`` turns those files into per-name
``calls``, ``total_s`` and ``self_s`` (a span's duration minus the time its
child spans cover), plus the counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute or Class.method).  Names follow the layer
# table of the benchmark; ``chevalley.bracket`` spans each evaluation of
# the Lie* bracket that ``JetWorld.bracket`` returns.
LAYERS = [
    ("koszul.cell_basis", "chiralis.koszul", "ChiralKoszul.cell_basis"),
    ("koszul.cell_cohomology", "chiralis.koszul",
     "ChiralKoszul.cell_cohomology"),
    ("koszul.differential_matrix", "chiralis.koszul",
     "ChiralKoszul.differential_matrix"),
    ("koszul.character_table", "chiralis.koszul",
     "ChiralKoszul.character_table"),
    ("fock.nth", "chiralis.fock", "BGSystem.nth"),
    ("fock.borcherds_full_check", "chiralis.fock", "borcherds_full_check"),
    ("exact.echelon", "chiralis.exact", "echelon"),
    ("exact.rank_kernel", "chiralis.exact", "rank_kernel"),
    ("exact.reduce_against", "chiralis.exact", "reduce_against"),
    ("ring.pmul", "chiralis.ring", "pmul"),
    ("ring.derive", "chiralis.ring", "derive"),
    ("algebra.translate", "chiralis.algebra", "JetAlgebra.translate"),
    ("algebra.derham_d", "chiralis.algebra", "FormAlgebra.derham_d"),
    ("starops.jacobi_defect", "chiralis.starops", "jacobi_defect"),
    ("starops.lie_star_check", "chiralis.starops", "lie_star_check"),
    ("chevalley.to_fock", "chiralis.chevalley", "JetWorld.to_fock"),
    ("chevalley.from_fock", "chiralis.chevalley", "JetWorld.from_fock"),
    ("chevalley.bracket", "chiralis.chevalley", "JetWorld.bracket"),
    ("algebroid.chiral_infty_twist", "chiralis.algebroid",
     "chiral_infty_twist"),
    ("algebroid.twist_chiral", "chiralis.algebroid", "twist_chiral"),
    ("algebroid.lc_d", "chiralis.algebroid", "lc_d"),
    ("linfty.direct_jacobi_report", "chiralis.linfty",
     "direct_jacobi_report"),
    ("linfty.coderivation_square_report", "chiralis.linfty",
     "coderivation_square_report"),
    ("cli.emit", "chiralis.cli", "emit"),
    ("cli.run", "chiralis.cli", "run"),
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: dict = {}
        self.missing: list = []
        self.cells: dict = {"koszul.cell_basis": set(),
                        "koszul.cell_cohomology": set()}
        self.fock_systems: list = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before`` may replace the
        positional arguments, ``after(args, kwargs, result)`` counts."""
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__perfbench_span__ = name
        return traced

    # -- counts derived from arguments and return values --------------------

    def _cell(self, name):
        """Records the distinct (m, weight, charge) cells a method saw."""
        def after(args, kwargs, result):
            weight = args[1] if len(args) > 1 else kwargs["weight"]
            charge = args[2] if len(args) > 2 else kwargs["charge"]
            self.cells[name].add((args[0].m, weight, charge))
            if name == "koszul.cell_basis":
                self.count("koszul.cell_basis.monomials", len(result))
        return after

    @staticmethod
    def _rows_as_list(args):
        return (list(args[0]),) + tuple(args[1:]) if args else args

    def _echelon_after(self, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        self.count("exact.echelon.rows", len(rows))
        self.count("exact.echelon.nnz_in", sum(len(r) for r in rows))
        self.count("exact.echelon.nnz_out", sum(len(r) for r in result[0]))

    def _span_evaluator(self, build):
        """``build`` returns a StarOp; span the op's evaluator instead."""
        @functools.wraps(build)
        def method(*args, **kwargs):
            op = build(*args, **kwargs)
            if not hasattr(op.fn, "__perfbench_span__"):
                op.fn = self.wrap("chevalley.bracket", op.fn)
            return op
        return method

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in ``LAYERS``; import the modules first."""
        specials = {
            "koszul.cell_basis": (None, self._cell("koszul.cell_basis")),
            "koszul.cell_cohomology": (
                None, self._cell("koszul.cell_cohomology")),
            "exact.echelon": (self._rows_as_list, self._echelon_after),
        }
        for name, modname, attr in LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, meth, None)
            if orig is None:
                self.missing.append(name)
                continue
            if name == "chevalley.bracket":
                # the method only builds (and caches) the operation
                setattr(owner, meth, self._span_evaluator(orig))
                continue
            before, after = specials.get(name, (None, None))
            wrapped = self.wrap(name, orig, before, after)
            setattr(owner, meth, wrapped)
            if not owner_name:
                self._rebind(orig, wrapped)
        fock = sys.modules.get("chiralis.fock")
        if fock is not None and hasattr(fock, "BGSystem"):
            cls = fock.BGSystem
            init = cls.__init__
            systems = self.fock_systems

            @functools.wraps(init)
            def registered(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                systems.append(obj)

            cls.__init__ = registered

    @staticmethod
    def _rebind(orig, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "chiralis" and not modname.startswith("chiralis."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)

    # -- output ---------------------------------------------------------------

    def write(self, prefix: str, command_id: str) -> None:
        counts = dict(self.counts)
        for name, cells in self.cells.items():
            counts[name + ".cells"] = len(cells)
        counts["fock.memo_entries"] = sum(
            len(getattr(s, "_memo", ())) for s in self.fock_systems
        )
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"command": command_id, "names": self.names,
                "spans": len(self.span_name), "counts": counts,
                "missing": self.missing}
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)


def summarize(prefix: str) -> dict:
    """Per-name calls, total and self seconds, and counts of one command."""
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("q"), array("q")]
    with open(prefix + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    span_name, span_parent, span_start, span_end = arrays
    dur = [e - s for s, e in zip(span_start, span_end)]
    covered = [0] * n
    for i, p in enumerate(span_parent):
        if p >= 0:
            covered[p] += dur[i]
    k = len(meta["names"])
    calls, total, own = [0] * k, [0] * k, [0] * k
    for i, nid in enumerate(span_name):
        calls[nid] += 1
        total[nid] += dur[i]
        own[nid] += dur[i] - covered[i]
    names = meta["names"]
    layers = {
        names[j]: {"calls": calls[j], "total_s": total[j] / 1e9,
                   "self_s": own[j] / 1e9}
        for j in range(k)
    }
    return {"layers": layers, "counts": meta["counts"],
            "missing": meta["missing"]}


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py PREFIX COMMAND_ID -- CLI_ARGS...",
              file=sys.stderr)
        return 2
    prefix, command_id, cli_args = argv[0], argv[1], argv[3:]
    from chiralis import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.run(cli_args)
    finally:
        tracer.write(prefix, command_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
