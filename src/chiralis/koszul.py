"""The chiralized Koszul complex of a monomial and its exact cohomology.

The carrier is the free-field vertex algebra of one even coordinate x and
one odd coordinate xi (with their conjugate momenta); the differential is
the zero mode of the odd state x_0^m * momentum(xi), which squares to zero
and fixes the weight and charge gradings while raising the cohomological
degree by one.

The extra charge grading (x carries charge 1, xi charge m, momenta the
negatives) cuts every (weight, charge) cell down to a finite-dimensional
complex, so dimensions and representatives are computed by exact
rational elimination: one of each differential, and one of its image only
where the next degree has classes to represent.  ``euler_lines`` checks
the Euler characteristics of a report.  At weight zero the complex is the
classical Koszul complex of x^m and the cohomology is spanned by the
classes of 1, x, ..., x^{m-1}.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import ring
from .algebra import SuperPolyAlgebra
from .exact import echelon, rank_kernel, reduce_against
from .fock import BGSystem, State


class ChiralKoszul:
    """The chiralized Koszul complex of x^m on the beta-gamma/bc carrier."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("the exponent must be a positive integer")
        self.m = m
        base = SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)])
        self.fock = BGSystem(base)
        # x_0^m is one monomial
        self.current = self.fock.mul({((("c", "x", 0), m),): 1},
                                     self.fock.mom("xi", -1))

    def charge(self, key) -> int:
        """A letter's charge: 1 for x, m for xi, negated for momenta."""
        mag = self.m if self.fock.parity(key) else 1
        return mag if key[0] == "c" else -mag

    def d(self, v: State) -> State:
        """The differential: zero mode of the defining odd current."""
        return self.fock.nth(self.current, 0, v)

    # -- basis enumeration -------------------------------------------------

    def cell_basis(self, weight: int, charge: int) -> List[tuple]:
        """All basis monomials of the given weight and charge.

        A monomial is a sorted tuple of (letter, exponent) pairs in the
        canonical letter order of the carrier; the count of the weight-0
        coordinate x_0 is forced by the charge, which makes the cell
        finite.

        Enumerated by a pruned recursion over the letters of nonzero
        weight that carries the remaining weight budget and the running
        charge and stops a branch once the budget is spent; each leaf adds
        xi_0 (0 or 1 of it) and the forced count of x_0.  The brute-force
        oracle is ``tests/test_koszul.py::brute_force_cell_basis``, checked
        by ``test_cell_basis_matches_brute_force``.
        """
        fk = self.fock
        m = self.m
        # key order: coordinates before momenta, x before xi, k ascending
        letters = sorted(
            [("c", "x", 0), ("c", "xi", 0)]
            + [(kind, name, k) for kind in ("c", "m")
               for name in ("x", "xi") for k in range(-weight, 0)]
        )
        ix0 = letters.index(("c", "x", 0))
        ixi0 = letters.index(("c", "xi", 0))
        steps = [
            (i, -lt[2], fk.parity(lt), self.charge(lt))
            for i, lt in enumerate(letters) if lt[2]
        ]
        exps = [0] * len(letters)
        out: List[tuple] = []

        def walk(s: int, budget: int, q: int) -> None:
            if budget == 0:
                for xi0 in (0, 1):
                    nx0 = charge - q - xi0 * m
                    if nx0 < 0:
                        continue
                    exps[ix0], exps[ixi0] = nx0, xi0
                    out.append(tuple(
                        (lt, e) for lt, e in zip(letters, exps) if e
                    ))
                return
            if s == len(steps):
                return
            i, size, odd, dq = steps[s]
            top = min(budget // size, 1) if odd else budget // size
            for e in range(top + 1):
                exps[i] = e
                walk(s + 1, budget - e * size, q + e * dq)
            exps[i] = 0

        walk(0, weight, 0)
        out.sort()
        return out

    def cell_by_degree(
        self, weight: int, charge: int
    ) -> Dict[int, List[tuple]]:
        cells: Dict[int, List[tuple]] = {}
        for mono in self.cell_basis(weight, charge):
            cells.setdefault(self.fock.mono_degree(mono), []).append(mono)
        return cells

    def _matrix(
        self, cells: Dict[int, List[tuple]], degree: int
    ) -> Tuple[List[dict], List[tuple], List[tuple]]:
        dom = cells.get(degree, [])
        tgt = cells.get(degree + 1, [])
        index = {mono: i for i, mono in enumerate(tgt)}
        cols: List[dict] = []
        for mono in dom:
            img = self.d({mono: 1})
            col: dict = {}
            for mo, c in img.items():
                if mo not in index:
                    raise AssertionError(
                        "the differential left the graded cell"
                    )
                col[index[mo]] = c
            cols.append(col)
        return cols, dom, tgt

    # -- cohomology ----------------------------------------------------------

    def cell_cohomology(self, weight: int, charge: int) -> List[dict]:
        """Cohomology of one (weight, charge) cell, per degree.

        Returns a list of entries {"degree", "dim", "cochain_dim",
        "representatives", "d_squared"}.  Each differential is eliminated
        once, for its rank and kernel.  The representatives are the first
        ``dim`` kernel vectors that stay nonzero modulo the image of the
        previous differential, each reduced against it; that image is
        eliminated only for a degree with ``dim > 0``.  ``d_squared`` is
        None when d_(d+1) maps every column of d_d to zero, and otherwise
        {"monomial", "image"}: the first basis monomial of the degree
        whose image under d^2 is nonzero, with that image.
        """
        cells = self.cell_by_degree(weight, charge)
        info: Dict[int, tuple] = {}
        for d in sorted(cells):
            cols, dom, tgt = self._matrix(cells, d)
            rows: List[dict] = [dict() for _ in tgt]
            for j, col in enumerate(cols):
                for i, c in col.items():
                    rows[i][j] = c
            info[d] = (*rank_kernel(rows, len(dom)), dom, cols, tgt)
        entries = []
        for d, (_rank, kernel, dom, cols, _tgt) in info.items():
            square = None
            if d + 1 in info:
                cols_next, tgt_next = info[d + 1][3:]
                for mono, col in zip(dom, cols):
                    img: dict = {}
                    for i, c in col.items():
                        ring.acc_poly(img, cols_next[i], c)
                    if img:
                        square = {"monomial": {mono: 1}, "image": {
                            tgt_next[k]: v for k, v in sorted(img.items())}}
                        break
            prev = info.get(d - 1)
            dim = len(kernel) - (prev[0] if prev else 0)
            reps: List[dict] = []
            if dim > 0:
                red, pivots = echelon(prev[3], len(dom)) if prev else ([], [])
                for vec in kernel:
                    rem = reduce_against(vec, red, pivots)
                    if rem:
                        reps.append(
                            {dom[i]: c for i, c in sorted(rem.items())})
                        if len(reps) == dim:
                            break
            entries.append(
                {
                    "degree": d,
                    "dim": dim,
                    "cochain_dim": len(dom),
                    "representatives": reps,
                    "d_squared": square,
                }
            )
        return entries

    def cohomology(
        self, max_weight: int, max_charge: int, min_charge: int = 0
    ) -> dict:
        """Full report over the (weight, charge) window.

        ``witness`` is None when every cell has d^2 = 0 and no negative
        dimension; otherwise it names the first cell that fails, with its
        dimension and, when d^2 is not zero there, its ``d_squared``.
        """
        cells = []
        witness = None
        for w in range(0, max_weight + 1):
            for q in range(min_charge, max_charge + 1):
                for entry in self.cell_cohomology(w, q):
                    if witness is None and (entry["d_squared"]
                                            or entry["dim"] < 0):
                        witness = {"weight": w, "charge": q,
                                   "degree": entry["degree"],
                                   "dim": entry["dim"],
                                   "d_squared": entry["d_squared"]}
                    cells.append(
                        {
                            "weight": w,
                            "charge": q,
                            "degree": entry["degree"],
                            "dim": entry["dim"],
                            "cochain_dim": entry["cochain_dim"],
                            "representatives": entry["representatives"],
                        }
                    )
        return {
            "m": self.m,
            "cells": cells,
            "window": {
                "max_weight": max_weight,
                "max_charge": max_charge,
                "min_charge": min_charge,
            },
            "witness": witness,
        }


def euler_lines(cells: List[dict]) -> Tuple[List[dict], bool]:
    """Per (weight, charge) Euler lines of the cells of a cohomology report.

    Returns the lines sorted by (weight, charge) and whether every line's
    cohomology Euler characteristic equals its cochain alternating sum.
    """
    lines: Dict[tuple, dict] = {}
    for cell in cells:
        key = (cell["weight"], cell["charge"])
        line = lines.setdefault(
            key,
            {"weight": key[0], "charge": key[1], "dims": {},
             "euler": 0, "cochain_euler": 0},
        )
        d = cell["degree"]
        if cell["dim"]:
            line["dims"][d] = cell["dim"]
        sign = -1 if d & 1 else 1
        line["euler"] += sign * cell["dim"]
        line["cochain_euler"] += sign * cell["cochain_dim"]
    table = [lines[k] for k in sorted(lines)]
    ok = all(line["euler"] == line["cochain_euler"] for line in table)
    return table, ok
