"""The chiralized Koszul complex of a monomial and its exact cohomology.

The carrier is the free-field vertex algebra of one even coordinate x and
one odd coordinate xi (with their conjugate momenta); the differential is
the zero mode of the odd state x_0^m * momentum(xi), which squares to zero
and fixes the weight and charge gradings while raising the cohomological
degree by one.

The extra charge grading (x carries charge 1, xi charge m, momenta the
negatives) cuts every (weight, charge) cell down to a finite-dimensional
complex, so dimensions, representatives, and Euler characteristics are
computed by exact rational elimination.  At weight zero the complex is the
classical Koszul complex of x^m and the cohomology is spanned by the
classes of 1, x, ..., x^{m-1}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
        self.fock = BGSystem(base, odd_charge=m)
        fk = self.fock
        current = fk.mom("xi", -1)
        for _ in range(m):
            current = fk.mul(fk.coord("x", 0), current)
        self.current = current

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
            (i, -lt[2], fk.parity(lt), fk.charge(lt))
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

    def differential_matrix(
        self, weight: int, charge: int, degree: int
    ) -> Tuple[List[dict], List[tuple], List[tuple]]:
        """Matrix of the differential from degree d to d+1 in one cell.

        Returns (columns as sparse dicts over the target index, the
        domain basis, the target basis); each column is the image of one
        domain monomial.
        """
        return self._matrix(self.cell_by_degree(weight, charge), degree)

    def _matrix(
        self, cells: Dict[int, List[tuple]], degree: int
    ) -> Tuple[List[dict], List[tuple], List[tuple]]:
        dom = cells.get(degree, [])
        tgt = cells.get(degree + 1, [])
        index = {mono: i for i, mono in enumerate(tgt)}
        cols: List[dict] = []
        for mono in dom:
            img = self.d({mono: Fraction(1)})
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
        "representatives"}; representatives are kernel vectors reduced
        against the image in the deterministic pivot order.
        """
        cells = self.cell_by_degree(weight, charge)
        if not cells:
            return []
        degrees = sorted(cells)
        entries = []
        info: Dict[int, tuple] = {}
        for d in range(degrees[0] - 1, degrees[-1] + 1):
            cols, dom, tgt = self._matrix(cells, d)
            n = len(dom)
            rows: List[dict] = [dict() for _ in tgt]
            for j, col in enumerate(cols):
                for i, c in col.items():
                    rows[i][j] = c
            rank, kernel = rank_kernel(rows, n) if n else (0, [])
            # image rows live in the target space
            image_rows = [c for c in cols if c]
            red, pivots = echelon(image_rows, len(tgt))
            info[d] = (rank, kernel, dom, red, pivots)
        for d in degrees:
            rank, kernel, dom, _red, _piv = info[d]
            prev = info.get(d - 1)
            prev_rank = prev[0] if prev else 0
            dim = len(kernel) - prev_rank
            reps = []
            if prev:
                red_prev, piv_prev = prev[3], prev[4]
            else:
                red_prev, piv_prev = [], []
            count = 0
            for vec in kernel:
                if count >= dim:
                    break
                rem = reduce_against(vec, red_prev, piv_prev)
                if rem:
                    reps.append(
                        {dom[i]: c for i, c in sorted(rem.items())}
                    )
                    count += 1
            entries.append(
                {
                    "degree": d,
                    "dim": dim,
                    "cochain_dim": len(dom),
                    "representatives": reps,
                }
            )
        return entries

    def cohomology(
        self, max_weight: int, max_charge: int, min_charge: int = 0
    ) -> dict:
        """Full report over the (weight, charge) window."""
        cells = []
        for w in range(0, max_weight + 1):
            for q in range(min_charge, max_charge + 1):
                for entry in self.cell_cohomology(w, q):
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
        }

    def character_table(
        self, max_weight: int, max_charge: int, min_charge: int = 0
    ) -> dict:
        """Graded cohomology dimensions with Euler-characteristic checks."""
        report = self.cohomology(max_weight, max_charge, min_charge)
        table, ok = euler_lines(report["cells"])
        return {
            "m": self.m,
            "lines": table,
            "euler_ok": ok,
            "window": report["window"],
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


def build(m: int) -> ChiralKoszul:
    return ChiralKoszul(m)


def weight_zero_dimension(m: int, max_charge: Optional[int] = None) -> int:
    """Total weight-0 cohomology dimension across the charge window."""
    K = ChiralKoszul(m)
    if max_charge is None:
        max_charge = max(2 * m, m + 1)
    total = 0
    for entry in K.cohomology(0, max_charge)["cells"]:
        total += entry["dim"]
    return total
