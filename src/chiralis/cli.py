"""Command-line entry point.

Subcommands
-----------
fs-cohomology      exact bigraded cohomology of the chiralized Koszul
                   complex of x^m
borcherds-check    Borcherds identity suite on the one-variable
                   beta-gamma/bc system (exhaustive and seeded random)
liestar-check      Lie* antisymmetry and Jacobi for the standard jet
                   tangent bracket over Q[x1..xn]
linfty-check       agreement of the direct generalized-Jacobi check with
                   the coderivation square on random finite structures
algebroid-twist    twist the standard chiral algebroid by differential
                   forms and verify Jacobi
chiral-infty-check the homotopy (LC-closed family) twist over the
                   supersymmetric base, with truncation and additivity
derham-closed      closedness of a differential form, with witness

Exit codes: 0 = computation succeeded / all checks pass; 1 = a verified
false identity (the report carries a witness); 2 = usage or input error.
Reports are JSON on stdout (or --out); a fixed seed makes a run byte
identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from . import __version__, ring
from .algebra import FormAlgebra, SuperPolyAlgebra
from .algebroid import (
    chiral_infty_twist,
    cochain_add,
    cochain_seeds,
    default_field_samples,
    graded_form_functor,
    standard_chiral_algebroid,
    standard_chiral_infty_algebroid,
    twist_chiral,
    two_form_cochain,
)
from .chevalley import ChevalleyCochain, JetWorld
from .fock import BGSystem, borcherds_full_check
from .koszul import ChiralKoszul, euler_lines
from .linfty import (
    BasisMultiMap,
    GradedSpace,
    basis_words,
    coderivation_square_report,
    direct_jacobi_report,
)
from .starops import jacobi_defect, lie_star_check

# -- JSON encoding -------------------------------------------------------------------


def enc_scalar(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(
        c.numerator
    )


def enc_gen(key) -> list:
    if isinstance(key, tuple):
        return list(key)
    return [key]


def enc_poly(p: ring.Poly) -> list:
    out = []
    for mono in sorted(p, key=repr):
        out.append(
            [enc_scalar(p[mono]), [enc_gen(k) + [e] for k, e in mono]]
        )
    return out


def enc_lambda(v) -> list:
    out = []
    for zmono in sorted(v, key=repr):
        out.append(
            {
                "z": [[var, e] for var, e in zmono],
                "value": enc_poly(v[zmono]),
            }
        )
    return out


def enc_any(obj):
    if isinstance(obj, Fraction):
        return enc_scalar(obj)
    if isinstance(obj, dict):
        keys = list(obj.keys())
        if keys and all(isinstance(k, tuple) for k in keys):
            if all(isinstance(c, Fraction) for c in obj.values()):
                return enc_poly(obj)
            return enc_lambda(obj)
        return {str(k): enc_any(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [enc_any(x) for x in obj]
    return obj


def emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(enc_any(report), sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- input forms ---------------------------------------------------------------------

FORM_SCHEMA = {
    "description": "a differential form over Q[x1..x{vars}]",
    "format": {
        "vars": "int, number of even coordinates x1..xn",
        "terms": [
            {
                "coeff": "rational as 'p/q' or 'p'",
                "f": [["variable name", "exponent (int >= 1)"]],
                "d": ["ordered list of variable names under d(.)"],
            }
        ],
    },
}

TWIST_SCHEMA = {
    "description": "twisting data for the standard chiral algebroid",
    "format": {
        "vars": "int, number of even coordinates",
        "three_form": "a form object (terms as in the form schema)",
        "two_form": "optional, same shape",
    },
}


def parse_scalar(raw, field: str) -> Fraction:
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational in field {field!r}: {raw!r}") from exc


class UsageError(Exception):
    pass


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def parse_vars(data) -> int:
    if not isinstance(data, dict):
        raise UsageError("the input file must hold a JSON object")
    nvars = data.get("vars", 3)
    if not _is_count(nvars) or nvars < 1:
        raise UsageError(f"field 'vars' must be an integer >= 1: {nvars!r}")
    return nvars


def parse_form(data: dict, forms: FormAlgebra, field: str) -> ring.Poly:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise UsageError(f"field {field!r} must be an object with a"
                         " 'terms' list")
    total: ring.Poly = {}
    for i, term in enumerate(data["terms"]):
        where = f"{field}.terms[{i}]"
        if not isinstance(term, dict):
            raise UsageError(f"{where} must be an object")
        coeff = parse_scalar(term.get("coeff", "1"), where + ".coeff")
        fpart, dpart = term.get("f", []), term.get("d", [])
        if not isinstance(fpart, list) or not all(
            isinstance(x, list) and len(x) == 2 and _is_count(x[1])
            for x in fpart
        ):
            raise UsageError(f"{where}.f must be a list of"
                             " [name, exponent >= 0] pairs")
        if not isinstance(dpart, list):
            raise UsageError(f"{where}.d must be a list of variable names")
        part = forms.inject(ring.poly_one())
        for name, e in fpart:
            try:
                g = forms.gen(name)
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"unknown variable {name!r} in {where}.f"
                ) from exc
            for _ in range(e):
                part = forms.mul(part, g)
        for name in dpart:
            try:
                part = forms.mul(part, forms.d_gen(name))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"unknown variable {name!r} in {where}.d"
                ) from exc
        for mono, c in part.items():
            ring.acc(total, mono, coeff * c)
    return total


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from exc


def even_base(nvars: int) -> SuperPolyAlgebra:
    return SuperPolyAlgebra(
        [(f"x{i}", 0, 0) for i in range(1, nvars + 1)]
    )


# -- subcommands ---------------------------------------------------------------------


def cmd_fs_cohomology(args) -> int:
    if args.m is None or args.m < 1:
        raise UsageError("--m must be a positive integer")
    if args.max_weight < 0:
        raise UsageError("--max-weight must be non-negative")
    if args.min_charge > args.max_charge:
        raise UsageError("--min-charge must not exceed --max-charge")
    K = ChiralKoszul(args.m)
    cells = K.cohomology(
        args.max_weight, args.max_charge, args.min_charge
    )["cells"]
    if not cells:
        raise UsageError("the (weight, charge) window contains no cells")
    _lines, euler_ok = euler_lines(cells)
    weight0 = sum(c["dim"] for c in cells if c["weight"] == 0)
    report = {
        "command": "fs-cohomology",
        "version": __version__,
        "m": args.m,
        "cells": cells,
        "weight0_dimension": weight0,
        "euler_ok": euler_ok,
        "window": {
            "max_weight": args.max_weight,
            "max_charge": args.max_charge,
            "min_charge": args.min_charge,
        },
        "ok": euler_ok,
    }
    emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_borcherds_check(args) -> int:
    if args.vars < 1:
        raise UsageError("--vars must be a positive integer")
    gens = []
    for i in range(1, args.vars + 1):
        gens.append((f"x{i}", 0, 0))
        gens.append((f"xi{i}", 1, -1))
    fk = BGSystem(SuperPolyAlgebra(gens))
    letters = []
    for name, par, _d in gens:
        for w in range(0, args.max_weight + 1):
            letters.append(fk.coord(name, -w))
            if w >= 1:
                letters.append(fk.mom(name, -w))
    failures = []
    checked = 0
    rst = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (-1, 0, 0), (-1, 1, -1)]
    if args.samples == 0:
        triples = itertools.product(letters, repeat=3)
        for a, b, c in triples:
            for r, s, t in rst:
                rep = borcherds_full_check(fk, a, b, c, r, s, t)
                checked += 1
                if not rep["ok"]:
                    failures.append(
                        {"a": a, "b": b, "c": c, "rst": [r, s, t],
                         "difference": rep["difference"]}
                    )
    else:
        rng = random.Random(args.seed)

        def rand_state():
            p = fk.vac()
            for _ in range(rng.randint(1, 2)):
                p = fk.mul(p, rng.choice(letters))
            return p

        for _ in range(args.samples):
            a, b, c = rand_state(), rand_state(), rand_state()
            if not (a and b and c):
                continue
            r, s, t = (rng.randint(-2, 2) for _ in range(3))
            rep = borcherds_full_check(fk, a, b, c, r, s, t)
            checked += 1
            if not rep["ok"]:
                failures.append(
                    {"a": a, "b": b, "c": c, "rst": [r, s, t],
                     "difference": rep["difference"]}
                )
    report = {
        "command": "borcherds-check",
        "version": __version__,
        "seed": args.seed,
        "checked": checked,
        "failures": failures[:10],
        "window": {"vars": args.vars, "max_weight": args.max_weight,
                   "samples": args.samples},
        "ok": not failures,
    }
    emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_liestar_check(args) -> int:
    world = JetWorld(even_base(args.vars))
    mu = world.bracket()
    samples = default_field_samples(
        world, jet_order=args.jet_order, degree=args.degree
    )
    if not samples:
        raise UsageError("the window yields no samples; --vars must be >= 1")
    failures = []
    checked = 0
    for trip in samples:
        for a, b in itertools.combinations(trip, 2):
            rep = lie_star_check(mu, [a, b])
            checked += 1
            if not rep["ok"]:
                failures.append({"pair": [a, b], "report": rep})
        d = jacobi_defect({2: mu}, 3, list(trip), world.module)
        checked += 1
        if d:
            failures.append({"args": trip, "jacobi_defect": d})
    report = {
        "command": "liestar-check",
        "version": __version__,
        "checked": checked,
        "failures": failures[:10],
        "window": {"vars": args.vars, "jet_order": args.jet_order,
                   "degree": args.degree},
        "ok": not failures,
    }
    emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_linfty_check(args) -> int:
    rng = random.Random(args.seed)
    sp = GradedSpace([("u", 0), ("v", 1), ("w", 1), ("z", 2)])
    pars = {n: sp.parity(n) for n in sp.names}
    disagreements = []
    passes = 0
    for trial in range(args.samples):
        ls = {}
        for arity in (1, 2, 3):
            vals = {}
            for word in basis_words(sp.names, pars, arity):
                want = (sum(pars[n] for n in word) + arity) & 1
                img = {
                    n: Fraction(rng.randrange(-2, 3))
                    for n in sp.names
                    if pars[n] == want and rng.randrange(3) == 0
                }
                img = {n: c for n, c in img.items() if c}
                if img:
                    vals[word] = img
            if vals:
                try:
                    ls[arity] = BasisMultiMap(sp, arity, vals)
                except ValueError:
                    continue
        if not ls:
            continue
        direct = direct_jacobi_report(ls, sp, 3)
        coder = coderivation_square_report(ls, sp, 3)
        if direct["ok"] != coder["ok"]:
            disagreements.append(
                {"trial": trial, "direct": direct["ok"],
                 "coderivation": coder["ok"]}
            )
        passes += direct["ok"]
    report = {
        "command": "linfty-check",
        "version": __version__,
        "seed": args.seed,
        "trials": args.samples,
        "structures_passing": passes,
        "disagreements": disagreements,
        "window": {"dim": 4, "max_arity": 3},
        "ok": not disagreements,
    }
    emit(report, args.out)
    return 0 if report["ok"] else 1


def cmd_algebroid_twist(args) -> int:
    data = load_json(args.cocycle)
    nvars = parse_vars(data)
    base = even_base(nvars)
    world = JetWorld(base)
    forms = FormAlgebra(base)
    parts = []
    closed = True
    if "three_form" in data:
        omega = parse_form(data["three_form"], forms, "three_form")
        rep = graded_form_functor(world, alpha0=omega, force=True)
        closed = closed and not rep.get("derham_d")
        parts.append(rep["alpha"])
    if "two_form" in data:
        beta = parse_form(data["two_form"], forms, "two_form")
        closed = closed and not forms.derham_d(beta)
        parts.append(two_form_cochain(world, beta))
    if not parts:
        raise UsageError("cocycle file needs 'three_form' or 'two_form'")
    P = standard_chiral_algebroid(base)
    total = parts[0]
    for extra in parts[1:]:
        total = cochain_add(world, total, extra)
    Q, check = twist_chiral(P, total, check=args.check)
    report = {
        "command": "algebroid-twist",
        "version": __version__,
        "vars": nvars,
        "closed_input": closed,
        "window": {"jet_order": 1, "degree": 1, "arity": 3},
        "ok": True,
    }
    if check is not None:
        report["jacobi_ok"] = check["ok"]
        report["closed"] = check["closed"]
        report["match"] = check["match"]
        report["failures"] = check["failures"][:5]
        report["ok"] = check["ok"]
    emit(report, args.out)
    return 0 if report["ok"] else 1


def _fs_builtin_family(world: JetWorld):
    jets = world.jets

    def mono(*keys):
        out = ring.poly_one()
        for k in keys:
            out = jets.mul(out, jets.gen(k))
        return out

    a2 = ChevalleyCochain(
        world,
        2,
        {
            ("x", "x"): {
                ((1, 1),): ring.pscale(mono(("x", 0), ("x", 2)), 2),
                (): ring.padd(
                    ring.pscale(mono(("x", 1), ("x", 2)), -1),
                    ring.pscale(mono(("x", 0), ("x", 3)), -1),
                ),
            }
        },
        0,
    )
    a3 = ChevalleyCochain(
        world,
        3,
        {
            ("x", "x", "xi"): {
                ((1, 1), (2, 2)): {(): Fraction(1, 2)},
                ((1, 2), (2, 1)): {(): Fraction(-1, 2)},
            }
        },
        1,
    )
    return a2, a3


def cmd_chiral_infty_check(args) -> int:
    if args.m != 2:
        raise UsageError(
            "--m: only the built-in m=2 closed family is shipped"
        )
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", args.m),): Fraction(1)}},
    )
    P = standard_chiral_infty_algebroid(base)
    world = P.world
    a2, a3 = _fs_builtin_family(world)
    family = {2: a2} if args.truncate else {2: a2, 3: a3}
    Q, check = chiral_infty_twist(P, family, check=True)
    add_ok = None
    if not args.truncate:
        Q1, _ = chiral_infty_twist(P, {2: a2})
        Q2, _ = chiral_infty_twist(Q1, {3: a3})
        add_ok = all(
            cochain_seeds(Q2.alphas.get(k))
            == cochain_seeds(Q.alphas.get(k))
            for k in (2, 3)
        )
    report = {
        "command": "chiral-infty-check",
        "version": __version__,
        "m": args.m,
        "truncated": bool(args.truncate),
        "jacobi_ok": check["ok"],
        "closed": check["closed"],
        "match": check["match"],
        "failures": check["failures"][:5],
        "window": {"arity": 3, "jet_order": 1, "degree": 1},
        "ok": check["match"] and (check["ok"] or args.truncate),
    }
    if add_ok is not None:
        report["additivity_ok"] = add_ok
        report["ok"] = report["ok"] and add_ok
    emit(report, args.out)
    if args.truncate:
        # a truncated family is expected to fail Jacobi: report it as a
        # verified-false identity
        return 1 if not check["ok"] and check["match"] else 0
    return 0 if report["ok"] else 1


def cmd_derham_closed(args) -> int:
    data = load_json(args.form)
    nvars = parse_vars(data)
    forms = FormAlgebra(even_base(nvars))
    omega = parse_form(data, forms, "form")
    d = forms.derham_d(omega)
    report = {
        "command": "derham-closed",
        "version": __version__,
        "vars": nvars,
        "closed": not d,
        "witness": enc_poly(d),
        "ok": not d,
    }
    emit(report, args.out)
    return 0 if report["ok"] else 1


SCHEMAS = {
    "fs-cohomology": {
        "report": {
            "m": "int", "cells": [
                {"weight": "int", "charge": "int", "degree": "int",
                 "dim": "int", "cochain_dim": "int",
                 "representatives": "list of encoded states"}
            ],
            "weight0_dimension": "int", "euler_ok": "bool",
            "window": "object", "ok": "bool",
        },
        "state_encoding": "[[coeff 'p/q', [[kind, gen, k, exp], ...]], ...]",
    },
    "borcherds-check": {
        "report": {"checked": "int", "failures": "list", "seed": "int",
                   "window": "object", "ok": "bool"},
    },
    "liestar-check": {
        "report": {"checked": "int", "failures": "list",
                   "window": "object", "ok": "bool"},
    },
    "linfty-check": {
        "report": {"trials": "int", "structures_passing": "int",
                   "disagreements": "list", "seed": "int", "ok": "bool"},
    },
    "algebroid-twist": {
        "input": TWIST_SCHEMA,
        "report": {"closed_input": "bool", "jacobi_ok": "bool",
                   "closed": "bool", "match": "bool", "ok": "bool"},
    },
    "chiral-infty-check": {
        "report": {"m": "int", "truncated": "bool", "jacobi_ok": "bool",
                   "closed": "bool", "match": "bool",
                   "additivity_ok": "bool", "ok": "bool"},
    },
    "derham-closed": {
        "input": FORM_SCHEMA,
        "report": {"closed": "bool", "witness": "encoded form",
                   "ok": "bool"},
    },
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chiralis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites")
        sp.add_argument("--schema", action="store_true",
                        help="print the JSON formats and exit")

    sp = sub.add_parser("fs-cohomology",
                        help="chiralized Koszul cohomology of x^m")
    sp.add_argument("--m", type=int)
    sp.add_argument("--max-weight", type=int, default=1)
    sp.add_argument("--max-charge", type=int, default=4)
    sp.add_argument("--min-charge", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=cmd_fs_cohomology)

    sp = sub.add_parser("borcherds-check",
                        help="Borcherds identity suite on free fields")
    sp.add_argument("--system", choices=["bg"], default="bg")
    sp.add_argument("--vars", type=int, default=1)
    sp.add_argument("--max-weight", type=int, default=2)
    sp.add_argument("--samples", type=int, default=0,
                    help="0 = exhaustive on single letters")
    common(sp)
    sp.set_defaults(fn=cmd_borcherds_check)

    sp = sub.add_parser("liestar-check",
                        help="Lie* axioms of the jet tangent bracket")
    sp.add_argument("--vars", type=int, default=2)
    sp.add_argument("--jet-order", type=int, default=2)
    sp.add_argument("--degree", type=int, default=2)
    common(sp)
    sp.set_defaults(fn=cmd_liestar_check)

    sp = sub.add_parser("linfty-check",
                        help="direct vs coderivation homotopy checks")
    sp.add_argument("--samples", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_linfty_check)

    sp = sub.add_parser("algebroid-twist",
                        help="twist the standard chiral algebroid")
    sp.add_argument("--base", choices=["std"], default="std")
    sp.add_argument("--cocycle", required=False,
                    help="JSON file with the twisting forms")
    sp.add_argument("--check", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_algebroid_twist)

    sp = sub.add_parser("chiral-infty-check",
                        help="homotopy twist over the super base")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--truncate", action="store_true",
                    help="drop the arity-3 component (expected failure)")
    common(sp)
    sp.set_defaults(fn=cmd_chiral_infty_check)

    sp = sub.add_parser("derham-closed",
                        help="closedness of a differential form")
    sp.add_argument("--form", required=False,
                    help="JSON file with the form")
    common(sp)
    sp.set_defaults(fn=cmd_derham_closed)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "schema", False):
        emit({"command": args.command,
              "schema": SCHEMAS[args.command]}, args.out)
        return 0
    if args.command == "algebroid-twist" and not args.cocycle:
        print("error: --cocycle is required", file=sys.stderr)
        return 2
    if args.command == "derham-closed" and not args.form:
        print("error: --form is required", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
