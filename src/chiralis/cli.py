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
false identity (the report carries a witness); 2 = usage or input error,
including a window that checks nothing and a size outside the range that
each subcommand's --help and --schema state under 'limits'; 3 = internal
error (a bug: one "internal error: ..." line on stderr).
Reports are JSON on stdout (or --out).  borcherds-check and linfty-check
draw random samples and take --seed; a fixed seed makes a run byte
identical.  A reader that closes stdout early (``| head``) is not an
error: the rest of the report is dropped and the exit code is the
verdict's.

Every run is a fresh process that compiles or loads each module it
imports, so this module imports only ``ring`` at start-up and each
subcommand imports the layers it runs when it runs: a borcherds-check
never loads the star-operation, Chevalley, algebroid, L-infinity or
Koszul layers, and --help and --schema load none.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional

from . import __version__, ring

# -- JSON encoding -------------------------------------------------------------------


def enc_scalar(c: ring.Scalar) -> str:
    """'p/q', or 'p' when integral; an int and an equal Fraction agree."""
    try:
        return str(c)
    except ValueError:
        # an exact result past Python's int-to-str digit limit (3.10.7 and
        # later); the limit stays on for parsing input, where it bounds time
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(c)
        finally:
            sys.set_int_max_str_digits(limit)


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
            if all(ring.is_scalar(c) for c in obj.values()):
                return enc_poly(obj)
            return enc_lambda(obj)
        return {str(k): enc_any(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [enc_any(x) for x in obj]
    return obj


def emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(enc_any(report), sort_keys=True, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left; send the interpreter's final flush nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


# -- input forms ---------------------------------------------------------------------

RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_scalar(raw, field: str) -> Fraction:
    """A coefficient as FORM_SCHEMA documents it: a JSON integer, or a
    string 'p' or 'p/q' of decimal integers (no float, no exponent)."""
    try:
        if isinstance(raw, int) and not isinstance(raw, bool):
            return Fraction(raw)
        if isinstance(raw, str) and RATIONAL.fullmatch(raw):
            return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational in field {field!r}: {raw!r}") from exc
    raise UsageError(f"bad rational in field {field!r}: {raw!r}")


class UsageError(Exception):
    pass


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


# an outside size, bounded so that a run ends in seconds: ``value`` reads
# it from the arguments or the input file, an integer from ``lo`` to
# ``hi``; ``what`` names it in errors, and ``text`` (formatted with lo
# and hi) states the limit under ``key`` in --schema and --help
Limit = NamedTuple("Limit", [("key", str), ("what", str), ("lo", int),
                             ("hi", int), ("text", str), ("value", Callable)])

# above weight 0 the differential on x_0^m recurses once per copy of x_0,
# so --m stays well inside Python's recursion limit; at weight 0 x^m is
# one monomial and only the lower end binds
MAX_M = 512
# the coordinates size every algebra
FILE_VARS = Limit("vars", "field 'vars'", 1, 32, "at most {hi}",
                  lambda data: data.get("vars", 3))
LIMITS = {
    "fs-cohomology": (
        Limit("m", "--m", 1, MAX_M, "at most {hi} when max_weight >= 1",
              lambda a: min(a.m, 1) if a.m and a.max_weight < 1 else a.m),
        # at weight 6 each charge of a window takes 1 to 3 s at m = 2 and 3
        Limit("max_weight", "--max-weight", 0, 6, "at most {hi}",
              lambda a: a.max_weight),
        Limit("max_charge", "--max-charge minus --min-charge", 0, 23,
              "at most {hi} above min_charge",
              lambda a: a.max_charge - a.min_charge),
    ),
    # every triple of the window's letters is checked; there is no letter
    # when --vars < 1 or --max-weight < 0
    "borcherds-check": (
        Limit("letters",
              "the letter count 2 * --vars * (2 * --max-weight + 1)", 1, 96,
              "2 * vars * (2 * max_weight + 1), at most {hi}",
              lambda a: 2 * max(a.vars, 0) * max(2 * a.max_weight + 1, 0)),
    ),
    # the jet order sizes every sample window
    "liestar-check": (
        FILE_VARS._replace(what="--vars", value=lambda a: a.vars),
        Limit("jet_order", "--jet-order", 0, 8, "{lo} to {hi}",
              lambda a: a.jet_order),
    ),
    "algebroid-twist": (FILE_VARS,),
    "derham-closed": (FILE_VARS,),
}


def within_limits(command: str, source) -> list:
    """The limited sizes of ``command`` in table order, read from ``source``
    (its arguments or input file); a usage error when one is outside."""
    values = [lim.value(source) for lim in LIMITS[command]]
    for lim, value in zip(LIMITS[command], values):
        if not (_is_count(value) and lim.lo <= value <= lim.hi):
            raise UsageError(f"{lim.what} must be an integer >= {lim.lo} and"
                             f" at most {lim.hi}: {value!r}")
    return values


FORM_SCHEMA = {
    "description": "a differential form over Q[x1..x{vars}]",
    "format": {
        "vars": f"int >= {FILE_VARS.lo}, number of even coordinates x1..xn"
                " (default 3)",
        "terms": [
            {
                "coeff": "rational as 'p/q' or 'p'",
                "f": [["variable name", "exponent (int >= 0)"]],
                "d": ["ordered list of variable names under d(.)"],
            }
        ],
    },
}

TWIST_SCHEMA = {
    "description": "twisting data for the standard chiral algebroid",
    "format": {
        "vars": f"int >= {FILE_VARS.lo}, number of even coordinates"
                " (default 3)",
        "three_form": "a 3-form object (terms as in the form schema);"
                      " optional if two_form is given",
        "two_form": "a 2-form object, same shape; optional if three_form is",
    },
}


def parse_form(data: dict, forms: FormAlgebra, field: str,
               degree: Optional[int] = None) -> ring.Poly:
    """Parse a form object; with ``degree``, every term must have it."""
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
                forms.gen(name)
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"unknown variable {name!r} in {where}.f"
                ) from exc
            if e:
                # the variables are even: name^e is one monomial
                part = forms.mul(part, {((("g", name), e),): 1})
        for name in dpart:
            try:
                part = forms.mul(part, forms.d_gen(name))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(
                    f"unknown variable {name!r} in {where}.d"
                ) from exc
        if degree is not None and any(
            forms.form_degree_of_mono(mono) != degree for mono in part
        ):
            raise UsageError(f"{where} must have {degree} differentials"
                             f" in 'd', since {field!r} is a {degree}-form")
        ring.acc_poly(total, part, coeff)
    return total


def load_json(path: Optional[str], flag: str) -> dict:
    """The JSON object in the file that the option ``flag`` names."""
    if not path:
        raise UsageError(f"{flag} is required")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8
        # an integer literal past the int-to-str digit limit (Python
        # 3.10.7 and later), whose text tells a Python caller to lift it
        limit = getattr(sys, "get_int_max_str_digits", None)
        if limit and "integer string conversion" in str(exc):
            raise UsageError(f"{path!r} holds an integer longer than"
                             f" {limit()} digits") from exc
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("the input file must hold a JSON object")
    return data


def even_base(nvars: int) -> SuperPolyAlgebra:
    from .algebra import SuperPolyAlgebra

    return SuperPolyAlgebra(
        [(f"x{i}", 0, 0) for i in range(1, nvars + 1)]
    )


# -- subcommands ---------------------------------------------------------------------


def cmd_fs_cohomology(args) -> dict:
    from .koszul import ChiralKoszul, euler_lines

    within_limits(args.command, args)
    K = ChiralKoszul(args.m)
    result = K.cohomology(args.max_weight, args.max_charge, args.min_charge)
    cells = result["cells"]
    if not cells:
        raise UsageError("the (weight, charge) window contains no cells")
    _lines, euler_ok = euler_lines(cells)
    weight0 = sum(c["dim"] for c in cells if c["weight"] == 0)
    report = {
        "m": args.m,
        "cells": cells,
        "weight0_dimension": weight0,
        "euler_ok": euler_ok,
        "window": result["window"],
        "ok": euler_ok and result["witness"] is None,
    }
    if result["witness"] is not None:
        report["witness"] = result["witness"]
    return report


def cmd_borcherds_check(args) -> dict:
    from .algebra import SuperPolyAlgebra
    from .fock import BGSystem, borcherds_checks

    within_limits(args.command, args)
    if args.samples < 0:
        raise UsageError("--samples must be non-negative (0 = exhaustive)")
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
    rng = random.Random(args.seed)

    def rand_state():
        p = fk.vac()
        for _ in range(rng.randint(1, 2)):
            p = fk.mul(p, rng.choice(letters))
        return p

    def cases():
        """(a, b, [c, ...], [[r, s, t], ...]): every letter pair with all
        the letters as third state and the five exhaustive (r, s, t), or
        one triple per seeded draw."""
        if args.samples == 0:
            rsts = [[0, 0, 0], [0, 1, 0], [1, 0, 1], [-1, 0, 0], [-1, 1, -1]]
            for a, b in itertools.product(letters, repeat=2):
                yield a, b, letters, rsts
        for _ in range(args.samples):
            a, b, c = rand_state(), rand_state(), rand_state()
            if a and b and c:
                yield a, b, [c], [[rng.randint(-2, 2) for _ in range(3)]]

    # in the exhaustive window each pair (b, c) or (a, c) recurs with every
    # letter as the other state, so the inner-product lists and the memo of
    # one system are kept; seeded draws rarely repeat a product, so each is
    # checked on a fresh system
    pairs = {} if args.samples == 0 else None
    failures = []  # the first ten, which the report shows
    failed = checked = 0
    for a, b, cs, rsts in cases():
        va = fk if pairs is not None else BGSystem(fk.base)
        for c, reps in zip(cs, borcherds_checks(va, a, b, cs, rsts, pairs)):
            for rst, rep in zip(rsts, reps):
                checked += 1
                if not rep["ok"]:
                    failed += 1
                    if failed <= 10:
                        failures.append({"a": a, "b": b, "c": c, "rst": rst,
                                         "difference": rep["difference"]})
    if not checked:
        raise UsageError("the window yields no Borcherds cases")
    return {
        "seed": args.seed,
        "checked": checked,
        "failures": failures,
        "window": {"vars": args.vars, "max_weight": args.max_weight,
                   "samples": args.samples},
        "ok": not failed,
    }


def cmd_liestar_check(args) -> dict:
    from .algebroid import default_field_samples
    from .chevalley import JetWorld
    from .starops import LieStarDefects, lie_star_check

    within_limits(args.command, args)
    world = JetWorld(even_base(args.vars))
    mu = world.bracket()
    samples = default_field_samples(
        world, jet_order=args.jet_order, degree=args.degree
    )
    if not samples:
        raise UsageError("the window yields no samples")
    # the pair windows of the samples overlap: evaluate each identity once
    defects = LieStarDefects(mu)
    failures = []
    checked = 0
    for trip in samples:
        for a, b in itertools.combinations(trip, 2):
            rep = lie_star_check(mu, [a, b], defects)
            checked += 1
            if not rep["ok"]:
                failures.append({"pair": [a, b], "report": rep})
        d = defects.jacobi(*trip)
        checked += 1
        if d:
            failures.append({"args": trip, "jacobi_defect": d})
    return {
        "checked": checked,
        "failures": failures[:10],
        "window": {"vars": args.vars, "jet_order": args.jet_order,
                   "degree": args.degree},
        "ok": not failures,
    }


def cmd_linfty_check(args) -> dict:
    from .linfty import (BasisMultiMap, GradedSpace, basis_words,
                         coderivation_square_report, direct_jacobi_report)

    if args.samples < 1:
        raise UsageError("--samples must be a positive integer")
    rng = random.Random(args.seed)
    sp = GradedSpace([("u", 0), ("v", 1), ("w", 1), ("z", 2)])
    pars = {n: sp.parity(n) for n in sp.names}
    words = {arity: basis_words(sp.names, pars, arity) for arity in (1, 2, 3)}
    disagreements = []
    passes = 0
    checked = 0
    for trial in range(args.samples):
        ls = {}
        for arity, arity_words in words.items():
            vals = {}
            for word in arity_words:
                want = (sum(pars[n] for n in word) + arity) & 1
                img = {
                    n: rng.randrange(-2, 3)
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
        checked += 1
        direct = direct_jacobi_report(ls, sp, 3)
        coder = coderivation_square_report(ls, sp, 3)
        if direct["ok"] != coder["ok"]:
            disagreements.append(
                {"trial": trial, "direct": direct["ok"],
                 "coderivation": coder["ok"]}
            )
        passes += direct["ok"]
    if not checked:
        raise UsageError("no trial drew a structure to check")
    return {
        "seed": args.seed,
        "trials": args.samples,
        "structures_passing": passes,
        "disagreements": disagreements,
        "window": {"dim": 4, "max_arity": 3},
        "ok": not disagreements,
    }


def cmd_algebroid_twist(args) -> dict:
    from .algebra import FormAlgebra
    from .algebroid import (chiral_infty_twist, form_twist,
                            standard_chiral_infty_algebroid)

    data = load_json(args.cocycle, "--cocycle")
    nvars, = within_limits(args.command, data)
    base = even_base(nvars)
    forms = FormAlgebra(base)
    given = {}
    for field, degree in (("three_form", 3), ("two_form", 2)):
        if field in data:
            given[field] = parse_form(data[field], forms, field, degree)
    if not given:
        raise UsageError("cocycle file needs 'three_form' or 'two_form'")
    P = standard_chiral_infty_algebroid(base)
    total, closed = form_twist(P.world, **given)
    # the check always runs: a run that checks nothing is never a pass
    _, check = chiral_infty_twist(P, {2: total}, check=True)
    return {
        "vars": nvars,
        "closed_input": closed,
        "window": {"jet_order": 1, "degree": 1, "arity": 3},
        "jacobi_ok": check["ok"],
        "closed": check["closed"],
        "match": check["match"],
        "failures": [{"args": f["args"], "defect": f["defect"]}
                     for f in check["failures"][:5]],
        "ok": check["ok"],
    }


def cmd_chiral_infty_check(args) -> dict:
    from .algebra import SuperPolyAlgebra
    from .algebroid import (chiral_infty_twist, fs_closed_family,
                            standard_chiral_infty_algebroid)

    if args.m != 2:
        raise UsageError(
            "--m: only the built-in m=2 closed family is shipped"
        )
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", args.m),): 1}},
    )
    P = standard_chiral_infty_algebroid(base)
    world = P.world
    a2, a3 = fs_closed_family(world)
    family = {2: a2} if args.truncate else {2: a2, 3: a3}
    Q, check = chiral_infty_twist(P, family, check=True)
    report = {
        "m": args.m,
        "truncated": bool(args.truncate),
        "jacobi_ok": check["ok"],
        "closed": check["closed"],
        "match": check["match"],
        "failures": check["failures"][:5],
        "window": {"arity": 3, "jet_order": 1, "degree": 1},
        "ok": check["match"] and (check["ok"] or args.truncate),
    }
    if not args.truncate:
        Q1, _ = chiral_infty_twist(P, {2: a2})
        Q2, _ = chiral_infty_twist(Q1, {3: a3})
        add_ok = all(Q2.alphas[k].seeds == Q.alphas[k].seeds for k in (2, 3))
        report["additivity_ok"] = add_ok
        report["ok"] = report["ok"] and add_ok
    return report


def cmd_derham_closed(args) -> dict:
    from .algebra import FormAlgebra

    data = load_json(args.form, "--form")
    nvars, = within_limits(args.command, data)
    forms = FormAlgebra(even_base(nvars))
    omega = parse_form(data, forms, "form")
    d = forms.derham_d(omega)
    return {
        "vars": nvars,
        "closed": not d,
        "witness": enc_poly(d),
        "ok": not d,
    }


EXIT_CODES = {
    "0": "computation succeeded / all checks pass",
    "1": "a verified false identity; the report carries a witness",
    "2": "usage or input error",
    "3": "internal error: a bug, reported on stderr",
}

SCHEMAS = {
    "fs-cohomology": {
        "report": {
            "m": "int", "cells": [
                {"weight": "int", "charge": "int", "degree": "int",
                 "dim": "int", "cochain_dim": "int",
                 "representatives": "list of encoded states"}
            ],
            "weight0_dimension": "int",
            "euler_ok": "bool; an identity: each line's alternating sum of"
                        " dims telescopes to its cochain Euler"
                        " characteristic whatever the ranks",
            "window": "object",
            "ok": "bool; false when d^2 != 0 or a dim < 0 in some cell",
            "witness": "only when ok is false: the first failing cell,"
                       " {weight, charge, degree, dim, d_squared}, where"
                       " d_squared is null or {monomial, image}, the first"
                       " encoded basis monomial whose d^2 is not zero and"
                       " that d^2",
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
for _command, _limits in LIMITS.items():
    SCHEMAS[_command]["limits"] = {
        lim.key: lim.text.format(**lim._asdict()) for lim in _limits}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chiralis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        """A subcommand whose --help ends with the limits of its table."""
        limits = "".join(
            f"\n  {lim.key}: {SCHEMAS[name]['limits'][lim.key]}; {lim.what}"
            f" >= {lim.lo}" for lim in LIMITS.get(name, ()))
        sp = sub.add_parser(name, help=help, epilog=limits and "limits (past"
                            " them the command exits 2):" + limits,
                            formatter_class=p.formatter_class)
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.add_argument("--schema", action="store_true",
                        help="print the JSON formats and exit")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("fs-cohomology", cmd_fs_cohomology,
                 "chiralized Koszul cohomology of x^m")
    sp.add_argument("--m", type=int, help="the exponent")
    sp.add_argument("--max-weight", type=int, default=1)
    sp.add_argument("--max-charge", type=int, default=4)
    sp.add_argument("--min-charge", type=int, default=0)

    sp = command("borcherds-check", cmd_borcherds_check,
                 "Borcherds identity suite on free fields")
    sp.add_argument("--vars", type=int, default=1)
    sp.add_argument("--max-weight", type=int, default=2)
    sp.add_argument("--samples", type=int, default=0,
                    help="0 = exhaustive on single letters")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("liestar-check", cmd_liestar_check,
                 "Lie* axioms of the jet tangent bracket")
    sp.add_argument("--vars", type=int, default=2)
    sp.add_argument("--jet-order", type=int, default=2)
    sp.add_argument("--degree", type=int, default=2,
                    help="<= 0: frame fields only; >= 1: also the frames times"
                    " one coordinate jet (every value >= 1 is the same)")

    sp = command("linfty-check", cmd_linfty_check,
                 "direct vs coderivation homotopy checks")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("algebroid-twist", cmd_algebroid_twist,
                 "twist the standard chiral algebroid")
    sp.add_argument("--cocycle", help="JSON file with the twisting forms")
    sp.add_argument("--check", action="store_true",
                    help="kept for compatibility; the check always runs")

    sp = command("chiral-infty-check", cmd_chiral_infty_check,
                 "homotopy twist over the super base")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--truncate", action="store_true",
                    help="drop the arity-3 component (expected failure)")

    sp = command("derham-closed", cmd_derham_closed,
                 "closedness of a differential form")
    sp.add_argument("--form", help="JSON file with the form")
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "schema", False):
            emit({"command": args.command, "exit_codes": EXIT_CODES,
                  "schema": SCHEMAS[args.command]}, args.out)
            return 0
        report = {"command": args.command, "version": __version__,
                  **args.fn(args)}
        emit(report, args.out)
        # a truncated chiral-infty family is expected to fail Jacobi with
        # ok true: that is a verified-false identity too
        return 0 if report["ok"] and report.get("jacobi_ok", True) else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug must not read as exit 1, "verified false"
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        print(f"internal error: {type(exc).__name__}: {exc} (at"
              f" {os.path.basename(code.co_filename)}:{tb.tb_lineno} in"
              f" {code.co_name})", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
