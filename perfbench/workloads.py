"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is a fixed list of ``chiralis`` CLI commands.  Unseeded
commands must reproduce the report recorded in ``expected_sha256.json``;
seeded ones get their ``--seed`` and input files from the benchmark seed,
and the program sees only those flags and files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its report must say."""

    id: str
    metric: str  # the per-command time metric this command adds to
    args: Tuple[str, ...]
    exit: int  # 0 pass, 1 verified false with a witness
    verdict: Dict[str, bool] = field(default_factory=dict)
    pinned: bool = False  # unseeded: report sha256 must match the record
    known_defect: bool = False


# -- seeded input files --------------------------------------------------------

VARS = ("x1", "x2", "x3", "x4")


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                    rng.randint(1, 3))


def _term(c: Fraction, f: Dict[str, int], d: List[str]) -> dict:
    return {"coeff": str(c), "f": [[v, e] for v, e in sorted(f.items())],
            "d": list(d)}


def closed_form(rng: random.Random, degree: int, count: int) -> List[dict]:
    """Terms of d(beta) + c dx_I: closed by construction.

    beta is a random (degree-1)-form with polynomial coefficients; each of
    its ``count`` terms has a coefficient that depends on a coordinate
    outside the term's own dx's, so d(beta) is not zero.
    """
    terms: List[dict] = []
    for _ in range(count):
        dxs = rng.sample(VARS, degree - 1)
        k = rng.choice([v for v in VARS if v not in dxs])
        f = {k: rng.randint(1, 2)}
        extra = rng.choice(VARS)
        f[extra] = f.get(extra, 0) + rng.randint(0, 2)
        f = {v: e for v, e in f.items() if e}
        c = _coeff(rng)
        # d(c f dx_I) = sum_v c (df/dv) dv dx_I
        for v, e in sorted(f.items()):
            if v in dxs:
                continue
            g = dict(f)
            g[v] -= 1
            terms.append(_term(c * e, {a: b for a, b in g.items() if b},
                               [v] + dxs))
    terms.append(_term(_coeff(rng), {}, rng.sample(VARS, degree)))
    return terms


def nonclosed_form(rng: random.Random, degree: int, count: int
                   ) -> List[dict]:
    """A closed form plus c x_k dx_I with k outside I; its d is
    c dx_k dx_I, which is not zero."""
    terms = closed_form(rng, degree, count)
    dxs = rng.sample(VARS, degree)
    k = rng.choice([v for v in VARS if v not in dxs])
    terms.append(_term(_coeff(rng), {k: 1}, dxs))
    rng.shuffle(terms)
    return terms


def write_inputs(workdir: Path, seed: int) -> Dict[str, str]:
    """Write the seeded input files; returns placeholder -> path."""
    files = {
        "cocycle_closed": {
            "vars": len(VARS),
            "three_form": {"terms": closed_form(
                random.Random(f"{seed}:cocycle-closed"), 3, 3)},
        },
        "cocycle_nonclosed": {
            "vars": len(VARS),
            "three_form": {"terms": nonclosed_form(
                random.Random(f"{seed}:cocycle-nonclosed"), 3, 3)},
        },
        "form_closed": {
            "vars": len(VARS),
            "terms": closed_form(random.Random(f"{seed}:form-closed"), 2, 6),
        },
        "form_nonclosed": {
            "vars": len(VARS),
            "terms": nonclosed_form(
                random.Random(f"{seed}:form-nonclosed"), 2, 6),
        },
    }
    paths = {}
    for name, data in files.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        paths[name] = str(path)
    return paths


# -- workloads -------------------------------------------------------------------

OK = {"ok": True}


def commands(workload: str, seed: int, inputs: Dict[str, str]
             ) -> List[Command]:
    s = str(seed)
    if workload == "koszul":
        # deep: one charge per weight, large cells; wide: many charges
        # per weight, small cells
        return [
            Command("fs_cohomology_deep", "fs_cohomology_deep_s",
                    ("fs-cohomology", "--m", "2", "--max-weight", "3",
                     "--min-charge", "4", "--max-charge", "4"),
                    0, {"ok": True, "euler_ok": True}, pinned=True),
            Command("fs_cohomology_wide", "fs_cohomology_wide_s",
                    ("fs-cohomology", "--m", "3", "--max-weight", "3",
                     "--min-charge", "-2", "--max-charge", "8"),
                    0, {"ok": True, "euler_ok": True}, pinned=True),
        ]
    if workload == "borcherds":
        return [
            Command("borcherds_exhaustive", "borcherds_exhaustive_s",
                    ("borcherds-check", "--vars", "2", "--max-weight", "3"),
                    0, OK, pinned=True),
            Command("borcherds_random", "borcherds_random_s",
                    ("borcherds-check", "--vars", "2", "--max-weight", "3",
                     "--samples", "2000", "--seed", s),
                    0, OK),
        ]
    if workload == "structures":
        passing = {"ok": True, "jacobi_ok": True, "closed": True,
                   "match": True}
        return [
            Command("liestar_check", "liestar_check_s",
                    ("liestar-check", "--vars", "2", "--jet-order", "2",
                     "--degree", "2"),
                    0, OK, pinned=True),
            Command("chiral_infty_full", "chiral_infty_check_s",
                    ("chiral-infty-check", "--m", "2"),
                    0, dict(passing, additivity_ok=True), pinned=True),
            Command("chiral_infty_truncated", "chiral_infty_check_s",
                    ("chiral-infty-check", "--m", "2", "--truncate"),
                    1, {"jacobi_ok": False, "closed": False, "match": True},
                    pinned=True),
            Command("algebroid_twist_closed", "algebroid_twist_s",
                    ("algebroid-twist", "--cocycle",
                     inputs["cocycle_closed"], "--check"),
                    0, dict(passing, closed_input=True)),
            Command("algebroid_twist_nonclosed", "algebroid_twist_s",
                    ("algebroid-twist", "--cocycle",
                     inputs["cocycle_nonclosed"], "--check"),
                    1, {"ok": False, "jacobi_ok": False, "closed": False,
                        "match": True, "closed_input": False}),
            Command("derham_closed", "derham_closed_s",
                    ("derham-closed", "--form", inputs["form_closed"]),
                    0, {"ok": True, "closed": True}),
            Command("derham_nonclosed", "derham_closed_s",
                    ("derham-closed", "--form", inputs["form_nonclosed"]),
                    1, {"ok": False, "closed": False}),
            # linfty.direct_jacobi_report draws its words with unshifted
            # parities, so it never tests a word that repeats an odd
            # letter; on seeds where a random structure fails only there,
            # the command exits 1 (direct true, coderivation false).
            # That is counted as a failure, and as expected.
            Command("linfty_check", "linfty_check_s",
                    ("linfty-check", "--samples", "400", "--seed", s),
                    0, OK, known_defect=True),
        ]
    raise KeyError(workload)


WORKLOADS = ("koszul", "borcherds", "structures")


def expected_sha256() -> Dict[str, str]:
    with open(HERE / "expected_sha256.json") as fh:
        return json.load(fh)


# -- output checks ---------------------------------------------------------------


def check(cmd: Command, code: int, stdout: bytes, digest: str,
          pinned: Dict[str, str]) -> Tuple[List[str], bool]:
    """Problems with one command's result, and whether they are exactly
    the known defect the command is marked with."""
    problems: List[str] = []
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, report is not JSON"], False
    if not isinstance(report, dict):
        return [f"exit {code}, report is not an object"], False
    if cmd.known_defect and code == 1 and _linfty_defect(report):
        return ["known defect: direct check passes where the coderivation "
                "square fails"], True
    if code != cmd.exit:
        problems.append(f"exit {code}, expected {cmd.exit}")
    for key, want in cmd.verdict.items():
        if report.get(key) is not want:
            problems.append(f"{key} = {report.get(key)!r}, expected {want}")
    # a report that checked nothing must not pass (vacuous ok: true)
    for key in ("checked", "trials"):
        if key in report and not (isinstance(report[key], int)
                                  and report[key] > 0):
            problems.append(f"{key} = {report[key]!r}, expected > 0")
    if "cells" in report and not report["cells"]:
        problems.append("no cells in the window")
    if cmd.exit == 1 and not (report.get("failures")
                              or report.get("witness")):
        problems.append("verified-false report carries no witness")
    if cmd.pinned and pinned.get(cmd.id) != digest:
        problems.append(f"report sha256 {digest} differs from the record")
    return problems, False


def _linfty_defect(report: dict) -> bool:
    found = report.get("disagreements") or []
    return bool(found) and all(
        d.get("direct") is True and d.get("coderivation") is False
        for d in found
    )
