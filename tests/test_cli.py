"""Tests for the command-line interface.

Oracles: exit-code contract (0 pass, 1 verified-false with witness,
2 usage error, 3 internal error), byte-identical reports for a fixed seed,
recorded sha256s of seeded structures and borcherds reports and of an
exhaustive borcherds report, Borcherds failure witnesses against the
per-identity oracle of ``test_fock`` (for faults in ``nth`` and in the
kernel's one-letter base case), the memo and kept inner products of a
Borcherds window against a fresh recomputation, faults in the chiral
algebroid's differential and unary operation and in the Lie* bracket
that must exit 1, an fs-cohomology window whose d^2 is not zero (a
dropped odd sign in ``apply_mode``) that must exit 1 with its first bad
monomial, powers with a huge exponent that must finish within seconds,
one parametrization over ``cli.LIMITS`` (every limit exits 2 at once
past its maximum and below its lower end, and passes the parser at its
maximum), integer literals and exact results past Python's int-to-str
digit limit, the recorded sha256 of each --schema output, --help
stating every limit, the input fields the schemas leave optional, the
documented example invocations, a reader that closes the pipe early,
the library layers that each subcommand, --help and --schema load in a
fresh process, and a Hypothesis fuzz of form files and windows that
must never crash.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralis import algebroid, chevalley, cli, fock, koszul, ring
from chiralis.algebra import SuperPolyAlgebra, tangent_part
from chiralis.cli import run
from chiralis.fock import BGSystem, borcherds_checks
from chiralis.koszul import ChiralKoszul
from chiralis.starops import StarOp
from test_fock import (EXHAUSTIVE_RSTS, exact_items, reference_borcherds,
                       wick_bound)

DATA = Path(__file__).resolve().parent / "data"


def report(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_fs_cohomology_example(tmp_path):
    code, rep = report(
        tmp_path,
        "fs.json",
        ["fs-cohomology", "--m", "2", "--max-weight", "1",
         "--max-charge", "4"],
    )
    assert code == 0
    assert rep["weight0_dimension"] == 2
    assert rep["euler_ok"] and rep["ok"]
    assert rep["window"]["max_weight"] == 1
    assert rep["version"]


apply_mode = BGSystem.apply_mode


def signless_apply_mode(self, kind, name, j, p):
    """``BGSystem.apply_mode`` without the sign an odd annihilation mode
    picks up passing the odd letters before its target."""
    out = {}
    for mono, c in p.items():
        img = apply_mode(self, kind, name, j, {mono: c})
        if j >= 0 and self.base.parity(name):
            target = self._letter_from_voa("m" if kind == "c" else "c",
                                           name, -1 - j)
            before = tuple((g, e) for g, e in mono if g < target)
            if ring.mono_parity(before, self.parity):
                img = ring.pscale(img, -1)
        ring.acc_poly(out, img)
    return out


def test_fs_cohomology_exits_1_when_d_squared_is_not_zero(tmp_path,
                                                          monkeypatch):
    # without the odd sign of apply_mode, d^2 != 0 on 65 of the window's
    # 580 monomials; the witness is the first of them, cell by cell in
    # report order, with its d^2 image
    monkeypatch.setattr(BGSystem, "apply_mode", signless_apply_mode)
    argv = ["fs-cohomology", "--m", "2", "--max-weight", "3",
            "--min-charge", "-2", "--max-charge", "6"]
    code, rep = report(tmp_path, "fs.json", argv)
    assert code == 1 and rep["ok"] is False and rep["euler_ok"]
    K = ChiralKoszul(2)
    bad = []
    for w in range(4):
        for q in range(-2, 7):
            cells = K.cell_by_degree(w, q)
            for d in sorted(cells):
                for mono in cells[d]:
                    img = K.d(K.d({mono: 1}))
                    if img:
                        bad.append((w, q, d, mono, img))
    assert len(bad) == 65
    w, q, d, mono, img = bad[0]
    dims = {(c["weight"], c["charge"], c["degree"]): c["dim"]
            for c in rep["cells"]}
    want = {"weight": w, "charge": q, "degree": d, "dim": dims[w, q, d],
            "d_squared": {"monomial": {mono: 1}, "image": dict(
                sorted(img.items()))}}
    assert rep["witness"] == json.loads(json.dumps(cli.enc_any(want)))
    # the fault also drives a dimension below zero, which the sound
    # engine never reports
    assert min(dims.values()) < 0
    monkeypatch.undo()
    code, rep = report(tmp_path, "fs2.json", argv)
    assert code == 0 and rep["ok"] and "witness" not in rep


def child(argv):
    """``python -m chiralis.cli argv`` on these sources, in a subprocess."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "chiralis.cli", *argv],
                          capture_output=True, timeout=5,
                          env=dict(os.environ, PYTHONPATH=src))


# a fresh process that runs one command and prints its exit code and the
# chiralis modules it has loaded
LOADED_PROBE = """
import contextlib, io, json, sys
from chiralis.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("chiralis."))]))
"""


def test_each_run_loads_only_the_layers_it_runs(tmp_path):
    """Every run is a fresh process, so each layer that a subcommand does
    not run but the CLI imports is compiled for nothing: each subcommand
    on its smallest window, --help and --schema load exactly these
    layers besides the package, ``cli`` and ``ring``."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"vars": 1, "terms": []}))
    cocycle = tmp_path / "cocycle.json"
    cocycle.write_text(json.dumps({"vars": 1, "two_form": {"terms": []}}))
    algebroid_layers = ["algebra", "algebroid", "chevalley", "exact", "fock",
                        "starops"]
    cases = [
        (["--help"], []),
        (["borcherds-check", "--schema"], []),
        (["fs-cohomology", "--m", "1", "--max-weight", "0", "--max-charge",
          "0"], ["algebra", "exact", "fock", "koszul"]),
        (["borcherds-check", "--vars", "1", "--max-weight", "0"],
         ["algebra", "exact", "fock"]),
        (["liestar-check", "--vars", "1", "--jet-order", "0", "--degree",
          "0"], algebroid_layers),
        (["algebroid-twist", "--cocycle", str(cocycle)], algebroid_layers),
        (["chiral-infty-check", "--m", "2", "--truncate"], algebroid_layers),
        (["linfty-check", "--samples", "1"], ["exact", "linfty", "starops"]),
        (["derham-closed", "--form", str(form)], ["algebra"]),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, layers in cases:
        proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=src))
        code, loaded = json.loads(proc.stdout)
        want_code = 1 if "--truncate" in argv else 0
        assert code == want_code, (argv, proc.stderr)
        assert loaded == sorted(["chiralis.cli", "chiralis.ring"] + [
            f"chiralis.{layer}" for layer in layers]), argv


def test_large_exponents_are_one_monomial(tmp_path):
    """A power x^e is one monomial, not e products: with one product per
    unit of the exponent, both inputs were still running when a 10 s
    timeout killed them."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"vars": 1, "terms": [
        {"coeff": "1", "f": [["x1", 100000000]], "d": ["x1"]}]}))
    for argv in (["derham-closed", "--form", str(form)],
                 ["fs-cohomology", "--m", "100000000", "--max-weight", "0",
                  "--max-charge", "1"]):
        proc = child(argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)["ok"]


def test_fs_cohomology_limits_m_above_weight_0():
    """Above weight 0 the differential recurses once per copy of x_0, and
    --m 1000 died with a RecursionError (exit 3): past ``cli.MAX_M`` it
    is an input error."""
    for m, code in ((cli.MAX_M, 0), (1000, 2)):
        proc = child(["fs-cohomology", "--m", str(m), "--max-weight", "1",
                      "--max-charge", "1"])
        assert proc.returncode == code, (m, proc.stderr)
    assert f"at most {cli.MAX_M}" in proc.stderr.decode()


def fs_window(**quantity):
    """fs-cohomology with each limited quantity at its maximum but the ones
    given; the charge span is set by --min-charge below --max-charge 0."""
    q = {lim.key: lim.hi for lim in cli.LIMITS["fs-cohomology"]} | quantity
    return ["fs-cohomology", "--m", str(q["m"]), "--max-weight",
            str(q["max_weight"]), "--min-charge", str(-q["max_charge"]),
            "--max-charge", "0"]


# for each limit of cli.LIMITS, the option or field that the case varies
# and an argv that sets the limited quantity to a value; a dict in the
# argv stands for a JSON input file, and a (dict, size) pair for one of
# size characters
LIMIT_CASES = {
    ("fs-cohomology", "m"): ("fs --m", lambda v: fs_window(m=v)),
    ("fs-cohomology", "max_weight"): (
        "fs --max-weight", lambda v: fs_window(max_weight=v)),
    ("fs-cohomology", "max_charge"): (
        "fs --max-charge", lambda v: fs_window(max_charge=v)),
    # one variable has 2 letters at weight 0: an odd count rounds up
    ("borcherds-check", "letters"): ("borcherds --vars", lambda v: [
        "borcherds-check", "--max-weight", "0", "--vars", str(-(-v // 2))]),
    ("liestar-check", "vars"): ("liestar --vars", lambda v: [
        "liestar-check", "--jet-order", "1", "--degree", "1", "--vars",
        str(v)]),
    ("liestar-check", "jet_order"): ("liestar --jet-order", lambda v: [
        "liestar-check", "--degree", "1", "--jet-order", str(v)]),
    ("algebroid-twist", "vars"): ("twist vars", lambda v: [
        "algebroid-twist", "--cocycle",
        {"vars": v, "three_form": {"terms": []}}]),
    ("derham-closed", "vars"): ("derham vars", lambda v: [
        "derham-closed", "--form", {"vars": v, "terms": []}]),
    ("algebroid-twist", "file_chars"): ("twist file length", lambda v: [
        "algebroid-twist", "--cocycle", ({"three_form": {"terms": []}}, v)]),
    ("derham-closed", "file_chars"): ("derham file length", lambda v: [
        "derham-closed", "--form", ({"terms": []}, v)]),
}
LIMITS = {(command, lim.key): lim
          for command, lims in cli.LIMITS.items() for lim in lims}


def test_every_limit_has_a_case():
    assert sorted(LIMIT_CASES) == sorted(LIMITS)


def write_input(path, data, size=None):
    """``data`` as JSON in the file ``path``; with ``size``, a file of that
    many characters: spaces before the closing brace up to one past
    ``cli.FILE_CHARS``, so that the object ends at the last character
    read, then NUL bytes that no run reads (a sparse tail)."""
    text = json.dumps(data)
    with open(path, "w") as fh:
        if size is None:
            fh.write(text)
        else:
            fh.write(text[:-1].ljust(min(size, cli.FILE_CHARS.hi + 1) - 1)
                     + "}")
            fh.truncate(size)
    return str(path)


def run_case(tmp_path, case, value):
    """``run_quiet`` on the argv that sets the quantity of the limit
    ``case`` to ``value``, each input file in it written out."""
    argv = LIMIT_CASES[case][1](value)
    for i, word in enumerate(argv):
        if isinstance(word, dict):
            argv[i] = write_input(tmp_path / "input.json", word)
        elif isinstance(word, tuple):
            argv[i] = write_input(tmp_path / "input.json", *word)
    return run_quiet(argv)


limit_cases = pytest.mark.parametrize("case", sorted(LIMITS), ids=lambda case:
                                      LIMIT_CASES.get(case, case)[0])


@limit_cases
def test_windows_past_their_maximum_exit_2_at_once(tmp_path, case):
    """liestar-check --vars 100 was still running after 30 s and
    --jet-order 16 after 60 s, and so was a form or cocycle file's 'vars'
    past its maximum, which sizes the algebra the same way; borcherds-check
    took 13.4 s on 96 letters, and it checks every triple of letters;
    fs-cohomology took 53.5 s at weight 8, and 12.8 s and 428 MB on 100001
    charges; a form file was read whole, and /dev/zero grew until a
    MemoryError (exit 3).  Past its maximum each limit exits 2 within a
    second."""
    lim = LIMITS[case]
    for value in (lim.hi + 1, 10 ** 8):
        t0 = time.perf_counter()
        code, out, err = run_case(tmp_path, case, value)
        assert code == 2 and not out, (value, err)
        assert time.perf_counter() - t0 < 1.0, value
        assert f"at most {lim.hi}" in err, (value, err)


@limit_cases
def test_windows_below_their_lower_end_exit_2(tmp_path, case):
    code, out, err = run_case(tmp_path, case, LIMITS[case].lo - 1)
    assert code == 2 and not out and err.startswith("error: "), err


class Accepted(Exception):
    pass


def accepted(*_args):
    raise Accepted


def test_windows_at_their_maximum_are_accepted(tmp_path, monkeypatch):
    """Each limit at its maximum passes the bounds: the run is stopped
    where it would build its first algebra or system, so nothing runs at
    a maximum.  The fs-cohomology cases set all three of its limits to
    their maxima at once."""
    for module, name in ((fock, "BGSystem"), (koszul, "ChiralKoszul"),
                         (cli, "even_base")):
        monkeypatch.setattr(module, name, accepted)
    for case, lim in LIMITS.items():
        code, out, err = run_case(tmp_path, case, lim.hi)
        assert code == 3 and "Accepted" in err, (case, err)


def test_letter_count_takes_both_factors(monkeypatch):
    """The letters of a borcherds-check window grow with --max-weight as
    with --vars: 24 weights of one variable are 98 letters, past the
    maximum, and 23 weights of one or 11 of two are inside it."""
    maximum = LIMITS["borcherds-check", "letters"].hi
    for value in ("24", str(10 ** 8)):
        t0 = time.perf_counter()
        code, out, err = run_quiet(["borcherds-check", "--vars", "1",
                                    "--max-weight", value])
        assert code == 2 and not out and f"at most {maximum}" in err, err
        assert time.perf_counter() - t0 < 1.0
    monkeypatch.setattr(fock, "BGSystem", accepted)
    for nvars, weight in (("1", "23"), ("2", "11")):
        code, out, err = run_quiet(["borcherds-check", "--vars", nvars,
                                    "--max-weight", weight])
        assert code == 3 and "Accepted" in err, err


def test_borcherds_exhaustive_and_seeded(tmp_path):
    code, rep = report(
        tmp_path,
        "b1.json",
        ["borcherds-check", "--vars", "1", "--max-weight", "1",
         "--samples", "0"],
    )
    assert code == 0 and rep["ok"] and rep["checked"] > 0
    argv = ["borcherds-check", "--samples", "15", "--seed", "11",
            "--max-weight", "2"]
    c1, r1 = report(tmp_path, "b2.json", argv)
    c2, r2 = report(tmp_path, "b3.json", argv)
    assert c1 == c2 == 0
    assert (tmp_path / "b2.json").read_bytes() == (
        tmp_path / "b3.json"
    ).read_bytes()


def test_seeded_borcherds_report_is_pinned(tmp_path):
    # the sampled path draws composite states, so these bytes cover the
    # product kernel on multi-letter first arguments (the digest was
    # recorded before the kernel's term-2 sum was restricted)
    out = tmp_path / "b.json"
    argv = ["borcherds-check", "--vars", "2", "--max-weight", "3",
            "--samples", "300", "--seed", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7b323ee3a7b29ba6c1b6060be938932857310b3245ac1be14db646b18f1390ff")


def test_exhaustive_borcherds_report_is_pinned(tmp_path):
    # the README example: every letter triple at the five exhaustive
    # (r, s, t), checked per triple (the digest was recorded before the
    # identities of a triple shared their products)
    out = tmp_path / "b.json"
    argv = ["borcherds-check", "--vars", "1", "--max-weight", "2",
            "--samples", "0"]
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f43df4195a9f9134176e46fdaeacfb2910cb1ae6e62bdc0d687ed4dbc350e918")


class Faulty(BGSystem):
    """Doubles every 0-th product, which breaks the commutator formula."""

    def nth(self, a, n, b):
        out = super().nth(a, n, b)
        return {k: 2 * c for k, c in out.items()} if n == 0 else out


class SignlessLetter(BGSystem):
    """Drops the (-1)^l of the one-letter base case
    (T^l phi / l!)_(n) = (-1)^l C(n, l) phi_(n-l), for every product
    that the kernel computes."""

    def _nth_mono(self, ma, n, mb):
        fresh = (ma, n, mb) not in self._memo
        res = super()._nth_mono(ma, n, mb)
        if fresh and len(ma) == 1 and ma[0][1] == 1 and (
                -1 - self._voa_index(ma[0][0])) & 1:
            res = self._memo[ma, n, mb] = {m: -c for m, c in res.items()}
        return res


def one_identity_cases(samples, seed, system=Faulty):
    """The CLI's Borcherds cases for --vars 1 --max-weight 1, one identity
    at a time, on a ``system`` (a faulty ``BGSystem`` subclass)."""
    fk = system(SuperPolyAlgebra([("x1", 0, 0), ("xi1", 1, -1)]))
    letters = []
    for name in ("x1", "xi1"):
        letters += [fk.coord(name, 0), fk.coord(name, -1), fk.mom(name, -1)]
    if samples == 0:
        for a, b, c in itertools.product(letters, repeat=3):
            for rst in EXHAUSTIVE_RSTS:
                yield fk, a, b, c, rst
    rng = random.Random(seed)

    def rand_state():
        p = fk.vac()
        for _ in range(rng.randint(1, 2)):
            p = fk.mul(p, rng.choice(letters))
        return p

    for _ in range(samples):
        a, b, c = rand_state(), rand_state(), rand_state()
        if a and b and c:
            yield fk, a, b, c, [rng.randint(-2, 2) for _ in range(3)]


@pytest.mark.parametrize(
    "mode", [["--samples", "0"], ["--samples", "50", "--seed", "1"]],
    ids=["exhaustive", "random"],
)
def test_borcherds_failure_reports_witness(tmp_path, monkeypatch, mode):
    # both the exhaustive and the sampled suite must exit 1 with the
    # offending differences as witnesses: the same count, entries and order
    # as the oracle gives checking one identity at a time on the same
    # faulty products
    monkeypatch.setattr(fock, "BGSystem", Faulty)
    code, rep = report(
        tmp_path, "bf.json",
        ["borcherds-check", "--vars", "1", "--max-weight", "1", *mode],
    )
    assert code == 1 and rep["ok"] is False
    samples = int(mode[1])
    seed = int(mode[3]) if samples else 0
    checked, want = 0, []
    for fk, a, b, c, rst in one_identity_cases(samples, seed):
        checked += 1
        diff = reference_borcherds(fk, a, b, c, *rst)[2]
        if diff:
            want.append({"a": a, "b": b, "c": c, "rst": rst,
                         "difference": diff})
    assert rep["checked"] == checked
    assert want  # the report keeps the first ten
    assert rep["failures"] == json.loads(json.dumps(cli.enc_any(want[:10])))


@pytest.mark.parametrize(
    "mode", [["--samples", "0"], ["--samples", "50", "--seed", "1"]],
    ids=["exhaustive", "random"],
)
def test_borcherds_catches_a_faulty_one_letter_base_case(tmp_path,
                                                         monkeypatch, mode):
    # a fault inside the kernel, below every nth call: the witnesses are the
    # oracle's, checking one identity at a time on the same products
    monkeypatch.setattr(fock, "BGSystem", SignlessLetter)
    code, rep = report(
        tmp_path, "bs.json",
        ["borcherds-check", "--vars", "1", "--max-weight", "1", *mode],
    )
    assert code == 1 and rep["ok"] is False
    samples = int(mode[1])
    seed = int(mode[3]) if samples else 0
    checked, want = 0, []
    for fk, a, b, c, rst in one_identity_cases(samples, seed, SignlessLetter):
        checked += 1
        diff = reference_borcherds(fk, a, b, c, *rst)[2]
        if diff:
            want.append({"a": a, "b": b, "c": c, "rst": rst,
                         "difference": diff})
    assert rep["checked"] == checked
    assert want
    assert rep["failures"] == json.loads(json.dumps(cli.enc_any(want[:10])))


def test_borcherds_window_leaves_cached_products_intact(tmp_path,
                                                        monkeypatch):
    # the memo and the kept inner-product lists and pair bounds are shared
    # by every triple of the window; recomputed on a fresh system after the
    # run, each must still hold its first value, item order and scalar
    # types included
    systems, kept = [], []

    class Recorded(BGSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    def recording(va, a, b, cs, rsts, pairs):
        kept.append(pairs)
        return borcherds_checks(va, a, b, cs, rsts, pairs)

    monkeypatch.setattr(fock, "BGSystem", Recorded)
    monkeypatch.setattr(fock, "borcherds_checks", recording)
    code, rep = report(
        tmp_path, "bm.json",
        ["borcherds-check", "--vars", "1", "--max-weight", "2",
         "--samples", "0"],
    )
    assert code == 0 and rep["ok"]
    (fk,) = systems
    pairs = kept[0]
    assert pairs and all(p is pairs for p in kept)
    assert fk._memo
    for (ma, n, mb), value in fk._memo.items():
        fresh = BGSystem(fk.base)
        assert exact_items(fresh._nth_mono(ma, n, mb)) == exact_items(
            value), (ma, n, mb)
    for (x, y), (bound, lists) in pairs.items():
        fresh = BGSystem(fk.base)
        assert bound == fresh.state_pole_bound(dict(x), dict(y)), (x, y)
        assert lists, (x, y)
        for (lo, hi), value in lists.items():
            assert hi < bound, (x, y, lo, hi)
            want = [(k, exact_items(p)) for k in range(lo, hi + 1)
                    if (p := fresh.nth(dict(x), k, dict(y)))]
            assert [(k, exact_items(p)) for k, p in value] == want, (x, y)


def test_borcherds_memo_scope(tmp_path, monkeypatch):
    # seeded draws share almost no products, so each is checked on a fresh
    # system and a fresh table that die with its draw; the exhaustive
    # window keeps one system and one table, and its memo holds no product
    # that the Wick bound P(a, b) says is zero
    systems = []  # a weak reference to every system made
    init = BGSystem.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        systems.append(weakref.ref(self))

    live = []

    def checks(va, a, b, cs, rsts, pairs):
        live.append((len(va._memo), len(pairs),
                     sum(ref() is not None for ref in systems)))
        return borcherds_checks(va, a, b, cs, rsts, pairs)

    monkeypatch.setattr(BGSystem, "__init__", spy)
    monkeypatch.setattr(fock, "borcherds_checks", checks)
    code, rep = report(tmp_path, "seeded.json",
                       ["borcherds-check", "--samples", "300", "--seed", "1"])
    assert code == 0 and rep["checked"] == 284
    # one system draws the states, and one per draw checks them, starting
    # from an empty memo and an empty table while the systems of earlier
    # draws are gone
    assert len(systems) == 285 and live == [(0, 0, 2)] * 284
    assert all(ref() is None for ref in systems)

    held = []

    def holding(va, a, b, cs, rsts, pairs):
        held.append((va, pairs))
        return borcherds_checks(va, a, b, cs, rsts, pairs)

    monkeypatch.setattr(fock, "borcherds_checks", holding)
    code, rep = report(tmp_path, "window.json",
                       ["borcherds-check", "--vars", "1", "--max-weight", "2",
                        "--samples", "0"])
    assert code == 0 and rep["checked"] == 5000
    fk, table = held[0]
    assert table and all(va is fk and pairs is table for va, pairs in held)
    assert len(fk._memo) == 630
    for ma, n, mb in fk._memo:
        assert n < 0 or n < wick_bound(fk, ma, mb), (ma, n, mb)


def test_liestar_degree_adds_one_jet_or_nothing(tmp_path):
    """--degree 0 checks the frame fields only; every degree >= 1 adds
    the frames times one coordinate jet, the same window."""
    checked = [report(tmp_path, f"d{d}.json", [
        "liestar-check", "--vars", "2", "--jet-order", "2", "--degree",
        str(d)])[1]["checked"] for d in (0, 1, 5)]
    assert checked == [16, 96, 96]


def test_liestar_check_catches_a_faulty_bracket(tmp_path, monkeypatch):
    # the bracket with its z^1 coefficient doubled is neither
    # antisymmetric nor Jacobi: the report names each failing pair or
    # triple with its nonzero defect
    bracket_of = chevalley.JetWorld.bracket

    def doubled(world):
        mu = bracket_of(world)
        return StarOp(2, mu.module, lambda a, b: {
            z: ring.pscale(e, 2) if z == ((1, 1),) else e
            for z, e in mu(a, b).items()}, mu.parity)

    monkeypatch.setattr(chevalley.JetWorld, "bracket", doubled)
    code, rep = report(tmp_path, "ls.json", [
        "liestar-check", "--vars", "2", "--jet-order", "1", "--degree", "1"])
    assert code == 1 and not rep["ok"] and rep["failures"]
    for f in rep["failures"]:
        if "pair" in f:
            assert f["report"]["failures"], f
            assert all(g["defect"] for g in f["report"]["failures"]), f
        else:
            assert f["jacobi_defect"], f


def test_liestar_and_linfty(tmp_path):
    code, rep = report(
        tmp_path, "ls.json",
        ["liestar-check", "--vars", "2", "--jet-order", "1",
         "--degree", "1"],
    )
    assert code == 0 and rep["ok"]
    code, rep = report(
        tmp_path, "li.json",
        ["linfty-check", "--samples", "10", "--seed", "5"],
    )
    assert code == 0 and rep["ok"] and not rep["disagreements"]


def test_linfty_direct_check_agrees_with_coderivation(tmp_path):
    # the direct Jacobi check must test the words that repeat an odd
    # letter; at seed 7 trial 333 fails only on (u, v, v)
    code, rep = report(
        tmp_path, "li7.json",
        ["linfty-check", "--samples", "400", "--seed", "7"],
    )
    assert code == 0 and rep["ok"] and rep["disagreements"] == []


def test_algebroid_twist_nonclosed_fails(tmp_path):
    cfile = tmp_path / "nonclosed.json"
    cfile.write_text(json.dumps({
        "vars": 4,
        "three_form": {"terms": [
            {"coeff": "1", "f": [["x4", 1]], "d": ["x1", "x2", "x3"]}
        ]},
    }))
    code, rep = report(
        tmp_path, "tw.json",
        ["algebroid-twist", "--cocycle", str(cfile), "--check"],
    )
    assert code == 1
    assert not rep["jacobi_ok"] and rep["failures"] and rep["match"]
    good = tmp_path / "closed.json"
    good.write_text(json.dumps({
        "vars": 3,
        "three_form": {"terms": [
            {"coeff": "1", "d": ["x1", "x2", "x3"]}
        ]},
    }))
    code, rep = report(
        tmp_path, "tw2.json",
        ["algebroid-twist", "--cocycle", str(good), "--check"],
    )
    assert code == 0 and rep["jacobi_ok"] and rep["closed"]


def test_algebroid_twist_checks_without_the_flag(tmp_path):
    """A run that checks nothing is never a pass: without --check the
    twist is checked all the same, and the report is the same bytes."""
    code, rep = report(tmp_path, "n.json", [
        "algebroid-twist", "--cocycle", str(DATA / "twist_nonclosed.json")])
    assert code == 1 and not rep["ok"] and rep["failures"]
    argv = ["algebroid-twist", "--cocycle",
            str(DATA / "twist_two_form_closed.json"), "--out"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + [str(a)]) == 0 == run(argv + [str(b), "--check"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["algebroid-twist", "--cocycle", str(DATA / "twist_nonclosed.json"),
          "--check"], 1,
         "c3e88c07d425282adf0e71f4e95504cc837a0a42324373509232d219e9590fb3"),
        # a closed 3-form plus a closed or an open 2-form: the 2-form's
        # cochain enters the twist (digests recorded before the twist ran
        # through the homotopy algebroid)
        (["algebroid-twist", "--cocycle",
          str(DATA / "twist_two_form_closed.json"), "--check"], 0,
         "8fa7b308878d945628c8e7929a2aac96e661002bb95ab30abf1bcf60c5bb316b"),
        (["algebroid-twist", "--cocycle",
          str(DATA / "twist_two_form_nonclosed.json"), "--check"], 1,
         "f098f2e04fa44ff363a80b6a4e23cf7dd4486daa6e2ef3b2573f9b3eb0b61c90"),
        (["linfty-check", "--samples", "60", "--seed", "7"], 0,
         "5dccf88d1bb77bffdb5ed947c8f69551228f634e14de328c13a705ed4bc8eb8f"),
    ],
    ids=["algebroid-twist-nonclosed", "algebroid-twist-two-form-closed",
         "algebroid-twist-two-form-nonclosed", "linfty-check-seed7"],
)
def test_seeded_structures_reports_are_pinned(tmp_path, argv, code, digest):
    # the failure witnesses of a non-closed twist run through the twisted
    # bracket, the cochain table and the generalized Jacobi sum, so a sign
    # slip in any of them changes these bytes
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if code == 1:
        assert json.loads(out.read_text())["failures"]


@pytest.mark.parametrize(
    "argv, verdict, head",
    [
        # a 66 kB report: more than a pipe holds, so the write must fail
        (["fs-cohomology", "--m", "2", "--max-weight", "3",
          "--max-charge", "6"], 0, 10),
        (["chiral-infty-check", "--m", "2", "--truncate"], 1, 0),
    ],
    ids=["pass", "verified-false"],
)
def test_closed_pipe_keeps_the_verdict(argv, verdict, head):
    # like `chiralis ... | head -c 10`: the reader leaving is not a bug
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "chiralis.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    got = os.read(proc.stdout.fileno(), head) if head else b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == verdict
    assert got == b"{\n  \"cells"[:head]
    assert b"internal error" not in err and b"Traceback" not in err, err
    assert b"Exception ignored" not in err, err


def test_chiral_infty_check(tmp_path):
    code, rep = report(
        tmp_path, "ci.json", ["chiral-infty-check", "--m", "2"]
    )
    assert code == 0
    assert rep["jacobi_ok"] and rep["closed"] and rep["match"]
    assert rep["additivity_ok"]
    code, rep = report(
        tmp_path, "ci2.json",
        ["chiral-infty-check", "--m", "2", "--truncate"],
    )
    assert code == 1
    assert not rep["jacobi_ok"] and not rep["closed"] and rep["match"]
    assert rep["failures"]


def test_truncated_check_with_a_wrong_differential_exits_1(tmp_path,
                                                          monkeypatch):
    # an lc_d that reads every family as closed disagrees with the failing
    # Jacobi check of the truncated family: ok is false, and so is the exit
    monkeypatch.setattr(algebroid, "lc_d", lambda world, alphas: {})
    code, rep = report(tmp_path, "ct.json",
                       ["chiral-infty-check", "--m", "2", "--truncate"])
    assert code == 1 and rep["ok"] is False
    assert rep["closed"] and not rep["jacobi_ok"] and not rep["match"]


def test_chiral_infty_check_catches_a_non_derivation(tmp_path, monkeypatch):
    """l1 conjugated by the map that doubles the function part of an
    element still squares to zero, and the closed family still passes
    every triple of the window; but l1 is no longer a derivation of l2,
    which only the arity-2 identities see."""
    l1_of = algebroid.jet_differential

    def conjugated(world):
        l1 = l1_of(world)

        def g(v, c):
            return ring.padd(v, ring.pscale(tangent_part(v, 0), c))

        return StarOp(1, l1.module, lambda v: {
            z: g(e, 1) for z, e in l1(g(v, Fraction(-1, 2))).items()
        }, l1.parity)

    monkeypatch.setattr(algebroid, "jet_differential", conjugated)
    code, rep = report(tmp_path, "ci.json", ["chiral-infty-check", "--m", "2"])
    assert code == 1 and not rep["ok"] and not rep["jacobi_ok"]
    assert rep["closed"] and not rep["match"] and rep["additivity_ok"]
    assert rep["failures"] and {f["arity"] for f in rep["failures"]} == {2}


def test_derham_closed(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({
        "vars": 3,
        "terms": [{"coeff": "1", "f": [["x1", 1]], "d": ["x2", "x3"]}],
    }))
    code, rep = report(tmp_path, "d.json",
                       ["derham-closed", "--form", str(f)])
    assert code == 1 and not rep["closed"] and rep["witness"]
    g = tmp_path / "g.json"
    g.write_text(json.dumps({
        "vars": 3,
        "terms": [{"coeff": "1/2", "d": ["x1", "x2"]}],
    }))
    code, rep = report(tmp_path, "d2.json",
                       ["derham-closed", "--form", str(g)])
    assert code == 0 and rep["closed"]


def test_seed_is_taken_only_by_the_seeded_commands():
    assert run(["fs-cohomology", "--m", "2", "--seed", "1"]) == 2
    for name in cli.SCHEMAS:
        seeded = name in ("borcherds-check", "linfty-check")
        assert (run([name, "--seed", "1", "--schema"]) == 2) != seeded


def test_usage_errors(tmp_path):
    assert run(["fs-cohomology"]) == 2
    assert run(["fs-cohomology", "--m", "0"]) == 2
    # an empty or inverted window is a usage error, never a vacuous pass
    assert run(["fs-cohomology", "--m", "2", "--max-weight", "1",
                "--min-charge", "5", "--max-charge", "1"]) == 2
    assert run(["fs-cohomology", "--m", "2", "--max-weight", "-1"]) == 2
    assert run(["fs-cohomology", "--m", "2", "--max-weight", "0",
                "--min-charge", "-3", "--max-charge", "-1"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["algebroid-twist"]) == 2
    assert run(["derham-closed", "--form", "/nonexistent.json"]) == 2
    assert run(["chiral-infty-check", "--m", "5"]) == 2
    # an unwritable --out is an input error, for a report and a schema
    bad_out = str(tmp_path / "no-such-dir" / "r.json")
    assert run(["fs-cohomology", "--m", "2", "--out", bad_out]) == 2
    assert run(["fs-cohomology", "--schema", "--out", bad_out]) == 2
    # a window without samples checks nothing, so it cannot pass
    assert run(["liestar-check", "--vars", "0"]) == 2
    # --jet-order -1 exited 0 and reported "jet_order": -1 while every jet
    # field dropped out of the window
    assert run(["liestar-check", "--vars", "1", "--jet-order", "-1"]) == 2
    assert run(["borcherds-check", "--max-weight", "-1"]) == 2
    assert run(["borcherds-check", "--samples", "-3"]) == 2
    assert run(["linfty-check", "--samples", "0"]) == 2
    # malformed form files are input errors, not verified-false reports
    for i, bad in enumerate([
        {"vars": "abc", "terms": []},
        {"vars": 2, "terms": [{"f": [["x1"]]}]},
        {"vars": 2, "terms": [5]},
    ]):
        f = tmp_path / f"bad{i}.json"
        f.write_text(json.dumps(bad))
        assert run(["derham-closed", "--form", str(f)]) == 2
    # a twist needs a 3-form and a 2-form: a term of another degree is an
    # input error, neither a crash nor a term dropped without a word
    for i, bad in enumerate([
        {"vars": 3, "three_form": {"terms": [{"d": ["x1", "x2"]}]}},
        {"vars": 3, "three_form": {"terms": [{"f": [["x1", 1]]}]}},
        {"vars": 3, "two_form": {"terms": [{"d": ["x1", "x2", "x3"]}]}},
    ]):
        f = tmp_path / f"badtwist{i}.json"
        f.write_text(json.dumps(bad))
        assert run(["algebroid-twist", "--cocycle", str(f)]) == 2


# sha256 of each subcommand's --schema output, recorded before its limits
# were read from cli.LIMITS; algebroid-twist and derham-closed recorded
# again when their input files got a length limit
SCHEMA_SHA256 = {
    "fs-cohomology":
        "d4fa09d27390e54c1364a9d5a379c1a109f1ebabce0327aa1c7761f07f1a7df9",
    "borcherds-check":
        "f49cc017afa22c586a24662d808b5b02d0ad4066b954a4e813bd853336440fb4",
    "liestar-check":
        "169985240541251051f36f20f4f6d67ab7f4233e66346125316ecf4e8b870c71",
    "linfty-check":
        "08fb149e818f2900c14482307662aee09829a302d7ea1cc4e2b8b0eac40f0176",
    "algebroid-twist":
        "babac472bce3cd6159814cf4cb6cac6306123d138156afc8d0d5f3a4be65aaf5",
    "chiral-infty-check":
        "3e63da5487795f5a13c66368bdb1977feb79f7a465bd3fa55dbe54fdcd1f8d05",
    "derham-closed":
        "d7656451145c586afbe911ad8aca04d9133005aa3154f6dde1cd830ee32aa40b",
}


def test_schema_flag(tmp_path):
    assert sorted(SCHEMA_SHA256) == sorted(cli.SCHEMAS)
    for cmd, digest in SCHEMA_SHA256.items():
        code, rep = report(tmp_path, f"s-{cmd}.json",
                           [cmd, "--schema"])
        assert code == 0 and rep["schema"]
        assert sorted(rep["exit_codes"]) == ["0", "1", "2", "3"]
        code, out, _err = run_quiet([cmd, "--schema"])
        assert hashlib.sha256(out.encode()).hexdigest() == digest, cmd


def test_help_states_every_limit():
    """argparse %-formats an option's help, so a generated '%' would crash
    --help outside run's exit codes; each subcommand's --help ends with
    the limits of its table."""
    for cmd in cli.SCHEMAS:
        code, out, err = run_quiet([cmd, "--help"])
        assert code == 0 and not err, (cmd, err)
        for lim in cli.LIMITS.get(cmd, ()):
            stated = lim.text.format(**lim._asdict())
            assert str(lim.hi) in stated and f"{lim.key}: {stated}" in out


def test_inputs_the_schemas_leave_optional(tmp_path):
    """A form file without 'vars' is read over x1..x3, and a cocycle file
    needs only one of its forms: 'two_form' alone is checked and passes,
    as the schemas say."""
    for cmd in ("derham-closed", "algebroid-twist"):
        code, rep = report(tmp_path, f"s-{cmd}.json", [cmd, "--schema"])
        fields = rep["schema"]["input"]["format"]
        assert "default 3" in fields["vars"]
    assert all("optional" in fields[f] for f in ("three_form", "two_form"))
    code, rep = report(tmp_path, "form.json", [
        "derham-closed", "--form", str(DATA / "form_default_vars.json")])
    assert code == 0 and rep["closed"] and rep["vars"] == 3
    code, rep = report(tmp_path, "twist.json", [
        "algebroid-twist", "--cocycle",
        str(DATA / "twist_two_form_only.json")])
    assert code == 0 and rep["ok"] and rep["closed_input"]
    assert rep["vars"] == 2


def test_malformed_json_input(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["derham-closed", "--form", str(f)]) == 2
    g = tmp_path / "badfield.json"
    g.write_text(json.dumps({
        "vars": 2,
        "terms": [{"coeff": "1", "d": ["nope"]}],
    }))
    assert run(["derham-closed", "--form", str(g)]) == 2
    # a file that is not UTF-8 and one nested past the parser's recursion
    # limit are usage errors too, not internal ones
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"vars": 1}'.encode("utf-16-le"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for path in (utf16, deep):
        for flag in (["derham-closed", "--form"],
                     ["algebroid-twist", "--cocycle"]):
            code, out, err = run_quiet(flag + [str(path)])
            assert (code, out) == (2, ""), err
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_integer_literals_past_the_digit_limit_exit_2():
    """json raises a plain ValueError for an integer literal longer than
    Python's int-to-str digit limit (4300 digits), which exited 3; the
    file is written as text, since json.dumps refuses the same integer.
    The error says what is wrong with the file, not how to lift the
    limit inside Python."""
    big = "1" * 5000
    forms = {
        "vars": f'{{"vars": {big}, "terms": []}}',
        "coeff": f'{{"vars": 1, "terms": [{{"coeff": {big}, "d": ["x1"]}}]}}',
        "exponent": f'{{"vars": 1, "terms": [{{"f": [["x1", {big}]],'
                    ' "d": ["x1"]}]}',
    }
    for field, form in forms.items():
        for argv, text in (
                (["derham-closed", "--form"], form),
                (["algebroid-twist", "--cocycle"],
                 f'{{"vars": 3, "two_form": {form}}}' if field != "vars"
                 else form)):
            code, out, err = run_on_file(argv, text)
            assert (code, out) == (2, ""), (field, argv, err)
            assert "holds an integer longer than" in err, err
            assert f"{sys.get_int_max_str_digits()} digits" in err, err
            assert "set_int_max_str_digits" not in err, err


def test_other_value_errors_are_not_called_long_integers(tmp_path,
                                                         monkeypatch):
    """Only Python's digit-limit error is reported as an over-long
    integer: a path holding a NUL, which ``open`` refuses with a
    ValueError, is a plain usage error, and so is the digit-limit error
    where ``sys`` has no ``get_int_max_str_digits`` (Python before
    3.10.7)."""
    argv = ["derham-closed", "--form"]
    code, out, err = run_quiet(argv + [str(tmp_path / "a\0b.json")])
    assert (code, out) == (2, "") and "integer" not in err, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out, err = run_on_file(argv, f'{{"vars": {"1" * 5000}}}')
    assert (code, out) == (2, "") and "malformed JSON" in err, err


def test_results_past_the_digit_limit_are_printed_exactly():
    """d of c x1^e dx2 with c = e = 10^4000 - 1 has a coefficient of 8000
    digits, past the int-to-str limit of input parsing; it exited 3 where
    the report is written, and now it is printed in full."""
    nines = "9" * 4000
    code, out, err = run_on_file(
        ["derham-closed", "--form"],
        f'{{"vars": 2, "terms": [{{"coeff": "{nines}", "f": [["x1",'
        f' {nines}]], "d": ["x2"]}}]}}')
    assert code == 1, err
    (coeff, _mono), = json.loads(out)["witness"]
    # (10^n - 1)^2 = 10^2n - 2 10^n + 1
    assert coeff == "9" * 3999 + "8" + "0" * 3999 + "1"
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(coeff) == int(nines) ** 2
        finally:
            sys.set_int_max_str_digits(limit)


def test_coefficients_are_parsed_as_the_schema_says(tmp_path):
    """A coefficient is a JSON integer or a string 'p' or 'p/q' of decimal
    integers.  Anything else exits 2, and an exponent does so before any
    arithmetic: Fraction('1e-100000000') would expand it in full."""
    def derham(coeff):
        f = tmp_path / "form.json"
        f.write_text(json.dumps(
            {"vars": 1, "terms": [{"coeff": coeff, "d": ["x1"]}]}))
        return run_quiet(["derham-closed", "--form", str(f)])[0]

    t0 = time.perf_counter()
    assert derham("1e-100000000") == 2
    assert time.perf_counter() - t0 < 1
    for bad in ("1.5", 1.5, True, None, " 1", "1_0", "1/0", "1e3", "0x10",
                "nan", "1/-2", ""):
        assert derham(bad) == 2, bad
    for good in (2, -3, "7", "-2/3", "+4", "10/4"):
        assert derham(good) == 0, good


def test_encoder_writes_int_and_fraction_alike():
    mono = ((("c", "x", 0), 2),)
    assert cli.enc_scalar(2) == cli.enc_scalar(Fraction(2)) == "2"
    assert cli.enc_scalar(Fraction(-3, 2)) == "-3/2"
    for c in (2, Fraction(2)):
        assert cli.enc_any({mono: c}) == [["2", [["c", "x", 0, 2]]]]
        assert cli.enc_any({(): {mono: c}}) == [
            {"z": [], "value": [["2", [["c", "x", 0, 2]]]]}
        ]
    # counts stay JSON numbers, bare Fractions become strings
    assert cli.enc_any({"checked": 3, "c": Fraction(1, 2)}) == {
        "checked": 3, "c": "1/2"}


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    # a bug must not exit 1, the code of a verified-false identity
    def boom(args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "cmd_fs_cohomology", boom)
    assert run(["fs-cohomology", "--m", "2"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    assert err[0].startswith("internal error: RuntimeError: injected fault")
    assert "test_cli.py" in err[0] and "in boom" in err[0]


# -- fuzz: malformed and small inputs never crash ------------------------------------

def terms_of(d_sizes, nvars=3):
    """Well-formed terms over Q[x1..xn] with len(d) drawn from d_sizes."""
    names = st.sampled_from([f"x{i}" for i in range(1, nvars + 1)])
    term = st.fixed_dictionaries({
        "coeff": st.sampled_from(["1", "-2/3", "5", 2]),
        "f": st.lists(st.tuples(names, st.integers(0, 2)).map(list),
                      max_size=2),
        "d": d_sizes.flatmap(
            lambda k: st.lists(names, min_size=k, max_size=k)),
    })
    return st.lists(term, min_size=1, max_size=3)


GOOD_FORM = st.fixed_dictionaries(
    {"vars": st.just(3), "terms": terms_of(st.integers(0, 3))})
# on four variables a 3-form need not be closed
GOOD_COCYCLE = st.fixed_dictionaries(
    {"vars": st.just(4),
     "three_form": st.fixed_dictionaries({"terms": terms_of(st.just(3), 4)})},
    optional={"two_form": st.fixed_dictionaries(
        {"terms": terms_of(st.just(2), 4)})},
)

# malformed inputs: wrong types, bad rationals, unknown names, terms of the
# wrong form degree, text that is not JSON
NAMES = st.sampled_from(["x1", "x2", "x3", "y", "", 1, None])
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1", "-2/3", "1/0", "abc", "", "1e3", "nan"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
EXPONENTS = st.one_of(st.integers(-1, 3), st.sampled_from(["2", 1.5, True]))
F_PART = st.one_of(
    st.lists(st.one_of(st.tuples(NAMES, EXPONENTS).map(list),
                       st.lists(NAMES, max_size=3), NAMES), max_size=3),
    NAMES,
)
TERM = st.one_of(
    st.fixed_dictionaries({}, optional={
        "coeff": COEFFS,
        "f": F_PART,
        "d": st.one_of(st.lists(NAMES, max_size=3), NAMES),
    }),
    COEFFS,
)
VARS = st.one_of(st.integers(-1, 3), st.sampled_from(["3", 2.5, True]))
BAD_FORM = st.one_of(
    st.fixed_dictionaries({}, optional={
        "vars": VARS,
        "terms": st.one_of(st.lists(TERM, max_size=4), TERM),
    }),
    st.lists(TERM, max_size=2),
    COEFFS,
)
BAD_COCYCLE = st.one_of(
    st.fixed_dictionaries({}, optional={
        "vars": VARS, "three_form": BAD_FORM, "two_form": BAD_FORM,
    }),
    st.fixed_dictionaries({
        "vars": st.just(3),
        "three_form": st.fixed_dictionaries(
            {"terms": terms_of(st.just(2))}),
    }),
    BAD_FORM,
)


def as_text(strategy):
    return st.one_of(strategy.map(json.dumps), st.text(max_size=12))


FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                database=None)


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_on_file(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        return run_quiet(argv + [str(path)])


def assert_contract(code, out, err, codes=(0, 1, 2)):
    assert code in codes, err
    assert "Traceback" not in err
    if code in (0, 1):
        assert json.loads(out)["ok"] is (code == 0)


@FUZZ
@given(data=GOOD_FORM.map(json.dumps))
def test_fuzz_derham_closed_good_forms(data):
    assert_contract(*run_on_file(["derham-closed", "--form"], data),
                    codes=(0, 1))


@FUZZ
@given(data=as_text(BAD_FORM))
def test_fuzz_derham_closed_malformed_forms(data):
    assert_contract(*run_on_file(["derham-closed", "--form"], data))


@FUZZ
@given(data=GOOD_COCYCLE.map(json.dumps))
def test_fuzz_algebroid_twist_good_cocycles(data):
    assert_contract(*run_on_file(
        ["algebroid-twist", "--check", "--cocycle"], data), codes=(0, 1))


@FUZZ
@given(data=as_text(BAD_COCYCLE), check=st.booleans())
def test_fuzz_algebroid_twist_malformed_cocycles(data, check):
    argv = ["algebroid-twist"] + (["--check"] if check else []) + ["--cocycle"]
    assert_contract(*run_on_file(argv, data))


@FUZZ
@given(m=st.integers(-1, 3), weight=st.integers(-1, 2),
       lo=st.integers(-3, 4), hi=st.integers(-3, 6))
def test_fuzz_fs_cohomology_windows(m, weight, lo, hi):
    assert_contract(*run_quiet([
        "fs-cohomology", "--m", str(m), "--max-weight", str(weight),
        "--min-charge", str(lo), "--max-charge", str(hi),
    ]))


@FUZZ
@given(nvars=st.integers(-1, 2), order=st.integers(-1, 1),
       degree=st.integers(-1, 2))
def test_fuzz_liestar_check_windows(nvars, order, degree):
    assert_contract(*run_quiet([
        "liestar-check", "--vars", str(nvars), "--jet-order", str(order),
        "--degree", str(degree),
    ]))
