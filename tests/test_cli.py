"""Tests for the command-line interface.

Oracles: exit-code contract (0 pass, 1 verified-false with witness,
2 usage error), byte-identical reports for a fixed seed, schema output,
and the documented example invocations.
"""

import json

import pytest

from chiralis import cli
from chiralis.cli import run


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


def test_borcherds_exhaustive_and_seeded(tmp_path):
    code, rep = report(
        tmp_path,
        "b1.json",
        ["borcherds-check", "--system", "bg", "--vars", "1",
         "--max-weight", "1", "--samples", "0"],
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


@pytest.mark.parametrize(
    "mode", [["--samples", "0"], ["--samples", "50", "--seed", "1"]],
    ids=["exhaustive", "random"],
)
def test_borcherds_failure_reports_witness(tmp_path, monkeypatch, mode):
    # doubling every 0-th product breaks the commutator formula, so both
    # the exhaustive and the sampled suite must exit 1 with the offending
    # difference as its witness
    class Faulty(cli.BGSystem):
        def nth(self, a, n, b):
            out = super().nth(a, n, b)
            return {k: 2 * c for k, c in out.items()} if n == 0 else out

    monkeypatch.setattr(cli, "BGSystem", Faulty)
    code, rep = report(
        tmp_path, "bf.json",
        ["borcherds-check", "--vars", "1", "--max-weight", "1", *mode],
    )
    assert code == 1 and rep["ok"] is False
    assert rep["failures"]
    assert all(f["difference"] for f in rep["failures"])


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
        ["algebroid-twist", "--base", "std", "--cocycle", str(cfile),
         "--check"],
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


def test_usage_errors():
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


def test_schema_flag(tmp_path):
    for cmd in ("fs-cohomology", "borcherds-check", "liestar-check",
                "linfty-check", "algebroid-twist",
                "chiral-infty-check", "derham-closed"):
        code, rep = report(tmp_path, f"s-{cmd}.json",
                           [cmd, "--schema"])
        assert code == 0 and rep["schema"]


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
