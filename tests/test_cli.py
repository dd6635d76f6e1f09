"""Command-line interface: verbs, formats, exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import chebknot
from chebknot.cli import main
from chebknot.harmonic import HarmonicSpec, classify
from chebknot.heights import HeightPolynomial
from chebknot.oracle import CurveSample


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text_output(capsys):
    code, out, _ = run(capsys, "expand", "9/7")
    assert code == 0
    assert out.strip() == "[1,1,1,-1,-1,-1,-1]  length=7  cn=6"


def test_expand_json_output(capsys):
    code, out, _ = run(capsys, "expand", "9/2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["terms"] == [1, 1, -1, -1, -1, 1, 1, -1, -1]
    assert rec["length"] == 9 and rec["crossing_number"] == 6


def test_expand_mirror_flag(capsys):
    code, out, _ = run(capsys, "expand", "-9/7")
    assert code == 0
    assert "(mirror)" in out


def test_expand_rejects_zero(capsys):
    code, _, err = run(capsys, "expand", "0/1")
    assert code == 2
    assert "usage" in err


def test_expand_rejects_garbage(capsys):
    code, _, err = run(capsys, "expand", "spam")
    assert code == 2


def test_unknown_verb_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate", "1/2")
    assert code == 2


def test_diagram_text_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    code, out, _ = run(capsys, "diagram", "9/2", "--svg", str(svg_path))
    assert code == 0
    assert "C(-1,-1,-1,1,1,1,1)" in out and "b=8" in out and "mirrored=true" in out
    tree = ET.parse(svg_path)
    ns = "{http://www.w3.org/2000/svg}"
    paths = tree.getroot().findall(f"{ns}path")
    # 7 undercross gaps cut the curve into 8 strands; the two gaps nearest
    # t = +-1 swallow the sub-pixel terminal stubs, leaving 6 drawn strands
    assert len(paths) == 6


def test_diagram_svg_to_an_unwritable_path_exits_2(tmp_path, capsys):
    for path in (str(tmp_path / "missing" / "x.svg"), ""):  # an empty path is not "no --svg"
        code, out, err = run(capsys, "diagram", "9/2", "--svg", path)
        assert code == 2
        assert out == "" and "usage" in err and f"cannot write {path!r}" in err


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "9/7", "--format", "json")
    rec = json.loads(out)
    assert rec == {
        "fraction": "9/7",
        "b": 8,
        "signs": [1, 1, 1, -1, -1, -1, -1],
        "mirrored": False,
    }


def test_param_json_schema(capsys):
    code, out, _ = run(capsys, "param", "7/2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["a"] == 3 and rec["b"] == 7 and rec["N"] == 5
    assert len(rec["z_roots"]) == 8
    assert rec["z_leading_sign"] in (1, -1)


def test_param_text_factored_form(capsys):
    code, out, _ = run(capsys, "param", "7/2")
    assert code == 0
    assert "deg(z)=8" in out and "(t" in out


def test_param_rejects_link(capsys):
    code, _, err = run(capsys, "param", "4/1")
    assert code == 1
    assert "link" in err


# With --format json an error is one object on stderr and nothing on stdout,
# whether a verb or argparse itself reported it; the exit codes are those of
# the text format.
@pytest.mark.parametrize(
    "argv, code, error",
    [
        (("expand", "spam"), 2, "UsageError"),
        (("expand", "0/1"), 2, "UsageError"),
        (("param", "4/1"), 1, "IsLink"),
        (("verify", "3/3"), 2, "UsageError"),
        (("harmonic", "3", "4", "7"), 1, "TrivialKnot"),
        (("harmonic", "3", "6", "7"), 1, "NotPairwiseCoprime"),
        (("family", "torus", "0"), 1, "IndexOutOfRange"),
        (("harmonic", "3", "x", "5"), 2, "UsageError"),
        (("param",), 2, "UsageError"),
        (("frobnicate", "1/2"), 2, "UsageError"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_json_errors_are_one_object_on_stderr(capsys, argv, code, error):
    got, out, err = run(capsys, *argv, "--format", "json")
    assert (got, out) == (code, "")
    assert err.endswith("\n") and err.count("\n") == 1
    rec = json.loads(err)
    assert set(rec) == {"error", "message"} and rec["error"] == error
    assert isinstance(rec["message"], str) and rec["message"]
    text_code, _, text_err = run(capsys, *argv)
    assert text_code == code and rec["message"] in text_err


@pytest.mark.parametrize(
    "argv, err",
    [
        (("harmonic", "3", "x", "5"),
         "usage: chebknot harmonic [-h] [--format {text,json}] a b c\n"
         "chebknot harmonic: error: argument b: invalid int value: 'x'\n"),
        (("diagram",),
         "usage: chebknot diagram [-h] [--svg PATH] [--format {text,json}] fraction\n"
         "chebknot diagram: error: the following arguments are required: fraction\n"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_argparse_errors_keep_their_text(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: chebknot [-h]")


def test_json_error_for_an_unwritable_svg_path(tmp_path, capsys):
    for path in (str(tmp_path), ""):
        code, out, err = run(capsys, "diagram", "9/2", "--svg", path, "--format", "json")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "UsageError"


def test_harmonic_verb(capsys):
    code, out, _ = run(capsys, "harmonic", "3", "31", "43")
    assert code == 0
    assert "(5,7)" in out and "N=4" in out and "fraction=5/3" in out


def test_harmonic_json(capsys):
    code, out, _ = run(capsys, "harmonic", "3", "31", "43", "--format", "json")
    rec = json.loads(out)
    assert rec["b_canon"] == 5 and rec["c_canon"] == 7
    assert rec["alpha"] == 5 and rec["beta"] == 3 and rec["N"] == 4
    assert rec["amphicheiral"] is True


def test_harmonic_prints_a_fraction_beyond_the_int_digit_limit(capsys):
    # H(3, 98609, 72889) has N = 57,166 and a fraction of more than 4,300 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, _ = run(capsys, "harmonic", "3", "98609", "72889", "--format", "json")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit  # restored
    assert len(out) > 2 * 4300
    assert '"b_canon": 72889, "c_canon": 98609' in out and '"N": 57166' in out
    code, out, _ = run(capsys, "harmonic", "3", "98609", "72889")
    assert code == 0 and "(72889,98609)  N=57166  fraction=" in out


def test_harmonic_trivial_is_domain_error(capsys):
    code, _, err = run(capsys, "harmonic", "3", "4", "7")
    assert code == 1
    assert "unknot" in err


def test_atlas_deterministic_and_sorted(tmp_path, capsys):
    out_path = tmp_path / "atlas.ndjson"
    code, out, _ = run(capsys, "atlas", "--b-max", "10", "--c-max", "10", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records == sorted(records, key=lambda r: (r["b"], r["c"]))
    assert all(
        set(r) == {"a", "b", "c", "b_canon", "c_canon", "mirror", "alpha", "beta", "N", "amphicheiral"}
        for r in records
    )
    # determinism
    out_path2 = tmp_path / "atlas2.ndjson"
    run(capsys, "atlas", "--b-max", "10", "--c-max", "10", "--out", str(out_path2))
    assert out_path.read_text() == out_path2.read_text()
    # spot check: the figure-eight pair is present and amphicheiral
    rec = next(r for r in records if (r["b"], r["c"]) == (5, 7))
    assert rec["alpha"] == 5 and rec["amphicheiral"]


def test_atlas_to_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "atlas", "--b-max", "5", "--c-max", "5", "--out", str(tmp_path))
    assert code == 2
    assert out == "" and "usage" in err and f"cannot write {str(tmp_path)!r}" in err


def test_verify_verb(capsys):
    code, out, _ = run(capsys, "verify", "9/2")
    assert code == 0
    assert "OK" in out


def test_text_verify_builds_no_report(capsys, monkeypatch):
    def no_report(self):
        raise AssertionError("CurveSample.to_report called")

    monkeypatch.setattr(CurveSample, "to_report", no_report)
    code, out, _ = run(capsys, "verify", "2001/1")
    assert code == 0
    assert out.startswith("verify 2001/1: OK  b=3001  deg(z)=3002  min_margin=")


def test_json_param_builds_no_text(capsys, monkeypatch):
    def no_text(self, digits=6):
        raise AssertionError("HeightPolynomial.factored_text called")

    monkeypatch.setattr(HeightPolynomial, "factored_text", no_text)
    code, out, _ = run(capsys, "param", "2001/1", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["b"], len(rec["z_roots"]), rec["N"]) == (3001, 3002, 2001)


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "7/2", "--format", "json")
    rec = json.loads(out)
    assert rec["verdict"] is True
    assert rec["min_separation"] > 1e-6
    assert len(rec["crossings"]) == 6
    assert set(rec["crossings"][0]) == {"h", "k", "t", "s", "D_sign", "conway_sign"}


def test_family_verb(capsys):
    code, out, _ = run(capsys, "family", "stevedore", "1")
    assert code == 0
    assert "9/2" in out
    code, out, _ = run(capsys, "family", "fibonacci", "5", "--format", "json")
    rec = json.loads(out)
    assert rec["fraction"] == "5/3" and rec["amphicheiral"] is True
    code, _, _ = run(capsys, "family", "nonsense", "3")
    assert code == 2


def test_negative_beta_normalized(capsys):
    # S(9/-2) = S(9/7): same knot, same minimal diagram
    code, out, _ = run(capsys, "diagram", "-9/2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["b"] == 8 and rec["signs"] == [1, 1, 1, -1, -1, -1, -1]


def test_harmonic_json_is_the_canonical_record(capsys):
    code, out, _ = run(capsys, "harmonic", "3", "8", "7", "--format", "json")
    assert code == 0
    assert out.strip() == json.dumps(classify(HarmonicSpec(3, 8, 7)).to_json())


def test_atlas_records_are_the_canonical_json(tmp_path, capsys):
    out_path = tmp_path / "atlas.ndjson"
    code, out, _ = run(capsys, "atlas", "--b-max", "20", "--c-max", "20", "--out", str(out_path),
                       "--format", "json")
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert json.loads(out) == {"records": len(lines), "out": str(out_path)}
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(classify(HarmonicSpec(3, rec["b"], rec["c"])).to_json())


def test_module_entry_point_matches_in_process(capsys):
    src = Path(chebknot.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "chebknot", "expand", "9/7", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, out, _ = run(capsys, "expand", "9/7", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "") and code == 0
    assert proc.stdout == out and json.loads(out)["fraction"] == "9/7"


def test_canonical_harmonic_is_the_only_dataclass():
    # Every CLI call pays for `import chebknot`.  Records are plain slotted
    # classes because a dataclass runs generated code when it is created;
    # CanonicalHarmonic stays one because callers pass it to
    # dataclasses.replace.
    exported = [name for name in chebknot.__all__ if dataclasses.is_dataclass(getattr(chebknot, name))]
    assert exported == ["CanonicalHarmonic"]
