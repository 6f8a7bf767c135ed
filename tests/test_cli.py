from __future__ import annotations

import json

import pytest

from divides import builtin_entries, divide_to_text, gen_a, gen_depth1, gen_e6, intmat
from divides.cli import main

from conftest import a1_mirrored_at_x0


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "a1.json"
    path.write_text(divide_to_text(gen_a(1).divide))
    code, out, _ = _run(capsys, "validate", str(path))
    assert code == 0
    assert "valid divide" in out


def test_validate_corrupted_slot(tmp_path, capsys):
    obj = json.loads(divide_to_text(gen_a(1).divide))
    obj["edges"][0]["ends"][0] = obj["edges"][1]["ends"][0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert "slot used twice" in err


def test_validate_rejects_a_map_failing_the_euler_relation(tmp_path, capsys):
    path = tmp_path / "mirrored.json"
    path.write_text(divide_to_text(a1_mirrored_at_x0()))
    code, out, err = _run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid: rotation system not planar-consistent: Euler relation fails")


def test_validate_missing_file(capsys):
    code, _, err = _run(capsys, "validate", "/nonexistent/divide.json")
    assert code == 3


def test_report_e6(tmp_path, capsys):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    out_json = tmp_path / "report.json"
    code, out, _ = _run(capsys, "report", str(path), "--json", str(out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    assert len(report["euler"]["arrows"]) == 9
    assert report["identity_suite"]["passed"] is True
    assert report["invariants"]["mu"] == 6
    assert "overall=pass" in out


def test_report_deterministic(tmp_path, capsys):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    d1, d2 = tmp_path / "g1.dot", tmp_path / "g2.dot"
    q1, q2 = tmp_path / "q1.dot", tmp_path / "q2.dot"
    assert main(["report", str(path), "--json", str(o1), "--dot-ag", str(d1),
                 "--dot-quiver", str(q1)]) == 0
    assert main(["report", str(path), "--json", str(o2), "--dot-ag", str(d2),
                 "--dot-quiver", str(q2)]) == 0
    capsys.readouterr()
    assert o1.read_bytes() == o2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()
    assert q1.read_bytes() == q2.read_bytes()


def test_report_reorder_still_passes(tmp_path, capsys):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    code, out, _ = _run(
        capsys, "report", str(path), "--reorder", "-:2,1", "--reorder", "0:3,1,2"
    )
    assert code == 0
    assert "overall=pass" in out


def test_report_rejects_an_invalid_permutation(tmp_path, capsys):
    path = tmp_path / "depth1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    code, out, err = _run(capsys, "report", str(path), "--reorder", "0:1,1")
    assert code == 2
    assert out == ""
    assert err == "invalid: invalid permutation for type '0': (1, 1)\n"


def test_report_rejects_a_type_reordered_twice(tmp_path, capsys):
    path = tmp_path / "depth1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    code, out, err = _run(capsys, "report", str(path),
                          "--reorder", "0:2,1,3,4,5,6", "--reorder", "0:1,2,3,4,5,6")
    assert code == 2
    assert out == ""
    assert err == "error: --reorder given twice for type '0'\n"


def test_report_rejects_an_unknown_reorder_type(tmp_path, capsys):
    path = tmp_path / "a3.json"
    path.write_text(divide_to_text(gen_a(3).divide))
    code, out, err = _run(capsys, "report", str(path), "--reorder", "x:1")
    assert (code, out, err) == (2, "", "error: bad --reorder spec 'x:1'\n")


@pytest.mark.parametrize("index", ["1_2", " 2", "+1", "\u0662"],
                         ids=["underscore", "space", "sign", "arabic-indic"])
def test_report_rejects_a_reorder_index_that_is_not_ascii_digits(tmp_path, capsys, index):
    # int() reads each of these as a number: "1_2" as 12
    path = tmp_path / "depth1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    spec = f"0:{index},1"
    code, out, err = _run(capsys, "report", str(path), "--reorder", spec)
    assert (code, out, err) == (2, "", f"error: bad --reorder spec {spec!r}\n")


def test_report_into_a_missing_directory_exits_3(tmp_path, capsys):
    path = tmp_path / "a3.json"
    path.write_text(divide_to_text(gen_a(3).divide))
    target = tmp_path / "missing" / "a3.report.json"
    code, out, err = _run(capsys, "report", str(path), "--json", str(target))
    assert code == 3
    assert err.startswith(f"error: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == [path]


def test_report_depth1_has_cone(tmp_path, capsys):
    from divides import gen_depth1

    path = tmp_path / "d1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    out_json = tmp_path / "report.json"
    code, out, _ = _run(capsys, "report", str(path), "--json", str(out_json))
    assert code == 0
    assert "cones=pass overall=pass" in out
    report = json.loads(out_json.read_text())
    cones = report["depth1_cones"]
    assert len(cones) == 1
    assert cones[0]["vertex"] == "v0_6"
    assert cones[0]["verdict"] == "pass"
    assert len(cones[0]["a_prime"]) == report["invariants"]["mu"]


def _fail_every_cone(monkeypatch):
    from divides import adapted

    real = adapted.depth1_cone
    monkeypatch.setattr(
        adapted, "depth1_cone", lambda *a: real(*a)._replace(passed=False)
    )


def test_report_summary_names_a_failed_cone(tmp_path, capsys, monkeypatch):
    _fail_every_cone(monkeypatch)
    path = tmp_path / "d1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    code, out, _ = _run(capsys, "report", str(path))
    assert code == 1
    assert "identity=pass adapted=pass certificate=pass cones=fail overall=fail" in out


def test_generate_families(capsys):
    code, out, _ = _run(capsys, "generate", "a", "1")
    assert code == 0 and '"mode": "map"' in out
    code, out, _ = _run(capsys, "generate", "e6")
    assert code == 0 and '"name": "e6"' in out
    code, out, _ = _run(capsys, "generate", "a")
    assert code == 2  # missing n


@pytest.mark.parametrize("family", ["e6", "depth1"])
def test_generate_rejects_an_unused_index(capsys, family):
    code, out, err = _run(capsys, "generate", family, "5")
    assert code == 2 and out == ""
    assert f"error: family '{family}' takes no index" in err


def test_report_beyond_the_largest_modulus_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(intmat, "coefficient_bound", lambda a: 1 << 4423)
    path = tmp_path / "a5.json"
    path.write_text(divide_to_text(gen_a(5).divide))
    code, out, err = _run(capsys, "report", str(path))
    assert code == 2 and out == ""
    assert err == (
        "invalid: characteristic polynomial: the coefficient bound 2B + 1 has 4425 bits, "
        "beyond the largest modulus 2^4423 - 1\n"
    )


def test_corpus_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))  # empty custom dir
    code, out, _ = _run(capsys, "corpus-run")
    assert code == 0
    assert "a12" in out and "e6" in out and "depth1" in out
    assert out.count("pass") >= 15  # 14 entries + total


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_corpus_run_rejects_a_corpus_dir_that_is_not_a_directory(capsys, monkeypatch, tmp_path, kind):
    path = tmp_path / "corpus"
    if kind == "file":
        path.write_text("")
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(path))
    code, out, err = _run(capsys, "corpus-run")
    assert code == 3 and out == ""
    assert err == f"error: DIVIDES_CORPUS_DIR={path} is not a directory\n"


def test_corpus_run_empty_corpus_dir_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", "")
    code, out, err = _run(capsys, "corpus-run")
    assert code == 0 and err == ""
    names = [e.name for e in builtin_entries()] + ["total"]
    assert [line.split()[0] for line in out.splitlines()] == names


def test_corpus_run_custom_entry(capsys, monkeypatch, tmp_path):
    (tmp_path / "mine.json").write_text(divide_to_text(gen_a(5).divide))
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "corpus-run")
    assert code == 0
    assert "mine.json" in out


def test_corpus_run_names_a_failed_verdict_of_a_custom_entry(capsys, monkeypatch, tmp_path):
    _fail_every_cone(monkeypatch)
    (tmp_path / "mine.json").write_text(divide_to_text(gen_depth1().divide))
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, out, err = _run(capsys, "corpus-run")
    assert code == 1
    assert "  mine.json: depth-1 cone check failed" in err.splitlines()
    assert [line.split()[:2] for line in out.splitlines() if line.startswith("mine.json")] == [
        ["mine.json", "fail"]
    ]


def test_corpus_run_bad_custom_entry(capsys, monkeypatch, tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, out, err = _run(capsys, "corpus-run")
    assert code == 1
    assert "broken.json" in out


def test_corpus_run_non_utf8_custom_entry(capsys, monkeypatch, tmp_path):
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{\"name\": \"caf\xe9\"")
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, out, err = _run(capsys, "corpus-run")
    assert code == 1
    assert "latin1.json" in out and "fail" in out
    assert "latin1.json: not valid JSON" in err


def test_corpus_run_unreadable_custom_entry(capsys, monkeypatch, tmp_path):
    (tmp_path / "folder.json").mkdir()
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, _, err = _run(capsys, "corpus-run")
    assert code == 3
    assert "cannot read" in err and "folder.json" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_reorder_value_as_separate_token(tmp_path, capsys):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    joined, split = tmp_path / "joined.json", tmp_path / "split.json"
    assert main(["report", str(path), "--reorder=-:2,1", "--json", str(joined)]) == 0
    assert main(["report", str(path), "--reorder", "-:2,1", "--json", str(split)]) == 0
    capsys.readouterr()
    assert split.read_bytes() == joined.read_bytes()

    assert main(["report", str(path), "--reorder"]) == 2

    code, _, err = _run(capsys, "report", str(path), "--reorder", "-x")
    assert code == 2
    assert "bad --reorder spec" in err


def test_usage_errors_return_invalid(tmp_path, capsys):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    for argv in ([], ["report"], ["report", str(path), "--json"],
                 ["report", str(path), "--json", "--dot-ag", "g.dot"], ["bogus"]):
        code, _, err = _run(capsys, *argv)
        assert code == 2, argv
        assert "usage:" in err


def test_value_options_take_dash_tokens(tmp_path, capsys, monkeypatch):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(capsys, "report", str(path), "--json", "-out.json",
                      "--dot-ag", "-ag.dot", "--dot-quiver", "-quiver.dot")
    assert code == 0
    assert json.loads((tmp_path / "-out.json").read_text())["invariants"]["mu"] == 6
    assert (tmp_path / "-ag.dot").read_text().startswith("graph")
    assert (tmp_path / "-quiver.dot").read_text().startswith("digraph")
    code, out, _ = _run(capsys, "report", str(path), "--json", "-")
    assert code == 0
    assert json.loads(out[: out.rindex("}") + 1])["invariants"]["mu"] == 6
    code, _, _ = _run(capsys, "report", str(path), "--js", "-short.json", "--reo", "-:2,1")
    assert code == 0
    assert (tmp_path / "-short.json").read_bytes() != (tmp_path / "-out.json").read_bytes()
    code, _, err = _run(capsys, "report", str(path), "--dot", "-x.dot")
    assert code == 2
    assert "ambiguous option" in err


def test_report_to_stdout_is_exactly_the_report(tmp_path, capsys):
    path = tmp_path / "depth1.json"
    path.write_text(divide_to_text(gen_depth1().divide))
    code, out, err = _run(capsys, "report", str(path), "--json", "-")
    assert code == 0
    code, _, _ = _run(capsys, "report", str(path), "--json", str(tmp_path / "r.json"))
    assert code == 0
    assert out.encode() == (tmp_path / "r.json").read_bytes()
    assert json.loads(out)["invariants"]["mu"] == 10
    assert err.startswith("depth1: mu=10 ") and err.rstrip().endswith("overall=pass")


@pytest.mark.parametrize("option", ["--dot-ag", "--dot-quiver"])
def test_dot_to_stdout_is_exactly_the_dot(tmp_path, capsys, option):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    code, out, err = _run(capsys, "report", str(path), option, "-")
    assert code == 0
    code, _, _ = _run(capsys, "report", str(path), option, str(tmp_path / "g.dot"))
    assert code == 0
    assert out.encode() == (tmp_path / "g.dot").read_bytes()
    assert out.endswith("}\n")
    assert err.startswith("e6: mu=6 ") and err.rstrip().endswith("overall=pass")


@pytest.mark.parametrize(
    "argv, option",
    [(["--json", ""], "--json"), (["--json="], "--json"), (["--js", ""], "--json"),
     (["--dot-ag", ""], "--dot-ag"), (["--dot-ag="], "--dot-ag"),
     (["--dot-quiver", ""], "--dot-quiver"), (["--json", "-", "--dot-quiver="], "--dot-quiver")],
    ids=["json", "json=", "js", "dot-ag", "dot-ag=", "dot-quiver", "dot-quiver=-after-json-stdout"],
)
def test_an_empty_output_path_is_refused(tmp_path, capsys, argv, option):
    # refused before the divide file is read, as a file that is there or not
    path = tmp_path / "a3.json"
    path.write_text(divide_to_text(gen_a(3).divide))
    for divide_path in (path, tmp_path / "missing.json"):
        code, out, err = _run(capsys, "report", str(divide_path), *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {option} needs a file path or '-'\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "dashes",
    [("--json", "--dot-ag"), ("--json", "--dot-quiver"), ("--dot-ag", "--dot-quiver"),
     ("--json", "--dot-ag", "--dot-quiver")],
)
def test_two_documents_on_stdout_are_refused(tmp_path, capsys, dashes):
    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    argv = [tok for option in dashes for tok in (option, "-")]
    code, out, err = _run(capsys, "report", str(path), *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_mu_zero_rejected_alike_by_validate_and_report(tmp_path, capsys):
    chord = {
        "name": "chord",
        "mode": "polyline",
        "branches": [{"points": [[-12, 0], [12, 0]], "closed": False}],
        "disc_radius": 10,
        "sign_seed": {"point": [0, 5], "sign": "+"},
    }
    as_map = {
        "name": "chord",
        "mode": "map",
        "double_points": [],
        "terminals": ["t0", "t1"],
        "edges": [{"id": "e0", "ends": [["t1", 0], ["t0", 0]]}],
        "branches": [["e0"]],
        "sign_seed": {"edge": "e0", "side": "left", "sign": "+"},
    }
    for obj in (chord, as_map):
        path = tmp_path / "chord.json"
        path.write_text(json.dumps(obj))
        code_v, _, err_v = _run(capsys, "validate", str(path))
        code_r, _, err_r = _run(capsys, "report", str(path))
        assert code_v == code_r == 2
        assert err_v == err_r
        assert "mu = 0" in err_v


def test_back_to_back_calls_share_no_parsed_state(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; the values one call parses
    never reach the next: ``--reorder`` does not accumulate and ``--json``
    does not carry over.  --help and --version still exit 0."""
    from divides import cli

    path = tmp_path / "e6.json"
    path.write_text(divide_to_text(gen_e6().divide))
    seen = []
    real = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda divide, reorder: seen.append(reorder) or real(divide, reorder))
    assert _run(capsys, "report", str(path), "--reorder", "-:2,1", "--json", "-")[0] == 0
    assert _run(capsys, "report", str(path), "--reorder", "0:3,1,2")[0] == 0
    code, out, err = _run(capsys, "report", str(path))
    assert code == 0
    assert seen == [{"-": (2, 1)}, {"0": (3, 1, 2)}, None]
    assert out.startswith("e6: mu=6 ") and len(out.splitlines()) == 1 and err == ""
    assert cli._parser() is cli._parser()
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
    assert "usage: divides" in capsys.readouterr().out
