from __future__ import annotations

import json

import pytest

from divides import divide_to_text, gen_a, gen_e6
from divides.cli import main


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
    assert len(cones[0]["components"]) == 2


def test_report_summary_names_a_failed_cone(tmp_path, capsys, monkeypatch):
    import dataclasses

    from divides import adapted, gen_depth1

    real = adapted.depth1_cone
    monkeypatch.setattr(
        adapted, "depth1_cone", lambda *a: dataclasses.replace(real(*a), passed=False)
    )
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


def test_corpus_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))  # empty custom dir
    code, out, _ = _run(capsys, "corpus-run")
    assert code == 0
    assert "a12" in out and "e6" in out and "depth1" in out
    assert out.count("pass") >= 15  # 14 entries + total


def test_corpus_run_custom_entry(capsys, monkeypatch, tmp_path):
    (tmp_path / "mine.json").write_text(divide_to_text(gen_a(5).divide))
    monkeypatch.setenv("DIVIDES_CORPUS_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "corpus-run")
    assert code == 0
    assert "mine.json" in out


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
