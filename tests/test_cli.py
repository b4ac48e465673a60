import json
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from trivalent import canonical_form, so3_eps, tensor_to_json_dict, theta, to_json_dict
from trivalent.cli import main


def schema(name):
    text = resources.files("trivalent").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestEval:
    def test_theta(self, capsys):
        code, out, _ = run(capsys, "eval", "--algebra", "so3", "--graph", "builtin:theta")
        assert code == 0 and out == "-6"

    def test_loop_abelian(self, capsys):
        code, out, _ = run(capsys, "eval", "--algebra", "abelian:4", "--graph", "builtin:loop")
        assert code == 0 and out == "4"

    def test_k4(self, capsys):
        code, out, _ = run(capsys, "eval", "--algebra", "so3", "--graph", "builtin:k4")
        assert code == 0 and out == "6"

    def test_complex_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--algebra", "sl2k", "--graph", "builtin:theta")
        assert code == 0
        re, im = out.split()
        assert abs(float(re) - 3) < 1e-9 and abs(float(im)) < 1e-9

    def test_graph_file(self, capsys, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(to_json_dict(theta())))
        code, out, _ = run(capsys, "eval", "--algebra", "so:4", "--graph", str(p))
        assert code == 0 and out == "-24"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--algebra", "so3", "--graph", "nope.json")
        assert code == 2 and err


class TestCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--algebra", "so3", "--all")
        assert code == 0
        assert "jacobi" in out and "pass" in out

    def test_json_reports_validate(self, capsys):
        code, out, _ = run(capsys, "check", "--algebra", "sl:2", "--all", "--json")
        assert code == 0
        reports = json.loads(out)
        rep_schema = schema("report.schema.json")
        for rep in reports:
            jsonschema.validate(rep, rep_schema)

    def test_exact_residuals_print_as_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--algebra", "so:4", "--all", "--json")
        assert code == 0
        assert [rep["residual"] for rep in json.loads(out)] == ["0", "0", "0"]

    def test_failing_check_exits_one(self, capsys, tmp_path):
        # cyclic-invariant but not antisymmetric tensor
        obj = {"dim": 2, "backend": "rational",
               "entries": [[0, 0, 0, 1, 1]]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check", "--algebra", str(p), "--as")
        assert code == 1


class TestDelta:
    def test_pid_passes_above_dim(self, capsys):
        code, out, _ = run(capsys, "delta", "--algebra", "so3", "--k", "4",
                           "--h", "builtin:pid")
        assert code == 0 and out == "0"

    def test_pid_fails_at_dim(self, capsys):
        code, out, _ = run(capsys, "delta", "--algebra", "so3", "--k", "3",
                           "--h", "builtin:pid")
        assert code == 1 and out == "6"

    def test_random_corpus_requires_seed(self, capsys):
        code, _, err = run(capsys, "delta", "--algebra", "abelian:2", "--k", "3",
                           "--corpus", "random:5")
        assert code == 2 and "seed" in err

    def test_random_corpus_report(self, capsys):
        code, out, _ = run(capsys, "delta", "--algebra", "abelian:2", "--k", "3",
                           "--corpus", "random:5", "--seed", "11", "--json")
        assert code == 0
        rep = json.loads(out)
        jsonschema.validate(rep, schema("report.schema.json"))
        assert rep["pass"] and rep["seed"] == 11

    @pytest.mark.parametrize("bad", [["--max-vertices", "-2"], ["--corpus", "random:-3"],
                                     ["--k", "-1"], ["--corpus", "walk:3"]])
    def test_bad_counts_are_usage_errors(self, capsys, bad):
        # the later of two occurrences of an option wins
        with pytest.raises(SystemExit) as info:
            main(["delta", "--algebra", "so3", "--k", "2", "--corpus", "random:3",
                  "--seed", "1", "--json", *bad])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert not out.out and bad[0] in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("spec, low", [("so:-2", 0), ("abelian:-1", 0), ("gl:-1", 0),
                                       ("sl:0", 1)])
def test_algebra_below_its_range_is_a_usage_error(capsys, spec, low):
    code, out, err = run(capsys, "eval", "--algebra", spec, "--graph", "builtin:theta")
    assert code == 2 and not out
    assert err == f"error: algebra {spec!r}: N must be at least {low}"


@pytest.mark.parametrize("spec", ["so:0", "abelian:0", "sl:1", "gl:0"])
def test_zero_dimensional_algebras_evaluate(capsys, spec):
    code, out, _ = run(capsys, "eval", "--algebra", spec, "--graph", "builtin:theta")
    assert code == 0 and out in ("0", "0 0")


class TestRank:
    def test_so3_one_leg(self, capsys):
        code, out, _ = run(capsys, "rank", "--weights", "so3", "--legs", "1",
                           "--max-vertices", "3")
        assert code == 0
        assert out == "rank 0 bound 3 (pass)"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "rank", "--weights", "so3", "--legs", "0",
                           "--max-vertices", "2", "--json")
        assert code == 0
        rep = json.loads(out)
        jsonschema.validate(rep, schema("report.schema.json"))
        assert rep["params"]["rank"] <= 1

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_corpus_must_be_positive(self, capsys, cap):
        with pytest.raises(SystemExit) as info:
            main(["rank", "--weights", "so3", "--legs", "2", "--max-vertices", "2",
                  "--max-corpus", cap, "--json"])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert not out.out and "--max-corpus" in out.err

    @pytest.mark.parametrize("command", ["rank", "enum"])
    @pytest.mark.parametrize("flag,other", [("--legs", "--max-vertices"),
                                            ("--max-vertices", "--legs")])
    def test_negative_counts_are_usage_errors(self, capsys, tmp_path, command, flag, other):
        extra = (["--weights", "so3", "--json"] if command == "rank"
                 else ["--out", str(tmp_path / "corpus")])
        with pytest.raises(SystemExit) as info:
            main([command, flag, "-1", other, "2", *extra])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert not out.out and flag in out.err and "Traceback" not in out.err
        assert not (tmp_path / "corpus").exists()

    def test_max_corpus_caps(self, capsys):
        code, out, _ = run(capsys, "rank", "--weights", "so3", "--legs", "2",
                           "--max-vertices", "2", "--max-corpus", "4", "--json")
        assert code == 0 and json.loads(out)["params"]["corpus"] == 4

    def test_table_weights(self, capsys, tmp_path):
        from trivalent import flip_vertex
        table = {
            "backend": "rational",
            "loop_value": 2,
            "entries": [
                {"code": canonical_form(theta()).hex(), "value": 7},
                {"code": canonical_form(flip_vertex(theta(), 0)).hex(), "value": 5},
            ],
        }
        p = tmp_path / "table.json"
        p.write_text(json.dumps(table))
        jsonschema.validate(table, schema("table.schema.json"))
        code, out, _ = run(capsys, "delta", "--algebra", str(p), "--k", "3",
                           "--h", "builtin:pid")
        # falling factorial with loop value 2: 2*1*0 = 0
        assert code == 0 and out == "0"

    def test_table_weights_rank(self, capsys, tmp_path):
        from trivalent import enumerate_fixed_diagrams
        corpus = enumerate_fixed_diagrams(0, 2)
        table = {
            "backend": "rational",
            "loop_value": 2,
            "entries": [{"code": c.hex(), "value": v}
                        for c, v in zip(corpus.codes, (7, 5, 1))],
        }
        p = tmp_path / "table.json"
        p.write_text(json.dumps(table))
        # zero-leg gluings are disjoint unions, so entries factor: rank 1 = 2^0
        code, out, _ = run(capsys, "rank", "--weights", str(p), "--legs", "0",
                           "--max-vertices", "2")
        assert code == 0 and out == "rank 1 bound 1 (pass)"


class TestGenEnumCanon:
    def test_gen_eval_round_trip(self, capsys, tmp_path):
        p = tmp_path / "so4.json"
        code, _, _ = run(capsys, "gen", "--algebra", "so:4", "--out", str(p))
        assert code == 0
        obj = json.loads(p.read_text())
        jsonschema.validate(obj, schema("tensor.schema.json"))
        code, out, _ = run(capsys, "eval", "--algebra", str(p), "--graph", "builtin:theta")
        assert code == 0 and out == "-24"

    def test_enum_writes_corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, _, _ = run(capsys, "enum", "--legs", "0", "--max-vertices", "2",
                         "--out", str(out_dir))
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index["files"]) == 3 == len(index["codes"])
        diagram_schema = schema("diagram.schema.json")
        for name in index["files"]:
            jsonschema.validate(json.loads((out_dir / name).read_text()), diagram_schema)

    def test_canon_matches_library(self, capsys, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(to_json_dict(theta())))
        code, out, _ = run(capsys, "canon", "--graph", str(p))
        assert code == 0 and out == canonical_form(theta()).hex()

    def test_gen_tensor_schema(self, capsys, tmp_path):
        p = tmp_path / "sl2k.json"
        run(capsys, "gen", "--algebra", "sl2k", "--out", str(p))
        jsonschema.validate(json.loads(p.read_text()), schema("tensor.schema.json"))
