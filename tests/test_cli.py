import json
from importlib import resources
from time import perf_counter

import pytest

jsonschema = pytest.importorskip("jsonschema")

from trivalent import canonical_form, so3_eps, tensor_to_json_dict, theta, to_json_dict
from trivalent import relations
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

    def test_sl3_k4_json(self, capsys):
        # sl(3) contracts in float64 up to its phase; the value leaves as [re, im]
        code, out, _ = run(capsys, "eval", "--algebra", "sl:3", "--graph", "builtin:k4", "--json")
        re, im = json.loads(out)["value"]
        assert code == 0 and abs(re - 144) <= 1e-12 * 144 and abs(im) <= 1e-12

    def test_graph_file(self, capsys, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text(json.dumps(to_json_dict(theta())))
        code, out, _ = run(capsys, "eval", "--algebra", "so:4", "--graph", str(p))
        assert code == 0 and out == "-24"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--algebra", "so3", "--graph", "nope.json")
        assert code == 2 and err

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        for text in ("{", json.dumps({"vertices": []}) + "x", json.dumps({"dim": 3}),
                     json.dumps({"dim": 2, "backend": "rational", "entries": 5})):
            p.write_text(text)
            code, out, err = run(capsys, "eval", "--algebra", str(p), "--graph", "builtin:theta")
            assert code == 2 and not out and err.startswith(f"error: {p}: ")
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv,text", [
        (["canon", "--graph"], '{"legs": 0, "loop_count": 1e400, "vertices": [], '
                               '"legs_map": {}, "edges": []}'),
        (["rank", "--legs", "0", "--max-vertices", "0", "--weights"],
         '{"backend": "rational", "loop_value": 1e400, "entries": []}'),
        (["eval", "--graph", "builtin:theta", "--algebra"],
         '{"dim": 1, "backend": "rational", "entries": [[0, 0, 0, 1, 0]]}'),
        (["rank", "--legs", "0", "--max-vertices", "0", "--weights"],
         '{"backend": "rational", "loop_value": [3, 0], "entries": []}'),
        (["eval", "--graph", "builtin:theta", "--algebra"],
         '{"dim": 2, "backend": "rational", "entries": [[5, 0, 0, 1, 1]]}'),
        (["eval", "--graph", "builtin:theta", "--algebra"],
         '{"dim": 3, "backend": "rational", "entries": '
         '[[-3, 1, 2, 1, 1], [1, 2, 0, 1, 1], [2, 0, 1, 1, 1]]}'),
        (["eval", "--graph", "builtin:theta", "--algebra"],
         '{"dim": 2.5, "backend": "rational", "entries": []}'),
        (["eval", "--graph", "builtin:theta", "--algebra"],
         '{"dim": 3, "backend": "rational", "entries": '
         '[[0, 1, 2, 2.5, 1], [1, 2, 0, 2.5, 1], [2, 0, 1, 2.5, 1]]}'),
        (["eval", "--algebra", "so3", "--graph"], '{"legs": 0, "loop_count": 1.5, '
                                                  '"vertices": [], "legs_map": {}, "edges": []}'),
        (["canon", "--graph"], '{"legs": 2.5, "loop_count": 0, "vertices": [], '
                               '"legs_map": {"1": "a", "2": "b"}, "edges": [["a", "b"]]}'),
        (["rank", "--legs", "0", "--max-vertices", "0", "--weights"],
         '{"backend": "rational", "loop_value": [2.5, 1], "entries": []}'),
    ], ids=["graph_1e400", "table_1e400", "tensor_zero_denominator", "table_zero_denominator",
            "tensor_index_too_large", "tensor_index_negative", "tensor_fractional_dim",
            "tensor_fractional_entry", "graph_fractional_loop_count", "graph_fractional_legs",
            "table_fractional_value"])
    def test_numbers_that_overflow_or_divide_by_zero_are_usage_errors(self, capsys, tmp_path,
                                                                      argv, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out, err = run(capsys, *argv, str(p))
        assert code == 2 and not out and err.startswith(f"error: {p}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["[1]", "3", "null", '"theta"', '{"legs_map": [1]}',
                                      '{"legs": 0, "loop_count": 0, "vertices": [], '
                                      '"legs_map": [1], "edges": []}'])
    def test_graph_file_not_an_object_is_usage_error(self, capsys, tmp_path, text):
        p = tmp_path / "arr.json"
        p.write_text(text)
        for argv in (["eval", "--algebra", "so3"], ["canon"]):
            code, out, err = run(capsys, *argv, "--graph", str(p))
            assert code == 2 and not out and err.startswith(f"error: {p}: ")
            assert "Traceback" not in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(c, g):
            raise KeyError("internal")

        monkeypatch.setattr("trivalent.cli.partition_function", broken)
        code, out, err = run(capsys, "eval", "--algebra", "so3", "--graph", "builtin:theta")
        assert code == 3 and not out
        assert "Traceback" in err and "KeyError: 'internal'" in err


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

    def test_sl3_json_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--algebra", "sl:3", "--all", "--json")
        reports = json.loads(out)
        assert code == 0 and [rep["check"] for rep in reports] == ["jacobi", "as", "ihx"]
        assert all(rep["pass"] and rep["residual"] < 1e-12 for rep in reports)

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

    def test_too_many_outcomes_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(relations, "DELTA_GUARD", 3)
        code, out, err = run(capsys, "delta", "--algebra", "so3", "--k", "3",
                             "--h", "builtin:pid")
        assert code == 2 and not out and err == "error: 4 outcomes (0! x 4) exceed the guard"

    @pytest.mark.parametrize("source", [["--h", "builtin:pid"],
                                        ["--corpus", "random:20", "--max-vertices", "4",
                                         "--seed", "1"]], ids=["pid", "corpus"])
    def test_so5_at_its_own_k(self, capsys, source):
        # so(5) has dimension 10: k = 11, past the 10! permutations a walk could take
        code, out, _ = run(capsys, "delta", "--algebra", "so:5", "--k", "11", *source, "--json")
        rep = json.loads(out)
        jsonschema.validate(rep, schema("report.schema.json"))
        assert code == 0 and rep["pass"] and rep["residual"] == "0"

    def test_complex_sums_on_the_scale_of_their_terms(self, capsys):
        # sl(3) at k = 9: the terms reach 1e8 and round off near 1e-8, over an absolute 1e-9
        code, out, _ = run(capsys, "delta", "--algebra", "sl:3", "--k", "9", "--corpus",
                           "random:20", "--max-vertices", "4", "--seed", "1", "--json")
        rep = json.loads(out)
        jsonschema.validate(rep, schema("report.schema.json"))
        assert code == 0 and rep["pass"]
        assert rep["params"]["tol"] == pytest.approx(1e-9 * rep["params"]["scale"])

    def test_complex_pid_fails_at_dim(self, capsys):
        code, out, _ = run(capsys, "delta", "--algebra", "sl:2", "--k", "3", "--h", "builtin:pid")
        assert code == 1 and out == "6 0"
        code, out, _ = run(capsys, "delta", "--algebra", "sl:2", "--k", "3", "--h", "builtin:pid",
                           "--json")
        params = json.loads(out)["params"]
        assert code == 1 and params["scale"] == 60 and params["tol"] == pytest.approx(6e-8)

    @pytest.mark.parametrize("tol,expect", [("0.2", 1), ("6", 0)])
    def test_explicit_tol_is_absolute(self, capsys, tol, expect):
        # |6| against 0.2 fails, where 0.2 times the terms' size 60 would pass
        code, out, _ = run(capsys, "delta", "--algebra", "sl:2", "--k", "3", "--h", "builtin:pid",
                           "--tol", tol, "--json")
        assert code == expect and json.loads(out)["params"]["tol"] == float(tol)

    @pytest.mark.parametrize("bad", [["--max-vertices", "-2"], ["--corpus", "random:-3"],
                                     ["--k", "-1"], ["--corpus", "walk:3"],
                                     ["--h", "bogus"]])
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


@pytest.mark.parametrize("spec", ["so:x", "abelian:1.5"])
def test_non_integer_algebra_n_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "eval", "--algebra", spec, "--graph", "builtin:theta")
    assert code == 2 and not out and "Traceback" not in err
    assert err == f"error: algebra {spec!r}: N must be an integer"


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

    def test_sl3_two_legs(self, capsys):
        code, out, _ = run(capsys, "rank", "--weights", "sl:3", "--legs", "2",
                           "--max-vertices", "3", "--json")
        rep = json.loads(out)
        assert code == 0 and rep["pass"]
        assert rep["params"] == {"legs": 2, "corpus": 9, "rank": 1, "bound": 64}

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

    def test_complex_loop_value_has_no_bound(self, capsys, tmp_path):
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"backend": "complex", "loop_value": [3, 1], "entries": []}))
        code, out, err = run(capsys, "rank", "--weights", str(p), "--legs", "2",
                             "--max-vertices", "0", "--json")
        assert code == 2 and not out and "no rank bound applies" in err

    @pytest.mark.parametrize("loop", ["Infinity", "-Infinity", "NaN", "[Infinity, 0]"])
    def test_infinite_complex_loop_value_has_no_bound(self, capsys, tmp_path, loop):
        p = tmp_path / "inf.json"
        p.write_text('{"backend": "complex", "loop_value": %s, "entries": []}' % loop)
        code, out, err = run(capsys, "rank", "--weights", str(p), "--legs", "0",
                             "--max-vertices", "0")
        assert code == 2 and not out and "no rank bound applies" in err
        assert "Traceback" not in err

    def test_unknown_backend_is_usage_error(self, capsys, tmp_path):
        # refused before an entry is read (delta) or missed (rank, empty table)
        p = tmp_path / "weird.json"
        entry = {"code": canonical_form(theta()).hex(), "value": 6}
        for entries, argv in (([entry], ["delta", "--algebra", str(p), "--k", "1",
                                         "--h", "builtin:pid", "--json"]),
                              ([], ["rank", "--weights", str(p), "--legs", "0",
                                    "--max-vertices", "2"])):
            p.write_text(json.dumps({"backend": "weird", "loop_value": 3, "entries": entries}))
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "unknown backend 'weird'" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("backend", ["rational", "complex"])
    @pytest.mark.parametrize("value", [[], [1], [3, 1, 7]])
    @pytest.mark.parametrize("where", ["loop_value", "entry"])
    def test_value_not_a_pair_is_usage_error(self, capsys, tmp_path, backend, value, where):
        entry = {"code": canonical_form(theta()).hex(), "value": value if where == "entry" else 6}
        table = {"backend": backend, "loop_value": value if where == "loop_value" else 3,
                 "entries": [entry]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(table, schema("table.schema.json"))
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(table))
        code, out, err = run(capsys, "rank", "--weights", str(p), "--legs", "0",
                             "--max-vertices", "0")
        assert code == 2 and not out and str(p) in err and "Traceback" not in err

    def test_many_legs_exit_2_quickly(self, capsys):
        t0 = perf_counter()
        code, out, err = run(capsys, "rank", "--weights", "so3", "--legs", "12",
                             "--max-vertices", "6")
        assert code == 2 and not out and "more than 100000" in err
        assert "Traceback" not in err and perf_counter() - t0 < 5

    @pytest.mark.parametrize("legs", ["0", "1"])
    def test_huge_vertex_budget_exits_2(self, capsys, tmp_path, monkeypatch, legs):
        monkeypatch.setattr("trivalent.enumeration.MAX_CLASSES", 2000)
        code, out, err = run(capsys, "enum", "--legs", legs, "--max-vertices", "100000",
                             "--out", str(tmp_path / "corpus"))
        assert code == 2 and not out and "more than 2000" in err
        assert "Traceback" not in err and not (tmp_path / "corpus").exists()

    def test_max_corpus_caps(self, capsys):
        code, out, _ = run(capsys, "rank", "--weights", "so3", "--legs", "2",
                           "--max-vertices", "2", "--max-corpus", "4", "--json")
        assert code == 0 and json.loads(out)["params"]["corpus"] == 4

    @pytest.mark.parametrize("weights", ["so3", "sl2k"])
    def test_rank_of_the_factor_forms_no_matrix(self, capsys, monkeypatch, weights):
        # a rational, and a complex tensor real up to its phase, rank their factor A,
        # 101 x 9, so a limit just below the 101 x 101 matrix changes nothing
        argv = ["rank", "--weights", weights, "--legs", "2", "--max-vertices", "4", "--json"]
        code, expect, _ = run(capsys, *argv)
        assert code == 0 and json.loads(expect)["params"]["corpus"] == 101
        monkeypatch.setattr("trivalent.evaluation.MAX_ENTRIES", 101 * 101 - 1)
        assert run(capsys, *argv) == (0, expect, "")

    def test_table_matrix_over_the_limit_exits_2_before_gluing(self, capsys, tmp_path,
                                                               monkeypatch):
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"backend": "rational", "loop_value": 2, "entries": []}))
        monkeypatch.setattr("trivalent.evaluation.MAX_ENTRIES", 3 * 3 - 1)
        monkeypatch.setattr("trivalent.relations.glue", None)  # a gluing would exit 3
        code, out, err = run(capsys, "rank", "--weights", str(p), "--legs", "0",
                             "--max-vertices", "2")
        assert code == 2 and not out and "needs 3 x 3 = 9 entries" in err

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

    @pytest.mark.parametrize("lie", ["false", "true", 0, 1, 2.5, None, []],
                             ids=["str_false", "str_true", "zero", "one", "float", "null", "list"])
    def test_lie_not_a_boolean_is_usage_error(self, capsys, tmp_path, lie):
        obj = {"dim": 1, "backend": "rational", "lie": lie, "entries": []}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema("tensor.schema.json"))
        p = tmp_path / "lie.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "eval", "--algebra", str(p), "--graph", "builtin:theta")
        assert code == 2 and not out and str(p) in err and "Traceback" not in err

    def test_gen_tensor_schema(self, capsys, tmp_path):
        p = tmp_path / "sl2k.json"
        run(capsys, "gen", "--algebra", "sl2k", "--out", str(p))
        jsonschema.validate(json.loads(p.read_text()), schema("tensor.schema.json"))


class TestInputContract:
    """A loader refuses the keys its shipped schema refuses, in table entries too."""

    @pytest.mark.parametrize("kind,argv,obj", [
        ("diagram", ["canon", "--graph"],
         {k: v for k, v in to_json_dict(theta()).items() if k != "legs"}),
        ("diagram", ["canon", "--graph"], {**to_json_dict(theta()), "name": "theta"}),
        ("table", ["rank", "--legs", "0", "--max-vertices", "0", "--weights"],
         {"backend": "rational", "loop_value": 3}),
        ("table", ["rank", "--legs", "0", "--max-vertices", "0", "--weights"],
         {"backend": "rational", "loop_value": 3, "entries": [], "name": "t"}),
        ("tensor", ["eval", "--graph", "builtin:theta", "--algebra"],
         {**tensor_to_json_dict(so3_eps()), "name": "so3"}),
        ("table", ["delta", "--k", "2", "--h", "builtin:pid", "--algebra"],
         {"loop_value": 3, "entries": [{"code": canonical_form(theta()).hex(), "value": -6,
                                        "note": "x"}]}),
        ("table", ["delta", "--k", "2", "--h", "builtin:pid", "--algebra"],
         {"loop_value": 3, "entries": [canonical_form(theta()).hex()]}),
    ], ids=["diagram_without_legs", "diagram_extra_key", "table_without_entries",
            "table_extra_key", "tensor_extra_key", "table_entry_extra_key",
            "table_entry_not_an_object"])
    def test_schema_refusals_exit_2(self, capsys, tmp_path, kind, argv, obj):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema(f"{kind}.schema.json"))
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, *argv, str(p))
        assert code == 2 and not out and err.startswith(f"error: {p}: ")
        assert "Traceback" not in err

    def test_written_files_load(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        assert run(capsys, "enum", "--legs", "2", "--max-vertices", "2",
                   "--out", str(out_dir))[0] == 0
        index = json.loads((out_dir / "index.json").read_text())
        for name, code in zip(index["files"], index["codes"]):
            assert run(capsys, "canon", "--graph", str(out_dir / name)) == (0, code, "")
        p = tmp_path / "so4.json"
        assert run(capsys, "gen", "--algebra", "so:4", "--out", str(p))[0] == 0
        assert run(capsys, "eval", "--algebra", str(p), "--graph", "builtin:theta") == \
            (0, "-24", "")
