"""CLI surface: JSON schema, table output, determinism, error handling."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from hgptsym import cli, hgpt


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


class TestSchema:
    def test_envelope_fields(self, capsys):
        doc = run_json(capsys, ["molien", "--group", "D4", "--max-degree", "5"])
        assert set(doc) >= {"schema_version", "tool_version", "inputs", "result"}
        assert doc["schema_version"] == 1
        assert doc["inputs"]["group"] == "D4"

    def test_determinism(self, capsys):
        argv = ["invariants", "--group", "C4", "--p", "1", "--q", "1",
                "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parser_built_once_and_defaults_do_not_carry_over(self, capsys):
        base = ["invariants", "--group", "C4", "--p", "1", "--q", "1"]
        first = run_json(capsys, base + ["--style", "orthonormal"])
        code, table, _ = run(capsys, base + ["--format", "table"])
        assert code == 0 and table.startswith("p  q  dim")
        code, out, _ = run(capsys, base)     # no --format: json when not a tty
        second = json.loads(out)
        assert code == 0
        assert first["inputs"]["style"] == "orthonormal"
        assert second["inputs"]["style"] == "integer"
        assert cli._parser() is cli._parser()


class TestSubcommands:
    def test_group(self, capsys):
        doc = run_json(capsys, ["group", "--name", "Oi"])
        assert doc["result"]["order"] == 48
        assert doc["result"]["verified"] is True
        assert doc["result"]["improper"] == 24

    @pytest.mark.parametrize("name,rotations,improper", [
        ("I", 60, 0), ("Ii", 60, 60), ("type3:O/T", 12, 12), ("C1", 1, 0)])
    def test_group_counts_rotations_by_determinant(self, capsys, name, rotations, improper):
        doc = run_json(capsys, ["group", "--name", name])["result"]
        assert (doc["rotations"], doc["improper"]) == (rotations, improper)
        assert doc["verified"] is True

    def test_harmonic_basis(self, capsys):
        doc = run_json(capsys, ["harmonic-basis", "--degree", "2"])
        assert len(doc["result"]["polynomials"]) == 5

    def test_basis_change(self, capsys):
        doc = run_json(capsys, ["basis-change", "--degree", "1"])
        assert doc["result"]["unitarity_residual"] < 1e-10
        assert len(doc["result"]["matrix"]) == 3

    def test_invariants_c4(self, capsys):
        doc = run_json(capsys, ["invariants", "--group", "C4",
                                "--p", "1", "--q", "1"])
        assert doc["result"]["dimension"] == 2
        assert doc["result"]["basis"] == ["1*x1*y1 + 1*x2*y2", "1*x3*y3"]

    def test_invariants_table_format(self, capsys):
        code, out, _ = run(capsys, ["invariants", "--group", "C4", "--p", "1",
                                    "--q", "1", "--format", "table"])
        assert code == 0
        assert "dim" in out and "x3*y3" in out

    def test_c7_stabilizes_to_c6(self, capsys):
        d7 = run_json(capsys, ["invariants", "--group", "C7",
                               "--p", "1", "--q", "1"])
        d6 = run_json(capsys, ["invariants", "--group", "C6",
                               "--p", "1", "--q", "1"])
        assert d7["result"]["dimension"] == d6["result"]["dimension"] == 2

    def test_invariant_harmonics(self, capsys):
        doc = run_json(capsys, ["invariant-harmonics", "--group", "D4",
                                "--degree", "4"])
        assert doc["result"]["dimension"] == 2

    def test_molien(self, capsys):
        doc = run_json(capsys, ["molien", "--group", "D4", "--max-degree", "5"])
        assert doc["result"]["h"] == [1, 0, 1, 0, 2, 1]


class TestForwardAndPattern:
    @pytest.fixture
    def blocks_file(self, tmp_path):
        path = tmp_path / "blocks.json"
        doc = {"blocks": [{"p": 1, "q": 1, "basis_style": "orthonormal",
                           "entries": list(np.eye(3).ravel())}]}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_forward(self, capsys, blocks_file):
        doc = run_json(capsys, ["forward", "--blocks", blocks_file,
                                "--source", "0,0,2", "--receiver", "0,0,2"])
        assert doc["result"]["voltage"] == pytest.approx(3 / (64 * np.pi))

    def test_forward_nmax_filters(self, capsys, blocks_file):
        doc = run_json(capsys, ["forward", "--blocks", blocks_file,
                                "--source", "0,0,2", "--receiver", "0,0,2",
                                "--nmax", "0"])
        assert doc["result"]["blocks_used"] == 0

    def test_pattern_residual(self, capsys, blocks_file):
        doc = run_json(capsys, ["pattern-residual", "--blocks", blocks_file,
                                "--group", "C4"])
        assert doc["result"]["residuals"][0]["residual"] < 1e-9

    def test_pattern_residual_near_the_float_limit_is_finite(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('[{"p": 1, "q": 1, "entries": [1e300, 2e300, 3e300, -1e300, 1e300, '
                        '5e300, 1e300, 1e300, 7e300]}]')
        for group, want in (("C1", 3.8079e300), ("C4", 6.4031e300), ("O", 8.0623e300)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, ["pattern-residual", "--blocks", str(path),
                                              "--group", group, "--format", "json"])
            assert code == 0 and err == "" and "Infinity" not in out
            res = json.loads(out)["result"]["residuals"][0]["residual"]
            assert res == pytest.approx(want, rel=1e-4)

    def test_a_pattern_residual_that_overflows_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('[{"p": 1, "q": 1, "entries": [%s]}]' % ", ".join(["1.7e308"] * 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["pattern-residual", "--blocks", str(path),
                                          "--group", "C4"])
        assert code == 1 and out == ""
        assert err.startswith("error: the block overflows")


class TestRegenerateTables:
    def test_writes_documents_and_passes_goldens(self, capsys, tmp_path):
        out = str(tmp_path / "tables")
        doc = run_json(capsys, ["regenerate-tables", "--out", out])
        cells = doc["result"]["cells"]
        assert len(cells) == 13 * 4
        by_key = {(c["group"], c["p"], c["q"]): c["dimension"] for c in cells}
        assert by_key[("C2", 1, 1)] == 4
        assert by_key[("C6", 2, 2)] == 3
        one = json.loads((tmp_path / "tables" / "C4_S11.json").read_text())
        assert one["dimension"] == 2
        # the golden tables: sha256 of the 52 documents in filename order,
        # as `cat tables/*.json | sha256sum` reads them
        files = sorted((tmp_path / "tables").iterdir())
        assert len(files) == 52
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        assert digest == "78a1a4f43d7cd9237f55e82c044e4ecdbb1c57a299008f46616501f7a53240ea"

    def test_a_wrong_golden_dimension_fails_and_names_the_cell(self, capsys, tmp_path,
                                                              monkeypatch):
        monkeypatch.setattr(cli, "GOLDEN_DIMS", {"C4": {(1, 2): 4}})
        code, out, err = run(capsys, ["regenerate-tables", "--out", str(tmp_path / "t")])
        assert code == 1 and out == ""
        assert err == "error: golden-dimension mismatch: C4 (1,2): computed 3, table says 4\n"
        assert len(list((tmp_path / "t").iterdir())) == 52

    def test_every_wrong_golden_dimension_is_named_on_one_error_line(self, capsys, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr(cli, "GOLDEN_DIMS", {"C4": {(1, 2): 4}, "C6": {(2, 2): 5}})
        code, out, err = run(capsys, ["regenerate-tables", "--out", str(tmp_path / "t")])
        assert code == 1 and out == ""
        assert err == ("error: golden-dimension mismatch: C4 (1,2): computed 3, table says 4; "
                       "C6 (2,2): computed 3, table says 5\n")


def test_float_invariants_documents_pinned(capsys):
    """The float path's documents, byte for byte: sha256 of the JSON
    `invariants` documents for C3, D6 and I over 1 <= p <= q <= 4, in that
    order, each as the CLI prints it."""
    h = hashlib.sha256()
    for g in ("C3", "D6", "I"):
        for p in range(1, 5):
            for q in range(p, 5):
                code, out, err = run(capsys, ["invariants", "--group", g, "--p", str(p),
                                              "--q", str(q), "--format", "json"])
                assert code == 0, err
                h.update(out.encode())
    assert h.hexdigest() == "0d9164935acb6a8e9aff0fbb8eda0646ac017646ca465498326fc25adb9b8898"


def test_exact_invariants_documents_pinned(capsys):
    """The exact path's documents, byte for byte: sha256 of the JSON
    `invariants` documents for C2, C4, D2, D4, T, O and type3:O/T over the
    cells (1,1), (1,2), (1,3), (2,2), (2,3), (3,3), in that order, each as
    the CLI prints it.  Exact arithmetic makes the hash independent of numpy
    and BLAS."""
    h = hashlib.sha256()
    for g in ("C2", "C4", "D2", "D4", "T", "O", "type3:O/T"):
        for p, q in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
            code, out, err = run(capsys, ["invariants", "--group", g, "--p", str(p),
                                          "--q", str(q), "--format", "json"])
            assert code == 0, err
            h.update(out.encode())
    assert h.hexdigest() == "26a56144a5f7e2231f47f10c8926e45cd63898bff62db76edd22951093522b88"


class TestErrors:
    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, ["group", "--name", "X9"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("spec", ["type3:C4i/C4", "type3:C2i/C1i"])
    def test_type3_with_improper_groups_fails(self, capsys, spec):
        for argv in (["group", "--name", spec],
                     ["invariants", "--group", spec, "--p", "1", "--q", "1"]):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == ""
            assert "rotation groups" in err

    def test_missing_blocks_file(self, capsys):
        code, _, err = run(capsys, ["forward", "--blocks", "/nonexistent.json",
                                    "--source", "0,0,2", "--receiver", "0,0,2"])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "1e-3", "abc"])
    def test_the_trace_tolerance_is_not_read_from_the_environment(self, capsys, monkeypatch,
                                                                    value):
        argvs = [["molien", "--group", "C3", "--max-degree", "4", "--format", "json"],
                 ["invariants", "--group", "C3", "--p", "1", "--q", "1", "--format", "json"]]
        monkeypatch.delenv("HGPTSYM_TRACE_TOL", raising=False)
        want = [run(capsys, argv) for argv in argvs]
        monkeypatch.setenv("HGPTSYM_TRACE_TOL", value)
        got = [run(capsys, argv) for argv in argvs]
        assert got == want and all(code == 0 for code, _, _ in want)

    def test_negative_molien_degree(self, capsys):
        code, out, err = run(capsys, ["molien", "--group", "C4", "--max-degree", "-3"])
        assert code == 1 and out == ""
        assert "max degree" in err

    @pytest.mark.parametrize("argv", [
        ["invariants", "--group", "C4", "--p", "-1", "--q", "1"],
        ["basis-change", "--degree", "-1"],
    ])
    def test_negative_degree(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: degree must be non-negative, got -1\n"

    def test_a_point_needs_three_coordinates(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["forward", "--blocks", "b.json", "--source", "0,0", "--receiver", "0,0,2"])
        assert info.value.code == 2
        assert "expected x,y,z" in capsys.readouterr().err

    def test_negative_nmax(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"blocks": [{"p": 0, "q": 0, "entries": [1.0]}]}')
        code, out, err = run(capsys, ["forward", "--blocks", str(path), "--nmax", "-1",
                                      "--source", "0,0,2", "--receiver", "0,0,2"])
        assert code != 0 and out == ""
        assert "--nmax must be non-negative, got -1" in err

    def test_non_finite_block_entry(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"blocks": [{"p": 0, "q": 0, "entries": [NaN]}]}')
        code, out, err = run(capsys, ["forward", "--blocks", str(path),
                                      "--source", "0,0,2", "--receiver", "0,0,2"])
        assert code == 1 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("doc,message", [
        ('{"blocks": [{"p": 1.5, "q": 1, "entries": [2, 0, 0, 0, 2, 0, 0, 0, 7]}]}',
         "block 0: p must be an integer >= 0, got 1.5"),
        ('{"blocks": [{"p": 0, "q": 0, "entries": [1]}, {"p": true, "q": 0, "entries": [1]}]}',
         "block 1: p must be an integer >= 0, got True"),
        ('{"blocks": [{"p": 1, "entries": [2, 0, 0, 0, 2, 0, 0, 0, 7]}]}',
         "block 0: missing key 'q'"),
        ('[{"p": 0, "q": 0}]', "block 0: missing key 'entries'"),
        ('[{"p": 0, "q": 0, "entries": [1]}, 3]', "block 1: a block must be a JSON object"),
        ('{"blocks": 5}', "the blocks must be a JSON list of objects"),
        ('{"block": []}', "the blocks must be a JSON list of objects"),
        ('[{"p": 1, "q": 1, "basis_style": ["x"], "entries": [2, 0, 0, 0, 2, 0, 0, 0, 7]}]',
         "block 0: basis_style must be \"integer\" or \"orthonormal\", got ['x']"),
        ('[{"p": 0, "q": 0, "entries": [1]}, {"p": 0, "q": 0, "basis_style": "foo", '
         '"entries": [1]}]', "block 1: basis_style must be"),
        ('[{"p": 0, "q": 0, "basis_style": 3, "entries": [1]}]',
         "block 0: basis_style must be \"integer\" or \"orthonormal\", got 3"),
        ("not json", "Expecting value"),
        ("\xff\xfe", "can't decode byte 0xff"),
    ])
    def test_malformed_block_files_fail_loudly(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_bytes(doc.encode("latin-1"))     # one byte a character, not UTF-8
        for argv in (["forward", "--source", "0,0,2", "--receiver", "0,0,2"],
                     ["pattern-residual", "--group", "C4"]):
            code, out, err = run(capsys, argv + ["--blocks", str(path)])
            assert code == 1 and out == ""
            assert err.startswith("error: %s: " % path) and message in err

    @pytest.mark.parametrize("entries,message", [
        ("[1, 2, 3]", "entries must be (2p+1) x (2q+1)"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "entries must be numbers, in a flat list"),
        ('"5"', "entries must be numbers, in a flat list"),
        ("5", "entries must be numbers, in a flat list"),
        ("[true, 0, 0, 0, 1, 0, 0, 0, 1]", "entries must be numbers, in a flat list"),
        ("[[[1]]]", "entries must be numbers, in a flat list"),
        ("[1%s, 0, 0, 0, 1, 0, 0, 0, 1]" % ("0" * 400), "HGPT entries must be finite"),
    ], ids=["short", "nested", "string", "number", "bool", "deep", "huge-int"])
    def test_entries_outside_the_flat_list_of_numbers_are_refused(self, capsys, tmp_path,
                                                                  entries, message):
        path = tmp_path / "bad.json"
        path.write_text('[{"p": 1, "q": 1, "entries": %s}]' % entries)
        for argv in (["forward", "--source", "0,0,2", "--receiver", "0,0,2"],
                     ["pattern-residual", "--group", "C4"]):
            code, out, err = run(capsys, argv + ["--blocks", str(path)])
            assert code == 1 and out == ""
            assert err == "error: %s: block 0: %s\n" % (path, message)

    def test_a_block_filtered_out_by_nmax_is_still_checked(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"p": 0, "q": 0, "entries": [1]}, '
                        '{"p": 1, "q": 0, "basis_style": "foo", "entries": [0, 0, 0]}]')
        code, out, err = run(capsys, ["forward", "--blocks", str(path), "--nmax", "0",
                                      "--source", "0,0,2", "--receiver", "0,0,2"])
        assert code == 1 and out == ""
        assert err.startswith("error: %s: block 1: basis_style must be" % path)

    def test_non_finite_point(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('{"blocks": [{"p": 0, "q": 0, "entries": [1.0]}]}')
        code, out, err = run(capsys, ["forward", "--blocks", str(path),
                                      "--source", "nan,0,2", "--receiver", "0,0,2"])
        assert code == 1 and out == ""
        assert "finite" in err

    def test_a_point_near_the_origin_is_an_error_without_warnings(self, capsys, tmp_path):
        path = tmp_path / "blocks.json"
        path.write_text('{"blocks": [{"p": 1, "q": 1, "entries": [2, 0, 0, 0, 2, 0, 0, 0, 7]}]}')
        size = hgpt._kvector.cache_info().currsize
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["forward", "--blocks", str(path), "--format", "json",
                                          "--source", "1e-120,0,0", "--receiver", "0,0,1e-120"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "away from the origin" in err
        assert hgpt._kvector.cache_info().currsize == size


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


class TestJsonWriter:
    @pytest.mark.parametrize("value", [
        {}, [], {"a": [], "b": {}}, [[[]]], (1, (2,)), "", "é ☃ \U0001F600 \n\t\"\\ \x00",
        -0.0, 0.0, 1e-320, 1.7976931348623157e308,
        0.1, 3, -2 ** 70, True, False, None, np.float64(0.25),
        {"z": [1, {"y": None, "x": [0.5, -0.0]}], "a": "α", "é": [True]}])
    def test_edge_values_match_json_dumps(self, value):
        assert cli._json(value) == _dumps(value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), np.float64("nan"),
        {"z": [1, {"x": [float("inf"), -0.0]}]}])
    def test_non_finite_numbers_are_refused(self, value):
        with pytest.raises(ValueError, match="only finite numbers"):
            cli._json(value)

    def test_a_non_finite_result_is_an_error_and_no_document(self, capsys, monkeypatch,
                                                             tmp_path):
        path = tmp_path / "one.json"
        path.write_text('[{"p": 0, "q": 0, "entries": [1.0]}]')
        monkeypatch.setattr(hgpt, "forward_voltage", lambda *args: math.nan)
        code, out, err = run(capsys, ["forward", "--blocks", str(path), "--format", "json",
                                      "--source", "0,0,2", "--receiver", "0,0,2"])
        assert code == 1 and out == ""
        assert err == "error: a document holds only finite numbers, got nan\n"

    def test_unserialisable_value_raises_like_json(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json({"a": {1, 2}})

    def test_every_document_matches_json_dumps(self, capsys, tmp_path):
        blocks = tmp_path / "blocks.json"
        blocks.write_text(json.dumps({"blocks": [{"p": 1, "q": 1, "basis_style": "orthonormal",
                                                  "entries": list(np.eye(3).ravel())}]}))
        for argv in (["group", "--name", "I"],
                     ["harmonic-basis", "--degree", "2", "--style", "orthonormal"],
                     ["basis-change", "--degree", "2"],
                     ["invariant-harmonics", "--group", "I", "--degree", "6"],
                     ["invariants", "--group", "D6", "--p", "2", "--q", "3"],
                     ["invariants", "--group", "C4", "--p", "1", "--q", "2"],
                     ["molien", "--group", "O", "--max-degree", "6"],
                     ["forward", "--blocks", str(blocks), "--source", "0,0,2",
                      "--receiver", "0,1,2"],
                     ["pattern-residual", "--blocks", str(blocks), "--group", "C4"]):
            code, out, err = run(capsys, argv + ["--format", "json"])
            assert code == 0, err
            assert out == _dumps(json.loads(out)) + "\n", argv
