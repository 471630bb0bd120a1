import json

import pytest

from tableaux import row_text
from tableaux.cli import main
from tableaux.verify import SUITES
from conftest import two_column


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRs:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "rs", "[2,5,1,4,3]")
        assert code == 0
        assert out == "1 3; 2 4; 5\n"

    def test_singleton(self, capsys):
        code, out, _ = run(capsys, "rs", "[1]")
        assert code == 0
        assert out == "1\n"

    def test_duplicate_exits_2(self, capsys):
        code, _, err = run(capsys, "rs", "[1,1]")
        assert code == 2
        assert "duplicate" in err


class TestCompare:
    def test_fast_less(self, capsys):
        # square vs one of its covers
        code, out, _ = run(capsys, "compare", "1 2; 3 4", "1 4; 2; 3",
                           "--order", "fast")
        assert code == 0
        assert out == "Less\n"

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "1 3; 2 4; 5", "1 3; 2 4; 5",
                           "--order", "chain")
        assert code == 0
        assert out == "Equal\n"

    def test_same_shape_incomparable(self, capsys):
        code, out, _ = run(capsys, "compare", "1 3; 2 4; 5", "1 4; 2 5; 3",
                           "--order", "fast")
        assert code == 0
        assert out == "Incomparable\n"

    def test_all_agree_on_two_column(self, capsys):
        code, out, _ = run(capsys, "compare", "1 2; 3 4", "1 2; 3; 4")
        assert code == 0
        assert out == "duflo: Less\nchain: Less\nfast: Less\ngeometric: Less\n"

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "compare", "1 2", "1 2; 3")
        assert code == 2
        assert "mismatch" in err

    def test_duflo_beyond_limit_refused(self, capsys):
        big = "1 2; 3 4; 5 6; 7 8; 9 10"
        code, _, err = run(capsys, "compare", big, big, "--order", "duflo")
        assert code == 2
        assert "limit 9" in err

    def test_duflo_at_the_ceiling_by_default(self, capsys):
        code, out, _ = run(capsys, "compare", "1 2 3; 4 5 6; 7 8 9", "1 2 5; 3 6 8; 4 7 9")
        assert code == 0
        assert out == ("duflo: Incomparable\nchain: Less\n"
                       "geometric: undetermined (between duflo and chain)\n")

    def test_proper_extension_pair_not_flagged(self, capsys):
        # chain relates this wide pair, duflo does not; that is expected
        code, out, _ = run(capsys, "compare", "1 2 3; 4 5 6", "1 2 5; 3 6; 4")
        assert code == 0
        assert "duflo: Incomparable" in out
        assert "chain: Less" in out
        assert "geometric: undetermined" in out

    def test_all_beyond_duflo_cap_keeps_chain_and_fast(self, capsys):
        code, out, _ = run(capsys, "compare", "1 2; 3 4; 5 6; 7 8; 9 10",
                           "1 2; 3 4; 5 6; 7 8; 9; 10")
        assert code == 0
        assert out == ("duflo: unavailable (limit 9)\nchain: Less\nfast: Less\n"
                       "geometric: undetermined (duflo unavailable)\n")

    def test_all_beyond_duflo_cap_wide_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "1 2 3 4 5; 6 7 8 9 10",
                           "1 2 3 4 9; 5 10; 6; 7; 8")
        assert code == 0
        assert out.splitlines()[:2] == ["duflo: unavailable (limit 9)", "chain: Less"]
        assert "fast:" not in out


class TestLimits:
    def test_negative_env_limit_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "-3")
        code, out, err = run(capsys, "poset", "3", "--kind", "chain")
        assert code == 2
        assert out == ""
        assert "TABLEAUX_LIMIT_N must be a non-negative integer, got '-3'" in err

    def test_negative_flag_limit_rejected(self, capsys):
        code, _, err = run(capsys, "--limit-n", "-1", "poset", "3", "--kind", "chain")
        assert code == 2
        assert "non-negative" in err


class TestWord:
    def test_worked_tableau(self, capsys):
        code, out, _ = run(capsys, "word", "1 3; 2 5; 4 6; 7")
        assert code == 0
        assert out == "[7,4,6,2,5,1,3]\n"

    def test_single_box(self, capsys):
        code, out, _ = run(capsys, "word", "1")
        assert code == 0
        assert out == "[1]\n"

    def test_two_row_variant(self, capsys):
        code, out, _ = run(capsys, "word", "1 2 4; 3 5", "--rows")
        assert code == 0
        assert out.startswith("[") and code == 0

    def test_two_row_variant_rejects_three_rows(self, capsys):
        code, _, err = run(capsys, "word", "1 2; 3; 4", "--rows")
        assert code == 2
        assert "more than two rows" in err

    def test_wide_shape_rejected(self, capsys):
        # three columns and three rows
        code, _, err = run(capsys, "word", "1 4 7; 2 5 8; 3 6 9")
        assert code == 2
        assert "scope" in err

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_through_rs(self, capsys, n):
        for t in two_column(n):
            code, out, _ = run(capsys, "word", row_text(t))
            assert code == 0
            code, out2, _ = run(capsys, "rs", out.strip())
            assert code == 0
            assert out2.strip() == row_text(t)


class TestCover:
    def test_worked_singleton(self, capsys):
        code, out, _ = run(capsys, "cover", "1 3; 2 5; 4 6; 7")
        assert code == 0
        assert out == "1 3; 2 5; 4; 6; 7\n"

    def test_maximal_empty(self, capsys):
        code, out, _ = run(capsys, "cover", "1; 2; 3")
        assert code == 0
        assert out == ""

    def test_square_two_elements(self, capsys):
        code, out, _ = run(capsys, "cover", "1 2; 3 4")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestJdtProjectCell:
    def test_jdt(self, capsys):
        code, out, _ = run(capsys, "jdt", "1 2 5; 3 4; 6", "1", "2")
        assert code == 0
        assert out == "3 4 5; 6\n"

    def test_project(self, capsys):
        code, out, _ = run(capsys, "project", "1 3; 2 4; 5", "1", "4")
        assert code == 0
        assert out == "1 3; 2 4\n"

    def test_cell(self, capsys):
        # rows "1 2; 3" is the tableau with 3 below 1, cell {132, 312}
        code, out, _ = run(capsys, "cell", "1 2; 3")
        assert code == 0
        assert out == "[1,3,2]\n[3,1,2]\n"


class TestPoset:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "poset", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n", "kind", "nodes", "hasse"}
        assert doc["n"] == 3
        assert doc["kind"] == "duflo"
        assert len(doc["nodes"]) == 4
        assert len(doc["hasse"]) == 4
        assert all(isinstance(x, str) for x in doc["nodes"])
        assert all(len(e) == 2 for e in doc["hasse"])

    def test_n2_dot(self, capsys):
        code, out, _ = run(capsys, "poset", "2", "--format", "dot")
        assert code == 0
        assert out.count("->") == 1
        assert '0 [label="1 2"];' in out

    def test_restrict_two_column(self, capsys):
        code, full, _ = run(capsys, "poset", "4", "--format", "json")
        code, sub, _ = run(capsys, "poset", "4", "--format", "json",
                           "--restrict", "two-column")
        assert len(json.loads(sub)["nodes"]) == 6
        assert len(json.loads(full)["nodes"]) == 10

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "poset.json"
        code, out, _ = run(capsys, "poset", "2", "--format", "json",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 2

    def test_output_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poset.json"
        code, out, err = run(capsys, "poset", "2", "--format", "json",
                             "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "missing" in err

    def test_limit(self, capsys):
        code, _, err = run(capsys, "poset", "10", "--kind", "duflo")
        assert code == 2
        assert "limit 9" in err


class TestVerify:
    def test_coincide_5(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "--suite", "coincide")
        assert code == 0
        assert "PASS coincide n=5" in out

    def test_extension_6(self, capsys):
        code, out, _ = run(capsys, "verify", "6", "--suite", "extension")
        assert code == 0
        assert "PASS extension n=6" in out
        assert "witness: T=" in out

    def test_all_at_4(self, capsys):
        code, out, _ = run(capsys, "verify", "4")
        assert code == 0
        assert "thm311" in out and "cor312" in out and "coincide" in out
        assert "extension" not in out

    def test_criterion_5(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "--suite", "criterion")
        assert code == 0
        assert "PASS criterion n=5 population=100" in out

    def test_thm311_at_7(self, capsys):
        code, out, _ = run(capsys, "verify", "7", "--suite", "thm311")
        assert code == 0
        assert "PASS thm311 n=7" in out

    def test_limit_n_caps_the_suites(self, capsys):
        code, _, err = run(capsys, "--limit-n", "6", "verify", "7", "--suite", "cor312")
        assert code == 2
        assert "limit 6" in err

    @pytest.mark.parametrize("suite", ["thm311", "criterion"])
    def test_two_column_suites_obey_the_cap(self, capsys, monkeypatch, suite):
        code, _, err = run(capsys, "--limit-n", "5", "verify", "6", "--suite", suite)
        assert code == 2 and "limit 5" in err
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "5")
        code, _, err = run(capsys, "verify", "6", "--suite", suite)
        assert code == 2 and "limit 5" in err

    def test_limit_n_raises_the_suites_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "5")
        code, _, err = run(capsys, "verify", "6", "--suite", "cor312")
        assert code == 2 and "limit 5" in err
        code, out, _ = run(capsys, "--limit-n", "6", "verify", "6", "--suite", "cor312")
        assert code == 0
        assert "PASS cor312 n=6" in out

    def test_limit_n_widens_the_default_selection(self, capsys):
        # With no flag, verify 8 and verify 9 run at the ceiling as well.
        for argv in (("--limit-n", "8", "verify", "8"), ("verify", "8"), ("verify", "9")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert [line.split()[1] for line in out.splitlines()
                    if line.startswith("PASS")] == [
                "thm311", "cor312", "prop316", "extension", "criterion"]

    def test_limit_n_below_n_selects_nothing(self, capsys):
        code, _, err = run(capsys, "--limit-n", "6", "verify", "7")
        assert code == 2
        assert "no verification suite applies at n=7" in err

    def test_no_suite_names_the_cap(self, capsys):
        _, _, err = run(capsys, "--limit-n", "6", "verify", "7")
        assert "no verification suite applies at n=7 under the limit 6" in err
        _, _, err = run(capsys, "verify", "10")
        assert "no verification suite applies at n=10 under the limit 9" in err

    @pytest.mark.parametrize("suite", ["all", *SUITES])
    @pytest.mark.parametrize("env, flag, n, cap", [
        (None, [], 10, 9), (None, ["--limit-n", "6"], 7, 6), ("5", [], 6, 5)])
    def test_one_refusal_beyond_the_cap(self, capsys, monkeypatch, suite, env, flag, n, cap):
        # The ceiling, --limit-n and TABLEAUX_LIMIT_N refuse every suite one way.
        monkeypatch.delenv("TABLEAUX_LIMIT_N", raising=False)
        if env:
            monkeypatch.setenv("TABLEAUX_LIMIT_N", env)
        code, out, err = run(capsys, *flag, "verify", str(n), "--suite", suite)
        assert (code, out) == (2, "")
        assert err == f"error: no verification suite applies at n={n} under the limit {cap}\n"

    @pytest.mark.parametrize("suite", SUITES)
    def test_negative_n_refused(self, capsys, monkeypatch, suite):
        monkeypatch.delenv("TABLEAUX_LIMIT_N", raising=False)
        code, out, err = run(capsys, "verify", "-1", "--suite", suite)
        assert (code, out) == (2, "")
        assert err == "error: no verification suite applies at n=-1 under the limit 9\n"

    def test_unknown_suite_size(self, capsys):
        code, _, err = run(capsys, "verify", "10")
        assert code == 2
