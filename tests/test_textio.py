import pytest

from conftest import all_tableaux, all_words
from tableaux import (
    InvalidTableauError,
    InvalidWordError,
    Word,
    format_tableau,
    format_word,
    make_tableau,
    parse_tableau,
    parse_word,
)


class TestWordText:
    @pytest.mark.parametrize("text", [
        "[2,5,1,4,3]",
        "2 5 1 4 3",
        " 2, 5 ,1  , 4, 3 ",
        "(2,5,1,4,3)",
    ])
    def test_parse_variants(self, text):
        assert parse_word(text) == Word([2, 5, 1, 4, 3])

    def test_format(self):
        assert format_word(Word([2, 5, 1, 4, 3])) == "[2,5,1,4,3]"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip(self, n):
        for w in all_words(n):
            assert parse_word(format_word(w)) == w

    def test_garbage(self):
        with pytest.raises(InvalidWordError):
            parse_word("[2,x,1]")
        with pytest.raises(InvalidWordError):
            parse_word("")

    def test_garbage_message(self):
        with pytest.raises(InvalidWordError) as raised:
            parse_word("[2,x,1]")
        assert str(raised.value) == "cannot parse integers from '2,x,1'"

    def test_tabs_and_newlines(self):
        assert parse_word("[2,\t5\n1 4,3]") == Word([2, 5, 1, 4, 3])

    def test_invalid_word(self):
        with pytest.raises(InvalidWordError, match="duplicate"):
            parse_word("[1,1]")


class TestTableauText:
    def test_parse_row_form(self):
        assert parse_tableau("1 3; 2 4; 5") == make_tableau([(1, 2, 5), (3, 4)])

    def test_parse_cols_form(self):
        assert parse_tableau("cols: 1 2 5 | 3 4") == make_tableau([(1, 2, 5), (3, 4)])

    def test_whitespace_tolerance(self):
        assert parse_tableau("  1  3 ;2 4;  5 ") == make_tableau([(1, 2, 5), (3, 4)])

    @pytest.mark.parametrize("text", [
        "1\t3; 2\t4; 5",
        "1 3;\n2 4;\n5\n",
        "1,3; 2,4; 5",
        "\t1 ,3;2,\t4 ;\n5,",
        "cols: 1\t2\t5 | 3\t4",
        "cols:\n1 2 5\n|\n3 4\n",
        "cols: 1,2,5 | 3,4",
        "COLS: 1, 2,\t5|3 ,4",
    ])
    def test_tabs_newlines_and_commas(self, text):
        assert parse_tableau(text) == make_tableau([(1, 2, 5), (3, 4)])

    @pytest.mark.parametrize("text, message", [
        ("1 x; 2", "cannot parse integers from '1 x'"),
        ("1 3; 2 4.0", "cannot parse integers from ' 2 4.0'"),
        ("cols: 1 2 | 3 y", "cannot parse integers from ' 3 y'"),
        ("1 3; 4", "entries are not exactly 1..3: [1, 3, 4]"),
        ("cols: 2 3 | 5", "entries are not exactly 1..3: [2, 3, 5]"),
        ("cols: 1\t2 | 4,5", "entries are not exactly 1..4: [1, 2, 4, 5]"),
    ])
    def test_pinned_messages(self, text, message):
        with pytest.raises(InvalidTableauError) as raised:
            parse_tableau(text)
        assert str(raised.value) == message

    def test_format(self):
        assert format_tableau(make_tableau([(1, 2, 5), (3, 4)])) == "1 3; 2 4; 5"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for t in all_tableaux(n):
            assert parse_tableau(format_tableau(t)) == t

    def test_bad_row_widths(self):
        with pytest.raises(InvalidTableauError, match="widths"):
            parse_tableau("1; 2 3")

    def test_empty(self):
        with pytest.raises(InvalidTableauError, match="empty"):
            parse_tableau("   ")

    @pytest.mark.parametrize("text, message", [
        ("1 2; ; 3", "empty row in '1 2; ; 3'"),
        ("; 1 2; 3", "empty row in '; 1 2; 3'"),
        ("cols: 1 2 | | 3", "empty column in 'cols: 1 2 | | 3'"),
        ("cols: | 1 2 | 3", "empty column in 'cols: | 1 2 | 3'"),
        ("   ", "empty tableau text"),
        (";", "no entries in ';'"),
        ("cols:", "no entries in 'cols:'"),
        ("cols: |", "no entries in 'cols: |'"),
    ])
    def test_empty_row_or_column_before_the_last(self, text, message):
        # Tableau refuses an empty interior column; the text forms refuse an
        # empty row or column before the last non-empty one in the same way.
        with pytest.raises(InvalidTableauError) as raised:
            parse_tableau(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text", ["1 2; 3;", "1 2; 3; ;", "cols: 1 3 | 2 |", "cols: 1 3 | 2 | |"])
    def test_trailing_separators_are_ignored(self, text):
        assert parse_tableau(text) == make_tableau([(1, 3), (2,)])

    def test_invalid_filling(self):
        with pytest.raises(InvalidTableauError):
            parse_tableau("2 1; 3")
        with pytest.raises(InvalidTableauError, match="exactly"):
            parse_tableau("1 3; 4")
