"""Unit tests for FASTA I/O."""

import io

import pytest

from repro.genome import (
    Sequence,
    fasta_string,
    iter_fasta,
    read_fasta,
    write_fasta,
)


@pytest.fixture
def records():
    return [
        Sequence.from_string("ACGTACGTACGT", name="chr1"),
        Sequence.from_string("NNNNAC", name="chr2"),
        Sequence.from_string("", name="empty"),
    ]


class TestRoundtrip:
    def test_string_roundtrip(self, records):
        text = fasta_string(records)
        parsed = read_fasta(io.StringIO(text))
        assert parsed == records
        assert [p.name for p in parsed] == ["chr1", "chr2", "empty"]

    def test_file_roundtrip(self, records, tmp_path):
        path = tmp_path / "genome.fa"
        write_fasta(records, path)
        assert read_fasta(path) == records

    def test_line_wrapping(self, records):
        text = fasta_string(records, line_width=4)
        body_lines = [
            line
            for line in text.splitlines()
            if line and not line.startswith(">")
        ]
        assert all(len(line) <= 4 for line in body_lines)

    def test_wrapped_content_identical(self, records):
        wide = read_fasta(io.StringIO(fasta_string(records, line_width=80)))
        narrow = read_fasta(io.StringIO(fasta_string(records, line_width=3)))
        assert wide == narrow


class TestParsing:
    def test_header_keeps_first_token(self):
        text = ">chr1 assembled by hand\nACGT\n"
        (record,) = read_fasta(io.StringIO(text))
        assert record.name == "chr1"

    def test_multiline_record(self):
        text = ">a\nAC\nGT\n\nAC\n"
        (record,) = read_fasta(io.StringIO(text))
        assert str(record) == "ACGTAC"

    def test_data_before_header_raises(self):
        with pytest.raises(ValueError):
            read_fasta(io.StringIO("ACGT\n>late\nAC\n"))

    def test_empty_input(self):
        assert read_fasta(io.StringIO("")) == []

    def test_iter_is_lazy_per_record(self):
        text = ">a\nAC\n>b\nGT\n"
        iterator = iter_fasta(io.StringIO(text))
        first = next(iterator)
        assert first.name == "a"
        second = next(iterator)
        assert second.name == "b"

    def test_lowercase_sequence(self):
        (record,) = read_fasta(io.StringIO(">x\nacgt\n"))
        assert str(record) == "ACGT"


class TestValidation:
    def test_bad_line_width(self, records):
        with pytest.raises(ValueError):
            fasta_string(records, line_width=0)


class TestAlphabet:
    def test_whitespace_inside_a_line_is_dropped(self):
        (record,) = read_fasta(io.StringIO(">a\nAC GT\tA"))
        assert str(record) == "ACGTA"

    def test_leading_whitespace_and_crlf_are_dropped(self):
        (record,) = read_fasta(io.StringIO(">a\r\n  AC\r\n\tGT \r\n"))
        assert str(record) == "ACGT"

    @pytest.mark.parametrize("code", "RYSWKMBDHVNryswkmbdhvn")
    def test_iupac_ambiguity_codes_read_as_n(self, code):
        (record,) = read_fasta(io.StringIO(f">a\nA{code}T\n"))
        assert str(record) == "ANT"

    @pytest.mark.parametrize(
        "text, message",
        [
            (">a\nAC-GT\n", "record 'a', line 2, column 3: .*'-'"),
            (">a\nAC*GT\n", "record 'a', line 2, column 3: .*'\\*'"),
            (">a\nACGT\n  AC9\n", "record 'a', line 3, column 5: .*'9'"),
            (">a\nACGU\n", "record 'a', line 2, column 4: .*'U'"),
            (">a\nAC\u00e9\n", "record 'a', line 2, column 3: .*'\u00e9'"),
            (">a x\nAC\n>b\nAC GT Z\n", "record 'b', line 4, column 7"),
        ],
    )
    def test_other_characters_are_rejected_with_position(
        self, text, message
    ):
        with pytest.raises(ValueError, match=message):
            read_fasta(io.StringIO(text))

    def test_rejection_is_lazy_per_record(self):
        iterator = iter_fasta(io.StringIO(">a\nAC\n>b\nA-C\n"))
        assert str(next(iterator)) == "AC"
        with pytest.raises(ValueError, match="record 'b'"):
            next(iterator)
