"""Minimal FASTA reader/writer.

The paper's inputs are genome assemblies distributed as FASTA; this module
round-trips :class:`~repro.genome.sequence.Sequence` objects through the
format so that examples and benchmarks can persist synthetic genomes.

The reader accepts A, C, G and T plus the IUPAC ambiguity codes
(``RYSWKMBDHVN``, which all read as N), in either case.  Whitespace
inside a sequence line is dropped.  Any other character (a gap ``-``, a
stop ``*``, a digit, anything non-ASCII) is an error naming the record,
line and column: reading it as N would silently shift every coordinate
after it.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterable, Iterator, List, TextIO, Union

import numpy as np

from . import alphabet
from .sequence import Sequence

_PathOrFile = Union[str, Path, TextIO]

#: IUPAC ambiguity codes; the alphabet's only ambiguous base is N.
_AMBIGUOUS = "RYSWKMBDHVN"
_WHITESPACE = " \t\n\r\f\v"
_ACCEPTED = "ACGT" + _AMBIGUOUS + "acgt" + _AMBIGUOUS.lower() + _WHITESPACE
_UNACCEPTED = re.compile(f"[^{_ACCEPTED}]")

#: Byte -> alphabet code (ambiguity codes -> N); whitespace maps to
#: ``_DROP`` (removed after encoding) and any other byte to 255.
_DROP = 254
_CODES = np.full(256, 255, dtype=np.uint8)
for _code, _bases in enumerate([*alphabet.BASES[: alphabet.N], _AMBIGUOUS]):
    _CODES[[ord(b) for b in _bases + _bases.lower()]] = _code
_CODES[[ord(b) for b in _WHITESPACE]] = _DROP


def _record(name: str, lines: List[str], linenos: List[int]) -> Sequence:
    """Encode one record's raw sequence lines (whitespace included)."""
    # Non-ASCII becomes "?", which is rejected like any other character.
    text = "".join(lines).encode("ascii", "replace")
    codes = _CODES[np.frombuffer(text, dtype=np.uint8)]
    if codes.size and codes.max() == 255:
        for line, lineno in zip(lines, linenos):
            bad = _UNACCEPTED.search(line)
            if bad is not None:
                raise ValueError(
                    f"FASTA record {name!r}, line {lineno}, column "
                    f"{bad.start() + 1}: unexpected character {bad.group()!r}"
                )
    return Sequence(codes[codes != _DROP], name=name)


def _opened(source: _PathOrFile, mode: str):
    """Return ``(file_object, needs_close)`` for a path or file-like."""
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def iter_fasta(source: _PathOrFile) -> Iterator[Sequence]:
    """Yield sequences from a FASTA path or open text handle.

    Header lines keep only the first whitespace-separated token as the
    sequence name, matching common genomics-tool behaviour.  Sequence
    lines follow the alphabet in the module docstring; a violation
    raises :class:`ValueError`.
    """
    handle, needs_close = _opened(source, "r")
    try:
        name = None
        lines: List[str] = []
        linenos: List[int] = []
        for lineno, raw in enumerate(handle, 1):
            line = raw.lstrip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield _record(name, lines, linenos)
                fields = line[1:].split()
                name = fields[0] if fields else ""
                lines, linenos = [], []
            else:
                if name is None:
                    raise ValueError("FASTA data before first header line")
                lines.append(raw)
                linenos.append(lineno)
        if name is not None:
            yield _record(name, lines, linenos)
    finally:
        if needs_close:
            handle.close()


def read_fasta(source: _PathOrFile) -> List[Sequence]:
    """Read every record of a FASTA file into a list."""
    return list(iter_fasta(source))


def write_fasta(
    sequences: Iterable[Sequence],
    destination: _PathOrFile,
    line_width: int = 60,
) -> None:
    """Write sequences in FASTA format with wrapped sequence lines."""
    if line_width <= 0:
        raise ValueError("line_width must be positive")
    handle, needs_close = _opened(destination, "w")
    try:
        for seq in sequences:
            handle.write(f">{seq.name}\n")
            text = str(seq)
            for start in range(0, len(text), line_width):
                handle.write(text[start : start + line_width] + "\n")
    finally:
        if needs_close:
            handle.close()


def fasta_string(sequences: Iterable[Sequence], line_width: int = 60) -> str:
    """Render sequences as a FASTA-formatted string."""
    buffer = io.StringIO()
    write_fasta(sequences, buffer, line_width=line_width)
    return buffer.getvalue()
