"""The CSV text layer: text_chunks, the one decoder of every CSV and
neighbourhood file, the byte ranges a large CSV is read in, and the block
reader of trips and riders CSVs, which finds columns by header name."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import operator
import os
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError
from .parallel import MAX_WORKERS

Blocks = Iterator[list[list[str]]]

# Rows per block of the trips-CSV reader and the columnar taxi ingest.  On
# one byte range of a 1M-row taxi CSV, blocks of 1k, 2k, 4k and 8k lines took
# 0.49, 0.46, 0.45 and 0.45 s, each doubling adding about 3 MB of peak RSS.
_BLOCK_ROWS = 2048

# Reading a CSV from its path.  A file of at least _SPLIT_MIN_BYTES with no
# '"' byte is cut into MAX_WORKERS byte ranges, each ending just after a
# newline, whatever the machine.  With no quote character every line is a
# whole row, so each range parses alone.
_SPLIT_MIN_BYTES = 8 << 20
_CHUNK_BYTES = 1 << 20


def _range_starts(path) -> list[int]:
    """The byte offset at which each range of the file at path starts."""
    size = os.path.getsize(path)
    if size < _SPLIT_MIN_BYTES:
        return [0]
    starts = [0]
    with open(path, "rb") as f:
        if any(b'"' in chunk for chunk in iter(functools.partial(f.read, _CHUNK_BYTES), b"")):
            return [0]
        for i in range(1, MAX_WORKERS):
            f.seek(max(size * i // MAX_WORKERS, starts[-1]))
            f.readline()  # to just after the next newline
            if f.tell() >= size:
                break
            starts.append(f.tell())
    return starts


def text_chunks(path, start: int = 0, stop: int | None = None) -> Iterator[str]:
    """Bytes [start, stop) of the file at path, or from start to its end,
    as UTF-8 text in chunks of about _CHUNK_BYTES, each but the last ending
    just after a newline and each decoded when it is reached.

    The one reader of every CSV and neighbourhood file, so a NUL byte or a
    byte that is not UTF-8 in any of them is a DataError naming the file
    and, for the latter, its offset in the file.  A NUL byte is refused on
    any Python: the csv module of 3.11 would read it as a character, where
    that of 3.10 rejects it.
    """
    with open(path, "rb") as f:
        f.seek(start)
        offset, rest = start, b""
        while True:
            block = f.read(_CHUNK_BYTES if stop is None else min(_CHUNK_BYTES, stop - f.tell()))
            if b"\0" in block:
                raise DataError(f"{path} holds a NUL byte")
            chunk = rest + block
            cut = chunk.rfind(b"\n") + 1 if block else len(chunk)  # at the end, the rest is the last chunk
            try:
                yield chunk[:cut].decode("utf8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path} is not UTF-8: {exc.reason} at byte {offset + exc.start}") from None
            if not block:
                return
            offset, rest = offset + cut, chunk[cut:]


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of the text in chunks, split as in a file opened with newline=""."""
    return itertools.chain.from_iterable(io.StringIO(chunk, newline="") for chunk in chunks)


def block_ranges(records: Iterable[Mapping[str, str]] | str | os.PathLike, names: Sequence[str]) -> list[Blocks]:
    """The blocks of records, each a block's stripped fields under each of
    names, from one source per part that can be read alone.

    For the path of a UTF-8 CSV, one source per byte range of it, first to
    last, its header read at once, so before any source is handed to a
    forked process.  Any other records are an iterable of mappings, one
    source of their values under names by rec.get.
    """
    if not isinstance(records, (str, os.PathLike)):
        return [_row_blocks(([rec.get(name) or "" for name in names] for rec in records), names, names)]
    starts = _range_starts(records)
    ranges = list(zip(starts, [*starts[1:], None]))
    header, first = _csv_header(text_chunks(records, *ranges[0]))
    rest = (text_chunks(records, *byte_range) for byte_range in ranges[1:])
    return [_csv_blocks(chunks, header, names) for chunks in (first, *rest)]


def _row_blocks(rows: Iterator[Sequence[str]], header: Sequence[str], names: Sequence[str]) -> Blocks:
    """Per block of up to _BLOCK_ROWS rows, CSV rows under header, the stripped
    fields under each of names.  Each column is found by header index: the last
    duplicate header wins, a short row reads empty past its end, blank rows are
    skipped and extra fields ignored.  A column the header lacks reads empty."""
    index = {name: i for i, name in enumerate(header)}
    found = [name for name in names if name in index]
    width = 1 + max((index[name] for name in found), default=-1)
    while raw := list(itertools.islice(rows, _BLOCK_ROWS)):
        block = [row for row in raw if row]
        if min(map(len, block), default=width) < width:
            pad = [""] * width
            block = [row if len(row) >= width else row + pad[len(row) :] for row in block]
        stripped = {name: list(map(str.strip, map(operator.itemgetter(index[name]), block))) for name in found}
        yield [stripped.get(name) or [""] * len(block) for name in names]


def _csv_header(chunks: Iterator[str]) -> tuple[list[str], Iterator[str]]:
    """The first row of the CSV text in chunks, parsed by csv, and the chunks
    of the text after it."""
    current = io.StringIO()

    def lines():
        nonlocal current
        for chunk in chunks:
            current = io.StringIO(chunk, newline="")
            for line in current:  # not yield from, which would close current with this generator
                yield line

    header = next(csv.reader(lines()), [])
    return header, itertools.chain([current.read()], chunks)


def _line_blocks(chunks: Iterator[str], width: int) -> Iterator[tuple[Iterable[str], list[str] | None]]:
    """Per block of the CSV text in chunks, each chunk starting a row, its
    lines and, when they are rows of width fields, their fields end to end.

    In a chunk with no '"', "\\r\\n" and a bare "\\r" end a line as "\\n" does,
    and so does the end of the chunk: its lines are its rows.  They are split
    at commas _BLOCK_ROWS lines at a time, line i's fields being
    fields[i * width : (i + 1) * width], when no line of the block is blank
    and each holds width fields and at most csv.field_size_limit()
    characters: then these are the fields csv.reader gives.  Any other
    block comes with None for its fields, and its lines are csv.reader's to
    read, as are all the lines from the first chunk holding a '"' on (one
    block), since a quoted field may run on into the next chunk.
    """
    for chunk in chunks:
        if '"' in chunk:
            yield _lines(itertools.chain([chunk], chunks)), None
            return
        text = chunk.replace("\r\n", "\n").replace("\r", "\n") if "\r" in chunk else chunk
        if text and not text.endswith("\n"):
            text += "\n"
        limit = csv.field_size_limit()
        while text:
            *lines, text = text.split("\n", _BLOCK_ROWS)
            commas = list(map(str.count, lines, itertools.repeat(",")))
            if "" in lines or max(map(len, lines)) > limit or commas.count(width - 1) < len(lines):
                yield lines, None
            else:
                yield lines, ",".join(lines).split(",")


def _csv_blocks(chunks: Iterator[str], header: Sequence[str], names: Sequence[str]) -> Blocks:
    """The blocks of _row_blocks for the CSV rows under header in chunks of
    text, each chunk starting a row: column i of a block that _line_blocks
    splits at commas is fields[i::len(header)], and csv.reader reads the rest.
    """
    width = len(header)
    index = {name: i for i, name in enumerate(header)}
    for lines, fields in _line_blocks(chunks, width):
        if fields is None:
            yield from _row_blocks(csv.reader(lines), header, names)
        else:
            yield [list(map(str.strip, fields[index[name] :: width])) if name in index else [""] * len(lines)
                   for name in names]
