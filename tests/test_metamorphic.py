"""Rewrites of an input that must leave the output of ``run`` and ``oracle``
unchanged: the output is a function of the kept tuples, not of how they
are written or of the lines dropped between them."""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplice.cli import main
from tensorsplice.ingest import MAX_GAP_BINS
from conftest import examples

LABELS = ("a", "b", "c", "d", "e")
# Injective images of LABELS, one of them an original label.
IMAGES = ("e", "x1", "b2", "zz", "0")
FLAGS = ["--modes", "0,1", "--time-col", "2", "--value-col", "3", "--stride", "10",
         "--k", "3", "--l", "1"]
COMMANDS = pytest.mark.parametrize("command", ["run", "oracle"])


@st.composite
def streams(draw):
    """Rows (user, item, time, value) in non-decreasing time bins, with gaps,
    from a default origin away from 0."""
    rows, time_bin = [], 0
    for _ in range(draw(st.integers(1, 20))):
        time_bin += draw(st.sampled_from([0, 0, 0, 1, 2]))
        rows.append((
            draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS)),
            str(1000 + 10 * time_bin + draw(st.integers(0, 9))),
            draw(st.sampled_from(["1", "2", "5", "0.5", "2.25"])),
        ))
    return rows


def text(rows, end: str = "\n") -> bytes:
    return "".join("\t".join(row) + end for row in rows).encode()


def output(command: str, data: bytes, stdin: bool = False, flags=()) -> bytes:
    """What ``command`` writes for an input file holding ``data``, read by
    path or, with ``stdin``, as ``--input -`` from that file on fd 0; ``flags``
    follow ``FLAGS``."""
    with tempfile.TemporaryDirectory() as tmp:
        stream, out = Path(tmp, "in.tsv"), Path(tmp, "out.jsonl")
        stream.write_bytes(data)
        argv = [command, "--input", "-" if stdin else str(stream), *FLAGS, *flags,
                "--output", str(out)]
        if not stdin:
            assert main(argv) == 0
            return out.read_bytes()
        saved = os.dup(0)
        try:
            with open(stream, "rb") as handle:
                os.dup2(handle.fileno(), 0)
            assert main(argv) == 0
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        return out.read_bytes()


@COMMANDS
@settings(max_examples=examples(40), deadline=None)
@given(rows=streams(), data=st.data())
def test_line_ends_zero_lines_and_stdin_keep_the_bytes(command, rows, data):
    want = output(command, text(rows))
    assert output(command, text(rows, "\r\n")) == want
    assert output(command, b"\xef\xbb\xbf" + text(rows)) == want
    assert output(command, text(rows), stdin=True) == want
    # Zero-valued lines with labels no kept line has, anywhere, the first
    # line included. One ahead of the first kept line may have any time;
    # a later one does not precede the origin, but may lie past later bins.
    origin = int(rows[0][2]) // 10 * 10
    spots = data.draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=4))
    padded = list(rows)
    for n, spot in enumerate(sorted(spots, reverse=True)):
        time = data.draw(st.integers(0 if spot == 0 else origin, origin + 400))
        padded.insert(spot, (f"new{n}", f"new{n}", str(time), ("0", "0.0")[n % 2]))
    assert output(command, text(padded)) == want


@COMMANDS
@settings(max_examples=examples(40), deadline=None)
@given(rows=streams(), users=st.permutations(IMAGES), items=st.permutations(IMAGES))
def test_injective_relabelling_keeps_the_bytes_after_mapping_back(command, rows, users, items):
    to_user, to_item = dict(zip(LABELS, users)), dict(zip(LABELS, items))
    back = [dict(zip(users, LABELS)), dict(zip(items, LABELS))]
    relabelled = [(to_user[u], to_item[i], t, v) for u, i, t, v in rows]
    lines = []
    for line in output(command, text(relabelled)).decode().splitlines():
        step = json.loads(line)
        for block in step["blocks"]:
            for mode, labels in enumerate(back):
                block["modes"][mode] = [labels[label] for label in block["modes"][mode]]
        lines.append(json.dumps(step, separators=(",", ":")) + "\n")
    assert "".join(lines).encode() == output(command, text(rows))


# Column 4 is a second timestamp, binned with the stride as a mode.
SKIP_FLAGS = ["--binned-cols", "4", "--on-error", "skip"]


@COMMANDS
@settings(max_examples=examples(40), deadline=None)
@given(rows=streams(), data=st.data())
def test_lines_that_skip_drops_keep_the_bytes(command, rows, data):
    rows = [(*row, row[2]) for row in rows]
    want = output(command, text(rows), flags=SKIP_FLAGS)
    # Bad lines with the labels kept lines have, anywhere. A gap past
    # MAX_GAP_BINS counts from the last kept line, so it follows one.
    origin = int(rows[0][2]) // 10 * 10
    far = str(origin + 10 * (MAX_GAP_BINS + 100))
    spots = data.draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=4))
    padded = list(rows)
    for spot in sorted(spots, reverse=True):
        user, item = data.draw(st.sampled_from(LABELS)), data.draw(st.sampled_from(LABELS))
        t = str(data.draw(st.integers(origin, origin + 400)))
        bad = [
            (user, item, t, "1", "soon"),  # a binned column that does not parse
            (user, item, t, "1", str(origin - 10)),  # one before the origin
            (user, item, "later", "1", t),
            (user, item, t, "x", t),
            (user, item, t, "-2", t),
            (user, item, t, "1"),  # too few columns
        ]
        if spot:
            bad.append((user, item, far, "1", far))
        padded.insert(spot, data.draw(st.sampled_from(bad)))
    assert output(command, text(padded), flags=SKIP_FLAGS) == want
