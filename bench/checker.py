"""Validate the JSON lines that `tensorsplice run` and `oracle` print.

The checker reads the program's stdout as bytes and returns a list of
problems; an empty list means the output is accepted. It knows the output
schema only, never the engine, so it can judge any version of the program.
"""

from __future__ import annotations

import json

SCHEMA = "tensorsplice/1"
BLOCK_KEYS = {"density", "mass", "size", "modes"}
LINE_KEYS = {"schema", "step", "time_range", "blocks"}


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _check_block(block, n_modes: int | None, where: str) -> list[str]:
    if not isinstance(block, dict) or set(block) != BLOCK_KEYS:
        return [f"{where}: block keys are {sorted(block) if isinstance(block, dict) else block!r}"]
    mass, size, density, modes = block["mass"], block["size"], block["density"], block["modes"]
    problems = []
    if not isinstance(modes, list) or not all(isinstance(m, list) and m for m in modes):
        return [f"{where}: modes must be a list of non-empty id lists"]
    if n_modes is not None and len(modes) != n_modes:
        problems.append(f"{where}: {len(modes)} modes, earlier blocks have {n_modes}")
    for m, ids in enumerate(modes):
        if len(set(ids)) != len(ids):
            problems.append(f"{where}: mode {m} repeats an id")
    if size != sum(len(ids) for ids in modes):
        problems.append(f"{where}: size {size} != summed id counts {sum(map(len, modes))}")
    if not isinstance(mass, (int, float)) or isinstance(mass, bool) or mass <= 0:
        problems.append(f"{where}: mass {mass!r} is not a positive number")
    elif isinstance(size, int) and size > 0 and density != _sig12(mass / size):
        problems.append(f"{where}: density {density!r} != mass/size {_sig12(mass / size)!r}")
    return problems


def check_output(data: bytes, k: int, n_steps: int) -> list[str]:
    """Problems found in one invocation's stdout (empty when it is valid).

    ``k`` caps the blocks per line; ``n_steps`` is the number of strides
    the input stream spans, so a truncated output is rejected too.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [f"output is not UTF-8: {exc}"]
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        return ["output does not end with a newline"]
    problems: list[str] = []
    if len(lines) != n_steps:
        problems.append(f"{len(lines)} lines, the stream spans {n_steps} strides")
    n_modes = None
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"{where}: not strict JSON ({exc})")
            continue
        if not isinstance(obj, dict) or set(obj) != LINE_KEYS:
            problems.append(f"{where}: keys are not {sorted(LINE_KEYS)}")
            continue
        if obj["schema"] != SCHEMA:
            problems.append(f"{where}: schema {obj['schema']!r}")
        if obj["step"] != i:
            problems.append(f"{where}: step {obj['step']!r}, expected {i}")
        if obj["time_range"] != [i, i + 1]:
            problems.append(f"{where}: time_range {obj['time_range']!r}, expected {[i, i + 1]}")
        blocks = obj["blocks"]
        if not isinstance(blocks, list) or len(blocks) > k:
            problems.append(f"{where}: blocks must be a list of at most {k}")
            continue
        previous = None
        for j, block in enumerate(blocks):
            found = _check_block(block, n_modes, f"{where} block {j}")
            problems.extend(found)
            if found:
                continue
            n_modes = len(block["modes"])
            if previous is not None and block["density"] > previous:
                problems.append(f"{where} block {j}: density rises to {block['density']}")
            previous = block["density"]
    return problems


def last_top_block(data: bytes) -> list[list] | None:
    """Id lists of the densest block on the last line, or None if empty."""
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    blocks = json.loads(lines[-1])["blocks"] if lines[-1] else []
    return blocks[0]["modes"] if blocks else None
