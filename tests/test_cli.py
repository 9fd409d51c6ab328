import json
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import pytest

import tensorsplice.cli
import tensorsplice.engine
from conftest import SRC, count_calls
from tensorsplice.cli import main

DATA = Path(__file__).parent / "data"

RUN_FLAGS = [
    "--modes", "0,1", "--time-col", "2", "--value-col", "3",
    "--stride", "100", "--t0", "0",
]

# The stderr summary line shared by ``run`` and ``oracle``.
SUMMARY = re.compile(
    r"steps=(\d+) nnz=(\d+) detect=\d+\.\d{3}s splice=(\d+\.\d{3})s wall=\d+\.\d{3}s"
)


def subprocess_env() -> dict:
    """The caller's environment for a CLI child, minus ``PYTHONUNBUFFERED``,
    so each child's stdout buffering is the one its test chose (``-u``)."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# Every CLI call here takes well under a second, so a command that loops
# fails its test (``TimeoutExpired``) instead of stalling the whole suite.
TIMEOUT_S = 60


def cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tensorsplice.cli", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=TIMEOUT_S,
    )


class TestRun:
    def test_matches_committed_golden(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--input", str(DATA / "golden_input.tsv"),
            *RUN_FLAGS, "--k", "3", "--output", str(out),
        ])
        assert code == 0
        summary = SUMMARY.fullmatch(capsys.readouterr().err.strip())
        assert summary and summary.group(1) == "4"
        assert out.read_bytes() == (DATA / "golden_run.jsonl").read_bytes()

    def test_missing_input_is_config_error(self, capsys):
        code = main(["run", "--input", "/no/such/file", *RUN_FLAGS])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_output_naming_the_input_is_config_error(self, link, tmp_path, capsys):
        stream = output = tmp_path / "x.tsv"
        stream.write_bytes((DATA / "golden_input.tsv").read_bytes())
        if link:
            output = tmp_path / "link.tsv"
            output.symlink_to(stream)
        code = main(["run", "--input", str(stream), *RUN_FLAGS, "--output", str(output)])
        assert code == 3
        assert capsys.readouterr() == ("", f"error: --output {output} is the --input file\n")
        assert stream.read_bytes() == (DATA / "golden_input.tsv").read_bytes()

    @pytest.mark.parametrize(
        "cause", ["directory", "permission", "not-a-directory", "name-too-long"]
    )
    def test_unopenable_input_is_config_error(self, cause, tmp_path, capsys, monkeypatch):
        path = tmp_path / "in.tsv"
        errno = {"directory": 21, "permission": 13, "not-a-directory": 20,
                 "name-too-long": 36}[cause]
        if cause == "directory":
            path.mkdir()
        elif cause == "not-a-directory":
            path.write_text("")
            path = path / "x"
        elif cause == "name-too-long":
            path = tmp_path / ("x" * 300)
        else:
            # A mode change cannot deny a superuser, so refuse the open itself.
            def refuse(file, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(file))

            monkeypatch.setattr(tensorsplice.cli, "open", refuse, raising=False)
        code = main(["run", "--input", str(path), *RUN_FLAGS])
        assert code == 3
        assert f"error: [Errno {errno}]" in capsys.readouterr().err

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # Read as part of the first label, the mark would make "u18" two
        # users; the first line of the output shows the difference.
        marked = tmp_path / "bom.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + (DATA / "golden_input.tsv").read_bytes())
        out = tmp_path / "run.jsonl"
        code = main(["run", "--input", str(marked), *RUN_FLAGS, "--k", "3", "--output", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.read_bytes() == (DATA / "golden_run.jsonl").read_bytes()

    def test_non_utf8_input_is_ingest_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes("a\tb\t100\t1\ncaf\xe9\tb\t100\t1\n".encode("latin-1"))
        code = main(["run", "--input", str(bad), *RUN_FLAGS])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: input is not UTF-8 text")

    @pytest.mark.parametrize(
        "line, flags, code, message",
        [
            ("a\tb\t100\tnan", [], 2, "line 1"),
            ("a\tb\t100\tinf", [], 2, "line 1"),
            ("a\tb\tnan\t1", [], 2, "line 1"),
            ("a\tb\tinf\t1", [], 2, "line 1"),
            ("a\tb\t100\t1", ["--stride", "1e-320"], 2, "line 1"),
            ("a\tb\t5\t1", ["--stride", "1e-300", "--t0", "0"], 2, "line 1"),
            ("a\tb\t100\t1", ["--t0", "nan"], 3, "t0 must be finite"),
            ("a\tb\t100\t1", ["--stride", "inf"], 3, "stride must be positive"),
        ],
        ids=["value-nan", "value-inf", "time-nan", "time-inf", "bin-overflow",
             "bin-past-2**53", "t0-nan", "stride-inf"],
    )
    def test_non_finite_numbers_end_with_exit_code(self, tmp_path, line, flags, code, message):
        stream = tmp_path / "in.tsv"
        stream.write_text(line + "\n")
        result = cli("run", "--input", str(stream), *RUN_FLAGS, *flags)
        assert result.returncode == code
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert "Infinity" not in result.stdout and "NaN" not in result.stdout

    @pytest.mark.parametrize("policy", ["abort", "skip"])
    def test_backwards_time_bin_names_its_line(self, tmp_path, policy):
        stream = tmp_path / "in.tsv"
        stream.write_text("a\tb\t100\t1\na\tb\t0\t1\n")
        result = cli("run", "--input", str(stream), *RUN_FLAGS,
                     "--stride", "50", "--on-error", policy)
        assert result.returncode == 2
        assert result.stderr.startswith("error: line 2: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("policy", ["abort", "skip"])
    def test_gap_too_long_to_step_through_is_bad_input(self, tmp_path, policy):
        # Line 2 lies 10**15 bins past line 1; stepping through the empty
        # bins between them would not end.
        stream = tmp_path / "in.tsv"
        stream.write_text("a\tb\t0\t1\na\tb\t1e17\t1\n")
        result = cli("run", "--input", str(stream), *RUN_FLAGS, "--on-error", policy)
        error = ("line 2: timestamp '1e17' lies 1000000000000000 bins past bin 0; "
                 "a gap of more than 10000000 bins is not stepped through")
        if policy == "abort":
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == f"error: {error}\n"
        else:
            assert result.returncode == 0, result.stderr
            assert result.stdout.count("\n") == 1
            assert result.stderr.startswith(f"skipping {error}\n")

    def test_skipped_line_assigns_no_label_ids(self, tmp_path):
        # Line 1's binned column does not parse, so the line is skipped, and
        # its labels c and d take no ids ahead of a and b.
        kept = "a\tb\t0\t1\t0\nc\td\t0\t1\t0\n"
        outputs = []
        for text in ("c\td\t0\t1\tbad\n" + kept, kept):
            stream, out = tmp_path / "s.tsv", tmp_path / f"out{len(outputs)}.jsonl"
            stream.write_text(text)
            code = main(["run", "--input", str(stream), "--value-col", "3", "--binned-cols", "4",
                         "--stride", "10", "--t0", "0", "--on-error", "skip", "--k", "1",
                         "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["blocks"][0]["modes"] == [["a", "c"], ["b", "d"], [0], [0]]

    def test_iso_times_and_skip_warnings_in_a_fresh_process(self, tmp_path):
        # The child imports datetime and logging only when a line needs
        # them; in-process, pytest has imported both already.
        stream = tmp_path / "in.tsv"
        stream.write_text(
            "a\tb\t1970-01-01T00:00:00Z\n"
            "a\tc\t1970-01-01T00:00:50Z\tx\n"
            "a\tb\tyesterday\n"
            "a\tb\t1970-01-01T00:01:40Z\n"
        )
        result = cli("run", "--input", str(stream), "--stride", "100", "--t0", "0",
                     "--time-format", "iso", "--on-error", "skip", "--k", "1")
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            '{"schema":"tensorsplice/1","step":0,"time_range":[0,1],"blocks":'
            '[{"density":0.5,"mass":2,"size":4,"modes":[["a"],["b","c"],[0]]}]}\n'
            '{"schema":"tensorsplice/1","step":1,"time_range":[1,2],"blocks":'
            '[{"density":0.6,"mass":3,"size":5,"modes":[["a"],["b","c"],[0,1]]}]}\n'
        )
        *warnings, summary = result.stderr.splitlines()
        assert warnings == [
            "line 2: extra columns beyond 3 are ignored",
            "skipping line 3: not an ISO-8601 timestamp: 'yesterday'",
        ]
        assert SUMMARY.fullmatch(summary)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, *(["-u"] if unbuffered else []),
                 "-m", "tensorsplice.cli", "run",
                 "--input", str(DATA / "golden_input.tsv"), *RUN_FLAGS],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=subprocess_env(),
                timeout=TIMEOUT_S,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""

    def test_malformed_line_aborts_with_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\t100\t1\nbroken\n")
        code = main(["run", "--input", str(bad), *RUN_FLAGS])
        assert code == 2

    def test_output_file_keeps_steps_before_a_malformed_line(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\t0\t1\na\tb\t100\t1\na\tb\t200\t1\nbroken\n")
        out = tmp_path / "run.jsonl"
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(tensorsplice.cli, "open", recording_open, raising=False)
        code = main(["run", "--input", str(bad), *RUN_FLAGS, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 4: ")
        assert handles and all(handle.closed for handle in handles)
        assert [json.loads(line)["step"] for line in out.read_text().splitlines()] == [0, 1]

    def test_stride_is_required(self, capsys):
        code = main(["run", "--input", "x.tsv", "--modes", "0,1", "--time-col", "2"])
        assert code == 3

    def test_defaults_documented_in_help(self):
        result = cli("run", "--help")
        assert result.returncode == 0
        assert "default 10" in result.stdout  # k
        assert "default 5" in result.stdout  # l and sweep cap
        assert "--workers" not in result.stdout

    def test_schema_string_on_every_line(self, tmp_path):
        out = tmp_path / "run.jsonl"
        main([
            "run", "--input", str(DATA / "golden_input.tsv"),
            *RUN_FLAGS, "--output", str(out),
        ])
        for line in out.read_text().splitlines():
            assert json.loads(line)["schema"] == "tensorsplice/1"


class TestOracle:
    def test_same_schema_as_run(self, tmp_path, capsys):
        out = tmp_path / "oracle.jsonl"
        code = main([
            "oracle", "--input", str(DATA / "golden_input.tsv"),
            *RUN_FLAGS, "--k", "3", "--output", str(out),
        ])
        assert code == 0
        summary = SUMMARY.fullmatch(capsys.readouterr().err.strip())
        assert summary and summary.group(1) == "4" and summary.group(3) == "0.000"
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for step, line in enumerate(lines):
            obj = json.loads(line)
            assert list(obj) == ["schema", "step", "time_range", "blocks"]
            assert obj["step"] == step
            assert obj["time_range"] == [step, step + 1]
            for block in obj["blocks"]:
                assert list(block) == ["density", "mass", "size", "modes"]
        assert out.read_bytes() == (DATA / "golden_oracle.jsonl").read_bytes()

    def test_oracle_density_weakly_grows_on_accumulating_block(self, tmp_path):
        out = tmp_path / "oracle.jsonl"
        main([
            "oracle", "--input", str(DATA / "golden_input.tsv"),
            *RUN_FLAGS, "--k", "1", "--output", str(out),
        ])
        tops = [
            json.loads(line)["blocks"][0]["density"]
            for line in out.read_text().splitlines()
        ]
        assert tops[-1] >= tops[0]

    def test_oracle_finds_exact_optimum_on_tiny_stream(self, tmp_path):
        # 2x2 core present in both bins plus two stray entries; the best
        # restriction is the full core at density 24 / 6 = 4, confirmed by
        # exhaustive enumeration.
        rows = (
            [(u, o, 0, 3) for u in (0, 1) for o in (0, 1)]
            + [(5, 5, 0, 1)]
            + [(u, o, 1, 3) for u in (0, 1) for o in (0, 1)]
            + [(6, 6, 1, 1)]
        )
        stream = tmp_path / "tiny.tsv"
        stream.write_text(
            "".join(f"u{u}\ti{o}\t{t}\t{v}\n" for u, o, t, v in rows)
        )
        from fractions import Fraction

        from tensorsplice import Block
        from conftest import brute_force_best_density

        full = Block(3, {(u, o, t): v for u, o, t, v in rows})
        assert brute_force_best_density(full) == Fraction(4)

        out = tmp_path / "oracle.jsonl"
        main([
            "oracle", "--input", str(stream), "--modes", "0,1",
            "--time-col", "2", "--value-col", "3", "--stride", "1",
            "--t0", "0", "--k", "1", "--output", str(out),
        ])
        final = json.loads(out.read_text().splitlines()[-1])
        assert final["blocks"][0]["density"] == 4.0


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_float_input_matches_committed_golden(command, tmp_path):
    # Printed masses keep 12 significant digits, so these bytes pin the
    # order and tie decisions on float data; the engine tests pin the bits.
    out = tmp_path / "out.jsonl"
    code = main([
        command, "--input", str(DATA / "golden_float_input.tsv"),
        *RUN_FLAGS, "--k", "3", "--output", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == (DATA / f"golden_float_{command}.jsonl").read_bytes()


def piped(*args, stdin: bytes, **env) -> subprocess.CompletedProcess:
    """The CLI as a child reading ``stdin`` from a pipe, in bytes."""
    return subprocess.run(
        [sys.executable, "-m", "tensorsplice.cli", *args],
        input=stdin,
        capture_output=True,
        env={**subprocess_env(), **env},
        timeout=TIMEOUT_S,
    )


class TestPipes:
    GOLDEN = (DATA / "golden_input.tsv").read_bytes()

    @pytest.mark.parametrize("path", ["-", "/dev/stdin"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_stdin_gives_the_golden_bytes(self, command, path):
        result = piped(command, "--input", path, *RUN_FLAGS, "--k", "3", stdin=self.GOLDEN)
        assert result.returncode == 0, result.stderr
        assert result.stdout == (DATA / f"golden_{command}.jsonl").read_bytes()

    def test_leading_byte_order_mark_on_stdin_is_ignored(self):
        result = piped("run", "--input", "-", "--stride", "100", "--t0", "0",
                       "--value-col", "3", "--k", "1",
                       stdin=b"\xef\xbb\xbfa\tb\t5\t1\na\tb\t6\t1\n")
        assert result.returncode == 0, result.stderr
        block = json.loads(result.stdout)["blocks"][0]
        assert block["modes"][0] == ["a"] and block["mass"] == 2 and block["size"] == 3

    def test_evaluate_reads_stdin(self):
        truth = str(DATA / "golden_truth.json")
        result = piped("evaluate", "--input", "-", "--truth", truth, stdin=self.GOLDEN)
        assert result.returncode == 0, result.stderr
        want = cli("evaluate", "--input", str(DATA / "golden_input.tsv"), "--truth", truth)
        assert result.stdout.decode() == want.stdout

    def test_non_utf8_stdin_is_input_error_whatever_the_locale(self):
        result = piped("run", "--input", "-", *RUN_FLAGS,
                       stdin="caf\xe9\tb\t100\t1\n".encode("latin-1"),
                       PYTHONIOENCODING="latin-1", LC_ALL="C")
        assert result.returncode == 2
        assert result.stderr.decode().startswith("error: stdin: input is not UTF-8 text")

    def test_output_is_not_compared_with_a_dash_input(self, tmp_path):
        # "-" names stdin, so an --output file called "-" is not the input.
        result = subprocess.run(
            [sys.executable, "-m", "tensorsplice.cli", "run", "--input", "-",
             *RUN_FLAGS, "--k", "3", "--output", "-"],
            input=self.GOLDEN, capture_output=True, env=subprocess_env(),
            cwd=tmp_path, timeout=TIMEOUT_S,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "-").read_bytes() == (DATA / "golden_run.jsonl").read_bytes()

    def test_output_naming_the_file_on_stdin_is_config_error(self, tmp_path):
        stream = tmp_path / "x.tsv"
        stream.write_bytes(self.GOLDEN)
        with open(stream, "rb") as handle:
            result = subprocess.run(
                [sys.executable, "-m", "tensorsplice.cli", "run", "--input", "-",
                 *RUN_FLAGS, "--output", str(stream)],
                stdin=handle, capture_output=True, text=True, env=subprocess_env(),
                timeout=TIMEOUT_S,
            )
        assert result.returncode == 3
        assert result.stderr == f"error: --output {stream} is the --input file\n"
        assert stream.read_bytes() == self.GOLDEN

    def test_each_stride_reaches_a_pipe_as_it_closes(self):
        lines = self.GOLDEN.splitlines(keepends=True)
        first_bin = [line for line in lines if int(line.split(b"\t")[2]) < 100]
        next_bin = [line for line in lines if int(line.split(b"\t")[2]) >= 100][:1]
        child = subprocess.Popen(
            [sys.executable, "-m", "tensorsplice.cli", "run", "--input", "-", *RUN_FLAGS],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=subprocess_env(),
        )
        try:
            child.stdin.write(b"".join(first_bin + next_bin))
            child.stdin.flush()  # and kept open: bin 1 has not closed
            readable, _, _ = select.select([child.stdout], [], [], TIMEOUT_S)
            assert readable, "step 0 was not written while stdin stayed open"
            assert json.loads(child.stdout.readline())["step"] == 0
            child.stdin.close()
            assert json.loads(child.stdout.readline())["step"] == 1
            assert child.wait(timeout=TIMEOUT_S) == 0
        finally:
            child.kill()
            child.wait()
            for stream in (child.stdin, child.stdout, child.stderr):
                stream.close()


class TestGenerate:
    GEN = [
        "generate", "--block", "3x2", "--density", "1.0", "--span", "1",
        "--bins", "2", "--background-tuples", "40", "--background", "8x6",
        "--seed", "9",
    ]

    def test_reproducible(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.tsv"
            truth = tmp_path / f"{tag}.json"
            assert main([*self.GEN, "--output", str(out), "--truth", str(truth)]) == 0
            paths.append((out.read_bytes(), truth.read_bytes()))
        assert paths[0] == paths[1]

    def test_rewrites_the_committed_golden_files(self, tmp_path):
        out, truth = tmp_path / "in.tsv", tmp_path / "truth.json"
        code = main([
            "generate", "--block", "4x3", "--density", "1.0", "--span", "2",
            "--start-bin", "1", "--bins", "4", "--seed", "42",
            "--background-tuples", "176", "--background", "20x10",
            "--output", str(out), "--truth", str(truth),
        ])
        assert code == 0
        assert out.read_bytes() == (DATA / "golden_input.tsv").read_bytes()
        assert truth.read_bytes() == (DATA / "golden_truth.json").read_bytes()

    def test_run_without_t0_matches_origin_zero(self, tmp_path):
        # The generator shuffles tuples within a bin, so its first line is
        # not its earliest; flooring that line's time to the stride gives
        # the truth's origin 0 all the same.
        stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
        assert main([*self.GEN, "--output", str(stream), "--truth", str(truth)]) == 0
        assert json.loads(truth.read_text())["t0"] == 0
        outputs = []
        for origin in ([], ["--t0", "0"]):
            out = tmp_path / f"run{len(outputs)}.jsonl"
            code = main([
                "run", "--input", str(stream), "--modes", "0,1", "--time-col", "2",
                "--value-col", "3", "--stride", "100", *origin, "--output", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 2

    def test_bin_before_the_first_lines_bin_names_the_default_origin(self, tmp_path, capsys):
        # 150 floors to the origin 100; 110 shares its bin, 90 precedes it.
        stream = tmp_path / "s.tsv"
        stream.write_text("a\tb\t150\t1\na\tc\t110\t1\na\tb\t90\t1\n")
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--input", str(stream), "--modes", "0,1", "--time-col", "2",
            "--value-col", "3", "--stride", "100", "--output", str(out),
        ])
        assert code == 2
        assert out.read_bytes() == b""
        err = capsys.readouterr().err.strip()
        assert err == (
            "error: line 3: timestamp '90' precedes the stream origin 100, the first "
            "kept tuple's time 150 (line 1) floored to a multiple of the stride; "
            "pass --t0 with the earliest timestamp"
        ), err

    @pytest.mark.parametrize("first, flags", [
        ("q\tr\t0\t0", []),
        ("q\tr\t0\tx", ["--on-error", "skip"]),
    ], ids=["zero-value", "skipped-bad-value"])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_dropped_first_line_does_not_set_the_default_origin(
        self, command, first, flags, tmp_path
    ):
        # The origin is 500, from the first kept tuple: one step, not six
        # from an origin of 0.
        kept = "a\tb\t500\t1\nc\td\t510\t2\n"
        outputs = []
        for text in (first + "\n" + kept, kept):
            stream, out = tmp_path / "s.tsv", tmp_path / f"out{len(outputs)}.jsonl"
            stream.write_text(text)
            code = main([command, "--input", str(stream), "--value-col", "3",
                         "--stride", "100", *flags, "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 1

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-link"])
    def test_truth_naming_the_output_is_config_error(self, existing, tmp_path, capsys):
        output = truth = tmp_path / "s.tsv"
        if existing:
            output.write_text("kept\n")
            truth = tmp_path / "link.json"
            truth.symlink_to(output)
        code = main([*self.GEN, "--output", str(output), "--truth", str(truth)])
        assert code == 3
        assert capsys.readouterr() == ("", f"error: --truth {truth} is the --output file\n")
        if existing:
            assert output.read_text() == "kept\n"
        else:
            assert not output.exists()

    def test_infeasible_density_is_config_error(self, tmp_path, capsys):
        code = main([
            "generate", "--block", "2x2", "--density", "3.0", "--span", "1",
            "--bins", "1", "--background-tuples", "1", "--background", "4x4",
            "--output", str(tmp_path / "x.tsv"), "--truth", str(tmp_path / "x.json"),
        ])
        assert code == 3  # infeasible spec rejected before any file is written
        assert not (tmp_path / "x.tsv").exists()


# A well-formed truth file, for cases that break one field of it.
TRUTH = (
    '{"schema":"tensorsplice/1","mode_ids":[["a"]],"span":[0,1],"density":1.0,'
    '"seed":0,"stride":1,"t0":0,"n_bins":1,"cells":null}'
)


class TestEvaluate:
    def test_perfect_detection_scores_one(self, tmp_path):
        stream = tmp_path / "s.tsv"
        truth = tmp_path / "t.json"
        main([
            "generate", "--block", "4x3", "--density", "1.0", "--span", "2",
            "--bins", "3", "--background-tuples", "25", "--background", "30x30",
            "--seed", "3", "--output", str(stream), "--truth", str(truth),
        ])
        report_path = tmp_path / "report.json"
        code = main([
            "evaluate", "--input", str(stream), "--truth", str(truth),
            "--output", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["f_measure"] == 1.0
        assert len(report["density_series"]) == 3
        assert "timings" not in report

    def test_matches_committed_golden(self, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "evaluate", "--input", str(DATA / "golden_input.tsv"),
            "--truth", str(DATA / "golden_truth.json"), "--k", "3",
            "--output", str(report),
        ])
        assert code == 0
        assert report.read_bytes() == (DATA / "golden_evaluate.json").read_bytes()

    @pytest.mark.parametrize(
        "text",
        ["", "{}", "[]", TRUTH.replace('"mode_ids":[["a"]]', '"mode_ids":5'),
         TRUTH.replace('"stride":1', '"stride":"x"'),
         TRUTH.replace('"mode_ids":[["a"]]', '"mode_ids":[[1]]'),
         TRUTH.replace('"stride":1', '"stride":0'),
         TRUTH.replace('"t0":0', '"t0":Infinity'),
         TRUTH.replace('"cells":null', '"cells":5'),
         TRUTH.replace('"seed":0', '"seed":true')],
        ids=["empty", "object", "list", "mode-ids-int", "stride-str", "label-int",
             "stride-zero", "t0-infinite", "cells-int", "seed-bool"],
    )
    def test_malformed_truth_is_input_error(self, text, tmp_path, capsys):
        truth = tmp_path / "t.json"
        truth.write_text(text)
        code = main([
            "evaluate", "--input", str(DATA / "golden_input.tsv"), "--truth", str(truth),
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {truth}: ") and err.count("\n") == 1

    def test_well_formed_truth_is_read(self, tmp_path):
        truth = tmp_path / "t.json"
        truth.write_text(TRUTH)
        assert tensorsplice.cli._read_truth(str(truth)).mode_ids == [["a"]]

    def test_truth_with_a_byte_order_mark_is_read(self, tmp_path):
        truth = tmp_path / "t.json"
        truth.write_bytes(b"\xef\xbb\xbf" + TRUTH.encode())
        assert tensorsplice.cli._read_truth(str(truth)).mode_ids == [["a"]]

    def test_bin_past_2_pow_53_is_input_error(self, tmp_path, capsys):
        # Without the bound this stepped through about 5e300 empty bins.
        stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
        stream.write_text("a\tb\t5\t1\n")
        truth.write_text(TRUTH.replace('[["a"]]', '[["a"],["b"]]').replace(
            '"stride":1', '"stride":1e-300'))
        code = main(["evaluate", "--input", str(stream), "--truth", str(truth)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: line 1: timestamp '5' is too far from the stream origin\n"
        )

    @pytest.mark.parametrize(
        "overwritten, link", [("truth", False), ("input", True)],
        ids=["truth-same-path", "input-symlink"],
    )
    def test_output_naming_an_input_is_config_error(
        self, overwritten, link, tmp_path, capsys
    ):
        stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
        stream.write_bytes((DATA / "golden_input.tsv").read_bytes())
        truth.write_text(TRUTH)
        output = stream if overwritten == "input" else truth
        if link:
            output = tmp_path / "link"
            output.symlink_to(stream if overwritten == "input" else truth)
        code = main(["evaluate", "--input", str(stream), "--truth", str(truth),
                     "--output", str(output)])
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: --output {output} is the --{overwritten} file\n"
        )
        assert stream.read_bytes() == (DATA / "golden_input.tsv").read_bytes()
        assert truth.read_text() == TRUTH

    def test_empty_input_is_config_error(self, tmp_path, capsys):
        stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
        stream.write_text("")
        truth.write_text(TRUTH)
        code = main(["evaluate", "--input", str(stream), "--truth", str(truth)])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: input stream is empty, nothing to evaluate\n"
        )

    def test_per_entry_without_cells_is_input_error(self, tmp_path, capsys):
        stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
        stream.write_text("a\t0\t1\n")
        truth.write_text(TRUTH)
        code = main(["evaluate", "--input", str(stream), "--truth", str(truth), "--per-entry"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {truth}: ") and err.count("\n") == 1

    def test_timings_flag_adds_seconds(self, tmp_path):
        stream = tmp_path / "s.tsv"
        truth = tmp_path / "t.json"
        main([
            "generate", "--block", "2x2", "--density", "1.0", "--span", "1",
            "--bins", "2", "--background-tuples", "10", "--background", "5x5",
            "--seed", "4", "--output", str(stream), "--truth", str(truth),
        ])
        report_path = tmp_path / "r.json"
        main([
            "evaluate", "--input", str(stream), "--truth", str(truth),
            "--timings", "--output", str(report_path),
        ])
        assert len(json.loads(report_path.read_text())["timings"]) == 2


# Small, fast settings that each case below overrides with one bad flag.
SCALE_FLAGS = [
    "--sizes", "4,8,16,64", "--repeats", "1", "--oracle-steps", "4",
    "--oracle-slice-nnz", "20", "--k", "2", "--l", "1",
]
STREAM_ARGS = ["--input", str(DATA / "golden_input.tsv"), *RUN_FLAGS]
EVALUATE_ARGS = [
    "--input", str(DATA / "golden_input.tsv"), "--truth", str(DATA / "golden_truth.json"),
]
# A valid generate command with relative output paths; flags given again
# after these override them.
GENERATE_ARGS = [
    "generate", "--block", "3x2", "--density", "1.0", "--span", "1", "--bins", "2",
    "--background-tuples", "40", "--background", "8x6",
    "--output", "gen.tsv", "--truth", "gen.json",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", *STREAM_ARGS, "--k", "0"],
        ["run", *STREAM_ARGS, "--l", "-1"],
        ["run", *STREAM_ARGS, "--max-epochs", "0"],
        ["oracle", *STREAM_ARGS, "--k", "0"],
        ["evaluate", *EVALUATE_ARGS, "--max-epochs", "0"],
        ["scale", *SCALE_FLAGS, "--oracle-steps", "3"],
        ["scale", *SCALE_FLAGS, "--sizes", "1,2"],
        ["scale", *SCALE_FLAGS, "--sizes", "0,4,8,64"],
        ["scale", *SCALE_FLAGS, "--repeats", "0"],
        ["scale", *SCALE_FLAGS, "--oracle-slice-nnz", "0"],
        ["run", *STREAM_ARGS, "--delimiter", ""],
        [*GENERATE_ARGS, "--gen-stride", "0"],
        [*GENERATE_ARGS, "--background", "0x40"],
        [*GENERATE_ARGS, "--density", "nan"],
        [*GENERATE_ARGS, "--density", "inf", "--density-mode", "multi"],
        [*GENERATE_ARGS, "--background-tuples", "-5"],
    ],
    ids=["run-k", "run-l", "run-epochs", "oracle-k", "evaluate-epochs",
         "scale-oracle-steps", "scale-few-sizes", "scale-zero-size", "scale-repeats",
         "scale-slice-nnz", "run-empty-delimiter", "generate-stride",
         "generate-background", "generate-nan-density", "generate-inf-density",
         "generate-negative-background-tuples"],
)
def test_out_of_range_flag_is_config_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where a generate case would write its files
    # A bad flag fails before any step or detect runs, also scale's.
    steps = count_calls(monkeypatch, tensorsplice.engine, "step")
    detects = count_calls(monkeypatch, tensorsplice.engine, "detect_top_blocks")
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert steps == detects == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", *STREAM_ARGS, "--modes", "a,b"], "--modes"),
        (["run", *STREAM_ARGS, "--binned-cols", "x"], "--binned-cols"),
        (["scale", *SCALE_FLAGS, "--sizes", "1,x"], "--sizes"),
        ([*GENERATE_ARGS, "--block", "3y2"], "--block"),
        ([*GENERATE_ARGS, "--background", "8x"], "--background"),
    ],
    ids=["run-modes", "run-binned-cols", "scale-sizes", "generate-block",
         "generate-background"],
)
def test_malformed_flag_value_names_its_flag(argv, flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = count_calls(monkeypatch, tensorsplice.engine, "step")
    detects = count_calls(monkeypatch, tensorsplice.engine, "detect_top_blocks")
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert steps == detects == []
    assert list(tmp_path.iterdir()) == []


# Each subcommand's ``--help`` usage block with its whitespace collapsed, so
# the terminal width does not matter: the option strings, which are required,
# and each one's metavar.
_STREAM_USAGE = (
    "[-h] --input INPUT [--modes MODES] [--time-col TIME_COL] [--value-col VALUE_COL] "
    "[--binned-cols BINNED_COLS] --stride STRIDE [--t0 T0] [--delimiter DELIMITER] "
    "[--time-format {epoch,iso}] [--header] [--on-error {abort,skip}] [--k K] [--l L] "
    "[--max-epochs MAX_EPOCHS] [--output OUTPUT]"
)
USAGE = {
    "run": f"usage: tensorsplice run {_STREAM_USAGE}",
    "oracle": f"usage: tensorsplice oracle {_STREAM_USAGE}",
    "generate": (
        "usage: tensorsplice generate [-h] --block BLOCK --density DENSITY --span SPAN "
        "--bins BINS --background-tuples BACKGROUND_TUPLES --background BACKGROUND "
        "[--start-bin START_BIN] [--gen-stride GEN_STRIDE] [--seed SEED] "
        "[--density-mode {cells,multi}] --output OUTPUT --truth TRUTH"
    ),
    "evaluate": (
        "usage: tensorsplice evaluate [-h] --input INPUT --truth TRUTH [--k K] [--l L] "
        "[--max-epochs MAX_EPOCHS] [--per-entry] [--timings] [--output OUTPUT]"
    ),
    "scale": (
        "usage: tensorsplice scale [-h] [--sizes SIZES] [--seed SEED] [--repeats REPEATS] "
        "[--oracle-steps ORACLE_STEPS] [--oracle-slice-nnz ORACLE_SLICE_NNZ] [--k K] "
        "[--l L] [--max-epochs MAX_EPOCHS] [--output OUTPUT]"
    ),
}


@pytest.mark.parametrize("command", list(USAGE))
def test_help_usage_is_unchanged(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(usage.split()) == USAGE[command]


def test_negative_column_is_config_error(capsys):
    code = main(["run", *STREAM_ARGS, "--time-col", "-1"])
    assert code == 3
    assert capsys.readouterr() == ("", "error: column indices cannot be negative\n")


@pytest.mark.parametrize(
    "command, policy",
    [("run", "abort"), ("run", "skip"), ("oracle", "abort"), ("evaluate", None)],
    ids=["run", "run-skip", "oracle", "evaluate"],
)
@pytest.mark.parametrize(
    "text, lineno",
    [
        ("a\tb\t10\t1e308\n" * 2, 1),
        ("a\tb\t10\t1e308\na\tc\t10\t1e308\nd\tb\t10\t1e308\n", 1),
        ("a\tb\t10\t1e288\na\tc\t10\t1e288\nd\tb\t10\t1e288\n", 3),
        ("a\tb\t10\t1.5\na\tc\t10\t1" + "0" * 400 + "\n", 2),
    ],
    ids=["one-cell", "three-cells", "finite-sum", "long-int"],
)
def test_values_summing_past_the_ceiling_are_input_error(
    text, lineno, command, policy, tmp_path, capsys
):
    # Finite values whose sum overflows once printed "density":Infinity.
    stream, truth = tmp_path / "s.tsv", tmp_path / "t.json"
    stream.write_text(text)
    truth.write_text(TRUTH.replace('[["a"]]', '[["a"],["b"]]'))
    if command == "evaluate":
        argv = ["evaluate", "--input", str(stream), "--truth", str(truth)]
    else:
        argv = [command, "--input", str(stream), "--modes", "0,1", "--time-col", "2",
                "--value-col", "3", "--stride", "1", "--on-error", policy]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "Infinity" not in out and "NaN" not in out
    assert err.startswith(f"error: line {lineno}: values sum past ") and err.count("\n") == 1


class TestScale:
    def test_report_shape(self, tmp_path, monkeypatch):
        steps = count_calls(monkeypatch, tensorsplice.engine, "step")
        detects = count_calls(monkeypatch, tensorsplice.engine, "detect_top_blocks")
        out = tmp_path / "scale.json"
        code = main([
            "scale", "--sizes", "60,120,240,480,960", "--repeats", "1",
            "--oracle-steps", "4", "--oracle-slice-nnz", "150",
            "--k", "2", "--l", "1", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"schema", "engine", "rerun_baseline"}
        for name in ("engine", "rerun_baseline"):
            assert list(report[name]) == ["slope", "ci95", "points"]
        assert len(report["engine"]["points"]) == 5
        assert len(report["rerun_baseline"]["points"]) == 4
        lo, hi = report["engine"]["ci95"]
        assert lo <= report["engine"]["slope"] <= hi
        # One step per size, and a detect in each of those and each re-run stride.
        assert (len(steps), len(detects)) == (5, 9)


def test_unknown_subcommand_is_config_error(capsys):
    assert main(["frobnicate"]) == 3


def modules_loaded_by_import(module: str) -> set[str]:
    """The modules a fresh interpreter loads to import ``module``."""
    # -S keeps site-packages' .pth files, which import modules of their
    # own, out of the child.
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules)\n"
        f"import {module}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, timeout=TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_imports_only_what_run_and_oracle_execute():
    added = modules_loaded_by_import("tensorsplice.cli")
    assert "tensorsplice.cli" in added
    unused = {"tensorsplice.synth", "dataclasses", "inspect", "logging", "datetime", "random",
              "typing"}
    assert added & unused == set()
    assert [name for name in tensorsplice.__all__ if not hasattr(tensorsplice, name)] == []


def test_synth_loads_neither_dataclasses_nor_inspect():
    # Every record is a namedtuple, which needs neither module.
    added = modules_loaded_by_import("tensorsplice.synth")
    assert "tensorsplice.synth" in added
    assert added & {"dataclasses", "inspect"} == set()
