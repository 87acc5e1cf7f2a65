"""Command-line interface: output bytes and exit codes."""

import hashlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from clutters.blocker import blocker
from clutters.cli import main
from clutters.core import MinorSpec, apply_minor, canonical_serialize, new_clutter
from clutters.graphview import incidence_graph, to_dot
from clutters.matroid import circuits_clutter, uniform
from helpers import naive_chain_steps


@pytest.fixture
def write(tmp_path):
    counter = {"n": 0}

    def _write(text):
        counter["n"] += 1
        path = tmp_path / f"clutter{counter['n']}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run_prompt(argv):
    """main(argv) under a 5 s alarm."""

    def too_slow(signum, frame):
        raise AssertionError(f"{argv[0]!r} took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SRC = Path(__file__).resolve().parent.parent / "src"

PATH_TEXT = "elements 1 2 3\nrow 1 2\nrow 2 3\n"
TRIANGLE_TEXT = "elements 1 2 3\nrow 1 2\nrow 1 3\nrow 2 3\n"


class TestShow:
    def test_normalizes(self, write, capsys):
        messy = "# comment\nelements 1 2\nrow 1 2\n"
        assert main(["show", write(messy)]) == 0
        assert capsys.readouterr().out == "elements 1 2\nrow 1 2\n"

    def test_matches_library_bytes(self, write, capsys):
        assert main(["show", write(PATH_TEXT)]) == 0
        M = new_clutter("123", [["1", "2"], ["2", "3"]])
        assert capsys.readouterr().out == canonical_serialize(M)


class TestDeleteContract:
    def test_delete(self, write, capsys):
        assert main(["delete", write(PATH_TEXT), "-e", "1"]) == 0
        assert capsys.readouterr().out == "elements 2 3\nrow 2 3\n"

    def test_contract(self, write, capsys):
        assert main(["contract", write(PATH_TEXT), "-e", "1"]) == 0
        assert capsys.readouterr().out == "elements 2 3\nrow 2\n"

    def test_unknown_element_is_domain_error(self, write, capsys):
        assert main(["delete", write(PATH_TEXT), "-e", "9"]) == 2
        assert "error" in capsys.readouterr().err


class TestBlocker:
    def test_blocker_output(self, write, capsys):
        assert main(["blocker", write(PATH_TEXT)]) == 0
        assert capsys.readouterr().out == "elements 1 2 3\nrow 2\nrow 1 3\n"

    def test_matches_library(self, write, capsys):
        assert main(["blocker", write(TRIANGLE_TEXT)]) == 0
        M = new_clutter("123", [["1", "2"], ["1", "3"], ["2", "3"]])
        assert capsys.readouterr().out == canonical_serialize(blocker(M))


class TestConnected:
    def test_connected_exit_zero(self, write):
        assert main(["connected", write("elements 1 2\nrow 1 2\n")]) == 0

    def test_disconnected_exit_one(self, write):
        assert main(["connected", write("elements 1 2\nrow 1\nrow 2\n")]) == 1

    def test_no_data_on_stdout(self, write, capsys):
        main(["connected", write(PATH_TEXT)])
        assert capsys.readouterr().out == ""

    def test_thirty_element_path_is_prompt(self, write):
        labels = [str(i + 1) for i in range(30)]
        text = "elements " + " ".join(sorted(labels)) + "\n" + "".join(
            f"row {' '.join(sorted(labels[i : i + 2]))}\n" for i in range(29)
        )
        assert run_prompt(["connected", write(text)]) == 0


class TestMinor:
    def test_witness(self, write, capsys):
        n_text = "elements 1 2\nrow 1\nrow 2\n"
        assert main(["minor", write(TRIANGLE_TEXT), write(n_text)]) == 0
        assert capsys.readouterr().out == "deletes -\ncontracts 3\n"

    def test_none(self, write, capsys):
        n_text = "elements 1 2\nrow 1\n"
        assert main(["minor", write(TRIANGLE_TEXT), write(n_text)]) == 0
        assert capsys.readouterr().out == "none\n"

    # a path e00-e01-...-e23; 22 removed elements give 2^22 specs
    PATH24_TEXT = "elements " + " ".join(f"e{i:02d}" for i in range(24)) + "\n" + "".join(
        f"row e{i:02d} e{i + 1:02d}\n" for i in range(23)
    )

    def test_huge_ground_miss_is_prompt(self, write, capsys):
        # every row of a minor lies inside a row of M, and no row of the
        # path holds both ends
        n_text = "elements e00 e23\nrow e00 e23\n"
        assert run_prompt(["minor", write(self.PATH24_TEXT), write(n_text)]) == 0
        assert capsys.readouterr().out == "none\n"

    def test_huge_ground_hit_is_all_delete(self, write, capsys):
        n_text = "elements e00 e01\nrow e00 e01\n"
        assert run_prompt(["minor", write(self.PATH24_TEXT), write(n_text)]) == 0
        deletes = " ".join(f"e{i:02d}" for i in range(2, 24))
        assert capsys.readouterr().out == f"deletes {deletes}\ncontracts -\n"


class TestSplitter:
    def test_step_output(self, write, capsys):
        n_text = "elements 1 2\nrow 1 2\n"
        assert main(["splitter", write(TRIANGLE_TEXT), write(n_text)]) == 0
        assert capsys.readouterr().out == "delete 3\n  elements 1 2\n  row 1 2\n"

    def test_counterexample_reports_and_exits_two(self, write, capsys):
        n_text = "elements 3\nrow -\n"
        assert main(["splitter", write(PATH_TEXT), write(n_text)]) == 2
        err = capsys.readouterr().err
        assert "splitter search failed" in err
        assert "minimal black vertices" in err

    def test_counterexample_stderr_is_pinned(self, write, capsys):
        m_text = "elements a b c\nrow a b\nrow b c\n"
        assert main(["splitter", write(m_text), write("elements c\nrow -\n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no single-element removal preserves connectivity and the minor\n"
            "splitter search failed: every candidate fails\n"
            "\n"
            "M:\n"
            "  elements a b c\n"
            "  row a b\n"
            "  row b c\n"
            "N:\n"
            "  elements c\n"
            "  row -\n"
            "\n"
            "candidates:\n"
            "  delete a: target not a minor of result\n"
            "  contract a: result disconnected\n"
            "  delete b: result disconnected; target not a minor of result\n"
            "  contract b: result disconnected\n"
            "\n"
            "incidence graph analysis of M:\n"
            "  minimal black vertices: a c\n"
            "  twins: none\n"
            "  good components:\n"
            "    u=a: {b c r:b,c} (minimal)\n"
            "    u=c: {a b r:a,b} (minimal)\n"
        )

    def test_precondition_violation_exits_two(self, write, capsys):
        n_text = "elements 1 2\nrow 1\nrow 2\n"
        assert main(["splitter", write(TRIANGLE_TEXT), write(n_text)]) == 2
        assert "error" in capsys.readouterr().err


class TestChain:
    def test_default_target_is_empty(self, write, capsys):
        assert main(["chain", write("elements 1 2\nrow 1 2\n")]) == 0
        assert capsys.readouterr().out == (
            "delete 1\n  elements 2\ndelete 2\n  elements\n"
        )

    def test_explicit_target(self, write, capsys):
        n_text = "elements 1 2\nrow 1 2\n"
        assert main(["chain", write(TRIANGLE_TEXT), write(n_text)]) == 0
        assert capsys.readouterr().out == "delete 3\n  elements 1 2\n  row 1 2\n"

    def test_equal_files_empty_output(self, write, capsys):
        assert main(["chain", write(PATH_TEXT), write(PATH_TEXT)]) == 0
        assert capsys.readouterr().out == ""


class TestBigChain:
    """U(3,11): 11 elements and 330 rows, every 4-subset."""

    LABELS = [f"e{i:02d}" for i in range(11)]
    M = circuits_clutter(uniform(3, 11, LABELS))
    # delete e01 e03 e05 e07, contract e08 e10: every pair of the rest
    N = apply_minor(
        M, MinorSpec(frozenset({"e01", "e03", "e05", "e07"}), frozenset({"e08", "e10"}))
    )

    def test_chain_to_empty(self, write, capsys):
        steps = naive_chain_steps(self.M, new_clutter([], []))
        assert len(steps) == 11
        assert run_prompt(["chain", write(canonical_serialize(self.M))]) == 0
        assert capsys.readouterr().out == "".join(steps)

    def test_splitter_step(self, write, capsys):
        assert len(self.N.ground) == 5
        first = naive_chain_steps(self.M, self.N)[0]
        files = [write(canonical_serialize(C)) for C in (self.M, self.N)]
        assert run_prompt(["splitter", *files]) == 0
        assert capsys.readouterr().out == first


class TestDot:
    def test_matches_library(self, write, capsys):
        assert main(["dot", write("elements 1 2\nrow 1 2\n")]) == 0
        M = new_clutter("12", [["1", "2"]])
        assert capsys.readouterr().out == to_dot(incidence_graph(M))


class TestVerify:
    def test_theorem_line(self, capsys):
        assert main(["verify", "--n", "2", "--theorem"]) == 0
        assert capsys.readouterr().out == "theorem n=2: tested=6 passed=6 counterexamples=0\n"

    def test_identities_lines(self, capsys):
        assert main(["verify", "--n", "1", "--identities"]) == 0
        out = capsys.readouterr().out
        assert "blocker-involution: tested=3 passed=3 counterexamples=0" in out
        assert "theorem" not in out

    def test_default_runs_both(self, capsys):
        assert main(["verify", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "duality-swap:" in out and "theorem n=1:" in out

    def test_known_failures_are_report_content_not_errors(self, capsys):
        assert main(["verify", "--n", "3", "--theorem"]) == 0
        out = capsys.readouterr().out
        assert "theorem n=3: tested=61 passed=52 counterexamples=9" in out

    def test_theorem_n5_output_is_pinned_and_prompt(self, capsys):
        def too_slow(signum, frame):
            raise AssertionError("'verify --n 5 --theorem' took more than 60 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            assert main(["verify", "--n", "5", "--theorem"]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        out = capsys.readouterr().out
        # the value pinned as THEOREM_REPORT_SHA256[5] in test_enumeration
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e089372013b223ba1ef1a78d30201067e4f87b9e0262aea30917c1a2bfedf8a9"
        )

    def test_default_n5_prints_both_reports(self, capsys):
        assert main(["verify", "--n", "5"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        identities, theorem = "".join(lines[:6]), "".join(lines[6:])  # six families
        # the values pinned as N5_IDENTITIES_REPORT_SHA256 and
        # THEOREM_REPORT_SHA256[5] in test_enumeration
        assert hashlib.sha256(identities.encode()).hexdigest() == (
            "4a1c26b4f82acdbb8aa87109f12a5b070f26a4e11fd8ef16c9f21c7911efe395"
        )
        assert hashlib.sha256(theorem.encode()).hexdigest() == (
            "e089372013b223ba1ef1a78d30201067e4f87b9e0262aea30917c1a2bfedf8a9"
        )


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 64
        assert main([]) == 64

    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent/path.txt"]) == 65

    def test_malformed_file(self, write, capsys):
        assert main(["show", write("bogus\n")]) == 65

    @pytest.mark.parametrize("command", ["show", "connected"])
    def test_invalid_utf8_is_malformed_input(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"elements 1 \xe9\nrow 1\n")
        assert main([command, str(path)]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_empty_row_marker_beside_members_is_malformed_input(self, write, capsys):
        assert main(["show", write("elements a b\nrow - a\n")]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_invalid_clutter_is_domain_error(self, write, capsys):
        assert main(["show", write("elements 1 2\nrow 1\nrow 1 2\n")]) == 2

    def test_row_prefix_label_is_domain_error(self, write, capsys):
        assert main(["show", write("elements r:x x\nrow x\n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_many_labels_with_repeats_is_prompt_domain_error(self, write):
        # the repeats are found in one pass over the labels, not one per label
        labels = [f"x{i}" for i in range(100_000)] + ["x77", "x123"]
        path = write("elements " + " ".join(labels) + "\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "clutters.cli", "show", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: duplicated labels: x123 x77\n"

    def test_identities_beyond_n5_is_domain_error(self, capsys):
        # the identity families stop at n=5
        assert main(["verify", "--n", "6", "--identities"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("n", ["6", "-1"])
    def test_theorem_outside_range_is_domain_error(self, n, capsys):
        assert main(["verify", "--n", n, "--theorem"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestFailedStdout:
    """A valid command, or a request for help, whose stdout cannot be
    written exits 74 with one error line, whether stdout is buffered or not,
    and also when descriptor 1 was closed before the interpreter started."""

    ARGVS = [
        ["verify", "--n", "4"],
        ["verify", "--n", "3", "--theorem"],
        ["show"],
        ["--help"],
        ["show", "--help"],
    ]

    # runs the command with descriptor 1 closed before the interpreter starts
    CLOSE_STDOUT = ("sh", "-c", 'exec "$@" >&-', "sh")

    def run(self, argv, write, stdout, buffered, prefix=()):
        if argv == ["show"]:
            argv = argv + [write(PATH_TEXT)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [*prefix, sys.executable, "-m", "clutters.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_closed_pipe(self, write, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(argv, write, write_end, buffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 74
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_full_device(self, write, argv, buffered):
        with open("/dev/full", "w") as full:
            proc = self.run(argv, write, full, buffered)
        assert proc.returncode == 74
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_descriptor_closed_at_start(self, write, argv, buffered):
        proc = self.run(argv, write, None, buffered, self.CLOSE_STDOUT)
        assert proc.returncode == 74
        assert proc.stderr == "error: [Errno 9] Bad file descriptor\n"

    @pytest.mark.parametrize(
        "text,code", [("elements 1 2\nrow 1 2\n", 0), ("elements 1 2\nrow 1\nrow 2\n", 1)]
    )
    def test_connected_with_descriptor_closed_at_start(self, write, text, code):
        proc = self.run(["connected", write(text)], write, None, True, self.CLOSE_STDOUT)
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_in_process_stdout_without_descriptor(self, write, monkeypatch, capsys):
        class Broken(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Broken())
        assert main(["show", write(PATH_TEXT)]) == 74
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestFailedStderr:
    """A failure whose diagnostics cannot be written to stderr, because it is
    closed or full, still exits with its documented code, and stdout stays
    empty."""

    CASES = {
        "missing file": (lambda write: ["show", write(PATH_TEXT) + ".absent"], 65),
        "malformed input": (lambda write: ["show", write("rows 1 2\n")], 65),
        "counterexample": (
            lambda write: ["splitter", write(PATH_TEXT), write("elements 3\nrow -\n")],
            2,
        ),
        "domain error": (lambda write: ["delete", write(PATH_TEXT), "-e", "9"], 2),
        "usage error": (lambda write: ["no-such-command"], 64),
    }

    def run(self, argv, **stderr):
        return subprocess.run(
            [sys.executable, "-m", "clutters.cli", *argv],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
            **stderr,
        )

    @pytest.mark.parametrize("case", CASES)
    def test_closed(self, write, case):
        make_argv, code = self.CASES[case]
        proc = self.run(make_argv(write), preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (code, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("case", CASES)
    def test_full_device(self, write, case):
        make_argv, code = self.CASES[case]
        with open("/dev/full", "w") as full:
            proc = self.run(make_argv(write), stderr=full)
        assert (proc.returncode, proc.stdout) == (code, "")
