"""Command-line behavior: determinism, exit codes, file workflows."""

import io
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab.cli import RunConfig, cmd_demo, cmd_suite, main


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "bicliquelab", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestDemo:
    def test_n1_trivial_pass(self):
        text, ok = cmd_demo(1, RunConfig())
        assert ok
        assert "vertex-count 1" in text
        assert text.endswith("status pass\n")

    def test_n2_numbers(self):
        text, ok = cmd_demo(2, RunConfig())
        assert ok
        assert "vertex-count 128" in text
        assert "edge-count 7680" in text
        assert "independence-number 4" in text
        assert "chromatic-lower-bound 32" in text
        assert "partition-size 480" in text
        assert "partition-size-bound 930" in text

    def test_deterministic(self):
        a, _ = cmd_demo(2, RunConfig())
        b, _ = cmd_demo(2, RunConfig())
        assert a == b


class TestSuites:
    @pytest.mark.parametrize("name", ["cube", "partition", "peck"])
    def test_suite_passes(self, name):
        text, ok = cmd_suite(name, RunConfig())
        assert ok
        assert text.endswith("status pass\n")

    def test_clis_with_ambiguous_pairs_as_edges(self):
        code, out, _ = run_cli("--ambiguous-edge", "edge", "suite", "clis")
        assert code == 0
        assert out.endswith("status pass\n")

    def test_suite_deterministic_across_processes(self):
        _, a, _ = run_cli("suite", "peck")
        _, b, _ = run_cli("suite", "peck")
        assert a == b


class TestExitCodes:
    def test_demo_ok(self):
        code, out, _ = run_cli("demo", "--n", "1")
        assert code == 0
        assert "status pass" in out

    def test_unknown_suite_usage_error(self):
        code, _, _ = run_cli("suite", "bogus")
        assert code == 2

    def test_missing_suite_name(self):
        code, _, _ = run_cli("suite")
        assert code == 2

    def test_suite_flag_spelling_refused(self):
        code, out, err = run_cli("suite", "--suite", "cube")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_resource_limit_exit(self):
        code, _, err = run_cli("demo", "--n", "4")
        assert code == 3
        assert "resource limit" in err

    def test_refused_allocation_exit(self, tmp_path):
        # the reader refuses a header order above the vertex limit before
        # it allocates anything; the refusal is a resource limit, not a
        # failed verification
        huge = tmp_path / "huge.dimacs"
        huge.write_text("p edge 1000000000 0\n", encoding="ascii")
        code, out, err = run_cli("verify", "--graph", str(huge), "--partition", str(huge))
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit:")
        assert "Traceback" not in err

    def test_pair_limit_flag(self):
        code, out, err = run_cli("--pair-limit", "10", "suite", "clis")
        assert code == 3
        assert "pair_limit exceeded" in err
        assert "Traceback" not in err

    def test_vertex_limit_flag(self):
        code, _, _ = run_cli("--vertex-limit", "10", "demo", "--n", "2")
        assert code == 3

    def test_vertex_limit_reaches_graph_readers(self, tmp_path):
        graph = tmp_path / "path.dimacs"
        graph.write_text("p edge 11 1\ne 1 2\n", encoding="ascii")
        partition = tmp_path / "path.system"
        partition.write_text("bicliquesystem 11 1 1\npart 0 : 1\n", encoding="ascii")
        verify = ("verify", "--graph", str(graph), "--partition", str(partition))
        assert run_cli(*verify)[0] == 0
        code, _, err = run_cli("--vertex-limit", "10", *verify)
        assert code == 3 and "vertex_limit" in err
        oracle = ("oracle", "--graph", str(graph), "--what", "alpha")
        code, _, err = run_cli("--vertex-limit", "10", *oracle)
        assert code == 3 and "vertex_limit" in err

    def test_invalid_n_usage_error(self):
        code, _, err = run_cli("demo", "--n", "0")
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize(
        "argv",
        [("--vertex-limit", "0", "demo", "--n", "1"), ("--pair-limit", "-5", "suite", "cube")],
    )
    def test_non_positive_limit_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input:")
        assert "Traceback" not in err

    def test_missing_file_usage_error(self, tmp_path):
        code, _, _ = run_cli(
            "verify", "--graph", str(tmp_path / "nope"), "--partition", str(tmp_path / "nope2")
        )
        assert code == 2


class TestOversizedSizes:
    """Sizes far past the guards are refused by their bit lengths, before any
    power is formed, and a one-vertex power costs nothing however large t is."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--what", "graph", "--n", "1" + "0" * 700),
            ("build", "--what", "cover", "--n", "2", "--t", "10000000"),
            ("build", "--what", "cover", "--n", "3", "--t", "30000000"),
        ],
    )
    def test_refused_fast(self, argv, capsys):
        start = time.perf_counter()
        assert main(list(argv)) == 3
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource limit: vertex_limit exceeded: requested ")

    def test_one_vertex_power_fast(self, capsys):
        start = time.perf_counter()
        assert main(["build", "--what", "cover", "--n", "1", "--t", "1000000000"]) == 0
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().out == "bicliquesystem 1 0 1000000000\n"


class TestFileWorkflows:
    def test_build_verify_round_trip(self, tmp_path):
        gpath = tmp_path / "g.dimacs"
        ppath = tmp_path / "p.system"
        code, out, _ = run_cli("--out", str(gpath), "build", "--what", "graph", "--n", "2")
        assert code == 0
        code, out, _ = run_cli("--out", str(ppath), "build", "--what", "partition", "--n", "2")
        assert code == 0
        code, out, _ = run_cli(
            "verify", "--graph", str(gpath), "--partition", str(ppath)
        )
        assert code == 0
        assert '"verdict": "pass"' in out

    def test_verify_failure_exit_1(self, tmp_path):
        gpath = tmp_path / "g.dimacs"
        ppath = tmp_path / "p.system"
        gpath.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n", encoding="ascii")
        ppath.write_text("bicliquesystem 3 1 1\npart 0 : 1\n", encoding="ascii")
        code, out, _ = run_cli("verify", "--graph", str(gpath), "--partition", str(ppath))
        assert code == 1
        assert '"verdict": "fail"' in out

    def test_parse_error_exit_2(self, tmp_path):
        gpath = tmp_path / "bad.dimacs"
        gpath.write_text("p edge 3 5\ne 1 2\n", encoding="ascii")
        ppath = tmp_path / "p.system"
        ppath.write_text("bicliquesystem 3 0 1\n", encoding="ascii")
        code, _, err = run_cli("verify", "--graph", str(gpath), "--partition", str(ppath))
        assert code == 2
        assert "parse error" in err

    def test_oracle_alpha(self, tmp_path):
        gpath = tmp_path / "g.dimacs"
        gpath.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n", encoding="ascii")
        code, out, _ = run_cli("oracle", "--graph", str(gpath), "--what", "alpha")
        assert code == 0
        assert out.startswith("alpha 2\n")

    def test_oracle_alpha_uses_run_config_order_limit(self, tmp_path):
        # 300 vertices are above the oracle's own default limit (256) and
        # within RunConfig.alpha_order_limit, which demo already uses
        gpath = tmp_path / "g.dimacs"
        gpath.write_text("p edge 300 0\n", encoding="ascii")
        code, out, _ = run_cli("oracle", "--graph", str(gpath), "--what", "alpha")
        assert code == 0
        assert out.startswith("alpha 300\n")

    def test_oracle_bp(self, tmp_path):
        gpath = tmp_path / "g.dimacs"
        gpath.write_text(
            "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n", encoding="ascii"
        )
        code, out, _ = run_cli("oracle", "--graph", str(gpath), "--what", "bp", "--t", "2")
        assert code == 0
        assert out.startswith("bp_2 2\n")

    def test_out_file_byte_identical_to_stdout(self, tmp_path):
        out_path = tmp_path / "report.txt"
        code, stdout, _ = run_cli("--out", str(out_path), "demo", "--n", "1")
        assert code == 0
        assert out_path.read_text(encoding="ascii") == stdout

    def test_unwritable_out_file_io_error(self, tmp_path):
        out_path = tmp_path / "missing" / "report.txt"
        code, _, err = run_cli("--out", str(out_path), "demo", "--n", "1")
        assert code == 2
        assert err.startswith("io error:")
        assert "Traceback" not in err


_BIG = "1" + "0" * 700  # past Python's 4,300-digit str() limit once raised to the 7th power
_N = ("-1", "0", "1", "2", "10000000", "30000000", "1000000000", _BIG, "x")
# no 2: the t = 2 cover of n = 2 has 2**14 vertices, and --n 3 is left out, so
# no example builds more than 2**14 vertices or takes long
_T = ("-1", "0", "1", "3", "10000000", "30000000", "1000000000", _BIG, "x")
_FILES = ("g.dimacs", "p.system", "bad.dimacs", "huge.dimacs", "nope")


def _flag(flag, values, optional=False):
    """``[flag, value]`` for a value drawn from ``values``; or ``[]`` too if optional."""
    pair = st.sampled_from(values).map(lambda v: [flag, v])
    return st.one_of(st.just([]), pair) if optional else pair


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: [x for part in lists for x in part])


_GLOBAL = _argv(
    _flag("--vertex-limit", ("-5", "100", "10000"), optional=True),
    _flag("--pair-limit", ("0", "10", _BIG), optional=True),
    _flag("--ambiguous-edge", ("edge", "nonedge", "bogus"), optional=True),
    _flag("--out", ("report.txt", "missing/report.txt"), optional=True),
)
_COMMAND = st.one_of(
    _argv(st.just(["demo"]), _flag("--n", _N)),
    _argv(st.just(["suite"]), st.sampled_from([["cube"], ["peck"], ["bogus"]])),
    _argv(st.just(["verify"]), _flag("--graph", _FILES), _flag("--partition", _FILES)),
    _argv(
        st.just(["oracle"]),
        _flag("--graph", _FILES),
        _flag("--what", ("alpha", "chi", "bp", "x")),
        _flag("--t", _T, optional=True),
    ),
    _argv(
        st.just(["build"]),
        _flag("--what", ("graph", "partition", "cover", "x")),
        _flag("--n", _N),
        _flag("--t", _T, optional=True),
    ),
    # loose tokens; "partition" and "clis" are left out, so no suite of theirs runs
    st.lists(
        st.sampled_from(["demo", "suite", "build", "-h", "--bogus", "cube", "1", "--n"]), max_size=4
    ),
)


class TestMainProperty:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        (root / "g.dimacs").write_text("p edge 3 2\ne 1 2\ne 2 3\n", encoding="ascii")
        (root / "p.system").write_text("bicliquesystem 3 1 1\npart 1 : 0 2\n", encoding="ascii")
        (root / "bad.dimacs").write_text("p edge 3 5\ne 1 2\n", encoding="ascii")
        (root / "huge.dimacs").write_text("p edge 1000000000 0\n", encoding="ascii")
        return root

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_GLOBAL, _COMMAND)
    def test_exit_code_or_usage_exit(self, workdir, options, command):
        # a file name in the vocabulary stands for that file in the work directory
        names = _FILES + ("report.txt", "missing/report.txt")
        argv = [str(workdir / x) if x in names else x for x in options + command]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
