import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import immdfun
from immdfun import dualspace, plethysm, verification
from immdfun.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, load_matrix_file, main
from immdfun.errors import MatrixParseError
from immdfun.symgroup import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImmanantCommand:
    def test_identity_hook_partition(self, capsys):
        code, out, _ = run(capsys, "immanant", "--partition", "2,1", "--identity", "3")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value"] == [2.0, 0.0]

    def test_euler_cos_beta(self, capsys):
        beta = math.pi / 3
        code, out, _ = run(
            capsys, "immanant", "--partition", "2", "--euler", f"0.0,{beta},0.0"
        )
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["value"][0] == pytest.approx(0.5, abs=1e-12)

    def test_haar_permanent_matches_ryser(self, capsys):
        code, out, _ = run(
            capsys, "immanant", "--partition", "4", "--haar", "4", "--seed", "7"
        )
        assert code == EXIT_OK
        from immdfun.linalgimm import haar_random_unitary, permanent_ryser

        expected = permanent_ryser(haar_random_unitary(4, 7).matrix)
        record = json.loads(out)
        assert record["value"][0] == pytest.approx(expected.real, abs=1e-10)
        assert record["value"][1] == pytest.approx(expected.imag, abs=1e-10)

    def test_submatrix_with_duality_check(self, capsys):
        code, out, _ = run(
            capsys,
            "immanant",
            "--partition",
            "2,1",
            "--haar",
            "4",
            "--seed",
            "3",
            "--rows",
            "2,3,4",
            "--cols",
            "1,3,4",
            "--check-duality",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["pass"] is True
        assert record["duality_residual"] < 1e-10

    def test_matrix_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
        code, out, _ = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["value"] == [1.0, 0.0]

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2,\n  broken]]")
        code, _, err = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_USAGE
        assert "line" in err

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "immanant", "--partition", "2,1", "--identity", "4")
        assert code == EXIT_USAGE
        assert "partition" in err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "binary"])
    def test_unreadable_matrix_file(self, capsys, tmp_path, content):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[[1e200, 0.0]] * 2] * 2))
        out_path = tmp_path / "imm.json"
        code, out, err = run(
            capsys, "immanant", "--partition", "2", "--matrix-file", str(path),
            "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_resource_cap(self, capsys):
        code, _, err = run(capsys, "immanant", "--partition", "10", "--identity", "10")
        assert code == EXIT_RESOURCE
        assert "capped" in err


class TestVerifyCommand:
    def test_kostant_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "3", "--seed", "1"
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["pass"] for rec in lines)
        assert {rec["suite"] for rec in lines} == {"kostant"}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "kostant", "--m", "2", "--samples", "3")
        _, second, _ = run(capsys, "verify", "kostant", "--m", "2", "--samples", "3")
        assert first == second

    def test_conjecture_single_selector(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "conjecture",
            "--m",
            "4",
            "--partition",
            "2,1",
            "--rows",
            "2,3,4",
            "--cols",
            "1,3,4",
            "--samples",
            "3",
        )
        assert code == EXIT_OK
        record = json.loads(out.strip())
        assert record["details"]["unit_entries"] == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.startswith("suite,m,partition")

    def test_pretty_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--format", "pretty"
        )
        assert code == EXIT_OK
        assert out.startswith("[PASS] kostant")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--out", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_reports_are_built_only_in_verification(self):
        for module in (dualspace, plethysm):
            assert not hasattr(module, "VerificationReport"), module.__name__

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_unwritable_output_file(self, capsys, tmp_path):
        path = tmp_path / "no" / "x.jsonl"
        code, out, err = run(capsys, "verify", "plethysm-su2", "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--out", "/dev/full"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_is_usage_error(self):
        # A separate process, so that the interpreter's exit-time flush of
        # stdout is covered too.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(immdfun.__file__)))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "immdfun.cli", "verify", "kostant", "--m", "2", "--samples", "2"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: cannot write stdout") and proc.stderr.count("\n") == 1

    # Each suite with every flag it reads, and the same run as a direct call.
    @pytest.mark.parametrize(
        "flags, suite, kwargs",
        [
            pytest.param(
                ("--m", "2", "--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.kostant_suite,
                dict(m_values=(2,), samples=2, seed=3, tol=1e-8),
                id="kostant",
            ),
            pytest.param(
                ("--m", "4", "--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.corollary4_suite,
                dict(m_values=(4,), samples=2, seed=3, tol=1e-8),
                id="corollary4",
            ),
            pytest.param(
                ("--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.littlewood_suite,
                dict(samples=2, seed=3, tol=1e-8),
                id="littlewood",
            ),
            pytest.param(
                (
                    "--m", "4", "--partition", "2,1", "--rows", "2,3,4", "--cols", "1,3,4",
                    "--samples", "2", "--seed", "3", "--tol", "1e-7",
                ),
                verification.conjecture_suite,
                dict(
                    m=4,
                    partition=Partition(2, 1),
                    selectors=[((2, 3, 4), (1, 3, 4))],
                    samples=2,
                    seed=3,
                    entry_tol=1e-7,
                ),
                id="conjecture",
            ),
            pytest.param(
                ("--samples", "40", "--seed", "3", "--tol", "1e-7"),
                verification.plethysm_su2_suite,
                dict(samples=40, seed=3, tol=1e-7),
                id="plethysm-su2",
            ),
            pytest.param(
                ("--samples", "55", "--seed", "3", "--tol", "1e-6"),
                verification.plethysm_su3_suite,
                dict(samples=55, seed=3, tol=1e-6),
                id="plethysm-su3",
            ),
        ],
    )
    def test_flags_map_to_suite_kwargs(self, request, capsys, flags, suite, kwargs):
        name = request.node.callspec.id
        assert verification.SUITES[name] is suite
        _, out, _ = run(capsys, "verify", name, *flags)
        expected = "".join(report.to_json_line() + "\n" for report in suite(**kwargs))
        assert out == expected


class TestDumpCommand:
    def test_identity_diagonal(self, capsys):
        code, out, _ = run(capsys, "dump-dfunctions", "--row", "2,1,0", "--identity", "3")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 64
        ones = [r for r in records if r["value"] == [1.0, 0.0]]
        assert len(ones) == 8 and all(r["r"] == r["t"] for r in ones)

    def test_fundamental_matches_matrix(self, capsys):
        code, out, _ = run(
            capsys, "dump-dfunctions", "--partition", "1", "--m", "3", "--haar", "3", "--seed", "5"
        )
        assert code == EXIT_OK
        from immdfun.linalgimm import haar_random_unitary

        u = haar_random_unitary(3, 5).matrix
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 9
        top = records[0]
        assert top["value"][0] == pytest.approx(u[0, 0].real, abs=1e-12)

    def test_euler_middle_entry(self, capsys):
        beta = 0.8
        code, out, _ = run(
            capsys, "dump-dfunctions", "--row", "2,0", "--euler", f"0.0,{beta},0.0"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        middle = [r for r in records if r["r"] == r["t"] == [[2, 0], [1]]]
        assert middle[0]["value"][0] == pytest.approx(math.cos(beta), abs=1e-12)

    def test_capped_dump_writes_no_output_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("IMMDFUN_MAX_DIM", raising=False)
        path = tmp_path / "dump.jsonl"
        code, _, _ = run(
            capsys, "dump-dfunctions", "--row", "40,20,0", "--identity", "3", "--out", str(path)
        )
        assert code == EXIT_RESOURCE
        assert not path.exists()

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_invalid_max_dim(self, capsys, monkeypatch, value):
        monkeypatch.setenv("IMMDFUN_MAX_DIM", value)
        code, out, err = run(capsys, "dump-dfunctions", "--row", "2,1,0", "--identity", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: IMMDFUN_MAX_DIM must be a positive integer, got {value!r}\n"

    def test_dimension_cap_resource_error(self, capsys, monkeypatch):
        monkeypatch.delenv("IMMDFUN_MAX_DIM", raising=False)
        code, _, err = run(capsys, "dump-dfunctions", "--row", "40,20,0", "--identity", "3")
        assert code == EXIT_RESOURCE
        monkeypatch.setenv("IMMDFUN_MAX_DIM", "1000")
        code2, out, _ = run(capsys, "dump-dfunctions", "--row", "16,8,0", "--identity", "3")
        assert code2 == EXIT_OK


class TestRejectedFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "kostant", "--samples", "0"), "samples must be >= 1"),
            (("verify", "kostant", "--tol", "-1"), "tolerance must be positive"),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--identity", "3", "--tol", "0"),
                "tolerance must be positive",
            ),
            (
                ("verify", "conjecture", "--rows", "3,2,1", "--cols", "1,2,3"),
                "row indices must be strictly increasing",
            ),
            (("verify", "littlewood", "--partition", "x"), "expected comma-separated integers"),
            (("verify", "littlewood", "--m", "7"), "--m does not apply to verify littlewood"),
            (("verify", "plethysm-su2", "--m", "3"), "--m does not apply"),
            (("verify", "littlewood", "--partition", "5"), "--partition applies only to"),
            (("verify", "kostant", "--rows", "1,2", "--cols", "1,2"), "--rows applies only to"),
            (("verify", "corollary4", "--cols", "1,2"), "--cols applies only to"),
            (("verify", "conjecture", "--rows", "1,2,3"), "--rows and --cols must be supplied"),
            (("verify", "kostant", "--tol", "nan"), "tolerance must be positive and finite"),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--identity", "3", "--tol", "inf"),
                "tolerance must be positive and finite",
            ),
            (("verify", "corollary4", "--m", "2"), "nothing to check"),
            (("verify", "conjecture", "--m", "2", "--partition", "3"), "nothing to check"),
            (("verify", "kostant", "--m", "0"), "--m must be >= 2, got 0"),
            (("verify", "conjecture", "--m", "1"), "--m must be >= 2, got 1"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    def test_nothing_to_check_writes_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, err = run(capsys, "verify", "corollary4", "--m", "2", "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()


class TestMinusOneEigenvalues:
    def test_dump_lifts_exactly(self, capsys, tmp_path):
        path = tmp_path / "minus_one.json"
        diag = [[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
        path.write_text(
            json.dumps([[diag[i] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)])
        )
        code, out, _ = run(capsys, "dump-dfunctions", "--row", "2,1,0", "--matrix-file", str(path))
        assert code == EXIT_OK
        values = [json.loads(line)["value"] for line in out.strip().splitlines()]
        got = np.array([complex(re, im) for re, im in values]).reshape(8, 8)

        from immdfun.linalgimm import UnitaryElement
        from immdfun.sunrep import SUIrrepLabel, lift

        root = UnitaryElement(np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3]))))
        cube = np.linalg.matrix_power(lift(SUIrrepLabel(3, (2, 1, 0)), root).matrix, 3)
        assert np.abs(got - cube).max() < 1e-12


class TestMatrixIO:
    def test_parse_error_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixParseError):
            load_matrix_file(str(path))

    def test_entries_must_be_pairs(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text("[[1.0, 2.0]]")
        with pytest.raises(MatrixParseError):
            load_matrix_file(str(path))
