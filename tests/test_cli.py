"""Command-line interface: argument parsing, output formats, manifest
sidecars, exit codes, and the README's commands."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from qtail.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAIL,
    build_parser,
    emit_complex,
    main,
    parse_complex,
    parse_point,
)
from qtail import (DomainError, LatticePoint, QContext, QParam, RegimeI, fourier_lemma_form,
                   validate_pair)

import theta_reference
from conftest import DELTA_REF, GAMMA_REF

LATTICE = ["--q", "0.5", "--zeta-plus", "1.3", "--zeta-minus", "-0.55"]
PAIR = ["--gamma", str(GAMMA_REF), "--delta", str(DELTA_REF)]
QUAD = PAIR + ["--alpha", str(GAMMA_REF * 0.125), "--beta", str(DELTA_REF * 0.125)]


class TestParsing:
    @pytest.mark.parametrize("s,expect", [
        ("1.5", 1.5 + 0j),
        ("-0.25", -0.25 + 0j),
        ("1+2i", 1 + 2j),
        ("0.5-0.3i", 0.5 - 0.3j),
        ("[1.5,-2]", 1.5 - 2j),
    ])
    def test_parse_complex(self, s, expect):
        assert parse_complex(s) == expect

    def test_parse_complex_rejects_garbage(self):
        with pytest.raises((DomainError, ValueError)):
            parse_complex("[1,2,3]")

    @pytest.mark.parametrize("s", ["nan", "inf", "[1,nan]", "[-inf,0]", "nan+1i", "1-nani"])
    def test_parse_complex_rejects_non_finite(self, s):
        with pytest.raises(DomainError):
            parse_complex(s)

    @pytest.mark.parametrize("s,expect", [
        ("+:3", LatticePoint(1, 3)),
        ("-:0", LatticePoint(-1, 0)),
        ("+1:-2", LatticePoint(1, -2)),
    ])
    def test_parse_point(self, s, expect):
        assert parse_point(s) == expect

    def test_parse_point_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_point("up:3")

    def test_emit_complex(self):
        assert emit_complex(1.5 - 2j) == [1.5, -2.0]


class TestEval:
    def test_elliptic_json(self, capsys):
        rc = main(["eval", "elliptic", *LATTICE, *PAIR, "--x", "+:0", "--y", "+:1"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "elliptic"
        re, im = out["value"]
        assert abs(im) < 1e-10 and abs(re) > 1e-4

    def test_elliptic_diag_trace(self, capsys):
        vals = []
        for pt in ("+:0", "-:0"):
            main(["eval", "elliptic", *LATTICE, *PAIR, f"--x={pt}", f"--y={pt}"])
            vals.append(json.loads(capsys.readouterr().out)["value"][0])
        assert sum(vals) == pytest.approx(1.0, abs=1e-10)

    def test_basic_kernel(self, capsys):
        rc = main(["eval", "basic", *LATTICE, *QUAD, "--x", "+:0", "--y=-:1"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"][1]) < 1e-9

    def test_fourier_matrix(self, capsys):
        rc = main(["eval", "fourier", *LATTICE, *PAIR, "--eta", "0.7"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        m = out["matrix"]
        trace = m[0][0][0] + m[1][1][0]
        assert trace == pytest.approx(1.0, abs=1e-10)

    def test_fourier_matrix_near_q_one(self, capsys):
        """At q = 0.995 single thetas reach e^{+-300}; the matrix is still a
        projection of trace 1."""
        rc = main(["eval", "fourier", "--q", "0.995", "--zeta-plus", "1.1", "--zeta-minus", "-0.9",
                   "--gamma", "0.8986476307835747", "--delta", "0.9", "--eta", "3.0"])
        assert rc == EXIT_OK
        m = json.loads(capsys.readouterr().out)["matrix"]
        assert m[0][0][0] + m[1][1][0] == pytest.approx(1.0, abs=1e-10)

    def test_trig_and_sine(self, capsys):
        rc = main(["eval", "trig", "--c", "0.3", "--d", "0.7",
                   "--u", "0.4", "--v", "0.1", "--i", "1", "--j", "2"])
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main(["eval", "sine", "--phi", "1.2", "--m", "2", "--n", "0"])
        assert rc == EXIT_OK

    def test_csv_format(self, capsys):
        rc = main(["eval", "elliptic", *LATTICE, *PAIR, "--x", "+:0", "--y", "+:2",
                   "--format", "csv"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "kind,value"


class TestOutputFiles:
    def test_out_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = main(["eval", "elliptic", *LATTICE, *PAIR, "--x", "+:0", "--y", "+:1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        assert data["kind"] == "elliptic"
        manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["tool"] == "qtail"
        assert manifest["params"]["q"] == 0.5
        assert manifest["params"]["gamma"] == [GAMMA_REF, 0.0]


class TestVerify:
    def test_small_suite_passes(self, capsys):
        rc = main(["verify", "weierstrass", "--seed", "5", "--draws", "20"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS weierstrass/weierstrass_three_term" in out

    def test_prints_one_line_per_check(self, capsys):
        rc = main(["verify", "projection", "--seed", "2", "--draws", "5"])
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)


class TestScan:
    def test_tail_scan(self, capsys):
        rc = main(["scan", "tail", *LATTICE, *QUAD, "--x", "+:0", "--y", "+:1",
                   "--m-max", "10"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        errs = [p["error"] for p in out["points"]]
        assert len(errs) == 11 and errs[-1] < errs[0]

    def test_sine_scan_default_sweep(self, capsys):
        rc = main(["scan", "sine", "--phi", "1.2", "--m", "1", "--n", "0",
                   "--q-sweep", "0.9", "0.95"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert [p["q"] for p in out["points"]] == [0.9, 0.95]

    def test_sine_scan_without_sweep_uses_regime_default(self, tmp_path):
        out = tmp_path / "sine.json"
        rc = main(["scan", "sine", "--phi", "1.2", "--m", "1", "--n", "0",
                   "--out", str(out)])
        assert rc == EXIT_OK
        data = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "sine.json.manifest.json").read_text())
        assert manifest["params"]["q_sweep"] == list(RegimeI.q_sweep)
        assert [p["q"] for p in data["points"]] == list(RegimeI.q_sweep)

    def test_tail_scan_records_no_sweep(self, tmp_path):
        out = tmp_path / "tail.json"
        rc = main(["scan", "tail", *LATTICE, *QUAD, "--m-max", "2", "--out", str(out)])
        assert rc == EXIT_OK
        manifest = json.loads((tmp_path / "tail.json.manifest.json").read_text())
        assert "q_sweep" not in manifest["params"]

    def test_sine_manifest_records_only_its_flags(self, tmp_path):
        out = tmp_path / "sine.json"
        assert main(["scan", "sine", "--out", str(out)]) == EXIT_OK
        params = json.loads((tmp_path / "sine.json.manifest.json").read_text())["params"]
        assert set(params) == {"command", "which", "phi", "m", "n", "sign", "q_sweep",
                               "format", "out"}

    def test_sine_scan_takes_no_scale(self, capsys):
        # the kernel on one branch is q-translation invariant, so the scan
        # has no window position to choose
        with pytest.raises(SystemExit) as exc:
            main(["scan", "sine", "--s", "1.0"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--s" in _error_flags(capsys, "unrecognized arguments")


class TestSample:
    def test_sample_outcomes(self, capsys):
        rc = main(["sample", *LATTICE, *PAIR, "--points", "+:0,+:1,-:0",
                   "--draws", "200", "--seed", "3"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert sum(r["count"] for r in out["outcomes"]) == 200
        assert len(out["rho1"]) == 3
        assert all(0.0 < r < 1.0 for r in out["rho1"])


class TestEqualPairs:
    """gamma = delta and a pair 1e-11 apart take the one closed-form path."""

    G = DELTA_REF
    XS = [1.3, -0.55]  # the points +:0 and -:0

    def _reference(self, delta):
        return theta_reference.kernel_matrix(self.XS, self.G, delta, 0.5, 1.3, -0.55)

    @pytest.mark.parametrize("delta", [DELTA_REF, DELTA_REF * (1.0 + 1e-11)])
    def test_eval_elliptic(self, capsys, delta):
        want = self._reference(delta)
        for (x, i), (y, j) in ((("+:0", 0), ("-:0", 1)), (("+:0", 0), ("+:0", 0)),
                               (("-:0", 1), ("-:0", 1))):
            rc = main(["eval", "elliptic", *LATTICE, "--gamma", str(self.G),
                       "--delta", str(delta), f"--x={x}", f"--y={y}"])
            assert rc == EXIT_OK
            got = complex(*json.loads(capsys.readouterr().out)["value"])
            assert abs(got - want[i][j]) <= 1e-13

    def test_eval_fourier(self, capsys):
        rc = main(["eval", "fourier", *LATTICE, "--gamma", str(self.G),
                   "--delta", str(self.G), "--eta", "0.7"])
        assert rc == EXIT_OK
        got = np.array([[complex(*v) for v in row]
                        for row in json.loads(capsys.readouterr().out)["matrix"]])
        ctx = QContext(QParam(0.5), 1.3, -0.55)
        want = fourier_lemma_form(0.7, validate_pair(self.G, self.G, ctx), ctx)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert abs(np.trace(got) - 1.0) <= 1e-13

    def test_sample(self, capsys):
        rc = main(["sample", *LATTICE, "--gamma", str(self.G), "--delta", str(self.G),
                   "--points", "+:0,-:0", "--draws", "50"])
        assert rc == EXIT_OK
        rho1 = json.loads(capsys.readouterr().out)["rho1"]
        want = self._reference(self.G)
        assert abs(rho1[0] - want[0][0].real) <= 1e-13
        assert abs(rho1[1] - want[1][1].real) <= 1e-13


def _error_flags(capsys, reason: str) -> set[str]:
    """The flags named on argparse's error line, which must give ``reason``.

    The usage line above it lists every flag of the command, so only the last
    line of stderr shows which flags the error is about.
    """
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert reason in line
    named = line.split(reason + ": ", 1)[1]
    return {tok.split("=")[0] for tok in named.replace(",", " ").split()}


class TestExitCodes:
    @pytest.mark.parametrize("argv,flag", [
        (["eval", "elliptic", *PAIR, "--x", "+:0", "--y", "+:1"], "--q"),
        (["eval", "elliptic", *LATTICE, "--delta", str(DELTA_REF), "--x", "+:0", "--y", "+:1"],
         "--gamma"),
        (["eval", "elliptic", *LATTICE, *PAIR, "--y", "+:1"], "--x"),
        (["eval", "trig", "--d", "0.7"], "--c"),
        (["eval", "sine", "--m", "1"], "--phi"),
        (["scan", "tail", *LATTICE, *PAIR, "--beta", str(DELTA_REF * 0.125)], "--alpha"),
    ])
    def test_missing_parameter(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert flag in _error_flags(capsys, "the following arguments are required")

    @pytest.mark.parametrize("argv,flag", [
        (["scan", "trig", "--q", "0.9"], "--q"),
        (["scan", "sine", "--c", "0.3"], "--c"),
        (["eval", "sine", "--phi", "1.2", "--x=+:0"], "--x"),
        (["eval", "fourier", *LATTICE, *PAIR, "--x=+:0"], "--x"),
        (["eval", "trig", "--c", "0.3", "--d", "0.7", "--q", "0.5"], "--q"),
    ])
    def test_sibling_flag_is_rejected(self, capsys, argv, flag):
        # a flag that only another kind reads is an error, not silently ignored
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert flag in _error_flags(capsys, "unrecognized arguments")

    @pytest.mark.parametrize("argv", [
        ["sample", *LATTICE, *PAIR, "--points", "+:0,+:1", "--draws", "10"],
        ["verify", "theta", "--draws", "2"],
    ])
    def test_negative_seed_is_rejected(self, capsys, argv):
        assert main([*argv, "--seed", "-1"]) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "elliptic", "--q", "0.5", "--gamma", "nan", "--delta", "0.3",
         "--x=+:0", "--y=-:1"],
        ["eval", "elliptic", "--q", "0.5", "--gamma", "[0.3,inf]", "--delta", "0.3",
         "--x=+:0", "--y=-:1"],
        ["eval", "elliptic", "--q", "0.5", "--zeta-plus", "inf", *PAIR, "--x=+:0", "--y=-:1"],
        ["eval", "trig", "--c", "nan", "--d", "0.7"],
        ["eval", "trig", "--c", "0.3", "--d", "0.7", "--u", "nan"],
        ["eval", "sine", "--phi", "inf"],
        ["eval", "fourier", *LATTICE, *PAIR, "--eta=-inf"],
        ["scan", "sine", "--q-sweep", "0.9", "nan"],
    ])
    def test_non_finite_float_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_verify_without_draws_is_rejected(self, capsys, draws):
        assert main(["verify", "all", "--draws", draws]) == EXIT_VALIDATION
        assert "draws" in capsys.readouterr().err

    def test_tail_scan_without_depths_is_rejected(self, capsys):
        rc = main(["scan", "tail", *LATTICE, *QUAD, "--m-max", "-2"])
        assert rc == EXIT_VALIDATION
        assert "M_max" in capsys.readouterr().err

    def test_validation_error(self, capsys):
        rc = main(["eval", "elliptic", "--q", "0.5", "--gamma", "0.3", "--delta", "-0.3",
                   "--x", "+:0", "--y", "+:1"])
        assert rc == EXIT_VALIDATION

    def test_numerical_error(self, capsys):
        # theta magnitudes leave the double range at this depth and base
        rc = main(["eval", "basic", "--q", "0.4", "--zeta-plus", "1.3",
                   "--zeta-minus", "-0.55", "--gamma", "0.2384615",
                   "--delta", "0.1538462", "--alpha", str(0.2384615 * 0.4 ** 3),
                   "--beta", str(0.1538462 * 0.4 ** 3),
                   "--x", "+:40", "--y", "+:41"])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("x", ["+:-400", "+:400"])
    def test_lattice_point_outside_double_range(self, capsys, x):
        # 0.1^-400 overflows and 0.1^400 is not a normal double
        g, d = 0.31 / 1.3, 0.44 / 1.3
        rc = main(["eval", "basic", "--q", "0.1", "--zeta-plus", "1.3",
                   "--zeta-minus", "-0.55", "--gamma", str(g), "--delta", str(d),
                   "--alpha", str(g * 0.005), "--beta", str(d * 0.005),
                   "--x", x, "--y", "+:0"])
        assert rc == EXIT_VALIDATION
        assert "normal double range" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """The argument lists of the qtail commands in README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qtail ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 6


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)


@pytest.mark.parametrize("argv,dest,value", [
    (["verify", "all", "--draw", "60"], "draws", 60),
    (["sample", *LATTICE, *PAIR, "--point", "+:0,+:1"], "points", "+:0,+:1"),
])
def test_unambiguous_prefix_is_read_as_its_flag(argv, dest, value):
    # verify and sample have no sibling kinds, so a flag prefix is still accepted
    assert getattr(build_parser().parse_args(argv), dest) == value
