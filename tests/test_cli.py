import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dgtwolevel
from dgtwolevel import ProblemConfig, alpha_opt, lfa_spectral_radius
from dgtwolevel import cli
from dgtwolevel.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_or_usage(capsys, *argv):
    """``run_cli``, with a usage error as its exit code and last line."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err.splitlines()[-1] + "\n"


def test_spectrum_rows_and_touching_curves(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--smoother", "point", "--delta0", "1", "--gamma", "inf",
        "--alpha", "opt", "--cells", "64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,c_k,lambda_plus,lambda_minus"
    assert len(lines) == 1 + 32
    rows = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
    ck, lp, lm = (float(v) for v in rows[16])  # k = J/4
    assert ck == pytest.approx(-1.0, abs=1e-12)
    assert abs(lp - lm) < 1e-10


def test_spectrum_alpha_zero_all_unit(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--smoother", "cell", "--delta0", "2", "--gamma", "inf",
        "--alpha", "0", "--cells", "64",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, _, lp, lm = line.split(",")
        assert max(abs(float(lp)), abs(float(lm))) == 1.0


def test_optimize_report_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--smoother", "point", "--delta0", "2", "--gamma", "inf"
    )
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(report["alpha_opt_formula"]) == pytest.approx(9 / 13, abs=1e-12)
    assert abs(float(report["alpha_opt_formula"]) - float(report["alpha_opt_numeric"])) < 1e-6
    assert report["branch"] == "point"
    assert report["agrees"] == "true"


def test_sweep_deterministic_and_ordered(capsys):
    argv = (
        "sweep", "--smoother", "cell", "--delta0", "1.2,1.5", "--gamma", "inf,1",
        "--alpha", "0.8:0.9:0.05", "--cells", "16", "--bc", "periodic",
    )
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2  # byte-identical
    lines = out1.strip().splitlines()
    assert lines[0] == "delta0,gamma,alpha,rho_lfa"
    table = [line.split(",") for line in lines[1:]]
    assert len(table) == 2 * 2 * 3
    d0s = [float(r[0]) for r in table]
    assert d0s == sorted(d0s)  # delta0 outermost
    assert "inf" in {r[1] for r in table}
    first_block = [r for r in table if float(r[0]) == 1.2 and r[1] == "inf"]
    assert [float(r[2]) for r in first_block] == sorted(float(r[2]) for r in first_block)


def test_sweep_alpha_curves_have_unique_interior_minimum(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--smoother", "point", "--delta0", "1.2,1.5,2", "--gamma", "inf",
        "--alpha", "0.5:1.1:0.001", "--cells", "64", "--bc", "periodic",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for d0 in ("1.2", "1.5", "2.0"):
        rho = np.array([float(r[3]) for r in rows if float(r[0]) == float(d0)])
        assert len(rho) == 601
        best = int(np.argmin(rho))
        assert 0 < best < len(rho) - 1  # interior minimum
        assert np.all(np.diff(rho[: best + 1]) <= 1e-12)  # decreasing approach
        assert np.all(np.diff(rho[best:]) >= -1e-12)  # increasing departure


# each smoother, boundary treatment and alpha mode once (the closed-form
# rows do not depend on the boundary treatment, which is only validated),
# in one evaluation per gamma and in chunks of 31 rows
@pytest.mark.parametrize(
    "kind,bc,alpha,chunk",
    [
        ("cell", "dirichlet", "opt", cli._SWEEP_CHUNK),
        ("point", "periodic", "opt", 1000),
        ("cell", "periodic", "0.6:1.2:0.3", 1000),
        ("point", "dirichlet", "0.6:1.2:0.3", cli._SWEEP_CHUNK),
    ],
)
def test_sweep_equals_row_by_row_reference(capsys, monkeypatch, kind, bc, alpha, chunk):
    monkeypatch.setattr(cli, "_SWEEP_CHUNK", chunk)
    gammas = [math.inf, 1e4, 1.0, 0.05]
    code, out, _ = run_cli(
        capsys,
        "sweep", "--smoother", kind, "--delta0", "1:4:0.01", "--gamma", "inf,1e4,1,0.05",
        "--alpha", alpha, "--cells", "64", "--bc", bc,
    )
    assert code == 0
    lines = ["delta0,gamma,alpha,rho_lfa"]
    for d0 in [1.0 + i * 0.01 for i in range(301)]:
        for g in gammas:
            config = ProblemConfig(64, d0, g, bc)
            if alpha == "opt":
                alphas = [alpha_opt(config, kind).alpha_opt]
            else:
                alphas = [0.6 + i * 0.3 for i in range(3)]
            for a in alphas:
                row = (d0, g, a, lfa_spectral_radius(config, kind, a))
                lines.append(",".join(repr(float(v)) for v in row))
    assert out == "\n".join(lines) + "\n"


GAMMA_ERROR = "error: gamma must be positive (or inf), got -1.0\n"
DELTA0_ERROR = "error: delta0 must be finite and >= 1, got 0.5\n"
ALPHA_OVERFLOW = "error: floating-point overflow: Numerical result out of range\n"
TABLE_OVERFLOW = "error: floating-point overflow: the coefficient tables of the closed forms overflow\n"
ALPHA_USAGE = "dgtwolevel: error: --alpha: cannot parse 'bogus'\n"


# usage errors come first; then the first invalid value, in row order
# (rows run delta0 outer and gamma inner, and the first row checks cells,
# delta0, gamma and bc, so every later gamma, then every later delta0);
# then the evaluation errors, every alpha column before the radii
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--delta0", "2,0.5", "--gamma", "1,-1"], 1, GAMMA_ERROR),
        (["--delta0", "0.5,2", "--gamma", "1,-1"], 1, DELTA0_ERROR),
        (["--cells", "3", "--delta0", "0.5", "--gamma=-1"], 1, "error: cells must be even and >= 4, got 3\n"),
        (["--delta0", "2", "--gamma", "1,-1,0"], 1, GAMMA_ERROR),
        (["--delta0", "1e300,0.5", "--gamma", "1"], 1, DELTA0_ERROR),
        (["--delta0", "2,1e300,0.5", "--gamma", "1"], 1, DELTA0_ERROR),
        (["--delta0", "1e300", "--gamma", "1,-1"], 1, GAMMA_ERROR),
        (["--delta0", "2,1e300", "--gamma", "1,-1"], 1, GAMMA_ERROR),
        (["--delta0", "1e300,2", "--gamma", "inf,-1"], 1, GAMMA_ERROR),
        (["--delta0", "1e300", "--gamma=-1,1"], 1, GAMMA_ERROR),
        (["--delta0", "0.5", "--alpha", "bogus"], 2, ALPHA_USAGE),
        (["--delta0", "2,0.5", "--alpha", "bogus"], 2, ALPHA_USAGE),
        (["--delta0", "2,0.5", "--gamma", "1,1e-300", "--alpha", "0.9"], 1, DELTA0_ERROR),
        (["--delta0", "2,1e300", "--gamma", "1,2", "--alpha", "0.9"], 1, TABLE_OVERFLOW),
        (["--delta0", "1,1e200", "--gamma", "1e-300,inf"], 1, ALPHA_OVERFLOW),
    ],
)
@pytest.mark.parametrize("kind", ["cell", "point"])
def test_sweep_first_error_follows_row_order(capsys, argv, code, err, kind):
    # an overflow at 1e300 is not reached while a later value is invalid
    assert run_cli_or_usage(capsys, "sweep", "--smoother", kind, *argv) == (code, "", err)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["--delta0", "0.5", "--alpha", "bogus"], 2, ALPHA_USAGE),
        (["--cells", "3", "--alpha", "1,2"], 2, "dgtwolevel: error: spectrum expects a single --alpha\n"),
    ],
)
def test_spectrum_parses_alpha_before_it_checks_values(capsys, argv, code, err):
    # --alpha is parsed before the config is built, as in sweep
    assert run_cli_or_usage(capsys, "spectrum", "--smoother", "cell", *argv) == (code, "", err)


def test_sweep_evaluates_the_closed_forms_once_per_gamma(capsys, monkeypatch):
    # the alpha column and the radius of all rows of one gamma are one call
    # each (per chunk of _SWEEP_CHUNK points), not one call per row
    from dgtwolevel import closed_forms, optimal

    calls = {"_endpoint_pairs": 0, "_endpoint_mu": 0, "_mu_pair": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # _endpoint_pairs is the one evaluator of the endpoint mu, for the
    # alpha column (optimal) and the radii (closed_forms) alike
    counted(closed_forms, "_endpoint_pairs")
    monkeypatch.setattr(optimal, "_endpoint_pairs", closed_forms._endpoint_pairs)
    counted(closed_forms, "_endpoint_mu")
    counted(closed_forms, "_mu_pair")
    code, out, _ = run_cli(
        capsys, "sweep", "--smoother", "cell", "--delta0", "1:4:0.01", "--gamma", "inf,1"
    )
    assert code == 0 and len(out.splitlines()) == 1 + 2 * 301
    chunks = -(-301 // (cli._SWEEP_CHUNK // 32))
    # per gamma: one endpoint evaluation for the whole alpha column, and
    # per chunk the tables and their endpoints
    ends = 2 * (1 + chunks)
    assert calls == {"_endpoint_pairs": ends, "_endpoint_mu": ends, "_mu_pair": 2 * chunks}


def test_sweep_dense_column_matches_lfa(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--smoother", "point", "--delta0", "2", "--gamma", "2",
        "--alpha", "opt", "--cells", "16", "--bc", "periodic", "--dense",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta0,gamma,alpha,rho_lfa,rho_dense"
    _, _, _, rho_lfa, rho_dense = (float(v) for v in lines[1].split(","))
    assert rho_dense == pytest.approx(rho_lfa, abs=1e-9)


def test_sweep_reaction_curve_family(capsys):
    # one optimized point per reaction scaling, the six-curve family
    code, out, _ = run_cli(
        capsys,
        "sweep", "--smoother", "point", "--delta0", "2", "--gamma",
        "16,2,0.5,0.25,0.125,0.0625", "--alpha", "opt", "--cells", "64",
        "--bc", "periodic",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 6
    gammas = [float(r[1]) for r in rows]
    assert gammas == [16.0, 2.0, 0.5, 0.25, 0.125, 0.0625]
    assert all(0.0 < float(r[3]) < 1.0 for r in rows)
    # small reaction scaling flips the optimum into overrelaxation
    assert float(rows[0][2]) < 1.0 < float(rows[-1][2])


def test_sweep_empty_alpha_grid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--smoother", "cell", "--delta0", "2", "--gamma", "inf",
            "--alpha", "",
        ])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_repeated_calls(capsys, monkeypatch):
    runs = [
        ["spectrum", "--smoother", "point", "--cells", "8"],
        ["optimize", "--smoother", "cell", "--delta0", "2", "--gamma", "1"],
        ["sweep", "--smoother", "cell", "--delta0", "1.2,2", "--alpha", "0.5:1:0.25", "--cells", "8"],
        ["sweep", "--smoother", "cell", "--alpha", ""],
        ["validate", "--cells", "8"],
        ["frobnicate"],
    ]

    def outputs():
        result = []
        for argv in runs + runs[::-1]:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            result.append((code, *capsys.readouterr()))
        return result

    cached = outputs()
    assert cli._parser() is cli._parser()
    assert outputs() == cached
    assert [r[0] for r in cached[:6]] == [0, 0, 0, ("exit", 2), 0, ("exit", 2)]
    # a parser built afresh for every call prints the same bytes
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == cached


def test_validate_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--cells", "16")
    assert code == 0
    assert "checks passed" in out.strip().splitlines()[-1]
    assert "FAIL" not in out


def test_validate_runs_every_check_at_any_cells(capsys):
    # quarter_frequency_touch reads c_k = -1 whatever the mesh: J = 6 runs
    # it too, without a warning, and prints what J = 16 prints
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "validate", "--cells", "6")
    assert code == 0 and err == ""
    assert "PASS lfa.quarter_frequency_touch" in out
    assert out.splitlines()[-1] == "10/10 checks passed"
    assert out == run_cli(capsys, "validate", "--cells", "16")[1]


@pytest.mark.parametrize("cells", ["7", "2", "1", "-3"])
def test_validate_refuses_a_mesh_no_other_command_builds(capsys, cells):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "validate", "--cells", cells)
    assert code == 1 and out == ""
    assert err == f"error: cells must be even and >= 4, got {cells}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--smoother", "cell"],
        ["spectrum", "--smoother", "cell"],
        ["sweep", "--dense", "--smoother", "cell"],
        ["sweep", "--dense", "--smoother", "point", "--bc", "dirichlet"],
    ],
)
def test_a_mesh_past_any_address_space_is_an_error_line(capsys, argv):
    # J = 1e17 needs arrays of hundreds of PiB, more than 64-bit addresses
    # reach: the allocation fails whatever the memory settings
    code, out, err = run_cli(capsys, *argv, "--cells", "100000000000000000")
    assert code == 1 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_crossover_output(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--gamma", "inf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta0_lo,delta0_hi"
    lo, hi = (float(v) for v in lines[1].split(","))
    assert 2.19 <= lo <= 2.19149 <= hi <= 2.20


@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_crossover_non_positive_gamma_is_an_error_line(capsys, gamma):
    code, out, err = run_cli(capsys, "crossover", "--gamma", gamma)
    assert code == 1 and out == ""
    assert err == f"error: gamma must be positive (or inf), got {float(gamma)}\n"


@pytest.mark.parametrize("flag, value", [("--alpha", "0.3"), ("--cells", "8"), ("--bc", "periodic")])
def test_optimize_takes_no_mesh_options(capsys, flag, value):
    # the optimum reads only delta0 and gamma
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--smoother", "cell", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dgtwolevel")
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert "Traceback" not in captured.err


def test_optimize_names_the_regime_at_subnormal_gamma(capsys):
    # delta_c_minus tends to 3 as gamma -> 0; it used to cancel to -0.0
    argv = ("optimize", "--smoother", "point", "--delta0", "2", "--gamma", "1e-310")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "branch=rd-point-quarter\n" in out


def test_no_crossover_is_an_error_line():
    src = str(Path(dgtwolevel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dgtwolevel.cli", "crossover", "--gamma", "0.001"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: no crossover: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_file(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--smoother", "cell", "--delta0", "2", "--gamma", "1",
        "--alpha", "1", "--cells", "8", "--out", str(path),
    )
    assert code == 0 and out == ""
    content = path.read_text()
    assert content.startswith("k,c_k,lambda_plus,lambda_minus\n")
    assert len(content.strip().splitlines()) == 1 + 4


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    missing = tmp_path / "missing" / "x.csv"
    for argv, path, reason in (
        (["sweep", "--smoother", "cell", "--out", str(tmp_path)], tmp_path, "Is a directory"),
        (["crossover", "--gamma", "1", "--out", str(missing)], missing, "No such file or directory"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: cannot write {path}: {reason}\n"
    assert not missing.parent.exists()


def test_floats_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--smoother", "point", "--delta0", "2", "--gamma", "inf",
        "--alpha", "opt", "--cells", "16", "--bc", "periodic",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    alpha = float(row[2])
    assert repr(alpha) == row[2]  # shortest round-trip representation
    assert alpha == pytest.approx(9 / 13, abs=1e-12)
    assert row[1] == "inf"
    assert math.isinf(float(row[1]))


def test_spectrum_rejects_bc(capsys):
    # the closed-form spectrum does not depend on the boundary treatment
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--smoother", "cell", "--bc", "dirichlet", "--cells", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bc dirichlet" in err
    assert "Traceback" not in err


def test_closed_reader_ends_without_traceback():
    src = str(Path(dgtwolevel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # about 700 kB of rows, far beyond a pipe buffer, so writes block
    # until the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "dgtwolevel.cli", "spectrum", "--smoother", "cell",
         "--cells", "16384"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "k,c_k,lambda_plus,lambda_minus\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_optimize_stalled_penalty_is_an_error_line(capsys):
    code, out, err = run_cli(capsys, "optimize", "--smoother", "cell", "--delta0", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "mu" in err


@pytest.mark.parametrize(
    "delta0,gamma", [("1e16", "1"), ("1e16", "inf"), ("1e20", "0.05"), ("1e40", "1e4")]
)
def test_optimize_huge_cell_penalty_names_float_resolution(capsys, delta0, gamma):
    # the smallest mu, about 2/delta0, rounds to zero or just below: float
    # resolution, not a method that fails to converge
    argv = ("optimize", "--smoother", "cell", "--delta0", delta0, "--gamma", gamma)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: the smallest mu of the smoothed two-grid spectrum, about ")
    assert "is below float resolution" in err and err.count("\n") == 1
    assert "no relaxation parameter converges" not in err
    # a true zero mu (pure diffusion at delta0 = 1) keeps its message
    code, _, err = run_cli(capsys, "optimize", "--smoother", "cell", "--delta0", "1")
    assert code == 1 and "no relaxation parameter converges" in err


@pytest.mark.parametrize(
    "value", ["1:2:1e-12", "1:2:1e-300", "1:2:5e-324", "1:1.5:1e-6,2:3:1e-6"]
)
def test_oversized_grid_is_usage_error(capsys, value):
    # the count is checked before the list is built: 1e12 floats would
    # not fit in memory
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--smoother", "cell", "--delta0", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--delta0: more than 1000000 values" in captured.err


def test_grid_of_a_million_values_is_accepted():
    parser = cli.build_parser()
    assert len(cli._parse_grid("1:1000000:1", parser, "--delta0")) == 10**6


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--smoother", "cell", "--delta0", "1,2"],
         "spectrum expects a single --delta0 and --gamma"),
        (["spectrum", "--smoother", "cell", "--alpha", "0.5,0.9"], "spectrum expects a single --alpha"),
        (["optimize", "--smoother", "cell", "--gamma", "1,2"],
         "optimize expects a single --delta0 and --gamma"),
        (["crossover", "--gamma", "1,2"], "crossover expects a single --gamma"),
        (["sweep", "--smoother", "cell", "--delta0", "1:2"],
         "--delta0: range must be lo:hi:step, got '1:2'"),
        (["sweep", "--smoother", "cell", "--delta0", "3:1:1"], "--delta0: bad range '3:1:1'"),
        (["sweep", "--smoother", "cell", "--delta0", "1:2:0"], "--delta0: bad range '1:2:0'"),
        (["sweep", "--smoother", "cell", "--delta0", "1:999999:1,1,1"],
         "--delta0: more than 1000000 values in '1:999999:1,1,1'"),
        (["sweep", "--smoother", "cell", "--alpha", ""], "--alpha: cannot parse ''"),
    ],
)
def test_usage_error_names_its_cause(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: dgtwolevel")
    assert captured.err.endswith(f"dgtwolevel: error: {message}\n")


@pytest.mark.parametrize(
    "flag, value",
    [("--delta0", "inf"), ("--delta0", "1:inf:1"), ("--alpha", "nan"), ("--alpha", "inf"),
     ("--gamma", "nan")],
)
def test_non_finite_grid_value_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--smoother", "cell", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a finite number" in captured.err


# the optimal alpha overflows, and says so before any table is evaluated
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--smoother", "cell", "--delta0", "1e200"],
        ["optimize", "--smoother", "cell", "--delta0", "1e300"],
        *(
            [command, "--smoother", kind, "--delta0", "1e300", "--gamma", "1"]
            for command in ("optimize", "sweep", "spectrum")
            for kind in ("cell", "point")
        ),
    ],
)
def test_overflow_is_an_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: floating-point overflow: Numerical result out of range\n"


@pytest.mark.parametrize("delta0", ["1e17", "1e60"])
def test_point_optimum_at_huge_penalty(capsys, delta0):
    # gamma_c_point used to divide by zero from delta0 about 1e17 on
    argv = ["--smoother", "point", "--delta0", delta0, "--gamma", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "optimize", *argv)
        assert code == 0 and err == "" and "agrees=true\n" in out
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 0 and err == "" and len(out.splitlines()) == 2


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_sweep_dense_rejects_singular_pure_diffusion(capsys, bc):
    argv = ["sweep", "--smoother", "cell", "--delta0", "1", "--gamma", "inf", "--bc", bc]
    code, out, err = run_cli(capsys, *argv, "--dense")
    assert code == 1 and out == ""
    assert err.startswith("error: the two-level method needs delta0 > 1 at gamma = inf")
    # the closed forms still answer there
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[1].endswith(",1.0")


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--smoother", "point", "--delta0", delta0, "--gamma", "1", *alpha]
        for command in ("optimize", "sweep", "spectrum")
        for delta0, alpha in (("1e100", ()), ("1e200", ("--alpha", "0.9")))
        if not (command == "optimize" and alpha)
    ]
    + [
        ["optimize", "--smoother", "cell", "--delta0", "1.5e50", "--gamma", "inf"],
        ["sweep", "--smoother", "cell", "--delta0", "1.5e50", "--gamma", "inf", "--alpha", "0.9"],
    ],
)
def test_table_overflow_is_an_error_line(capsys, argv):
    # the coefficient tables, or at delta0 = 1.5e50 only their radicand
    # polynomial, overflow at these penalties: an overflow error, not nan
    # pairs read as a non-converging spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: floating-point overflow: the coefficient tables of the closed forms overflow\n"


def test_non_finite_sweep_row_is_an_error_line(capsys):
    # a relaxation this large overflows alpha * mu to inf, without a numpy warning
    code, out, err = run_cli(
        capsys, "sweep", "--smoother", "point", "--delta0", "2,3", "--gamma", "1", "--alpha", "1.7e308"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: sweep row delta0=2.0, gamma=1.0: alpha=1.7e+308, rho=inf ")


def test_non_finite_dense_sweep_row_is_the_same_error_line(capsys):
    # the closed-form columns are checked before the dense column is built
    argv = ("sweep", "--smoother", "cell", "--cells", "8", "--alpha", "1.7e308")
    lines = [run_cli(capsys, *argv, *dense) for dense in ((), ("--dense",))]
    assert lines[0] == lines[1]
    code, out, err = lines[1]
    assert code == 1 and out == ""
    assert err == "error: sweep row delta0=2.0, gamma=inf: alpha=1.7e+308, rho=inf is not finite\n"


def test_dense_sweep_row_whose_iteration_matrix_overflows_is_an_error_line(capsys):
    # rho_lfa is finite, but alpha D^{-1} A times the columns of A overflows
    # inside the Dirichlet E; the periodic route builds no E
    argv = ("sweep", "--smoother", "cell", "--cells", "8", "--dense", "--alpha", "1e308")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == (
        "error: sweep row delta0=2.0, gamma=inf: alpha=1e+308, rho=1.5e+308: "
        "the iteration matrix E at alpha=1e+308 overflows\n"
    )
    code, out, err = run_cli(capsys, *argv, "--bc", "periodic")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "2.0,inf,1e+308,1.5e+308,1.4999999999999998e+308"


@pytest.mark.parametrize(
    "argv, tol",
    [
        (("--bc", "periodic", "--smoother", "point", "--cells", "192", "--gamma", "1e-151"), 1e-12),
        (("--bc", "dirichlet", "--smoother", "cell", "--cells", "64", "--gamma", "1e-160"), 5e-4),
    ],
)
def test_dense_sweep_matches_lfa_where_block_determinants_overflow(capsys, argv, tol):
    # block entries past 1.3e154 overflowed a plain ad - bc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "sweep", "--delta0", "2", "--dense", *argv)
    assert code == 0 and err == ""
    _, _, _, rho_lfa, rho_dense = (float(v) for v in out.splitlines()[1].split(","))
    assert abs(rho_dense - rho_lfa) <= tol


def test_non_finite_spectrum_row_is_an_error_line(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--smoother", "point", "--delta0", "2", "--gamma", "1", "--alpha", "1.7e308"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: spectrum row k=1: lambda pair ")
    assert err.endswith(", -inf is not finite\n")
