import math
import sys
import textwrap

import pytest

from conetorsion import cli
from conetorsion.cli import ConfigError, load_config, main, parse_angle


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


QUARTER = """
    [domain]
    angle = pi/2
    radius = constant 1.0
    samples = 128

    [mesh]
    h_target = 0.1
    degree = 2

    [output]
    prefix = q
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("pi/2", math.pi / 2), ("2pi", 2 * math.pi), ("0.5pi", math.pi / 2),
    ("pi", math.pi), ("1.5", 1.5), ("3pi/2", 3 * math.pi / 2),
])
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected)


def test_parse_angle_rejects_garbage():
    with pytest.raises((ConfigError, ValueError)):
        parse_angle("pix2")


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, QUARTER))
    assert cfg.spec.beta == pytest.approx(math.pi / 2)
    assert cfg.h_target == 0.1 and not hasattr(cfg, "degree")
    assert cfg.prefix == "q"


def test_unknown_key_rejected(tmp_path):
    bad = QUARTER.replace("[mesh]", "[mesh]\n    h_tagret = 0.1")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, QUARTER + "\n[solver]\nx = 1\n"))


def test_missing_domain_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "[mesh]\nh_target = 0.1\n"))


def test_table_radius_config(tmp_path):
    body = """
        [domain]
        angle = pi/2
        radius = table
        radius_points = 0,1.0 0.3927,1.02 0.7854,1.05 1.1781,1.02 1.5708,1.0
        samples = 64
    """
    cfg = load_config(write_config(tmp_path, body))
    assert float(cfg.spec.radius_fn(0.7854)) == pytest.approx(1.05, abs=1e-9)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_solve_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, QUARTER)
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "k=2" in out
    lines = (tmp_path / "q_report.csv").read_text().splitlines()
    assert lines[0].startswith("domain_id,h_max,degree")
    assert lines[1].endswith(",true")   # C_bound_satisfied


def test_full_disk_records_k0(tmp_path, capsys):
    body = QUARTER.replace("angle = pi/2", "angle = 2pi")
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "k=0" in capsys.readouterr().out


def test_rigidity_requires_convex_cone(tmp_path, capsys):
    body = QUARTER.replace("angle = pi/2", "angle = 3pi/2")
    code = main(["rigidity", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_rigidity_requires_constant_radius(tmp_path):
    body = QUARTER.replace("radius = constant 1.0",
                           "radius = fourier 1.0 3,0.05")
    code = main(["rigidity", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_rigidity_passes_on_ball_sector(tmp_path, capsys):
    code = main(["rigidity", "--config", write_config(tmp_path, QUARTER),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "rigidity summary: PASS" in capsys.readouterr().out


def test_rigidity_fails_on_a_large_deficit(tmp_path, capsys, monkeypatch):
    # a real solve whose deficit_2 is then set far above the tolerance
    # max(5e-3, 2 h_max^2); the summary fails and exits 3 without --strict
    from conetorsion import stability
    run_pipeline = stability.run_pipeline

    def large_deficit(*args, **kwargs):
        res = run_pipeline(*args, **kwargs)
        res.report.deficit_2 = 1.0
        return res

    monkeypatch.setattr(stability, "run_pipeline", large_deficit)
    code = main(["rigidity", "--config", write_config(tmp_path, QUARTER),
                 "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_ASSERTION
    checks = [line.split()[1:] for line in lines if line.startswith("  rigidity ")]
    assert [(c[0], c[-1]) for c in checks] == [
        ("deficit_2", "FAIL"), ("pseudodistance", "pass"), ("rho_gap", "pass")]
    assert lines[-1] == "rigidity summary: FAIL"


def test_mesh_target_too_large_is_numerical_error(tmp_path, capsys):
    body = QUARTER.replace("h_target = 0.1", "h_target = 5.0")
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("h_target", ["-1", "nan"])
def test_non_positive_mesh_target_is_numerical_error(tmp_path, capsys, h_target):
    body = QUARTER.replace("h_target = 0.1", f"h_target = {h_target}")
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    assert "error: h_target must be positive" in capsys.readouterr().err


def test_folding_ring_mesh_is_numerical_error(tmp_path, capsys):
    # r = 1 + 0.6 cos 8t folds the ring triangles at h = 0.05: no report row
    body = (QUARTER.replace("angle = pi/2", "angle = 2pi")
            .replace("radius = constant 1.0", "radius = fourier 1.0 8,0.6")
            .replace("samples = 128", "samples = 512")
            .replace("h_target = 0.1", "h_target = 0.05"))
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    assert "inverted" in capsys.readouterr().err
    assert not (tmp_path / "q_report.csv").exists()


def test_degree_one_is_validation_error(tmp_path, capsys):
    body = QUARTER.replace("degree = 2", "degree = 1")
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "degree must be 2" in capsys.readouterr().err


@pytest.mark.parametrize("good,bad,key", [
    ("angle = pi/2", "angle = abc", "angle"),
    ("angle = pi/2", "angle = pi/0", "angle"),
    ("samples = 128", "samples = many", "samples"),
    ("radius = constant 1.0", "radius = constant abc", "radius"),
    ("radius = constant 1.0", "radius = fourier x", "radius"),
    ("radius = constant 1.0", "radius = table\n    radius_points = 0,1 1",
     "radius_points"),
    ("h_target = 0.1", "h_target = abc", "h_target"),
    ("[output]", "[poincare]\n    alphas = 0 0.3\n    [output]", "alphas"),
    ("[output]", "[poincare]\n    alphas = nan\n    [output]", "alphas"),
    ("[output]", "[poincare]\n    levels = 0\n    [output]", "levels"),
    ("degree = 2", "degree = 2\n    refinements = 0", "refinements"),
    ("[output]", "[poincare]\n    alphas =\n    [output]", "alphas"),
    ("[output]", "[poincare]\n    kinds =\n    [output]", "kinds"),
], ids=["angle", "angle_pi_over_0", "samples", "constant", "fourier",
        "radius_points", "h_target", "alphas", "alphas_nan", "levels",
        "refinements", "alphas_empty", "kinds_empty"])
def test_malformed_value_is_validation_error(tmp_path, capsys, good, bad, key):
    body = QUARTER.replace(good, bad)
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and f"{key} = " in errors[0]


def test_exports_mesh_and_solution(tmp_path):
    body = QUARTER + "    export_mesh = yes\n    export_solution = yes\n"
    code = main(["solve", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "q_mesh.txt").exists()
    sol = (tmp_path / "q_solution.txt").read_text().splitlines()
    assert sol[0].startswith("NODAL_VALUES")


def test_identity_command(tmp_path, capsys):
    body = """
        [domain]
        angle = pi/2
        radius = constant 1.0
        samples = 128

        [mesh]
        h_target = 0.15
        degree = 2
        refinements = 3

        [output]
        prefix = ident
    """
    code = main(["identity", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "ident_identity.csv").read_text().splitlines()
    assert lines[0].startswith("level,h_max,identity_lhs")
    assert len(lines) == 4
    residuals = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert all(residuals[i + 1] <= residuals[i] * 1.2 for i in range(2))


def test_identity_strict_fails_on_growing_residuals(tmp_path, capsys,
                                                    monkeypatch):
    from conetorsion.quantities import IdentityParts
    from conetorsion.stability import IdentityLevel

    def growing(spec, h_target, levels):
        for level, residual in enumerate((0.01, 0.02)[:levels]):
            parts = IdentityParts(1.0, 1.0, 0.0, residual, 1.0)
            yield IdentityLevel(0.1 / 2**level, parts, 1.0 + 2 * level, 1.0,
                                level == 1)

    monkeypatch.setattr(cli.stability, "identity_ladder", growing)
    body = QUARTER.replace("degree = 2", "degree = 2\n    refinements = 2")
    code = main(["identity", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path), "--strict"])
    assert code == cli.EXIT_ASSERTION
    assert capsys.readouterr().out == (
        "identity residuals: 1.000e-02 2.000e-02 (NOT decreasing)\n")
    lines = (tmp_path / "q_identity.csv").read_text().splitlines()
    assert [ln.split(",")[-1] for ln in lines[1:]] == ["false", "true"]


def test_poincare_command(tmp_path, capsys):
    body = """
        [domain]
        angle = 2pi
        radius = constant 1.0
        samples = 256

        [mesh]
        h_target = 0.06

        [poincare]
        alphas = 0
        kinds = mu
        levels = 2

        [output]
        prefix = pc
    """
    code = main(["poincare", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "pc_poincare.csv").read_text().splitlines()
    assert lines[0] == "kind,alpha,level,value,converged_flag"
    last = lines[-1].split(",")
    assert last[0] == "mu" and last[2] == "1"
    assert float(last[3]) == pytest.approx(1.8411837813406595, rel=0.01)
    assert last[4] == "true"   # two levels inside 2 percent


def test_eta_on_full_plane_is_validation_error(tmp_path, capsys):
    body = """
        [domain]
        angle = 2pi
        radius = constant 1.0

        [poincare]
        kinds = {}
    """
    # rejected before any eigensolve: no mu ladder runs ahead of the error
    for kinds in ("eta", "mu eta"):
        code = main(["poincare", "--config", write_config(tmp_path, body.format(kinds)),
                     "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "mu alpha=" not in out
        assert [ln for ln in err.splitlines() if ln.startswith("error: ")] == [
            "error: eta needs a domain with GAMMA1 (k >= 1)"]
    assert not (tmp_path / "run_poincare.csv").exists()


SWEEP = """
    [domain]
    angle = 2pi
    radius = constant 1.0
    samples = 256

    [mesh]
    h_target = 0.08
    degree = 2

    [sweep]
    mode = 3
    epsilons = 0.02 0.04 0.08

    [output]
    prefix = sw
"""


def test_sweep_command_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SWEEP)
    code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                 "--strict"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 failed verdicts" in out
    lines = (tmp_path / "sw_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("domain_id,")
    assert any(ln.startswith("#FIT") for ln in lines)
    svg = (tmp_path / "sw_sweep.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_sweep_svg_off(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP)
    code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path),
                 "--svg", "off"])
    assert code == 0
    assert not (tmp_path / "sw_sweep.svg").exists()


def test_sweep_empty_epsilons_rejected(tmp_path):
    body = SWEEP.replace("epsilons = 0.02 0.04 0.08", "epsilons =")
    code = main(["sweep", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_sweep_mode_zero_rejected(tmp_path, capsys):
    # mode 0 scales the base by 1 + eps: a dilation, not a perturbation
    body = SWEEP.replace("mode = 3", "mode = 0")
    code = main(["sweep", "--config", write_config(tmp_path, body),
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    errors = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("error: ")]
    assert len(errors) == 1 and "mode must be at least 1" in errors[0]
    assert not (tmp_path / "sw_sweep.csv").exists()


def test_sweep_byte_identical_across_threads(tmp_path):
    cfg_path = write_config(tmp_path, SWEEP)
    for threads, sub in ((1, "t1"), (8, "t8")):
        out = tmp_path / sub
        code = main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--threads", str(threads)])
        assert code == 0
    b1 = (tmp_path / "t1" / "sw_sweep.csv").read_bytes()
    b8 = (tmp_path / "t8" / "sw_sweep.csv").read_bytes()
    assert b1 == b8


def test_missing_config_file():
    assert main(["solve", "--config", "/nonexistent.ini"]) == cli.EXIT_VALIDATION


def test_missing_threadpoolctl_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)   # import fails
    code = main(["solve", "--config", write_config(tmp_path, QUARTER),
                 "--out", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: threadpoolctl is not installed; "
                   "the BLAS thread limit was not applied"]
    assert main(["solve", "--config", "/nonexistent.ini"]) == cli.EXIT_VALIDATION
    assert "BLAS thread limit was not applied" in capsys.readouterr().err
