import json

import numpy as np
import pytest
from click.testing import CliRunner

from cartanarea.cli import main
from cartanarea.records import read_graph


@pytest.fixture()
def runner():
    return CliRunner()


def test_frame_command(runner):
    result = runner.invoke(main, ["frame", "--lagrangian", "area3", "--slopes", "1 0"])
    assert result.exit_code == 0
    vals = [float(tok) for tok in result.output.split()]
    assert vals == pytest.approx([2**-0.5, 0.0, -(2**-0.5)], abs=1e-15)


@pytest.mark.filterwarnings("ignore::cartanarea.errors.DegenerateFrameWarning")
def test_frame_structured_record(runner):
    result = runner.invoke(
        main,
        ["frame", "--lagrangian", "plucker4", "--slopes", "1 0; 0 0", "--format", "structured-record"],
    )
    assert result.exit_code == 0
    rec = json.loads(result.output)
    assert rec["degenerate"] == [0]
    assert np.allclose(rec["vectors"], [[1, 0, 0, 0], [0, 0, 0, -1]])


def test_volume_command(runner):
    result = runner.invoke(main, ["volume", "--vectors", "1 0; 0 1"])
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_volume_with_metric(runner):
    result = runner.invoke(main, ["volume", "--vectors", "1 0; 0 1", "--metric", "4 0; 0 9"])
    assert result.exit_code == 0
    assert float(result.output) == pytest.approx(6.0)


def test_volume_dimension_error_exit_code(runner):
    result = runner.invoke(main, ["volume", "--vectors", "1 0; 0 1; 1 1"])
    assert result.exit_code == 1
    assert "error: DimensionMismatch" in result.stderr


def test_usage_error_exit_code(runner):
    result = runner.invoke(main, ["frame", "--lagrangian", "gram", "--slopes", "1 0"])
    assert result.exit_code == 2


def test_solve_and_graph_file_roundtrip(runner, tmp_path):
    path = tmp_path / "graph.json"
    result = runner.invoke(
        main,
        [
            "solve",
            "--lagrangian",
            "area3",
            "--domain",
            "0,1;0,1",
            "--resolution",
            "9",
            "--boundary",
            "0",
            "--output",
            str(path),
        ],
    )
    assert result.exit_code == 0
    graph = read_graph(path)
    assert graph.resolution == (9, 9)
    assert np.max(np.abs(graph.values)) == 0.0
    raw = json.loads(path.read_text())
    assert raw["format"] == "cartan-grid/1"
    assert raw["n"] == 3 and raw["p"] == 2


def test_solve_csv(runner):
    result = runner.invoke(
        main,
        [
            "solve",
            "--lagrangian",
            "dirichlet",
            "--dims",
            "3,2",
            "--domain",
            "0,1;0,1",
            "--resolution",
            "5",
            "--boundary",
            "x1*x1 - x2*x2",
            "--format",
            "csv",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "x1,x2,f1"
    assert len(lines) == 1 + 25


def test_check_minkowski(runner):
    result = runner.invoke(
        main, ["check-minkowski", "--lagrangian", "area3", "--samples", "5", "--seed", "1"]
    )
    assert result.exit_code == 0
    assert "homogeneity_ok: True" in result.output
    assert "hessian_ok: True" in result.output


def test_verify_flat_frame(runner):
    result = runner.invoke(
        main,
        [
            "verify",
            "--lagrangian",
            "area3",
            "--domain",
            "0,1;0,1",
            "--resolution",
            "17",
            "--boundary",
            "0",
            "--field",
            "frame",
            "--psi",
            "random",
            "--seed",
            "7",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].split()[0] == "field"
    assert "normal" in lines[1].split()[-1]


def test_verify_csv_and_determinism(runner):
    args = [
        "verify",
        "--lagrangian",
        "area3",
        "--domain",
        "0,1;0,1",
        "--resolution",
        "9",
        "--boundary",
        "0",
        "--field",
        "tangent:1",
        "--psi",
        "edge:xmax",
        "--format",
        "csv",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    header = first.output.split("\n")[0]
    assert header == "field,A0,dA_dt,dA_dt_order4,boundary_formula,classification"
    row = first.output.split("\n")[1].split(",")
    assert row[-1] == "non-normal"
    assert float(row[2]) == pytest.approx(1.0, abs=1e-3)


def test_frame_from_element_record(runner, tmp_path):
    rec = tmp_path / "elem.json"
    rec.write_text(
        json.dumps({"n": 3, "p": 2, "base_point": [0, 0, 0], "slopes": [[1.0, 0.0]]})
    )
    result = runner.invoke(main, ["frame", "--lagrangian", "area3", "--element", str(rec)])
    assert result.exit_code == 0
    vals = [float(tok) for tok in result.output.split()]
    assert vals == pytest.approx([2**-0.5, 0.0, -(2**-0.5)], abs=1e-15)


def test_verify_default_domain_and_more_fields(runner):
    result = runner.invoke(
        main,
        [
            "verify",
            "--lagrangian",
            "area3",
            "--resolution",
            "9",
            "--boundary",
            "0",
            "--field",
            "euclidean-normal",
            "--field",
            "0; 0; 1",
            "--psi",
            "random",
            "--seed",
            "7",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert len(lines) == 3
    assert all("normal" == line.split()[-1] for line in lines[1:])


def test_verify_from_graph_file(runner, tmp_path):
    path = tmp_path / "g.json"
    solve = runner.invoke(
        main,
        ["solve", "--lagrangian", "area3", "--resolution", "9", "--boundary", "0",
         "--output", str(path)],
    )
    assert solve.exit_code == 0
    result = runner.invoke(
        main,
        ["verify", "--lagrangian", "area3", "--graph", str(path),
         "--field", "tangent:1", "--psi", "edge:xmax"],
    )
    assert result.exit_code == 0
    row = result.output.strip().split("\n")[1].split()
    assert row[-1] == "non-normal"
    assert float(row[2]) == pytest.approx(1.0, abs=1e-3)


def test_config_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vectors": "1 0; 0 1"}))
    result = runner.invoke(main, ["volume", "--config", str(cfg)])
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_frame_output_deterministic(runner, tmp_path):
    outputs = []
    for _ in range(2):
        path = tmp_path / "out.txt"
        result = runner.invoke(
            main,
            ["frame", "--lagrangian", "area3", "--slopes", "0.3 -1.7", "--output", str(path)],
        )
        assert result.exit_code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "extra",
    [
        ["--lagrangian", "area3", "--field", "tangent:0"],
        ["--lagrangian", "area3", "--field", "tangent:3"],
        ["--lagrangian", "area3", "--field", "frame:0"],
        ["--lagrangian", "area3", "--field", "frame:2"],
        ["--lagrangian", "area3", "--field", "frame:x"],
        ["--lagrangian", "area3", "--field", "frame", "--psi", "edge:xmid"],
        ["--lagrangian", "area3", "--field", "frame", "--psi", "edge:zmin"],
        ["--lagrangian", "dirichlet", "--dims", "2,1", "--field", "frame", "--psi", "edge:ymin"],
    ],
    ids=["tangent:0", "tangent:3", "frame:0", "frame:2", "frame:x", "edge:xmid", "edge:zmin", "edge:ymin-p1"],
)
def test_verify_rejects_out_of_range_field_or_edge(runner, extra):
    result = runner.invoke(main, ["verify", "--resolution", "5", "--boundary", "0", *extra])
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output


def test_verify_in_range_field_and_edge_output_unchanged(runner):
    # values as printed before out-of-range indices and sides were rejected;
    # the frame:1 row tears the corners of the xmax edge, so its dA/dt
    # depends on the re-fit's closure and only A0 and the formula are pinned
    args = ["verify", "--lagrangian", "area3", "--resolution", "9", "--boundary", "x1*x2",
            "--field", "frame:1", "--field", "tangent:1", "--psi", "edge:xmax"]
    result = runner.invoke(main, args + ["--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert len(lines) == 3
    frame = lines[1].split(",")
    assert frame[0] == "frame:1" and frame[-1] == "inconclusive"
    assert [float(frame[1]), float(frame[4])] == pytest.approx(
        [1.2784249666233969, 0.0023355614957509571], rel=1e-9, abs=1e-12
    )
    tangent = lines[2].split(",")
    assert tangent[0] == "tangent:1" and tangent[-1] == "non-normal"
    assert [float(v) for v in tangent[1:-1]] == pytest.approx(
        [1.2784249666233969, 1.5727650934550437, 1.5727650877290211, 1.5727583635860223],
        rel=1e-9, abs=1e-12,
    )
    text = runner.invoke(main, args).output.strip().split("\n")
    assert text[3] == "frame:1: inconclusive (corner-tear)"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_too_small_resolution_is_a_usage_error(runner, command):
    args = [command, "--lagrangian", "area3", "--resolution", "3", "--boundary", "0"]
    if command == "verify":
        args += ["--field", "frame"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "at least 5 nodes" in result.output


@pytest.mark.parametrize("domain", ["0,0;0,1", "1,0;0,1", "0,1;2,2", "0,inf;0,1"])
def test_degenerate_domain_is_a_usage_error(runner, domain):
    args = ["solve", "--lagrangian", "area3", "--resolution", "5", "--boundary", "0",
            "--domain", domain]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "lo < hi" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")  # faults are silenced, not printed
def test_non_finite_boundary_expression_is_a_usage_error(runner):
    args = ["solve", "--lagrangian", "area3", "--resolution", "9", "--boundary", "log(x1)"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "boundary data must be finite" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")  # faults are silenced, not printed
@pytest.mark.parametrize(
    "fields", [["--field", "1/x1;0;0", "--field", "frame"], ["--field", "frame", "--psi", "log(x1)"]],
    ids=["direction", "intensity"],
)
def test_non_finite_deformation_reads_inconclusive(runner, fields):
    # the deformation is infinite on the xmin edge: its row reads the typed
    # error, and the scan goes on
    args = ["verify", "--lagrangian", "area3", "--boundary", "0", "--resolution", "9", *fields]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()[1:]
    assert lines[0].endswith("inconclusive: NonFinite: deformation evaluated non-finite")
    assert all(line.split()[-1] == "normal" for line in lines[1:])


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--step", "0", "t-step"),
        ("--step", "nan", "t-step"),
        ("--step", "inf", "t-step"),
        ("--step", "-1e-3", "t-step"),
        ("--psi", "nan", "intensity must be finite"),
        ("--psi", "inf", "intensity must be finite"),
    ],
)
def test_bad_step_or_constant_psi_is_a_usage_error(runner, option, value, message):
    args = ["verify", "--lagrangian", "area3", "--resolution", "5", "--boundary", "x1*x2",
            "--field", "frame", option, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_verify_prints_the_field_order(runner):
    result = runner.invoke(
        main,
        ["verify", "--lagrangian", "area3", "--resolution", "33", "--boundary", "x1*x2",
         "--field", "frame", "--field", "tangent:1", "--psi", "random", "--seed", "0"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 5
    assert lines[1].split()[-1] == "normal"
    assert lines[2].split()[-1] == "non-normal"
    name, order = lines[3].split(": field order ")
    assert name == "frame"
    assert order.endswith(" (normal in the limit)")
    assert 1.8 <= float(order.split()[0]) <= 2.2
    assert lines[4].startswith("tangent:1: field order ")
    assert "limit" not in lines[4]
