"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import os
import pickle
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import rkstab
import rkstab.assembly
import rkstab.bounds
from rkstab import cli
from rkstab.cli import main

MESH_1D = "uniform_interval:n=8"


def child_env(**extra):
    """The environment of a child process that runs outside the checkout.

    It gets the package's own parent directory on PYTHONPATH instead of any
    relative entry inherited from us.
    """
    package_root = str(Path(rkstab.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, **extra,
                PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_end_to_end_sandwich_flag(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "bounds",
            "--mesh", MESH_1D,
            "--policy", "hrz_diagonal",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert err == ""
        result = json.loads(out)
        assert result["sandwich_satisfied"] is True
        record = json.loads((tmp_path / "bounds.json").read_text())
        assert record["sandwich_satisfied"] is True
        assert record["n_dofs"] == 7
        assert record["n_elements"] == 8
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[0] == "dimension"
        assert header[-1] == "sandwich_satisfied"
        assert len(lines[1].split(",")) == len(header)

    def test_identical_runs_are_byte_identical(self, capsys, tmp_path):
        args = [
            "bounds",
            "--mesh", "structured_triangular:nx=4,ny=4",
            "--diffusion", "rotated_anisotropic:angle=0.5235987755982988,k1=1,k2=100",
            "--policy", "hrz_diagonal",
            "--order", "2",
            "--seed", "42",
        ]
        run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        for name in ("bounds.json", "bounds.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_dof_cap_skips_exact_eigenvalue(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--mesh", MESH_1D,
            "--dof-cap", "4",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "bounds.json").read_text())
        assert record["lambda_max_exact"] is None
        assert record["sandwich_satisfied"] is None
        row = (tmp_path / "bounds.csv").read_text().splitlines()[1]
        assert row.endswith(",")

    def test_aligned_diffusion_on_stretched_mesh(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "--mesh", "stretched:nx=4,ny=4,ratio=10",
            "--diffusion", "aligned",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["sandwich_satisfied"] is True


# Config files whose values have the wrong type or shape, by file name.
BAD_CONFIGS = {
    "tau.json": {"mesh": MESH_1D, "tau": "x"},
    "diffusion.json": {"mesh": MESH_1D, "diffusion": 5},
    "tableau_b.json": {"mesh": MESH_1D, "scheme": "generic",
                       "tableau": {"a": [[0, 0], [1, 0]], "b": [0.5]}},
    "tableau_a.json": {"mesh": MESH_1D, "scheme": "generic",
                       "tableau": {"a": [[0], [1, 0]], "b": [0.5, 0.5]}},
    "sweep_values.json": {"mesh": MESH_1D, "sweep_axis": "n", "sweep_values": 5},
    "ratio_values.json": {"mesh": "stretched:nx=2,ny=2,ratio=1", "sweep_axis": "ratio",
                          "sweep_values": ["x"]},
    # JSON true and false, which Python counts as the integers 1 and 0
    "bool_tau.json": {"mesh": MESH_1D, "tau": True},
    "bool_steps.json": {"mesh": MESH_1D, "steps": True},
    "bool_order.json": {"mesh": MESH_1D, "order": True},
    "bool_seed.json": {"mesh": MESH_1D, "seed": False},
    "bool_dof_cap.json": {"mesh": MESH_1D, "dof_cap": True},
    "bool_workers.json": {"mesh": MESH_1D, "workers": True, "sweep_axis": "n",
                          "sweep_values": [3]},
    "bool_n.json": {"mesh": MESH_1D, "sweep_axis": "n", "sweep_values": [True]},
    "bool_m.json": {"mesh": MESH_1D, "sweep_axis": "m", "sweep_values": [True]},
    "bool_ratio.json": {"mesh": "stretched:nx=2,ny=2,ratio=1", "sweep_axis": "ratio",
                        "sweep_values": [True]},
    "str_n.json": {"mesh": MESH_1D, "sweep_axis": "n", "sweep_values": ["8"]},
    "bool_tableau.json": {"mesh": MESH_1D, "scheme": "generic",
                          "tableau": {"a": [[False]], "b": [True]}},
    # a list, which a dict of choices could not look up
    "list_bound_source.json": {"mesh": MESH_1D, "bound_source": ["exact"]},
}


def square_2x2(boundary, vertices=(), elements=()):
    """The unit square in 2x2 cells, with vertex 4 inside, in the mesh file format.

    The boundary lines are given; extra vertex and element lines follow the
    square's own.
    """
    sections = [
        ("VERTICES", ["0 0", "0.5 0", "1 0", "0 0.5", "0.5 0.5", "1 0.5", "0 1", "0.5 1", "1 1",
                      *vertices]),
        ("ELEMENTS", ["0 1 4", "0 4 3", "1 2 5", "1 5 4", "3 4 7", "3 7 6", "4 5 8", "4 8 7",
                      *elements]),
        ("BOUNDARY", boundary),
    ]
    return "DIMENSION 2\n" + "".join(
        f"{name} {len(lines)}\n" + "".join(line + "\n" for line in lines) for name, lines in sections
    )


# The eight edges of square_2x2's boundary, all Dirichlet.
SQUARE_EDGES = ["0 1 D", "1 2 D", "2 5 D", "5 8 D", "8 7 D", "7 6 D", "6 3 D", "3 0 D"]


# Mesh files that fail to read or to build, by file name.
BAD_MESH_FILES = {
    # DegenerateElementError: a zero-area triangle
    "flat.txt": "DIMENSION 2\nVERTICES 3\n0 0\n1 0\n2 0\nELEMENTS 1\n0 1 2\n"
                "BOUNDARY 3\n0 1 D\n1 2 D\n0 2 D\n",
    # MeshStructureError: a Dirichlet facet that is no element edge (P2), and
    # a boundary with no Dirichlet facet
    "diagonal.txt": "DIMENSION 2\nVERTICES 4\n0 0\n1 0\n1 1\n0 1\nELEMENTS 2\n0 1 2\n"
                    "0 2 3\nBOUNDARY 5\n0 1 D\n1 2 D\n2 3 D\n3 0 D\n1 3 D\n",
    "neumann.txt": "DIMENSION 1\nVERTICES 3\n0\n0.5\n1\nELEMENTS 2\n0 1\n1 2\n"
                   "BOUNDARY 2\n0 N\n2 N\n",
    # ... and a P1 triangle whose three edges are Dirichlet, so no DOF is free
    "all_dirichlet.txt": "DIMENSION 2\nVERTICES 3\n0 0\n1 0\n0 1\nELEMENTS 1\n0 1 2\n"
                         "BOUNDARY 3\n0 1 D\n1 2 D\n0 2 D\n",
    # ... and a unit square whose fifth vertex no element uses: an orphan DOF
    "unused_vertex.txt": "DIMENSION 2\nVERTICES 5\n0 0\n1 0\n1 1\n0 1\n5 5\nELEMENTS 2\n"
                         "0 1 2\n0 2 3\nBOUNDARY 4\n0 1 D\n1 2 D\n2 3 D\n3 0 D\n",
    # ... and boundary lists that leave a boundary facet out, list an interior
    # facet, list a facet that is no element edge, and mark a facet both D
    # and N; a facet shared by three elements; and a 1D interior vertex
    # listed as a boundary facet.  Each leaves a DOF free at P1.
    "unlisted_facet.txt": square_2x2(SQUARE_EDGES[:-1]),
    "interior_facet.txt": square_2x2([*SQUARE_EDGES, "0 4 N"]),
    "off_edge.txt": square_2x2([*SQUARE_EDGES, "0 8 N"]),
    "both_markers.txt": square_2x2([*SQUARE_EDGES, "1 0 N"]),
    "over_shared.txt": square_2x2([*SQUARE_EDGES, "0 9 N", "4 9 N"], ["0.25 0.75"], ["0 4 9"]),
    "interior_vertex_1d.txt": "DIMENSION 1\nVERTICES 4\n0\n0.25\n0.5\n1\nELEMENTS 3\n"
                              "0 1\n1 2\n2 3\nBOUNDARY 3\n0 D\n1 D\n3 D\n",
    # MeshFormatError: a negative count, a count no file of this length holds,
    # a coordinate that is not finite, and a vertex index beyond int64
    "negative_count.txt": "DIMENSION 1\nVERTICES -1\n0\n0.5\n1\nELEMENTS 2\n0 1\n1 2\n"
                          "BOUNDARY 2\n0 D\n2 D\n",
    "huge_count.txt": "DIMENSION 1\nVERTICES 100000000000\n0\n0.5\n1\nELEMENTS 2\n0 1\n"
                      "1 2\nBOUNDARY 2\n0 D\n2 D\n",
    "nan.txt": "DIMENSION 1\nVERTICES 3\n0\nnan\n1\nELEMENTS 2\n0 1\n1 2\n"
               "BOUNDARY 2\n0 D\n2 D\n",
    "huge_index.txt": "DIMENSION 1\nVERTICES 3\n0\n0.5\n1\nELEMENTS 2\n"
                      "0 99999999999999999999\n1 2\nBOUNDARY 2\n0 D\n2 D\n",
}


# A sweep with a bad diffusion spec, which a worker would meet only after the pool started.
BAD_DIFFUSION_SWEEP = ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--sweep-axis", "n",
                       "--sweep-values", "2", "--diffusion", "scalar:value=x", "--workers", "2"]


# The report columns that perfbench and other readers look up by name.  A
# schema change edits these strings on purpose.
BOUNDS_HEADER = (
    "dimension,n_elements,n_dofs,order,node_count,policy,kappa_surrogate,c_h1,"
    "lambda_max_exact,lower_diag_ratio,upper_diag_ratio,upper_geometric,upper_zhudu,"
    "tightness_lower,tightness_upper,m_matrix_refinement_applied,"
    "upper_diag_ratio_refined,sandwich_satisfied"
)


def test_output_headers_and_json_keys_are_pinned(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bounds", "--mesh", MESH_1D, "--out", str(tmp_path))
    assert code == 0, err
    code, _, err = run_cli(capsys, "sweep", "--mesh", MESH_1D, "--sweep-axis", "n",
                           "--sweep-values", "3", "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "bounds.csv").read_text().splitlines()[0] == BOUNDS_HEADER
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == "axis,value," + BOUNDS_HEADER
    record = json.loads((tmp_path / "bounds.json").read_text())
    assert sorted(record) == sorted(BOUNDS_HEADER.split(","))


def test_report_fields_are_the_pinned_header():
    assert rkstab.BOUND_CSV_FIELDS == BOUNDS_HEADER.split(",")


@pytest.mark.parametrize("dof_cap", [None, 4])
def test_library_report_is_the_bounds_file(capsys, tmp_path, dof_cap):
    cap = [] if dof_cap is None else ["--dof-cap", str(dof_cap)]
    code, _, err = run_cli(capsys, "bounds", "--mesh", MESH_1D, "--order", "2",
                           "--policy", "hrz_diagonal", *cap, "--out", str(tmp_path))
    assert code == 0, err
    elem = rkstab.build_reference_element(1, 2)
    report = rkstab.compute_bound_report(
        rkstab.uniform_interval(8), elem, rkstab.DiffusionField.constant(1.0, d=1),
        rkstab.HRZ_DIAGONAL, **({} if dof_cap is None else {"dof_cap": dof_cap}))
    record = json.loads((tmp_path / "bounds.json").read_text())
    assert report.to_dict() == record
    assert (record["sandwich_satisfied"] is None) is (dof_cap is not None)


class TestConfigErrors:
    def test_unknown_scheme_exits_2_with_record(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "integrate",
            "--mesh", MESH_1D,
            "--scheme", "leapfrog",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "config"
        assert "leapfrog" in record["message"]

    def test_missing_mesh_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2
        assert json.loads(err)["error"] == "config"

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": MESH_1D, "shceme": "heun2"}))
        code, _, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert "shceme" in json.loads(err)["message"]

    def test_malformed_mesh_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("DIMENSON 1\n")
        code, _, err = run_cli(capsys, "validate", "--mesh", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "config"

    def test_aligned_diffusion_needs_stretched_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--mesh", MESH_1D, "--diffusion", "aligned"
        )
        assert code == 2
        assert "stretched" in json.loads(err)["message"]

    def test_exact_source_above_cap_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "integrate",
            "--mesh", "uniform_interval:n=64",
            "--bound-source", "exact",
            "--dof-cap", "4",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "unavailable" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        # SurrogateAxiomError: quadratic triangles have nonpositive nodal weights
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2", "--order", "2",
         "--policy", "node_quadrature"],
        ["integrate", "--mesh", "structured_triangular:nx=2,ny=2", "--order", "2",
         "--policy", "node_quadrature"],
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--order", "2",
         "--policy", "node_quadrature", "--sweep-axis", "n", "--sweep-values", "2"],
        # ... raised inside a sweep worker process
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--order", "2",
         "--sweep-axis", "policy", "--sweep-values", "hrz_diagonal,node_quadrature",
         "--workers", "2"],
        # NonSPDDiffusionError
        ["bounds", "--mesh", MESH_1D, "--diffusion", "scalar:value=-1"],
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2",
         "--diffusion", "rotated_anisotropic:k1=-1"],
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2",
         "--diffusion", "rotated_anisotropic:k2=0"],
        # ValueError from the mesh generators
        ["bounds", "--mesh", "random_perturbed:nx=4,ny=4,amplitude=1"],
        ["bounds", "--mesh", "structured_triangular:nx=0,ny=3"],
        ["bounds", "--mesh", "uniform_interval:n=0"],
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2,pattern=zigzag"],
        ["mesh-gen", "--mesh", "uniform_interval:n=0"],
        # a setting a command does not read is checked all the same
        ["bounds", "--mesh", MESH_1D, "--sweep-axis", "h"],
        ["mesh-gen", "--mesh", "uniform_interval:n=4", "--diffusion", "aligned"],
        ["sweep", "--mesh", "stretched:nx=2,ny=2,ratio=1", "--diffusion", "aligned",
         "--sweep-axis", "ratio", "--sweep-values", "1,-2"],
        # bad mesh files
        ["bounds", "--mesh", "{tmp}/flat.txt"],
        ["bounds", "--mesh", "{tmp}/diagonal.txt", "--order", "2"],
        ["bounds", "--mesh", "{tmp}/neumann.txt"],
        ["bounds", "--mesh", "{tmp}/all_dirichlet.txt"],
        *([command, "--mesh", f"{{tmp}}/{name}"] for command in ("bounds", "validate")
          for name in ("negative_count.txt", "huge_count.txt", "nan.txt")),
        ["validate", "--mesh", "{tmp}/huge_index.txt"],
        # mesh spec values of the wrong type
        ["bounds", "--mesh", "uniform_interval:n=x"],
        ["bounds", "--mesh", "structured_triangular:nx=2.5,ny=2"],
        ["bounds", "--mesh", "stretched:nx=2,ny=2,ratio=abc"],
        ["bounds", "--mesh", "random_perturbed:nx=4,ny=4,amplitude=0.01,seed=1.5"],
        # a non-finite float value, and a repeated key
        ["bounds", "--mesh", "random_perturbed:nx=4,ny=4,amplitude=nan"],
        ["bounds", "--mesh", MESH_1D, "--diffusion", "scalar:value=inf"],
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2,nx=3"],
        # diffusion specs: an unknown key, a value of the wrong type, a key
        # the mesh's dimension has no use for
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2",
         "--diffusion", "rotated_anisotropic:angle=0.5236,k1=1,K2=100"],
        ["bounds", "--mesh", "structured_triangular:nx=2,ny=2",
         "--diffusion", "rotated_anisotropic:k1=abc"],
        ["bounds", "--mesh", MESH_1D, "--diffusion", "scalar:value=x"],
        ["bounds", "--mesh", MESH_1D, "--diffusion", "diag:k3=5"],
        ["bounds", "--mesh", MESH_1D, "--diffusion", "identity:foo=1"],
        ["bounds", "--mesh", "uniform_interval:n=4", "--diffusion", "diag:k1=1,k2=100"],
        BAD_DIFFUSION_SWEEP,
        # an infinite step: summary.json cannot hold it, as Infinity is not JSON
        ["integrate", "--mesh", MESH_1D, "--tau", "inf"],
        # wrongly typed config values: a TypeError, AttributeError or
        # ValueError before they were checked
        ["integrate", "--config", "{tmp}/tau.json"],
        ["bounds", "--config", "{tmp}/diffusion.json"],
        ["integrate", "--config", "{tmp}/tableau_b.json"],
        ["integrate", "--config", "{tmp}/tableau_a.json"],
        ["sweep", "--config", "{tmp}/sweep_values.json"],
        ["sweep", "--config", "{tmp}/ratio_values.json"],
        ["integrate", "--config", "{tmp}/bool_tau.json"],
        ["integrate", "--config", "{tmp}/bool_steps.json"],
        ["bounds", "--config", "{tmp}/bool_order.json"],
        ["bounds", "--config", "{tmp}/bool_seed.json"],
        ["bounds", "--config", "{tmp}/bool_dof_cap.json"],
        ["sweep", "--config", "{tmp}/bool_workers.json"],
        ["sweep", "--config", "{tmp}/bool_n.json"],
        ["sweep", "--config", "{tmp}/bool_m.json"],
        ["sweep", "--config", "{tmp}/bool_ratio.json"],
        ["sweep", "--config", "{tmp}/str_n.json"],
        ["integrate", "--config", "{tmp}/bool_tableau.json"],
        ["integrate", "--config", "{tmp}/list_bound_source.json"],
    ])
    def test_input_errors_exit_2(self, capsys, tmp_path, argv):
        for name, config in BAD_CONFIGS.items():
            (tmp_path / name).write_text(json.dumps(config))
        for name, text in BAD_MESH_FILES.items():
            (tmp_path / name).write_text(text)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2, err
        assert out == ""
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("argv", [
        BAD_DIFFUSION_SWEEP,
        ["sweep", "--mesh", "stretched:nx=2,ny=2,ratio=1", "--sweep-axis", "ratio",
         "--sweep-values", "1,10,abc"],
        # values of the right type that a mesh generator rejects
        ["sweep", "--mesh", "uniform_interval:n=8", "--sweep-axis", "n", "--sweep-values", "4,0"],
        ["sweep", "--mesh", "stretched:nx=2,ny=2,ratio=1", "--sweep-axis", "ratio",
         "--sweep-values", "1,-1", "--workers", "2"],
        # amplitude 0.05 is below the perturbation limit 1/(2(nx + ny)) at n=2, not at n=8
        ["sweep", "--mesh", "random_perturbed:nx=2,ny=2,amplitude=0.05,seed=1",
         "--sweep-axis", "n", "--sweep-values", "2,8"],
        # quadratic triangles have nonpositive nodal weights, at the second point
        ["sweep", "--mesh", "structured_triangular:nx=3,ny=3", "--order", "2",
         "--sweep-axis", "policy", "--sweep-values", "consistent,node_quadrature"],
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--policy", "node_quadrature",
         "--sweep-axis", "m", "--sweep-values", "1,2", "--workers", "2"],
        # a diffusion the mesh's dimension or kind cannot take
        ["sweep", "--mesh", "uniform_interval:n=8", "--diffusion", "diag:k1=1,k2=3",
         "--sweep-axis", "n", "--sweep-values", "4,8"],
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--diffusion", "aligned",
         "--sweep-axis", "n", "--sweep-values", "2,3"],
        # a constant diffusion tensor that is not SPD
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--diffusion", "scalar:value=-1",
         "--sweep-axis", "n", "--sweep-values", "2,3"],
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2", "--diffusion", "diag:k1=-1,k2=2",
         "--sweep-axis", "n", "--sweep-values", "2,3"],
        ["sweep", "--mesh", "structured_triangular:nx=2,ny=2",
         "--diffusion", "rotated_anisotropic:k1=-1", "--sweep-axis", "n", "--sweep-values", "2,3"],
    ])
    def test_sweep_values_are_checked_before_any_point(self, capsys, tmp_path, monkeypatch,
                                                       argv):
        calls = tmp_path / "calls"  # a file, so that a forked worker's call counts too
        bounds_record = cli._bounds_record

        def counted(config):
            with open(calls, "a") as handle:
                handle.write("call\n")
            return bounds_record(config)

        monkeypatch.setattr(cli, "_bounds_record", counted)
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2, err
        assert out == ""
        assert json.loads(err)["error"] == "config"
        assert not calls.exists()
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("n_points", [2, 5])
    def test_specs_are_parsed_once_per_run(self, capsys, tmp_path, monkeypatch, n_points):
        calls = []
        parse_spec, isfile = cli.parse_spec, os.path.isfile

        def counted_parse(*args):
            calls.append("parse_spec")
            return parse_spec(*args)

        def counted_isfile(path):
            calls.append("isfile")
            return isfile(path)

        monkeypatch.setattr(cli, "parse_spec", counted_parse)
        monkeypatch.setattr(os.path, "isfile", counted_isfile)
        values = ",".join(str(3 ** k) for k in range(n_points))
        code, _, err = run_cli(capsys, "sweep", "--mesh", "stretched:nx=2,ny=2,ratio=1",
                               "--order", "2", "--diffusion", "aligned", "--policy",
                               "hrz_diagonal", "--sweep-axis", "ratio", "--sweep-values", values,
                               "--out", str(tmp_path))
        assert code == 0, err
        assert sorted(calls) == ["isfile", "parse_spec", "parse_spec"]

    def test_perturbation_above_limit_exits_2_for_every_seed(self, capsys, tmp_path):
        # 0.3 h on a 5x5 grid, above the h/4 limit: only 2 of these 200 seeds
        # used to invert an element (and exit 2); the rest ran.
        for seed in range(200):
            mesh = f"random_perturbed:nx=5,ny=5,amplitude=0.06,seed={seed}"
            code, out, err = run_cli(capsys, "bounds", "--mesh", mesh,
                                     "--out", str(tmp_path / "out"))
            assert code == 2, (seed, err)
            assert json.loads(err)["error"] == "config"

    def test_non_string_out_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": MESH_1D, "out": 5}))
        code, out, err = run_cli(capsys, "bounds", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "out must be a string" in json.loads(err)["message"]

    def test_bad_sweep_axis_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--mesh", MESH_1D,
            "--sweep-axis", "h",
            "--sweep-values", "1,2",
        )
        assert code == 2

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": MESH_1D, "order": 1}))
        code, _, _ = run_cli(
            capsys,
            "bounds",
            "--config", str(cfg),
            "--order", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads((tmp_path / "bounds.json").read_text())
        assert record["order"] == 2


class TestIntegrate:
    def test_stable_run_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "integrate",
            "--mesh", MESH_1D,
            "--policy", "hrz_diagonal",
            "--steps", "200",
            "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "stable"
        assert summary["certificate"] == "ok"
        assert summary["max_energy_ratio"] <= 1.0 + 1e-12
        assert summary["growth_ratio"] <= summary["growth_bound"] + 1e-9
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,t,l2_norm,energy_norm"
        assert len(lines) == 202

    def test_tau_override_unstable_is_exit_0(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "integrate",
            "--mesh", MESH_1D,
            "--policy", "hrz_diagonal",
            "--tau", "0.009",
            "--steps", "5000",
            "--initial", "top_mode",
            "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "unstable"
        assert summary["tau_source"] == "override"
        assert 0 < summary["blow_up_step"] <= 5000
        assert summary["certificate"] is None

    def test_zero_steps_is_noop(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "integrate",
            "--mesh", MESH_1D,
            "--steps", "0",
            "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "no-op"
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2

    def test_generic_tableau_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mesh": MESH_1D,
                    "policy": "hrz_diagonal",
                    "scheme": "generic",
                    "tableau": {"a": [[0.0, 0.0], [1.0, 0.0]], "b": [0.5, 0.5]},
                    "steps": 50,
                }
            )
        )
        code, _, _ = run_cli(
            capsys, "integrate", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "stable"
        assert summary["scheme"] == "generic"


class TestSweep:
    def test_n_axis_rows(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--mesh", MESH_1D,
            "--sweep-axis", "n",
            "--sweep-values", "8,16,32",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        values = [line.split(",")[1] for line in lines[1:]]
        assert values == ["8", "16", "32"]
        assert sorted(os.listdir(tmp_path)) == ["sweep.csv"]

    def test_single_point_sweep_matches_bounds_row(self, capsys, tmp_path):
        common = ["--mesh", "structured_triangular:nx=4,ny=4", "--policy", "hrz_diagonal"]
        run_cli(capsys, "bounds", *common, "--out", str(tmp_path / "b"))
        run_cli(
            capsys,
            "sweep",
            *common,
            "--sweep-axis", "policy",
            "--sweep-values", "hrz_diagonal",
            "--out", str(tmp_path / "s"),
        )
        bounds_row = (tmp_path / "b" / "bounds.csv").read_text().splitlines()[1]
        sweep_row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1]
        assert sweep_row.split(",", 2)[2] == bounds_row

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path):
        args = [
            "sweep",
            "--mesh", "structured_triangular:nx=4,ny=4",
            "--order", "2",
            "--sweep-axis", "n",
            "--sweep-values", "4,6,8,10",
            "--seed", "7",
        ]
        run_cli(capsys, *args, "--workers", "1", "--out", str(tmp_path / "w1"))
        run_cli(capsys, *args, "--workers", "4", "--out", str(tmp_path / "w4"))
        assert (tmp_path / "w1" / "sweep.csv").read_bytes() == (
            tmp_path / "w4" / "sweep.csv"
        ).read_bytes()

    def test_policy_axis(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--mesh", MESH_1D,
            "--sweep-axis", "policy",
            "--sweep-values", "consistent,hrz_diagonal",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        policy_col = header.index("policy")
        assert [line.split(",")[policy_col] for line in lines[1:]] == [
            "consistent",
            "hrz_diagonal",
        ]

    def test_ratio_axis_with_aligned_diffusion(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--mesh", "stretched:nx=6,ny=6,ratio=1",
            "--diffusion", "aligned",
            "--sweep-axis", "ratio",
            "--sweep-values", "10,100",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        zhudu_col = header.index("upper_zhudu")
        geo_col = header.index("upper_geometric")
        zhudu = [float(line.split(",")[zhudu_col]) for line in lines[1:]]
        geo = [float(line.split(",")[geo_col]) for line in lines[1:]]
        assert zhudu[1] / zhudu[0] >= 50.0
        assert geo[1] / geo[0] <= 2.0


@pytest.mark.skipif(sys.platform != "linux", reason="sweep forks workers on Linux only")
class TestSweepPool:
    SWEEP_1D = ["sweep", "--mesh", MESH_1D, "--sweep-axis", "n"]

    def test_points_run_in_worker_processes(self, capsys, tmp_path, monkeypatch):
        bounds_record = cli._bounds_record

        def with_pid(config):
            time.sleep(0.2)  # holds one worker so that the other takes points too
            report = bounds_record(config)
            return SimpleNamespace(csv_row=lambda: [*report.csv_row(), str(os.getpid())])

        monkeypatch.setattr(cli, "_bounds_record", with_pid)
        code, _, err = run_cli(capsys, *self.SWEEP_1D, "--sweep-values", "4,5,6,7",
                               "--workers", "2", "--out", str(tmp_path))
        assert code == 0, err
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["4", "5", "6", "7"]
        pids = {row.rsplit(",", 1)[1] for row in rows}
        assert len(pids) >= 2
        assert str(os.getpid()) not in pids

    def test_worker_convergence_error_exits_1_with_its_message(
        self, capsys, tmp_path, monkeypatch
    ):
        compute_bound_report = cli.compute_bound_report

        def fail_on_five_elements(mesh, *args, **kwargs):
            if mesh.n_elements == 5:
                raise rkstab.ConvergenceError(
                    "no convergence within 3 operator applications",
                    best_estimate=2.5,
                    residual=0.125,
                )
            return compute_bound_report(mesh, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_bound_report", fail_on_five_elements)
        code, out, err = run_cli(capsys, *self.SWEEP_1D, "--sweep-values", "4,5,6",
                                 "--workers", "2", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "internal",
            "message": "ConvergenceError: no convergence within 3 operator applications",
        }

    def test_pool_never_exceeds_point_count(self, capsys, tmp_path, monkeypatch):
        sizes = []

        class InProcessExecutor:
            """Records the requested pool size and runs the points here."""

            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessExecutor)
        code, _, err = run_cli(capsys, *self.SWEEP_1D, "--sweep-values", "4,5",
                               "--workers", "64", "--out", str(tmp_path))
        assert code == 0, err
        assert sizes == [2]


def _fields(error) -> dict:
    return {
        name: vars(value) if dataclasses.is_dataclass(value) else value
        for name, value in vars(error).items()
    }


@pytest.mark.parametrize("error", [
    rkstab.ConvergenceError("no convergence", best_estimate=2.5, residual=1e-3),
    rkstab.InequalityViolation("M <= kappa M~", -0.25, np.arange(3.0)),
    rkstab.BlowUpError(
        "blow-up detected at step 2",
        step=2,
        trace=rkstab.IntegrationTrace(
            times=np.array([0.0, 0.1]),
            l2_norms=np.array([1.0, 4.0]),
            energy_norms=np.array([2.0, 9.0]),
            tau=0.1,
            scheme="heun2",
            final_state=np.array([3.0, -1.0]),
        ),
    ),
    rkstab.CertificateError("L2 growth 3.5 exceeds 2", step=4, ratio=3.5, bound=2.0),
], ids=lambda error: type(error).__name__)
def test_library_errors_survive_pickling(error):
    """A sweep worker's error reaches the CLI as itself, with every field."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    np.testing.assert_equal(_fields(copy), _fields(error))


class TestMeshCommands:
    def test_mesh_file_runs_like_its_spec(self, capsys, tmp_path):
        spec = "random_perturbed:nx=3,ny=3,amplitude=0.02,seed=5"
        code, out, err = run_cli(capsys, "mesh-gen", "--mesh", spec, "--out", str(tmp_path))
        assert code == 0, err
        path = json.loads(out)["mesh_file"]
        for name, mesh in (("spec", spec), ("file", path)):
            common = ["--mesh", mesh, "--policy", "hrz_diagonal", "--out", str(tmp_path / name)]
            code, _, err = run_cli(capsys, "bounds", *common)
            assert code == 0, err
            code, _, err = run_cli(capsys, "sweep", *common, "--sweep-axis", "m",
                                   "--sweep-values", "1,2,3")
            assert code == 0, err
        for name in ("bounds.json", "bounds.csv", "sweep.csv"):
            assert (tmp_path / "file" / name).read_bytes() == (
                tmp_path / "spec" / name
            ).read_bytes()

    def test_mesh_gen_then_validate(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "mesh-gen",
            "--mesh", "structured_triangular:nx=3,ny=3",
            "--out", str(tmp_path),
        )
        assert code == 0
        path = json.loads(out)["mesh_file"]
        code, out, _ = run_cli(capsys, "validate", "--mesh", path)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_validate_reports_problems_with_exit_0(self, capsys, tmp_path):
        bad = tmp_path / "gap.txt"
        bad.write_text(
            "DIMENSION 1\n"
            "VERTICES 3\n"
            "0\n"
            "0.5\n"
            "1\n"
            "ELEMENTS 2\n"
            "0 1\n"
            "1 2\n"
            "BOUNDARY 1\n"
            "0 D\n"
        )
        code, out, _ = run_cli(capsys, "validate", "--mesh", str(bad))
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "invalid"
        assert result["n_problems"] >= 1

    @pytest.mark.parametrize("order,status", [(1, "invalid"), (2, "invalid"), (3, "ok")])
    def test_validate_finds_no_free_dof(self, capsys, tmp_path, order, status):
        """One triangle with three Dirichlet facets frees its interior DOF only from P3 on."""
        path = tmp_path / "all_dirichlet.txt"
        path.write_text(BAD_MESH_FILES["all_dirichlet.txt"])
        code, out, err = run_cli(capsys, "validate", "--mesh", str(path), "--order", str(order))
        assert code == 0, err
        result = json.loads(out)
        assert result["status"] == status
        if status == "invalid":
            assert result["problems"] == [
                f"no free DOF at order {order}: every DOF lies on the Dirichlet boundary"]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", [name for name in BAD_MESH_FILES if name not in (
        "negative_count.txt", "huge_count.txt", "nan.txt", "huge_index.txt")])
    def test_every_command_fails_on_validates_first_problem(self, capsys, tmp_path, name, order):
        """A mesh file that reads but that validate calls invalid makes every
        command that builds a system exit 2, on validate's first problem."""
        path = tmp_path / name
        path.write_text(BAD_MESH_FILES[name])
        code, out, err = run_cli(capsys, "validate", "--mesh", str(path), "--order", str(order))
        assert code == 0, err
        result = json.loads(out)
        assert result["status"] == "invalid"
        expected = {"error": "config", "message": result["problems"][0]}
        for command in (["bounds"], ["integrate", "--steps", "1"],
                        ["sweep", "--sweep-axis", "policy", "--sweep-values", "consistent"]):
            code, out, err = run_cli(capsys, *command, "--mesh", str(path), "--order", str(order),
                                     "--out", str(tmp_path / "out"))
            assert code == 2 and out == "", command
            assert json.loads(err) == expected, command
        assert not (tmp_path / "out").exists()

    def test_mesh_warning_is_one_json_line(self, tmp_path):
        """The orientation repair reaches stderr as one JSON record: no path, no source line."""
        path = tmp_path / "flipped.txt"
        path.write_text("DIMENSION 2\nVERTICES 3\n0 0\n1 0\n0 1\nELEMENTS 1\n0 2 1\n"
                        "BOUNDARY 3\n0 1 D\n1 2 D\n0 2 D\n")
        proc = subprocess.run([sys.executable, "-m", "rkstab.cli", "validate", "--mesh", str(path)],
                              capture_output=True, cwd=tmp_path, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            b'{"warning": "repaired 1 negatively oriented element(s) by vertex swap"}\n'
        )

    def test_mesh_gen_rejects_existing_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("DIMENSION 1\nVERTICES 0\nELEMENTS 0\nBOUNDARY 0\n")
        code, _, err = run_cli(capsys, "mesh-gen", "--mesh", str(path))
        assert code == 2


def test_flags_are_the_run_settings():
    parser = cli.argparse.ArgumentParser()
    cli._add_flags(parser)
    flags = {action.dest for action in parser._actions} - {"help", "config"}
    settings = {field.name for field in dataclasses.fields(cli.RunConfig)} - {"tableau"}
    assert flags == settings


def test_package_exports_are_the_module_lists():
    modules = (rkstab.reference, rkstab.mesh, rkstab.assembly, rkstab.bounds,
               rkstab.timestepping)
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert set(rkstab.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(rkstab, name) is getattr(module, name)


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rkstab.cli", "bounds", "--mesh", "uniform_interval:n=4",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["command"] == "bounds"


def test_trace_bytes_identical_across_blas_threads(tmp_path):
    """16,129 DOFs at P1 and 12,321 at P2: long enough that a BLAS dot threads,
    and so reorders its sum.  Both start from the L2 projection of the smooth
    initial state, so its solve is covered at each order."""
    for mesh, order in [("random_perturbed:nx=128,ny=128,amplitude=0.001,seed=1", "1"),
                        ("random_perturbed:nx=56,ny=56,amplitude=0.001,seed=1", "2")]:
        argv = ["integrate", "--mesh", mesh, "--order", order, "--policy", "hrz_diagonal",
                "--scheme", "classic_rk4", "--steps", "100", "--bound-source", "diag_ratio"]
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"p{order}-threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "rkstab.cli", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0].count(b"\n") == 102
        assert traces[0] == traces[1]


def _readme_commands() -> list[list[str]]:
    """The rkstab commands of the sh blocks in the README's "Command line" section."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    script = "\n".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [shlex.split(line) for line in script.splitlines() if line.startswith("rkstab ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_commands_run(capsys, tmp_path, argv):
    out = argv.index("--out") + 1
    code, _, err = run_cli(capsys, *argv[1:out], str(tmp_path), *argv[out + 1:])
    assert code == 0, err


# Two top-mode runs whose step and initial state come from the exact eigensolve:
# the report's forward Lanczos run, its replay and the stepper share one solve
# with the consistent mass, SuperLU's in 2D (961 DOFs) and banded Cholesky's in
# 1D (599 DOFs).
TOP_MODE_2D = ("integrate", "--mesh", "random_perturbed:nx=16,ny=16,amplitude=0.01,seed=1",
               "--order", "2", "--diffusion", "rotated_anisotropic:angle=0.5,k1=1,k2=100",
               "--policy", "consistent", "--initial", "top_mode", "--bound-source", "exact",
               "--scheme", "classic_rk4", "--steps", "20")
TOP_MODE_1D = ("integrate", "--mesh", "uniform_interval:n=200", "--order", "3",
               "--policy", "consistent", "--initial", "top_mode", "--bound-source", "exact",
               "--scheme", "classic_rk4", "--steps", "20")

# The SHA-256 of every file each run writes.  The first four skip the
# eigensolve (--dof-cap 1, and integrate's step comes from the diagonal ratio);
# the top-mode runs eigensolve.  Every diffusion is constant, so these bytes
# must hold whenever the bounds, the eigensolve or the assembly are reorganised
# without a stated change of output.
OUTPUT_CONTRACT = {
    ("bounds", "--mesh", "random_perturbed:nx=16,ny=16,amplitude=0.01,seed=1", "--order", "2",
     "--diffusion", "rotated_anisotropic:angle=0.5,k1=1,k2=100", "--policy", "hrz_diagonal",
     "--dof-cap", "1"): {
        "bounds.csv": "d6d2995bdfa18ec68c7b73e94b0bfc6eca70acce98bca1ddddbceb9e544d418f",
        "bounds.json": "aa76587dcaefb5b710d13a11e060a10c6b268717542e6fd30f603a22a1262d6f",
    },
    # certify-p2-128's system: 65,025 DOFs, 32,768 closed-form alignment norms
    ("bounds", "--mesh", "random_perturbed:nx=128,ny=128,amplitude=0.0015625,seed=1",
     "--order", "2", "--diffusion", "rotated_anisotropic:angle=0.5235987755982988,k1=1,k2=100",
     "--policy", "hrz_diagonal", "--dof-cap", "1"): {
        "bounds.csv": "3372fff0c7b16d01ea9b6403e19f68318024beccc96b8ca05f1382a60133317d",
        "bounds.json": "6be1900c104df1c8d186bd7f98807a1ec5fc512cad7f6d558ba921d8cc17f496",
    },
    ("sweep", "--mesh", "stretched:nx=4,ny=4,ratio=1", "--order", "2", "--diffusion", "aligned",
     "--sweep-axis", "ratio", "--sweep-values", "1,10,100", "--dof-cap", "1",
     "--workers", "2"): {
        "sweep.csv": "1b08ec43ea3091570e79d468f6d2b90065c47e938493f40249023c2918ae9673",
    },
    ("integrate", "--mesh", "structured_triangular:nx=4,ny=4", "--policy", "hrz_diagonal",
     "--scheme", "classic_rk4", "--steps", "20"): {
        "summary.json": "eaf71747d30ced9b202adff3c17f657478bbe20780be17784f4bb082ef13b216",
        "trace.csv": "704f0946a6030cd3ffe87fea356e68fac9fd0b31f7e79afef193929b6bed46fb",
    },
    TOP_MODE_2D: {
        "summary.json": "38c2ccaa4154c78e7b54afa4544a064ecc81fd7b9faf02b43aa9be4632617755",
        "trace.csv": "905c1b53e8d650ca133f2502796a5a41f7db06c98ea97a4fc5bca58357dff212",
    },
    TOP_MODE_1D: {
        "summary.json": "29cb3224581fdc9943a2ae19967e58ef4ba306c803047e6ee4458f6652bcafc7",
        "trace.csv": "4ba27163e5a1325255353153292e90013e09d1a883b143fa1eea4045d919f7f4",
    },
}


TOP_MODE_IDS = {TOP_MODE_2D: "integrate-top-mode-2d", TOP_MODE_1D: "integrate-top-mode-1d"}


@pytest.mark.parametrize("argv", OUTPUT_CONTRACT, ids=lambda argv: TOP_MODE_IDS.get(
    argv, argv[0] + ("-128" if "nx=128" in argv[2] else "")))
def test_output_files_keep_their_bytes(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert written == OUTPUT_CONTRACT[argv]


@pytest.mark.parametrize("argv", [TOP_MODE_2D, TOP_MODE_1D], ids=["2d-p2", "1d-p3"])
def test_top_mode_run_factors_once_and_runs_lanczos_forward_once(capsys, tmp_path,
                                                                 monkeypatch, argv):
    """One exact-step top-mode run factors the consistent mass once, SuperLU
    in 2D and banded Cholesky in 1D, and starts the Lanczos recurrence twice:
    the report's forward run, then the eigenvector's replay of it."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(rkstab.assembly, "symmetric_lu")
    counted(rkstab.assembly, "dpbtrf")
    counted(rkstab.bounds, "_lanczos")
    counted(spla, "splu")
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    factor = ["symmetric_lu", "splu"] if argv is TOP_MODE_2D else ["dpbtrf"]
    assert sorted(calls) == sorted(factor + ["_lanczos", "_lanczos"])
