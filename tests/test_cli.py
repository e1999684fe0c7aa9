"""Command line interface: subcommands, config precedence, exit codes."""

import argparse
import logging
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gtvdenoise import cli, solver
from gtvdenoise.cli import (
    EXIT_IO,
    EXIT_OK,
    build_params,
    effective_config_text,
    main,
    parse_config_file,
)
from gtvdenoise.cloud import NoiseSpec, PointCloud, add_gaussian_noise, load_cloud, save_cloud
from gtvdenoise.errors import (
    AdmmDivergenceError,
    CloudFormatError,
    ConfigError,
    DegenerateCloudError,
    GtvDenoiseError,
    MissingLinearizationError,
    UsageError,
)
from gtvdenoise.solver import DenoiseParams
from gtvdenoise.synthetic import sphere_with_spacing


@pytest.fixture
def plane_file(tmp_path):
    """Small jittered flat cloud on disk."""
    rng = np.random.default_rng(0)
    pts = np.zeros((64, 3))
    xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
    pts[:, 0] = xs.ravel()
    pts[:, 1] = ys.ravel()
    pts[:, :2] += rng.uniform(-0.1, 0.1, size=(64, 2))
    path = tmp_path / "plane.xyz"
    save_cloud(PointCloud(pts), str(path))
    return path


class TestConfigParsing:
    def test_values_comments_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\ngamma = 0.2\n\nk=5  # trailing\n")
        assert parse_config_file(str(cfg)) == {"gamma": "0.2", "k": "5"}

    def test_missing_equals_reports_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gamma = 0.2\nbroken line\n")
        with pytest.raises(ConfigError, match=r":2:"):
            parse_config_file(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/path.cfg")

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gamma = 0.2\nrho = 7.0\n")
        ns = argparse.Namespace(gamma=0.3)  # flag set, rho only in file
        params, extra = build_params(str(cfg), ns)
        assert params.gamma == 0.3      # flag wins
        assert params.rho == 7.0        # file wins over default
        assert params.k == 8            # default
        assert extra == {}

    # These keys were solver parameters. None is a field or a flag any more;
    # older echoes that set them still load, and echo them back.
    REMOVED = ("t", "prox_tol", "prox_max_iter", "cg_tol", "cg_max_iter", "outer_tol",
               "recompute_bipartition", "start_node", "view_hops", "delta")

    def test_unknown_keys_returned_as_extra(self, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("sigma = 0.1\n" + "".join(f"{key} = 3\n" for key in self.REMOVED))
        params, extra = build_params(str(cfg), argparse.Namespace())
        assert params == DenoiseParams()
        assert extra == {"sigma": "0.1", **dict.fromkeys(self.REMOVED, "3")}
        echo = effective_config_text({**params.as_dict(), **extra})
        for key in self.REMOVED:
            assert f"\n{key} = 3\n" in echo, key

    def test_no_removed_knobs(self, capsys):
        solver_fields = [f.name for f in fields(DenoiseParams)]
        assert len(solver_fields) == 9
        helps = {}
        for command in ("noise", "denoise", "inspect", "bench"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = capsys.readouterr().out

        def offers(text, key):
            return re.search("--" + key.replace("_", "-") + r"(?![\w-])", text) is not None

        # each subcommand offers the solver flags it reads
        takes = {"noise": set(), "inspect": {"k", "sigma_p", "collinearity_tol"}}
        offered = {command: {name for name in solver_fields if offers(text, name)}
                   for command, text in helps.items()}
        for command in helps:
            assert offered[command] == takes.get(command, set(solver_fields)), command
        assert sum(len(names) for names in offered.values()) == 21
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        older = readme.split("older echoes", 1)[1].split(".", 1)[0]
        for key in self.REMOVED:
            assert key not in solver_fields
            assert not any(offers(text, key) for text in helps.values()), key
            assert f"`{key}`" in older, key

    def test_invalid_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gamma = banana\n")
        with pytest.raises(ConfigError):
            build_params(str(cfg), argparse.Namespace())


class TestNoiseCommand:
    def test_writes_cloud_and_echo(self, plane_file, tmp_path, capsys):
        out = tmp_path / "noisy.xyz"
        code = main(["-q", "noise", str(plane_file), str(out), "--sigma", "0.1",
                     "--seed", "4"])
        assert code == EXIT_OK
        assert out.exists()
        printed = capsys.readouterr().out
        assert printed.startswith("noise std per axis:")
        echo = (tmp_path / "noisy.xyz.config").read_text()
        assert "sigma = 0.1" in echo and "seed = 4" in echo

    def test_echo_rerun_reproduces_bytes(self, plane_file, tmp_path):
        out1 = tmp_path / "n1.xyz"
        out2 = tmp_path / "n2.xyz"
        assert main(["-q", "noise", str(plane_file), str(out1),
                     "--sigma", "0.05"]) == EXIT_OK
        assert main(["-q", "noise", str(plane_file), str(out2),
                     "--config", str(tmp_path / "n1.xyz.config")]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_config_solver_keys_are_echoed_unread(self, plane_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = -5\nk = 3\nsigma = 0.05\n")
        out = tmp_path / "noisy.xyz"
        assert main(["-q", "noise", str(plane_file), str(out), "--config", str(cfg)]) == EXIT_OK
        echo = (tmp_path / "noisy.xyz.config").read_text().splitlines()[1:]
        assert echo == ["gamma = -5", "k = 3", "sigma = 0.05", "seed = 0"]

    def test_sigma_required(self, plane_file, tmp_path):
        code = main(["-q", "noise", str(plane_file), str(tmp_path / "o.xyz")])
        assert code == UsageError.exit_code

    def test_achieved_std(self, plane_file, tmp_path):
        out = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(out), "--sigma", "0.1"])
        clean = load_cloud(str(plane_file))
        noisy = load_cloud(str(out))
        delta = noisy.positions - clean.positions
        assert 0.05 < delta.std() < 0.2  # 64 points, loose band


class TestDenoiseCommand:
    def test_end_to_end(self, plane_file, tmp_path):
        noisy = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(noisy), "--sigma", "0.05"])
        out = tmp_path / "denoised.xyz"
        code = main(["-q", "denoise", str(noisy), str(out),
                     "--outer-max-iter", "2", "--admm-max-iter", "100",
                     "--admm-tol", "1e-3", "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        assert out.exists()
        assert (tmp_path / "denoised.xyz.diag").exists()
        echo = (tmp_path / "denoised.xyz.config").read_text()
        assert "outer_max_iter = 2" in echo
        # roughness actually drops
        z = lambda p: np.sqrt(np.mean(load_cloud(str(p)).positions[:, 2] ** 2))
        assert z(out) < z(noisy)

    def test_custom_diagnostics_path(self, plane_file, tmp_path):
        noisy = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(noisy), "--sigma", "0.05"])
        diag = tmp_path / "custom.diag"
        code = main(["-q", "denoise", str(noisy), str(tmp_path / "d.xyz"),
                     "--diagnostics", str(diag),
                     "--outer-max-iter", "1", "--admm-max-iter", "20",
                     "--admm-tol", "1e-2", "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        assert diag.read_text().startswith("# denoise diagnostics")

    def test_verbose_run_logs_the_stage_breakdown_once(self, plane_file, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="gtvdenoise")
        code = main(["-v", "denoise", str(plane_file), str(tmp_path / "v.xyz"),
                     "--outer-max-iter", "1", "--admm-max-iter", "20",
                     "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        lines = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.DEBUG and r.getMessage().startswith("stage seconds")]
        assert len(lines) == 1
        for stage in ("graph", "bipartition", "normals", "admm"):
            assert f"{stage} " in lines[0]
        text = (tmp_path / "v.xyz.diag").read_text()
        levels = int(text.split("\nbipartition_levels: ")[1].split("\n")[0])
        assert lines[0].endswith(f"bipartition levels {levels}")

    def test_windowed_run_logs_window_count_and_redundancy(self, plane_file, tmp_path,
                                                           caplog):
        caplog.set_level(logging.INFO, logger="gtvdenoise")
        code = main(["denoise", str(plane_file), str(tmp_path / "w.xyz"),
                     "--window-budget", "50", "--outer-max-iter", "1",
                     "--admm-max-iter", "20", "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        info = [r.getMessage() for r in caplog.records
                if r.levelno == logging.INFO and "windows" in r.getMessage()]
        assert len(info) == 1
        meta = (tmp_path / "w.xyz.diag").read_text()
        windows = int(meta.split("\nwindows: ")[1].split("\n")[0])
        assert info[0].startswith(f"solved in {windows} windows")
        assert "solves per point" in info[0]
        # the oversized windows leave through the .diag and one WARNING line
        oversized = int(meta.split("\nwindows_oversized: ")[1].split("\n")[0])
        assert oversized > 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
                    and "window" in r.getMessage()]
        assert warnings == [f"{oversized} of {windows} windows exceed window_budget=50 "
                            "and were solved oversized"]

    def test_passes_stopped_at_the_cap_are_counted_and_warned(self, plane_file,
                                                              tmp_path, caplog):
        noisy = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(noisy), "--sigma", "0.05"])
        caplog.set_level(logging.INFO, logger="gtvdenoise")
        out = tmp_path / "capped.xyz"
        code = main(["denoise", str(noisy), str(out), "--outer-max-iter", "1",
                     "--admm-max-iter", "3", "--admm-tol", "1e-12",
                     "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        diag = (tmp_path / "capped.xyz.diag").read_text()
        assert "\npasses_at_cap: 2\n" in diag
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["2 passes stopped at admm_max_iter=3 with primal residual "
                            "above admm_tol=1e-12"]

        code = main(["denoise", str(noisy), str(out), "--outer-max-iter", "1",
                     "--admm-max-iter", "3", "--admm-tol", "10",
                     "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        assert "\npasses_at_cap: 0\n" in (tmp_path / "capped.xyz.diag").read_text()
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1

    def test_cg_work_and_steps_at_the_cap_are_counted_and_warned(self, plane_file,
                                                                  tmp_path, caplog,
                                                                  monkeypatch):
        noisy = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(noisy), "--sigma", "0.05"])
        caplog.set_level(logging.INFO, logger="gtvdenoise")
        out = tmp_path / "cg.xyz"
        base = ["denoise", str(noisy), str(out), "--outer-max-iter", "1",
                "--admm-max-iter", "4", "--admm-tol", "1e-12", "--collinearity-tol", "0.05"]

        def meta(key):
            text = (tmp_path / "cg.xyz.diag").read_text()
            return int(text.split(f"\n{key}: ")[1].split("\n")[0])

        def cg_warnings():
            return [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING and "position steps" in r.getMessage()]

        assert main(base) == EXIT_OK
        assert meta("cg_iterations") > 0 and meta("cg_steps_at_cap") == 0
        assert cg_warnings() == []

        from gtvdenoise import solver

        monkeypatch.setattr(solver, "CG_MAX_ITER", 1)
        assert main(base) == EXIT_OK
        # each pass's first p-step starts at its solution and takes no
        # iteration; every step that stops at the cap took its one iteration
        at_cap = meta("cg_steps_at_cap")
        assert 0 < at_cap <= meta("cg_iterations")
        assert cg_warnings() == [f"{at_cap} position steps stopped at the CG iteration "
                                 "cap short of their residual target"]

    def test_too_few_points_degenerate_exit(self, tmp_path):
        path = tmp_path / "tiny.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        code = main(["-q", "denoise", str(path), str(tmp_path / "o.xyz")])
        assert code == DegenerateCloudError.exit_code


class TestEvalCommand:
    def test_table_and_csv(self, plane_file, tmp_path, capsys):
        noisy = tmp_path / "noisy.xyz"
        main(["-q", "noise", str(plane_file), str(noisy), "--sigma", "0.1"])
        capsys.readouterr()
        code = main(["-q", "eval", str(plane_file), str(noisy),
                     "--model", "plane", "--sigma", "0.1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "c2c mean distance" in out
        assert "model,sigma,c2c_unsq,c2c_sq,c2p,runtime_s" in out
        row = out.strip().splitlines()[-1]
        assert row.startswith("plane,0.1,")

    def test_model_defaults_to_test_stem(self, plane_file, tmp_path, capsys):
        code = main(["-q", "eval", str(plane_file), str(plane_file)])
        assert code == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert row.startswith("plane,0,")

    def test_takes_no_config(self, plane_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["-q", "eval", str(plane_file), str(plane_file),
                  "--config", str(tmp_path / "absent.cfg")])
        assert exc.value.code == UsageError.exit_code

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_usage(self, plane_file, capsys, caplog, k):
        code = main(["-q", "eval", str(plane_file), str(plane_file), "--k", k])
        assert code == UsageError.exit_code
        assert capsys.readouterr().out == ""
        assert [r.levelno for r in caplog.records] == [logging.ERROR]


class TestInspectCommand:
    def test_graph_lines(self, plane_file, capsys):
        code = main(["-q", "inspect", str(plane_file), "graph"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        i, j, w = lines[0].split()
        assert int(i) < int(j) and 0 < float(w) <= 1

    def test_graph_builds_no_bipartition(self, plane_file, capsys, monkeypatch):
        assert main(["-q", "inspect", str(plane_file), "graph"]) == EXIT_OK
        expect = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("inspect graph built a bipartition")

        for module in (solver, cli):
            monkeypatch.setattr(module, "approximate_bipartite", refuse)
        assert main(["-q", "inspect", str(plane_file), "graph"]) == EXIT_OK
        assert capsys.readouterr().out == expect

    def test_bipartition_lines(self, plane_file, capsys):
        code = main(["-q", "inspect", str(plane_file), "bipartition"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 64
        classes = {line.split()[1] for line in lines}
        assert classes == {"red", "blue"}

    def test_normals_to_file(self, plane_file, tmp_path):
        out = tmp_path / "normals.txt"
        code = main(["-q", "inspect", str(plane_file), "normals",
                     "--which", "blue", "--output", str(out),
                     "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        first = out.read_text().splitlines()[0].split()
        assert len(first) == 7
        # flat cloud: normals along +-z
        assert abs(float(first[3])) == pytest.approx(1.0, abs=1e-6)

    def test_normals_do_not_depend_on_where_the_cloud_sits(self, tmp_path):
        # inspect works on centred coordinates, as denoise does: far from the
        # origin the normals would otherwise carry its rounding error
        cloud = add_gaussian_noise(sphere_with_spacing(200, 1.0), NoiseSpec(0.1, 1))
        normals = []
        for name, shift in (("near", 0.0), ("far", np.array([1e5, -1e5, 1e5]))):
            path, out = tmp_path / f"{name}.xyz", tmp_path / f"{name}.txt"
            save_cloud(PointCloud(cloud.positions + shift), str(path))
            assert main(["-q", "inspect", str(path), "normals", "--output", str(out)]) == EXIT_OK
            normals.append(np.loadtxt(out))
        near, far = normals
        np.testing.assert_array_equal(near[:, [0, 4, 5, 6]], far[:, [0, 4, 5, 6]])
        np.testing.assert_allclose(far[:, 1:4], near[:, 1:4], rtol=0, atol=1e-8)

    def test_reads_only_its_settings_from_a_config(self, plane_file, tmp_path, capsys):
        # a run config shared with denoise may hold keys inspect never reads
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = -5\nrho = 0\n")
        for what in ("bipartition", "normals"):
            assert main(["-q", "inspect", str(plane_file), what]) == EXIT_OK
            expect = capsys.readouterr().out
            assert main(["-q", "inspect", str(plane_file), what,
                         "--config", str(cfg)]) == EXIT_OK
            assert capsys.readouterr().out == expect
        # and still reads its own
        assert main(["-q", "inspect", str(plane_file), "graph"]) == EXIT_OK
        expect = capsys.readouterr().out
        cfg.write_text("gamma = -5\nk = 4\n")
        assert main(["-q", "inspect", str(plane_file), "graph", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out != expect

    def test_cloud_with_at_most_k_points(self, plane_file, tmp_path, capsys):
        path = tmp_path / "six.xyz"
        save_cloud(PointCloud(load_cloud(str(plane_file)).positions[[0, 1, 2, 8, 9, 17]]),
                   str(path))
        for what in ("graph", "bipartition", "normals"):
            assert main(["-q", "inspect", str(path), what]) == EXIT_OK
            assert capsys.readouterr().out


class TestBenchCommand:
    def test_single_model_run(self, plane_file, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = main(["-q", "bench", str(plane_file.parent),
                     "--sigmas", "0.05", "--output-dir", str(out_dir),
                     "--outer-max-iter", "1", "--admm-max-iter", "30",
                     "--admm-tol", "1e-2", "--collinearity-tol", "0.05"])
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "c2c noisy" in table and "plane" in table
        csv = (out_dir / "bench.csv").read_text().splitlines()
        assert csv[0] == "model,sigma,seed,c2c_noisy,c2c_denoised,c2p_noisy,c2p_denoised"
        assert csv[1].startswith("plane,0.05,0,")
        assert (out_dir / "plane_s0.05_noisy.xyz").exists()
        assert (out_dir / "plane_s0.05_denoised.xyz").exists()
        assert (out_dir / "plane_s0.05.diag").exists()
        assert (out_dir / "bench.config").exists()

    def test_echo_rerun_reproduces_the_csv(self, plane_file, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["-q", "bench", str(plane_file.parent), "--sigmas", "0.3", "--seed", "1",
                     "--output-dir", str(first), "--outer-max-iter", "1",
                     "--admm-max-iter", "30", "--collinearity-tol", "0.05"]) == EXIT_OK
        echo = parse_config_file(str(first / "bench.config"))
        assert (echo["sigmas"], echo["seed"], echo["gamma"]) == ("0.3", "1", "0.05")
        assert main(["-q", "bench", str(plane_file.parent), "--config",
                     str(first / "bench.config"), "--output-dir", str(second)]) == EXIT_OK
        assert (first / "bench.csv").read_bytes() == (second / "bench.csv").read_bytes()
        assert (second / "bench.csv").read_text().splitlines()[1].startswith("plane,0.3,1,")

    def test_scores_do_not_depend_on_the_solver_k(self, plane_file, tmp_path):
        # the noisy cloud is scored with eval's neighbourhood, whatever the graph's k
        noisy_columns = []
        for k in ("4", "8"):
            out = tmp_path / f"k{k}"
            assert main(["-q", "bench", str(plane_file.parent), "--sigmas", "0.05",
                         "--output-dir", str(out), "--outer-max-iter", "1",
                         "--admm-max-iter", "30", "--collinearity-tol", "0.05",
                         "--k", k]) == EXIT_OK
            row = (out / "bench.csv").read_text().splitlines()[1].split(",")
            noisy_columns.append((row[3], row[5]))  # c2c_noisy, c2p_noisy
        assert noisy_columns[0] == noisy_columns[1]

    def test_empty_model_dir_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["-q", "bench", str(empty)])
        assert code == UsageError.exit_code


class TestExitCodes:
    def test_missing_input_io(self, tmp_path):
        code = main(["-q", "denoise", str(tmp_path / "absent.xyz"),
                     str(tmp_path / "o.xyz")])
        assert code == EXIT_IO

    def test_malformed_cloud_parse(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2 3\nnot numbers here\n")
        code = main(["-q", "denoise", str(bad), str(tmp_path / "o.xyz")])
        assert code == CloudFormatError.exit_code

    def test_malformed_ply_header_exits_with_parse_code(self, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\nend_header\n")
        code = main(["-q", "denoise", str(bad), str(tmp_path / "o.xyz")])
        assert code == CloudFormatError.exit_code

    @pytest.mark.parametrize("error, code", [
        (GtvDenoiseError("failed"), 2), (UsageError("bad arguments"), 2),
        (ConfigError("bad value"), 2), (MissingLinearizationError(3), 2),
        (CloudFormatError("bad file"), 4), (AdmmDivergenceError("diverged"), 5),
        (DegenerateCloudError("too few points"), 6),
    ], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value))
    def test_each_error_class_exits_with_its_documented_code(self, plane_file, tmp_path,
                                                             caplog, monkeypatch, error, code):
        def failing_load(*args):
            raise error

        monkeypatch.setattr(cli, "load_cloud", failing_load)
        assert main(["-q", "denoise", str(plane_file), str(tmp_path / "o.xyz")]) == code
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.ERROR, str(error))]

    def test_solver_divergence_exits_with_one_error_line(self, tmp_path, caplog,
                                                         monkeypatch):
        # A position step that overflows stops the solve before its m-step.
        from gtvdenoise import solver

        def overflowing_p_update(*args, **kwargs):
            p, info = p_update(*args, **kwargs)
            p[4] = np.inf
            return p, info

        p_update = solver.p_update
        monkeypatch.setattr(solver, "p_update", overflowing_p_update)
        rng = np.random.default_rng(0)
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0), indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(144)])
        path = tmp_path / "plane12.xyz"
        save_cloud(PointCloud(pts + 0.05 * rng.standard_normal(pts.shape)), str(path))
        code = main(["-q", "denoise", str(path), str(tmp_path / "o.xyz")])
        assert code == AdmmDivergenceError.exit_code
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "non-finite" in errors[0].getMessage()

    @pytest.mark.parametrize("flag", [
        ["--rho", "nan"], ["--gamma", "nan"], ["--admm-tol", "nan"],
        ["--sigma-p", "inf"], ["--collinearity-tol", "-1"],
    ], ids=" ".join)
    def test_out_of_range_parameters_usage(self, plane_file, tmp_path, caplog, flag):
        pts = load_cloud(str(plane_file)).positions[:40]
        path = tmp_path / "c40.xyz"
        save_cloud(PointCloud(pts), str(path))
        code = main(["-q", "denoise", str(path), str(tmp_path / "o.xyz"), *flag])
        assert code == ConfigError.exit_code
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("args", [
        ["noise", "--sigma", "-0.1"], ["noise", "--sigma", "0.1", "--seed", "-1"],
        ["noise", "--sigma", "nan"], ["noise", "--sigma", "inf"],
        ["bench", "--sigmas", "abc"], ["bench", "--sigmas", "-0.1"], ["bench", "--seed", "-1"],
    ], ids=" ".join)
    def test_bad_noise_usage(self, plane_file, tmp_path, caplog, args):
        command, *flags = args
        out = tmp_path / "out"
        paths = ([str(plane_file), str(out)] if command == "noise"
                 else [str(tmp_path), "--output-dir", str(out)])
        assert main(["-q", command, *paths, *flags]) == UsageError.exit_code
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plane.xyz"]

    def test_bad_config_usage(self, plane_file, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("gamma = -5\n")
        code = main(["-q", "denoise", str(plane_file), str(tmp_path / "o.xyz"),
                     "--config", str(cfg)])
        assert code == ConfigError.exit_code
