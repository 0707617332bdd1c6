"""CLI smoke tests (tiny scale, quick budgets)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "fig5", "fig6", "sweeps", "ablation", "suite", "memory", "tree"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_requires_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_budget_flag(self):
        args = build_parser().parse_args(["table1", "--budget", "0.5"])
        assert args.budget == 0.5


class TestMain:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "p_hat_300_1" in out and "vc_exact_009" in out

    def test_solve_mvc(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "hybrid"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out

    def test_solve_pvc(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "sequential", "--k", "25"]) == 0
        out = capsys.readouterr().out
        assert "EXISTS" in out or "does not exist" in out

    def test_ablation_quick(self, capsys):
        assert main(["ablation", "--scale", "tiny", "--quick"]) == 0
        assert "GlobalOnly" in capsys.readouterr().out

    def test_memory_report(self, capsys):
        assert main(["memory", "--scale", "tiny"]) == 0
        assert "Memory budget" in capsys.readouterr().out

    def test_tree_shape(self, capsys):
        assert main(["tree", "--scale", "tiny", "--graph", "p_hat_300_3",
                     "--node-budget", "2000"]) == 0
        assert "Search-tree shape" in capsys.readouterr().out

    def test_bench_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_micro.json"
        assert main(["bench", "--out", str(out), "--repeats", "1",
                     "--target-ms", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "repro-vc-microbench"
        for case in ("reduce_serial", "reduce_reference", "sequential_solver_small"):
            assert payload["results"][case]["best_s"] > 0
        prov = payload["provenance"]
        assert {"git_sha", "seeds", "python", "numpy", "platform"} <= set(prov)
        assert "reduce_serial" in capsys.readouterr().out

    def test_bench_calibrate_writes_artifact(self, capsys, tmp_path):
        import repro.core.kernels as kernels

        out = tmp_path / "CALIBRATION.json"
        before = (kernels.SCALAR_KERNEL_MAX_N, kernels.SCALAR_KERNEL_MAX_M)
        try:
            # --quick probes a tiny ladder and does NOT install the cutoffs
            assert main(["bench", "calibrate", "--quick", "--repeats", "2",
                         "--out", str(out)]) == 0
        finally:
            kernels.set_scalar_cutoffs(*before)
        payload = json.loads(out.read_text())
        assert payload["kind"] == "repro-vc-kernel-calibration"
        assert payload["schema_version"] == 2
        assert payload["quick"] is True  # toy ladder: tagged unloadable
        assert payload["bands"] and payload["default_backend"]
        assert payload["scalar_kernel_max_n"] > 0
        assert payload["scalar_kernel_max_m"] > 0
        assert payload["branch_batch_min_live"] >= 2
        assert payload["samples"]["n_ladder"] and payload["samples"]["m_ladder"]
        assert payload["samples"]["branch_live_ladder"]
        for sample in payload["samples"]["branch_live_ladder"]:
            assert sample["scalar_s"] > 0 and sample["batch_s"] > 0
        assert "calibrated cutoffs" in capsys.readouterr().out

    def test_bench_parser_accepts_action(self):
        args = build_parser().parse_args(["bench", "calibrate"])
        assert args.action == "calibrate"
        args = build_parser().parse_args(["bench"])
        assert args.action == "run"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "nonsense"])

    def test_solve_frontier_flag(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "sequential", "--frontier", "best-first",
                     "--node-budget", "4000"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out
        # frontier policies are a sequential-engine knob
        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "hybrid", "--frontier", "lifo"]) == 2
        assert "sequential" in capsys.readouterr().out

    def test_solve_unknown_frontier_lists_registry(self, capsys):
        """A typo dies with one line naming the FRONTIERS keys, no traceback."""
        from repro.core.frontier import FRONTIERS

        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "sequential", "--frontier", "bogus-policy"]) == 2
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "unknown frontier 'bogus-policy'" in lines[0]
        for name in FRONTIERS:
            assert name in lines[0]

    @pytest.mark.parametrize("argv,needle", [
        (["--engine", "cpu-process"], "unknown engine 'cpu-process'"),
        (["--engine", "sequential", "--frontier", "stealing"],
         "unknown frontier 'stealing'"),
    ])
    def test_removed_engine_and_frontier_names_fail_in_one_line(
            self, capsys, argv, needle):
        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     *argv]) == 2
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert len(lines) == 1 and needle in lines[0]

    def test_solve_unknown_engine_lists_registry(self, capsys):
        from repro.core.solver import ENGINES

        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "warp-drive"]) == 2
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "unknown engine 'warp-drive'" in lines[0]
        for name in ENGINES:
            assert name in lines[0]


class TestExperimentCLI:
    """The `repro experiment` subcommand group (docs/EXPERIMENTS.md)."""

    def test_parser_accepts_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "run", "--spec", "s.json"])
        assert args.experiment_command == "run"
        args = parser.parse_args(["experiment", "report", "rid", "--verify"])
        assert args.experiment_command == "report" and args.run_id == "rid"
        for cmd in (["experiment"], ["experiment", "nonsense"]):
            with pytest.raises(SystemExit):
                parser.parse_args(cmd)

    def test_run_requires_spec(self, capsys):
        assert main(["experiment", "run"]) == 2
        assert "--spec" in capsys.readouterr().out

    def test_bad_spec_fails_with_one_line_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "instances": ["p_hat_300_1"],
                                    "engines": ["warp9"], "scale": "tiny"}))
        assert main(["experiment", "run", "--spec", str(spec),
                     "--store", str(tmp_path / "store")]) == 2
        out = capsys.readouterr().out
        assert "unknown engine 'warp9'" in out and "choose from" in out

    def test_smoke_then_report_list_index(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["experiment", "run", "--smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "experiment smoke OK" in out
        assert "resume recomputed 0" in out

        assert main(["experiment", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "complete" in out
        run_id = next(line.split()[0] for line in out.splitlines()
                      if line.startswith("ci-smoke"))

        assert main(["experiment", "report", run_id, "--store", store,
                     "--verify", "--max-cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "verified: 2 cells" in out

        assert main(["experiment", "index", "--store", store]) == 0
        assert "indexed 1 runs" in capsys.readouterr().out

    def test_run_spec_and_resume(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-e2e", "scale": "tiny", "device": "TinySim",
            "instances": ["p_hat_300_1"], "engines": ["sequential"],
            "frontiers": ["lifo"], "instance_types": ["mvc"],
        }))
        store = str(tmp_path / "store")
        assert main(["experiment", "run", "--spec", str(spec_path),
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 skipped" in out
        run_id = next(line.split(":")[0] for line in out.splitlines()
                      if line.startswith("cli-e2e"))
        assert main(["experiment", "resume", run_id, "--store", store]) == 0
        assert "0 executed, 1 skipped" in capsys.readouterr().out

    def test_report_unknown_run_lists_known_ids(self, capsys, tmp_path):
        assert main(["experiment", "report", "nope",
                     "--store", str(tmp_path)]) == 2
        assert "no run 'nope'" in capsys.readouterr().out

    def test_table1_store_flag(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        # first run computes and persists; parser must accept --store
        assert main(["table1", "--scale", "tiny", "--quick",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "Table I" in first
        # second run renders the identical table from stored cells
        assert main(["table1", "--scale", "tiny", "--quick",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        table = lambda text: [ln for ln in text.splitlines()
                              if ln.startswith(("Table", "Graph", "p_hat", "-"))]
        assert table(first) == table(second)


class TestCalibrationAutoload:
    """REPRO_CALIBRATION: opt-in import-time cutoff installation."""

    def _quick_artifact(self, tmp_path):
        from repro.analysis.microbench import calibrate_scalar_cutoffs, write_artifact

        payload = calibrate_scalar_cutoffs(
            repeats=2, n_ladder=(16,), m_ladder=(64,), branch_ladder=(4,),
            apply=False, quick=True,
        )
        path = tmp_path / "CALIBRATION.json"
        write_artifact(payload, str(path))
        return path, payload

    def test_quick_artifact_is_refused(self, tmp_path):
        from repro.analysis.microbench import maybe_autoload_calibration

        path, _ = self._quick_artifact(tmp_path)
        with pytest.raises(ValueError, match="--quick"):
            maybe_autoload_calibration({"REPRO_CALIBRATION": str(path)})

    def test_unset_and_off_are_noops(self):
        from repro.analysis.microbench import maybe_autoload_calibration

        assert maybe_autoload_calibration({}) is None
        for off in ("", "0", "off", "no", "false", "FALSE", " Off "):
            assert maybe_autoload_calibration({"REPRO_CALIBRATION": off}) is None, off

    def test_full_artifact_installs_all_cutoffs(self, tmp_path):
        import json as json_mod

        import repro.core.kernels as kernels
        from repro.analysis.microbench import maybe_autoload_calibration
        from repro.core.kernel_backends import make_kernels

        path, payload = self._quick_artifact(tmp_path)
        full = dict(payload)
        full["quick"] = False
        full["scalar_kernel_max_n"] = 1111
        full["scalar_kernel_max_m"] = 2222
        full["branch_batch_min_live"] = 33
        path.write_text(json_mod.dumps(full))
        auto = make_kernels("auto")
        saved = (kernels.SCALAR_KERNEL_MAX_N, kernels.SCALAR_KERNEL_MAX_M,
                 kernels.BRANCH_BATCH_MIN_LIVE)
        try:
            loaded = maybe_autoload_calibration({"REPRO_CALIBRATION": str(path)})
            assert loaded is not None
            assert kernels.SCALAR_KERNEL_MAX_N == 1111
            assert kernels.SCALAR_KERNEL_MAX_M == 2222
            assert kernels.BRANCH_BATCH_MIN_LIVE == 33
            assert auto.calibrated  # v2: the band table installs too
        finally:
            kernels.set_scalar_cutoffs(saved[0], saved[1])
            kernels.set_branch_batch_cutoff(saved[2])
            auto.clear_calibration()

    def test_missing_explicit_path_raises(self):
        from repro.analysis.microbench import maybe_autoload_calibration

        with pytest.raises(OSError):
            maybe_autoload_calibration({"REPRO_CALIBRATION": "/nonexistent/CALIB.json"})
