import json
import os
import subprocess
import sys
import warnings

import pytest

import segsim
from segsim.cli import cli_main
from segsim.snapshot import snapshot_read


def run_cli(*argv):
    return cli_main(list(argv))


class TestRun:
    def test_report_snapshot_trace(self, tmp_path):
        report = tmp_path / "r.json"
        snap = tmp_path / "s.bin"
        trace = tmp_path / "t.csv"
        code = run_cli(
            "run", "--n", "24", "--w", "1", "--tau", "0.45", "--p", "0.5",
            "--seed", "3", "--allow-small", "--record-interval", "5",
            "--sample-size", "16",
            "--report-out", str(report), "--snapshot-out", str(snap),
            "--trace-out", str(trace),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["termination_reason"] == "NoEligibleAgents"
        assert doc["config"]["K"] == 5
        assert doc["provenance"]["rng_id"] == "pcg64"
        assert doc["region_summary"]["sample_size"] >= 16
        state = snapshot_read(snap.read_bytes())
        assert state.unhappy_count() == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1] == "flip_index,continuous_time,lyapunov,eligible"
        assert len(lines) > 2

    def test_identical_seeds_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = run_cli(
                "run", "--n", "24", "--w", "1", "--tau", "0.45", "--seed", "9",
                "--allow-small", "--omit-timing", "--sample-size", "8",
                "--report-out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_engines_agree_byte_for_byte(self, tmp_path, monkeypatch):
        from segsim import _kernels, dynamics

        if _kernels.run_chunk is None:
            pytest.skip(_kernels.load_error)
        engines = []
        run = dynamics.run_to_termination

        def recording(*args, **kwargs):
            report = run(*args, **kwargs)
            engines.append(report.engine)
            return report

        monkeypatch.setattr(dynamics, "run_to_termination", recording)
        outs = []
        for name, extra in (("c.json", []), ("python.json", ["--python-engine"])):
            path = tmp_path / name
            code = run_cli(
                "run", "--n", "32", "--w", "2", "--tau", "0.45", "--seed", "13",
                "--omit-timing", "--sample-size", "16", "--report-out", str(path),
                *extra,
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert engines == ["c", "python"]
        assert outs[0] == outs[1]

    def test_run_reports_engine_rate_and_init_time(self, tmp_path, monkeypatch, capsys):
        from segsim import dynamics

        reports = []
        run = dynamics.run_to_termination

        def recording(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(dynamics, "run_to_termination", recording)
        timed, untimed = tmp_path / "timed.json", tmp_path / "untimed.json"
        flags = ("run", "--n", "32", "--w", "2", "--tau", "0.45", "--seed", "13",
                 "--sample-size", "16", "--python-engine")
        assert run_cli(*flags, "--report-out", str(timed)) == 0
        line = capsys.readouterr().out.strip()
        doc = json.loads(timed.read_text())
        timings = doc["timings"]
        assert line.endswith(f"; python engine, {timings['flips_per_second']:.0f} flips/s, "
                             f"summary {timings['measure_s']:.3g} s")
        assert doc["engine"] == "python"
        assert doc["timings"]["init_s"] > 0
        assert "init_s" not in reports[0].timings  # the sweep's timings.csv columns stay
        assert run_cli(*flags, "--report-out", str(untimed), "--omit-timing") == 0
        untimed_doc = json.loads(untimed.read_text())
        assert not {"timings", "engine", "wall_clock_seconds"} & set(untimed_doc)
        canonical = json.loads(reports[1].canonical_json())
        assert untimed_doc == {**canonical, "provenance": doc["provenance"]}

    def test_config_error_exit_code(self):
        assert run_cli("run", "--n", "4", "--w", "2", "--tau", "0.45") == 2

    @pytest.mark.parametrize("flags,message", [
        (["--sample-size", "-3"], "sample_size must be >= 0, got -3"),
        (["--eps", "0.7"], "eps must be in (0, 1/2), got 0.7"),
        (["--eps", "0"], "eps must be in (0, 1/2), got 0.0"),
        (["--sample-size", "0", "--eps", "0.5"], "eps must be in (0, 1/2), got 0.5"),
    ])
    def test_bad_region_measure_exits_2_before_any_flip(self, monkeypatch, capsys, flags, message):
        from segsim import dynamics

        calls = []
        monkeypatch.setattr(dynamics, "run_to_termination", lambda *a, **k: calls.append(a))
        code = run_cli("run", "--n", "24", "--w", "1", "--tau", "0.45", "--allow-small", *flags)
        assert code == 2
        assert calls == []
        assert message in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert run_cli("run", "--bogus") == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-time", "nan", "max_continuous_time must be positive when given, got nan"),
        ("--max-time", "0", "max_continuous_time must be positive when given, got 0.0"),
        ("--max-flips", "2.5", "invalid int value: '2.5'"),
        ("--record-interval", "2.5", "invalid int value: '2.5'"),
    ])
    def test_bad_run_limit_exits_2_before_any_flip(self, monkeypatch, capsys, flag, value, message):
        from segsim import dynamics

        calls = []
        monkeypatch.setattr(dynamics, "run_to_termination", lambda *a, **k: calls.append(a))
        assert run_cli("run", "--n", "32", "--w", "2", "--tau", "0.45", flag, value) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    def test_trace_out_needs_a_positive_record_interval(self, tmp_path, monkeypatch, capsys):
        from segsim import dynamics

        calls = []
        monkeypatch.setattr(dynamics, "run_to_termination", lambda *a, **k: calls.append(a))
        trace = tmp_path / "t.csv"
        code = run_cli("run", "--n", "24", "--w", "1", "--tau", "0.45", "--allow-small",
                       "--record-interval", "0", "--trace-out", str(trace))
        assert code == 2
        assert calls == [] and not trace.exists()
        err = capsys.readouterr().err
        assert "--trace-out" in err and "--record-interval" in err


class TestSweepCommand:
    def test_sweep_runs(self, tmp_path):
        spec = {
            "tau_grid": [0.45],
            "w_grid": [1],
            "n_grid": [16],
            "p_grid": [1.0],
            "replicates": 2,
            "base_seed": 5,
            "sample_size": 8,
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        assert run_cli("sweep", "--config", str(cfg_path)) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep_spec.json").exists()

    GOOD_SPEC = {
        "tau_grid": [0.45], "w_grid": [1], "n_grid": [16], "p_grid": [0.5],
        "replicates": 1, "base_seed": 5, "sample_size": 8,
    }

    @pytest.mark.parametrize(
        "spec, message",
        [
            pytest.param([GOOD_SPEC], "JSON object, got list", id="list"),
            pytest.param({k: v for k, v in GOOD_SPEC.items() if k != "p_grid"}, "missing: p_grid",
                         id="missing-p_grid"),
            pytest.param({k: v for k, v in GOOD_SPEC.items() if k != "base_seed"},
                         "missing: base_seed", id="missing-base_seed"),
            pytest.param({**GOOD_SPEC, "taus": [0.4]}, "unknown sweep spec keys: taus", id="unknown-key"),
            pytest.param({**GOOD_SPEC, "replicates": "2"}, "replicates must be an integer >= 1",
                         id="replicates-string"),
            pytest.param({**GOOD_SPEC, "eps": 0.7}, "eps must be a number in (0, 1/2)", id="eps-too-big"),
            pytest.param({**GOOD_SPEC, "sample_size": -5}, "sample_size must be an integer >= 0",
                         id="negative-sample-size"),
            pytest.param({**GOOD_SPEC, "n_grid": [2]}, "neighborhood would wrap", id="cell-too-small"),
        ],
    )
    def test_bad_spec_exits_2_before_any_run(self, tmp_path, capsys, spec, message):
        if isinstance(spec, dict):
            spec = {**spec, "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        assert run_cli("sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_spec_exits_2(self, tmp_path, capsys):
        assert run_cli("sweep", "--config", str(tmp_path / "nonexistent.json")) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("sweep", "--config", str(bad)) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestDetect:
    def test_detect_on_generated_state(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--n", "64", "--w", "2", "--tau", "0.4", "--seed", "11",
            "--what", "radical,unhappy,expandable,firewall",
            "--eps-prime", "0.35", "--r", "8", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        kinds = [d["kind"] for d in doc["detections"]]
        assert kinds == ["radical", "unhappy", "expandable", "firewall"]
        expand = doc["detections"][2]
        assert isinstance(expand["witness"], list)

    def test_detect_blocks_and_chemical_path(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--n", "64", "--w", "1", "--tau", "0.45", "--seed", "2",
            "--what", "blocks,chemical-path", "--m", "2", "--r-blocks", "3",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["detections"][0]["dims"] == 32
        assert "found" in doc["detections"][1]

    def test_detect_regions(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--n", "32", "--w", "1", "--tau", "0.45", "--seed", "6",
            "--what", "regions", "--sample-size", "16", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        entry = doc["detections"][0]
        assert entry["kind"] == "regions"
        assert entry["mean_Mprime"] >= entry["mean_M"]
        assert entry["largest_plus"] is not None

    def test_detect_expansion(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--n", "48", "--w", "2", "--tau", "0.45", "--seed", "4",
            "--what", "expansion", "--region-radius", "5", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        entry = doc["detections"][0]
        assert entry["kind"] == "expansion"
        assert "is_region_of_expansion" in entry

    def test_detect_snapshot_input(self, tmp_path):
        snap = tmp_path / "s.bin"
        run_cli(
            "run", "--n", "24", "--w", "1", "--tau", "0.45", "--seed", "3",
            "--allow-small", "--sample-size", "0", "--snapshot-out", str(snap),
        )
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--snapshot", str(snap), "--what", "radical", "--out", str(out)
        )
        assert code == 0

    @pytest.mark.parametrize("flags,message", [
        (["--sample-size", "-3"], "sample_size must be >= 0, got -3"),
        (["--sample-size", "0", "--eps", "0.7"], "eps must be in (0, 1/2), got 0.7"),
    ])
    def test_detect_regions_rejects_bad_measure(self, capsys, flags, message):
        code = run_cli(
            "detect", "--n", "32", "--w", "1", "--tau", "0.45", "--seed", "6", "--what", "regions", *flags,
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["expandable", "radical", "unhappy"])
    @pytest.mark.parametrize("value,message", [
        ("-3", "eps_prime must be finite and >= 0, got -3.0"),
        ("nan", "eps_prime must be finite and >= 0, got nan"),
        ("inf", "eps_prime must be finite and >= 0, got inf"),
        ("10", "does not fit in an n=16 grid"),
    ])
    def test_detect_rejects_bad_eps_prime(self, capsys, what, value, message):
        code = run_cli(
            "detect", "--n", "16", "--w", "2", "--tau", "0.42", "--what", what, "--eps-prime", value,
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert message in err
        assert out == ""

    def test_detect_needs_input(self):
        assert run_cli("detect", "--what", "radical") == 2

    @pytest.mark.parametrize(
        "what,flags,message",
        [
            ("regions,bogus", [], "unknown detector 'bogus'"),
            ("regions,firewall", [], "firewall detection needs --r"),
            ("regions,expansion", [], "expansion detection needs --region-radius"),
            ("regions,chemical-path", ["--m", "2"], "chemical-path detection needs --r-blocks"),
            ("regions,blocks", ["--m", "5"], "block size 5 must be positive and divide n=32"),
        ],
    )
    def test_detect_checks_every_name_and_flag_first(self, monkeypatch, capsys, what, flags, message):
        import segsim.regions

        calls = []
        monkeypatch.setattr(segsim.regions, "compute_region_summary", lambda *a, **k: calls.append(a))
        code = run_cli(
            "detect", "--n", "32", "--w", "1", "--tau", "0.45", "--seed", "6", "--what", what, *flags,
        )
        assert code == 2
        assert calls == []
        assert message in capsys.readouterr().err

    def test_detect_renormalizes_once(self, tmp_path, monkeypatch):
        import segsim.cli

        calls = []
        original = segsim.cli.renormalize

        def spy(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(segsim.cli, "renormalize", spy)
        out = tmp_path / "d.json"
        code = run_cli(
            "detect", "--n", "64", "--w", "1", "--tau", "0.45", "--seed", "2",
            "--what", "blocks,chemical-path", "--m", "2", "--r-blocks", "3",
            "--out", str(out),
        )
        assert code == 0
        assert calls == [(2, 0.1)]
        assert [d["kind"] for d in json.loads(out.read_text())["detections"]] == [
            "blocks", "chemical-path",
        ]


class TestTheoryCommand:
    def test_f_curve(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run_cli(
            "theory", "--curve", "f", "--tau-from", "0.35", "--tau-to", "0.5",
            "--step", "0.005", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1] == "tau,value,finite_N_value"
        assert len(lines) == 33
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.5)
        assert float(last[1]) == pytest.approx(0.0, abs=1e-9)

    def test_pu_curve_requires_n(self, tmp_path):
        code = run_cli(
            "theory", "--curve", "pu", "--tau-from", "0.4", "--tau-to", "0.45",
            "--step", "0.05",
        )
        assert code == 2


class TestPercolationCommand:
    def test_chemdist_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            "percolation", "--mode", "chemdist", "--p", "0.95", "--seed", "1",
            "--samples", "3", "--dims", "40,40", "--a", "5,5", "--b", "30,30",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1] == "sample,connected,distance,l1"
        assert len(lines) == 5

    def test_circuit_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            "percolation", "--mode", "circuit", "--p", "0.95", "--seed", "1",
            "--samples", "3", "--dims", "61,61", "--r-inner", "6",
            "--r-outer", "18", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 5

    def test_fpp_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run_cli(
            "percolation", "--mode", "fpp", "--samples", "2", "--k", "30",
            "--half-width", "10", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "sample,k,passage_time"

    def test_radius_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(
            "percolation", "--mode", "radius", "--p", "0.2", "--samples", "2",
            "--dims", "30,30", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "sample,radius"
        assert len(lines) == 2 + 2 * 900


class TestStatsCommand:
    def test_lemma_a1(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli(
            "stats", "--test", "lemmaA1", "--N", "441", "--c", "2",
            "--samples", "20000", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_prop1(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli(
            "stats", "--test", "prop1", "--N", "441", "--gamma", "0.25",
            "--tau", "0.45", "--c", "2", "--samples", "5000", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0

    def test_conditioning_too_rare_is_config_error(self):
        code = run_cli(
            "stats", "--test", "prop1", "--N", "441", "--gamma", "0.25",
            "--tau", "0.2", "--c", "2", "--samples", "5000", "--seed", "2",
        )
        assert code == 2

    def test_pu_match(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli(
            "stats", "--test", "pu-match", "--n", "256", "--w", "1",
            "--tau", "0.5", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["test_id"] == "pu_match"

    def test_fig2_trend_runs(self, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli(
            "stats", "--test", "fig2-trend", "--n", "32", "--w", "1",
            "--taus", "0.38,0.40,0.42", "--replicates", "2", "--sample-size", "8",
            "--seed", "3", "--out", str(out),
        )
        doc = json.loads(out.read_text())
        assert doc["test_id"] == "fig2_trend"
        assert code in (0, 1)  # verdict-dependent exit

    def test_fig2_trend_with_equal_means_writes_strict_json(self, tmp_path, capfd):
        # n = 3 caps every region at radius 1, the whole torus, and at these
        # taus every agent starts happy: every sampled M is 1.
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning of the constant input
            code = run_cli(
                "stats", "--test", "fig2-trend", "--n", "3", "--w", "1",
                "--taus", "0.1,0.15,0.2", "--replicates", "1", "--sample-size", "8",
                "--out", str(out),
            )
        assert capfd.readouterr().err == ""

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert code == 1
        assert doc["statistics"]["means"] == [1.0, 1.0, 1.0]
        assert doc["statistics"]["spearman_rho"] is None
        assert doc["statistics"]["p_value"] == 1.0

    def test_missing_n_for_prop1(self):
        assert run_cli("stats", "--test", "prop1") == 2

    @pytest.mark.parametrize("test", ["prop1", "lemmaA1"])
    @pytest.mark.parametrize("args, message", [(["--N", "0"], "N must be >= 1"),
                                               (["--N", "441", "--samples", "0"], "samples must be >= 1")])
    def test_zero_inputs_exit_2(self, capsys, test, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("stats", "--test", test, *args) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["detect", "--snapshot", "/nonexistent-dir/missing.bin", "--what", "radical"],
    ["detect", "--n", "32", "--w", "1", "--tau", "0.45", "--what", "radical", "--center", "1"],
    ["detect", "--n", "32", "--w", "1", "--tau", "0.45", "--what", "radical", "--center", "1,2,3"],
    ["theory", "--curve", "f", "--tau-from", "0.3", "--tau-to", "0.4", "--step", "0"],
    ["theory", "--curve", "f", "--tau-from", "0.3", "--tau-to", "0.4", "--step", "-0.01"],
    ["stats", "--test", "fig2-trend", "--n", "32", "--w", "1", "--replicates", "0"],
    ["percolation", "--mode", "radius", "--p", "1.5", "--samples", "1"],
    ["percolation", "--mode", "chemdist", "--p", "-0.1", "--samples", "1"],
    ["percolation", "--mode", "chemdist", "--a", "1", "--samples", "1"],
    ["detect", "--n", "32", "--w", "1", "--tau", "0.45", "--what", "expansion",
     "--region-radius", "3", "--placements", "0"],
    ["percolation", "--mode", "radius", "--samples", "-1"],
    ["percolation", "--mode", "fpp", "--samples", "0"],
    ["theory", "--curve", "f", "--tau-from", "0.5", "--tau-to", "0.3", "--step", "0.01"],
    ["stats", "--test", "fig2-trend", "--n", "32", "--w", "1", "--taus", "0.38,0.42",
     "--replicates", "1", "--sample-size", "8"],
    ["percolation", "--mode", "fpp", "--samples", "1", "--mean", "nan"],
    ["percolation", "--mode", "fpp", "--samples", "1", "--k", "0"],
    ["percolation", "--mode", "fpp", "--samples", "1", "--k", "-3"],
    ["percolation", "--mode", "fpp", "--samples", "1", "--half-width", "-1"],
    ["run", "--n", "728", "--w", "91", "--tau", "0.45"],
], ids=["missing-snapshot", "one-coordinate-center", "three-coordinate-center", "zero-step",
        "negative-step", "zero-replicates", "p-above-1", "p-below-0", "one-coordinate-endpoint",
        "zero-placements", "negative-samples", "zero-samples", "reversed-tau-range", "two-taus",
        "nan-mean", "zero-k", "negative-k", "negative-half-width", "w-above-int16-counts"])
def test_bad_inputs_exit_2_with_a_message(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert "configuration error" in err
    if "91" in argv:
        assert "w must be <= 90" in err
    assert out == ""


@pytest.mark.parametrize("argv,code", [(["--version"], 0), (["detect", "--bogus"], 2)])
def test_module_entry_point(argv, code):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(segsim.__file__))}
    proc = subprocess.run([sys.executable, "-m", "segsim.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout.strip() == segsim.__version__
    else:
        assert "unrecognized arguments: --bogus" in proc.stderr
