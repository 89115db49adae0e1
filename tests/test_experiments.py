import csv
import json
import math

import pytest

from segsim.experiments import (
    SWEEP_CSV_COLUMNS,
    SWEEP_TIMING_COLUMNS,
    ConditioningTooRareError,
    SweepSpec,
    fig2_trend_test,
    lemmaA1_test,
    prop1_test,
    pu_match_test,
    run_single,
    run_sweep,
)
from segsim.grid import ConfigError, GridConfig


class TestSweep:
    def spec(self, out_dir, jobs=1, p=0.5):
        return SweepSpec(
            tau_grid=[0.4, 0.45],
            w_grid=[1],
            n_grid=[24],
            p_grid=[p],
            replicates=2,
            base_seed=7,
            jobs=jobs,
            sample_size=32,
            eps=0.25,
            out_dir=str(out_dir),
        )

    def test_degenerate_p_one_reports_zero_flips(self, tmp_path):
        spec = SweepSpec(
            tau_grid=[0.45],
            w_grid=[1],
            n_grid=[16],
            p_grid=[1.0],
            replicates=3,
            base_seed=1,
            sample_size=8,
            out_dir=str(tmp_path / "s"),
        )
        csv_path = run_sweep(spec)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == ",".join(SWEEP_CSV_COLUMNS)
        for row in rows[1:]:
            assert row.split(",")[7] == "0"  # flips column

    def test_rerun_is_byte_identical(self, tmp_path):
        c1 = run_sweep(self.spec(tmp_path / "a"))
        c2 = run_sweep(self.spec(tmp_path / "b"))
        assert c1.read_bytes() == c2.read_bytes()
        for child in sorted((tmp_path / "a" / "runs").iterdir()):
            twin = tmp_path / "b" / "runs" / child.name
            assert child.read_bytes() == twin.read_bytes()

    def test_timings_csv(self, tmp_path):
        run_sweep(self.spec(tmp_path / "a"))
        rows = list(csv.DictReader((tmp_path / "a" / "timings.csv").read_text().splitlines()))
        sweep_rows = list(csv.DictReader((tmp_path / "a" / "sweep.csv").read_text().splitlines()))
        assert list(rows[0]) == SWEEP_TIMING_COLUMNS
        assert [(r["cell"], r["replicate"]) for r in rows] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        assert [r["seed"] for r in rows] == [r["seed"] for r in sweep_rows]
        for r in rows:
            assert r["engine"] in ("c", "python")
            assert float(r["dynamics_s"]) > 0 and float(r["measure_s"]) > 0
            assert float(r["flips_per_second"]) >= 0

    def test_output_independent_of_job_count(self, tmp_path):
        c1 = run_sweep(self.spec(tmp_path / "a", jobs=1))
        c2 = run_sweep(self.spec(tmp_path / "b", jobs=2))
        assert c1.read_bytes() == c2.read_bytes()

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(
                tau_grid=[], w_grid=[1], n_grid=[16], p_grid=[0.5],
                replicates=1, base_seed=0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [("w_grid", [1.5]), ("n_grid", "24"), ("tau_grid", [True]), ("replicates", 0),
         ("jobs", 0), ("base_seed", 1.0), ("sample_size", -1), ("eps", 0.0), ("eps", "0.25"),
         ("out_dir", 3), ("p_grid", [1.5])],
    )
    def test_spec_rejects_bad_field(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field if field != "p_grid" else "p must be"):
            SweepSpec(**{**self.spec(tmp_path).to_dict(), field: value})

    def test_from_json_roundtrip(self, tmp_path):
        spec = self.spec(tmp_path / "x")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = SweepSpec.from_json(path)
        assert again == spec


class TestRunSingle:
    def test_report_summary_attached(self):
        cfg = GridConfig(n=24, w=1, tau_tilde=0.45, seed=3, allow_small=True)
        report = run_single(cfg, sample_size=16)
        assert report.region_summary is not None
        assert report.region_summary["sample_size"] >= 16

    def test_measure_can_be_skipped(self):
        cfg = GridConfig(n=24, w=1, tau_tilde=0.45, seed=3, allow_small=True)
        report = run_single(cfg, measure_regions=False)
        assert report.region_summary is None


class TestProp1:
    def test_gamma_one_boundary(self):
        # Sub-neighborhood equals the neighborhood: the deviation is K - W,
        # which stays under c*N^(1/2+eps) for every conditioned draw here.
        r = prop1_test(N=441, gamma=1.0, tau_tilde=0.45, c=2, eps=0.1,
                       samples=5_000, seed=0)
        assert r.statistics["frequency"] == 1.0

    def test_headline_parameters(self):
        r = prop1_test(N=441, gamma=0.25, tau_tilde=0.45, c=2, eps=0.1,
                       samples=10_000, seed=1)
        assert r.passed and r.statistics["frequency"] >= 0.99
        assert r.parameters["K"] == 199

    def test_frequency_trend_with_n(self):
        # c is set low enough that the deviation event has a visible tail at
        # N = 81; concentration then sharpens as N grows.
        freqs = []
        for N in (81, 441, 1681):
            r = prop1_test(N=N, gamma=0.25, tau_tilde=0.47, c=0.5, eps=0.05,
                           samples=20_000, seed=2)
            freqs.append(r.statistics["frequency"])
        assert freqs[0] <= freqs[1] <= freqs[2]
        assert freqs[2] > freqs[0]

    def test_conditioning_too_rare(self):
        with pytest.raises(ConditioningTooRareError):
            prop1_test(N=441, gamma=0.25, tau_tilde=0.2, c=2, eps=0.1,
                       samples=1_000, seed=0)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            prop1_test(N=441, gamma=0.0, tau_tilde=0.45, c=2, eps=0.1,
                       samples=10, seed=0)


class TestLemmaA1:
    def test_huge_c_saturates(self):
        N = 441
        r = lemmaA1_test(N=N, c=math.sqrt(N), eps=0.1, samples=10_000, seed=0)
        assert r.statistics["frequency"] == 1.0

    def test_headline_parameters(self):
        r = lemmaA1_test(N=441, c=2, eps=0.1, samples=100_000, seed=3)
        assert r.passed and r.statistics["frequency"] >= 0.999

    def test_fitted_constant_consistency(self):
        # With c small enough to leave a real tail, the fitted c' reproduces
        # the empirical tail through 2 exp(-c' N^(2 eps)).
        r = lemmaA1_test(N=441, c=0.8, eps=0.05, samples=50_000, seed=4)
        stats = r.statistics
        if not stats["fitted_c_prime_is_lower_bound"]:
            recon = 2 * math.exp(-stats["fitted_c_prime"] * 441 ** 0.1)
            assert recon == pytest.approx(stats["empirical_tail"], rel=1e-9)
        assert stats["empirical_tail"] <= 2 * math.exp(
            -stats["fitted_c_prime"] * 441 ** 0.1
        ) * (1 + 1e-9)

    def test_report_serialization(self):
        r = lemmaA1_test(N=81, c=2, eps=0.1, samples=1_000, seed=5)
        doc = json.loads(r.to_json())
        assert doc["test_id"] == "lemmaA1"
        assert doc["parameters"]["N"] == 81
        assert "frequency" in doc["statistics"]


class TestPuMatch:
    def test_matches_exact_probability(self):
        r = pu_match_test(n=256, w=1, tau_tilde=0.5, seed=1)
        assert r.test_id == "pu_match"
        assert r.statistics["exact_probability"] == pytest.approx(93 / 256, abs=1e-12)
        assert r.passed

    def test_degenerate_p(self):
        r = pu_match_test(n=64, w=1, tau_tilde=0.5, seed=0, p=1.0)
        assert r.statistics["empirical_fraction"] == 0.0
        assert r.statistics["exact_probability"] > 0  # the p=1/2 closed form
        assert not r.passed  # fill parameter mismatch is surfaced, not hidden


class TestFig2Trend:
    def test_report_shape_small(self):
        r = fig2_trend_test((0.36, 0.40, 0.44), n=32, w=1, replicates=2,
                            base_seed=3, sample_size=16)
        assert r.test_id == "fig2_trend"
        assert len(r.statistics["means"]) == 3
        assert 0.0 <= r.statistics["p_value"] <= 1.0
