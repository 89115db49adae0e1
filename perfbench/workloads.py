"""The three workloads: inputs from the seed, a timed body, checks.

Every workload calls segsim through module attributes (``grid.new_random``,
not a name imported once), so the tracer's wrappers see each call.  A
workload's ``body`` is the timed part; ``collect`` turns its raw result into
data in memory, ``digest`` into bytes that later rounds must reproduce, and
``check`` into a list of problems.  All of these run outside the timing.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
from segsim import dynamics, experiments, grid, percolation, regions, rng, snapshot, structures

import checks


# Snapshot layout: magic 4s, version u16, n/w/K u32, p f64, seed u64, payload.
SNAPSHOT_HEADER = 4 + 2 + 3 * 4 + 8 + 8


def _jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


class Workload:
    """Defaults: the raw result is the output, and nothing is left to remove."""

    def collect(self, raw):
        return raw

    def cleanup(self):
        pass


class Flagship(Workload):
    """The headline scenario as ``segsim run`` runs it: fill, flip to the
    end, then the region summary."""

    name = "flagship"
    ops_per_round = 1
    n, w, tau, p = 400, 10, 0.42, 0.5
    sample_size, eps = 1024, 0.25

    def describe(self):
        return {"n": self.n, "w": self.w, "tau": self.tau, "p": self.p,
                "sample_size": self.sample_size, "eps": self.eps, "seed": self.seed}

    def setup(self, seed, results_dir):
        self.seed = seed
        self.config = grid.GridConfig(n=self.n, w=self.w, tau_tilde=self.tau, p=self.p, seed=seed)
        # w=4 at n=128 cascades on every seed (about 8k flips); w=10 there often does not.
        warm = grid.GridConfig(n=128, w=4, tau_tilde=self.tau, p=self.p, seed=seed)
        self._run(warm)

    def _run(self, config):
        state = grid.new_random(config)
        report = dynamics.run_to_termination(
            state,
            rng.generator(config.seed, rng.STREAM_DYNAMICS),
            dynamics.RunLimits(),
            use_numba=None,
            measure=regions.RegionMeasure(sample_size=self.sample_size, eps=self.eps),
        )
        return state, report

    def body(self):
        return self._run(self.config)

    def work(self, out):
        return {"flips": out[1].flips_total,
                "report_wall_clock_seconds": out[1].wall_clock_seconds}

    def digest(self, out):
        state, report = out
        return report.canonical_json().encode() + state.types.tobytes()

    def check(self, out):
        state, report = out
        rep = report.to_dict()
        initial = checks.initial_types(self.n, self.p, self.seed)
        problems = checks.check_final_state(
            state.types, state.same_count, self.w, self.config.K, rep, initial)
        problems += checks.check_region_summary(state.types, rep["region_summary"], self.seed)
        return problems


class TrendSweep(Workload):
    """Acceptance criterion 8's grid through the sweep's process pool."""

    name = "trend-sweep"
    taus = [0.38, 0.40, 0.42]
    n, w, replicates = 256, 6, 6
    ops_per_round = len(taus) * replicates

    def describe(self):
        return {"taus": self.taus, "n": self.n, "w": self.w, "replicates": self.replicates,
                "base_seed": self.seed, "jobs": self.jobs}

    def spec(self, out_dir, **kw):
        args = dict(tau_grid=self.taus, w_grid=[self.w], n_grid=[self.n], p_grid=[0.5],
                    replicates=self.replicates, base_seed=self.seed, jobs=self.jobs,
                    sample_size=1024, eps=0.25, out_dir=str(out_dir))
        args.update(kw)
        return experiments.SweepSpec(**args)

    def setup(self, seed, results_dir):
        self.seed = seed
        self.jobs = _jobs()
        if getattr(self, "tmp", None) is None:
            Path(results_dir).mkdir(parents=True, exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=results_dir))
        self.rounds = 0
        warm = self.tmp / "warm"
        experiments.run_sweep(self.spec(warm, tau_grid=[0.40], n_grid=[64], replicates=2))
        shutil.rmtree(warm)
        experiments.run_single(grid.GridConfig(n=64, w=self.w, tau_tilde=0.40, seed=seed, allow_small=True))

    def body(self):
        self.rounds += 1
        out = self.tmp / f"round{self.rounds}"
        experiments.run_sweep(self.spec(out))
        return out

    def collect(self, out):
        csv_text = (out / "sweep.csv").read_text()
        runs = {}
        for ci in range(len(self.taus)):
            for rep in range(self.replicates):
                runs[(ci, rep)] = (out / "runs" / f"cell{ci:04d}_rep{rep:03d}.json").read_text()
        spec = json.loads((out / "sweep_spec.json").read_text())
        del spec["out_dir"]  # differs from round to round
        shutil.rmtree(out)
        return csv_text, runs, spec

    def work(self, out):
        flips = [json.loads(r)["flips_total"] for r in out[1].values()]
        return {"flips": sum(flips), "runs": len(flips)}

    def digest(self, out):
        csv_text, runs, spec = out
        return (csv_text + "".join(runs[k] for k in sorted(runs)) + json.dumps(spec)).encode()

    def run_config(self, ci, rep):
        return grid.GridConfig(n=self.n, w=self.w, tau_tilde=self.taus[ci], p=0.5,
                               seed=checks.run_seed(self.seed, ci, rep), allow_small=True)

    def replay(self, ci, rep):
        return experiments.run_single(self.run_config(ci, rep), sample_size=1024, eps=0.25)

    def check(self, out):
        csv_text, runs, spec = out
        problems = checks.check_sweep(csv_text, runs, self.taus, self.w, self.replicates, self.seed)
        if spec["base_seed"] != self.seed or spec["jobs"] != self.jobs:
            problems.append("sweep_spec.json does not record the spec that ran")
        # One run replayed in-process: the result must not depend on the pool.
        ci, rep = self.seed % len(self.taus), self.seed % self.replicates
        if self.replay(ci, rep).canonical_json() != runs[(ci, rep)]:
            problems.append(f"in-process replay of cell {ci} rep {rep} differs from the pool's report")
        return problems

    def replay_all(self, out):
        """Every run of the sweep, serially in this process (traced runs only)."""
        _, runs, _ = out
        problems = []
        for ci, rep in sorted(runs):
            if self.replay(ci, rep).canonical_json() != runs[(ci, rep)]:
                problems.append(f"in-process replay of cell {ci} rep {rep} differs from the pool's report")
        return problems

    def cleanup(self):
        if getattr(self, "tmp", None) is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


class PercolationBlocks(Workload):
    """Percolation samplers and block detectors on fresh random inputs."""

    name = "percolation-blocks"
    chem_dims, chem_p, chem_a, chem_b, chem_samples = (241, 241), 0.95, (20, 120), (120, 20), 8
    cluster_dims, cluster_p, cluster_origins = (500, 500), 0.2, 256
    fpp_k, fpp_half_width, fpp_samples = 400, 60, 10
    state_n, state_w, state_tau, states = 512, 2, 0.42, 2
    block_m, block_eps, r_blocks, paths_per_state = 8, 0.05, 3, 4
    eps_prime, radical_eps, probes_per_state = 0.35, 0.1, 16
    ops_per_round = (chem_samples + 1 + fpp_samples
                     + states * (3 + paths_per_state + probes_per_state))

    def describe(self):
        return {k: getattr(self, k) for k in (
            "chem_dims", "chem_p", "chem_a", "chem_b", "chem_samples", "cluster_dims",
            "cluster_p", "cluster_origins", "fpp_k", "fpp_half_width", "fpp_samples",
            "state_n", "state_w", "state_tau", "states", "block_m", "block_eps", "r_blocks",
            "paths_per_state", "eps_prime", "radical_eps", "probes_per_state", "seed")}

    def setup(self, seed, results_dir):
        self.seed = seed
        gen = checks.pcg(seed, 1000)
        self.chem = [percolation.SiteLattice(open=gen.random(self.chem_dims) < self.chem_p,
                                             p=self.chem_p, seed=seed)
                     for _ in range(self.chem_samples)]
        self.cluster = percolation.SiteLattice(
            open=gen.random(self.cluster_dims) < self.cluster_p, p=self.cluster_p, seed=seed)
        h, w = self.cluster_dims
        self.origins = list(zip(gen.integers(0, h, self.cluster_origins).tolist(),
                                gen.integers(0, w, self.cluster_origins).tolist()))
        n, d = self.state_n, self.state_n // self.block_m
        self.blobs, self.path_centers, self.probe_centers = [], [], []
        for i in range(self.states):
            cfg = grid.GridConfig(n=n, w=self.state_w, tau_tilde=self.state_tau, p=0.5,
                                  seed=int(gen.integers(0, 2**63)))
            self.blobs.append(snapshot.snapshot_write(grid.new_random(cfg)))
            self.path_centers.append([tuple(x) for x in gen.integers(0, d, (self.paths_per_state, 2)).tolist()])
            self.probe_centers.append([tuple(x) for x in gen.integers(0, n, (self.probes_per_state, 2)).tolist()])
        self._warm_up()

    def _warm_up(self):
        small = percolation.SiteLattice(open=np.ones((41, 41), dtype=bool), p=1.0)
        percolation.chemical_distance(small, (0, 0), (40, 40))
        percolation.cluster_radii(small)
        percolation.fpp_time_to_distance(20, 5, 1.0, self.seed, key=(self.fpp_samples,))
        st = snapshot.snapshot_read(snapshot.snapshot_write(
            grid.new_random(grid.GridConfig(n=64, w=self.state_w, tau_tilde=self.state_tau, seed=self.seed))))
        blocks = structures.renormalize(st, self.block_m, self.block_eps)
        structures.find_chemical_path(blocks, (4, 4), 1)
        structures.bad_cluster_radii(blocks)
        structures.is_expandable(st, structures.RadicalSpec((32, 32), self.eps_prime, self.radical_eps))

    def body(self):
        chem = [percolation.chemical_distance(lat, self.chem_a, self.chem_b) for lat in self.chem]
        radii = percolation.cluster_radii(self.cluster)
        fpp = [percolation.fpp_time_to_distance(self.fpp_k, self.fpp_half_width, 1.0, self.seed, key=(i,))
               for i in range(self.fpp_samples)]
        detected = []
        for blob, centers, probes in zip(self.blobs, self.path_centers, self.probe_centers):
            state = snapshot.snapshot_read(blob)
            blocks = structures.renormalize(state, self.block_m, self.block_eps)
            paths = [structures.find_chemical_path(blocks, c, self.r_blocks) for c in centers]
            bad = structures.bad_cluster_radii(blocks)
            probes_out = [structures.is_expandable(
                state, structures.RadicalSpec(c, self.eps_prime, self.radical_eps)) for c in probes]
            detected.append((state, blocks, paths, bad, probes_out))
        return chem, radii, fpp, detected

    def work(self, out):
        detected = out[3]
        return {"cascade_flips": sum(r.flips_used for d in detected for r in d[4]),
                "chemical_paths_found": sum(p is not None for d in detected for p in d[2])}

    def digest(self, out):
        chem, radii, fpp, detected = out
        parts = [repr(chem), radii.tobytes(), repr(fpp)]
        for state, blocks, paths, bad, probes in detected:
            parts += [state.types.tobytes(), blocks.labels.tobytes(), repr(bad),
                      repr([None if p is None else (p.cycle, p.path) for p in paths]),
                      repr([(r.flipped, r.target_made_monochromatic) for r in probes])]
        return b"".join(x if isinstance(x, bytes) else x.encode() for x in parts)

    def check(self, out):
        chem, radii, fpp, detected = out
        problems = []
        for lat, got in zip(self.chem, chem):
            problems += checks.check_chemical_distance(lat.open, self.chem_a, self.chem_b, got)
        problems += checks.check_cluster_radii(self.cluster.open, radii, self.origins)
        for i, t in enumerate(fpp):
            weights = checks.fpp_weights(self.fpp_k, self.fpp_half_width, 1.0, self.seed, (i,))
            problems += checks.check_passage_time(weights, self.fpp_half_width, t)
        w, core = self.state_w, (self.state_w + 1) // 2
        for (state, blocks, paths, bad, probes), blob, centers, probe_centers in zip(
                detected, self.blobs, self.path_centers, self.probe_centers):
            payload = np.frombuffer(blob, np.uint8, self.state_n ** 2, SNAPSHOT_HEADER)
            types = np.where(payload > 0, 1, -1)
            types = types.reshape(self.state_n, self.state_n).astype(np.int8)
            if not np.array_equal(types, state.types):
                problems.append("snapshot_read does not return the written types")
            problems += checks.check_blocks(blocks.labels, types, w, self.block_m, self.block_eps)
            own = checks.good_blocks(types, w, self.block_m, self.block_eps)
            for c, found in zip(centers, paths):
                problems += checks.check_chemical_path(found, own, c)
            problems += checks.check_bad_clusters(own, bad)
            K = checks.threshold(self.state_tau, (2 * w + 1) ** 2)
            radius = int(np.floor((1 + self.eps_prime) * w + 0.5))
            for c, res in zip(probe_centers, probes):
                problems += checks.check_expansion_witness(types, w, K, c, radius, res, core)
        return problems


WORKLOADS = {cls.name: cls for cls in (Flagship, TrendSweep, PercolationBlocks)}
