"""Cluster bit-identity gate: columnar cores equal legacy cores.

The cluster engine's wave loop arbitrates shared FPUs per cycle; the
columnar :class:`_ColumnarCore` replays pre-lowered columns through the
*same* loop.  Every arbitration decision, contention stall and core
timing -- and therefore every :class:`ClusterReport` payload -- must be
byte-identical between ``ClusterPlatform`` and a report assembled from
the per-instruction reference loops (``simulate_cluster_timing``
without ``columns``, ``simulate_timing``, ``assemble_report_legacy``),
across topologies, applications and latency overrides.
"""

import random

import pytest

from repro.apps import APP_NAMES, make_app
from repro.cluster import ClusterConfig, ClusterPlatform, ClusterReport
from repro.cluster.engine import simulate_cluster_timing
from repro.cluster.platform import FPU_STATIC_PJ_PER_CYCLE
from repro.hardware import (
    DEFAULT_ENERGY_MODEL,
    assemble_report_legacy,
    lower_instrs,
    simulate_timing,
)

from tests.hardware.test_columnar_random import random_stream

TOPOLOGIES = ((1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 4))


def reference_run_app(app, binding, config, override=None):
    """``ClusterPlatform.run_app`` rebuilt from the reference loops."""
    programs = app.partition(config.n_cores, binding)
    results = simulate_cluster_timing(
        [program.instrs for program in programs], config, override
    )
    cores = [
        assemble_report_legacy(program, result.timing, DEFAULT_ENERGY_MODEL)
        for program, result in zip(programs, results)
    ]
    makespan = max(report.cycles for report in cores)
    if config.n_cores == 1:
        serial_cycles = makespan
    else:
        serial = app.build_program(binding)
        serial_cycles = simulate_timing(serial.instrs, override).cycles
    return ClusterReport(
        program=app.name,
        config=config,
        cores=cores,
        contention_stalls=[result.contention_stalls for result in results],
        serial_cycles=serial_cycles,
        fpu_static_pj=config.n_fpus * makespan * FPU_STATIC_PJ_PER_CYCLE,
    )


def run_both(app_name, n_cores, fpu_ratio, override=None):
    app = make_app(app_name, "tiny")
    binding = app.baseline_binding()
    config = ClusterConfig(n_cores=n_cores, fpu_ratio=fpu_ratio)
    platform = ClusterPlatform(config, fp_latency_override=override)
    columnar = platform.run_app(app, binding)
    legacy = reference_run_app(app, binding, config, override)
    return columnar, legacy


class TestClusterReportParity:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_every_app_shared_fpu(self, app_name):
        columnar, legacy = run_both(app_name, 4, 4)
        assert columnar.to_payload() == legacy.to_payload()

    @pytest.mark.parametrize("n_cores,fpu_ratio", TOPOLOGIES)
    def test_every_topology(self, n_cores, fpu_ratio):
        columnar, legacy = run_both("jacobi", n_cores, fpu_ratio)
        assert columnar.to_payload() == legacy.to_payload()
        assert columnar.contention_stalls == legacy.contention_stalls
        assert columnar.cycles == legacy.cycles

    def test_latency_override(self):
        columnar, legacy = run_both(
            "knn", 4, 4, override={"binary32": 9, "binary16": 2}
        )
        assert columnar.to_payload() == legacy.to_payload()

    def test_one_core_cluster_is_single_core(self):
        """A 1-core cluster must still equal ``VirtualPlatform.run``."""
        from repro.hardware import VirtualPlatform

        app = make_app("conv", "tiny")
        program = app.build_program(app.baseline_binding())
        cluster = ClusterPlatform(ClusterConfig(n_cores=1))
        report = cluster.run([program]).cores[0]
        single = VirtualPlatform().run(program)
        assert report.to_payload() == single.to_payload()


class TestColumnarCores:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_contend_identically(self, seed):
        rng = random.Random(1000 + seed)
        n_cores = rng.choice((2, 4, 8))
        config = ClusterConfig(
            n_cores=n_cores, fpu_ratio=rng.choice((2, 4))
        )
        streams = [
            random_stream(rng, rng.randrange(5, 200))
            for _ in range(n_cores)
        ]
        legacy = simulate_cluster_timing(streams, config)
        columnar = simulate_cluster_timing(
            streams, config, columns=[lower_instrs(s) for s in streams]
        )
        for col, leg in zip(columnar, legacy):
            assert col.timing == leg.timing
            assert col.timing.to_payload() == leg.timing.to_payload()
            assert col.contention_stalls == leg.contention_stalls

    def test_idle_core(self):
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        streams = [random_stream(random.Random(7), 50), []]
        legacy = simulate_cluster_timing(streams, config)
        columnar = simulate_cluster_timing(
            streams, config, columns=[lower_instrs(s) for s in streams]
        )
        assert columnar[1].timing == legacy[1].timing
        assert columnar[1].timing.cycles == 0
        assert columnar[0].timing == legacy[0].timing

    def test_columns_stream_count_mismatch(self):
        config = ClusterConfig(n_cores=2, fpu_ratio=2)
        streams = [[], []]
        with pytest.raises(ValueError):
            simulate_cluster_timing(
                streams, config, columns=[lower_instrs([])]
            )
