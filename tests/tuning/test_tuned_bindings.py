"""Tuned bindings meet their target and respect static certificates.

Every strategy answers its meets-target probes with a real evaluation
(``DistributedSearch._meets`` is ``evaluate(...) >= target``).  These
tests pin what that guarantees from the outside: a tuned binding meets
the SQNR target when a fresh search re-evaluates it on every input, and
no strategy ever selects a format that static range analysis certifies
as infeasible (certain overflow) for a variable.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.core import FlexFloatArray
from repro.tuning import (
    V2,
    DistributedSearch,
    TuningProblem,
    VarSpec,
    resolve_strategy,
)

PRECISION = 1e-1
STRATEGIES = ("greedy", "bisect", "cast_aware")


class TestTunedBindingMeetsTarget:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("app", ("conv", "knn"))
    def test_fresh_evaluation_meets_target(self, app, strategy):
        problem = TuningProblem.for_precision(
            make_app(app, "tiny"), V2, PRECISION
        )
        report = resolve_strategy(strategy).solve(problem)
        fresh = DistributedSearch(problem.program, V2, problem.target_db)
        for input_id in problem.resolved_input_ids():
            achieved = fresh.evaluate(report.result.precision, input_id)
            assert achieved >= problem.target_db, (
                f"{app}/{strategy}: input {input_id} reaches "
                f"{achieved:.1f} dB, under {problem.target_db:.1f} dB"
            )


class BigScale:
    """Synthetic program whose narrow formats certainly overflow."""

    name = "bigscale"
    num_inputs = 1

    def variables(self):
        return [VarSpec("w", 4), VarSpec("y", 4)]

    def run(self, binding, input_id=0):
        w = FlexFloatArray(
            np.array([1e30, 2e30, -1e30, 3e30]), binding["w"]
        )
        y = (w * 0.5).cast(binding["y"])
        return y.to_numpy()


class TestCertifiedInfeasibleNeverSelected:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_final_binding_avoids_certified_formats(self, strategy):
        problem = TuningProblem.for_precision(BigScale(), V2, PRECISION)
        static = problem.static_report()
        assert any(
            static.infeasible_formats(spec.name)
            for spec in problem.program.variables()
        )
        report = resolve_strategy(strategy).solve(problem)
        binding = report.result.storage_binding(V2)
        for name, fmt in binding.items():
            assert fmt.name not in static.infeasible_formats(name), (
                f"{strategy} selected certified-infeasible {fmt.name} "
                f"for {name}"
            )
