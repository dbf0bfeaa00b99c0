"""Boundary behaviour of the batch evaluation path.

Edge cases the paper-scale equivalence sweep cannot isolate: empty
neighbourhoods, single-candidate batches, batches where every Metropolis
draw rejects, and the threshold trigger (``maxCount``/phase switch)
firing while the annealer is mid-way through a speculative batch.  The
phase-switch assertions mirror ``tests/test_obs_integration.py``: the
trigger must fire at exactly the same end-of-chain checks as the scalar
annealer, proven via the recorded trace events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule, ThresholdTriggeredAnnealer
from repro.core.batch import BatchEvaluator, finalize_staged
from repro.core.decision import OffloadingDecision
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.obs.clock import TickClock
from repro.obs.recorder import use_recorder
from repro.obs.trace import TraceRecorder, events_named
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario
from tests.equivalence import accepted_step_trace

CONFIG = SimulationConfig(n_users=10, n_servers=3, n_subbands=2)
SCHEDULE = AnnealingSchedule(chain_length=15, min_temperature=1e-2)


def _scenario(seed: int = 2025) -> Scenario:
    return Scenario.build(CONFIG, seed=seed)


def _traced_run(use_batch: bool, seed: int = 2025, *, iteration_detail=False,
                schedule: AnnealingSchedule = SCHEDULE, batch_size: int = 64):
    scenario = _scenario(seed)
    # ``use_delta=False``: the non-batch side is the scalar oracle.
    scheduler = TsajsScheduler(
        schedule=schedule, use_delta=False, use_batch=use_batch,
        batch_size=batch_size,
    )
    recorder = TraceRecorder(clock=TickClock(), iteration_detail=iteration_detail)
    with use_recorder(recorder):
        result = scheduler.schedule(scenario, child_rng(seed, 100))
    return result, recorder.records


class TestEmptyNeighborhood:
    def test_empty_batch_returns_empty_vector(self):
        evaluator = BatchEvaluator(_scenario())
        values = evaluator.evaluate_batch([])
        assert isinstance(values, np.ndarray)
        assert values.shape == (0,)

    def test_empty_batch_counts_a_round_but_no_evals(self):
        evaluator = BatchEvaluator(_scenario())
        before = evaluator.evaluations
        evaluator.evaluate_batch([])
        assert evaluator.evaluations == before
        assert evaluator.batch_evals == 0
        assert evaluator.batch_rounds == 1

    def test_finalize_staged_of_nothing(self):
        assert finalize_staged([]) == []

    def test_empty_batch_leaves_the_cache_untouched(self):
        scenario = _scenario()
        evaluator = BatchEvaluator(scenario)
        rng = np.random.default_rng(0)
        decision = OffloadingDecision.random_feasible(
            scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
        )
        value = evaluator.evaluate(decision)
        evaluator.evaluate_batch([])
        assert evaluator.evaluate(decision) == value


class TestBatchOfOne:
    def test_batch_size_one_equals_scalar(self):
        scalar, _ = _traced_run(use_batch=False)
        batched, _ = _traced_run(use_batch=True, batch_size=1)
        assert batched.utility == scalar.utility
        assert batched.accepted_moves == scalar.accepted_moves
        assert list(batched.decision.iter_assignments()) == list(
            scalar.decision.iter_assignments()
        )

    def test_single_candidate_value_is_exact(self):
        scenario = _scenario()
        evaluator = BatchEvaluator(scenario)
        reference = BatchEvaluator(scenario)
        rng = np.random.default_rng(7)
        decision = OffloadingDecision.random_feasible(
            scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
        )
        expected = reference.evaluate(decision)
        (value,) = evaluator.evaluate_batch(
            [(decision, tuple(range(scenario.n_users)))]
        )
        assert float(value) == expected

    def test_no_change_candidate_reuses_base_bits(self):
        scenario = _scenario()
        evaluator = BatchEvaluator(scenario)
        rng = np.random.default_rng(8)
        decision = OffloadingDecision.random_feasible(
            scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
        )
        base = evaluator.evaluate(decision)
        (value,) = evaluator.evaluate_batch([(decision, (0, 1, 2))])
        assert float(value) == base


class TestAllRejectedBatch:
    """A batch whose every Metropolis draw rejects is the speculation
    template: the annealer must consume the whole batch and keep the RNG
    stream aligned with the scalar path."""

    def _run(self, batch: bool, rng: np.random.Generator):
        annealer = ThresholdTriggeredAnnealer(
            # One long chain at a freezing temperature: every proposal
            # worsens by 1 and exp(-1/T) underflows to 0.0, so every
            # Metropolis draw rejects.
            AnnealingSchedule(
                initial_temperature=1e-3, min_temperature=9e-4, chain_length=64
            )
        )
        propose = lambda state, r: state - 1.0 - float(r.random())  # noqa: E731
        propose_move = lambda state, r: (propose(state, r), ())  # noqa: E731
        objective = lambda state: float(state)  # noqa: E731
        kwargs = dict(
            initial_state=0.0,
            objective=objective,
            propose=propose,
            rng=rng,
        )
        if batch:
            kwargs.update(
                propose_move=propose_move,
                batch_objective=lambda cands: np.array(
                    [objective(s) for s, _ in cands]
                ),
                batch_commit=lambda state, touched: None,
                batch_size=16,
            )
        return annealer.run(**kwargs)

    def test_scalar_and_batch_agree_with_zero_acceptances(self):
        scalar = self._run(False, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        batched = self._run(True, rng)
        assert scalar.accepted_moves == 0
        assert batched.accepted_moves == 0
        assert batched.iterations == scalar.iterations
        assert batched.best_value == scalar.best_value
        # The batch run consumed exactly the scalar stream: one proposal
        # draw plus one Metropolis uniform per iteration.
        reference = np.random.default_rng(11)
        reference.random(2 * scalar.iterations)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestPhaseSwitchMidBatch:
    """The maxCount trigger fires at identical end-of-chain checks."""

    #: A hair-trigger threshold so fast coolings happen mid-run while
    #: speculative batches span whole chains.
    TRIGGER_SCHEDULE = AnnealingSchedule(
        chain_length=15, min_temperature=1e-2, threshold_factor=0.4
    )

    def test_fast_coolings_and_levels_match_scalar(self):
        scalar, scalar_records = _traced_run(
            use_batch=False, schedule=self.TRIGGER_SCHEDULE
        )
        batched, batch_records = _traced_run(
            use_batch=True, schedule=self.TRIGGER_SCHEDULE, batch_size=64
        )
        assert batched.utility == scalar.utility
        assert batched.accepted_moves == scalar.accepted_moves

        def switches(records):
            return [
                (e["attrs"]["level"], e["attrs"]["accepted_worse"],
                 e["attrs"]["fast_coolings"])
                for e in events_named(records, "anneal.phase_switch")
            ]

        assert switches(batch_records) == switches(scalar_records)
        assert switches(batch_records)  # the hair trigger does fire

        def levels(records):
            return [
                (e["attrs"]["level"], e["attrs"]["temperature"],
                 e["attrs"]["best"], e["attrs"]["accepted_worse"],
                 e["attrs"]["iterations"])
                for e in events_named(records, "anneal.level")
            ]

        assert levels(batch_records) == levels(scalar_records)

    def test_step_chain_identical_under_iteration_detail(self):
        """Per-proposal trace: the accepted-move chain is bit-identical."""
        _, scalar_records = _traced_run(
            use_batch=False, schedule=self.TRIGGER_SCHEDULE, iteration_detail=True
        )
        _, batch_records = _traced_run(
            use_batch=True, schedule=self.TRIGGER_SCHEDULE, iteration_detail=True,
            batch_size=9,
        )
        scalar_chain = accepted_step_trace(scalar_records)
        batch_chain = accepted_step_trace(batch_records)
        assert scalar_chain == batch_chain
        assert scalar_chain  # non-empty


class TestBatchModeValidation:
    def test_batch_mode_requires_all_three_hooks(self):
        annealer = ThresholdTriggeredAnnealer(SCHEDULE)
        base = dict(
            initial_state=0.0,
            objective=float,
            propose=lambda s, r: s,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ConfigurationError):
            annealer.run(
                **base, batch_objective=lambda c: np.zeros(len(c)), batch_size=4
            )
        with pytest.raises(ConfigurationError):
            annealer.run(**base, batch_commit=lambda s, t: None)
        with pytest.raises(ConfigurationError):
            annealer.run(**base, batch_size=4)

    def test_batch_mode_excludes_move_objective(self):
        annealer = ThresholdTriggeredAnnealer(SCHEDULE)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            annealer.run(
                initial_state=0.0,
                objective=float,
                propose=lambda s, r: s,
                rng=np.random.default_rng(0),
                propose_move=lambda s, r: (s, ()),
                move_objective=lambda s, t: float(s),
                batch_objective=lambda c: np.zeros(len(c)),
                batch_commit=lambda s, t: None,
                batch_size=4,
            )

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TsajsScheduler(use_batch=True, batch_size=0)

    def test_use_delta_and_use_batch_conflict(self):
        with pytest.raises(ConfigurationError):
            TsajsScheduler(use_delta=True, use_batch=True)
