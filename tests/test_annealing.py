"""Tests for the threshold-triggered annealing engine (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core import annealing
from repro.core.annealing import (
    AnnealingSchedule,
    ThresholdTriggeredAnnealer,
    metropolis_accepts,
)
from repro.errors import ConfigurationError


class TestScheduleValidation:
    def test_paper_defaults(self):
        schedule = AnnealingSchedule()
        assert schedule.initial_temperature is None  # resolves to N
        assert schedule.min_temperature == 1e-9
        assert schedule.alpha_slow == 0.97
        assert schedule.alpha_fast == 0.90
        assert schedule.chain_length == 30
        assert schedule.threshold_factor == 1.75
        assert schedule.max_count == pytest.approx(52.5)

    def test_rejects_nonpositive_initial_temperature(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(initial_temperature=0.0)

    def test_rejects_nonpositive_min_temperature(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(min_temperature=0.0)

    def test_rejects_min_above_initial(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(initial_temperature=1.0, min_temperature=2.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_alphas(self, alpha):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(alpha_slow=alpha)
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(alpha_fast=alpha)

    def test_rejects_bad_chain_length(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(chain_length=0)

    def test_rejects_bad_threshold_factor(self):
        with pytest.raises(ConfigurationError):
            AnnealingSchedule(threshold_factor=0.0)


def _integer_hill(x: int) -> float:
    """A 1-D multi-modal objective with global maximum at x = 40."""
    return -abs(x - 40) + 8.0 * np.sin(x / 3.0)


def _propose_int(x: int, rng: np.random.Generator) -> int:
    return int(np.clip(x + rng.integers(-3, 4), 0, 100))


class TestAnnealerBehaviour:
    def test_finds_global_maximum_of_toy_problem(self):
        annealer = ThresholdTriggeredAnnealer(
            AnnealingSchedule(initial_temperature=10.0, min_temperature=1e-4)
        )
        result = annealer.run(
            initial_state=0,
            objective=_integer_hill,
            propose=_propose_int,
            rng=np.random.default_rng(0),
        )
        best_possible = max(_integer_hill(x) for x in range(101))
        assert result.best_value == pytest.approx(best_possible)

    def test_best_value_matches_best_state(self):
        annealer = ThresholdTriggeredAnnealer(
            AnnealingSchedule(initial_temperature=5.0, min_temperature=1e-2)
        )
        result = annealer.run(0, _integer_hill, _propose_int, np.random.default_rng(1))
        assert result.best_value == pytest.approx(_integer_hill(result.best_state))

    def test_never_worse_than_initial(self):
        annealer = ThresholdTriggeredAnnealer(
            AnnealingSchedule(initial_temperature=5.0, min_temperature=1e-1)
        )
        for seed in range(10):
            start = int(np.random.default_rng(seed).integers(0, 100))
            result = annealer.run(
                start, _integer_hill, _propose_int, np.random.default_rng(seed)
            )
            assert result.best_value >= _integer_hill(start)

    def test_iteration_count_is_chain_times_levels(self):
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.5,
            alpha_slow=0.5,
            chain_length=7,
            threshold_factor=1e9,  # never trigger
        )
        annealer = ThresholdTriggeredAnnealer(schedule)
        result = annealer.run(
            0, lambda x: 0.0, lambda x, rng: x, np.random.default_rng(0)
        )
        # One temperature level: 1.0 -> 0.5 stops the loop.
        assert result.iterations == 7

    def test_threshold_trigger_accelerates_cooling(self):
        """A flat objective accepts every move, so the trigger must fire."""
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=1e-3,
            chain_length=10,
            threshold_factor=0.5,  # maxCount = 5, crossed every level
        )
        annealer = ThresholdTriggeredAnnealer(schedule)
        # delta == 0 on a flat landscape is NOT an improvement, and
        # exp(0/T) = 1 > rand, so every move counts as accepted-worse.
        result = annealer.run(
            0,
            lambda x: 0.0,
            lambda x, rng: x + 1,
            np.random.default_rng(0),
        )
        assert result.fast_coolings > 0

    def test_no_trigger_when_threshold_unreachable(self):
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=1e-2,
            chain_length=5,
            threshold_factor=1e9,
        )
        annealer = ThresholdTriggeredAnnealer(schedule)
        result = annealer.run(
            0, lambda x: 0.0, lambda x, rng: x + 1, np.random.default_rng(0)
        )
        assert result.fast_coolings == 0

    def test_trace_recorded_when_requested(self):
        schedule = AnnealingSchedule(initial_temperature=1.0, min_temperature=0.1)
        annealer = ThresholdTriggeredAnnealer(schedule)
        result = annealer.run(
            0,
            _integer_hill,
            _propose_int,
            np.random.default_rng(0),
            record_trace=True,
        )
        assert len(result.best_trace) > 0
        # Best values never decrease.
        assert all(
            a <= b for a, b in zip(result.best_trace, result.best_trace[1:])
        )

    def test_trace_empty_by_default(self):
        schedule = AnnealingSchedule(initial_temperature=1.0, min_temperature=0.1)
        result = ThresholdTriggeredAnnealer(schedule).run(
            0, _integer_hill, _propose_int, np.random.default_rng(0)
        )
        assert result.best_trace == []

    def test_default_initial_temperature_used(self):
        # With no explicit T0, the default argument (the paper's N) is used:
        # verify via the level count for a known cooling ladder.
        schedule = AnnealingSchedule(
            min_temperature=0.9, alpha_slow=0.5, chain_length=1,
            threshold_factor=1e9,
        )
        annealer = ThresholdTriggeredAnnealer(schedule)
        result = annealer.run(
            0,
            lambda x: 0.0,
            lambda x, rng: x,
            np.random.default_rng(0),
            default_initial_temperature=8.0,
        )
        # 8 -> 4 -> 2 -> 1 -> 0.5 : four levels above 0.9... count them.
        # Levels run while T > 0.9: T = 8, 4, 2, 1 -> 4 iterations.
        assert result.iterations == 4

    def test_rejects_initial_at_or_below_min(self):
        schedule = AnnealingSchedule(min_temperature=5.0)
        annealer = ThresholdTriggeredAnnealer(schedule)
        with pytest.raises(ConfigurationError):
            annealer.run(
                0,
                lambda x: 0.0,
                lambda x, rng: x,
                np.random.default_rng(0),
                default_initial_temperature=5.0,
            )

    def test_deterministic_given_seed(self):
        schedule = AnnealingSchedule(initial_temperature=5.0, min_temperature=1e-2)
        runs = [
            ThresholdTriggeredAnnealer(schedule).run(
                0, _integer_hill, _propose_int, np.random.default_rng(99)
            )
            for _ in range(2)
        ]
        assert runs[0].best_state == runs[1].best_state
        assert runs[0].best_value == runs[1].best_value
        assert runs[0].iterations == runs[1].iterations


def _run_flat(schedule: AnnealingSchedule):
    """Flat landscape: every proposal is an accepted-worse move (delta = 0,
    exp(0/T) = 1 > rand), so the accepted-worse count grows by exactly
    chain_length per temperature level — ideal for pinning maxCount."""
    return ThresholdTriggeredAnnealer(schedule).run(
        0, lambda x: 0.0, lambda x, rng: x + 1, np.random.default_rng(0)
    )


class TestMaxCountBoundary:
    """Exact-boundary semantics: the count is compared once per chain, at
    its end, and count >= maxCount triggers fast cooling + counter reset."""

    def _levels(self, t0, tmin, alphas):
        """Temperature levels run, given per-level cooling factors."""
        levels, t = 0, t0
        for alpha in alphas:
            if t <= tmin:
                break
            levels += 1
            t *= alpha
        return levels

    def test_exact_boundary_triggers(self):
        # maxCount = 1.0 * 4 = 4 accepted-worse; one chain accumulates
        # exactly 4, so count == maxCount at the FIRST end-of-chain check:
        # >= must trigger every level.
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.5,
            alpha_fast=0.5,
            chain_length=4,
            threshold_factor=1.0,
        )
        result = _run_flat(schedule)
        assert result.fast_coolings == 1  # 1.0 -> 0.5 ends the run
        assert result.iterations == 4

    def test_just_below_boundary_does_not_trigger(self):
        # maxCount = 1.25 * 4 = 5: chain 1 ends with count 4 < 5 (slow),
        # chain 2 ends with count 8 >= 5 (fast + reset) — alternating.
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.8**6 + 1e-12,
            alpha_slow=0.8,
            alpha_fast=0.8,  # equal rates: level count fixed at 6
            chain_length=4,
            threshold_factor=1.25,
        )
        result = _run_flat(schedule)
        assert result.iterations == 6 * 4
        assert result.fast_coolings == 3  # levels 2, 4, 6

    def test_counter_resets_after_trigger(self):
        # threshold_factor=2 with L=4: trigger at every second chain end
        # (counts 4, 8 -> fast; reset; 4, 8 -> fast; ...).  A reset-free
        # implementation would instead fire at every chain from the
        # second one on.
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.9**8 + 1e-12,
            alpha_slow=0.9,
            alpha_fast=0.9,
            chain_length=4,
            threshold_factor=2.0,
        )
        result = _run_flat(schedule)
        assert result.iterations == 8 * 4
        assert result.fast_coolings == 4  # every second of 8 levels

    def test_count_accumulates_across_chains(self):
        # maxCount = 2.5 * 2 = 5: chains end with running counts 2, 4,
        # 6 -> the trigger first fires at the end of the THIRD chain even
        # though no single chain accepted 5 worse moves.
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.9**3 + 1e-12,
            alpha_slow=0.9,
            alpha_fast=0.9,
            chain_length=2,
            threshold_factor=2.5,
        )
        result = _run_flat(schedule)
        assert result.iterations == 3 * 2
        assert result.fast_coolings == 1

    def test_paper_defaults_trigger_at_53(self):
        # maxCount = 52.5 with L = 30: running counts 30, 60 -> the first
        # fast cooling happens at the end of chain 2, once 53+ worsened
        # moves have accumulated.
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.9**2 + 1e-12,
            alpha_slow=0.9,
            alpha_fast=0.9,
        )
        result = _run_flat(schedule)
        assert schedule.max_count == pytest.approx(52.5)
        assert result.iterations == 2 * 30
        assert result.fast_coolings == 1

    def test_accepted_moves_counts_all_acceptances(self):
        # Flat landscape: every move is accepted (as accepted-worse).
        schedule = AnnealingSchedule(
            initial_temperature=1.0,
            min_temperature=0.5,
            alpha_slow=0.5,
            chain_length=7,
            threshold_factor=1e9,
        )
        result = _run_flat(schedule)
        assert result.accepted_moves == result.iterations == 7
        # Strictly improving landscape: likewise all accepted, none worse.
        improving = ThresholdTriggeredAnnealer(schedule).run(
            0, lambda x: float(x), lambda x, rng: x + 1, np.random.default_rng(0)
        )
        assert improving.accepted_moves == 7
        assert improving.fast_coolings == 0


class TestMetropolisScreen:
    def test_equals_the_numpy_test_and_defers_inside_the_band(self, monkeypatch):
        """``metropolis_accepts(x, u) == (np.exp(x) > u)`` for ``x`` over
        the whole range where ``exp`` is not zero, with ``u`` on and next
        to ``np.exp(x)``, at zero and uniform; the ``np.exp`` fallback
        must run, so a band too narrow to hold the 1-ULP disagreements
        between libm and numpy fails here."""
        real_exp = np.exp
        rng = np.random.default_rng(2025)
        xs = np.concatenate(
            [
                np.linspace(-745.2, 0.0, 20_001),
                rng.uniform(-745.2, 0.0, 20_000),
                -rng.exponential(0.5, 20_000),
            ]
        ).tolist()
        # The two exps disagree on some of these inputs, so a test that
        # lets math.exp decide inside the band must fail.
        assert any(math.exp(x) != float(real_exp(x)) for x in xs)
        fallbacks = []

        def counting_exp(x):
            fallbacks.append(x)
            return real_exp(x)

        cases = []
        for x in xs:
            e = float(real_exp(x))
            for u in (
                e,
                float(np.nextafter(e, -np.inf)),
                float(np.nextafter(e, np.inf)),
                0.0,
                rng.random(),
            ):
                cases.append((x, u, bool(real_exp(x) > u)))
        monkeypatch.setattr(annealing.np, "exp", counting_exp)
        for x, u, want in cases:
            assert metropolis_accepts(x, u) is want, (x, u)
        assert 0 < len(fallbacks) < len(cases)
