"""Threshold-triggered simulated annealing — Algorithm 1's control loop.

Classic simulated annealing cools geometrically (``T <- alpha * T``).  The
paper's twist is a *threshold trigger*: the run counts accepted worsened
solutions across chains, and the count is compared against ``maxCount =
threshold_factor * chain_length`` once at the end of each chain.  While
``count < maxCount`` the slow rate ``alpha_slow = 0.97`` applies; the
first end-of-chain check at which the count has reached ``maxCount``
(``count >= maxCount``) applies the fast rate ``alpha_fast = 0.90`` for
exactly that one cooling step and resets the counter to zero, so a fresh
accumulation starts at the next temperature.  Sustained acceptance of bad
moves means the chain is wandering, so the schedule spends less time at
unproductive temperatures — this is what lets TSAJS "effectively avoid
local optima and converge toward the global optimum" within a polynomial
budget.

The engine is generic over the state type: it only needs an objective
function, a proposal function and an initial state, so the ablation
experiments can reuse it with alternative neighbourhoods or schedules and
:class:`~repro.baselines.local_search.LocalSearchScheduler` shares its
bookkeeping.

In *move mode*, which every TSAJS solve runs, a proposal is a move drawn
from the incumbent (Algorithm 2, :mod:`repro.core.neighborhood`) rather
than a new state: the move is scored against the incumbent in place, and
a new state is built only when the move is accepted.  The Metropolis
uniform and the moves' draws go through one
:class:`~repro.sim.rng.DirectDraws` scope per run, which returns what
``rng.random()`` and ``rng.integers(n)`` would, on the same stream, so
the trajectory is the one those calls walk.  The Metropolis test itself
is :func:`metropolis_accepts`, which gives ``np.exp``'s verdict at a
fraction of its cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.decision import Move
from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder, get_recorder

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.rng import DirectDraws

State = TypeVar("State")

_NEG_INF = -math.inf
#: Half-width of the band around ``u``, relative to ``math.exp(x)``,
#: inside which :func:`metropolis_accepts` asks ``np.exp``: about 4500
#: ULP, against the 1 ULP by which libm's ``exp`` and numpy's differ.
_SCREEN_REL = 1e-12
#: The band's absolute floor, above every subnormal ULP.
_SCREEN_ABS = 1e-300


def metropolis_accepts(x: float, u: float) -> bool:
    """``np.exp(x) > u``, Algorithm 1's acceptance of a worsened move.

    ``math.exp`` costs a third of ``np.exp`` on a Python float, but the
    two round differently in about 5 % of cases (by 1 ULP at most), so
    ``math.exp`` only decides where ``u`` lies outside a band around its
    result far wider than that ULP: there both exps fall on the same
    side of ``u``.  Inside the band ``np.exp`` decides.
    """
    e = math.exp(x)
    if abs(e - u) > _SCREEN_REL * e + _SCREEN_ABS:
        return e > u
    return bool(np.exp(x) > u)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling-schedule parameters of Algorithm 1 (lines 3-4).

    ``initial_temperature = None`` reproduces the paper's ``T <- N``
    (the sub-channel count), resolved when the run starts.
    """

    initial_temperature: Optional[float] = None
    min_temperature: float = 1e-9
    alpha_slow: float = 0.97
    alpha_fast: float = 0.90
    chain_length: int = 30
    threshold_factor: float = 1.75

    def __post_init__(self) -> None:
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise ConfigurationError(
                f"initial temperature must be positive, got {self.initial_temperature}"
            )
        if self.min_temperature <= 0:
            raise ConfigurationError(
                f"min temperature must be positive, got {self.min_temperature}"
            )
        if (
            self.initial_temperature is not None
            and self.min_temperature >= self.initial_temperature
        ):
            raise ConfigurationError("min temperature must be below the initial one")
        for name in ("alpha_slow", "alpha_fast"):
            alpha = getattr(self, name)
            if not 0.0 < alpha < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {alpha}")
        if self.chain_length < 1:
            raise ConfigurationError(
                f"chain length must be >= 1, got {self.chain_length}"
            )
        if self.threshold_factor <= 0:
            raise ConfigurationError(
                f"threshold factor must be positive, got {self.threshold_factor}"
            )

    @property
    def max_count(self) -> float:
        """The trigger threshold ``maxCount = threshold_factor * L``.

        The accepted-worse count is compared against this once per chain,
        *after* the chain's ``L`` proposals: a count that has reached
        ``maxCount`` (``count >= maxCount``) triggers exactly one
        fast-cooling step (``alpha_fast``) and resets the counter; any
        smaller count cools slowly (``alpha_slow``) and keeps
        accumulating.  With the paper's defaults (``threshold_factor =
        1.75``, ``L = 30``) the trigger therefore fires at the end of
        the first chain where the running count reaches 52.5, i.e. 53
        accepted worsened moves.
        """
        return self.threshold_factor * self.chain_length


@dataclass
class AnnealingResult(Generic[State]):
    """Outcome of one annealing run.

    ``best_trace`` records the best value after every outer
    (temperature) iteration — useful for convergence plots and the
    threshold-trigger ablation.
    """

    best_state: State
    best_value: float
    iterations: int
    fast_coolings: int
    best_trace: List[float] = field(default_factory=list)
    #: Total accepted moves (improving + accepted-worse), for the golden
    #: trajectory regressions and acceptance-ratio diagnostics.
    accepted_moves: int = 0


class ThresholdTriggeredAnnealer:
    """Algorithm 1's annealing engine, generic over the state type."""

    def __init__(self, schedule: Optional[AnnealingSchedule] = None) -> None:
        self.schedule = schedule if schedule is not None else AnnealingSchedule()

    def run(
        self,
        initial_state: State,
        objective: Callable[[State], float],
        propose: Callable[[State, np.random.Generator], State],
        rng: np.random.Generator,
        default_initial_temperature: float = 1.0,
        record_trace: bool = False,
        propose_move: Optional[
            Callable[[State, np.random.Generator], Tuple[State, Tuple[int, ...]]]
        ] = None,
        move_objective: Optional[Callable[[State, Move, Move], float]] = None,
        recorder: Optional[Recorder] = None,
        batch_objective: Optional[
            Callable[[Sequence[Tuple[State, Tuple[int, ...]]]], np.ndarray]
        ] = None,
        batch_commit: Optional[Callable[[State, Tuple[int, ...]], None]] = None,
        batch_size: int = 0,
        draw_move: Optional[Callable[[State, "DirectDraws"], Move]] = None,
        apply_move: Optional[Callable[[State, Move], State]] = None,
    ) -> AnnealingResult[State]:
        """Maximise ``objective`` from ``initial_state``.

        Parameters
        ----------
        default_initial_temperature:
            Used when the schedule leaves ``initial_temperature`` unset;
            TSAJS passes the sub-channel count ``N`` here (Alg. 1 line 3).
        recorder:
            Observability sink (defaults to the process-level recorder).
            When enabled, the run emits one ``anneal.level`` event per
            temperature level (temperature, best/current value, accepted
            and accepted-worse counters) and an ``anneal.phase_switch``
            event at every end-of-chain check where the accepted-worse
            count has reached ``maxCount = threshold_factor * L``
            (Algorithm 2's trigger); with ``iteration_detail`` set it
            additionally emits one ``anneal.step`` event per proposal.
            Emission never touches the RNG stream, so traced and
            untraced runs walk bitwise-identical trajectories.
        draw_move, move_objective, apply_move:
            Optional *move mode* (pass all three or none).
            ``draw_move(current, draws)`` draws a move from the incumbent
            without changing it, ``move_objective(current, move,
            rejected)`` scores the incumbent with the move applied, and
            ``apply_move(current, move)`` returns the new state; it is
            called only for accepted moves.  ``rejected`` is the last
            scored move if it was not accepted, else an empty list: a
            delta evaluator's cache mirrors the last *evaluated*
            candidate, accepted or not, so the next score must also
            cover that move's users.  ``propose`` is then unused (it
            must draw from the same RNG stream as ``draw_move`` for the
            two modes to walk identical chains, as
            :class:`NeighborhoodSampler` does).  ``objective`` still
            scores the initial state.
        propose_move, batch_objective, batch_commit, batch_size:
            *Vectorized batch* mode (pass all four).  ``propose_move``
            returns ``(candidate, touched)`` for one proposal.
            Each round speculatively proposes up to ``batch_size`` moves
            from the incumbent (recording the RNG state after each
            proposal and drawing one speculative Metropolis uniform per
            move), scores them all with one ``batch_objective`` call, and
            scans the value vector under exact scalar acceptance
            semantics.  The speculation template assumes every move is a
            rejected worsened one; the scan stops at the first move that
            breaks it — an accepted move, or a ``-inf`` delta (which
            consumes no uniform on the scalar path) — rewinding the RNG
            to the recorded pre-uniform state when the scalar path would
            not have drawn it and discarding the stale tail of the batch.
            The accepted-move chain, every counter and the RNG stream are
            therefore bit-for-bit identical to the scalar path;
            ``batch_commit(candidate, touched)`` is invoked exactly on
            acceptance so the batch evaluator's cache tracks the
            incumbent.
        """
        sched = self.schedule
        batch_mode = batch_objective is not None
        if batch_mode:
            if batch_commit is None or propose_move is None:
                raise ConfigurationError(
                    "batch mode needs propose_move, batch_objective and "
                    "batch_commit together"
                )
            if batch_size < 1:
                raise ConfigurationError(
                    f"batch_size must be >= 1 in batch mode, got {batch_size}"
                )
            if move_objective is not None:
                raise ConfigurationError(
                    "batch mode and move_objective are mutually exclusive"
                )
        elif batch_commit is not None or batch_size or propose_move is not None:
            raise ConfigurationError(
                "propose_move/batch_commit/batch_size require batch_objective"
            )
        hooks = (draw_move, move_objective, apply_move)
        if any(hook is not None for hook in hooks) and not all(
            hook is not None for hook in hooks
        ):
            raise ConfigurationError(
                "draw_move, move_objective and apply_move must be provided together"
            )
        delta_mode = move_objective is not None
        temperature = (
            sched.initial_temperature
            if sched.initial_temperature is not None
            else float(default_initial_temperature)
        )
        if temperature <= sched.min_temperature:
            raise ConfigurationError(
                f"initial temperature {temperature} must exceed min "
                f"{sched.min_temperature}"
            )

        # Imported here: repro.sim imports this module at package-init
        # time, so a top-level import would be circular.
        from repro.sim.rng import DirectDraws

        rec = recorder if recorder is not None else get_recorder()
        tracing = rec.enabled
        step_events = tracing and rec.iteration_detail

        current = initial_state
        current_value = objective(current)
        best = current
        best_value = current_value
        accepted_worse = 0
        accepted_moves = 0
        iterations = 0
        fast_coolings = 0
        level = 0
        prev_accepted = 0
        prev_worse = 0
        # The last *rejected* move: the delta cache still reflects that
        # candidate, so the next evaluation must also cover its users to
        # diff back correctly.
        rejected: Move = []
        result = AnnealingResult(
            best_state=best,
            best_value=best_value,
            iterations=0,
            fast_coolings=0,
        )

        # Only move mode draws through the scope; the other modes draw
        # from ``rng`` itself, and a scope that drew nothing leaves it as
        # it was.
        with DirectDraws(rng) as draws, rec.span(
            "anneal.run",
            initial_temperature=temperature,
            min_temperature=sched.min_temperature,
            chain_length=sched.chain_length,
            max_count=sched.max_count,
            alpha_slow=sched.alpha_slow,
            alpha_fast=sched.alpha_fast,
            delta_mode=delta_mode,
            batch_mode=batch_mode,
            batch_size=batch_size,
        ):
            if batch_mode:
                assert propose_move is not None  # validated above
                assert batch_objective is not None and batch_commit is not None
            uniform: Callable[[], float]
            if delta_mode:
                assert draw_move is not None and move_objective is not None
                assert apply_move is not None
                uniform = draws.random
            else:
                uniform = rng.random
            while temperature > sched.min_temperature:
                if batch_mode:
                    steps_left = sched.chain_length
                    while steps_left > 0:
                        count = min(batch_size, steps_left)
                        proposals: List[Tuple[State, Tuple[int, ...]]] = []
                        pre_uniform_states: List[Any] = []
                        post_uniform_states: List[Any] = []
                        uniforms: List[float] = []
                        for _ in range(count):
                            proposals.append(propose_move(current, rng))
                            pre_uniform_states.append(rng.bit_generator.state)
                            uniforms.append(rng.random())
                            post_uniform_states.append(rng.bit_generator.state)
                        values = batch_objective(proposals)
                        consumed = count
                        for i in range(count):
                            if step_events:
                                prev_accepted = accepted_moves
                                prev_worse = accepted_worse
                            iterations += 1
                            candidate, touched = proposals[i]
                            candidate_value = float(values[i])
                            delta = candidate_value - current_value
                            accepted = False
                            stop = False
                            if delta > 0:
                                # The scalar path consumes no Metropolis
                                # uniform for an improving move: rewind to the
                                # recorded post-proposal state, discarding the
                                # speculative uniform and the stale tail.
                                rng.bit_generator.state = pre_uniform_states[i]
                                accepted = True
                                stop = True
                            elif delta > _NEG_INF:
                                if metropolis_accepts(delta / temperature, uniforms[i]):
                                    # The uniform was legitimately consumed,
                                    # but the tail proposals were drawn from
                                    # the pre-acceptance incumbent: rewind to
                                    # just after this move's uniform.
                                    rng.bit_generator.state = post_uniform_states[i]
                                    accepted = True
                                    accepted_worse += 1
                                    stop = True
                                # else: a rejected worsened move — exactly the
                                # speculation template; the stream stays valid.
                            else:
                                # -inf (or NaN) delta short-circuits the
                                # scalar acceptance test before the uniform;
                                # rewind and discard the stale tail.
                                rng.bit_generator.state = pre_uniform_states[i]
                                stop = True
                            if accepted:
                                current, current_value = candidate, candidate_value
                                accepted_moves += 1
                                batch_commit(candidate, touched)
                                if current_value > best_value:
                                    best, best_value = current, current_value
                            if step_events:
                                rec.event(
                                    "anneal.step",
                                    iteration=iterations,
                                    temperature=temperature,
                                    delta=float(delta),
                                    accepted=accepted_moves != prev_accepted,
                                    worse=accepted_worse != prev_worse,
                                    accepted_worse=accepted_worse,
                                )
                            if stop:
                                consumed = i + 1
                                break
                        steps_left -= consumed
                else:
                    for _ in range(sched.chain_length):
                        if step_events:
                            prev_accepted = accepted_moves
                            prev_worse = accepted_worse
                        iterations += 1
                        if delta_mode:
                            move = draw_move(current, draws)
                            candidate_value = move_objective(current, move, rejected)
                        else:
                            candidate = propose(current, rng)
                            candidate_value = objective(candidate)
                        delta = candidate_value - current_value
                        if delta > 0:
                            accepted = True
                        else:
                            # Accept a worsened solution with probability
                            # exp(delta / T); count it toward the trigger.
                            accepted = delta > _NEG_INF and metropolis_accepts(
                                delta / temperature, uniform()
                            )
                            if accepted:
                                accepted_worse += 1
                        if accepted:
                            if delta_mode:
                                candidate = apply_move(current, move)
                                rejected = []
                            current, current_value = candidate, candidate_value
                            accepted_moves += 1
                            if current_value > best_value:
                                best, best_value = current, current_value
                        elif delta_mode:
                            rejected = move
                        if step_events:
                            rec.event(
                                "anneal.step",
                                iteration=iterations,
                                temperature=temperature,
                                delta=float(delta),
                                accepted=accepted_moves != prev_accepted,
                                worse=accepted_worse != prev_worse,
                                accepted_worse=accepted_worse,
                            )
                if record_trace:
                    result.best_trace.append(best_value)
                if tracing:
                    rec.event(
                        "anneal.level",
                        level=level,
                        temperature=temperature,
                        best=float(best_value),
                        current=float(current_value),
                        accepted_moves=accepted_moves,
                        accepted_worse=accepted_worse,
                        iterations=iterations,
                    )
                if accepted_worse < sched.max_count:
                    temperature *= sched.alpha_slow
                else:
                    # Algorithm 2's trigger: the accepted-worse count reached
                    # maxCount at an end-of-chain check, so the schedule
                    # switches to one fast cooling step (alpha_fast).
                    if tracing:
                        rec.event(
                            "anneal.phase_switch",
                            level=level,
                            temperature=temperature,
                            accepted_worse=accepted_worse,
                            max_count=sched.max_count,
                            fast_coolings=fast_coolings + 1,
                        )
                    temperature *= sched.alpha_fast
                    fast_coolings += 1
                    accepted_worse = 0
                level += 1
            if tracing:
                rec.event(
                    "anneal.finish",
                    levels=level,
                    iterations=iterations,
                    accepted_moves=accepted_moves,
                    fast_coolings=fast_coolings,
                    best=float(best_value),
                )

        result.best_state = best
        result.best_value = best_value
        result.iterations = iterations
        result.fast_coolings = fast_coolings
        result.accepted_moves = accepted_moves
        return result
