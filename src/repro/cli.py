"""Command-line interface: ``tsajs``.

Sub-commands
------------

``tsajs list``
    List all registered experiments (paper figures + ablations).
``tsajs run <experiment-id> [--quick] [--workers N] [--out FILE]``
    Run one experiment and print (and optionally save) its table.
    ``--workers N`` (N > 1) runs the seeds on a process pool (same
    results); otherwise they run serially.  ``--cache DIR`` reuses
    previously computed (scheme, seed) cells from a crash-safe
    content-addressed store (see ``docs/caching.md``).  The first
    failed seed stops the run with its own exception and no table is
    printed; re-running with the same ``--cache`` computes only the
    cells still missing (see ``docs/robustness.md``).  An experiment
    whose driver would ignore ``--workers``, ``--cache`` or
    ``--no-resume`` rejects them (one ``error:`` line, exit status 2).
``tsajs solve [--users U --servers S --subbands N --batch ...]``
    Solve a single random instance with the selected schemes and print
    the utilities side by side — a one-command demo of the library.
    TSAJS scores moves with the incremental (delta) evaluator;
    ``--batch [--batch-size B]`` switches it to the vectorized batch
    path (both are bit-identical to the scalar oracle).
    ``--cluster-radius``, ``--interference-radius`` and
    ``--reconcile-rounds`` configure the sharded ``TSAJS-Shard`` scheme,
    whose radii are checked against the path-loss model first.
``tsajs schemes``
    List the scheme names accepted by ``solve --schemes``.
``tsajs episode [--pool P --slots T --outage q ...]``
    Run the slot-based episodic simulation (activity, mobility churn,
    server-outage fault injection) and print the per-slot log.
``tsajs faults [--outage q --band-outage q --churn q --policy P ...]``
    Inject a seeded fault set into one scheduled instance and print how
    the degradation policy (local fallback or restricted re-scheduling)
    recovers: utility retention, fallback count, repair time.
``tsajs obs explain PATH``
    Explain a recorded trace (a ``.jsonl`` file, or a telemetry
    directory's ``trace.jsonl``): time per
    top-level span and the critical path, per annealing run the
    acceptance rate per level, phase-switch levels, best-so-far curve
    and iterations after the final best, reconcile rounds and cache
    hits (see ``docs/observability.md``).

Observability flags: ``solve --trace FILE`` records the solve, and
``run --telemetry DIR`` writes ``trace.jsonl`` + ``metrics.json`` for a
whole experiment.

An invalid setting (a :class:`~repro.errors.ConfigurationError`) prints
one ``error:`` line to stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.core.scheduler import DEFAULT_BATCH_SIZE
from repro.core.sharding import DEFAULT_CLUSTER_RADIUS_KM, DEFAULT_RECONCILE_ROUNDS
from repro.errors import ConfigurationError, float_error_mode
from repro.experiments.cache import ResultCache
from repro.experiments.registry import (
    ExperimentSpec,
    get_experiment,
    list_experiments,
)
from repro.experiments.report import render_text
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsajs",
        description="TSAJS reproduction: multi-server joint task scheduling for MEC",
    )
    parser.add_argument("--version", action="version", version=f"tsajs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=list_experiments())
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick preset instead of paper-scale settings",
    )
    run_parser.add_argument(
        "--out", metavar="FILE", help="also write the rendered table to FILE"
    )
    run_parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the structured result (incl. raw stats) as JSON",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan multi-seed runs out over a pool of N worker processes "
            "(results are identical to --workers 1, just faster)"
        ),
    )
    run_parser.add_argument(
        "--cache",
        metavar="DIR",
        help=(
            "content-addressed result cache: every computed (scheme, "
            "seed) cell is stored under a key derived from the config, "
            "scheme, seed and code fingerprint, written atomically with "
            "a checksum; later runs (any experiment, any machine "
            "sharing DIR) reuse matching cells and corrupt entries are "
            "quarantined and recomputed; an interrupted run resumes by "
            "re-running with the same DIR"
        ),
    )
    run_parser.add_argument(
        "--no-resume",
        action="store_true",
        help=(
            "recompute every cell despite --cache hits (the fresh "
            "results still overwrite the entries)"
        ),
    )
    run_parser.add_argument(
        "--telemetry",
        metavar="DIR",
        help=(
            "record a schema-v3 span/event trace (trace.jsonl, pool "
            "workers included) and a metrics snapshot (metrics.json) "
            "into DIR"
        ),
    )

    solve_parser = sub.add_parser("solve", help="solve one random instance")
    solve_parser.add_argument("--users", type=int, default=20)
    solve_parser.add_argument("--servers", type=int, default=9)
    solve_parser.add_argument("--subbands", type=int, default=3)
    solve_parser.add_argument("--workload-mc", type=float, default=1000.0)
    solve_parser.add_argument("--input-kb", type=float, default=420.0)
    solve_parser.add_argument("--seed", type=int, default=0)
    solve_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )
    solve_parser.add_argument(
        "--schemes",
        default="TSAJS,hJTORA,LocalSearch,Greedy",
        help=(
            "comma-separated scheme names to run "
            "(see `tsajs schemes` for the full list)"
        ),
    )
    solve_parser.add_argument(
        "--batch",
        action="store_true",
        help=(
            "score speculative move batches with the vectorized batch "
            "evaluator; bit-identical results, lower wall-clock time"
        ),
    )
    solve_parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        metavar="B",
        help="moves per vectorized round with --batch (default %(default)s)",
    )
    solve_parser.add_argument(
        "--cluster-radius",
        type=float,
        default=DEFAULT_CLUSTER_RADIUS_KM,
        metavar="KM",
        help=(
            "TSAJS-Shard grid-tile side for the station partition "
            "(km, default %(default)s; see docs/sharding.md)"
        ),
    )
    solve_parser.add_argument(
        "--interference-radius",
        type=float,
        default=None,
        metavar="KM",
        help=(
            "TSAJS-Shard far-field cutoff distance (km); defaults to "
            "the inter-site distance"
        ),
    )
    solve_parser.add_argument(
        "--reconcile-rounds",
        type=int,
        default=DEFAULT_RECONCILE_ROUNDS,
        metavar="R",
        help=(
            "TSAJS-Shard boundary-reconciliation fixed-point cap "
            "(default %(default)s; 0 disables it)"
        ),
    )
    solve_parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a schema-v3 span/event trace of the solve to FILE",
    )
    solve_parser.add_argument(
        "--trace-iterations",
        action="store_true",
        help=(
            "include one anneal.step event per proposal in the trace "
            "(orders of magnitude more lines; requires --trace)"
        ),
    )

    sub.add_parser("schemes", help="list available scheduling schemes")

    obs_parser = sub.add_parser("obs", help="read recorded traces")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_explain = obs_sub.add_parser(
        "explain", help="explain why a traced run ended where it did"
    )
    obs_explain.add_argument(
        "path",
        metavar="PATH",
        help=(
            "a trace .jsonl file, or a telemetry directory "
            "(reads its trace.jsonl)"
        ),
    )

    episode_parser = sub.add_parser(
        "episode", help="run a slot-based episodic simulation"
    )
    episode_parser.add_argument("--pool", type=int, default=20)
    episode_parser.add_argument("--slots", type=int, default=10)
    episode_parser.add_argument("--servers", type=int, default=9)
    episode_parser.add_argument("--subbands", type=int, default=3)
    episode_parser.add_argument("--activity", type=float, default=0.6)
    episode_parser.add_argument("--churn", type=float, default=0.05)
    episode_parser.add_argument("--outage", type=float, default=0.0)
    episode_parser.add_argument("--scheme", default="TSAJS")
    episode_parser.add_argument("--seed", type=int, default=0)
    episode_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )

    faults_parser = sub.add_parser(
        "faults", help="inject faults into one instance and degrade gracefully"
    )
    faults_parser.add_argument("--users", type=int, default=20)
    faults_parser.add_argument("--servers", type=int, default=5)
    faults_parser.add_argument("--subbands", type=int, default=3)
    faults_parser.add_argument("--seed", type=int, default=0)
    faults_parser.add_argument(
        "--outage", type=float, default=0.2, help="per-server full-outage probability"
    )
    faults_parser.add_argument(
        "--degraded",
        type=float,
        default=0.0,
        help="per-server capacity-degradation probability",
    )
    faults_parser.add_argument(
        "--degraded-capacity",
        type=float,
        default=0.25,
        help="surviving capacity fraction of a degraded server",
    )
    faults_parser.add_argument(
        "--band-outage",
        type=float,
        default=0.0,
        help="per-(server, band) outage probability",
    )
    faults_parser.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="per-user task-withdrawal probability",
    )
    faults_parser.add_argument(
        "--policy",
        choices=["local_fallback", "reschedule", "both"],
        default="both",
        help="degradation policy to apply",
    )
    faults_parser.add_argument(
        "--quick",
        action="store_true",
        help="stop the annealer early (T_min = 1e-2)",
    )
    return parser


def _cmd_list() -> int:
    for experiment_id in list_experiments():
        spec = get_experiment(experiment_id)
        print(f"{experiment_id:24s} {spec.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.no_resume and args.cache is None:
        print("error: --no-resume requires --cache DIR", file=sys.stderr)
        return 2
    spec = get_experiment(args.experiment)
    ignored = _ignored_sweep_flags(spec, args)
    if ignored:
        print(
            f"error: {spec.experiment_id} does not use {' or '.join(ignored)}",
            file=sys.stderr,
        )
        return 2
    sweep = _build_sweep(args.workers, args.cache, args.no_resume)
    if args.telemetry is not None:
        from pathlib import Path

        from repro.obs.recorder import set_recorder
        from repro.obs.trace import TraceRecorder

        telemetry_dir = Path(args.telemetry)
        recorder = TraceRecorder(telemetry_dir / "trace.jsonl")
        set_recorder(recorder)
        try:
            status = _cmd_run_body(args, spec, sweep)
        finally:
            set_recorder(None)
            recorder.close()
        from repro.atomicio import atomic_write_json

        atomic_write_json(
            telemetry_dir / "metrics.json", recorder.snapshot(), indent=2
        )
        print(
            f"[telemetry: {recorder.n_records} trace records and a metrics "
            f"snapshot written to {telemetry_dir}]"
        )
        return status
    return _cmd_run_body(args, spec, sweep)


def _ignored_sweep_flags(spec: ExperimentSpec, args: argparse.Namespace) -> List[str]:
    """The ``run`` sweep flags given that ``spec``'s driver would ignore."""
    flags = []
    if args.workers != 1 and not spec.honours_workers:
        flags.append("--workers")
    if not spec.honours_cache:
        if args.cache is not None:
            flags.append("--cache")
        if args.no_resume:
            flags.append("--no-resume")
    return flags


def _build_sweep(workers: int, cache: Optional[str], no_resume: bool) -> Sweep:
    """The :class:`~repro.sim.runner.Sweep` the ``run`` flags describe:
    more than one worker means the pool, otherwise the sweep is serial."""
    return Sweep(
        executor=ProcessPoolSweepExecutor(n_jobs=workers) if workers != 1 else None,
        journal=(
            ResultCache(cache, resume=not no_resume) if cache is not None else None
        ),
    )


def _cmd_run_body(
    args: argparse.Namespace, spec: ExperimentSpec, sweep: Sweep
) -> int:
    settings = spec.settings.quick() if args.quick else spec.settings()
    output = spec.run(settings, sweep)
    text = render_text(output)
    print(text)
    if args.out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(args.out, text + "\n")
        print(f"\n[written to {args.out}]")
    if args.json:
        from repro.experiments.persistence import save_output

        save_output(output, args.json)
        print(f"[structured result written to {args.json}]")
    return 0


def _cmd_schemes() -> int:
    from repro.experiments.schemes import available_schemes

    for name in available_schemes():
        print(name)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.trace_iterations and not args.trace:
        print("error: --trace-iterations requires --trace FILE", file=sys.stderr)
        return 2
    if args.trace:
        from repro.obs.recorder import use_recorder
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder(
            args.trace, iteration_detail=args.trace_iterations
        )
        with recorder, use_recorder(recorder):
            status = _cmd_solve_body(args)
        print(f"[trace: {recorder.n_records} records written to {args.trace}]")
        return status
    return _cmd_solve_body(args)


def _cmd_solve_body(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import build_schemes

    config = SimulationConfig(
        n_users=args.users,
        n_servers=args.servers,
        n_subbands=args.subbands,
        workload_megacycles=args.workload_mc,
        input_kb=args.input_kb,
    )
    scenario = Scenario.build(config, seed=args.seed)
    names = [name.strip() for name in args.schemes.split(",") if name.strip()]
    if "TSAJS-Shard" in names:
        from repro.net.pathloss import UrbanMacroPathLoss
        from repro.sim.validation import validate_sharding_geometry

        validate_sharding_geometry(
            args.cluster_radius,
            args.interference_radius
            if args.interference_radius is not None
            else config.inter_site_distance_km,
            tx_power_watts=config.tx_power_watts,
            noise_watts=config.noise_watts,
            pathloss=UrbanMacroPathLoss(
                intercept_db=config.pathloss_intercept_db,
                slope_db=config.pathloss_slope_db,
            ),
            topology=scenario.topology,
        )
    print(
        f"instance: U={args.users} S={args.servers} N={args.subbands} "
        f"w={args.workload_mc:.0f} Mc d={args.input_kb:.0f} KB seed={args.seed}"
    )
    schedulers = build_schemes(
        names,
        quick=args.quick,
        use_batch=args.batch,
        batch_size=args.batch_size,
        cluster_radius_km=args.cluster_radius,
        interference_radius_km=args.interference_radius,
        max_reconcile_rounds=args.reconcile_rounds,
    )
    for index, scheduler in enumerate(schedulers):
        rng = child_rng(args.seed, 100 + index)
        result = scheduler.schedule(scenario, rng)
        print(
            f"{scheduler.name:12s} utility={result.utility:10.4f} "
            f"offloaded={result.decision.n_offloaded():3d}/{args.users:<3d} "
            f"time={result.wall_time_s:7.3f}s"
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.obs.analyze import explain
    from repro.obs.trace import read_trace

    path = Path(args.path)
    if path.is_dir():
        path = path / "trace.jsonl"
    try:
        records = read_trace(path)
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(explain(records))
    except BrokenPipeError:
        # Output piped into head/less and the reader quit: not an error.
        # Detach stdout so the interpreter's shutdown flush stays quiet.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _cmd_episode(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import build_schemes
    from repro.sim.episodes import EpisodeConfig, run_episode

    config = EpisodeConfig(
        base=SimulationConfig(
            n_users=0, n_servers=args.servers, n_subbands=args.subbands
        ),
        pool_size=args.pool,
        n_slots=args.slots,
        activity_probability=args.activity,
        reposition_probability=args.churn,
        server_outage_probability=args.outage,
    )
    scheduler = build_schemes([args.scheme], quick=args.quick)[0]
    result = run_episode(config, scheduler, seed=args.seed)
    print(
        f"episode: pool={args.pool} slots={args.slots} scheme={args.scheme} "
        f"activity={args.activity} churn={args.churn} outage={args.outage}"
    )
    print(f"{'slot':>4} {'active':>6} {'offloaded':>9} {'down':>6} {'J':>9}")
    for record in result.slots:
        down = ",".join(map(str, record.failed_servers)) or "-"
        print(
            f"{record.slot:>4} {len(record.active_users):>6} "
            f"{record.metrics.n_offloaded:>9} {down:>6} "
            f"{record.metrics.system_utility:>9.3f}"
        )
    summary = result.utility_summary()
    print(
        f"\nmean utility/slot = {summary.mean:.3f} "
        f"(95% CI +/-{summary.ci_halfwidth:.3f}), "
        f"offload ratio = {result.offload_ratio_summary().mean:.0%}, "
        f"outage events = {result.total_outage_slots()}"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.annealing import AnnealingSchedule
    from repro.core.degradation import DEGRADATION_POLICIES, degrade
    from repro.core.scheduler import TsajsScheduler
    from repro.faults import FaultConfig, apply_faults, draw_faults_for_seed

    config = SimulationConfig(
        n_users=args.users, n_servers=args.servers, n_subbands=args.subbands
    )
    scenario = Scenario.build(config, seed=args.seed)
    schedule = (
        AnnealingSchedule(min_temperature=1e-2) if args.quick else AnnealingSchedule()
    )
    planner = TsajsScheduler(schedule=schedule)
    plan = planner.schedule(scenario, child_rng(args.seed, 100))
    fault_config = FaultConfig(
        server_outage_probability=args.outage,
        server_degradation_probability=args.degraded,
        degraded_capacity_fraction=args.degraded_capacity,
        band_outage_probability=args.band_outage,
        arrival_churn_probability=args.churn,
    )
    faults = draw_faults_for_seed(
        fault_config,
        scenario.n_users,
        scenario.n_servers,
        scenario.n_subbands,
        args.seed,
    )
    faulted = apply_faults(scenario, faults)
    print(
        f"instance: U={args.users} S={args.servers} N={args.subbands} "
        f"seed={args.seed}"
    )
    print(f"planned utility (fault-free) = {plan.utility:.4f}")
    print(
        f"faults: down={sorted(faults.failed_servers) or '-'} "
        f"degraded={[s for s, _ in faults.degraded_servers] or '-'} "
        f"dead bands={sorted(faults.failed_bands) or '-'} "
        f"churned users={sorted(faults.churned_users) or '-'}"
    )
    policies = (
        list(DEGRADATION_POLICIES) if args.policy == "both" else [args.policy]
    )
    for index, policy in enumerate(policies):
        degraded = degrade(
            faulted,
            plan,
            faults,
            policy,
            rng=child_rng(args.seed, 200 + index),
            schedule=schedule,
        )
        print(
            f"{policy:15s} utility={degraded.degraded_utility:10.4f} "
            f"retention={degraded.utility_retention:6.1%} "
            f"fallback={degraded.n_fallback:3d} churned={degraded.n_churned:3d} "
            f"repair={degraded.reschedule_wall_time_s:.3f}s"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``tsajs`` console script)."""
    args = _build_parser().parse_args(argv)
    with float_error_mode():
        try:
            return _dispatch(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "episode":
        return _cmd_episode(args)
    if args.command == "faults":
        return _cmd_faults(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
