"""Command-line harness: ``python -m repro.bench <experiment>``.

Runs one (or all) figure/ablation experiments on the simulated testbed
and prints — optionally persists — the measured series with the
paper-shape checks.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time


def _experiments() -> dict:
    from repro.bench.ablations import ALL_ABLATIONS
    from repro.bench.audit_scenario import ALL_AUDIT_SCENARIOS
    from repro.bench.chaos_scenario import ALL_CHAOS_SCENARIOS
    from repro.bench.crash_scenario import ALL_CRASH_SCENARIOS
    from repro.bench.fastforward_scenario import ALL_FASTFORWARD_SCENARIOS
    from repro.bench.figures import ALL_FIGURES
    from repro.bench.overload_scenario import ALL_OVERLOAD_SCENARIOS
    from repro.bench.service_scenario import ALL_SCENARIOS
    out = dict(ALL_FIGURES)
    out.update(ALL_ABLATIONS)
    out.update(ALL_SCENARIOS)
    out.update(ALL_CHAOS_SCENARIOS)
    out.update(ALL_CRASH_SCENARIOS)
    out.update(ALL_AUDIT_SCENARIOS)
    out.update(ALL_OVERLOAD_SCENARIOS)
    out.update(ALL_FASTFORWARD_SCENARIOS)
    return out


def _run_experiment(func, volume, seed):
    """Call one experiment, forwarding ``seed`` only where supported."""
    import inspect
    if "seed" in inspect.signature(func).parameters:
        return func(volume, seed=seed)
    return func(volume)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        # Grid benchmark subcommand (own option surface) — see
        # repro.bench.sweep for --workers.
        from repro.bench.sweep import main as sweep_main
        return sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures on the simulated testbed.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig10 ablation_shuffle) "
                             "or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write <id>.txt reports into")
    parser.add_argument("--volume", type=int, default=None,
                        help="override per-point simulated volume (bytes)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed for seeded scenarios "
                             "(e.g. the chaos campaigns)")
    parser.add_argument("--plot", action="store_true",
                        help="append an ASCII chart of the measured series")
    parser.add_argument("--json", action="store_true",
                        help="also write <id>.json next to the text report "
                             "(requires --out)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="record every simulator phase, coordinator "
                             "decision and service request span, then write "
                             "a Chrome trace_event JSON (or a JSONL span "
                             "log if the path ends in .jsonl)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each experiment and print the "
                             "top-20 cumulative hotspots (with --out, "
                             "also dump <id>.prof for snakeviz/pstats)")
    args = parser.parse_args(argv)
    if args.json and args.out is None:
        parser.error("--json requires --out")

    table = _experiments()
    if args.list or not args.experiments:
        width = max(len(n) for n in table)
        for name, func in table.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}}  {doc}")
        print(f"{'sweep':<{width}}  Grid benchmark: serial vs parallel vs "
              "warm memo (see 'sweep --help')")
        return 0

    names = list(table) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see what is available", file=sys.stderr)
        return 2

    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer, set_tracer
        tracer = Tracer("repro.bench")
        set_tracer(tracer)

    failed = 0
    try:
        for name in names:
            t0 = time.time()
            # Experiment marker spans live detached on their own track:
            # the runs inside sequence themselves onto the timeline.
            mark = (tracer.begin(f"bench.{name}", tracer.max_ts,
                                 detached=True, track="bench")
                    if tracer is not None else None)
            profiler = None
            if args.profile:
                import cProfile
                profiler = cProfile.Profile()
                profiler.enable()
            try:
                result = _run_experiment(table[name], args.volume, args.seed)
            finally:
                if profiler is not None:
                    profiler.disable()
            if mark is not None:
                mark.end(tracer.max_ts)
            text = result.render()
            if args.plot:
                from repro.bench.plotting import ascii_chart
                text += "\n\n" + ascii_chart(result)
            print(text)
            print(f"  ({time.time() - t0:.1f}s)\n")
            if profiler is not None:
                import io
                import pstats
                buf = io.StringIO()
                stats = pstats.Stats(profiler, stream=buf)
                stats.sort_stats("cumulative").print_stats(20)
                print(f"-- profile: {name} (top 20 by cumulative) --")
                print(buf.getvalue())
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{result.fig_id}.txt").write_text(text + "\n")
                if args.json:
                    import json
                    (args.out / f"{result.fig_id}.json").write_text(
                        json.dumps(result.to_dict(), indent=2) + "\n")
                if profiler is not None:
                    profiler.dump_stats(args.out / f"{result.fig_id}.prof")
            if not result.all_passed:
                failed += 1
    finally:
        if tracer is not None:
            from repro.obs import set_tracer, write_trace
            set_tracer(None)
            path = write_trace(tracer, args.trace)
            print(f"trace: {len(tracer.spans)} spans, "
                  f"{len(tracer.events)} events -> {path}")
    if failed:
        print(f"{failed} experiment(s) had failing shape checks",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
