"""Command-line runner: streaming QMC runs with checkpoint/restart.

``python -m repro.run`` drives :class:`repro.parallel.crowds.
ParallelCrowdDriver` (workers=0 runs the in-process crowd driver,
:class:`repro.batched.driver.BatchedCrowdDriver`, the bitwise serial
reference) with the full streaming pipeline: per-generation binary
trace rows, online reblocked error bars, and — with
``--checkpoint-every N`` — a durable
:class:`~repro.output.runstate.RunCheckpoint` every N generations
holding the RNG states, the walker block, the online-stat states and
the trace offset.  ``--resume`` continues a killed run from its last
checkpoint to a byte-identical trace and identical error bars (the
contract ``tests/integration/test_restart_parity.py`` asserts).

Examples::

    python -m repro.run --mode dmc --walkers 16 --steps 200 --workers 4 \
        --trace out/run.trace --checkpoint out/run.ckpt --checkpoint-every 10
    # ... kill it mid-run, then continue where the checkpoint left off:
    python -m repro.run --mode dmc --walkers 16 --steps 120 --workers 4 \
        --trace out/run.trace --checkpoint out/run.ckpt \
        --checkpoint-every 10 --resume
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.run",
        description="Streaming QMC run with online error bars and "
                    "bitwise checkpoint/restart.")
    p.add_argument("--mode", choices=("vmc", "dmc"), default="vmc")
    p.add_argument("--walkers", type=int, default=16,
                   help="population size (default 16)")
    p.add_argument("--steps", type=int, default=50,
                   help="generations to run in this invocation")
    p.add_argument("--workers", type=int, default=0,
                   help="crowd processes; 0 = serial reference (default)")
    p.add_argument("--seed", type=int, default=11,
                   help="master seed for all walker RNG streams")
    p.add_argument("--electrons", type=int, default=8,
                   help="electrons in the Jastrow test system (default 8)")
    p.add_argument("--system-seed", type=int, default=7,
                   help="seed for ion/electron lattice construction")
    p.add_argument("--timestep", type=float, default=0.3)
    p.add_argument("--nlpp", action="store_true",
                   help="include the non-local pseudopotential term")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="binary trace file (repro.trace v1)")
    p.add_argument("--flush-every", type=int, default=1, metavar="N",
                   help="trace rows per CRC-sealed chunk (default 1)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="run-checkpoint file (npz)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint every N generations (0 = never)")
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint for --steps more "
                        "generations (bitwise)")
    p.add_argument("--min-blocks", type=int, default=8,
                   help="reblocking plateau search floor (default 8)")
    return p


def _usage_error(args: argparse.Namespace,
                 unknown: Sequence[str]) -> Optional[str]:
    """The first argument combination the run would reject, or None."""
    if unknown:
        return f"unrecognized arguments: {' '.join(unknown)}"
    for flag, value, low in (("--walkers", args.walkers, 1),
                             ("--steps", args.steps, 1),
                             ("--flush-every", args.flush_every, 1),
                             ("--workers", args.workers, 0),
                             ("--checkpoint-every", args.checkpoint_every, 0)):
        if value < low:
            return f"{flag} must be >= {low}, got {value}"
    if args.resume and not args.checkpoint:
        return "--resume requires --checkpoint"
    if args.checkpoint_every > 0 and not args.checkpoint:
        return "--checkpoint-every requires --checkpoint"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    problem = _usage_error(args, unknown)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # Imports deferred so --help stays fast and dependency-light.
    from repro.batched.system import JastrowSystemSpec
    from repro.output.runstate import load_run_checkpoint
    from repro.output.stream import StreamSet
    from repro.parallel.crowds import ParallelCrowdDriver

    spec = JastrowSystemSpec(n=args.electrons, seed=args.system_seed,
                             with_nlpp=args.nlpp)
    resume = None
    if args.resume:
        resume = load_run_checkpoint(args.checkpoint)
        streams = StreamSet.resume(
            resume, trace_path=args.trace, flush_every=args.flush_every,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every)
        print(f"resuming from {args.checkpoint} at generation "
              f"{resume.step}")
    else:
        meta = {"mode": args.mode, "walkers": args.walkers,
                "seed": args.seed, "electrons": args.electrons,
                "timestep": args.timestep, "nlpp": bool(args.nlpp)}
        streams = StreamSet(
            trace_path=args.trace, meta=meta, flush_every=args.flush_every,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every)
    driver = ParallelCrowdDriver(
        spec, args.walkers, args.seed, workers=args.workers,
        timestep=args.timestep)
    with driver, streams:
        result = driver.run(args.steps, mode=args.mode, streams=streams,
                            resume=resume)
    print(result.summary())
    if result.online.names():
        print(result.online.report(min_blocks=args.min_blocks))
    if args.trace:
        print(f"trace: {args.trace}")
    if args.checkpoint and args.checkpoint_every > 0:
        print(f"checkpoint: {args.checkpoint} "
              f"(every {args.checkpoint_every} generations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
