"""Argparse helpers shared by the repro-lock and repro-experiments CLIs."""

from __future__ import annotations


def add_backend_arguments(parser):
    """The executor-backend flag trio shared by campaign-running CLIs."""
    from repro.campaign import DEFAULT_BIND, backend_names

    parser.add_argument(
        "--backend", default=None, choices=backend_names(),
        help="execution policy for pending cells (default: inline for "
             "--jobs 1, else a local process pool)")
    parser.add_argument(
        "--bind", default=None, metavar="HOST:PORT",
        help="scheduler listen address for --backend distributed "
             f"(default {DEFAULT_BIND}; port 0 picks a free port)")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="with --backend distributed: wait until N workers "
             "registered before dispatching cells (default 1)")
    parser.add_argument(
        "--secret", default=None, metavar="SECRET",
        help="shared fleet secret: authenticate every scheduler/worker "
             "frame with an HMAC trailer (default: $REPRO_SECRET; "
             "unset = unauthenticated)")


def make_executor_backend(args, err):
    """The ``backend`` argument for :class:`repro.campaign.Campaign`
    from the CLI flag trio; distributed events stream to ``err``."""
    from repro.campaign import DEFAULT_BIND
    from repro.errors import ReproError

    backend = getattr(args, "backend", None)
    if backend != "distributed":
        if args.bind is not None or args.workers is not None:
            raise ReproError(
                "--bind/--workers configure the distributed scheduler; "
                "add --backend distributed (or drop them)")
        return backend
    if getattr(args, "jobs", 1) > 1:
        # Mirror resolve_backend("distributed", jobs=N): concurrency
        # comes from the registered workers, never from --jobs.
        raise ReproError(
            "the distributed backend takes its concurrency from the "
            "registered workers; drop --jobs (use --workers to wait for "
            "a minimum fleet instead)")
    from repro.campaign.scheduler import DistributedBackend

    def on_event(message):
        err.write(f"[scheduler] {message}\n")

    return DistributedBackend(
        bind=args.bind if args.bind is not None else DEFAULT_BIND,
        min_workers=args.workers if args.workers is not None else 1,
        on_event=on_event, secret=getattr(args, "secret", None))
