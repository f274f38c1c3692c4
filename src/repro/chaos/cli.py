"""``repro-chaos``: one front door for the chaos suites.

Subcommands::

    repro-chaos soak     [...]   # wire-fault soak
    repro-chaos cores    [...]   # core-fault matrix
    repro-chaos overload [...]   # memory-budget soak
    repro-chaos cluster  [...]   # cluster network-fault soak
    repro-chaos ranks    [...]   # rank fail-stop soak
    repro-chaos health   [...]   # health-alarm lanes (repro.chaos.health)

The first five are rows of :data:`repro.chaos.suites.SUITES` and share
one parser (``--schedules``, ``--seed-base``, repeatable ``--lane``,
``--jobs``, ``--cache-dir``, ``-v``, plus each suite's own size,
artifact and ``--assert-*`` flags). Exit 0 when every run and assert
row holds, 1 otherwise, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from functools import reduce

from repro.chaos.runner import Suite, run_suite
from repro.chaos.suites import SUITES
from repro.obs.ledger import LedgerDump
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer

__all__ = ["main"]

_HEALTH = "health-alarm lanes (fault fires its alarm, clean twin silent)"

_USAGE = (
    f"usage: repro-chaos {{{','.join([*SUITES, 'health'])}}} [options]\n\n"
    + "".join(f"  {name:<9} {suite.help}\n" for name, suite in SUITES.items())
    + f"  {'health':<9} {_HEALTH}\n\n"
    "Run `repro-chaos <subcommand> --help` for subcommand options.\n"
)

_ARTIFACT_HELP = {
    "trace": "write a Perfetto trace of each lane's most eventful seed",
    "ledger": "write a flight-recorder ledger of each lane's most eventful seed "
    "and of every failing one (whose passport is printed)",
    "metrics": "write a cumulative metrics snapshot (JSON) of every run",
}


def _positive(text: str) -> int:
    """The one check on counts: a soak of zero anything proves nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parser(suite: Suite) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"repro-chaos {suite.name}", description=suite.help)
    parser.add_argument(
        "--schedules", type=_positive, default=suite.schedules, help="seeds per lane"
    )
    parser.add_argument("--seed-base", type=int, default=1, help="first seed")
    parser.add_argument(
        "--lane", action="append", dest="lanes", choices=list(suite.lanes),
        help="run only this lane (repeatable; default: all)",
    )
    if suite.sized:
        parser.add_argument("--ranks", type=_positive)
        parser.add_argument("--rounds", type=_positive)
    parser.add_argument(
        "--jobs", type=_positive, default=1, help="fleet worker processes (1 = inline)"
    )
    parser.add_argument("--cache-dir", help="content-addressed result cache")
    parser.add_argument("-v", "--verbose", action="store_true")
    for kind in suite.artifacts:
        parser.add_argument(f"--{kind}-out", metavar="PATH", help=_ARTIFACT_HELP[kind])
    for row in suite.asserts:
        if row.flag is not None:
            parser.add_argument(
                f"--assert-{row.flag}", dest="asserts", action="append_const",
                const=row.flag, help=row.help,
            )
    parser.set_defaults(asserts=[])
    return parser


def _run(suite: Suite, args: argparse.Namespace) -> int:
    # Every parser dest but the artifact paths is a run_suite keyword.
    opts = vars(args)
    paths = {kind: opts.pop(f"{kind}_out", None) for kind in ("trace", "ledger", "metrics")}
    tracer = SpanTracer() if paths["trace"] else None
    registry = MetricsRegistry() if paths["metrics"] else None
    ledger: list[LedgerDump] | None = [] if paths["ledger"] else None
    result = run_suite(suite, **opts, registry=registry, tracer=tracer, ledger_sink=ledger)
    if tracer is not None:
        tracer.write(paths["trace"])
        print(f"trace: {paths['trace']} ({len(tracer)} events)")
    if ledger is not None:
        dump = reduce(LedgerDump.merge, ledger, LedgerDump())
        with open(paths["ledger"], "w", encoding="utf-8") as fp:
            fp.write(dump.to_json())
        records = sum(len(payload.get("records", ())) for payload in dump.scenarios.values())
        print(f"ledger: {paths['ledger']} ({len(dump.scenarios)} scenarios, {records} records)")
    if registry is not None:
        snapshot = registry.snapshot()
        with open(paths["metrics"], "w", encoding="utf-8") as fp:
            fp.write(snapshot.to_json())
        print(f"metrics: {paths['metrics']} ({len(snapshot.values)} series)")
    print(suite.totals.format(**result.fields()))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "health":
        from repro.chaos.health import main as health_main

        return health_main(rest)
    if command not in SUITES:
        print(f"repro-chaos: unknown subcommand {command!r}", file=sys.stderr)
        print(_USAGE, end="", file=sys.stderr)
        return 2
    try:
        args = _parser(SUITES[command]).parse_args(rest)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    return _run(SUITES[command], args)


if __name__ == "__main__":
    raise SystemExit(main())
