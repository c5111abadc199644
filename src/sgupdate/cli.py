"""Command-line front end.

Subcommands:

* ``run`` — execute a scenario, write the run log, final graph and metrics.
* ``query`` — list objects in a stored graph, filtered by room and/or label.
* ``stale`` — report objects whose persistence fell below a threshold.
* ``repl`` — apply update sentences to a graph interactively.
* ``validate`` — static-check a scenario file without running it.

Exit status 0 on success, 2 on a scenario/input problem.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decay import stale_targets
from .graph import ParseError, UnknownRoom, _norm_label, deserialize, serialize
from .harness import (
    ScenarioError,
    format_metrics_table,
    load_scenario,
    run_scenario,
)
from .human import Confidence, parse_statement, to_record
from .records import apply as apply_record
from .simworld import InconsistentAction

__all__ = ["main", "build_parser"]


def _parse_override(text: str):
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"override {text!r} is not key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings don't need quoting
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgupdate", description="Scene-graph updating toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.add_argument("--out", default=None, help="directory for run artifacts")
    p_run.add_argument(
        "--set",
        dest="overrides",
        type=_parse_override,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario field via dotted key, e.g. perception.k=3",
    )

    p_query = sub.add_parser("query", help="list objects in a stored graph")
    p_query.add_argument("graph", help="path to graph JSON")
    p_query.add_argument("--room", default=None, help="restrict to one room label")
    p_query.add_argument("--label", default=None, help="restrict to one object label")

    p_stale = sub.add_parser("stale", help="objects likely to have moved since last seen")
    p_stale.add_argument("graph", help="path to graph JSON")
    p_stale.add_argument("--now", type=float, required=True, help="current time (seconds)")
    p_stale.add_argument(
        "--threshold", type=float, default=0.5, help="persistence cutoff in (0, 1)"
    )

    p_repl = sub.add_parser("repl", help="apply update sentences interactively")
    p_repl.add_argument("graph", help="path to graph JSON")
    p_repl.add_argument("--save", default=None, help="write the edited graph here on exit")

    p_val = sub.add_parser("validate", help="static-check a scenario file")
    p_val.add_argument("scenario", help="path to scenario JSON")

    return parser


def _load_graph(path: str):
    try:
        return deserialize(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        print(f"error: graph file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario, dict(args.overrides) or None)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_scenario(scenario)
    except InconsistentAction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = format_metrics_table(result.metrics)
    print(table)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "runlog.jsonl").write_text(result.log.to_jsonl(), "utf-8")
        (out / "final_graph.json").write_bytes(serialize(result.graph))
        (out / "metrics.json").write_text(
            json.dumps(result.metrics.to_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
        (out / "metrics.txt").write_text(table + "\n", "utf-8")
        print(f"artifacts written to {out}")
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph(args.graph)
    ids = sorted(graph.objects)
    if args.room is not None:
        try:
            room = graph.room_by_label(args.room)
        except UnknownRoom as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ids = graph.objects_in_room(room.id)
    if args.label is not None:
        wanted = _norm_label(args.label)
        ids = [oid for oid in ids if graph.objects[oid].label == wanted]
    for oid in ids:
        node = graph.objects[oid]
        room_id = graph.belongs_to.get(oid)
        room = graph.rooms[room_id].label if room_id else "(detached)"
        x, y, z = node.pose.t
        print(f"{oid}  label={node.label!r}  room={room}  t=({x:.3f}, {y:.3f}, {z:.3f})")
    print(f"{len(ids)} object(s)")
    return 0


def _cmd_stale(args) -> int:
    graph = _load_graph(args.graph)
    try:
        report = stale_targets(graph, args.now, args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in report.entries:
        node = graph.objects[entry.object_id]
        room_id = graph.belongs_to.get(entry.object_id)
        room = graph.rooms[room_id].label if room_id else "(detached)"
        print(
            f"{entry.object_id}  label={node.label!r}  room={room}"
            f"  persistence={entry.probability:.4f}"
        )
    print(f"{len(report.entries)} candidate(s) below {args.threshold}")
    return 0


def _cmd_repl(args) -> int:
    graph = _load_graph(args.graph)
    print("enter update sentences (blank line or EOF to finish):")
    clock = graph.epoch
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            break
        if not line:
            break
        parse = parse_statement(line)
        if parse.confidence is Confidence.FAILED:
            print("  could not understand that sentence")
            continue
        clock += 1.0
        report = apply_record(graph, to_record(parse, now=clock))
        print(f"  {report.status.value}" + (f": {report.reason}" if report.reason else ""))
    if args.save:
        Path(args.save).write_bytes(serialize(graph))
        print(f"graph written to {args.save}")
    return 0


def _cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"{args.scenario}: ok")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "query": _cmd_query,
        "stale": _cmd_stale,
        "repl": _cmd_repl,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
