"""Batch command-line front end with stable machine-readable output.

Subcommands cover validation, extraction, counting, comparison and
enumeration.  Exit codes: 0 success / affirmative, 1 completed run with
a negative answer (invalid object, no witness, unrealizable input),
2 malformed input, 3 configured resource limit exceeded.

Each command returns its answer, an exit code with a JSON payload and
text lines, and :func:`main` alone prints it.  With ``--json`` the output
stream carries exactly one JSON document and all human-readable
diagnostics go to the error stream; identical invocations produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from .. import equivalence, extraction, hurwitz, monodromy, park
from ..errors import NonRealizableError, Report, ResourceLimitError

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_SHEETS = 10


class _CliFailure(Exception):
    """Internal control flow: carries the exit code, a message and the
    JSON payload that :func:`main` prints with it."""

    def __init__(self, code: int, message: str, payload: dict[str, Any] | None = None):
        super().__init__(message)
        self.code = code
        self.payload = payload or {}


#: What a command returns: its exit code, JSON payload and text lines.
_Answer = tuple[int, dict[str, Any], list[str]]


def _dump_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliFailure(EXIT_MALFORMED, f"cannot read {path}: {exc}") from exc
    # bad JSON or UTF-8, or nesting too deep
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _CliFailure(EXIT_MALFORMED, f"{path} is not valid JSON: {exc}") from exc
    # the one other ValueError that parsing raises: an integer past the
    # interpreter's digit limit
    except ValueError as exc:
        raise _CliFailure(
            EXIT_MALFORMED,
            f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits",
        ) from exc


def _load_monodromy(path: str, max_sheets: int) -> monodromy.MonodromyRep:
    return _parse_monodromy(_load_json_file(path), path, max_sheets)


def _parse_monodromy(obj: Any, path: str, max_sheets: int) -> monodromy.MonodromyRep:
    """The representation whose shapes parse and whose ground set fits
    ``max_sheets``; a shape that does not parse is malformed input."""
    try:
        rep = monodromy.from_json_dict(obj)
    except ValueError as exc:
        raise _CliFailure(EXIT_MALFORMED, f"{path}: {exc}") from exc
    _check_sheets(2 * rep.degree, max_sheets)
    return rep


def _load_park(path: str) -> tuple[park.Park, Report]:
    return _parse_park(_load_json_file(path), path)


def _parse_park(obj: Any, path: str) -> tuple[park.Park, Report]:
    """A park whose shapes parse and whose ids are unique and resolve, with
    its validation report; anything else is malformed input."""
    try:
        built = park.from_json_dict(obj)
        return built, park.validate_park(built)
    except ValueError as exc:
        raise _CliFailure(EXIT_MALFORMED, f"{path}: {exc}") from exc


def _require_valid(payload: dict[str, Any], *inputs: tuple[str, Any]) -> None:
    """Refuse, exit 1 with ``payload``, the first ``(path, input)`` that
    fails its check, as ``<path>: <reason>``: a representation through the
    library's gate, a park by the report that loading it made."""
    for path, loaded in inputs:
        try:
            if not isinstance(loaded, Report):
                monodromy.require_generic(loaded)
            elif not loaded:
                raise ValueError("park fails validation: " + loaded.first_three())
        except ValueError as exc:
            raise _CliFailure(EXIT_NEGATIVE, f"{path}: {exc}", payload) from exc


def _check_sheets(sheets: int, max_sheets: int) -> None:
    if sheets > max_sheets:
        raise _CliFailure(
            EXIT_RESOURCE,
            f"ground set size {sheets} exceeds --max-sheets {max_sheets}",
        )


def _fraction_payload(value: Fraction) -> dict[str, Any]:
    return {
        "value": str(value),
        "numerator": value.numerator,
        "denominator": value.denominator,
    }


def _report_payload(report: Report) -> dict[str, Any]:
    return {"ok": report.ok, "problems": report.violations}


def _signature_lists(summary: park.TopSummary) -> dict[str, Any]:
    garden_fields = ("kind", "faces", "edges", "corner_labels")
    node_fields = ("role", "genus", "circles", "degrees", "branch_points")
    return {
        "garden_signatures": [dict(zip(garden_fields, sig)) for sig in summary.garden_signatures],
        "node_signatures": [dict(zip(node_fields, sig)) for sig in summary.node_signatures],
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> _Answer:
    rep = _load_monodromy(args.monodromy, args.max_sheets)
    relations = monodromy.validate_relations(rep)
    mode = "strict" if args.strict else "geometric"
    genericity = monodromy.validate_genericity(rep, mode=mode)
    ok = bool(relations) and bool(genericity)
    payload = {
        "command": "validate",
        "ok": ok,
        "mode": mode,
        "relations": _report_payload(relations),
        "genericity": _report_payload(genericity),
    }
    lines = [f"relations: {'ok' if relations else 'FAILED'}"]
    lines += [f"  {label}: {reason}" for label, reason in relations.violations]
    lines.append(f"genericity ({mode}): {'ok' if genericity else 'FAILED'}")
    lines += [f"  {label}: {reason}" for label, reason in genericity.violations]
    return (EXIT_OK if ok else EXIT_NEGATIVE), payload, lines


def _cmd_extract(args) -> _Answer:
    rep = _load_monodromy(args.monodromy, args.max_sheets)
    refused = {"command": "extract", "ok": False}
    _require_valid(refused, (args.monodromy, rep))
    try:
        built = extraction.monodromy_to_park(rep)
    except NonRealizableError as exc:
        raise _CliFailure(EXIT_NEGATIVE, f"{args.monodromy}: {exc}", refused) from exc
    park_obj = park.to_json_dict(built)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(_dump_json(park_obj))
        except OSError as exc:
            raise _CliFailure(EXIT_MALFORMED, f"cannot write {args.output}: {exc}") from exc
        summary = park.type_summary(built)
        payload = {
            "command": "extract",
            "ok": True,
            "output": args.output,
            "degree": summary.degree,
            "genus": summary.genus,
            "critical_values": summary.critical_values,
            "gardens": len(built.gardens),
            "nodes": len(built.nodes),
        }
        lines = [
            f"extracted park: d={summary.degree} g={summary.genus} "
            f"n={summary.critical_values}",
            f"written to {args.output}",
        ]
        return EXIT_OK, payload, lines
    return EXIT_OK, park_obj, [_dump_json(park_obj).rstrip("\n")]


def _cmd_validate_park(args) -> _Answer:
    _, report = _load_park(args.park)
    payload = {
        "command": "validate-park",
        "ok": report.ok,
        "violations": report.violations,
    }
    lines = [f"park: {'ok' if report.ok else 'INVALID'}"]
    lines += [f"  {code}: {detail}" for code, detail in report.violations]
    return (EXIT_OK if report.ok else EXIT_NEGATIVE), payload, lines


def _cmd_info(args) -> _Answer:
    obj = _load_json_file(args.file)
    if isinstance(obj, dict) and "degree" in obj:
        return _info_monodromy(args, obj)
    if isinstance(obj, dict) and "gardens" in obj:
        return _info_park(args, obj)
    raise _CliFailure(
        EXIT_MALFORMED,
        f"{args.file}: cannot detect schema "
        "(expected a 'degree' or 'gardens' top-level key)",
    )


def _info_monodromy(args, obj: Any) -> _Answer:
    rep = _parse_monodromy(obj, args.file, args.max_sheets)
    relations = monodromy.validate_relations(rep)
    genericity = monodromy.validate_genericity(rep)
    try:
        g: int | None = monodromy.genus_from_counts(rep)
    except NonRealizableError:
        g = None
    n = rep.critical_value_count
    payload = {
        "command": "info",
        "schema": "monodromy",
        "degree": rep.degree,
        "genus": g,
        "critical_values": n,
        "cone_points": rep.cone_points,
        "corner_points": rep.corner_points,
        "relations_ok": relations.ok,
        "genericity_ok": genericity.ok,
    }
    genus_text = "-" if g is None else str(g)
    lines = [
        f"monodromy: d={rep.degree} g={genus_text} n={n} "
        f"t={rep.cone_points} s={rep.corner_points}",
        f"relations: {'ok' if relations else 'FAILED'}",
        f"genericity: {'ok' if genericity else 'FAILED'}",
    ]
    return EXIT_OK, payload, lines


def _info_park(args, obj: Any) -> _Answer:
    built, report = _parse_park(obj, args.file)
    _require_valid({"command": "info", "schema": "park", "ok": False}, (args.file, report))
    summary = park.type_summary(built)
    payload = {
        "command": "info",
        "schema": "park",
        "degree": summary.degree,
        "genus": summary.genus,
        "critical_values": summary.critical_values,
        "cone_points": summary.cone_points,
        "corner_points": summary.corner_points,
        **_signature_lists(summary),
    }
    lines = [
        f"park: d={summary.degree} g={summary.genus} n={summary.critical_values} "
        f"t={summary.cone_points} s={summary.corner_points}",
        f"gardens: {len(built.gardens)}  nodes: {len(built.nodes)}  "
        f"alleys: {len(built.alleys)}",
    ]
    for role, g, k, degs, b in summary.node_signatures:
        degs_text = ",".join(str(x) for x in degs)
        lines.append(f"  {role}: genus={g} circles={k} degrees=({degs_text}) b={b}")
    return EXIT_OK, payload, lines


def _degree_bound(args) -> int:
    """``--max-degree``, defaulting to the library's bound; the parser
    leaves it ``None`` so that building it loads no library module."""
    return hurwitz.DEFAULT_DEGREE_BOUND if args.max_degree is None else args.max_degree


def _cmd_hurwitz(args) -> _Answer:
    built, report = _load_park(args.park)
    _require_valid({"command": "hurwitz", "ok": False}, (args.park, report))
    value = hurwitz.park_hurwitz(built, _degree_bound(args))
    payload = {"command": "hurwitz", "ok": True, **_fraction_payload(value)}
    return EXIT_OK, payload, [str(value)]


def _cmd_single_hurwitz(args) -> _Answer:
    try:
        genus = int(args.genus)
        degrees = tuple(int(part) for part in args.degrees.split(","))
    except ValueError as exc:
        raise _CliFailure(
            EXIT_MALFORMED, f"malformed genus/degrees: {exc}"
        ) from exc
    if genus < 0 or not degrees or any(d < 1 for d in degrees):
        raise _CliFailure(
            EXIT_MALFORMED,
            "genus must be >= 0 and degrees a comma-separated list of"
            " positive integers",
        )
    value = hurwitz.single_hurwitz(genus, degrees, degree_bound=_degree_bound(args))
    payload = {
        "command": "single-hurwitz",
        "genus": genus,
        "degrees": degrees,
        **_fraction_payload(value),
    }
    return EXIT_OK, payload, [str(value)]


def _witness_payload(witness: equivalence.ParkIsomorphism) -> dict[str, Any]:
    payload: dict[str, Any] = {"rotation": witness.rotation, "reflected": witness.reflected}
    for name in park.CELL_TYPES:
        payload[name] = {str(k): v for k, v in sorted(getattr(witness, name).items())}
    return payload


def _cmd_isomorphic(args) -> _Answer:
    first, first_report = _load_park(args.park_a)
    second, second_report = _load_park(args.park_b)
    refused = {"command": "isomorphic", "ok": False}
    _require_valid(refused, (args.park_a, first_report), (args.park_b, second_report))
    witness = equivalence.park_isomorphic(first, second, allow_reflection=args.allow_reflection)
    if witness is None:
        raise _CliFailure(
            EXIT_NEGATIVE,
            "parks are not isomorphic",
            {"command": "isomorphic", "isomorphic": False},
        )
    payload = {"command": "isomorphic", "isomorphic": True, "witness": _witness_payload(witness)}
    lines = [
        "isomorphic",
        f"corner rotation: {witness.rotation}"
        + (" (reflected)" if witness.reflected else ""),
    ]
    for name in ("gardens", "faces", "edges", "nodes", "vertices"):
        cells = getattr(witness, name)
        if cells or name != "vertices":
            lines.append(
                f"{name + ':':<8} " + " ".join(f"{k}->{v}" for k, v in sorted(cells.items()))
            )
    return EXIT_OK, payload, lines


def _cmd_equivalent(args) -> _Answer:
    first = _load_monodromy(args.monodromy_a, args.max_sheets)
    second = _load_monodromy(args.monodromy_b, args.max_sheets)
    refused = {"command": "equivalent", "ok": False}
    _require_valid(refused, (args.monodromy_a, first), (args.monodromy_b, second))
    witness = equivalence.monodromy_equivalent(first, second)
    if witness is None:
        params = [(m.degree, m.cone_points, m.corner_points) for m in (first, second)]
        raise _CliFailure(
            EXIT_NEGATIVE,
            "no intertwining relabeling found"
            if params[0] == params[1]
            else "not equivalent: (degree, cone, corner) parameters differ: "
            f"{params[0]} against {params[1]}",
            {"command": "equivalent", "equivalent": False},
        )
    payload = {
        "command": "equivalent",
        "equivalent": True,
        "witness": witness.mapping,
    }
    lines = ["equivalent", "relabeling: " + " ".join(str(v) for v in witness.mapping)]
    return EXIT_OK, payload, lines


def _cmd_enumerate(args) -> _Answer:
    _check_sheets(2 * args.degree, args.max_sheets)
    try:
        result = equivalence.enumerate_monodromies(
            args.degree,
            args.cone,
            args.corner,
            dedup=args.dedup,
        )
    except ValueError as exc:
        raise _CliFailure(EXIT_MALFORMED, str(exc)) from exc
    payload = {
        "command": "enumerate",
        "degree": result.degree,
        "cone_points": result.cone_points,
        "corner_points": result.corner_points,
        "dedup": result.dedup,
        "raw_count": result.raw_count,
        "class_count": result.class_count,
        "classes": [
            {"size": cls.size, "representative": monodromy.to_json_dict(cls.representative)}
            for cls in result.classes
        ],
    }
    lines = [
        f"d={result.degree} t={result.cone_points} s={result.corner_points} "
        f"dedup={result.dedup}: {result.raw_count} representations, "
        f"{result.class_count} classes"
    ]
    for idx, cls in enumerate(result.classes, start=1):
        rep = cls.representative
        lines.append(
            f"  class {idx}: size {cls.size}, x={list(map(list, rep.x))}, "
            f"c={list(map(list, rep.c))}"
        )
    return EXIT_OK, payload, lines


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _cap(text: str) -> int:
    """A non-negative integer; anything else is malformed input (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes, of these, only the options its handler reads.
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON on stdout; diagnostics stay on stderr",
    )
    max_sheets = argparse.ArgumentParser(add_help=False)
    max_sheets.add_argument(
        "--max-sheets",
        type=_cap,
        default=DEFAULT_MAX_SHEETS,
        help="largest ground-set size (twice the degree) accepted as input",
    )
    max_degree = argparse.ArgumentParser(add_help=False)
    max_degree.add_argument(
        "--max-degree",
        type=_cap,
        help="largest total covering degree allowed",
    )

    parser = argparse.ArgumentParser(
        prog="parkscope",
        description="Exact invariants of generic real meromorphic functions: "
        "validation, park extraction, Hurwitz counts, comparison, enumeration.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "validate",
        parents=[as_json, max_sheets],
        help="check the defining relations and genericity of a representation",
    )
    p.add_argument("monodromy", help="representation JSON file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="also require every branch generator to fix all black sheets",
    )
    p.set_defaults(handler=_cmd_validate, parser=p)

    p = sub.add_parser(
        "extract",
        parents=[as_json, max_sheets],
        help="build the park of a valid generic representation",
    )
    p.add_argument("monodromy", help="representation JSON file")
    p.add_argument("-o", "--output", help="write the park JSON here")
    p.set_defaults(handler=_cmd_extract, parser=p)

    p = sub.add_parser(
        "validate-park", parents=[as_json], help="check every park axiom"
    )
    p.add_argument("park", help="park JSON file")
    p.set_defaults(handler=_cmd_validate_park, parser=p)

    p = sub.add_parser(
        "info",
        parents=[as_json, max_sheets],
        help="numeric summary (degree, genus, counts, signatures); "
        "schema auto-detected",
    )
    p.add_argument("file", help="representation or park JSON file")
    p.set_defaults(handler=_cmd_info, parser=p)

    p = sub.add_parser(
        "hurwitz", parents=[as_json, max_degree], help="composite Hurwitz number of a park"
    )
    p.add_argument("park", help="park JSON file")
    p.set_defaults(handler=_cmd_hurwitz, parser=p)

    p = sub.add_parser(
        "single-hurwitz",
        parents=[as_json, max_degree],
        help="connected Hurwitz number for one boundary signature",
    )
    p.add_argument("genus", help="target genus (non-negative integer)")
    p.add_argument("degrees", help="comma-separated boundary degrees, e.g. 2,1")
    p.set_defaults(handler=_cmd_single_hurwitz, parser=p)

    p = sub.add_parser(
        "isomorphic",
        parents=[as_json],
        help="search for a structure-preserving bijection between two parks",
    )
    p.add_argument("park_a", help="first park JSON file")
    p.add_argument("park_b", help="second park JSON file")
    p.add_argument(
        "--allow-reflection",
        action="store_true",
        help="also allow the corner-label order to be reversed",
    )
    p.set_defaults(handler=_cmd_isomorphic, parser=p)

    p = sub.add_parser(
        "equivalent",
        parents=[as_json, max_sheets],
        help="search for a color-preserving relabeling intertwining two "
        "representations",
    )
    p.add_argument("monodromy_a", help="first representation JSON file")
    p.add_argument("monodromy_b", help="second representation JSON file")
    p.set_defaults(handler=_cmd_equivalent, parser=p)

    p = sub.add_parser(
        "enumerate",
        parents=[as_json, max_sheets],
        help="exhaustively list valid generic representations at fixed counts",
    )
    p.add_argument("--degree", type=int, required=True, help="covering degree d")
    p.add_argument("--cone", type=int, required=True, help="cone point count t")
    p.add_argument("--corner", type=int, required=True, help="corner point count s")
    p.add_argument(
        "--dedup",
        choices=["raw", "jequiv", "park"],
        default="raw",
        help="grouping: none, by relabeling equivalence, or by park isomorphism",
    )
    p.set_defaults(handler=_cmd_enumerate, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    # A command's own parser reports an option it does not take, with its usage.
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code, payload, lines = args.handler(args)
    except (_CliFailure, ResourceLimitError) as exc:
        failure = exc if isinstance(exc, _CliFailure) else _CliFailure(EXIT_RESOURCE, str(exc))
        sys.stderr.write(str(failure).rstrip("\n") + "\n")
        code, payload, lines = failure.code, {"error": str(failure), **failure.payload}, []
    if args.json:
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    return code

