"""Command line interface.

Subcommands
-----------
lattice   write DOT renderings of the isotropy lattice and C-L frontier
reduce    print or write the stratification report as JSON
verify    run the sampling battery on a builtin fixture
flow      integrate the Reeb flow from a seeded start, export CSV
examples  run the complete battery on both builtin fixtures

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 I/O
failure.  Outputs are byte-deterministic UTF-8 for a fixed configuration
and seed (sorted JSON keys, sorted DOT nodes and edges, Python ``repr``
for each CSV float), on stdout as in files, whatever the locale.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import tempfile
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import checks, phase, reeb, strata, torus
from .fixtures import BUILTIN_FIXTURES, Fixture, get_fixture
from .poset import IsotropyPoset, PosetError, poset_from_json, poset_to_dot
from .torus import ActionSpecError, spec_from_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_IO = 3


class CliInputError(ValueError):
    pass


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliInputError(f"{path} nests its JSON too deeply: {exc}") from exc
    if not isinstance(data, dict):
        raise CliInputError(f"{path}: expected a JSON object")
    return data


def _resolve_source(args: argparse.Namespace) -> IsotropyPoset:
    """Load the isotropy poset from --fixture or --action (spec or poset JSON)."""
    if (args.fixture is None) == (args.action is None):
        raise CliInputError("provide exactly one of --fixture or --action")
    if args.fixture is not None:
        return torus.build_isotropy_poset(get_fixture(args.fixture).spec)
    data = _read_json(args.action)
    if "weights" in data:
        return torus.build_isotropy_poset(spec_from_json(data))
    if "types" in data:
        return poset_from_json(data)  # an invalid poset is refused as it is built
    raise CliInputError(
        f"{args.action}: neither an action spec (weights) nor a poset (types)"
    )


def _require_fixture(args: argparse.Namespace) -> Fixture:
    if args.fixture is None:
        raise CliInputError("this command needs --fixture (builtin example name)")
    return get_fixture(args.fixture)


def _write_text(path: Path, parts: Iterable[str]) -> None:
    """Write the parts of a text to a UTF-8 file, one after another, in
    system calls of up to 64 KiB: a 17 MB run of reports takes about a
    quarter less CPU to write than in the default 8 KiB calls, while a
    1 MiB buffer adds half a megabyte to the peak memory of a CSV export."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", buffering=1 << 16) as out:
        out.writelines(parts)


_JSON_BOOL = {True: "true", False: "false"}


def _entry_template(*keys: str) -> str:
    """A ``cl_strata`` or ``contact_strata`` entry, one ``%s`` per key."""
    return "{\n      " + ",\n      ".join(f'"{key}": %s' for key in keys) + "\n    }"


_ENTRY_KEYS = ("base_target", "dim", "kind", "name", "open_dense", "parent_contact")
_ENTRY = _entry_template(*_ENTRY_KEYS)
_SEAM_ENTRY = _entry_template(*_ENTRY_KEYS, "seam_upper")


def _json_list(items: Iterable[str]) -> Iterator[str]:
    """A list value of the report's top object, from its items' JSON text."""
    separator = "[\n    "
    for item in items:
        yield separator + item
        separator = ",\n    "
    yield "[]" if separator == "[\n    " else "\n  ]"


_QUOTED_KIND = {kind: encode_basestring_ascii(kind.value) for kind in strata.StratumKind}


def _reduce_report(result: strata.StratificationResult) -> Iterator[str]:
    """The ``reduce`` report in parts, whose concatenation is the bytes of
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    Each entry states its pair of types as ``base_target`` (upper) and
    ``parent_contact`` (Contact(lower)); a seam also as ``seam_upper``.  The
    parts are read off the piece table of ``result``: each type's label and
    Contact(label) and each piece's name is escaped once, an entry is one
    ``%`` template per key set, a frontier or ``hasse`` row one join of its
    escaped names, and the fixed keys literal text.  The frontier rows come
    from :func:`strata.frontier_rows`, gathered from an array of the escaped
    names, so no :class:`strata.Stratum` and no ``result.frontier`` is
    built.  No part is the whole text.
    """
    labels = [encode_basestring_ascii(label) for label in result.labels]
    starred = [t for t in range(len(labels)) if result.starred_mask >> t & 1]
    raw_contacts = [strata.contact_name(label) for label in result.labels]
    contacts = [encode_basestring_ascii(name) for name in raw_contacts]
    names = np.array([encode_basestring_ascii(name) for name in result.pieces], dtype=object)
    quoted_names = names.tolist()

    def entries() -> Iterator[str]:
        for name, (_, kind, dim, k, h, open_dense) in zip(quoted_names, result.piece_rows()):
            values = (labels[k], dim, _QUOTED_KIND[kind], name, _JSON_BOOL[open_dense],
                      contacts[h])
            if k == h:
                yield _ENTRY % values
            else:
                yield _SEAM_ENTRY % (*values, labels[k])

    def contact_entries() -> Iterator[str]:
        kind = _QUOTED_KIND[strata.StratumKind.CONTACT]
        # by the raw name: Contact(Z2 x) sorts before Contact(Z2), unlike the labels
        for t in sorted(starred, key=raw_contacts.__getitem__):
            yield _ENTRY % (labels[t], 2 * result.dims[t] - 1, kind, contacts[t],
                            _JSON_BOOL[False], contacts[t])

    def rows(pairs: Iterable[tuple[str, list[str]]]) -> Iterator[str]:
        for a, covered in pairs:
            if covered:
                start = f"[\n      {a},\n      "
                joined = f"\n    ],\n    {start}".join(covered)
                yield f"{start}{joined}\n    ]"

    quoted = dict(zip(result.pieces, quoted_names))
    yield '{\n  "cl_strata": '
    yield from _json_list(entries())
    yield ',\n  "contact_strata": '
    yield from _json_list(contact_entries())
    # the C-L pieces always refine the contact strata, strictly exactly when
    # the lattice has more than one orbit type
    yield ',\n  "finer_than_contact": {\n    "finer": true,\n    "strict": %s\n  },' \
        '\n  "frontier": ' % _JSON_BOOL[len(result.labels) > 1]
    yield from _json_list(rows(zip(quoted_names, strata.frontier_rows(result, names))))
    yield ',\n  "hasse": '
    yield from _json_list(rows((quoted[a], [quoted[b] for b in covered])
                               for a, covered in result.hasse.rows))
    # an IsotropyPoset is valid by construction
    yield ',\n  "piece_count": %d,\n  "poset_valid": true,\n  "smooth_total_space": %s,' \
        '\n  "starred": ' % (len(result.pieces), _JSON_BOOL[result.smooth_total_space])
    yield from _json_list(labels[t] for t in starred)
    yield "\n}\n"


def cmd_lattice(args: argparse.Namespace) -> int:
    """Emit isotropy.dot and cl_strata.dot into the --out directory."""
    poset = _resolve_source(args)
    # the DOT draws the covers, so the frontier is never built here
    result = strata.cl_stratification(poset)
    out_dir = Path(args.out) if args.out else Path(".")
    _write_text(out_dir / "isotropy.dot", [poset_to_dot(poset)])
    _write_text(out_dir / "cl_strata.dot", [strata.result_to_dot(result)])
    print(f"wrote {out_dir / 'isotropy.dot'}")
    print(f"wrote {out_dir / 'cl_strata.dot'}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    """Full stratification report as JSON (stdout or --out file)."""
    poset = _resolve_source(args)
    result = strata.cl_stratification(poset)
    # the parts stream out, so the report text is never held whole; the
    # frontier rows are built here, on the writer's first read
    parts = _reduce_report(result)
    if args.out:
        _write_text(Path(args.out), parts)
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(parts)
    return EXIT_OK


def _csv_line(cells: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


_CSV_BLOCK = 256


def _csv_rows(templates: list[str], piece: np.ndarray, numbers: np.ndarray) -> Iterator[str]:
    """Blocks of ``_CSV_BLOCK`` rows, row p of ``numbers`` filled into
    ``templates[piece[p]]``: one ``repr`` per distinct bit pattern of a block
    (0.0 and -0.0, or two NaN payloads, spelled apart) and one ``%``."""
    for start in range(0, len(numbers), _CSV_BLOCK):
        block = numbers[start:start + _CSV_BLOCK]
        bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
        spelled = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        rows = "".join(map(templates.__getitem__, piece[start:start + _CSV_BLOCK].tolist()))
        yield rows % tuple(spelled[inverse.ravel()].tolist())


def _csv_lines(
    fixture: Fixture, x: np.ndarray, u: np.ndarray, tables: np.ndarray, band: float,
    times: np.ndarray | None = None,
) -> tuple[Iterator[str], int]:
    """The CSV text of the points (x, u) of (N, n, 4) invariant ``tables`` in
    parts of whole rows, and their count of ``(unresolved)`` rows: a header
    line, then per point the time (when ``times`` is given), x, u, J, the
    invariant table, the piece label and its residual, in one part per
    block of ``_CSV_BLOCK`` rows.

    Labels are ``fixture.result.pieces`` as :func:`phase.locate_rows` at
    ``band`` names them, the call the batteries use; a row with no single
    match is ``(unresolved)``, NaN.
    Each number is its Python ``repr``, spelled once per distinct float of
    a block of ``_CSV_BLOCK`` rows (a Reeb trajectory repeats its ``u`` and
    ``J`` cells).  A row is one ``%`` template per piece, whose label cell
    the :mod:`csv` dialect quoted once, and a block one ``%`` over its rows'
    joined templates.  Everything that can raise runs in this call; only
    the spelling waits for the reader of the parts.
    """
    spec = fixture.spec
    piece, residuals, _ = phase.locate_rows(fixture, phase.reduced_images(tables), band)
    columns = [x, u, phase.momenta(spec, tables),
               tables.reshape(len(x), 4 * spec.n), residuals[:, None]]
    header = (
        [f"x_{i+1}" for i in range(2 * spec.n)]
        + [f"u_{i+1}" for i in range(2 * spec.n)]
        + [f"J_{i+1}" for i in range(spec.k)]
        + [f"p{c}_{j+1}" for j in range(spec.n) for c in (1, 2, 3, 4)]
        + ["stratum", "residual"]
    )
    if times is not None:
        columns.insert(0, times[:, None])
        header.insert(0, "t")
    numbers = np.concatenate(columns, axis=1)
    # piece -1 takes the last template, the unresolved one
    names = [*fixture.result.pieces, "(unresolved)"]
    cells = ["%s"] * (len(header) - 2)
    templates = [_csv_line(cells + [name.replace("%", "%%"), "%s"]) for name in names]
    lines = itertools.chain([_csv_line(header)], _csv_rows(templates, piece, numbers))
    return lines, int(np.count_nonzero(piece < 0))


def cmd_verify(args: argparse.Namespace) -> int:
    """Sampling battery on a builtin fixture; writes report.json (+ samples.csv)."""
    fixture = _require_fixture(args)
    report = checks.verify_fixture(
        fixture, seed=args.seed, count=args.count, band=args.band
    )
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        out_dir = Path(args.out)
        _write_text(out_dir / "report.json", [text])
        x, u = phase.zero_level_arrays(  # the first samples of the generic probe
            fixture.spec, seed=checks._probe_seed(args.seed, 0), count=min(args.count, 1000))
        tables = phase.invariant_tables(x, u)
        _write_text(out_dir / "samples.csv", _csv_lines(fixture, x, u, tables, args.band)[0])
        print(f"wrote {out_dir / 'report.json'}")
        print(f"wrote {out_dir / 'samples.csv'}")
    else:
        sys.stdout.write(text)
    print(f"verify {fixture.name}: {'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def _parse_start(fixture: Fixture, text: str) -> phase.PhasePoint:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"--start: {exc}") from exc
    dim = 2 * fixture.spec.n
    if len(values) != 2 * dim:
        raise CliInputError(
            f"--start needs {2 * dim} comma-separated floats (x then u), got {len(values)}"
        )
    try:
        point = phase.PhasePoint(np.array(values[:dim]), np.array(values[dim:]))
    except phase.PhaseError as exc:
        raise CliInputError(str(exc)) from exc
    phase.hilbert_map(fixture.spec, point)  # refuses a start off the zero level
    return point


def cmd_flow(args: argparse.Namespace) -> int:
    """Integrate the Reeb flow; CSV trajectory to --out or stdout.  The run
    fails on an ``(unresolved)`` row or an RK4 drift over ``IDENTITY_TOL``."""
    fixture = _require_fixture(args)
    spec = fixture.spec
    if args.start is not None:
        point = _parse_start(fixture, args.start)
    else:
        x, u = phase.zero_level_arrays(spec, seed=args.seed, count=1)
        point = phase.PhasePoint(x[0], u[0])

    traj = reeb.flow_rk4(point, t_end=args.t_end, step=args.step)
    tables = phase.invariant_tables(traj.xs, traj.us)
    lines, unresolved = _csv_lines(fixture, traj.xs, traj.us, tables, args.band, traj.times)
    drift = reeb.conservation_report(tables)
    summary = {
        "fixture": fixture.name,
        "seed": args.seed,
        "t_end": args.t_end,
        "step": args.step,
        "rows": len(traj),
        "drift": drift,
        "unresolved": unresolved,
        "passed": unresolved == 0 and all(v <= phase.IDENTITY_TOL for v in drift.values()),
    }
    if args.out:
        _write_text(Path(args.out), lines)
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK if summary["passed"] else EXIT_VERIFICATION


def cmd_examples(args: argparse.Namespace) -> int:
    """Run the complete battery on both builtin fixtures and print a table.

    Artifacts go into --out or a temp dir.  Each command runs on a copy of
    these arguments, so --seed, --count, --t-end, --step and --tolerance
    reach every one, and each runs even when another has failed.
    """
    out_dir = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="cosphere-"))
    lines: list[str] = []
    all_passed = True

    for name in sorted(BUILTIN_FIXTURES):
        fixture = get_fixture(name)
        poset = torus.build_isotropy_poset(fixture.spec)
        result = fixture.result

        lines.append(f"{name} ({fixture.title})")
        lines.append(f"  orbit types: {', '.join(t.label for t in poset.types)}")
        lines.append(f"  starred: {', '.join(result.starred)}")
        for s in result.cl_strata:
            open_mark = "  (open dense)" if s.open_dense else ""
            lines.append(
                f"    {s.name:<18} {s.kind.value:<17} dim {s.dim}  over ({s.upper}){open_mark}"
            )
        lines.append(f"  frontier: {len(result.frontier)} pairs, "
                     f"{len(result.hasse)} covering arrows")

        base = out_dir / name
        codes = [
            cmd(argparse.Namespace(**{**vars(args), "fixture": name, "action": None,
                                      "start": None, "out": str(out)}))
            for cmd, out in ((cmd_lattice, base), (cmd_reduce, base / "reduce.json"),
                             (cmd_verify, base), (cmd_flow, base / "trajectory.csv"))
        ]
        flow_report = checks.flow_checks(fixture, seed=args.seed, starts=200)
        ok = all(code == EXIT_OK for code in codes) and flow_report["passed"]
        lines.append(f"  battery: {'PASS' if ok else 'FAIL'}")
        all_passed = all_passed and ok

    lines.append(f"artifacts in {out_dir}")
    lines.append(f"examples: {'PASS' if all_passed else 'FAIL'}")
    print("\n".join(lines))
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the subcommands that take it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosphere",
        description="Stratified reduction of cosphere bundles at zero momentum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    action = _flag("--action", help="path to an action-spec or poset JSON file")
    fixture = _flag("--fixture", choices=sorted(BUILTIN_FIXTURES), help="builtin example name")
    out = _flag("--out", help="output path (directory for multi-file commands)")
    seed = _flag("--seed", type=int, default=0)
    count = _flag("--count", type=int, default=10000)
    t_end = _flag("--t-end", type=float, default=2.0)
    step = _flag("--step", type=float, default=1e-3)
    band = _flag("--tolerance", dest="band", metavar="TOLERANCE", type=float,
                 default=phase.MEMBERSHIP_BAND)
    start = _flag("--start", help="comma-separated start point (x then u)")
    for name, run, help_text, parents in (
        ("lattice", cmd_lattice, "emit isotropy and C-L DOT files", [action, fixture, out]),
        ("reduce", cmd_reduce, "stratification report as JSON", [action, fixture, out]),
        ("verify", cmd_verify, "sampling battery on a builtin fixture",
         [fixture, out, seed, count, band]),
        ("flow", cmd_flow, "Reeb flow trajectory as CSV",
         [fixture, out, seed, t_end, step, band, start]),
        # runs both fixtures, so it takes no --fixture
        ("examples", cmd_examples, "full battery on both builtin fixtures",
         [out, seed, count, t_end, step, band]),
    ):
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(run=run)
    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # labels such as e×S^1 go out as UTF-8 whatever the stream's encoding;
    # a StringIO has no encoding to change
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = PARSER.parse_args(argv)
    try:
        # every run parameter the command takes is refused here, before it
        # writes anything; one it does not take is None, not checked
        phase.check_run_inputs(
            **{key: vars(args).get(key) for key in ("seed", "count", "band", "t_end", "step")}
        )
        return args.run(args)
    except (CliInputError, PosetError, ActionSpecError, phase.PhaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
