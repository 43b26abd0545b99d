"""Correctness checks on what one pass produced.

Each ``check_*`` function reads a pass's outputs (reports, exported files,
exit codes) and returns a :class:`Tally`.  Nothing here imports cosphere:
the checks recompute what they can with their own code.  Margins are
checked at the acceptance tolerances and never reported as metrics, since
a new sample stream moves them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

MOMENTUM_TOL = 1e-10
IDENTITY_TOL = 1e-9
MEMBERSHIP_BAND = 1e-8
TYPE_CAP = 64          # poset.MAX_TYPES when this benchmark was defined
SEAM_KINDS = ("coisotropic-seam", "legendrian-seam")
FLOW_T_END, FLOW_STEP = 2.0, 1e-3   # the defaults of cosphere flow
FLOW_WEIGHTS = {"s1-on-r2": ((1,),), "t2-on-r4": ((1, 0), (0, 1))}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    items: int = 0
    problems: list[str] = field(default_factory=list)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.items += other.items
        self.problems += other.problems

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


# -- verify -------------------------------------------------------------------

def _probe_ok(probe: dict) -> bool:
    counts_add_up = (sum(probe["piece_counts"].values()) == probe["count"]
                     and sum(probe["class_counts"].values()) == probe["count"])
    k0 = probe["k0_max_error"]
    return (
        probe["passed"]
        and probe["failures"] == []
        and probe["max_momentum"] < MOMENTUM_TOL
        and probe["max_cosphere_error"] <= IDENTITY_TOL
        and probe["max_cone_rel_error"] <= IDENTITY_TOL
        and probe["max_membership_residual"] < MEMBERSHIP_BAND
        and (k0 is None or k0 <= IDENTITY_TOL)
        and counts_add_up
    )


def check_verify(outputs: dict) -> Tally:
    """Each probe and each fixture report is one operation."""
    tally = Tally()
    count = outputs["count"]
    for report in outputs["reports"]:
        fixture = report["fixture"]
        if "error" in report:
            tally.check(False, f"verify {fixture} raised: {report['error']}")
            continue
        for probe in report["probes"]:
            generic = probe is report["probes"][0]
            expected = count if generic else max(200, count // 10)
            if tally.check(_probe_ok(probe) and probe["count"] == expected,
                           f"verify {fixture}: probe {probe['name']} failed"):
                tally.items += probe["count"]
        tally.check(report["passed"] and report["principal_fraction"] >= 0.99,
                    f"verify {fixture}: report not passed")
    return tally


# -- flow ---------------------------------------------------------------------

def _trajectory_ok(path: str, weights, rows_expected: int) -> bool:
    """Recompute the invariants, momentum and cosphere sum of every CSV row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    k, n = len(weights), len(weights[0])
    if (len(body) != rows_expected or len(body) < FLOW_T_END / FLOW_STEP
            or len(header) != 1 + 4 * n + k + 4 * n + 2 or float(body[0][0]) != 0.0):
        return False
    last_t = -1.0
    for row in body:
        t = float(row[0])
        x = [float(v) for v in row[1:1 + 2 * n]]
        u = [float(v) for v in row[1 + 2 * n:1 + 4 * n]]
        j = [float(v) for v in row[1 + 4 * n:1 + 4 * n + k]]
        table = [float(v) for v in row[1 + 4 * n + k:1 + 8 * n + k]]
        if t <= last_t or row[-2] == "(unresolved)":
            return False
        last_t = t
        mass = 0.0
        p4 = []
        for p in range(n):
            x1, x2, u1, u2 = x[2 * p], x[2 * p + 1], u[2 * p], u[2 * p + 1]
            xx, uu = x1 * x1 + x2 * x2, u1 * u1 + u2 * u2
            want = (xx + uu, 2 * (x1 * u1 + x2 * u2), uu - xx, x1 * u2 - x2 * u1)
            got = table[4 * p:4 * p + 4]
            if max(abs(a - b) for a, b in zip(want, got)) > IDENTITY_TOL:
                return False
            mass += want[0] + want[2]
            p4.append(want[3])
        momentum = [sum(w * q for w, q in zip(row_w, p4)) for row_w in weights]
        if abs(mass - 2.0) > IDENTITY_TOL:
            return False
        if max(abs(v) for v in momentum + j) > MOMENTUM_TOL:
            return False
    return last_t == FLOW_T_END


def check_flow(outputs: dict) -> Tally:
    """Each battery check and each CSV export is one operation."""
    tally = Tally()
    starts = outputs["starts"]
    for report in outputs["reports"]:
        fixture = report["fixture"]
        if "error" in report:
            tally.check(False, f"flow {fixture} raised: {report['error']}")
            continue
        tally.check(report["closed_vs_exact_max"] <= IDENTITY_TOL,
                    f"flow {fixture}: closed form vs exact flow")
        tally.check(report["rk4_endpoint_error"] <= IDENTITY_TOL,
                    f"flow {fixture}: RK4 endpoint")
        tally.check(max(report["drift"].values()) <= IDENTITY_TOL,
                    f"flow {fixture}: RK4 drift")
        tally.check(report["seam_flow_failures"] == [],
                    f"flow {fixture}: seam start did not flow into its CC piece")
        if tally.check(report["passed"] and report["starts"] == starts,
                       f"flow {fixture}: report not passed"):
            tally.items += report["starts"]
    for export in outputs["exports"]:
        fixture = export["fixture"]
        ok = export["exit"] == 0
        if ok:
            try:
                summary, _ = json.JSONDecoder().raw_decode(export["stdout"])
                ok = summary["passed"] and _trajectory_ok(
                    export["csv"], FLOW_WEIGHTS[fixture], summary["rows"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ok = False
                export["stderr"] += f" unreadable export: {exc!r}"
        tally.check(ok, f"flow {fixture}: CSV export (exit {export['exit']}) "
                        f"{export['stderr'].strip()[-300:]}")
    return tally


# -- lattice ------------------------------------------------------------------

def lattice_basis(vectors, k: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (row Hermite normal form) of the lattice the vectors span."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(k):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head, rest = live[0], live[1:]
            live = [head]
            for r in rest:
                q = r[col] // head[col]
                r = [a - q * b for a, b in zip(r, head)]
                (live if r[col] else rows).append(r)
        if live:
            head = live[0] if live[0][col] > 0 else [-a for a in live[0]]
            for b in basis:
                q = b[col] // head[col]
                b[:] = [a - q * c for a, c in zip(b, head)]
            basis.append(head)
        rows = [r for r in rows if any(r)]
    return tuple(tuple(b) for b in basis)


def orbit_type_count(weights) -> int:
    """Distinct stabilizers over all plane supports = distinct column lattices."""
    k, n = len(weights), len(weights[0])
    columns = [tuple(row[j] for row in weights) for j in range(n)]
    return len({
        lattice_basis([columns[j] for j in support], k)
        for r in range(n + 1)
        for support in itertools.combinations(range(n), r)
    })


def content_digest(report: dict) -> str:
    """sha256 of the names, dims, kinds and frontier (not the JSON bytes)."""
    content = {
        "strata": sorted([s["name"], s["dim"], s["kind"]] for s in report["cl_strata"]),
        "frontier": sorted(report["frontier"]),
    }
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _closure(pairs) -> set[tuple[str, str]]:
    succ: dict[str, set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for a in succ:
        stack, seen = list(succ[a]), set()
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                closed.add((a, b))
                stack.extend(succ.get(b, ()))
    return closed


def report_problems(report: dict) -> list[str]:
    """Structural identities every exported stratification report must satisfy."""
    problems = []
    strata = {s["name"]: s for s in report["cl_strata"]}
    starred = set(report["starred"])
    seams = [s for s in report["cl_strata"] if s["kind"] in SEAM_KINDS]
    if not report["poset_valid"]:
        problems.append("poset_valid is false")
    if not (report["piece_count"] == len(strata) == len(starred) + len(seams)):
        problems.append("piece count != |starred| + seam pairs")
    if {f"CC({label})" for label in starred} != set(strata) - {s["name"] for s in seams}:
        problems.append("cosphere-like pieces do not match the starred types")
    frontier = {tuple(p) for p in report["frontier"]}
    if _closure(tuple(p) for p in report["hasse"]) != frontier:
        problems.append("closure of hasse != frontier")
    if any(a not in strata or b not in strata for a, b in frontier):
        problems.append("frontier pair names no piece")
    contact_dim = {s["base_target"]: s["dim"] for s in report["contact_strata"]}
    for s in seams:
        upper = s["seam_upper"]
        lower = s["parent_contact"][len("Contact("):-1]
        d_upper = (contact_dim[upper] + 1) // 2 if upper in starred else 0
        excess = s["dim"] - (contact_dim[lower] - 1) // 2
        kind = "coisotropic-seam" if upper in starred else "legendrian-seam"
        if excess != d_upper or excess < 0 or s["kind"] != kind:
            problems.append(f"seam excess identity fails for {s['name']}")
    return problems


def check_lattice(outputs: dict, specs: list[dict]) -> Tally:
    """Each spec is one operation: exported and checked, or refused at the cap."""
    tally = Tally()
    by_id = {s["id"]: s for s in specs}
    for result in outputs["specs"]:
        spec = by_id[result["id"]]
        if result["exit"] == 2 and orbit_type_count(spec["weights"]) > TYPE_CAP:
            tally.attempted += 1
            tally.refused += 1
            continue
        if result["exit"] != 0:
            tally.check(False, f"lattice {spec['id']}: exit {result['exit']} "
                               f"{result['stderr'].strip()[:200]}")
            continue
        try:
            report = json.loads(Path(result["report"]).read_text())
            problems = report_problems(report)
            if spec.get("digest") and content_digest(report) != spec["digest"]:
                problems.append("content digest differs from the stored one")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if tally.check(not problems, f"lattice {spec['id']}: {'; '.join(problems)}"):
            tally.items += 1
    return tally
