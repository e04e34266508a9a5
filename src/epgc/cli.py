"""Command-line surface: construct groups, inspect and export their graphs,
classify surfaces and run the theorem harness.

Exit codes: 0 on success (all reports PASS/PARTIAL/VACUOUS), 1 when any
report FAILs, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .epg import build_bundle, bundle_summary, partition_by_maximal_cyclic
from .graphs import (
    INFINITY,
    connected_components,
    cyclomatic_number,
    girth,
    is_bipartite,
    is_eulerian,
    to_adjacency_text,
    to_dot,
)
from .groups import (
    GroupError,
    are_isomorphic,
    catalog,
    group_from_name,
    maximal_cyclic_subgroups,
    parse_cayley_table,
)
from .subgraphs import chromatic_number, clique_number
from .topology import DEFAULT_BUDGET, classify_surface, verdict_to_dict


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epgc",
        description=(
            "Workbench for the complement of the enhanced power graph of a "
            "finite group: build the graphs, compute their invariants, and "
            "verify the classification theorems over the small-group catalog."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the group catalog")
    p_list.add_argument("--max-order", type=int, default=15)

    p_show = sub.add_parser("show", help="summary of one group")
    p_show.add_argument("--group", required=True, help="selector, e.g. Z12, D:8, Q8, Z2xZ6")
    p_show.add_argument("--format", choices=("text", "json"), default="text")

    p_build = sub.add_parser("build", help="export a graph of one group")
    p_build.add_argument("--group", required=True)
    p_build.add_argument(
        "--graph", choices=("epg", "complement", "reduced"), default="reduced"
    )
    p_build.add_argument("--format", choices=("dot", "text", "json"), default="dot")

    p_inv = sub.add_parser("invariants", help="graph invariants of one group")
    p_inv.add_argument("--group", required=True)
    p_inv.add_argument("--format", choices=("text", "json"), default="text")

    p_cls = sub.add_parser("classify", help="surface classification of one group")
    p_cls.add_argument("--group", required=True)
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)

    p_ver = sub.add_parser("verify", help="run the theorem harness")
    p_ver.add_argument("--max-order", type=int, default=15)
    which = p_ver.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every claim (default)")
    which.add_argument("--claim", default=None, help="run a single claim id")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p_ver.add_argument("--verbose", action="store_true", help="list every per-group entry")

    p_ing = sub.add_parser("ingest", help="validate a Cayley table file")
    p_ing.add_argument("--file", required=True)
    p_ing.add_argument("--name", default="ingested")
    p_ing.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    groups = catalog(args.max_order)
    print(f"{'name':<12} {'order':>5} {'|M(G)|':>6}  sizes")
    for g in groups:
        fam = maximal_cyclic_subgroups(g)
        sizes = ",".join(str(s) for s in fam.sizes)
        print(f"{g.name:<12} {g.order:>5} {fam.count:>6}  [{sizes}]")
    if args.max_order > 15:
        print("note: orders 16..32 are a curated, non-exhaustive extension")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    bundle = build_bundle(group_from_name(args.group))
    summary = bundle_summary(bundle)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    g = bundle.group
    print(f"group {g.name} of order {g.order}")
    print(f"  maximal cyclic subgroups: {bundle.family.count}")
    print(f"  sizes: {list(bundle.family.sizes)}")
    labels = [g.labels[v] for v in sorted(bundle.isolated)]
    print(f"  isolated vertices of the complement: {{{', '.join(labels)}}}")
    print(f"  reduced graph: {bundle.reduced.n} vertices, {bundle.reduced.edge_count} edges")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    bundle = build_bundle(group_from_name(args.group))
    graph = {
        "epg": bundle.epg,
        "complement": bundle.complement,
        "reduced": bundle.reduced,
    }[args.graph]
    if args.format == "dot":
        sys.stdout.write(to_dot(graph, name=bundle.group.name.replace("(", "_")))
    elif args.format == "text":
        sys.stdout.write(to_adjacency_text(graph))
    else:
        payload = {
            "group": bundle.group.name,
            "graph": args.graph,
            "n": graph.n,
            "edges": [list(e) for e in graph.edges()],
            "tags": list(graph.tags) if graph.tags else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    bundle = build_bundle(group_from_name(args.group))
    comp = bundle.complement
    reduced = bundle.reduced
    bip, _ = is_bipartite(comp)
    gi = girth(comp)
    data = {
        "group": bundle.group.name,
        "order": bundle.group.order,
        "maximal_cyclic_count": bundle.family.count,
        "complement": {
            "bipartite": bip,
            "girth": "inf" if gi == INFINITY else int(gi),
            "components": len(connected_components(comp)),
            "isolated": len(bundle.isolated),
        },
    }
    if reduced.n:
        omega, _ = clique_number(comp)
        chi, _ = chromatic_number(comp, hint=partition_by_maximal_cyclic(bundle))
        data["complement"]["clique_number"] = omega
        data["complement"]["chromatic_number"] = chi
        data["reduced"] = {
            "vertices": reduced.n,
            "edges": reduced.edge_count,
            "cyclomatic_number": cyclomatic_number(reduced),
            "eulerian": is_eulerian(reduced),
        }
    else:
        data["reduced"] = {"vertices": 0, "note": "vacuous (cyclic group)"}
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"group {data['group']} (order {data['order']}, |M(G)| = {data['maximal_cyclic_count']})")
    for section in ("complement", "reduced"):
        print(f"  {section}:")
        for k, v in data[section].items():
            print(f"    {k}: {v}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    bundle = build_bundle(group_from_name(args.group))
    verdict = classify_surface(bundle, budget=args.budget)
    if args.format == "json":
        print(json.dumps(verdict_to_dict(verdict), indent=2, sort_keys=True))
        return 0
    d = verdict_to_dict(verdict)
    print(f"group {args.group}: surface classification of the reduced complement")
    for key in ("outerplanar", "planar", "projective", "toroidal", "vacuous"):
        print(f"  {key}: {d[key]}")
    print(f"  genus in [{d['genus_lower']}, {d['genus_upper']}]")
    print(f"  crosscap in [{d['crosscap_lower']}, {d['crosscap_upper']}]")
    for ev in d["evidence"]:
        print(f"  evidence: {ev}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.claim is not None and args.claim not in verify_mod.ALL_CLAIMS:
        known = ", ".join(verify_mod.ALL_CLAIMS)
        print(f"error: unknown claim id {args.claim!r}; known: {known}", file=sys.stderr)
        return 2
    claims = None if args.claim is None else (args.claim,)
    reports = verify_mod.run_all(
        max_order=args.max_order,
        budget=args.budget,
        claims=claims,
    )
    if args.format == "json":
        print(verify_mod.reports_to_json(reports))
    else:
        for r in reports:
            print(verify_mod.render_report(r, verbose=args.verbose))
            print()
        failed = sum(1 for r in reports if r.status == verify_mod.FAIL)
        print(f"{len(reports)} reports: {len(reports) - failed} ok, {failed} failed")
    return 1 if any(r.status == verify_mod.FAIL for r in reports) else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    group = parse_cayley_table(text, name=args.name or "ingested")
    fam = maximal_cyclic_subgroups(group)
    data = {
        "name": group.name,
        "order": group.order,
        "maximal_cyclic_count": fam.count,
        "maximal_cyclic_sizes": list(fam.sizes),
        "catalog_match": None,
    }
    if group.order <= 15:
        for candidate in catalog(15):
            if candidate.order == group.order and are_isomorphic(group, candidate):
                data["catalog_match"] = candidate.name
                break
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"valid group of order {data['order']}")
    print(f"  maximal cyclic subgroups: {data['maximal_cyclic_count']} sizes {data['maximal_cyclic_sizes']}")
    if data["catalog_match"]:
        print(f"  isomorphic to catalog group {data['catalog_match']}")
    return 0


_DISPATCH = {
    "list": _cmd_list,
    "show": _cmd_show,
    "build": _cmd_build,
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "ingest": _cmd_ingest,
}


def run(args: argparse.Namespace) -> int:
    try:
        return _DISPATCH[args.command](args)
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
