"""Command-line front end (`srcy`)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cohomology import hodge_pipeline_ci
from .deformation import t1_degree_zero_basis
from .fileio import (
    InputError,
    from_file,
    geometry_and_params,
    load,
    load_triangulation,
    parse_complexes_file,
    parse_component_table,
    parse_fan_file,
    parse_matrix_file,
    parse_monomial_file,
    parse_vector_file,
)
from .pfaffian import (
    milnor_quasihomogeneous,
    pfaffian,
    principal_pfaffians,
    quasi_weights,
    verify_first_order,
)
from .report import emit
from .sr_ideal import sr_report
from .symmetry import automorphism_group, orbits_on_t1
from .torusgroup import InfiniteStabilizer, diagonal_stabilizer
from .toric import (
    all_charts,
    cone_problems,
    crepancy_check,
    derive_component_structure,
    divisor_meets_hypersurface,
    euler_exceptional,
    intersection_complex,
    match_component_table,
    verify_smooth_subdivision,
)
from .verify import SECTIONS, run_all


def _print_json(data):
    sys.stdout.write(json.dumps(data, separators=(",", ":")) + "\n")


def cmd_t1(args):
    k = load(args.triangulation, load_triangulation)
    basis = from_file(args.triangulation, t1_degree_zero_basis, k)
    _print_json({
        "dimension": len(basis),
        "elements": [
            {"a": list(e.support), "a_vector": list(e.a_vector), "b": sorted(e.b)}
            for e in basis
        ],
    })


def cmd_aut(args):
    k = load(args.triangulation, load_triangulation)
    group = automorphism_group(k)
    _print_json({
        "order": group.order,
        "generators": [group.one_line(g) for g in group.generators],
    })


def cmd_orbits(args):
    k = load(args.triangulation, load_triangulation)
    basis = from_file(args.triangulation, t1_degree_zero_basis, k)
    group = automorphism_group(k)
    part = orbits_on_t1(group, basis)
    _print_json({
        "order": group.order,
        "orbit_count": part.count,
        "orbit_sizes": part.sizes(),
        "blocks": part.blocks,
    })


def cmd_sr(args):
    k = load(args.triangulation, load_triangulation)
    _print_json(from_file(args.triangulation, sr_report, k))


def cmd_pfaffian(args):
    matrix, _ring = load(args.matrix, parse_matrix_file)
    if matrix.dim % 2 == 0:
        _print_json({"pfaffian": str(from_file(args.matrix, pfaffian, matrix))})
    else:
        f = from_file(args.matrix, principal_pfaffians, matrix)
        _print_json({"principal_pfaffians": [str(p) for p in f]})


def cmd_verify_family(args):
    matrix, ring = load(args.matrix, parse_matrix_file)
    vector, vring = load(args.vector, parse_vector_file)
    if len(vector) != matrix.dim:
        raise InputError("vector has %d entries, not the matrix's dim %d"
                         % (len(vector), matrix.dim), args.vector)
    unknown = [name for name in vring.names if name not in ring.index]
    if unknown:
        raise InputError("variable %s is not among the matrix's vars" % unknown[0], args.vector)
    _geo, params = geometry_and_params(ring.names)
    vector = [v.rename(ring) for v in vector]
    ok = from_file(args.vector, verify_first_order, matrix, vector, params)
    _print_json({"first_order_syzygy": ok})
    return 0 if ok else 1


def cmd_torus_group(args):
    gens, ring = load(args.generators, parse_vector_file)
    geo, _params = geometry_and_params(ring.names)
    h = from_file(args.generators, diagonal_stabilizer, gens, geo)
    if isinstance(h, InfiniteStabilizer):
        _print_json({"finite": False, "torus_rank": h.torus_rank})
        return 0
    _print_json({
        "finite": True,
        "order": h.order,
        "invariant_factors": h.invariant_factors,
        "generators": h.generators,
    })


def cmd_toric(args):
    fan = load(args.fan, parse_fan_file)
    if args.toric_cmd == "verify":
        rep = verify_smooth_subdivision(fan)
        _print_json({"rays": rep.n_rays, "cones": rep.n_cones, "ok": rep.ok,
                     "problems": rep.problems})
        return 0 if rep.ok else 1
    bad_cones = cone_problems(fan)
    if bad_cones:
        raise InputError("; ".join(bad_cones), args.fan)
    fmono, invmono = load(args.fpoly, parse_monomial_file)
    charts = from_file(args.fpoly, all_charts, fan, invmono)
    if args.toric_cmd == "crepancy":
        crep = crepancy_check(fan, fmono)
        _print_json({
            "crepant": [list(fan.rays[r]) for r, v in sorted(crep.items()) if v],
            "not_crepant": [list(fan.rays[r]) for r, v in sorted(crep.items()) if not v],
        })
        return 0
    if args.toric_cmd == "charts":
        meets = {r: divisor_meets_hypersurface(fan, charts, r)
                 for r in fan.interior_ray_ids()}
        _print_json({
            "charts": {str(c + 1): str(charts[c]) for c in sorted(charts)},
            "meeting_rays": [list(fan.rays[r]) for r, v in sorted(meets.items()) if v],
        })
        return 0
    rows = load(args.components, parse_component_table)
    structure = derive_component_structure(fan, charts)
    comps = from_file(args.components, match_component_table, fan, structure, rows)
    cx = intersection_complex(fan, charts, comps)
    chi = euler_exceptional([c.chi for c in comps], cx)
    _print_json({
        "components": [
            {"label": c.label, "chi": c.chi, "provenance": c.chi_provenance}
            for c in comps
        ],
        "edges": len(cx.faces_of_dim(1)),
        "triangles": len(cx.faces_of_dim(2)),
        "chi_exceptional": chi,
    })
    return 0


def cmd_cohom(args):
    n, res = load(args.complexes, parse_complexes_file)
    out = from_file(args.complexes, hodge_pipeline_ci, n, res["structure_sheaf"],
                    res["ideal_square"])
    _print_json({"h11": out.h11, "h12": out.h12, "intermediates": out.intermediates})


def _weight(text):
    """A quasi-homogeneous weight: a fraction strictly between 0 and 1."""
    try:
        w = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid weight %r" % text) from None
    if not 0 < w < 1:
        raise argparse.ArgumentTypeError("weight %s is not strictly between 0 and 1" % text)
    return w


def _sections(text):
    """A comma-separated list of run-all sections."""
    names = text.split(",")
    for name in names:
        if name not in SECTIONS:
            raise argparse.ArgumentTypeError(
                "unknown section %r (choose from %s)" % (name, ", ".join(SECTIONS)))
    return names


def cmd_milnor(args):
    mu = from_file("srcy milnor", milnor_quasihomogeneous, quasi_weights(args.weights))
    _print_json({"milnor": mu})


def cmd_run_all(args):
    report = run_all(base=args.fixtures, only=args.only)
    sys.stdout.buffer.write(emit(report, args.format))
    if args.format == "json":
        sys.stdout.write("\n")
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srcy",
        description="Exact checks for Stanley-Reisner sphere deformations, "
        "Pfaffian families and toric resolution bookkeeping.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, fn in (("t1", cmd_t1), ("aut", cmd_aut), ("orbits", cmd_orbits), ("sr", cmd_sr)):
        p = sub.add_parser(name)
        p.add_argument("triangulation")
        p.set_defaults(fn=fn)

    p = sub.add_parser("pfaffian")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_pfaffian)

    p = sub.add_parser("verify-family")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(fn=cmd_verify_family)

    p = sub.add_parser("torus-group")
    p.add_argument("generators")
    p.set_defaults(fn=cmd_torus_group)

    p = sub.add_parser("toric")
    toric = p.add_subparsers(dest="toric_cmd", required=True)
    for name, files in (("verify", ["fan"]), ("crepancy", ["fan", "fpoly"]),
                        ("charts", ["fan", "fpoly"]), ("euler", ["fan", "fpoly", "components"])):
        q = toric.add_parser(name)
        for f in files:
            q.add_argument(f)
    p.set_defaults(fn=cmd_toric)

    p = sub.add_parser("cohom")
    p.add_argument("cohom_cmd", choices=["hodge"])
    p.add_argument("complexes")
    p.set_defaults(fn=cmd_cohom)

    p = sub.add_parser("milnor")
    p.add_argument("weights", nargs="+", type=_weight)
    p.set_defaults(fn=cmd_milnor)

    p = sub.add_parser("run-all")
    p.add_argument("--fixtures", default=None)
    p.add_argument("--only", default=None, type=_sections,
                   help="comma-separated section list, e.g. t1,toric")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(fn=cmd_run_all)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args) or 0
    except InputError as exc:
        sys.stderr.write("%s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
