"""Command-line interface.

Every subcommand prints either human-readable lines or, with --json, a
deterministic JSON document (sorted keys, two-space indent) so that runs
with equal inputs are byte-identical. Exit codes: 0 success, 2 usage
errors (argparse), 3 domain errors (bad labels, out-of-regime inputs),
4 failed certificates, failed searches, and reproduction mismatches.

Only the integer layers are imported here. The numeric layers (liealg,
deform, glue), and with them numpy, are imported inside the handlers of
`curvature-scan` and `glue`, so the other subcommands never load numpy.
numpy is the only numeric dependency: the plane search of
`curvature-scan --find-negative` is a gradient descent written in numpy.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import bundles, classify, isotropy
from .data import load_expected
from .errors import MilnorError

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_FAILED = 4


def _has_nan(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        return any(_has_nan(item) for item in node)
    return isinstance(node, float) and math.isnan(node)


def _emit(args, payload, lines):
    if args.json:
        # NaN is refused; +-inf stays, since a gluing clause that cannot
        # be evaluated outside the window reports the value inf. Only a
        # document that spells NaN somewhere is walked.
        text = json.dumps(payload, sort_keys=True, indent=2)
        if "NaN" in text and _has_nan(payload):
            raise ValueError("NaN in the JSON payload")
        print(text)
    else:
        for line in lines:
            print(line)


def _fraction(text):
    """Accept '4/3', '1.25', '2'. Fractions stay exact; a float that
    overflows to infinity, such as '1e400', is a bad number."""
    try:
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text or "E" in text:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad number {!r}".format(text)) from exc


def _type_set_payload(ts):
    return {
        "types": ts.sorted_labels(),
        "dihedral_orders": list(ts.orders),
        "almost_free": ts.almost_free,
        "disc_extension": isotropy.oliver_obstruction(ts),
    }


# -- subcommand handlers ------------------------------------------------------


def cmd_solve(args):
    sols = bundles.solve_euler(args.k, bound=args.bound)
    payload = {"k": args.k, "solutions": [list(s) for s in sols]}
    lines = ["(p_-, p_+) with (p_-^2 - p_+^2)/8 = {}:".format(args.k)]
    lines += ["  ({}, {})".format(*s) for s in sols]
    if not sols:
        lines.append("  (none)")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_canonical(args):
    sol = bundles.canonical_solution(args.k)
    _emit(args, {"k": args.k, "solution": list(sol)},
          ["canonical (p_-, p_+) for k = {}: ({}, {})".format(args.k, *sol)])
    return EXIT_OK


def cmd_euler(args):
    k = bundles.euler_class(args.p_minus, args.p_plus)
    _emit(args, {"p_minus": args.p_minus, "p_plus": args.p_plus, "k": k},
          ["(p_-^2 - p_+^2)/8 = {}".format(k)])
    return EXIT_OK


def cmd_classify(args):
    k, l = bundles.classify_pair(args.p_minus, args.q_minus,
                                 args.p_plus, args.q_plus)
    mv = bundles.mayer_vietoris_matrix(args.p_minus, args.p_plus)
    payload = {
        "labels": [args.p_minus, args.q_minus, args.p_plus, args.q_plus],
        "k": k, "l": l, "euler_number": classify.euler_number(k, l),
        "homotopy_sphere": classify.is_homotopy_sphere(k, l),
        "torsion_order": mv.torsion_order,
    }
    lines = [
        "labels (p_-, q_-, p_+, q_+) = ({}, {}, {}, {})".format(
            args.p_minus, args.q_minus, args.p_plus, args.q_plus),
        "bundle pair (k, l) = ({}, {})".format(k, l),
        "euler number k + l = {}".format(payload["euler_number"]),
        "homotopy 7-sphere: {}".format(payload["homotopy_sphere"]),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_isotropy(args):
    ts = isotropy.orbit_types(args.p_minus, args.q_minus,
                              args.p_plus, args.q_plus)
    payload = _type_set_payload(ts)
    payload["labels"] = [args.p_minus, args.q_minus, args.p_plus, args.q_plus]
    lines = [
        "orbit types: {}".format(", ".join(ts.sorted_labels())),
        "dihedral orders |p +- q|/2: {}".format(list(ts.orders)),
        "almost free: {}".format(ts.almost_free),
        "disc extension: {}".format(payload["disc_extension"]),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_table42(args):
    ts = isotropy.table_42(args.k, args.l, n=args.n)
    closed = isotropy.table_42_orders(args.k, args.l, n=args.n)
    payload = _type_set_payload(ts)
    payload.update({"k": args.k, "l": args.l, "n": args.n,
                    "closed_form_orders": list(closed)})
    agree = tuple(sorted(ts.orders)) == closed
    lines = [
        "orbit types for (k, l) = ({}, {}){}: {}".format(
            args.k, args.l,
            "" if args.n is None else " at n = {}".format(args.n),
            ", ".join(ts.sorted_labels())),
        "orders via canonical labels: {}".format(sorted(ts.orders)),
        "orders via closed forms:     {}".format(list(closed)),
    ]
    _emit(args, payload, lines)
    if not agree:
        print("closed forms disagree with the canonical route", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def cmd_ek(args):
    v = classify.eells_kuiper(args.k)
    payload = {
        "k": args.k, "class_mod_28": v,
        "orientation_folded": classify.orientation_fold(v),
        "standard_sphere": v == 0,
    }
    _emit(args, payload, [
        "boundary class of (k, 1-k): {} mod 28".format(v),
        "orientation-folded class: {}".format(payload["orientation_folded"]),
        "standard 7-sphere: {}".format(payload["standard_sphere"]),
    ])
    return EXIT_OK


def cmd_diffeo(args):
    same = classify.diffeo_equiv(args.k, args.m)
    _emit(args, {"k": args.k, "m": args.m, "diffeomorphic": same},
          ["boundaries of (k, 1-k) and (m, 1-m) diffeomorphic: {}".format(same)])
    return EXIT_OK


def cmd_brieskorn(args):
    res = classify.brieskorn_classify(args.n, args.d)
    payload = {"n": args.n, "d": args.d, "dimension": res.dimension,
               "verdict": res.verdict, "exotic": res.exotic}
    _emit(args, payload, [
        "W^{}({}): {}{}".format(2 * args.n - 1, args.d, res.verdict,
                                " (exotic)" if res.exotic else ""),
    ])
    return EXIT_OK


def cmd_rp5(args):
    res = classify.rp5_type(args.d)
    payload = {"d": args.d, "diffeo_residue": res.diffeo_residue,
               "homeo_residue": res.homeo_residue,
               "exotic_candidate": res.exotic_candidate,
               "caveat": res.caveat}
    _emit(args, payload, [
        "involution quotient of W^5({}): residue {} mod 8 "
        "(homeomorphism residue {})".format(args.d, res.diffeo_residue,
                                            res.homeo_residue),
        "distinct from the standard quotient: {}".format(res.exotic_candidate),
        "note: {}".format(res.caveat),
    ])
    return EXIT_OK


def cmd_s7class(args):
    r = bundles.s7_bundle_class(args.k)
    payload = {"k": args.k, "class_mod_12": r,
               "orientation_partner": bundles.s7_orientation_partner(r),
               "achievable": sorted(bundles.TOTAL_SPACE_RESIDUES)}
    _emit(args, payload, [
        "principal total-space class: {} mod 12".format(r),
        "orientation partner: {}".format(payload["orientation_partner"]),
        "achievable residues: {}".format(payload["achievable"]),
    ])
    return EXIT_OK


def cmd_cohomology(args):
    rep = bundles.cohomology_report(args.kind, args.k, l=args.l)
    payload = {
        "kind": rep.kind, "label": list(rep.label),
        "groups": [[d, g] for d, g in rep.groups],
        "ring_note": rep.ring_note, "notes": list(rep.notes),
    }
    lines = ["cohomology of {} {}:".format(rep.kind, tuple(rep.label))]
    lines += ["  H^{} = {}".format(d, g) for d, g in rep.groups]
    if rep.ring_note:
        lines.append("  ring: {}".format(rep.ring_note))
    lines += ["  note: {}".format(n) for n in rep.notes]
    _emit(args, payload, lines)
    return EXIT_OK


def _parse_algebra(text):
    from .liealg import Su2Power

    if text == "su2":
        return Su2Power(1)
    if text.startswith("su2^"):
        try:
            n = int(text[4:])
        except ValueError:
            pass
        else:
            return Su2Power(n)
    raise MilnorError("algebra must be su2 or su2^N, got {!r}".format(text))


def _parse_subalgebra(algebra, text):
    from .liealg import ReductiveSplit

    if text == "diagonal":
        return ReductiveSplit.diagonal(algebra)
    if text.startswith("factor"):
        try:
            index = int(text[6:] or "0")
        except ValueError:
            pass
        else:
            return ReductiveSplit.factor(algebra, index)
    if text.startswith("span-"):
        axis = {"i": 0, "j": 1, "k": 2}.get(text[5:])
        if axis is None:
            raise MilnorError("span axis must be i, j or k")
        direction = algebra.zero()
        direction[0, axis] = 1.0
        return ReductiveSplit.circle(algebra, direction)
    raise MilnorError(
        "subalgebra must be diagonal, factorN or span-i/j/k, got {!r}".format(text))


def cmd_curvature_scan(args):
    from . import deform

    algebra = _parse_algebra(args.algebra)
    split = _parse_subalgebra(algebra, args.subalgebra)
    metric = deform.DeformedMetric(split, args.a)
    scan = deform.scan_min_sectional(metric, n_planes=args.budget, seed=args.seed)
    oracle_gap = metric.oracle_agreement(samples=64, seed=args.seed)
    payload = {
        "algebra": args.algebra, "subalgebra": args.subalgebra,
        "a": float(args.a), "planes": args.budget, "seed": args.seed,
        "min_sectional": scan.min_value,
        "n_valid": scan.n_valid,
        "oracle_max_gap": oracle_gap,
    }
    lines = [
        "scanned {} planes at a = {}".format(args.budget, float(args.a)),
        "minimum sectional curvature found: {:.6e}".format(scan.min_value),
        "closed-form vs connection oracle, worst gap: {:.3e}".format(oracle_gap),
    ]
    if args.find_negative:
        res = deform.find_negative_plane(metric, budget=args.budget,
                                         seed=args.seed)
        payload["negative_plane_found"] = res.found
        payload["negative_value"] = res.value if res.found else None
        payload["oracle_value"] = res.oracle_value if res.found else None
        payload["evaluations"] = res.evaluations
        payload["scan_min"] = res.scan_min
        lines.append("negative plane found: {}".format(res.found))
        if res.found:
            lines.append("  value {:.6e} (oracle {:.6e})".format(
                res.value, res.oracle_value))
        _emit(args, payload, lines)
        return EXIT_OK if res.found else EXIT_FAILED
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_glue(args):
    from . import deform, glue
    from .liealg import Su2Power

    profile = glue.ProfileFunction.capped_sine(args.a, args.r)
    split = _parse_subalgebra(Su2Power(args.factors), "span-i")
    metric = deform.DeformedMetric(split, args.a)
    cert = glue.nonneg_certificate(profile, metric, planes=args.planes,
                                   seed=args.seed)
    if args.csv:
        profile.export_csv(args.csv)
    payload = {
        "a": float(args.a), "r": float(args.r),
        "matching_level": profile.plateau,
        "plateau_start": profile.t_plateau,
        "passed": cert.passed,
        "clauses": [{"name": c.name, "passed": c.passed, "value": c.value,
                     "tolerance": c.tolerance, "detail": c.detail}
                    for c in cert.clauses],
    }
    lines = ["matching level f = {} reached at t = {:.6f}".format(
        profile.plateau, profile.t_plateau)]
    lines += ["  {:<22} {}".format(c.name, "ok" if c.passed else "FAIL")
              for c in cert.clauses]
    lines.append("certificate: {}".format("PASS" if cert.passed else "FAIL"))
    if args.csv:
        lines.append("profile written to {}".format(args.csv))
    _emit(args, payload, lines)
    return EXIT_OK if cert.passed else EXIT_FAILED


# -- reproduction targets -----------------------------------------------------


def _repro_k105(expected):
    want = [tuple(s) for s in expected["euler105"]]
    got = bundles.solve_euler(105)
    return want == got, {"want": want, "got": got}


def _repro_ek16(expected):
    want_r = sorted(expected["ek_realized"])
    want_f = sorted(expected["ek_folded"])
    got_r = sorted(classify.realized_classes())
    got_f = sorted(classify.realized_folded_classes())
    ok = want_r == got_r and want_f == got_f
    return ok, {"want": [want_r, want_f], "got": [got_r, got_f]}


def _repro_thm45(expected):
    mism = []
    for key, want in sorted(expected["hopf_orbit_types"].items(),
                            key=lambda kv: int(kv[0])):
        got = isotropy.hopf_family(int(key)).sorted_labels()
        if got != want:
            mism.append({"n": int(key), "want": want, "got": got})
    return not mism, {"mismatches": mism,
                      "checked": len(expected["hopf_orbit_types"])}


def _repro_table42(expected):
    mism = []
    for row in expected["table42_grid"]:
        n = row.get("n")
        ts = isotropy.table_42(row["k"], row["l"], n=n)
        got = ts.sorted_labels()
        if got != row["labels"]:
            mism.append({"k": row["k"], "l": row["l"], "n": n,
                         "want": row["labels"], "got": got})
    return not mism, {"mismatches": mism, "checked": len(expected["table42_grid"])}


def _repro_s7(expected):
    want = sorted(expected["s7_residues"])
    got = sorted(bundles.TOTAL_SPACE_RESIDUES)
    live = sorted({bundles.s7_bundle_class(k) for k in range(-144, 145)})
    ok = want == got == live
    return ok, {"want": want, "got": got, "rescan": live}


_REPRO = {
    "k105": _repro_k105,
    "ek16": _repro_ek16,
    "thm45": _repro_thm45,
    "table42": _repro_table42,
    "s7": _repro_s7,
}


def cmd_repro(args):
    expected = load_expected()
    targets = sorted(_REPRO) if args.target == "all" else [args.target]
    results = {}
    ok_all = True
    lines = []
    for tgt in targets:
        ok, detail = _REPRO[tgt](expected)
        ok_all = ok_all and ok
        results[tgt] = {"ok": ok, "detail": detail}
        lines.append("{:<8} {}".format(tgt, "ok" if ok else "MISMATCH"))
        if not ok:
            lines.append("  detail: {}".format(detail))
    _emit(args, {"results": results, "ok": ok_all}, lines)
    return EXIT_OK if ok_all else EXIT_FAILED


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="milnor",
        description="Label arithmetic, curvature checks, and orbit-type "
                    "calculus for 3-sphere bundles over the 4-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit deterministic JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("solve", cmd_solve, "all (p_-, p_+) with (p_-^2 - p_+^2)/8 = k")
    p.add_argument("k", type=int)
    p.add_argument("--bound", type=int, default=None,
                   help="label bound, required for k = 0")

    p = add("canonical", cmd_canonical, "distinguished solution for k")
    p.add_argument("k", type=int)

    p = add("euler", cmd_euler, "(p_-^2 - p_+^2)/8 for a label pair")
    p.add_argument("p_minus", type=int)
    p.add_argument("p_plus", type=int)

    p = add("classify", cmd_classify, "bundle pair (k, l) of a label tuple")
    for name in ("p_minus", "q_minus", "p_plus", "q_plus"):
        p.add_argument(name, type=int)

    p = add("isotropy", cmd_isotropy, "orbit types of a label tuple")
    for name in ("p_minus", "q_minus", "p_plus", "q_plus"):
        p.add_argument(name, type=int)

    p = add("table42", cmd_table42, "orbit types for a bundle pair (k, l)")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--n", type=int, default=None,
                   help="family index, required when l = 0")

    p = add("ek", cmd_ek, "boundary diffeomorphism class of (k, 1-k)")
    p.add_argument("k", type=int)

    p = add("diffeo", cmd_diffeo, "are two boundary spheres diffeomorphic")
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)

    p = add("brieskorn", cmd_brieskorn, "odd-dimensional link classification")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)

    p = add("rp5", cmd_rp5, "involution quotient types in dimension 5")
    p.add_argument("d", type=int)

    p = add("s7class", cmd_s7class, "principal total-space class mod 12")
    p.add_argument("k", type=int)

    p = add("cohomology", cmd_cohomology,
            "cohomology of a bundle total space")
    p.add_argument("kind",
                   choices=["principal3", "sphere2", "sphere3", "principal33"])
    p.add_argument("k", type=int)
    p.add_argument("l", type=int, nargs="?", default=None)

    p = add("curvature-scan", cmd_curvature_scan,
            "scan sectional curvature of a deformed metric")
    p.add_argument("--algebra", default="su2^2",
                   help="su2 or su2^N (default su2^2)")
    p.add_argument("--subalgebra", default="diagonal",
                   help="diagonal, factorN, or span-i/j/k")
    p.add_argument("--a", type=_fraction, required=True,
                   help="deformation parameter (fraction or float)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20000,
                   help="number of sampled planes")
    p.add_argument("--find-negative", action="store_true",
                   help="also search for a certified negative plane")

    p = add("glue", cmd_glue, "build and certify a disc-gluing profile")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--r", type=_fraction, required=True)
    p.add_argument("--planes", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factors", type=int, default=1,
                   help="number of quaternion factors in the scanned group")
    p.add_argument("--csv", default=None, help="write the profile as CSV")

    p = add("repro", cmd_repro,
            "recompute pinned tables and lists, diff against stored values")
    p.add_argument("target", choices=sorted(_REPRO) + ["all"])

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MilnorError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
