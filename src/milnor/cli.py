"""Command-line interface.

Every subcommand prints either human-readable lines or, with --json, a
deterministic JSON document (sorted keys, two-space indent) so that runs
with equal inputs are byte-identical. Exit codes: 0 success, 2 usage
errors (argparse), 3 domain errors (bad labels, out-of-regime inputs),
4 failed certificates, failed searches, and reproduction mismatches, 141
(128 + SIGPIPE) when the reader closed stdout before the output was
written, as in `milnor glue ... | head -1`: then nothing more is printed.

No layer of the package is imported here, only the stored-data reader
and the exceptions: each handler imports the layers it calls. So an
integer subcommand loads argparse, json and the integer modules it calls,
and the numeric layers (liealg, deform, glue), and with them numpy, load
only for `curvature-scan` and `glue`. numpy is the only numeric
dependency.

The subcommands live in one table, `_COMMANDS`. A call that names its
subcommand first builds the parser for that subcommand alone; any other
call (no subcommand, a leading option, an unknown word) gets the full
parser. Help, usage and error text are the same either way.
"""

import argparse
import json
import math
import sys

from .data import load_expected
from .errors import MilnorError

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_FAILED = 4
EXIT_PIPE = 141


def _emit(args, payload, lines):
    if args.json:
        # Strict JSON (RFC 8259) has no NaN or Infinity: a payload holding
        # one raises ValueError rather than print a document strict
        # parsers reject.
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _fraction(text):
    """Read '4/3', '1.25', '2e-3' or '2' as the exact Fraction it writes:
    '1.05' is 21/20. A decimal or exponent literal must lie in the float
    range: one that overflows, such as '1e400', is a bad number, and one
    whose float is 0.0 reads as 0 (read exactly, '1e-999999999' would
    build 10^999999999)."""
    from fractions import Fraction

    try:
        if "." in text or "e" in text or "E" in text:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("not finite")
            if not value:
                return Fraction(0)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad number {!r}".format(text)) from exc


def _type_set_payload(ts):
    from . import isotropy

    return {
        "types": ts.sorted_labels(),
        "dihedral_orders": list(ts.orders),
        "almost_free": ts.almost_free,
        "disc_extension": isotropy.oliver_obstruction(ts),
    }


# -- subcommand handlers ------------------------------------------------------


def cmd_solve(args):
    from . import bundles

    sols = bundles.solve_euler(args.k, bound=args.bound)
    payload = {"k": args.k, "solutions": [list(s) for s in sols]}
    lines = ["(p_-, p_+) with (p_-^2 - p_+^2)/8 = {}:".format(args.k)]
    lines += ["  ({}, {})".format(*s) for s in sols]
    if not sols:
        lines.append("  (none)")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_canonical(args):
    from . import bundles

    sol = bundles.canonical_solution(args.k)
    _emit(args, {"k": args.k, "solution": list(sol)},
          ["canonical (p_-, p_+) for k = {}: ({}, {})".format(args.k, *sol)])
    return EXIT_OK


def cmd_euler(args):
    from . import bundles

    k = bundles.euler_class(args.p_minus, args.p_plus)
    _emit(args, {"p_minus": args.p_minus, "p_plus": args.p_plus, "k": k},
          ["(p_-^2 - p_+^2)/8 = {}".format(k)])
    return EXIT_OK


def cmd_classify(args):
    from . import bundles, classify

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
    from . import isotropy

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
    from . import isotropy

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
    from . import classify

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
    from . import classify

    same = classify.diffeo_equiv(args.k, args.m)
    _emit(args, {"k": args.k, "m": args.m, "diffeomorphic": same},
          ["boundaries of (k, 1-k) and (m, 1-m) diffeomorphic: {}".format(same)])
    return EXIT_OK


def cmd_brieskorn(args):
    from . import classify

    res = classify.brieskorn_classify(args.n, args.d)
    payload = {"n": args.n, "d": args.d, "dimension": res.dimension,
               "verdict": res.verdict, "exotic": res.exotic}
    _emit(args, payload, [
        "W^{}({}): {}{}".format(2 * args.n - 1, args.d, res.verdict,
                                " (exotic)" if res.exotic else ""),
    ])
    return EXIT_OK


def cmd_rp5(args):
    from . import classify

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
    from . import bundles

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
    from . import bundles

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
        try:
            profile.export_csv(args.csv)
        except OSError as exc:
            raise MilnorError("cannot write {}: {}".format(
                args.csv, exc.strerror or exc)) from exc
    payload = {
        "a": float(args.a), "r": float(args.r),
        "matching_level": profile.plateau,
        "plateau_start": profile.t_plateau,
        "passed": cert.passed,
        # a clause that cannot be evaluated has no finite value; its
        # detail says why
        "clauses": [{"name": c.name, "passed": c.passed,
                     "value": c.value if math.isfinite(c.value) else None,
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
    from . import bundles

    want = [tuple(s) for s in expected["euler105"]]
    got = bundles.solve_euler(105)
    return want == got, {"want": want, "got": got}


def _repro_ek16(expected):
    from . import classify

    want_r = sorted(expected["ek_realized"])
    want_f = sorted(expected["ek_folded"])
    got_r = sorted(classify.realized_classes())
    got_f = sorted(classify.realized_folded_classes())
    ok = want_r == got_r and want_f == got_f
    return ok, {"want": [want_r, want_f], "got": [got_r, got_f]}


def _repro_thm45(expected):
    from . import isotropy

    mism = []
    for key, want in sorted(expected["hopf_orbit_types"].items(),
                            key=lambda kv: int(kv[0])):
        got = isotropy.hopf_family(int(key)).sorted_labels()
        if got != want:
            mism.append({"n": int(key), "want": want, "got": got})
    return not mism, {"mismatches": mism,
                      "checked": len(expected["hopf_orbit_types"])}


def _repro_table42(expected):
    from . import isotropy

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
    from . import bundles

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

def _ints(*names):
    """Integer positionals, as _COMMANDS lists arguments."""
    return [((name,), {"type": int}) for name in names]

#: name -> (handler, help, arguments after --json as (flags, options)), in
#: the order the help lists them
_COMMANDS = {
    "solve": (cmd_solve, "all (p_-, p_+) with (p_-^2 - p_+^2)/8 = k",
              _ints("k") + [(("--bound",), {
                  "type": int, "default": None,
                  "help": "label bound, required for k = 0"})]),
    "canonical": (cmd_canonical, "distinguished solution for k", _ints("k")),
    "euler": (cmd_euler, "(p_-^2 - p_+^2)/8 for a label pair",
              _ints("p_minus", "p_plus")),
    "classify": (cmd_classify, "bundle pair (k, l) of a label tuple",
                 _ints("p_minus", "q_minus", "p_plus", "q_plus")),
    "isotropy": (cmd_isotropy, "orbit types of a label tuple",
                 _ints("p_minus", "q_minus", "p_plus", "q_plus")),
    "table42": (cmd_table42, "orbit types for a bundle pair (k, l)",
                _ints("k", "l") + [(("--n",), {
                    "type": int, "default": None,
                    "help": "family index, required when l = 0"})]),
    "ek": (cmd_ek, "boundary diffeomorphism class of (k, 1-k)", _ints("k")),
    "diffeo": (cmd_diffeo, "are two boundary spheres diffeomorphic",
               _ints("k", "m")),
    "brieskorn": (cmd_brieskorn, "odd-dimensional link classification",
                  _ints("n", "d")),
    "rp5": (cmd_rp5, "involution quotient types in dimension 5", _ints("d")),
    "s7class": (cmd_s7class, "principal total-space class mod 12",
                _ints("k")),
    "cohomology": (cmd_cohomology, "cohomology of a bundle total space", [
        (("kind",), {"choices": ["principal3", "sphere2", "sphere3",
                                 "principal33"]}),
        (("k",), {"type": int}),
        (("l",), {"type": int, "nargs": "?", "default": None}),
    ]),
    "curvature-scan": (
        cmd_curvature_scan, "scan sectional curvature of a deformed metric", [
            (("--algebra",), {"default": "su2^2",
                              "help": "su2 or su2^N (default su2^2)"}),
            (("--subalgebra",), {"default": "diagonal",
                                 "help": "diagonal, factorN, or span-i/j/k"}),
            (("--a",), {"type": _fraction, "required": True,
                        "help": "deformation parameter, read exactly: "
                                "4/3, 1.05 or 2"}),
            (("--seed",), {"type": int, "default": 0}),
            (("--budget",), {"type": int, "default": 20000,
                             "help": "number of sampled planes"}),
            (("--find-negative",), {
                "action": "store_true",
                "help": "also report a negative plane when the exact "
                        "decision finds one: a rational witness, checked "
                        "by the connection oracle (exit 4 otherwise)"}),
        ]),
    "glue": (cmd_glue, "build and certify a disc-gluing profile", [
        (("--a",), {"type": _fraction, "required": True}),
        (("--r",), {"type": _fraction, "required": True}),
        (("--planes",), {
            "type": int, "default": 10000,
            "help": "planes of the random scan that metric_nonneg reports "
                    "when no exact rule or witness decides the subalgebra; "
                    "span-i is always decided, so it runs no scan"}),
        (("--seed",), {"type": int, "default": 0,
                       "help": "seed of that scan"}),
        (("--factors",), {
            "type": int, "default": 1,
            "help": "number of quaternion factors in the deformed group"}),
        (("--csv",), {"default": None, "help": "write the profile as CSV"}),
    ]),
    "repro": (
        cmd_repro,
        "recompute pinned tables and lists, diff against stored values",
        [(("target",), {"choices": sorted(_REPRO) + ["all"]})]),
}


def build_parser(command=None):
    """The milnor parser with every subcommand, or with `command` alone.

    A one-command parser names all of them in its usage line, so the
    usage it prints with a top-level error is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="milnor",
        description="Label arithmetic, curvature checks, and orbit-type "
                    "calculus for 3-sphere bundles over the 4-sphere.")
    if command is None:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        names = [command]
        sub = parser.add_subparsers(
            dest="command", required=True,
            metavar="{" + ",".join(_COMMANDS) + "}")
    for name in names:
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit deterministic JSON")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # A leading command word gets a parser holding that subcommand alone;
    # anything else (no word, an option, an unknown word) gets the full
    # one, whose help and errors list every subcommand.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except MilnorError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader is gone (`| head`): exit quietly, as Unix filters do.
        # stdout goes to devnull so that the flush at exit cannot raise
        # again.
        import os  # loaded at start-up anyway

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
