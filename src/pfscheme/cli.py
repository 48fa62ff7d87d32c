"""Command-line interface.

Subcommands
-----------
gen frobenius|spread|circulant   write a scheme or graph coloring as JSON
check axioms|tcond|parabolics|separability|schurity
iso  alg|induced                 relation-level and point-level isomorphisms
classify thm2|wl                 arithmetic classification pipelines
verify-paper                     run the nine-criterion verification suite

Exit codes: 0 = pass/success, 2 = input error, 3 = check failed with a
certificate, 4 = unresolved/unknown.

JSON formats (exact field sets; every document is emitted with sorted keys
and two-space indentation, so identical inputs give byte-identical bytes;
the scheme files of `gen` put each row of "colors" on one line):

  scheme file   {"colors": [[int]], "n": int, "rank": int, "star": [int]}
                only "colors" is required; each of "n", "rank" and "star"
                that a file states must be the matrix's own
  spec file     {"kernel": [{"cyclic": m, "units": [u]} |
                            {"elem_abelian": [p, dim], "matrices": [[[int]]]}],
                 "complement_order": k}
  psi file      {"mapping": [int]}    relation i of the source maps to
                                      mapping[i] of the target

Reports: a report is the fields of its result record, in field order
(`_plain`): a nested record is an object, tuples and arrays are lists.
The few fields that a report drops, renames or derives are listed in
`_REPORT`, by record type name.

The global options --format and --seed go before or after the
subcommand.  The random seed only shuffles the scan order of candidate
base points in `iso induced`; every verdict is seed-independent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from contextlib import nullcontext
from functools import partial

import numpy as np

# The package registers its modules lazily (see pfscheme/__init__), so
# each handler imports what it uses on entry, before it reads a file, and a
# process compiles only the modules of its command.
from . import lattice

PASS, INPUT_ERROR, CHECK_FAILED, UNRESOLVED = 0, 2, 3, 4
GLOBAL_DEFAULTS = {"format": "json", "seed": 0}


# The fields a report writes other than as themselves, by record type name:
# None drops a field, and (key, f) writes f(record) under `key` in its place.
_REPORT = {
    "TConditionWitness": {"code": None, "pattern": ("pattern", lambda w: w.pattern_dict())},
    "SeparabilityVerdict": {
        "separable": ("verdict", lambda v: "separable" if v.separable else "undecided")},
    "WlVerdict": {"search_limited": None},
    "CriterionResult": {"seconds": None},
    "SchurityResult": {"automorphisms": ("num_automorphisms", lambda r: len(r.automorphisms))},
    "InducedIsomorphism": {"psi": ("mapping", lambda r: r.psi.mapping),
                           # BaseTriple records, written as lists
                           "tau": ("tau", lambda r: tuple(r.tau)),
                           "tau_prime": ("tau_prime", lambda r: tuple(r.tau_prime))},
}


def _plain(value):
    """The report form of `value` (module docstring, "Reports"): a record
    as an object of its fields, tuples and lists as lists, an array as its
    `tolist`; anything else as it is."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):     # a NamedTuple
        exceptions = _REPORT.get(type(value).__name__, {})
        out = {}
        for field, item in zip(value._fields, value):
            if field in exceptions:
                if exceptions[field] is None:
                    continue
                field, derive = exceptions[field]
                item = derive(value)
            out[field] = _plain(item)
        return out
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _emit(payload: dict, fmt: str, out_path: str | None = None,
          rows: str | None = None) -> None:
    """Write `payload` as "key: value" lines or as JSON with sorted keys and
    two-space indentation, each row of the matrix under `rows` (a list of
    lists or an array) on one line, written as it is formatted."""
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as fh:
        if fmt == "text":
            fh.write("".join("%s: %s\n" % (k, _plain(payload[k])) for k in sorted(payload)))
        elif rows is None:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        else:
            for i, (key, value) in enumerate(sorted(payload.items())):
                fh.write("%s  %s: " % (",\n" if i else "{\n", json.dumps(key)))
                if key == rows:
                    # json's C encoder runs only without `indent`: one call per row
                    for j, row in enumerate(value):
                        fh.write("%s    %s" % (",\n" if j else "[\n", json.dumps(_plain(row))))
                    fh.write("\n  ]")
                else:
                    fh.write(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
            fh.write("\n}\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(_fail("cannot read %s: %s" % (path, exc)))
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail("%s is not valid JSON (line %d column %d)"
                               % (path, exc.lineno, exc.colno)))
    if not isinstance(doc, dict):
        raise SystemExit(_fail("%s: expected a JSON object" % path))
    return doc


def _fail(message: str) -> int:
    sys.stderr.write("error: %s\n" % message)
    return INPUT_ERROR


# a row of `gen`'s layout; json.loads then checks its numbers as json.load does
_GEN_ROW = re.compile(r"    \[[0-9, ]*\],?\n")
_GEN_HEAD = ("{\n", '  "colors": [\n')


def _read_gen_layout(path: str):
    """(colors, the other entries) of a file in the layout `gen` writes,
    read one line at a time into a read-only array of the least unsigned
    dtype that holds its values (which `Scheme` keeps uncopied), or None
    for any other text.  A file read here gives what `json.load` gives, so
    None also stands for every layout this reader does not prove equal:
    the caller then takes the `json.load` path and its error messages."""
    try:
        with open(path) as fh:
            if any(fh.readline(len(head)) != head for head in _GEN_HEAD):
                return None
            colors, n = None, 0
            for i, line in enumerate(fh):
                if i == n and colors is not None:
                    break
                if not _GEN_ROW.fullmatch(line):
                    return None
                row = json.loads(line[4:line.rindex("]") + 1])
                if colors is None:
                    n = len(row)
                    colors = np.zeros((n, n), dtype=np.uint8)
                if not n or len(row) != n or line.endswith(",\n") != (i < n - 1):
                    return None
                try:
                    colors[i] = row
                except OverflowError:       # widen to the row's maximum
                    top = max(row)
                    if top >= n * n:        # no scheme: json.load's path names it
                        return None
                    colors = colors.astype(np.min_scalar_type(top))
                    colors[i] = row
            else:
                return None                 # ends inside the matrix
            if line not in ("  ],\n", "  ]\n"):
                return None
            rest = json.loads("{" + fh.read())
    except (OSError, ValueError):           # JSONDecodeError, UnicodeDecodeError
        return None
    if not isinstance(rest, dict) or "colors" in rest or bool(rest) != line.endswith(",\n"):
        return None
    colors.setflags(write=False)
    return colors, rest


def _load_document(path: str) -> tuple[np.ndarray, dict]:
    """(colors, the other entries) of a scheme file: `gen`'s layout line by
    line, anything else through `json.load`, whose lists are freed once
    converted."""
    found = _read_gen_layout(path)
    if found is not None:
        return found
    d = _load_json(path)
    if "colors" not in d:
        raise SystemExit(_fail("%s: missing 'colors'" % path))
    try:
        colors = np.asarray(d.pop("colors"))
    except ValueError as exc:              # numpy: ragged rows
        raise SystemExit(_fail("%s: 'colors' is not a matrix: %s" % (path, exc)))
    if (colors.ndim != 2 or colors.shape[0] != colors.shape[1]
            or not np.issubdtype(colors.dtype, np.integer)):
        raise SystemExit(_fail("%s: 'colors' must be a square matrix of integers" % path))
    return colors, d


def _check_stated(scheme, stated: dict, path: str) -> None:
    """Exit 2 when the file states an n, rank or star other than its matrix's."""
    if stated.get("n", scheme.n) != scheme.n or stated.get("rank", scheme.rank) != scheme.rank:
        raise SystemExit(_fail("%s: scheme JSON n/rank fields disagree with the matrix" % path))
    if "star" in stated and stated["star"] != list(scheme.star):
        raise SystemExit(_fail("%s: scheme JSON star field is not the matrix's transpose map"
                               % path))


def _load_scheme(path: str):
    from .scheme import Scheme
    colors, stated = _load_document(path)
    try:
        scheme = Scheme(colors)
    except ValueError as exc:               # SchemeError
        raise SystemExit(_fail("%s: %s" % (path, exc)))
    _check_stated(scheme, stated, path)
    return scheme


def _load_pair(source: str, target: str):
    """The schemes of two files; one Scheme, and so one tensor, when both
    name the same file."""
    src = _load_scheme(source)
    try:
        same = os.path.samefile(source, target)
    except OSError:                        # the target's own load reports it
        same = False
    return src, src if same else _load_scheme(target)


def _pair_error(exc, named, context: str = "") -> int:
    """Exit 2 for the scheme error `exc` of a two-file command: naming the
    first of `named`, its (path, scheme) pairs, whose tensor raises, and
    else with `context` before `exc`."""
    from .scheme import SchemeError
    for path, scheme in named:
        try:
            scheme.tensor()
        except SchemeError as own:
            return _fail("%s: %s" % (path, own))
    return _fail(context + str(exc))


def _parse_ints(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise SystemExit(_fail("expected a comma-separated integer list, got %r" % raw))


def _spec_from_args(args):
    from .frobenius import FrobeniusSpec
    try:
        if args.spec:
            return FrobeniusSpec.from_json_dict(_load_json(args.spec))
        if args.cyclic:
            from .catalog import cyclic_unit_spec
            vals = _parse_ints(args.cyclic)
            if len(vals) != 2:
                raise SystemExit(_fail("--cyclic needs exactly M,U"))
            return cyclic_unit_spec(*vals)
        if args.scalar:
            from .catalog import scalar_spec
            vals = _parse_ints(args.scalar)
            if not 1 <= len(vals) <= 2:
                raise SystemExit(_fail("--scalar needs Q or Q,DIM"))
            return scalar_spec(*vals)
    except ValueError as exc:              # FrobeniusError, or a bad field order
        raise SystemExit(_fail(str(exc)))
    raise SystemExit(_fail("provide --spec FILE, --cyclic M,U, or --scalar Q[,DIM]"))


def _circulant_from_args(args):
    """The circulant of --n with --units/--reps, or else with --conn."""
    from .circulants import CirculantSpec, circulant_from_connection, frobenius_circulant
    try:
        if args.units:
            spec = CirculantSpec(args.n, tuple(_parse_ints(args.units)),
                                 tuple(_parse_ints(args.reps or "1")))
            return frobenius_circulant(spec)
        return circulant_from_connection(args.n, _parse_ints(args.conn or ""))
    except ValueError as exc:
        raise SystemExit(_fail(str(exc)))


# -- gen ---------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.kind == "circulant":
        from .circulants import color_matrix
        circ = _circulant_from_args(args)
        payload = {"n": circ.n, "connection": sorted(circ.connection),
                   "colors": color_matrix(circ)}
    else:
        try:
            if args.kind == "frobenius":
                from .scheme import frobenius_scheme
                scheme = frobenius_scheme(_spec_from_args(args))
                payload = {"valency": scheme.is_equivalenced()}
            else:
                from .spreads import desarguesian_spread, hall_spread, spread_scheme
                scheme = spread_scheme(hall_spread(args.q) if args.plane == "hall"
                                       else desarguesian_spread(args.q))
                payload = {"plane": args.plane}
        except (ValueError, ArithmeticError) as exc:   # FrobeniusError, or a bad q
            return _fail(str(exc))
        # the scheme file's fields (module docstring), the colours kept as the array
        payload.update(n=scheme.n, rank=scheme.rank, star=list(scheme.star),
                       colors=scheme.colors, fingerprint=scheme.fingerprint())
    try:
        _emit(payload, args.format, args.out, rows="colors")
    except OSError as exc:
        return _fail("cannot write %s: %s" % (args.out or "stdout", exc))
    return PASS


# -- check -------------------------------------------------------------


def cmd_check_axioms(args) -> int:
    from .scheme import Scheme, SchemeError
    colors, stated = _load_document(args.scheme)
    try:
        s = Scheme(colors)
        _check_stated(s, stated, args.scheme)     # exit 2, not a certificate
        s.tensor()              # C3, triangle identities and row sums
    except SchemeError as exc:
        _emit({"passed": False, "certificate": str(exc)}, args.format)
        return CHECK_FAILED
    _emit({"passed": True, "n": s.n, "rank": s.rank,
           "valencies": list(s.valencies())}, args.format)
    return PASS


def cmd_check_tcond(args) -> int:
    from .tcond import check_t_condition
    s = _load_scheme(args.scheme)
    try:
        report = check_t_condition(s, args.t)
    except ValueError as exc:              # rank too large for int64 pattern codes
        return _fail("%s: %s" % (args.scheme, exc))
    _emit(_plain(report), args.format)
    return PASS if report.passed else CHECK_FAILED


def cmd_check_parabolics(args) -> int:
    from .parabolic import divide_check, enumerate_parabolics, indistinguishing_number
    from .scheme import SchemeError
    s = _load_scheme(args.scheme)
    try:
        paras = enumerate_parabolics(s)
    except SchemeError as exc:             # NotCoherentError
        return _fail("%s: %s" % (args.scheme, exc))
    payload = {
        "n": s.n,
        "rank": s.rank,
        "parabolics": [{"relations": sorted(e.relations), "block_size": e.n_e,
                        "classes": e.num_classes} for e in paras],
    }
    k = s.is_equivalenced()
    if k is not None:
        payload["valency"] = k
        payload["indistinguishing"] = indistinguishing_number(s)
        payload["divide"] = [{"lower": r.n_lower, "upper": r.n_upper,
                              "quotient": r.quotient, "ok": r.ok}
                             for r in divide_check(s)]
    _emit(payload, args.format)
    return PASS


def cmd_check_separability(args) -> int:
    from .parabolic import separability_verdict
    from .scheme import SchemeError
    if args.spec:
        from .frobenius import FrobeniusSpec
        try:
            verdict = separability_verdict(FrobeniusSpec.from_json_dict(_load_json(args.spec)))
        except ValueError as exc:          # FrobeniusError, or a primitive spec
            return _fail("%s: %s" % (args.spec, exc))
    else:
        if not args.scheme:
            return _fail("provide --scheme FILE or --spec FILE")
        s = _load_scheme(args.scheme)
        try:
            verdict = separability_verdict(s)
        except SchemeError as exc:
            return _fail("%s: %s" % (args.scheme, exc))
    _emit(_plain(verdict), args.format)
    return PASS if verdict.separable else UNRESOLVED


def cmd_check_schurity(args) -> int:
    from .algiso import schurity_via_base_triples
    from .scheme import SchemeError
    s = _load_scheme(args.scheme)
    try:
        result = schurity_via_base_triples(s)
    except SchemeError as exc:
        return _fail("%s: %s" % (args.scheme, exc))
    _emit(_plain(result), args.format)
    return PASS if result.schurian else CHECK_FAILED


# -- iso ---------------------------------------------------------------


def cmd_iso_alg(args) -> int:
    from .algiso import find_algebraic_isomorphisms
    from .scheme import SchemeError
    if args.limit is not None and args.limit < 1:
        return _fail("--limit must be at least 1, got %d" % args.limit)
    src, dst = _load_pair(args.source, args.target)
    try:
        isos, truncated = find_algebraic_isomorphisms(src, dst, limit=args.limit)
    except SchemeError as exc:             # NotCoherentError
        return _pair_error(exc, ((args.source, src), (args.target, dst)))
    _emit({"count": len(isos), "truncated": truncated,
           "mappings": _plain([f.mapping for f in isos])}, args.format)
    if isos:
        return PASS
    return UNRESOLVED if truncated else CHECK_FAILED


def cmd_iso_induced(args) -> int:
    from .algiso import RelationBijection, induced_isomorphism
    from .scheme import SchemeError
    src, dst = _load_pair(args.source, args.target)
    if args.psi:
        mapping = _load_json(args.psi).get("mapping")
        if mapping is None:
            return _fail("%s: missing 'mapping'" % args.psi)
        if not (isinstance(mapping, list)
                and all(isinstance(x, int) and not isinstance(x, bool) for x in mapping)):
            return _fail("%s: 'mapping' must be a list of integers" % args.psi)
        mapping, what = tuple(mapping), "psi is not an algebraic isomorphism"
    else:
        mapping, what = tuple(range(src.rank)), "identity is not an algebraic isomorphism here"
    try:
        psi = RelationBijection(src, dst, mapping)
    except SchemeError as exc:
        return _pair_error(exc, ((args.source, src), (args.target, dst)), what + ": ")
    mu_candidates = None
    if args.seed:
        order = list(range(dst.n))
        random.Random(args.seed).shuffle(order)
        mu_candidates = order
    try:
        found = induced_isomorphism(src, dst, psi, mu_candidates=mu_candidates)
    except SchemeError as exc:
        return _fail(str(exc))
    if found is None:
        _emit({"induced": False,
               "certificate": "no compatible base triple reconstructs psi"},
              args.format)
        return CHECK_FAILED
    _emit({"induced": True, **_plain(found)}, args.format)
    return PASS


# -- classify ----------------------------------------------------------


def cmd_classify_thm2(args) -> int:
    from .frobenius import FrobeniusError, thm2_profile
    spec = _spec_from_args(args)
    try:
        profile = thm2_profile(spec)
    except FrobeniusError as exc:
        return _fail(str(exc))
    _emit(_plain(profile), args.format)
    return PASS


def cmd_classify_wl(args) -> int:
    from .wldim import dimwl_verdict
    verdict = dimwl_verdict(_circulant_from_args(args))
    _emit(_plain(verdict), args.format)
    if verdict.verdict == "Exactly2":
        return PASS
    if verdict.verdict == "ExceptionUnresolved" or verdict.search_limited:
        return UNRESOLVED
    return CHECK_FAILED


# -- verify-paper --------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_all
    results = run_all()
    # In json mode stdout carries the document alone; the lines go to stderr.
    lines = sys.stdout if args.format == "text" else sys.stderr
    for r in results:
        print(r.line(), file=lines)
    payload = {"criteria": _plain(results),
               "all_passed": all(r.passed for r in results)}
    if args.format == "json":
        _emit(payload, args.format)
    return PASS if payload["all_passed"] else CHECK_FAILED


# -- parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one stderr line and exit code 2."""

    def error(self, message):
        raise SystemExit(_fail("%s: %s" % (self.prog, message)))


def build_parser() -> argparse.ArgumentParser:
    # The global options are accepted before and after every subcommand.
    # No parser holds their defaults (see `main`), so a subparser that does
    # not see an option leaves the value given before it in place.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS,
                        help="report format (default: json)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="shuffle candidate scan order in 'iso induced' "
                             "only (default: 0)")
    p = _Parser(prog="pfscheme", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter,
                                parents=[common])
    with_globals = partial(_Parser, parents=[common])
    sub = p.add_subparsers(dest="command", required=True, parser_class=with_globals)

    g = sub.add_parser("gen", help="generate schemes and graph colorings")
    g.set_defaults(func=cmd_gen)
    gsub = g.add_subparsers(dest="kind", required=True, parser_class=with_globals)
    gf = gsub.add_parser("frobenius")
    gf.add_argument("--spec")
    gf.add_argument("--cyclic", help="M,U for Z_M with unit U")
    gf.add_argument("--scalar", help="Q[,DIM] for F_Q^DIM with scalars")
    gf.add_argument("--out")
    gs = gsub.add_parser("spread")
    gs.add_argument("--q", type=int, required=True)
    gs.add_argument("--plane", choices=("desarguesian", "hall"),
                    default="desarguesian")
    gs.add_argument("--out")
    gc = gsub.add_parser("circulant")
    gc.add_argument("--n", type=int, required=True)
    gc.add_argument("--conn", help="comma-separated connection set")
    gc.add_argument("--units", help="unit generators of the complement")
    gc.add_argument("--reps", help="orbit representatives (with --units)")
    gc.add_argument("--out")

    c = sub.add_parser("check", help="run a structural check")
    csub = c.add_subparsers(dest="what", required=True, parser_class=with_globals)
    ca = csub.add_parser("axioms")
    ca.set_defaults(func=cmd_check_axioms)
    ca.add_argument("--scheme", required=True)
    ct = csub.add_parser("tcond")
    ct.set_defaults(func=cmd_check_tcond)
    ct.add_argument("--scheme", required=True)
    ct.add_argument("--t", type=int, choices=(3, 4), default=4)
    cp = csub.add_parser("parabolics")
    cp.set_defaults(func=cmd_check_parabolics)
    cp.add_argument("--scheme", required=True)
    cs = csub.add_parser("separability")
    cs.set_defaults(func=cmd_check_separability)
    cs.add_argument("--scheme")
    cs.add_argument("--spec")
    cu = csub.add_parser("schurity")
    cu.set_defaults(func=cmd_check_schurity)
    cu.add_argument("--scheme", required=True)

    i = sub.add_parser("iso", help="find isomorphisms")
    isub = i.add_subparsers(dest="level", required=True, parser_class=with_globals)
    ia = isub.add_parser("alg")
    ia.set_defaults(func=cmd_iso_alg)
    ia.add_argument("source")
    ia.add_argument("target")
    ia.add_argument("--limit", type=int)
    ii = isub.add_parser("induced")
    ii.set_defaults(func=cmd_iso_induced)
    ii.add_argument("source")
    ii.add_argument("target")
    ii.add_argument("--psi", help="JSON file with a relation mapping")

    k = sub.add_parser("classify", help="arithmetic classification")
    ksub = k.add_subparsers(dest="pipeline", required=True, parser_class=with_globals)
    kt = ksub.add_parser("thm2")
    kt.set_defaults(func=cmd_classify_thm2)
    kt.add_argument("--spec")
    kt.add_argument("--cyclic")
    kt.add_argument("--scalar")
    kw = ksub.add_parser("wl")
    kw.set_defaults(func=cmd_classify_wl)
    kw.add_argument("--n", type=int, required=True)
    kw.add_argument("--conn")
    kw.add_argument("--units")
    kw.add_argument("--reps")

    v = sub.add_parser("verify-paper", help="run the nine verification criteria")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(**GLOBAL_DEFAULTS))
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else INPUT_ERROR
    except MemoryError as exc:             # an input too large for this host
        return _fail("out of memory: %s" % (str(exc) or "allocation failed"))
    # Read only when an exception gets here, so that `lattice` is loaded by
    # the commands that enumerate a lattice and by no other.
    except lattice.LatticeTooLarge as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
