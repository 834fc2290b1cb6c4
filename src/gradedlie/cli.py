"""Batch command-line front-end.

One subcommand per library operation.  Each handler returns a pass flag and
a list of records; machine mode prints the records as JSON lines, where
timings are also reported, and text mode renders its deterministic lines
(byte-stable for identical inputs) from the same records.  Exit codes:
0 success/pass, 1 mathematical failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

from . import freelie, liealg, pbw, unigroup
from .algfile import (AlgebraFileError, ValidationFailure, load_algebra,
                      load_mats, load_relabel, parse_algebra, parse_word)
from .freelie import FreeLieError
from .groups import GroupError, _int_text
from .liealg import GradedLieAlgebra, LieAlgebraError, validate
from .unigroup import CoarseningError


class UsageError(ValueError):
    pass


Result = Tuple[bool, List[dict]]
Renderer = Callable[[GradedLieAlgebra, dict], List[str]]


class Command(NamedTuple):
    """A subcommand: its handler, the flags it adds to --algebra and
    --format, how it loads the algebra, the text lines of each record kind
    it returns, and the text lines that precede them."""
    help: str
    run: Callable[[GradedLieAlgebra, argparse.Namespace], Result]
    flags: Tuple[Tuple[str, dict], ...]
    render: Dict[str, Renderer]
    lead: Callable[[argparse.Namespace, List[dict]], List[str]]
    load: Callable[[str], GradedLieAlgebra]


_COMMANDS: Dict[str, Command] = {}


def _command(name: str, help_text: str, *flags: Tuple[str, dict],
             render: Dict[str, Renderer], lead=lambda args, records: [],
             load=parse_algebra):
    """Register the decorated handler as the subcommand name."""
    def register(run):
        _COMMANDS[name] = Command(help_text, run, flags, render, lead, load)
        return run
    return register


def _strict_int(text: str) -> int:
    """An optional minus sign and ASCII digits, as in group literals; int()
    would also take '0_2', '+2' and ' 2'."""
    try:
        return _int_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_MAX_LEN = ("--max-len", {"type": _strict_int, "required": True, "metavar": "N"})
_WORD_HELP = 'index list "[2,0,1]" or names "f h e"'


def _words(help_text: str) -> Tuple[str, dict]:
    return ("--word", {"action": "append", "metavar": "WORD", "required": True,
                       "help": help_text})


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact computations in graded Lie algebras: enveloping "
                    "normal forms, free graded Lie algebras, grading analysis.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--algebra", required=True, metavar="PATH",
                        help="algebra definition file")
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--format", choices=["text", "machine"], default="text")
    return p


# -- records and their text ----------------------------------------------------

def _field(key: str) -> Renderer:
    return lambda alg, rec: [rec[key]]


def _count(label: str, note: str = "") -> Renderer:
    return lambda alg, rec: [f"{label}: {rec['value']}{note}"]


def _status(passed: bool) -> str:
    return "pass" if passed else "FAIL"


def _vec_render(alg: GradedLieAlgebra, vec: Dict[int, Fraction]) -> str:
    if not vec:
        return "0"
    return " + ".join(f"{vec[i]} * {alg.name(i)}" for i in sorted(vec))


def _check_record(check: liealg.CheckResult) -> dict:
    return {"record": "check", "name": check.name, "pass": check.passed,
            "witness": check.witness}


def _check_text(rec: dict) -> str:
    status = "pass" if rec["pass"] else f"FAIL  witness: {rec['witness']}"
    return f"check {rec['name']}: {status}"


def _element_result(alg: GradedLieAlgebra, elt: pbw.SUElement) -> Result:
    terms = [{"word": list(m), "coeff": str(c)} for m, c in elt.canonical_items()]
    return True, [{"record": "element", "value": elt.render(alg), "terms": terms}]


def _monomial_listing(alg: GradedLieAlgebra, monos: List[Tuple[int, ...]]) -> Result:
    records = [{"record": "monomial", "word": list(m), "name": alg.word_name(m)}
               for m in monos]
    return True, records + [{"record": "count", "value": len(monos)}]


def _derivation_lines(alg: GradedLieAlgebra, rec: dict) -> List[str]:
    head = f"{rec['label'] or 'matrix'}  degree {rec['degree']}"
    return [head] + ["  [" + ", ".join(row) + "]" for row in rec["rows"]]


def _lyndon_lines(args, records: List[dict]) -> List[str]:
    by_length: Dict[int, List[str]] = {n: [] for n in range(1, args.max_len + 1)}
    for rec in records:
        if rec["record"] == "lyndon":
            by_length[rec["length"]].append("(" + rec["name"].replace(" ", ".") + ")")
    return [f"length {n:2d}  count {len(names):3d}  {' '.join(names)}"
            for n, names in by_length.items()]


# -- command handlers ------------------------------------------------------------

@_command("validate", "check grading compatibility, Jacobi, and normalization",
          render={"check": lambda alg, rec: [_check_text(rec)]}, load=load_algebra)
def _cmd_validate(alg, args) -> Result:
    report = validate(alg)
    return report.passed, [_check_record(check) for check in report.checks]


@_command("normalize", "straighten a word into its normal form", _words(_WORD_HELP),
          render={"element": _field("value")})
def _cmd_normalize(alg, args) -> Result:
    if len(args.word) != 1:
        raise UsageError(f"{args.command} takes exactly one --word")
    return _element_result(alg, pbw.normalize(alg, parse_word(alg, args.word[0])))


@_command("mul", "product of the normal forms of two words",
          _words(_WORD_HELP + " (give twice)"), render={"element": _field("value")})
def _cmd_mul(alg, args) -> Result:
    if len(args.word) != 2:
        raise UsageError(f"{args.command} takes exactly two --word flags")
    a = pbw.normalize(alg, parse_word(alg, args.word[0]))
    b = pbw.normalize(alg, parse_word(alg, args.word[1]))
    return _element_result(alg, pbw.su_mul(alg, a, b))


@_command("pbw-basis", "sorted commuting-degree monomials up to a length", _MAX_LEN,
          render={"monomial": _field("name"), "count": _count("count")})
def _cmd_pbw_basis(alg, args) -> Result:
    return _monomial_listing(alg, pbw.pbw_basis(alg, args.max_len))


@_command("ug-span", "adjacent-commuting spanning monomials (no independence claim)",
          _MAX_LEN, render={
              "monomial": _field("name"),
              "count": _count("count", " (spanning set only; independence not claimed)")})
def _cmd_ug_span(alg, args) -> Result:
    return _monomial_listing(alg, pbw.ug_spanning(alg, args.max_len))


@_command("embed-check", "verify the basis embeds into its enveloping algebra", render={
    "independence": lambda alg, rec: [f"letter independence: {_status(rec['pass'])}"],
    "pair": lambda alg, rec: [f"pair ({alg.name(rec['i'])},{alg.name(rec['j'])}): FAIL"],
    "pairs": lambda alg, rec: ["all bracket pairs: pass"]})
def _cmd_embed_check(alg, args) -> Result:
    report = pbw.embed_check(alg)
    records = [{"record": "independence", "pass": report.independent}]
    records += [{"record": "pair", "i": i, "j": j, "pass": False}
                for i, j in report.pair_failures]
    if not report.pair_failures:
        records.append({"record": "pairs", "pass": True})
    return report.ok, records


@_command("free-lie", "Lyndon basis of the free graded Lie algebra on the basis degrees",
          _MAX_LEN, render={"lyndon": lambda alg, rec: [], "count": _count("total")},
          lead=_lyndon_lines)
def _cmd_free_lie(alg, args) -> Result:
    elements = freelie.lyndon_basis(alg, args.max_len)
    records = [{"record": "lyndon", "length": len(e), "word": list(e.word),
                "name": alg.word_name(e.word), "degree": alg.group.format(e.degree)}
               for e in elements]
    return True, records + [{"record": "count", "value": len(elements)}]


@_command("witt-check", "rank/dimension check for products of Lyndon elements", _MAX_LEN,
          render={"witt": lambda alg, rec: [
              f"{rec['length']:6d}  {rec['lyndon_count']:6d}  {rec['pbw_rank']:8d}"
              f"  {rec['monomial_dim']:12d}  {_status(rec['pass'])}"]},
          lead=lambda args, records: ["length  lyndon  pbw_rank  monomial_dim  status"])
def _cmd_witt_check(alg, args) -> Result:
    report = freelie.witt_check(alg, args.max_len)
    return report.passed, [{"record": "witt", "length": row.length,
                            "lyndon_count": row.lyndon_count, "pbw_rank": row.pbw_rank,
                            "monomial_dim": row.monomial_dim, "pass": row.passed}
                           for row in report.rows]


@_command("psi-check", "free-abelian degree lift consistency check", _MAX_LEN, render={
    "lift": lambda alg, rec: [f"words checked: {rec['checked']}",
                              f"violations: {rec['violations']}"],
    "violation": lambda alg, rec: [
        f"VIOLATION {alg.word_name(rec['word'])}: {rec['reason']}"]})
def _cmd_psi_check(alg, args) -> Result:
    report = freelie.abelian_lift_check(alg, args.max_len)
    records = [{"record": "lift", "checked": report.words_checked,
                "violations": len(report.violations)}]
    records += [{"record": "violation", "word": list(v.word), "reason": v.reason}
                for v in report.violations]
    return report.passed, records


@_command("unigroup", "presentation of the universal grading group", render={
    "generators": lambda alg, rec: [
        "generators: " + (" ".join(rec["labels"]) if rec["labels"] else "(none)")],
    "relation": lambda alg, rec: [f"{rec['s1']} * {rec['s2']} = {rec['s3']}"],
    "count": _count("relations")})
def _cmd_unigroup(alg, args) -> Result:
    pres = unigroup.universal_presentation(alg)
    records = [{"record": "generators", "labels": pres.generators}]
    records += [{"record": "relation", "s1": s1, "s2": s2, "s3": s3}
                for s1, s2, s3 in pres.relations]
    return True, records + [{"record": "count", "value": len(pres.relations)}]


@_command("abelianize", "abelianized universal group and generator images", render={
    "group": lambda alg, rec: [f"U_ab ≅ {rec['description']}"],
    "image": lambda alg, rec: [
        f"{rec['generator']} -> ({', '.join(str(x) for x in rec['coords'])})"]})
def _cmd_abelianize(alg, args) -> Result:
    data = unigroup.abelianize(unigroup.universal_presentation(alg))
    records = [{"record": "group", "free_rank": data.free_rank,
                "invariant_factors": data.invariant_factors,
                "description": data.describe()}]
    records += [{"record": "image", "generator": label, "coords": list(image)}
                for label, image in zip(data.generators, data.images)]
    return True, records


@_command("is-abelian", "decide whether the grading is abelian", render={
    "verdict": lambda alg, rec: [f"abelian: {'true' if rec['abelian'] else 'false'}",
                                 f"U_ab ≅ {rec['group']}"],
    "collision": lambda alg, rec: [
        f"collision: {rec['first']} and {rec['second']} share an image"]})
def _cmd_is_abelian(alg, args) -> Result:
    verdict = unigroup.is_abelian_grading(alg)
    records = [{"record": "verdict", "abelian": verdict.is_abelian,
                "group": verdict.data.describe()}]
    records += [{"record": "collision", "first": a, "second": b}
                for a, b in verdict.collisions]
    return verdict.is_abelian, records


@_command("coarsen-check", "verify a relabeling yields a valid coarsening",
          ("--relabel", {"required": True, "metavar": "PATH",
                         "help": "relabeling file for the coarse grading"}),
          render={"support_map": lambda alg, rec: [f"p({rec['fine']}) = {rec['coarse']}"],
                  "verdict": lambda alg, rec: [] if rec["valid"] else [
                      "coarsening: INVALID  witness ({},{})".format(*rec["witness"]),
                      rec["reason"]]},
          lead=lambda args, records: ["coarsening: valid"] if records[-1]["valid"] else [])
def _cmd_coarsen_check(alg, args) -> Result:
    report = unigroup.coarsening_check(alg, load_relabel(args.relabel, alg))
    if not report.ok:
        i, j = report.witness
        return False, [{"record": "verdict", "valid": False,
                        "witness": [alg.name(i), alg.name(j)], "reason": report.reason}]
    records = [{"record": "support_map", "fine": alg.group.format(fine),
                "coarse": str(coarse)} for fine, coarse in report.coarsening.support_map]
    return True, records + [{"record": "verdict", "valid": True}]


@_command("center", "homogeneous basis of the center",
          render={"vector": _field("value"), "count": _count("dimension")})
def _cmd_center(alg, args) -> Result:
    vectors = liealg.center(alg)
    records = [{"record": "vector",
                "coords": {str(i): str(c) for i, c in sorted(v.items())},
                "value": _vec_render(alg, v)} for v in vectors]
    return True, records + [{"record": "count", "value": len(vectors)}]


@_command("ider", "inner derivations with their degrees",
          render={"derivation": _derivation_lines, "count": _count("count")})
def _cmd_ider(alg, args) -> Result:
    mats = liealg.inner_derivations(alg)
    records = [{"record": "derivation", "label": mat.label,
                "degree": alg.group.format(mat.degree),
                "rows": [[str(x) for x in row] for row in mat.rows]} for mat in mats]
    return True, records + [{"record": "count", "value": len(mats)}]


@_command("graded-span-check", "is a span of homogeneous endomorphisms a graded "
          "Lie algebra under the commutator",
          ("--mats", {"metavar": "PATH",
                      "help": "matrix span file; defaults to the inner derivations"}),
          render={"verdict": lambda alg, rec: [
              f"graded Lie subspace: true  ({rec['matrices']} matrices)"] if rec["ok"] else [
              "graded Lie subspace: false  witness ({}, {})".format(*rec["witness"]),
              rec["reason"]]})
def _cmd_graded_span_check(alg, args) -> Result:
    mats = load_mats(args.mats, alg) if args.mats else liealg.inner_derivations(alg)
    report = liealg.is_graded_lie_subspace(alg, mats)
    if report.ok:
        return True, [{"record": "verdict", "ok": True, "matrices": len(mats)}]
    return False, [{"record": "verdict", "ok": False,
                    "witness": list(report.witness_labels(mats)), "reason": report.reason}]


def _inputs_echo(args) -> Dict[str, object]:
    skip = {"command", "format"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        alg = cmd.load(args.algebra)
        passed, records = cmd.run(alg, args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for check in exc.report.checks:
            print(_check_text(_check_record(check)), file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraFileError, GroupError, LieAlgebraError, FreeLieError,
            CoarseningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "machine":
        elapsed = time.perf_counter() - started
        print(json.dumps({"record": "meta", "command": args.command,
                          "inputs": _inputs_echo(args)}, sort_keys=True))
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
        print(json.dumps({"record": "summary", "pass": passed,
                          "elapsed_s": round(elapsed, 6)}, sort_keys=True))
    else:
        print(f"# command: {args.command}")
        for key, value in _inputs_echo(args).items():
            print(f"# {key}: {value}")
        for line in cmd.lead(args, records):
            print(line)
        for rec in records:
            for line in cmd.render[rec["record"]](alg, rec):
                print(line)
        print(f"result: {'pass' if passed else 'fail'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
