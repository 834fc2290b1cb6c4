"""Batch command-line front-end.

One subcommand per library operation; deterministic text output (byte-stable
for identical inputs) or line-delimited JSON records in machine mode, where
timings are also reported.  Exit codes: 0 success/pass, 1 mathematical
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Tuple

from . import freelie, liealg, pbw, unigroup
from .algfile import (AlgebraFileError, ValidationFailure, load_algebra,
                      load_mats, load_relabel, parse_algebra, parse_word)
from .freelie import FreeLieError
from .groups import GroupError
from .liealg import GradedLieAlgebra, LieAlgebraError, validate
from .unigroup import CoarseningError


class UsageError(ValueError):
    pass


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact computations in graded Lie algebras: enveloping "
                    "normal forms, free graded Lie algebras, grading analysis.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str, max_len: bool = False,
            words: int = 0, relabel: bool = False, mats: bool = False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--algebra", required=True, metavar="PATH",
                        help="algebra definition file")
        if max_len:
            sp.add_argument("--max-len", type=int, required=True, metavar="N")
        if words:
            sp.add_argument("--word", action="append", metavar="WORD",
                            required=True,
                            help='index list "[2,0,1]" or names "f h e"'
                                 + (" (give twice)" if words == 2 else ""))
        if relabel:
            sp.add_argument("--relabel", required=True, metavar="PATH",
                            help="relabeling file for the coarse grading")
        if mats:
            sp.add_argument("--mats", metavar="PATH",
                            help="matrix span file; defaults to the inner derivations")
        sp.add_argument("--format", choices=["text", "machine"], default="text")
        return sp

    add("validate", "check grading compatibility, Jacobi, and normalization")
    add("normalize", "straighten a word into its normal form", words=1)
    add("mul", "product of the normal forms of two words", words=2)
    add("pbw-basis", "sorted commuting-degree monomials up to a length", max_len=True)
    add("ug-span", "adjacent-commuting spanning monomials (no independence claim)",
        max_len=True)
    add("embed-check", "verify the basis embeds into its enveloping algebra")
    add("free-lie", "Lyndon basis of the free graded Lie algebra on the basis degrees",
        max_len=True)
    add("witt-check", "rank/dimension check for products of Lyndon elements",
        max_len=True)
    add("psi-check", "free-abelian degree lift consistency check", max_len=True)
    add("unigroup", "presentation of the universal grading group")
    add("abelianize", "abelianized universal group and generator images")
    add("is-abelian", "decide whether the grading is abelian")
    add("coarsen-check", "verify a relabeling yields a valid coarsening", relabel=True)
    add("center", "homogeneous basis of the center")
    add("ider", "inner derivations with their degrees")
    add("graded-span-check", "is a span of homogeneous endomorphisms a graded "
        "Lie algebra under the commutator", mats=True)
    return p


# -- rendering helpers ---------------------------------------------------------

def _vec_render(alg: GradedLieAlgebra, vec: Dict[int, Fraction]) -> str:
    if not vec:
        return "0"
    return " + ".join(f"{vec[i]} * {alg.name(i)}" for i in sorted(vec))


def _check_line(check: liealg.CheckResult) -> str:
    status = "pass" if check.passed else f"FAIL  witness: {check.witness}"
    return f"check {check.name}: {status}"


def _element_result(alg: GradedLieAlgebra,
                    elt: pbw.SUElement) -> Tuple[bool, List[str], List[dict]]:
    rendered = elt.render(alg)
    terms = [{"word": list(m), "coeff": str(c)} for m, c in elt.canonical_items()]
    return True, [rendered], [{"record": "element", "value": rendered, "terms": terms}]


def _monomial_listing(alg: GradedLieAlgebra, monos: List[Tuple[int, ...]],
                      count_note: str = "") -> Tuple[bool, List[str], List[dict]]:
    lines = [alg.word_name(m) for m in monos] + [f"count: {len(monos)}{count_note}"]
    records = [{"record": "monomial", "word": list(m), "name": alg.word_name(m)}
               for m in monos]
    records.append({"record": "count", "value": len(monos)})
    return True, lines, records


def _mat_lines(alg: GradedLieAlgebra, mat: liealg.EndoMatrix) -> List[str]:
    head = f"{mat.label or 'matrix'}  degree {alg.group.format(mat.degree)}"
    rows = ["  [" + ", ".join(str(x) for x in row) + "]" for row in mat.rows]
    return [head] + rows


# -- command handlers ------------------------------------------------------------

def _cmd_validate(args) -> Tuple[bool, List[str], List[dict]]:
    alg = load_algebra(args.algebra)
    report = validate(alg)
    lines, records = [], []
    for check in report.checks:
        lines.append(_check_line(check))
        records.append({"record": "check", "name": check.name,
                        "pass": check.passed, "witness": check.witness})
    return report.passed, lines, records


def _cmd_normalize(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    if len(args.word) != 1:
        raise UsageError("normalize takes exactly one --word")
    return _element_result(alg, pbw.normalize(alg, parse_word(alg, args.word[0])))


def _cmd_mul(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    if len(args.word) != 2:
        raise UsageError("mul takes exactly two --word flags")
    a = pbw.normalize(alg, parse_word(alg, args.word[0]))
    b = pbw.normalize(alg, parse_word(alg, args.word[1]))
    return _element_result(alg, pbw.su_mul(alg, a, b))


def _cmd_pbw_basis(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    return _monomial_listing(alg, pbw.pbw_basis(alg, args.max_len))


def _cmd_ug_span(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    return _monomial_listing(alg, pbw.ug_spanning(alg, args.max_len),
                             " (spanning set only; independence not claimed)")


def _cmd_embed_check(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    report = pbw.embed_check(alg)
    lines = [f"letter independence: {'pass' if report.independent else 'FAIL'}"]
    records = [{"record": "independence", "pass": report.independent}]
    if report.pair_failures:
        for i, j in report.pair_failures:
            lines.append(f"pair ({alg.name(i)},{alg.name(j)}): FAIL")
            records.append({"record": "pair", "i": i, "j": j, "pass": False})
    else:
        lines.append("all bracket pairs: pass")
        records.append({"record": "pairs", "pass": True})
    return report.ok, lines, records


def _cmd_free_lie(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    elements = freelie.lyndon_basis(alg, args.max_len)
    lines = []
    records = []
    for length in range(1, args.max_len + 1):
        of_len = [e for e in elements if len(e) == length]
        names = " ".join("(" + alg.word_name(e.word).replace(" ", ".") + ")"
                         for e in of_len)
        lines.append(f"length {length:2d}  count {len(of_len):3d}  {names}")
        for e in of_len:
            records.append({"record": "lyndon", "length": length,
                            "word": list(e.word),
                            "name": alg.word_name(e.word),
                            "degree": alg.group.format(e.degree)})
    lines.append(f"total: {len(elements)}")
    records.append({"record": "count", "value": len(elements)})
    return True, lines, records


def _cmd_witt_check(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    report = freelie.witt_check(alg, args.max_len)
    lines = ["length  lyndon  pbw_rank  monomial_dim  status"]
    records = []
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        lines.append(f"{row.length:6d}  {row.lyndon_count:6d}  {row.pbw_rank:8d}"
                     f"  {row.monomial_dim:12d}  {status}")
        records.append({"record": "witt", "length": row.length,
                        "lyndon_count": row.lyndon_count,
                        "pbw_rank": row.pbw_rank,
                        "monomial_dim": row.monomial_dim,
                        "pass": row.passed})
    return report.passed, lines, records


def _cmd_psi_check(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    report = freelie.abelian_lift_check(alg, args.max_len)
    lines = [f"words checked: {report.words_checked}",
             f"violations: {len(report.violations)}"]
    records = [{"record": "lift", "checked": report.words_checked,
                "violations": len(report.violations)}]
    for v in report.violations:
        lines.append(f"VIOLATION {alg.word_name(v.word)}: {v.reason}")
        records.append({"record": "violation", "word": list(v.word),
                        "reason": v.reason})
    return report.passed, lines, records


def _cmd_unigroup(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    pres = unigroup.universal_presentation(alg)
    lines = ["generators: " + (" ".join(pres.generators) if pres.generators else "(none)")]
    records = [{"record": "generators", "labels": pres.generators}]
    for s1, s2, s3 in pres.relations:
        lines.append(f"{s1} * {s2} = {s3}")
        records.append({"record": "relation", "s1": s1, "s2": s2, "s3": s3})
    lines.append(f"relations: {len(pres.relations)}")
    records.append({"record": "count", "value": len(pres.relations)})
    return True, lines, records


def _cmd_abelianize(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    data = unigroup.abelianize(unigroup.universal_presentation(alg))
    lines = [f"U_ab ≅ {data.describe()}"]
    records = [{"record": "group", "free_rank": data.free_rank,
                "invariant_factors": data.invariant_factors,
                "description": data.describe()}]
    for label, image in zip(data.generators, data.images):
        lines.append(f"{label} -> ({', '.join(str(x) for x in image)})")
        records.append({"record": "image", "generator": label,
                        "coords": list(image)})
    return True, lines, records


def _cmd_is_abelian(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    verdict = unigroup.is_abelian_grading(alg)
    lines = [f"abelian: {'true' if verdict.is_abelian else 'false'}",
             f"U_ab ≅ {verdict.data.describe()}"]
    records = [{"record": "verdict", "abelian": verdict.is_abelian,
                "group": verdict.data.describe()}]
    for a, b in verdict.collisions:
        lines.append(f"collision: {a} and {b} share an image")
        records.append({"record": "collision", "first": a, "second": b})
    return verdict.is_abelian, lines, records


def _cmd_coarsen_check(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    relabel = load_relabel(args.relabel, alg)
    report = unigroup.coarsening_check(alg, relabel)
    lines, records = [], []
    if report.ok:
        lines.append("coarsening: valid")
        for fine, coarse in report.coarsening.support_map:
            lines.append(f"p({alg.group.format(fine)}) = {coarse}")
            records.append({"record": "support_map",
                            "fine": alg.group.format(fine), "coarse": str(coarse)})
        records.append({"record": "verdict", "valid": True})
    else:
        i, j = report.witness
        lines.append(f"coarsening: INVALID  witness ({alg.name(i)},{alg.name(j)})")
        lines.append(report.reason)
        records.append({"record": "verdict", "valid": False,
                        "witness": [alg.name(i), alg.name(j)],
                        "reason": report.reason})
    return report.ok, lines, records


def _cmd_center(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    vectors = liealg.center(alg)
    lines = [_vec_render(alg, v) for v in vectors] + [f"dimension: {len(vectors)}"]
    records = [{"record": "vector",
                "coords": {str(i): str(c) for i, c in sorted(v.items())},
                "value": _vec_render(alg, v)} for v in vectors]
    records.append({"record": "count", "value": len(vectors)})
    return True, lines, records


def _cmd_ider(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    mats = liealg.inner_derivations(alg)
    lines: List[str] = []
    records = []
    for mat in mats:
        lines.extend(_mat_lines(alg, mat))
        records.append({"record": "derivation", "label": mat.label,
                        "degree": alg.group.format(mat.degree),
                        "rows": [[str(x) for x in row] for row in mat.rows]})
    lines.append(f"count: {len(mats)}")
    records.append({"record": "count", "value": len(mats)})
    return True, lines, records


def _cmd_graded_span_check(args) -> Tuple[bool, List[str], List[dict]]:
    alg = parse_algebra(args.algebra)
    if args.mats:
        mats = load_mats(args.mats, alg)
    else:
        mats = liealg.inner_derivations(alg)
    report = liealg.is_graded_lie_subspace(alg, mats)
    if report.ok:
        lines = [f"graded Lie subspace: true  ({len(mats)} matrices)"]
        records = [{"record": "verdict", "ok": True, "matrices": len(mats)}]
    else:
        wa, wb = report.witness_labels(mats)
        lines = [f"graded Lie subspace: false  witness ({wa}, {wb})",
                 report.reason]
        records = [{"record": "verdict", "ok": False,
                    "witness": [wa, wb], "reason": report.reason}]
    return report.ok, lines, records


_HANDLERS = {
    "validate": _cmd_validate,
    "normalize": _cmd_normalize,
    "mul": _cmd_mul,
    "pbw-basis": _cmd_pbw_basis,
    "ug-span": _cmd_ug_span,
    "embed-check": _cmd_embed_check,
    "free-lie": _cmd_free_lie,
    "witt-check": _cmd_witt_check,
    "psi-check": _cmd_psi_check,
    "unigroup": _cmd_unigroup,
    "abelianize": _cmd_abelianize,
    "is-abelian": _cmd_is_abelian,
    "coarsen-check": _cmd_coarsen_check,
    "center": _cmd_center,
    "ider": _cmd_ider,
    "graded-span-check": _cmd_graded_span_check,
}


def _inputs_echo(args) -> Dict[str, object]:
    skip = {"command", "format"}
    return {k.replace("_", "-"): v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        passed, lines, records = _HANDLERS[args.command](args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for check in exc.report.checks:
            print(_check_line(check), file=sys.stderr)
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
        for line in lines:
            print(line)
        print(f"result: {'pass' if passed else 'fail'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
