"""The four workloads: set-up, one round of operations, and output checks.

A workload's set-up builds and validates its algebras.  A round is a fixed
list of operation kinds and sizes; the seed picks only the letters, degree
conjugations and automorphisms, and relabelings, so every round costs about
the same whatever the seed.  Rounds hold 25 or 45 operations, so that the
median and the 90th percentile fall in the middle of one operation's rank,
not between two of very different cost.  An operation is run and timed by
the worker; its check and its rendering (for frozen digests) run untimed.

Input rules stated up front:
- envelope: sl2 words are f^k e^k with 4 <= k <= 7; random words have at
  most 10 letters; su_mul multiplies single monomials of at most 4 letters;
  pbw_basis and ug_spanning stop at length 4.
- witt: the S5-graded letters stop at length 3 (4 for the cheaper bases),
  sl2 at length 5, the fixture alphabets at length 5.
- structure: is_graded_lie_subspace runs on gl3, sl3 and smaller algebras
  only, because on gl4 a single call takes seconds.
- cli: one child process at a time, replaying every golden transcript and
  commands on generated algebra files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import inputs as I
import oracles as O
from oracles import expect

from gradedlie import freelie, groups, liealg, pbw, unigroup


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    render: Callable[[object], str]


def build(spec: I.AlgSpec) -> liealg.GradedLieAlgebra:
    """Construct and validate an algebra through the public API."""
    g = spec.group
    kind = g["kind"]
    if kind == "finite":
        group = groups.GroupSpec.finite(g["table"], g.get("names"))
    elif kind == "free":
        group = groups.GroupSpec.free(g["rank"])
    elif kind == "free_abelian":
        group = groups.GroupSpec.free_abelian(g["rank"])
    else:
        group = groups.GroupSpec.free_product_cyclic(g["orders"])
    alg = liealg.GradedLieAlgebra(
        group, [group.parse(d) for d in spec.degrees],
        {pair: [(k, Fraction(c)) for k, c in terms] for pair, terms in spec.brackets.items()},
        spec.names)
    report = liealg.validate(alg)
    if not report.passed:
        raise RuntimeError(f"generated algebra {spec.name} is invalid: {report.failures()}")
    return alg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def defer_smith(deferred: Dict[str, dict], matrix, description: str, what: str) -> None:
    """Queue a claimed abelianization, with the relation matrix it should
    come from, for the sympy oracle, which runs once per run after every
    timed phase."""
    deferred[json.dumps([matrix, description])] = {"matrix": matrix, "description": description,
                                                   "what": what}


def memo(cache: Dict, key, compute: Callable[[], object]):
    """Reference answers are computed once, on first use, outside any timed
    region and outside set-up."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _render_element(alg):
    return lambda elt: elt.render(alg)


# -- envelope --------------------------------------------------------------------

class Envelope:
    name = "envelope"

    def setup(self, seed: int, child: int):
        self.specs = {"sl2": I.sl2(), "sl3": I.root_grading(3, True),
                      "s5": I.s5_graded_sum(I.rng_for(seed, self.name, child, "s5"))}
        self.algs = {k: build(s) for k, s in self.specs.items()}
        self.oracle_cache: Dict = {}

    def _listing(self, oracle, key, max_len):
        return memo(self.oracle_cache, (oracle.__name__, key, max_len),
                    lambda: oracle(self.specs[key], max_len))

    def _normalize(self, key, word) -> Op:
        alg, spec = self.algs[key], self.specs[key]
        return Op(f"normalize {key} {word}", lambda: pbw.normalize(alg, word),
                  lambda out: O.check_straightened(spec, word, 1, out.terms),
                  _render_element(alg))

    def _su_mul(self, key, words, coeffs, z=None) -> Op:
        """x * y for single monomials x, y; with a third monomial z, the
        check also tests (x y) z == x (y z)."""
        alg, spec = self.algs[key], self.specs[key]
        x, y = (pbw.SUElement.monomial(sorted(w), c) for w, c in zip(words, coeffs))

        def check(out):
            # product of single monomials: straightening of the concatenation
            O.check_straightened(spec, words[0] + words[1], coeffs[0] * coeffs[1], out.terms)
            if z is not None:
                expect(pbw.su_mul(alg, out, z) == pbw.su_mul(alg, x, pbw.su_mul(alg, y, z)),
                       f"su_mul not associative on {words} and {z}")

        return Op(f"su_mul {key} {words[:2]}", lambda: pbw.su_mul(alg, x, y), check,
                  _render_element(alg))

    def _listing_op(self, fn, oracle, key, max_len) -> Op:
        alg = self.algs[key]
        return Op(f"{fn.__name__} {key} {max_len}", lambda: fn(alg, max_len),
                  lambda out: expect(out == self._listing(oracle, key, max_len),
                                     f"{fn.__name__}({key}, {max_len}) differs from the oracle"),
                  lambda out: " | ".join(" ".join(alg.name(i) for i in m) for m in out))

    def round(self, rng) -> List[Op]:
        # 17 cheap operations, then in order of cost f^4 e^4, pbw_basis(sl3),
        # ug_spanning(sl3), f^5 e^5, ug_spanning(s5), f^6 e^6 (the 90th
        # percentile), pbw_basis(s5) and f^7 e^7
        ops = [self._normalize("sl2", I.fk_ek(k)) for k in (4, 5, 6, 7)]
        ops += [self._normalize("sl3", I.random_word(rng, 8, rng.randint(5, 8))) for _ in range(6)]
        ops += [self._normalize("s5", I.random_word(rng, 7, rng.randint(6, 10))) for _ in range(6)]
        assoc = rng.choice(("sl2", "sl3", "s5"))  # associativity is sampled, once a round
        for key, n, count in (("sl2", 3, 1), ("sl3", 8, 2), ("s5", 7, 2)):
            for t in range(count):
                words = [I.random_word(rng, n, rng.randint(2, 4)) for _ in range(2)]
                coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(2)]
                z = None
                if key == assoc and t == 0:
                    zword = I.random_word(rng, n, 2)
                    # su_mul is associative only on triples whose letter
                    # degrees pairwise commute.  Elsewhere on s5 it is not:
                    # with deg c not commuting with deg e, (c f) e = 0 but
                    # c (f e) = -h c, although c h = c (ef - fe) is zero in the
                    # quotient.  Such products are timed, not checked this way.
                    if self.specs[key].word_survives(words[0] + words[1] + zword):
                        z = pbw.SUElement.monomial(sorted(zword))
                ops.append(self._su_mul(key, words, coeffs, z))
        ops += [self._listing_op(pbw.pbw_basis, O.pbw_monomials, "s5", 3),
                self._listing_op(pbw.pbw_basis, O.pbw_monomials, "sl3", 3),
                self._listing_op(pbw.ug_spanning, O.ug_monomials, "s5", 4),
                self._listing_op(pbw.ug_spanning, O.ug_monomials, "sl3", 3)]
        rng.shuffle(ops)
        return ops


# -- witt ---------------------------------------------------------------------------

class Witt:
    name = "witt"
    FIXTURE_ALPHABETS = ("heisenberg", "c2c2_abelian", "free3_abelian", "trivial2")

    def setup(self, seed: int, child: int):
        rng = I.rng_for(seed, self.name, child, "s5")
        # three conjugates of the S5-graded letters: other inputs, same cost
        self.specs = {"sl2": I.sl2(), "s5": I.s5_graded_sum(rng)}
        for stem in self.FIXTURE_ALPHABETS:
            self.specs[stem] = I.spec_from_file(I.FIXTURES / f"{stem}.alg")
        self.alphabets = {}
        for key, spec in self.specs.items():
            self.alphabets[key] = freelie.GradedAlphabet.from_algebra(build(spec))
        s5 = self.alphabets["s5"].group
        for key in ("s5b", "s5c"):
            spec = self.specs[key] = I.s5_graded_sum(rng)
            self.alphabets[key] = freelie.GradedAlphabet.build(
                s5, [(nm, s5.parse(d)) for nm, d in zip(spec.names, spec.degrees)])
        self.oracle_cache: Dict = {}

    def _words(self, key, length):
        spec = self.specs[key]
        return memo(self.oracle_cache, ("words", key, length),
                    lambda: O.commuting_words(spec.word_survives, spec.n, length))

    def _lyndon(self, key, max_len):
        spec = self.specs[key]
        return memo(self.oracle_cache, ("lyndon", key, max_len),
                    lambda: [w for w in O.lyndon_words(spec.n, max_len) if spec.word_survives(w)])

    def _witt(self, key, max_len) -> Op:
        alphabet = self.alphabets[key]

        def check(report):
            lyndon = self._lyndon(key, max_len)
            for row in report.rows:
                dim = len(self._words(key, row.length))
                expect(row.passed and row.pbw_rank == row.monomial_dim == dim,
                       f"witt {key} length {row.length}: {row}")
                expect(row.lyndon_count == sum(1 for w in lyndon if len(w) == row.length),
                       f"witt {key} length {row.length}: lyndon count {row.lyndon_count}")
            expect(len(report.rows) == max_len, "missing witt rows")

        return Op(f"witt_check {key} {max_len}", lambda: freelie.witt_check(alphabet, max_len),
                  check, lambda r: repr([(x.length, x.lyndon_count, x.pbw_rank, x.monomial_dim)
                                         for x in r.rows]))

    def _lyndon_op(self, key, max_len) -> Op:
        alphabet = self.alphabets[key]
        return Op(f"lyndon_basis {key} {max_len}", lambda: freelie.lyndon_basis(alphabet, max_len),
                  lambda out: expect([e.word for e in out] == self._lyndon(key, max_len),
                                     f"lyndon_basis {key} {max_len} differs from Duval"),
                  lambda out: repr([(e.word, e.expansion) for e in out]))

    def _monomial_op(self, key, length) -> Op:
        alphabet = self.alphabets[key]
        return Op(f"free_monomial_basis {key} {length}",
                  lambda: freelie.free_monomial_basis(alphabet, length),
                  lambda out: expect(out.words == self._words(key, length),
                                     f"free_monomial_basis {key} {length} differs"),
                  lambda out: repr(out.words))

    def _lift_op(self, key, max_len) -> Op:
        alphabet = self.alphabets[key]
        total = sum(alphabet.size ** d for d in range(1, max_len + 1))
        return Op(f"abelian_lift_check {key} {max_len}",
                  lambda: freelie.abelian_lift_check(alphabet, max_len),
                  lambda out: expect(out.passed and out.words_checked == total,
                                     f"abelian_lift_check {key} {max_len}: {out.words_checked}"),
                  lambda out: f"{out.words_checked} {len(out.violations)}")

    def round(self, rng) -> List[Op]:
        # sized so that the median falls among five different ~10 ms
        # operations and the 90th percentile among the three S5 Witt checks,
        # which keeps both percentiles away from a jump in cost
        ops = [self._witt("sl2", 5), self._witt("sl2", 4), self._witt("s5", 3),
               self._witt("s5b", 3), self._witt("s5c", 3), self._witt("heisenberg", 3),
               self._witt("c2c2_abelian", 5), self._witt("free3_abelian", 4),
               self._witt("trivial2", 4)]
        ops += [self._lyndon_op(k, L) for k, L in (("sl2", 5), ("s5", 4), ("heisenberg", 5),
                                                    ("free3_abelian", 5), ("trivial2", 5))]
        ops += [self._monomial_op(k, L) for k, L in (("sl2", 5), ("s5", 3), ("free3_abelian", 4),
                                                      ("c2c2_abelian", 5), ("trivial2", 5))]
        ops += [self._lift_op(k, L) for k, L in (("sl2", 5), ("s5", 3), ("heisenberg", 4),
                                                  ("c2c2_abelian", 5), ("trivial2", 5),
                                                  ("free3_abelian", 5))]
        rng.shuffle(ops)
        return ops


# -- structure --------------------------------------------------------------------------

class Structure:
    name = "structure"
    FIXTURES = ("sl2", "heisenberg", "heisenberg_trivial", "c2c2_abelian",
                "free3_abelian", "trivial2", "empty")

    def setup(self, seed: int, child: int):
        rng = I.rng_for(seed, self.name, child, "family")
        self.specs = {"gl3": I.root_grading(3, False, rng), "sl3": I.root_grading(3, True, rng),
                      "gl4": I.root_grading(4, False, rng), "sl4": I.root_grading(4, True, rng),
                      "s5": I.s5_graded_sum(rng)}
        for stem in self.FIXTURES:
            self.specs[stem] = I.spec_from_file(I.FIXTURES / f"{stem}.alg")
        self.algs = {k: build(s) for k, s in self.specs.items()}
        self.ads = {k: [liealg.EndoMatrix.build(O.ad_rows(spec, i), self.algs[k].degree(i),
                                                f"ad {spec.names[i]}")
                        for i in range(spec.n)]
                    for k, spec in self.specs.items() if k in ("gl3", "sl3", "s5", "heisenberg")}
        self.oracle_cache: Dict = {}
        self.deferred: Dict[str, dict] = {}

    def _center_dim(self, key) -> int:
        return memo(self.oracle_cache, ("center", key), lambda: O.center_dim(self.specs[key]))

    def _relations(self, key):
        return memo(self.oracle_cache, ("relations", key),
                    lambda: O.presentation_matrix(self.specs[key]))

    def _defer_smith(self, key, description):
        defer_smith(self.deferred, self._relations(key), description, f"structure {key}")

    def _validate(self, key) -> Op:
        return Op(f"validate {key}", lambda: liealg.validate(self.algs[key]),
                  lambda rep: expect(rep.passed, f"validate {key} failed"),
                  lambda rep: repr([(c.name, c.passed) for c in rep.checks]))

    def _center(self, key) -> Op:
        spec = self.specs[key]

        def check(vectors):
            expect(len(vectors) == self._center_dim(key), f"center {key}: dimension {len(vectors)}")
            for v in vectors:
                expect(len({spec.elems[i] for i in v}) == 1, f"center {key}: {v} not homogeneous")
                for j in range(spec.n):
                    acc: Dict[int, Fraction] = {}
                    for i, c in v.items():
                        for k, b in spec.bracket(i, j).items():
                            acc[k] = acc.get(k, 0) + c * b
                    expect(not any(acc.values()), f"center {key}: {v} is not central")

        return Op(f"center {key}", lambda: liealg.center(self.algs[key]), check,
                  lambda vs: repr([sorted(v.items()) for v in vs]))

    def _ider(self, key) -> Op:
        spec = self.specs[key]

        def check(mats):
            expect(len(mats) == spec.n - self._center_dim(key), f"ider {key}: {len(mats)} maps")
            for m in mats:
                i = spec.names.index(m.label[3:])
                expect([list(r) for r in m.rows] == O.ad_rows(spec, i), f"ider {key}: {m.label}")

        return Op(f"inner_derivations {key}", lambda: liealg.inner_derivations(self.algs[key]),
                  check, lambda ms: repr([(m.label, m.rows) for m in ms]))

    def _graded_span(self, key) -> Op:
        mats = self.ads[key]
        return Op(f"is_graded_lie_subspace {key}",
                  lambda: liealg.is_graded_lie_subspace(self.algs[key], mats),
                  lambda rep: expect(rep.ok, f"ad({key}) should be a graded Lie subspace"),
                  lambda rep: repr((rep.ok, rep.witness)))

    def _abelianize(self, key) -> Op:
        alg = self.algs[key]

        def run():
            pres = unigroup.universal_presentation(alg)
            return pres, unigroup.abelianize(pres)

        def check(out):
            pres, data = out
            want = self._relations(key)
            expect(len(pres.generators) == len(want) and
                   len(pres.relations) == (len(want[0]) if want else 0),
                   f"presentation of {key} has the wrong shape")
            self._defer_smith(key, data.describe())

        return Op(f"abelianize {key}", run, check,
                  lambda out: repr((out[0].generators, out[0].relations, out[1].describe(),
                                    out[1].images)))

    def _is_abelian(self, key) -> Op:
        spec = self.specs[key]
        abelian_group = all(spec.model.commute(a, b) for a in spec.elems for b in spec.elems)

        def check(verdict):
            # distinct degrees in an abelian grading group stay distinct in U_ab
            if abelian_group:
                expect(verdict.is_abelian, f"{key} is graded by an abelian group")
            self._defer_smith(key, verdict.data.describe())

        return Op(f"is_abelian_grading {key}", lambda: unigroup.is_abelian_grading(self.algs[key]),
                  check, lambda v: repr((v.is_abelian, v.collisions)))

    def _coarsening(self, key, rng, broken) -> Op:
        alg, spec = self.algs[key], self.specs[key]
        obj, image = I.relabeling(spec, rng, broken)
        m = len(obj["group"]["table"])
        coarse = groups.GroupSpec.finite(obj["group"]["table"], obj["group"]["names"])
        relabel = {alg.group.parse(e["from"]): coarse.parse(e["to"]) for e in obj["map"]}
        valid = I.coarsening_oracle(spec, image, m)

        def check(rep):
            expect(rep.ok == valid, f"coarsening {key}: verdict {rep.ok}, oracle {valid}")
            if valid:
                got = {fine: coarse_elt for fine, coarse_elt in rep.coarsening.support_map}
                expect(got == relabel, f"coarsening {key}: support map differs")

        return Op(f"coarsening_check {key} {'broken' if broken else 'homomorphism'}",
                  lambda: unigroup.coarsening_check(alg, relabel), check,
                  lambda rep: repr((rep.ok, rep.witness, rep.reason)))

    def _embed(self, key) -> Op:
        return Op(f"embed_check {key}", lambda: pbw.embed_check(self.algs[key]),
                  lambda rep: expect(rep.ok, f"embed_check {key}: {rep}"),
                  lambda rep: repr((rep.independent, rep.pair_failures)))

    def round(self, rng) -> List[Op]:
        ops = [self._validate(k) for k in ("gl3", "sl3", "gl4", "sl4", "s5", "heisenberg")]
        ops += [self._center(k) for k in ("gl3", "sl3", "gl4", "sl4", "s5", "heisenberg")]
        ops += [self._ider(k) for k in ("gl3", "sl3", "gl4", "sl4", "s5", "sl2")]
        ops += [self._graded_span(k) for k in ("gl3", "sl3", "s5", "heisenberg")]
        ops += [self._abelianize(k) for k in ("gl3", "sl3", "gl4", "sl4", "s5", "heisenberg",
                                              "c2c2_abelian", "free3_abelian")]
        ops += [self._is_abelian(k) for k in ("gl3", "sl4", "s5", "heisenberg_trivial")]
        ops += [self._coarsening(k, rng, broken) for k in ("sl3", "gl4", "s5")
                for broken in (False, True)]
        ops += [self._embed(k) for k in ("sl3", "gl4", "s5", "heisenberg_trivial", "trivial2")]
        rng.shuffle(ops)
        return ops


# -- cli -------------------------------------------------------------------------------

GOLDEN = I.FIXTURES / "golden"


@dataclass
class CommandResult:
    code: int
    stdout: bytes


class Cli:
    """Each operation is one fresh `python -m gradedlie.cli` process."""

    name = "cli"

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None):
        """With trace_dir, every command runs under clitrace.py, which dumps
        its spans there; walls maps each span file to the command's wall
        time."""
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.walls: Dict[str, float] = {}
        self.env = dict(os.environ, PYTHONPATH=str(I.ROOT / "src"), PYTHONIOENCODING="utf-8")

    def setup(self, seed: int, child: int):
        from gradedlie import algfile

        rng = I.rng_for(seed, self.name, child, "files")
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs = {"gl3": I.root_grading(3, False, rng), "sl3": I.root_grading(3, True, rng),
                      "s5": I.s5_graded_sum(rng)}
        self.paths = {}
        for key, spec in self.specs.items():
            path = self.workdir / f"{key}.alg"
            path.write_text(json.dumps(spec.file_obj()))
            self.paths[key] = path
            algfile.parse_algebra(path)
        self.relabels = {}
        for key, broken in (("sl3", False), ("s5", True)):
            obj, image = I.relabeling(self.specs[key], rng, broken)
            path = self.workdir / f"relabel_{key}.json"
            path.write_text(json.dumps(obj))
            self.relabels[key] = (path, I.coarsening_oracle(self.specs[key], image,
                                                             len(obj["group"]["table"])))
        self.goldens = []
        for path in sorted(GOLDEN.glob("*.txt")):
            lines = path.read_text().splitlines()
            self.goldens.append((path.stem, shlex.split(lines[0][2:]),
                                 int(lines[1].split(":")[1]),
                                 ("\n".join(lines[2:]) + "\n").encode()))
        self.deferred: Dict[str, dict] = {}

    def command(self, argv: List[str]) -> CommandResult:
        launcher = [sys.executable, "-m", "gradedlie.cli"]
        if self.trace_dir is not None:
            spans = self.trace_dir / f"cmd{len(self.walls):05d}"
            launcher = [sys.executable, str(Path(__file__).with_name("clitrace.py")), str(spans)]
        start = time.perf_counter()
        proc = subprocess.run(launcher + argv, cwd=I.ROOT, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - start
        if self.trace_dir is not None:
            self.walls[str(spans)] = wall
        return CommandResult(proc.returncode, proc.stdout)

    def _op(self, label, argv, check) -> Op:
        # the generated files live in a per-run directory; digests must not see it
        return Op(label, lambda: self.command(argv), check,
                  lambda res: f"{res.code}\n" + res.stdout.decode().replace(str(self.workdir), "FILES"))

    def _golden(self, stem, argv, code, want) -> Op:
        return self._op(f"golden {stem}", argv, lambda res: expect(
            res.code == code and res.stdout == want, f"golden {stem} differs"))

    def _body(self, res: CommandResult, code: int = 0) -> List[str]:
        expect(res.code == code, f"exit code {res.code}, expected {code}")
        lines = res.stdout.decode().splitlines()
        return [ln for ln in lines if not ln.startswith("# ")]

    def _generated(self, rng) -> List[Op]:
        ops = []
        alg = lambda key: ["--algebra", str(self.paths[key])]  # noqa: E731

        ops.append(self._op("validate s5", ["validate"] + alg("s5"), lambda res: expect(
            self._body(res)[:3] == [f"check {c}: pass" for c in ("normalization", "grading", "jacobi")],
            "validate s5")))

        word = I.random_word(rng, 8, rng.randint(4, 7))
        ops.append(self._op(f"normalize sl3 {word}",
                            ["normalize"] + alg("sl3") + ["--word", json.dumps(list(word))],
                            lambda res, w=word: self._check_top(res, "sl3", w)))

        w1, w2 = I.random_word(rng, 7, 3), I.random_word(rng, 7, 3)
        ops.append(self._op(f"mul s5 {w1} {w2}",
                            ["mul"] + alg("s5") + ["--word", json.dumps(list(w1)),
                                                   "--word", json.dumps(list(w2))],
                            lambda res, w=w1 + w2: self._check_top(res, "s5", w)))

        count = len(O.pbw_monomials(self.specs["s5"], 3))
        ops.append(self._op("pbw-basis s5 3", ["pbw-basis"] + alg("s5") + ["--max-len", "3"],
                            lambda res: expect(self._body(res)[-2] == f"count: {count}",
                                               "pbw-basis count")))

        ops.append(self._op("abelianize gl3", ["abelianize"] + alg("gl3"),
                            lambda res: self._check_group(res, "gl3", 0)))
        ops.append(self._op("is-abelian sl3", ["is-abelian"] + alg("sl3"), lambda res: (
            expect(self._body(res)[0] == "abelian: true", "is-abelian sl3"),
            self._check_group(res, "sl3", 1))))

        for key in ("sl3", "s5"):
            path, valid = self.relabels[key]
            ops.append(self._op(f"coarsen-check {key}",
                                ["coarsen-check"] + alg(key) + ["--relabel", str(path)],
                                lambda res, v=valid: expect(
                                    self._body(res, 0 if v else 1)[0].startswith(
                                        "coarsening: valid" if v else "coarsening: INVALID"),
                                    "coarsen-check verdict")))

        dim = O.center_dim(self.specs["gl3"])
        ops.append(self._op("center gl3", ["center"] + alg("gl3"), lambda res: expect(
            self._body(res)[-2] == f"dimension: {dim}", "center gl3 dimension")))
        return ops

    def _check_top(self, res, key, word):
        """The rendered product of straightened words: leading term
        1 * sorted(word) when its degrees commute, else nothing that long."""
        spec = self.specs[key]
        rendered = self._body(res)[0]
        terms = [] if rendered == "0" else [t.split(" * ") for t in rendered.split(" + ")]
        lengths = [0 if mono == "1" else len(mono.split()) for _, mono in terms]
        if spec.word_survives(word):
            expect(terms[:1] == [["1", " ".join(spec.names[i] for i in sorted(word))]],
                   f"leading term of {word}: {rendered}")
            lengths = lengths[1:]
        expect(all(n < len(word) for n in lengths), f"straightening of {word}: {rendered}")

    def _check_group(self, res, key, line):
        defer_smith(self.deferred, O.presentation_matrix(self.specs[key]),
                    self._body(res)[line].split("≅ ")[1], f"cli {key}")

    def round(self, rng) -> List[Op]:
        ops = [self._golden(*g) for g in self.goldens] + self._generated(rng)
        rng.shuffle(ops)
        return ops


WORKLOADS = {"envelope": Envelope, "witt": Witt, "structure": Structure, "cli": Cli}
