"""The structure checks (embed_check, center, inner_derivations,
coarsening_check, is_graded_lie_subspace) against their dense definitions
over every index pair, plus pinned witnesses that depend on the order in
which pairs are visited."""

import random
from fractions import Fraction

import pytest
from sympy import Matrix
from conftest import FIXTURES, load
from test_groups import s3_spec
from test_linalg import _matrix_lie_algebra, reference_in_span
from test_pbw import s5_graded_sum

from gradedlie import pbw, sparse
from gradedlie.groups import GroupSpec
from gradedlie.groups import commute
from gradedlie.liealg import (EndoMatrix, GradedLieAlgebra, GradedSpanError, GradedSpanReport,
                              LieAlgebraError, center, check_block_invariant, inner_derivations,
                              is_graded_lie_subspace, validate)
from gradedlie.linalg import _integer_row, _mat_mul, rank
from gradedlie.pbw import EmbedReport, SUElement, embed_check, normalize
from gradedlie.unigroup import coarsening_check, support


# -- the dense definitions ---------------------------------------------------------

def center_by_definition(alg):
    """Per component, one row per basis letter j and target k of
    [e_i, e_j] over the component's letters i; the null space of each, by
    sympy."""
    out = []
    for _, idxs in alg.components():
        rows = []
        for j in range(alg.n):
            cols = [dict(alg.bracket_basis(i, j)) for i in idxs]
            for k in sorted({k for col in cols for k in col}):
                rows.append([col.get(k, Fraction(0)) for col in cols])
        flat = [x for row in rows for x in row]
        for sol in Matrix(len(rows), len(idxs), flat).nullspace():
            out.append({idxs[t]: Fraction(c.p, c.q) for t, c in enumerate(sol) if c != 0})
    return out


def inner_derivations_by_definition(alg):
    """(label, degree, rows) of each nonzero dense ad e_i, in index order,
    kept when it is outside the span of the maps kept before it."""
    n = alg.n
    kept, flats = [], []
    for i in range(n):
        rows = tuple(tuple(dict(alg.bracket_basis(i, j)).get(k, Fraction(0)) for j in range(n))
                     for k in range(n))
        flat = [x for row in rows for x in row]
        if any(flat) and reference_in_span(flats, flat) is None:
            flats.append(flat)
            kept.append((f"ad {alg.name(i)}", alg.degree(i), rows))
    return kept


def embed_by_definition(alg):
    """Normal forms of the letters, and the straightened commutator against
    the bracket for every ordered pair (i, j)."""
    images = [normalize(alg, (i,)) for i in range(alg.n)]
    monomials = sorted({m for img in images for m in img.terms})
    independent = rank([[img.terms.get(m, 0) for m in monomials] for img in images]) == alg.n
    failures = [(i, j) for i in range(alg.n) for j in range(alg.n)
                if normalize(alg, (i, j)) - normalize(alg, (j, i))
                != SUElement({(k,): c for k, c in alg.bracket_basis(i, j)})]
    return EmbedReport(independent, failures)


def coarsening_by_definition(alg, relabel):
    """The first ordered pair (i, j), row by row, with a nonzero bracket
    and p(deg e_i) p(deg e_j) != p(deg e_i deg e_j), or None."""
    for i in range(alg.n):
        for j in range(alg.n):
            if i != j and alg.bracket_basis(i, j):
                gi, gj = alg.degree(i), alg.degree(j)
                if relabel[gi] * relabel[gj] != relabel[gi * gj]:
                    return (i, j)
    return None


def graded_span_by_definition(alg, mats):
    """Every matrix scaled to integers, every commutator a dense product, and
    its n^2 entries tested against those of the matrices of the product
    degree; the first offending pair in (i1, i2) order is the witness."""
    for mat in mats:
        check_block_invariant(alg, mat)
    n = alg.n
    flats = [_integer_row(mat.flatten()) for mat in mats]
    ints = [[flat[r:r + n] for r in range(0, n * n, n)] for flat in flats]
    for i1 in range(len(mats)):
        for i2 in range(i1 + 1, len(mats)):
            u, v = mats[i1], mats[i2]
            ab, ba = _mat_mul(ints[i1], ints[i2]), _mat_mul(ints[i2], ints[i1])
            flat = [x - y for p, q in zip(ab, ba) for x, y in zip(p, q)]
            if not commute(u.degree, v.degree):
                if any(flat):
                    return GradedSpanReport(
                        False, (i1, i2), "degrees do not commute but the commutator is nonzero")
                continue
            if not any(flat):
                continue
            pool = [flats[i] for i, m in enumerate(mats) if m.degree == u.degree * v.degree]
            if reference_in_span(pool, flat) is None:
                return GradedSpanReport(
                    False, (i1, i2), "commutator escapes the span at the product degree")
    return GradedSpanReport(True)


def ad_maps(alg):
    """ad e_i for every letter, zero maps included, as EndoMatrix of degree deg e_i."""
    n = alg.n
    return [EndoMatrix.build([[dict(alg.bracket_basis(i, j)).get(k, 0) for j in range(n)]
                              for k in range(n)], alg.degree(i), f"ad {alg.name(i)}")
            for i in range(n)]


# -- the algebras --------------------------------------------------------------------

S3 = s3_spec()


def random_s3_table(rng, n):
    """Random constants on random pairs of S3-graded letters.  Each bracket
    [e_i, e_j] lands in the degree (deg e_i)(deg e_j), and (deg e_j)(deg e_i)
    is a degree of the algebra too; but neither the commutation of the two
    degrees nor the Jacobi identity need hold."""
    degrees = [S3.element(rng.randrange(6)) for _ in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            gi, gj = degrees[i], degrees[j]
            targets = [k for k in range(n) if degrees[k] == gi * gj]
            if targets and gj * gi in degrees and rng.random() < 0.6:
                brackets[(i, j)] = [(rng.choice(targets), Fraction(rng.choice((-2, -1, 1, 3)),
                                                                   rng.choice((1, 2))))
                                    for _ in range(rng.randrange(1, 3))]
    return GradedLieAlgebra(S3, degrees, brackets)


def structure_algebras():
    algebras = {path.stem: load(path.stem) for path in sorted(FIXTURES.glob("*.alg"))}
    for n in (3, 4):
        algebras[f"gl{n}"] = _matrix_lie_algebra(n, False)
        algebras[f"sl{n}"] = _matrix_lie_algebra(n, True)
    algebras["s5_sum"] = s5_graded_sum()
    assert len(algebras) == 12
    # a1 < b < a2 share a component and [a1, b] = k = [b, a2]: the row of
    # (b, k) takes one entry from each stored order, and a1 + a2 is central
    z = GroupSpec.free_abelian(1)
    algebras["both_orders"] = GradedLieAlgebra(
        z, [z.parse([0]), z.parse([1]), z.parse([0]), z.parse([1])],
        {(0, 1): [(3, 1)], (1, 2): [(3, 1)]}, ["a1", "b", "a2", "k"])
    rng = random.Random(131)
    for t in range(12):
        algebras[f"s3_random{t}"] = random_s3_table(rng, rng.randrange(3, 9))
    return algebras


@pytest.fixture(scope="module")
def algebras():
    return structure_algebras()


# -- equivalence with the definitions --------------------------------------------------

def test_center_matches_definition(algebras):
    assert center(algebras["both_orders"]) == [{0: 1, 2: 1}, {3: 1}]
    nontrivial = 0
    for name, alg in algebras.items():
        got = center(alg)
        assert got == center_by_definition(alg), name
        nontrivial += 0 < len(got) < alg.n
    assert nontrivial >= 3


def test_inner_derivations_match_definition(algebras):
    dropped = 0
    for name, alg in algebras.items():
        mats = inner_derivations(alg)
        assert [(m.label, m.degree, m.rows) for m in mats] == \
            inner_derivations_by_definition(alg), name
        assert all(type(x) is Fraction for m in mats for row in m.rows for x in row), name
        dropped += len(mats) < len({i for pair in alg.brackets for i in pair})
    assert dropped >= 3  # gl_n's ad maps are dependent: the identity is central


def rescaled(alg, scales, perm):
    """alg on the basis f_perm[i] = scales[i] e_i, the names and degrees
    moved with the letters: c e_k in [e_i, e_j] is s_i s_j c / s_k f_perm[k]
    in [f_perm[i], f_perm[j]], negated when perm[i] > perm[j]."""
    degrees, names = [None] * alg.n, [None] * alg.n
    for i in range(alg.n):
        degrees[perm[i]], names[perm[i]] = alg.degree(i), alg.name(i)
    brackets = {}
    for (i, j), terms in alg.brackets.items():
        sign = 1 if perm[i] < perm[j] else -1
        brackets[tuple(sorted((perm[i], perm[j])))] = [
            (perm[k], sign * scales[i] * scales[j] * c / scales[k]) for k, c in terms]
    return GradedLieAlgebra(alg.group, degrees, brackets, names)


def test_center_and_inner_derivations_on_rescaled_permuted_letters(monkeypatch, algebras):
    """gl3, gl4 and sl4 with every letter rescaled by a nonzero rational and
    the letters permuted.  center's relation for a letter is what reducing
    its ad map leaves on the tags past the n*n entries, divided by the tag
    of the letter itself; here that tag is not always a unit."""
    original, seen = sparse._sparse_reduce, []

    def reduce(basis, vec):
        out = original(basis, vec)
        seen.append((vec, out))
        return out

    monkeypatch.setattr(sparse, "_sparse_reduce", reduce)
    rng = random.Random(67)
    non_units = 0
    for name in ("gl3", "gl4", "sl4"):
        for _ in range(4):
            alg = algebras[name]
            scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                      for _ in range(alg.n)]
            variant = rescaled(alg, scales, rng.sample(range(alg.n), alg.n))
            assert validate(variant).passed, name
            seen.clear()
            assert center(variant) == center_by_definition(variant), name
            tag = variant.n ** 2
            non_units += sum(min(out) >= tag and abs(out[max(vec)]) != 1 for vec, out in seen)
            mats = inner_derivations(variant)
            assert [(m.label, m.degree, m.rows) for m in mats] == \
                inner_derivations_by_definition(variant), name
    assert non_units >= 3


def test_embed_check_matches_definition(algebras):
    failing = 0
    for name, alg in algebras.items():
        report = embed_check(alg)
        assert report == embed_by_definition(alg), name
        failing += bool(report.pair_failures)
    assert failing >= 3


def random_relabel(alg, rng):
    """A relabeling of the support: the identity, a homomorphism, an
    ordered product of non-commuting images, or a random map into Z/2, Z/3,
    Z/4 or S3 (usually broken where brackets exist)."""
    supp = support(alg)
    kind = rng.randrange(5)
    if kind == 0:
        return {d: d for d in supp}
    if kind == 1 and alg.group.kind == "free_abelian":
        # x -> g^(c.x), a homomorphism onto a cyclic subgroup of S3
        g = S3.element(rng.randrange(6))
        coeffs = [rng.randrange(-2, 3) for _ in range(alg.group.rank)]
        return {d: g ** sum(c * x for c, x in zip(coeffs, d.data)) for d in supp}
    if kind == 2 and alg.group.kind == "free_abelian":
        # x -> g_1^(x_1) ... g_r^(x_r) in S3: no homomorphism when the g_t do
        # not commute, and p(a) p(b) = p(a + b) may hold in one order only
        gens = [S3.element(rng.randrange(6)) for _ in range(alg.group.rank)]
        return {d: S3.product(g ** x for g, x in zip(gens, d.data)) for d in supp}
    target = rng.choice([cyclic(2), cyclic(3), cyclic(4), S3, S3])
    return {d: target.element(rng.randrange(target.rank)) for d in supp}


def cyclic(m):
    return GroupSpec.finite([[(a + b) % m for b in range(m)] for a in range(m)])


def test_coarsening_check_matches_definition(algebras):
    rng = random.Random(37)
    outcomes = {"valid": 0, "broken": 0, "i > j": 0}
    for name, alg in algebras.items():
        for _ in range(60):
            relabel = random_relabel(alg, rng)
            report = coarsening_check(alg, relabel)
            witness = coarsening_by_definition(alg, relabel)
            assert report.witness == witness, (name, relabel)
            assert report.ok == (witness is None), name
            if report.ok:
                outcomes["valid"] += 1
                assert report.coarsening.support_map == [(d, relabel[d]) for d in support(alg)]
            else:
                outcomes["broken"] += 1
                outcomes["i > j"] += witness[0] > witness[1]
                i, j = witness
                assert report.reason.startswith(f"bracket ({alg.name(i)},{alg.name(j)}) needs ")
    assert outcomes["valid"] >= 100 and outcomes["broken"] >= 100, outcomes
    assert outcomes["i > j"] >= 10, outcomes


def test_graded_span_check_matches_definition(algebras):
    """The ad maps, random subsets of them and single-entry changes inside a
    map's degree block (or, now and then, outside it)."""
    rng = random.Random(53)
    seen = {"ok": 0, "outside the block": 0, "late witness": 0,
            "degrees do not commute but the commutator is nonzero": 0,
            "commutator escapes the span at the product degree": 0}
    for name, alg in algebras.items():
        ads = ad_maps(alg)
        if not ads:
            assert is_graded_lie_subspace(alg, ads) == GradedSpanReport(True)
            continue
        cases = [ads]
        for _ in range(4):
            cases.append(rng.sample(ads, rng.randrange(1, len(ads) + 1)))
        for _ in range(6):
            mats = list(ads)
            t = rng.randrange(len(mats))
            n, d = alg.n, mats[t].degree
            inside = [(r, c) for r in range(n) for c in range(n)
                      if alg.degree(r) == d * alg.degree(c)]
            r, c = rng.choice(inside) if inside and rng.random() < 0.9 else \
                (rng.randrange(n), rng.randrange(n))
            rows = [list(row) for row in mats[t].rows]
            rows[r][c] += Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2, 3)))
            mats[t] = EndoMatrix.build(rows, d, mats[t].label)
            cases.append(rng.sample(mats, len(mats)))
        for mats in cases:
            try:
                want = graded_span_by_definition(alg, mats)
            except GradedSpanError as exc:
                with pytest.raises(GradedSpanError) as got:
                    is_graded_lie_subspace(alg, mats)
                assert str(got.value) == str(exc), name
                seen["outside the block"] += 1
                continue
            report = is_graded_lie_subspace(alg, mats)
            assert report == want, (name, [m.label for m in mats])
            if report.ok:
                seen["ok"] += 1
            else:
                seen[report.reason] += 1
                seen["late witness"] += report.witness != (0, 1)
    assert all(count >= 10 for count in seen.values()), seen


# -- pinned witnesses ------------------------------------------------------------------

def test_embed_check_fails_both_orders_of_a_noncommuting_bracket():
    # s and t do not commute, yet [x, y] = z: both orders straighten to 0
    s, t = S3.element(2), S3.element(1)
    assert s * t != t * s
    alg = GradedLieAlgebra(S3, [s, t, s * t], {(0, 1): [(2, 1)]}, ["x", "y", "z"])
    report = embed_check(alg)
    assert report.independent
    assert report.pair_failures == [(0, 1), (1, 0)]
    assert not report.ok


def test_coarsening_check_keeps_a_witness_with_i_greater_than_j(heisenberg):
    # p(x) p(y) = st = p(x + y) holds, but p(y) p(x) = ts does not
    s, t = S3.element(2), S3.element(1)
    x, y, z = support(heisenberg)
    report = coarsening_check(heisenberg, {x: s, y: t, z: s * t})
    assert not report.ok
    assert report.witness == (1, 0)
    assert report.reason == f"bracket (y,x) needs {S3.format(t * s)} = {S3.format(s * t)}"


# -- work done -------------------------------------------------------------------------

def test_embed_check_straightens_once_per_unordered_pair(monkeypatch, algebras):
    calls = []
    straighten = pbw._straighten

    def counting_straighten(alg, words):
        calls.append(None)
        return straighten(alg, words)
    monkeypatch.setattr(pbw, "_straighten", counting_straighten)
    for name, alg in algebras.items():
        calls.clear()
        embed_check(alg)
        assert len(calls) == alg.n * (alg.n - 1) // 2, name


def test_straighten_drops_a_sorted_word_that_cancels_in_the_result(algebras):
    # e_i e_j is sorted and reaches the result first; the swap of e_j e_i
    # brings -e_i e_j there next, and the sum, zero, must not be kept
    assert len(algebras) == 25
    for name, alg in algebras.items():
        for i in range(alg.n):
            for j in range(i + 1, alg.n):
                got = pbw._straighten(alg, {(i, j): 1, (j, i): -1}).terms
                want = ({(k,): c for k, c in alg.ordered_brackets.get((i, j), ())}
                        if alg.letters_commute(i, j) else {})
                assert got == want, (name, i, j)
                assert all(got.values()), (name, i, j)


@pytest.mark.parametrize("check", [
    center,
    inner_derivations,
    lambda alg: coarsening_check(alg, {d: d for d in support(alg)}),
], ids=["center", "inner_derivations", "coarsening_check"])
def test_structure_checks_read_each_stored_pair_at_most_once(monkeypatch, algebras, check):
    calls = []
    bracket_basis = GradedLieAlgebra.bracket_basis

    def counting_bracket_basis(self, i, j):
        calls.append(None)
        return bracket_basis(self, i, j)
    monkeypatch.setattr(GradedLieAlgebra, "bracket_basis", counting_bracket_basis)
    for name, alg in algebras.items():
        calls.clear()
        check(alg)
        assert len(calls) <= len(alg.brackets), name


def test_coarsening_check_refuses_a_bracket_outside_the_support():
    # deg x * deg y = st is no degree of the algebra, so it does not validate
    s, t = S3.element(2), S3.element(1)
    alg = GradedLieAlgebra(S3, [s, t, S3.identity()], {(0, 1): [(2, 1)]}, ["x", "y", "z"])
    with pytest.raises(LieAlgebraError, match="outside the support"):
        coarsening_check(alg, {d: d for d in support(alg)})


def test_coarsening_check_reads_a_relabel_that_covers_the_product():
    # the same algebra, but the relabeling also names st and ts: they are
    # read, as a product inside the support is
    s, t = S3.element(2), S3.element(1)
    alg = GradedLieAlgebra(S3, [s, t, S3.identity()], {(0, 1): [(2, 1)]}, ["x", "y", "z"])
    z2 = cyclic(2)
    sign = {s: z2.element(1), t: z2.element(1), S3.identity(): z2.element(0)}
    assert coarsening_check(alg, {**sign, s * t: z2.element(0), t * s: z2.element(0)}).ok
    report = coarsening_check(alg, {**sign, s * t: z2.element(0), t * s: z2.element(1)})
    assert not report.ok and report.witness == (1, 0)


def test_coarsening_check_visits_pairs_in_row_major_order_across_both_failures():
    # z (deg 1) brackets x (deg s) at pairs (0,1) and (1,0); [x, y] lands at
    # st, outside the support, at pairs (1,2) and (2,1).  A failure at (0,1)
    # is the witness before the product outside the support is reached;
    # with (0,1) compatible, that product raises.
    s, t = S3.element(2), S3.element(1)
    alg = GradedLieAlgebra(S3, [S3.identity(), s, t], {(0, 1): [(1, 1)], (1, 2): [(0, 1)]},
                           ["z", "x", "y"])
    z2 = cyclic(2)
    report = coarsening_check(alg, {S3.identity(): z2.element(1), s: z2.element(1),
                                    t: z2.element(1)})
    assert (report.ok, report.witness) == (False, (0, 1))
    with pytest.raises(LieAlgebraError, match=r"outside the support at degree"):
        coarsening_check(alg, {S3.identity(): z2.element(0), s: z2.element(1),
                               t: z2.element(1)})


def _count_products(monkeypatch):
    """A list that gets one entry per product of two group elements."""
    from gradedlie.groups import GroupElement
    calls = []
    mul = GroupElement.__mul__
    monkeypatch.setattr(GroupElement, "__mul__",
                        lambda self, other: calls.append(None) or mul(self, other))
    return calls


def test_coarsening_check_forms_one_product_per_pair_of_support_degrees(monkeypatch, algebras):
    calls = _count_products(monkeypatch)
    for name, alg in algebras.items():
        assert None not in alg._support_products.values(), name
        relabel = {d: d for d in support(alg)}
        calls.clear()
        assert coarsening_check(alg, relabel).ok, name
        assert len(calls) == len(alg._support_products), name
    # gl4: 108 ordered bracket pairs, on 84 ordered pairs of support degrees
    gl4 = algebras["gl4"]
    calls.clear()
    coarsening_check(gl4, {d: d for d in support(gl4)})
    assert (len(gl4.ordered_brackets), len(calls)) == (108, 84)


def test_graded_span_check_forms_the_wanted_positions_once_per_matrix_degree(monkeypatch):
    from gradedlie import liealg
    calls = _count_products(monkeypatch)
    in_block = []
    check = liealg._check_block_entries

    def counting_check(*args):
        before = len(calls)
        check(*args)
        in_block.append(len(calls) - before)
    monkeypatch.setattr(liealg, "_check_block_entries", counting_check)
    alg = _matrix_lie_algebra(3, False)
    mats = ad_maps(alg)
    assert is_graded_lie_subspace(alg, mats).ok
    # nine maps in seven distinct degrees, each against the seven degrees of gl3
    assert len({m.degree for m in mats}) == len(alg._degree_index[0]) == 7
    assert (len(in_block), sum(in_block)) == (9, 49)


def test_graded_span_check_names_an_unlabelled_matrix_by_its_place():
    alg = GradedLieAlgebra(S3, [S3.identity()] * 3, {})
    ok = EndoMatrix.build([[1, 0, 0], [0, 1, 0], [0, 0, 1]], S3.identity())
    cases = [(EndoMatrix.build([[1, 0, 0]] * 2, S3.identity()), "mats[2] is not 3x3"),
             (EndoMatrix.build([[0, 1, 0]] * 3, S3.element(1)),
              "mats[2] has entry (0,1) outside its degree block"),
             (EndoMatrix.build([[0, 1, 0]] * 3, S3.element(1), "m"),
              "m has entry (0,1) outside its degree block")]
    for bad, message in cases:
        with pytest.raises(GradedSpanError) as got:
            is_graded_lie_subspace(alg, [ok, ok, bad])
        assert str(got.value) == message
    with pytest.raises(GradedSpanError, match=r"^matrix has entry \(0,1\)"):
        check_block_invariant(alg, cases[1][0])
    with pytest.raises(TypeError, match=r"^mats\[2\] entry \(0,0\) must be an int"):
        is_graded_lie_subspace(alg, [ok, ok, EndoMatrix(((1.5, 0, 0),) * 3, S3.identity())])


# -- the block invariant -----------------------------------------------------------------

def block_invariant_by_definition(alg, mat):
    """The block check on all n^2 entries, a degree product for each."""
    who = mat.label or "matrix"
    if mat.degree is None:
        raise GradedSpanError(f"{who} has no declared degree")
    if len(mat.rows) != alg.n or any(len(r) != alg.n for r in mat.rows):
        raise GradedSpanError(f"{who} is not {alg.n}x{alg.n}")
    for r in range(alg.n):
        for c in range(alg.n):
            if mat.rows[r][c] != 0 and alg.degree(r) != mat.degree * alg.degree(c):
                raise GradedSpanError(f"{who} has entry ({r},{c}) outside its degree block")


def _block_verdict(check, *args):
    try:
        check(*args)
    except GradedSpanError as exc:
        return str(exc)
    return None


def test_block_invariant_names_the_first_outside_entry_in_row_major_order():
    s, t = S3.element(2), S3.element(1)
    alg = GradedLieAlgebra(S3, [s, t, s * t], {}, ["x", "y", "z"])
    # degree s maps x (deg s) to deg 1, which no letter has; y (deg t) to
    # deg st = deg z; z to deg t = deg y
    rows = [[0] * 3 for _ in range(3)]
    rows[2][1] = 5  # inside the block
    rows[1][0] = 1  # outside, after (0, 2) in row-major order
    rows[0][2] = 2  # outside
    mat = EndoMatrix.build(rows, s, "m")
    want = "m has entry (0,2) outside its degree block"
    for check in (check_block_invariant, block_invariant_by_definition):
        with pytest.raises(GradedSpanError) as got:
            check(alg, mat)
        assert str(got.value) == want
    with pytest.raises(GradedSpanError) as got:
        is_graded_lie_subspace(alg, [EndoMatrix.build([[0] * 3] * 3, t), mat])
    assert str(got.value) == want
    rows[0][2] = 0
    assert _block_verdict(check_block_invariant, alg, EndoMatrix.build(rows, s, "m")) == \
        "m has entry (1,0) outside its degree block"


@pytest.mark.parametrize("mat, message, span_message", [
    (EndoMatrix.build([[1, 0], [0, 1]], None, "no degree"), "no degree has no declared degree",
     "no degree has no declared degree"),
    (EndoMatrix((("1.5", 0, 0),) * 2, S3.identity(), "short"), "short is not 3x3",
     "short is not 3x3"),
    (EndoMatrix(((1.5, 0), (0, 1), (0, 0)), S3.identity()), "matrix is not 3x3",
     "mats[0] is not 3x3"),
    (EndoMatrix(((1.5, 0, 0),) * 3, None), "matrix has no declared degree",
     "mats[0] has no declared degree"),
], ids=["no degree", "too few rows", "too few columns", "float, no degree"])
def test_block_invariant_refuses_shape_and_degree_before_scaling(monkeypatch, mat, message,
                                                                 span_message):
    # is_graded_lie_subspace names an unlabelled matrix by its place in mats
    from gradedlie import liealg
    scaled = []
    monkeypatch.setattr(liealg, "_integer_row", lambda *args: scaled.append(args))
    alg = GradedLieAlgebra(S3, [S3.identity()] * 3, {})
    for check, want in ((check_block_invariant, message),
                        (lambda alg, mat: is_graded_lie_subspace(alg, [mat]), span_message)):
        with pytest.raises(GradedSpanError) as got:
            check(alg, mat)
        assert str(got.value) == want
    assert scaled == []


def test_block_invariant_agrees_with_the_sparse_check_on_ad_maps(algebras):
    rng = random.Random(59)
    outside = 0
    assert len(algebras) == 25
    for name, alg in algebras.items():
        for mat in ad_maps(alg):
            cases = [mat]
            rows = [list(row) for row in mat.rows]
            r, c = rng.randrange(alg.n), rng.randrange(alg.n)
            rows[r][c] += 1
            cases.append(EndoMatrix.build(rows, mat.degree, mat.label))
            for case in cases:
                want = _block_verdict(block_invariant_by_definition, alg, case)
                assert _block_verdict(check_block_invariant, alg, case) == want, name
                # is_graded_lie_subspace reads the block on its sparse integer rows
                got = _block_verdict(is_graded_lie_subspace, alg, [case])
                assert got == want, name
                outside += want is not None
    assert outside >= 20


def test_block_checks_read_entries_by_the_exact_scalar_rule(sl2):
    # both checks read an entry's value: a string "0" outside the block is
    # zero, and a float inside it is refused where it stands
    ad_e = [list(row) for row in inner_derivations(sl2)[0].rows]
    deg = sl2.degree(0)
    strzero = [row[:] for row in ad_e]
    strzero[0][0] = "0"
    mat = EndoMatrix(tuple(map(tuple, strzero)), deg, "strzero")
    check_block_invariant(sl2, mat)
    assert is_graded_lie_subspace(sl2, [mat]).ok
    floaty = [row[:] for row in ad_e]
    floaty[0][1] = 1.5
    mat = EndoMatrix(tuple(map(tuple, floaty)), deg, "floaty")
    for check in (check_block_invariant, lambda alg, m: is_graded_lie_subspace(alg, [m])):
        with pytest.raises(TypeError, match=r"^floaty entry \(0,1\) must be an int"):
            check(sl2, mat)


def test_graded_span_check_names_a_repeated_matrix_by_its_place():
    # one matrix object at two places of mats, over calls that reuse it:
    # each refusal names the first place that fails
    alg = GradedLieAlgebra(S3, [S3.identity()] * 3, {})
    ok = EndoMatrix.build([[1, 0, 0], [0, 1, 0], [0, 0, 1]], S3.identity())
    bad = EndoMatrix.build([[0, 1, 0]] * 3, S3.element(1))
    for mats, i in (([ok, bad, bad], 1), ([ok, ok, bad, ok, bad], 2), ([bad, ok, bad], 0)):
        with pytest.raises(GradedSpanError) as got:
            is_graded_lie_subspace(alg, mats)
        assert str(got.value) == f"mats[{i}] has entry (0,1) outside its degree block"
    assert _block_verdict(check_block_invariant, alg, bad) == \
        "matrix has entry (0,1) outside its degree block"
    floaty = EndoMatrix(((1.5, 0, 0),) * 3, S3.identity())
    for mats, i in (([floaty, floaty], 0), ([ok, floaty], 1)):
        with pytest.raises(TypeError, match=rf"^mats\[{i}\] entry \(0,0\) must be an int"):
            is_graded_lie_subspace(alg, mats)


@pytest.mark.parametrize("wrap", [list, tuple], ids=["list of lists", "tuple of lists"])
def test_block_checks_read_mutable_rows_afresh(wrap):
    alg = GradedLieAlgebra(S3, [S3.identity(), S3.element(1), S3.identity()], {})
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mat = EndoMatrix(wrap(rows), S3.identity(), "m")
    outside = "m has entry (0,1) outside its degree block"
    verdicts = []
    for value in (0, 2, 0):
        rows[0][1] = value
        verdicts.append([_block_verdict(check_block_invariant, alg, mat),
                         _block_verdict(is_graded_lie_subspace, alg, [mat])])
    assert verdicts == [[None, None], [outside, outside], [None, None]]
    # the span check reads the entries afresh too: [E_02, E_20] = E_00 - E_22
    # escapes the span of the two, and [0, E_20] = 0 does not
    flat = GradedLieAlgebra(S3, [S3.identity()] * 3, {})
    rows = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    mats = [EndoMatrix(wrap(rows), S3.identity()),
            EndoMatrix.build([[0, 0, 0], [0, 0, 0], [1, 0, 0]], S3.identity())]
    reports = []
    for value in (1, 0, 1):
        rows[0][2] = value
        reports.append(is_graded_lie_subspace(flat, mats).ok)
    assert reports == [False, True, False]


def test_string_entries_give_one_report_on_every_call(algebras):
    # strings are read by the exact-scalar rule and scaled alike on every call
    for name in ("sl3", "gl3", "s5_sum"):
        alg = algebras[name]
        mats = [EndoMatrix(tuple(tuple(str(x) for x in row) for row in m.rows), m.degree)
                for m in ad_maps(alg)]
        want = is_graded_lie_subspace(alg, ad_maps(alg))
        assert want.ok, name
        assert [is_graded_lie_subspace(alg, mats) for _ in range(3)] == [want] * 3, name
        # halved maps as strings "a/2", those of degree 1 left out: [ad e, ad f]
        # lands there and escapes, on every call
        half = [EndoMatrix(tuple(tuple(str(Fraction(x) / 2) for x in row) for row in m.rows),
                           m.degree) for m in ad_maps(alg) if m.degree != alg.group.identity()]
        first = is_graded_lie_subspace(alg, half)
        assert first.reason == "commutator escapes the span at the product degree", name
        assert [is_graded_lie_subspace(alg, half) for _ in range(2)] == [first] * 2, name
