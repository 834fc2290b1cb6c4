import pickle
import random
import re

import pytest

from gradedlie.groups import (BackendMismatch, GroupElement, GroupError, GroupSpec,
                              InvalidCayleyTable, commute, generates_abelian_subgroup, inv, mul)


def s3_spec():
    """S3 as a Cayley table, built from permutation composition so the table
    itself is independently correct."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    table = [[idx[compose(p, q)] for q in perms] for p in perms]
    return GroupSpec.finite(table, names=["1", "(12)", "(01)", "(012)", "(021)", "(02)"])


def random_element(spec, rng, length=4):
    out = spec.identity()
    if spec.kind == "finite":
        return spec.element(rng.randrange(spec.rank))
    for _ in range(rng.randrange(length + 1)):
        i = rng.randrange(spec.rank)
        if spec.kind == "free_abelian":
            out = out * spec.generator(i, rng.choice([-2, -1, 1, 2]))
        elif spec.kind == "free":
            out = out * spec.generator(i, rng.choice([-2, -1, 1, 2]))
        else:
            out = out * spec.generator(i, rng.randrange(1, spec.orders[i]))
    return out


ALL_SPECS = [
    s3_spec(),
    GroupSpec.free(3),
    GroupSpec.free_abelian(2),
    GroupSpec.free_product_cyclic([2, 2]),
    GroupSpec.free_product_cyclic([2, 3, 4]),
]


# -- construction and validation ------------------------------------------------

def test_finite_table_must_be_latin():
    with pytest.raises(InvalidCayleyTable):
        GroupSpec.finite([[0, 1], [1, 1]])


def test_finite_table_needs_identity_at_zero():
    # Z2 with the identity in the wrong slot
    with pytest.raises(InvalidCayleyTable):
        GroupSpec.finite([[1, 0], [0, 1]])


def test_finite_table_rejects_nonassociative_loop():
    # Latin square with two-sided inverses that is not a group
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidCayleyTable, match="associativity"):
        GroupSpec.finite(loop)


def _loop_times_cyclic(loop, m):
    """The direct product of a loop with Z/m, (a, x)(b, y) = (ab, x + y),
    with (a, x) at index a*m + x, so the identity stays at 0."""
    n = len(loop)
    return [[loop[i // m][j // m] * m + (i % m + j % m) % m for j in range(n * m)]
            for i in range(n * m)]


def _associativity_failure(message, table):
    a, b, c = map(int, message.split("(")[-1].rstrip(")").split(","))
    return table[table[a][b]][c] != table[a][table[b][c]]


def test_finite_table_rejects_nonassociative_loop_above_64():
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    table = _loop_times_cyclic(loop, 14)  # order 70
    with pytest.raises(InvalidCayleyTable, match=r"associativity fails on \(\d+,\d+,\d+\)") as exc:
        GroupSpec.finite(table)
    assert _associativity_failure(str(exc.value), table)


def _random_loop(rng, n):
    """A random Latin square whose row 0 and column 0 are the identity."""
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(pos):
        if pos == len(cells):
            return True
        i, j = cells[pos]
        options = [x for x in range(n) if x not in t[i] and all(r[j] != x for r in t)]
        rng.shuffle(options)
        for x in options:
            t[i][j] = x
            if fill(pos + 1):
                return True
        t[i][j] = None
        return False

    fill(0)
    return t


def _relabeled(table, perm):
    """The same operation with element x renamed perm[x] (perm[0] = 0)."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return out


def test_associativity_verdict_matches_all_triples():
    rng = random.Random(29)
    tables = [_random_loop(rng, n) for n in (4, 5, 6, 7) for _ in range(10)]
    for n, group in ((6, s3_spec().table), (8, _loop_times_cyclic([[0, 1], [1, 0]], 4))):
        for _ in range(5):
            perm = [0] + rng.sample(range(1, n), n - 1)
            tables.append(_relabeled(group, perm))
    verdicts = set()
    for table in tables:
        n = len(table)
        if any(table[table[i].index(0)][i] != 0 for i in range(n)):
            continue  # no two-sided inverses: rejected before associativity
        associative = all(table[table[a][b]][c] == table[a][table[b][c]]
                          for a in range(n) for b in range(n) for c in range(n))
        try:
            GroupSpec.finite(table)
            accepted = True
        except InvalidCayleyTable as exc:
            accepted = False
            assert _associativity_failure(str(exc), table)
        assert accepted == associative
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_finite_table_rejects_bad_names():
    with pytest.raises(InvalidCayleyTable):
        GroupSpec.finite([[0, 1], [1, 0]], names=["e", "e"])


def test_large_table_sampled_associativity():
    # Z/100 via addition; beyond the exhaustive limit, triple sampling runs
    n = 100
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    spec = GroupSpec.finite(table)
    assert spec.element(40) * spec.element(75) == spec.element(15)


def test_backend_mismatch_raises():
    a = GroupSpec.free(2).generator(0)
    b = GroupSpec.free_abelian(2).generator(0)
    with pytest.raises(BackendMismatch):
        mul(a, b)


# -- arithmetic ------------------------------------------------------------------

def test_free_word_cancellation():
    # (a b^-1)(b c^-1) = a c^-1
    g = GroupSpec.free(3)
    lhs = g.parse("a b^-1") * g.parse("b c^-1")
    assert lhs == g.parse("a c^-1")


def test_free_inverse_reverses_word():
    g = GroupSpec.free(2)
    w = g.parse("a b^-1")
    assert inv(w) == g.parse("b a^-1")
    assert (w * inv(w)).is_identity()


def test_free_product_two_syllables():
    g = GroupSpec.free_product_cyclic([2, 2])
    gh = g.generator(0) * g.generator(1)
    assert gh.data == ((0, 1), (1, 1))
    assert (g.generator(0) * g.generator(0)).is_identity()


def test_free_product_exponent_wraps():
    g = GroupSpec.free_product_cyclic([2, 3])
    b = g.generator(1)
    assert (b * b).data == ((1, 2),)
    assert (b * b * b).is_identity()
    assert inv(b) == b * b


def test_free_abelian_addition():
    g = GroupSpec.free_abelian(2)
    assert (g.parse([1, 0]) * g.parse([0, 1])).data == (1, 1)


def test_s3_transposition_is_its_own_inverse():
    s3 = s3_spec()
    t = s3.parse("(01)")
    assert inv(t) == t
    assert not commute(t, s3.parse("(012)"))


def test_identity_literals():
    for spec in ALL_SPECS:
        if spec.kind != "finite":
            assert spec.parse("1").is_identity()
        assert spec.parse([]).is_identity()
    assert GroupSpec.free_abelian(2).parse([0, 0]).is_identity()


def test_parse_format_round_trip():
    rng = random.Random(7)
    for spec in ALL_SPECS:
        for _ in range(50):
            x = random_element(spec, rng)
            assert spec.parse(spec.format(x)) == x


def test_literals_take_json_integers_only():
    fab = GroupSpec.free_abelian(2)
    fpc = GroupSpec.free_product_cyclic([2, 3])
    s3 = s3_spec()
    for spec, literal in [(fab, [2.5, 0]), (fab, [True, 0]), (fab, "[1.0, 0]"),
                          (fpc, [[0, 1.0]]), (fpc, [[False, 1]]), (fpc, "[[1, true]]"),
                          (s3, 2.0), (s3, True)]:
        with pytest.raises(GroupError, match=f"bad {spec.kind} element literal"):
            spec.parse(literal)
    assert fab.parse("[1,0]") == fab.generator(0)
    assert fpc.parse("[[1,2]]") == fpc.generator(1, 2)
    free = GroupSpec.free(2)
    assert free.parse("a b^-1") == free.generator(0) * free.generator(1, -1)
    assert s3.parse("(012)") == s3.parse("3") == s3.parse(3) == s3.element(3)


def test_parse_x_numbered_generators():
    g = GroupSpec.free(30)  # falls back to x1..x30 naming
    x = g.generator(27, -2)
    assert g.format(x) == "x28^-2"
    assert g.parse("x28^-2") == x



def test_constructors_take_integers_only():
    for build in (lambda: GroupSpec.free_product_cyclic([2.7]),
                  lambda: GroupSpec.free_product_cyclic([2, True]),
                  lambda: GroupSpec.finite([[0, 1.9], [1, 0]]),
                  lambda: GroupSpec.finite([[0, 1], [True, 0]]),
                  lambda: GroupSpec.free(2.5),
                  lambda: GroupSpec.free_abelian(True)):
        with pytest.raises(GroupError, match="expected an integer"):
            build()
    assert GroupSpec.free_product_cyclic([2, 3]).orders == (2, 3)
    assert GroupSpec.free(2).rank == GroupSpec.free_abelian(2).rank == 2


def test_string_integers_take_ascii_digits_only():
    free, z2 = GroupSpec.free(2), GroupSpec.finite([[0, 1], [1, 0]])
    for spec, literal in [(free, "a^1_0"), (free, "a^+1"), (free, "b^\u0661"),
                          (z2, "0_1"), (z2, "+1"), (z2, " 1 0")]:
        with pytest.raises(GroupError, match=f"bad {spec.kind} element literal"):
            spec.parse(literal)
    with pytest.raises(GroupError, match="generator token"):
        GroupSpec.free(30).parse("x1_0")
    assert free.parse("a^10 b^-2") == free.generator(0, 10) * free.generator(1, -2)
    assert z2.parse("1") == z2.parse(" 1 ") == z2.element(1)
    assert GroupSpec.free(30).parse("x10^-1") == GroupSpec.free(30).generator(9, -1)

# -- normal-form properties ------------------------------------------------------

def test_associativity_and_inverses_sampled():
    rng = random.Random(11)
    for spec in ALL_SPECS:
        for _ in range(120):
            a, b, c = (random_element(spec, rng) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, inv(a)).is_identity()
            assert mul(spec.identity(), a) == a
            assert mul(a, spec.identity()) == a


def test_commute_is_symmetric_and_reflexive():
    rng = random.Random(13)
    for spec in ALL_SPECS:
        for _ in range(60):
            g, h = random_element(spec, rng), random_element(spec, rng)
            assert commute(g, h) == commute(h, g)
            assert commute(g, g)


def test_commute_in_c2_star_c2():
    g = GroupSpec.free_product_cyclic([2, 2])
    assert not commute(g.generator(0), g.generator(1))


def test_commute_in_free_group_example():
    g = GroupSpec.free(3)
    assert not commute(g.parse("a b^-1"), g.parse("b c^-1"))


def test_free_abelian_commute_constant_true():
    g = GroupSpec.free_abelian(3)
    rng = random.Random(17)
    for _ in range(100):
        assert commute(random_element(g, rng), random_element(g, rng))


def test_commute_matches_commutator_oracle():
    def oracle(g, h):
        return (g * h * g.inverse() * h.inverse()).is_identity()

    rng = random.Random(29)
    for spec in ALL_SPECS:
        for _ in range(200):
            g, h = random_element(spec, rng), random_element(spec, rng)
            for other in (h, g ** rng.randint(-3, 3), h * g):
                assert commute(g, other) == oracle(g, other), (g, other)


def test_specs_from_equal_data_are_equal_and_hash_equally():
    pairs = [(s3_spec(), s3_spec()), (GroupSpec.free(3), GroupSpec.free(3)),
             (GroupSpec.free_abelian(2), GroupSpec.free_abelian(2)),
             (GroupSpec.free_product_cyclic([2, 3, 4]), GroupSpec.free_product_cyclic([2, 3, 4]))]
    rng = random.Random(31)
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        for _ in range(20):
            x = random_element(a, rng)
            y = b.parse(a.format(x))
            assert x == y and hash(x) == hash(y)


def test_finite_specs_with_different_tables_differ():
    z4 = GroupSpec.finite([[(a + b) % 4 for b in range(4)] for a in range(4)])
    klein = GroupSpec.finite([[a ^ b for b in range(4)] for a in range(4)])
    assert z4.rank == klein.rank
    assert z4 != klein
    assert z4.element(1) != klein.element(1)
    assert len({z4.element(1), klein.element(1)}) == 2
    with pytest.raises(BackendMismatch):
        z4.element(1) * klein.element(1)


def _free_powers(word, bound=6):
    powers = {word.spec.identity()}
    for k in range(1, bound + 1):
        powers.add(word ** k)
        powers.add(word ** -k)
    return powers


def _enumerate_free_words(spec, max_letters):
    """All reduced words of at most max_letters single letters."""
    letters = [spec.generator(i, e) for i in range(spec.rank) for e in (1, -1)]
    words = {spec.identity()}
    frontier = {spec.identity()}
    for _ in range(max_letters):
        frontier = {w * l for w in frontier for l in letters}
        words |= frontier
    return sorted(words, key=lambda w: (len(w.data), w.data))


def test_free_commute_matches_common_power_oracle():
    # two free-group elements commute iff they are powers of a common word;
    # brute-force enumeration of candidate common words up to 4 letters
    spec = GroupSpec.free(2)
    words4 = _enumerate_free_words(spec, 4)
    candidates = [w for w in words4 if not w.is_identity()]
    power_sets = [_free_powers(w) for w in candidates]

    def oracle(g, h):
        if g.is_identity() or h.is_identity():
            return True
        return any(g in ps and h in ps for ps in power_sets)

    words2 = _enumerate_free_words(spec, 2)
    for g in words2:
        for h in words2:
            assert commute(g, h) == oracle(g, h), (g, h)

    rng = random.Random(19)
    pool = [w for w in words4 if sum(abs(e) for _, e in w.data) <= 4]
    for _ in range(300):
        g, h = rng.choice(pool), rng.choice(pool)
        assert commute(g, h) == oracle(g, h), (g, h)


# -- abelian-subgroup predicate ---------------------------------------------------

def test_gas_trivial_cases():
    g = GroupSpec.free_product_cyclic([2, 2])
    assert generates_abelian_subgroup([])
    assert generates_abelian_subgroup([g.generator(0)])
    assert not generates_abelian_subgroup([g.generator(0), g.generator(1)])


def test_gas_in_integers():
    z = GroupSpec.free_abelian(1)
    xs = [z.parse([1]), z.parse([0]), z.parse([-1])]
    assert generates_abelian_subgroup(xs)


def test_gas_order_independent_and_monotone():
    rng = random.Random(23)
    for spec in ALL_SPECS:
        for _ in range(40):
            xs = [random_element(spec, rng) for _ in range(4)]
            shuffled = xs[:]
            rng.shuffle(shuffled)
            assert generates_abelian_subgroup(xs) == generates_abelian_subgroup(shuffled)
            if generates_abelian_subgroup(xs):
                assert generates_abelian_subgroup(xs[:2])


def test_element_constructors_take_integers_only():
    free, fab = GroupSpec.free(2), GroupSpec.free_abelian(2)
    fpc, z2 = GroupSpec.free_product_cyclic([2, 3]), GroupSpec.finite([[0, 1], [1, 0]])
    for build in (lambda: free.generator(0, 1.5),
                  lambda: fpc.generator(1, 2.5),
                  lambda: fab.generator(0, 0.5),
                  lambda: fab.generator(1.0),
                  lambda: free.generator(True),
                  lambda: z2.element(True),
                  lambda: z2.element(1.0),
                  lambda: free.generator(0) ** True,
                  lambda: z2.element(1) ** 2.0):
        with pytest.raises(GroupError, match="expected an integer"):
            build()
    assert free.generator(0, 3) ** -2 == free.generator(0, -6)
    assert fpc.generator(1, 2) ** 3 == fpc.identity()
    assert fab.generator(1, -2) == fab.parse([0, -2])
    assert z2.element(1) ** 2 == z2.element(0)


def test_non_elements_are_refused_on_every_backend():
    for spec in ALL_SPECS:
        g = random_element(spec, random.Random(3))
        for other in (2, 1.5, "a", None, (0, 1)):
            named = re.escape(f"got {other!r}")
            with pytest.raises(TypeError):
                g * other
            with pytest.raises(TypeError):
                other * g
            with pytest.raises(GroupError, match=named):
                spec.mul(g, other)
            with pytest.raises(GroupError, match=named):
                spec.mul(other, g)
            with pytest.raises(GroupError, match=named):
                spec.inv(other)
            with pytest.raises(GroupError, match=named):
                mul(g, other)


def test_module_level_operations_name_a_left_non_element():
    for spec in ALL_SPECS:
        g = random_element(spec, random.Random(5))
        for other in (2, 1.5, "a", None, (0, 1)):
            named = re.escape(f"got {other!r}")
            with pytest.raises(GroupError, match=named):
                mul(other, g)
            with pytest.raises(GroupError, match=named):
                inv(other)
        with pytest.raises(GroupError, match=re.escape("got 2")):
            mul(2, 3)
        assert mul(g, inv(g)) == spec.identity()


def test_constructors_refuse_negative_ranks_and_small_orders():
    for build in (lambda: GroupSpec.free(-1),
                  lambda: GroupSpec.free_abelian(-1),
                  lambda: GroupSpec.free_product_cyclic([1])):
        with pytest.raises(GroupError, match=">= "):
            build()


def test_generator_and_element_refuse_bad_indices_and_backends():
    z2 = GroupSpec.finite([[0, 1], [1, 0]])
    for build, message in ((lambda: GroupSpec.free(2).generator(2), "out of range"),
                           (lambda: GroupSpec.free_abelian(2).generator(-1), "out of range"),
                           (lambda: z2.generator(0), "no distinguished generators"),
                           (lambda: GroupSpec.free(2).element(0), "only available in the finite"),
                           (lambda: z2.element(2), "out of range")):
        with pytest.raises(GroupError, match=message):
            build()


def test_elements_of_equal_specs_multiply():
    a, b = GroupSpec.free(2), GroupSpec.free(2)
    assert a is not b
    x, y = a.generator(0), b.generator(1)
    assert a.format(x * y) == b.format(b.generator(0) * y)
    assert a.mul(y, x) == b.mul(y, b.generator(0)) != x * y


# -- the element contract -------------------------------------------------------------

def _backends():
    """(spec, a copy of it built from the same data, sample literals) for each
    of the four backends."""
    return [
        (s3_spec(), s3_spec(), ["1", "(012)", "(02)"]),
        (GroupSpec.free(3), GroupSpec.free(3), ["1", "a b^-2", "c a"]),
        (GroupSpec.free_abelian(2), GroupSpec.free_abelian(2), ["[0,0]", "[1,-2]", "[3,4]"]),
        (GroupSpec.free_product_cyclic([2, 3]), GroupSpec.free_product_cyclic([2, 3]),
         ["1", "[[0,1],[1,2]]", "[[1,1]]"]),
    ]


@pytest.mark.parametrize("spec, copy, literals", _backends(),
                         ids=["finite", "free", "free_abelian", "free_product_cyclic"])
def test_element_equality_and_hash_across_equal_specs(spec, copy, literals):
    assert spec is not copy and spec == copy and hash(spec) == hash(copy)
    for text in literals:
        x, y = spec.parse(text), copy.parse(text)
        assert x == y and not x != y and hash(x) == hash(y)
        assert hash(x) == hash((x.spec, x.data)) == hash((copy, y.data))
        assert len({x, y}) == 1 and {x: 1}[y] == 1
        product = x * spec.parse(literals[1])
        assert type(product) is GroupElement
        assert hash(product) == hash((spec, product.data))
        assert product == copy.parse(spec.format(product))


def test_elements_of_different_backends_are_unequal():
    elements = [spec.parse(text) for spec, _, literals in _backends() for text in literals]
    elements.append(GroupSpec.free_product_cyclic([2, 2]).parse("[[0,1],[1,1]]"))
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            assert (x == y) == (i == j), (x, y)
            assert (x != y) == (i != j), (x, y)
    # the free group and a free product of cyclic groups share the word data
    free, fpc = GroupSpec.free(2), GroupSpec.free_product_cyclic([2, 2])
    assert free.identity().data == fpc.identity().data == ()
    assert free.identity() != fpc.identity()
    assert free.generator(0) != fpc.generator(0)
    # nor does an element equal its own data, or the pair it hashes as
    for x in elements:
        assert x != x.data and x != (x.spec, x.data)


@pytest.mark.parametrize("spec, copy, literals", _backends(),
                         ids=["finite", "free", "free_abelian", "free_product_cyclic"])
def test_elements_are_immutable(spec, copy, literals):
    x = spec.parse(literals[1])
    h = hash(x)
    for name, value in (("spec", copy), ("data", x.data), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.spec is spec and hash(x) == h


def test_element_repr_and_str_are_unchanged():
    s3 = s3_spec()
    table = ("((0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4), "
             "(3, 2, 5, 4, 0, 1), (4, 5, 1, 0, 3, 2), (5, 4, 3, 2, 1, 0))")
    cases = [
        (s3.element(3),
         f"GroupElement(spec=GroupSpec(kind='finite', table={table}, names=('1', '(12)', "
         "'(01)', '(012)', '(021)', '(02)'), rank=6, orders=()), data=3)", "(012)"),
        (GroupSpec.free(3).parse("a b^-2"),
         "GroupElement(spec=GroupSpec(kind='free', table=None, names=None, rank=3, "
         "orders=()), data=((0, 1), (1, -2)))", "a b^-2"),
        (GroupSpec.free_abelian(2).parse([1, -2]),
         "GroupElement(spec=GroupSpec(kind='free_abelian', table=None, names=None, rank=2, "
         "orders=()), data=(1, -2))", "[1,-2]"),
        (GroupSpec.free_product_cyclic([2, 3]).parse([[0, 1], [1, 2]]),
         "GroupElement(spec=GroupSpec(kind='free_product_cyclic', table=None, names=None, "
         "rank=2, orders=(2, 3)), data=((0, 1), (1, 2)))", "[[0,1],[1,2]]"),
        (GroupSpec.free(2).identity(),
         "GroupElement(spec=GroupSpec(kind='free', table=None, names=None, rank=2, "
         "orders=()), data=())", "1"),
    ]
    for e, want_repr, want_str in cases:
        assert repr(e) == want_repr and str(e) == want_str
        hash(e)  # a cached hash does not show
        assert repr(e) == want_repr and str(e) == want_str


def test_elements_pickle_without_their_cached_hash():
    for spec, _, literals in _backends():
        for text in literals:
            x = spec.parse(text)
            hash(x)
            # the payload of a hashed element is that of a fresh one
            assert pickle.dumps(x) == pickle.dumps(spec.parse(text))
            y = pickle.loads(pickle.dumps(x))
            assert y == x and hash(y) == hash(x) and y.spec == spec


class IntSub(int):
    pass


@pytest.mark.parametrize("entry, shown", [(1.0, "1.0"), (True, "True"), ("1", "'1'")],
                         ids=["float", "bool", "str"])
def test_finite_table_names_the_row_of_a_non_integer_entry(entry, shown):
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[2][1] = entry
    with pytest.raises(GroupError) as info:
        GroupSpec.finite(table)
    assert str(info.value) == f"Cayley table row 2: expected an integer, got {shown}"
    # int subclasses pass, as for every other integer input
    assert GroupSpec.finite([[0, IntSub(1)], [1, 0]]).rank == 2


def test_spec_hash_is_kept_but_never_pickled():
    for spec, _, _ in _backends():
        fresh = pickle.dumps(spec)
        assert hash(spec) == hash((spec.kind, spec.rank, spec.orders)) == hash(spec)
        assert pickle.dumps(spec) == fresh
        copy = pickle.loads(fresh)
        assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
