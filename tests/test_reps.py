import hashlib
import json
import os
from itertools import combinations

import pytest

from bigalg import lie
from bigalg.acceptance import BATTERY
from bigalg.bigalgebra import principal_transport
from bigalg.kirillov import derivation_chain
from bigalg.linalg import QMatrix, joint_kernel
from bigalg.multiplicity import h_plus_e_transport, reversal_transport
from bigalg.multipoly import rat
from bigalg import reps
from bigalg.reps import build_irrep, g_e_invariants, load_rep, save_rep
from oracles import (
    centralizer,
    column,
    folded,
    h_pairing,
    inverse,
    old_ambient_module,
    rho_over_the_old_ambient,
    structure_constants,
    unfolded,
    weight_spaces,
)


def test_fundamental_dims(L3, L4):
    assert build_irrep(L3, (1, 0)).dim == 3
    r = build_irrep(L3, (0, 1))
    assert r.dim == 3
    assert r.mu == (0, 1)
    assert build_irrep(L4, (0, 1, 0)).dim == 6


def test_build_dims(L2, octet, decuplet):
    assert build_irrep(L2, (4,)).dim == 5
    assert decuplet.dim == 10
    assert octet.dim == 8
    assert len(octet.weight_table[(0, 0)]) == 2


def test_dimension_bound(L2):
    with pytest.raises(ValueError):
        build_irrep(L2, (500,))


def test_bracket_fidelity(octet, L2, L3, L4):
    modules = [
        (L3, octet),
        (L2, build_irrep(L2, (6,))),
        (L3, build_irrep(L3, (2, 1))),
        (L4, build_irrep(L4, (1, 0, 1))),
    ]
    for L, rep in modules:
        c = structure_constants(L.n)
        for i, j in combinations(range(L.dim), 2):
            lhs = rep.rho[i].commutator(rep.rho[j])
            assert lhs == rep.op(column(c[i][j])), (rep.mu, i, j)


# First 16 hex digits of the SHA-256 of the sorted-key JSON of the record
# `_words_and_rho` (the cache entry of version 1, which kept each rho(X_b)
# beside the words), of the tensor basis and of the weights.  They were computed by an
# independent construction (dense Kronecker sums of wedge matrices, with the
# highest-weight vector found as a kernel), so they pin the exact bytes.
# That construction's ambient has one unordered factor Lambda^k per unit of
# mu_k, and the tensor basis is read there through `unfolded`.
MODULE_DIGESTS = [
    ((2, (1,)), ('1057dbde67d56a7b', 'd961a3cc60cff832', 'edf1414eb1fde9d8')),
    ((2, (2,)), ('9e69ab5b23b5e56f', 'e1794ad298dfda91', '77b0f755d888b147')),
    ((2, (3,)), ('a4ff514ccd499db4', '0c836348a150be2e', '3c72a6faeba51f5f')),
    ((2, (4,)), ('7b22ca0875ae876d', 'e093a4d3ff12a8e1', '9e3db431937a0949')),
    ((2, (5,)), ('fedc986ca0ce5ae9', '487b4a13e5742a3b', '86213dfa8552237b')),
    ((2, (6,)), ('e1c047735cf69c1e', 'd6840321e0cfe829', '7ad0213011fc9d77')),
    ((3, (1, 0)), ('ffc527c2abac73bb', 'c24ecf7d64263f88', 'b2ca17e629e1b35a')),
    ((3, (0, 1)), ('5a3ac95d6a44a069', 'c24ecf7d64263f88', 'aa918fc244f1bdd2')),
    ((3, (2, 0)), ('821e94a296674d8d', '941d05e85bd5601e', '637dfc3820ffa7f8')),
    ((3, (3, 0)), ('0b9baabc0b93df4d', '3f777ab78fd4c103', '375ed79815385666')),
    ((3, (1, 1)), ('c17fdcc207888603', '59afc8c42f500461', '19071e81af01bdd4')),
    ((3, (2, 1)), ('f75260ce7ff94301', 'de2c10f6f82909ca', 'cdfc9644bdd9a62e')),
    ((4, (1, 0, 0)), ('b286648a086829e4', '6ad6bb43838301a8', '41221f289524f301')),
    ((4, (0, 1, 0)), ('afb80f14db40ab3d', '31d133a824a1aafb', 'ea79f3db0ca40cc1')),
    ((3, (2, 2)), ('6e74aa96de48e731', '8622db82cc51765a', 'f1a8f2e208ca8fec')),
    ((4, (1, 1, 0)), ('fc47bf5419ae815d', '5e55de6910bca303', '608937aca8d508f9')),
    ((3, (0, 0)), ('b7f81a7b68092c59', 'e28610836ab702cd', '54702df08034f226')),
]


# The same digest of tensor_basis.to_obj() in the symmetric ambient, for
# the modules with a repeated exterior power (the others' equals the one
# above).  Each was computed from the tensor basis pinned above, folded by
# adding each key's coefficient to its key with every run of equal exterior
# powers sorted.
SYMMETRIC_TENSOR_DIGESTS = {
    (2, (2,)): 'c16a331ea375bc5f',
    (2, (3,)): '8cee3b67af089110',
    (2, (4,)): 'e4f94c71e40a271a',
    (2, (5,)): '0d24b718f5e086d2',
    (2, (6,)): '49bb93c64d8b99ba',
    (3, (2, 0)): 'cf812ab812932895',
    (3, (3, 0)): 'f8744c6f5f86aee4',
    (3, (2, 1)): '889e299427cf55e0',
    (3, (2, 2)): 'bac0441dcfd2b7e3',
}


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _words_and_rho(rep):
    return {
        "version": 1,
        "n": rep.L.n,
        "mu": list(rep.mu),
        "dim": rep.dim,
        "basis_words": [list(w) for w in rep.words],
        "rho": [m.to_obj() for m in rep.rho],
    }


def test_module_digests_cover_the_battery():
    assert set(BATTERY) <= {key for key, _ in MODULE_DIGESTS}


@pytest.mark.parametrize("key, digests", MODULE_DIGESTS, ids=str)
def test_module_bytes_are_pinned(key, digests):
    n, mu = key
    rep = build_irrep(lie.TypeA(n), mu)
    assert (
        _sha(_words_and_rho(rep)), _sha(unfolded(rep).to_obj()), _sha(rep.weights)
    ) == digests
    tensor = SYMMETRIC_TENSOR_DIGESTS.get(key, digests[1])
    assert _sha(rep.tensor_basis.to_obj()) == tensor
    # the principal grading deg e_i = (h(mu) - h(w_i)) / 2, with e_0 in degree 0
    assert rep.grades == [(h_pairing(mu) - h_pairing(w)) / 2 for w in rep.weights]
    assert rep.grades[0] == 0


@pytest.mark.parametrize(
    "n, mu",
    [(3, (3, 2)), (4, (1, 1, 1)), (5, (1, 0, 0, 1)), (6, (1, 0, 0, 0, 1)), (3, (4, 3)),
     (3, (8, 0))],
)
def test_rho_per_weight_equals_the_whole_ambient_solve(n, mu):
    rep = build_irrep(lie.TypeA(n), mu)
    oracle = rho_over_the_old_ambient(rep.L, mu)
    assert _sha([m.to_obj() for m in rep.rho]) == _sha([m.to_obj() for m in oracle])
    assert rep.rho == oracle


@pytest.mark.parametrize(
    "n, mu",
    [key for key, _ in MODULE_DIGESTS if max(key[1]) > 1]
    + [(3, (3, 2)), (3, (4, 3)), (3, (8, 0))],
    ids=str,
)
def test_tensor_basis_is_the_fold_of_the_old_ambient(n, mu):
    # the ambient with one unordered factor per unit of mu builds the same
    # words and weights, and its vectors, with each run of equal exterior
    # powers sorted and equal keys added, are the new ones
    rep = build_irrep(lie.TypeA(n), mu)
    words, weights, vectors, index = old_ambient_module(rep.L, mu)
    assert (rep.words, rep.weights) == (words, weights)
    fold = folded(vectors, mu)
    assert rep.vectors == fold
    keys = sorted(folded([dict.fromkeys(index, 1)], mu)[0])  # every run-sorted key
    assert list(rep.index) == keys
    num = [[vec.get(key, 0) for vec in fold] for key in keys]
    assert rep.tensor_basis == QMatrix.from_ints(num, 1, rep.dim)


# First 16 hex digits of the SHA-256 of the sorted-key JSON of to_obj() of
# the principal, h + e and reversal transports, computed through the dense
# Kronecker product of the minor matrices over the ambient with one
# unordered factor per unit of mu.
TRANSPORT_DIGESTS = [
    ((2, (6,)), ('be0def7888918b7c', '0e5e0b2b2328efd6', '537f0a8d7b39d9f5')),
    ((3, (2, 2)), ('1647de568a4fa7aa', 'b03483d03cb70c4b', '0f3c4b9d4812baa1')),
    ((3, (3, 2)), ('91280d2ed92b898c', '37d75d344991bf61', '89813e6773136ea1')),
]


@pytest.mark.parametrize("key, digests", TRANSPORT_DIGESTS, ids=str)
def test_transport_bytes_are_pinned(key, digests):
    n, mu = key
    rep = build_irrep(lie.TypeA(n), mu)
    _, principal = principal_transport(rep)
    transports = (principal, h_plus_e_transport(rep), reversal_transport(rep))
    assert tuple(_sha(t.to_obj()) for t in transports) == digests


@pytest.mark.parametrize("drop", [7, 4], ids=["lowest", "zero-weight"])
def test_a_family_not_closed_under_the_action_is_refused(L3, octet, drop):
    # without the lowest-weight vector, the images that land on its weight
    # leave the span of the rest; without one of the two weight-0 vectors,
    # those that land on weight 0 do
    vectors = octet.vectors
    keep = [i for i in range(octet.dim) if i != drop]
    with pytest.raises(ValueError, match="not in span"):
        reps._module(
            L3, (1, 1), octet.runs, octet.index, [vectors[i] for i in keep],
            [octet.weights[i] for i in keep], [octet.words[i] for i in keep],
        )


@pytest.mark.parametrize("other", [None, (1,)], ids=["unused-key", "other-weight"])
def test_an_image_off_the_keys_of_its_weight_is_refused(other):
    # the image's first key is used by the weight-0 vector, its second by no
    # vector, or by a vector of another weight
    vectors = [{("a",): 1}] + ([{("b",): 1}] if other else [])
    weights = [(0,)] + ([other] if other else [])
    images = [[{("a",): 1, ("b",): 1}] + [{}] * (len(vectors) - 1)]
    with pytest.raises(ValueError, match="not in span"):
        reps._solve_rho(images, vectors, weights)


def test_dependent_vectors_are_refused(L3, octet):
    # a second copy of a weight-0 vector, scaled, beside the whole basis
    extra = {key: 2 * c for key, c in octet.vectors[4].items()}
    with pytest.raises(ValueError, match="dependent"):
        reps._module(
            L3, (1, 1), octet.runs, octet.index, octet.vectors + [extra],
            octet.weights + [(0, 0)], octet.words + [(2, 1)],
        )


def test_weyl_dimension_agreement(L3):
    for mu in [(1, 0), (2, 0), (1, 1), (2, 1)]:
        assert build_irrep(L3, mu).dim == lie.weyl_dim(mu)


def test_weights_weyl_invariant(decuplet):
    mult = {w: len(ix) for w, ix in decuplet.weight_table.items()}
    for perm, _ in lie.weyl_group(3):
        for w, m in mult.items():
            assert mult[lie.weyl_act(perm, w)] == m
    assert sum(mult.values()) == decuplet.dim


def test_coordinates_must_be_a_column_of_length_dim(octet, L3):
    # zip would cut a wrong length to the basis; each is refused instead
    for coords in (
        QMatrix([[1]]),
        QMatrix([[1]] * 20),
        QMatrix([[1], [0]]),
        QMatrix([[1] * L3.dim]),
    ):
        for use in (octet.op, L3.matrix_of):
            with pytest.raises(ValueError):
                use(coords)
    first = column([int(i == 0) for i in range(L3.dim)])
    assert octet.op(first) == octet.rho[0]
    assert L3.matrix_of(first) == L3.basis[0]


def test_weight_spaces_standard_cartan(octet, decuplet, L3):
    torus = [
        column([rat(1) if i == L3.dim - 2 else rat(0) for i in range(L3.dim)]),
        column([rat(1) if i == L3.dim - 1 else rat(0) for i in range(L3.dim)]),
    ]
    blocks = weight_spaces(octet, torus)
    dims = sorted(b.cols for b, _ in blocks)
    assert dims == [1, 1, 1, 1, 1, 1, 2]
    blocks_dec = weight_spaces(decuplet, torus)
    assert sorted(b.cols for b, _ in blocks_dec) == [1] * 10


def test_weight_spaces_irrational_spectrum_rejected(L2):
    std = build_irrep(L2, (1,))
    # e + 2f acts on the standard module with eigenvalues +-sqrt(2)
    x = L2.e_coords + L2.coords_of(L2.f) * 2
    with pytest.raises(ValueError):
        weight_spaces(std, [x])


def test_weight_spaces_trivial_rep(L3):
    triv = build_irrep(L3, (0, 0))
    assert triv.dim == 1
    assert triv.weight_table == {(0, 0): [0]}
    torus = [column([rat(1) if i == L3.dim - 2 else rat(0) for i in range(L3.dim)])]
    blocks = weight_spaces(triv, torus)
    assert len(blocks) == 1 and blocks[0][1] == (rat(0),)


def test_weight_multiplicity_against_q_analogue(decuplet):
    # oracle: the alternating Weyl sum evaluated at q = 1
    from bigalg.multiplicity import lusztig_m

    for lam, idx in decuplet.weight_table.items():
        if lie.is_dominant(lam):
            assert lusztig_m((3, 0), lam).eval_at_one() == len(idx)


def test_g_e_invariants_dims(octet, decuplet):
    assert g_e_invariants(octet).cols == 2
    assert g_e_invariants(decuplet).cols == 1


@pytest.mark.parametrize("n, mu", BATTERY + [(4, (1, 1, 1))])
def test_g_e_invariants_match_the_oracle_centralizer(n, mu):
    # g^e written down as the powers of e, against the kernel of ad(e)
    L = lie.TypeA(n)
    rep = build_irrep(L, mu)
    cent = centralizer(L, L.e_coords)
    assert cent.cols == n - 1
    assert g_e_invariants(rep) == joint_kernel([rep.op(x) for x in cent.columns()])


def test_weight_basis_is_identity_columns(octet):
    ident = QMatrix.identity(octet.dim)
    for lam, idx in octet.weight_table.items():
        expected = QMatrix([[ident[r, i] for i in idx] for r in range(octet.dim)])
        assert octet.weight_basis(lam) == expected
    # (5, 5) is not a weight of the octet
    assert octet.weight_basis((5, 5)) == QMatrix.zeros(octet.dim, 0)


def test_cache_round_trip(tmp_path, L3, octet):
    path = save_rep(octet, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {
            "version": 2, "n": 3, "mu": [1, 1], "dim": 8,
            "basis_words": [list(w) for w in octet.words],
        }
    back = load_rep(L3, (1, 1), str(tmp_path))
    assert back is not None
    assert back.dim == octet.dim
    assert back.words == octet.words
    assert back.weights == octet.weights and back.grades == octet.grades
    for a, b in zip(back.rho, octet.rho):
        assert a == b
    assert back.tensor_basis == octet.tensor_basis


def test_a_stale_version_1_entry_is_ignored(tmp_path, L3, octet):
    stale = tmp_path / "sl3_mu1-1_v1.json"
    text = json.dumps(_words_and_rho(octet), sort_keys=True)
    stale.write_text(text)
    assert load_rep(L3, (1, 1), str(tmp_path)) is None
    rep = reps.get_rep(L3, (1, 1), str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == ["sl3_mu1-1_v1.json", "sl3_mu1-1_v2.json"]
    assert stale.read_text() == text
    assert rep.rho == octet.rho


def test_a_loaded_module_starts_with_an_empty_memo(tmp_path, L3, octet):
    octet.rho_e  # keeps rho(e) on the saved module
    derivation_chain(octet, 2, 1)  # and rho(X^i), the operands of D
    save_rep(octet, str(tmp_path))
    back = load_rep(L3, (1, 1), str(tmp_path))
    assert {"rho_e", "dual_rho"} <= set(octet._memo)
    assert back._memo == {}


def test_a_load_replays_each_word_with_one_lowering(tmp_path, monkeypatch, L3, decuplet):
    # a built module's words are prefix-closed: each extends a stored word
    save_rep(decuplet, str(tmp_path))
    lowerings = []
    lowering = reps._lowering

    def counted(L, runs):
        def count(act):
            return lambda vec: lowerings.append(vec) or act(vec)

        return [count(act) for act in lowering(L, runs)]

    monkeypatch.setattr(reps, "_lowering", counted)
    assert load_rep(L3, (3, 0), str(tmp_path)) is not None
    assert len(lowerings) == decuplet.dim - 1


def _swap_words(obj):
    words = obj["basis_words"]
    words[1], words[2] = words[2], words[1]


def _drop_word(obj):
    obj["basis_words"].pop()


def _bad_letter(obj):
    obj["basis_words"][1] = [3]


def _bool_letter(obj):
    # True == 1 and lies in range(1, n), but is no lowering index
    assert obj["basis_words"][1] == [1]
    obj["basis_words"][1] = [True]


def _float_letter(obj):
    obj["basis_words"][1] = [1.0]


def _zero_words(obj):
    # words in build order that lower past the end of the alpha_1 string of
    # the highest weight: the vector of (1, 1) vanishes
    obj["basis_words"] = [[1] * k for k in range(len(obj["basis_words"]))]


def _first_word(obj):
    # the highest-weight vector is the one replayed for the first word, so
    # any word but () would label it wrongly
    obj["basis_words"][0] = [2]


def _duplicate_word(obj):
    obj["basis_words"][4] = obj["basis_words"][3]


def _dependent_words(obj):
    # (2, 1, 1) extends (2, 1) in build order and lands on the weight
    # (-2, 1) of (1, 2, 1), a line: the two vectors are dependent, the
    # weight (1, -2) is left without one, and the solve refuses the images
    # that land there
    assert obj["basis_words"][5:7] == [[1, 2, 1], [1, 2, 2]]
    obj["basis_words"][6] = [2, 1, 1]


def _version_1(obj):
    obj["version"] = 1


def _rho_key(obj):
    # the field that version 1 kept beside the words
    obj["rho"] = [m.to_obj() for m in build_irrep(lie.TypeA(3), (1, 1)).rho]


def _empty(obj):
    obj.update(dim=0, basis_words=[])


def _other_mu(obj):
    obj["mu"] = [2, 1]


def _long_word(obj):
    obj["basis_words"][-1] = [1, 2] * 5000


def _orphan_word(obj):
    # (2, 1, 1) is not stored, so the word extends no earlier word by one
    # letter, although it lands on twice the lowest-weight vector of the
    # word (1, 2, 1, 2) that it replaces
    assert obj["basis_words"][-1] == [1, 2, 1, 2]
    obj["basis_words"][-1] = [2, 1, 1, 2]


@pytest.mark.parametrize(
    "corrupt",
    [_swap_words, _drop_word, _bad_letter, _bool_letter, _float_letter, _zero_words,
     _first_word, _duplicate_word, _dependent_words, _empty, _other_mu, _version_1, _rho_key,
     _long_word, _orphan_word, None],
    ids=lambda f: "truncated" if f is None else f.__name__.lstrip("_"),
)
def test_corrupted_cache_entry_is_refused(tmp_path, L3, octet, corrupt):
    path = save_rep(octet, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if corrupt is None:
        text = text[: len(text) // 2]
    else:
        obj = json.loads(text)
        corrupt(obj)
        text = json.dumps(obj, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert load_rep(L3, (1, 1), str(tmp_path)) is None


def test_gl_transport_conjugation(octet, decuplet, L3):
    # transporting by an invertible rational matrix realizes conjugation, on
    # a tensor product of exterior powers and on a symmetric power
    s = QMatrix([[1, 2, 0], [0, 1, 0], [rat(1, 3), 0, 1]])
    s_inv = inverse(s)
    for rep in (octet, decuplet):
        t = rep.gl_transport(s)
        t_inv = inverse(t)
        for i, b in enumerate(L3.basis):
            conj = s * b * s_inv
            assert t * rep.rho[i] * t_inv == rep.op(L3.coords_of(conj))


def test_transports_share_one_elimination_of_the_tensor_basis(monkeypatch, L3):
    calls = []
    solver = reps.column_solver
    monkeypatch.setattr(reps, "column_solver", lambda m: calls.append(m) or solver(m))
    rep = build_irrep(L3, (2, 1))
    principal_transport(rep)
    h_plus_e_transport(rep)
    reversal_transport(rep)
    assert calls == [rep.tensor_basis]
