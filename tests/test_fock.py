
import itertools
import math
from collections import Counter

import numpy as np
import pytest

import fockbound as fb
import jw_oracle as jw
from fockbound.rng import complex_vector, skew_matrix, trial_rng


def test_make_space_smallest():
    sp = fb.make_space(1)
    assert sp.dim == 2
    assert list(sp.masks) == [0, 1]


def test_sector_sizes_m3():
    sp = fb.make_space(3)
    counts = [int(np.sum(sp.occupations == n)) for n in range(4)]
    assert counts == [1, 3, 3, 1]


def test_sector_size_m10_half_filling():
    # C(10, 5) = 252
    sp = fb.make_space(10)
    assert sp.dim == 1024
    assert int(np.sum(sp.occupations == 5)) == 252


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_make_space_guard(bad):
    # invalid input, not a resource limit
    with pytest.raises(ValueError, match="integer >= 1"):
        fb.make_space(bad)


def test_make_space_resource_guard():
    with pytest.raises(fb.ResourceError):
        fb.make_space(15)


def test_basis_is_bijection():
    sp = fb.make_space(6)
    assert sorted(sp.masks) == list(range(64))
    assert np.array_equal(sp.masks[sp.index_of[sp.masks]], sp.masks)


def test_canonical_order_m2():
    sp = fb.make_space(2)
    assert list(sp.masks) == [0b00, 0b01, 0b10, 0b11]


def test_creation_m1():
    sp = fb.make_space(1)
    c = fb.op_adag(sp, np.eye(1)[0])
    assert c.grading_shift == 1
    # vacuum -> occupied, occupied -> 0
    expected = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(c.matrix, expected)


def test_jordan_wigner_signs_m2():
    # hand enumeration: a+_2 acting on {1} picks up the sign of the occupied
    # mode below it
    sp = fb.make_space(2)
    e = np.eye(2)
    c2 = fb.op_adag(sp, e[1]).matrix
    assert c2[sp.index_of[0b11], sp.index_of[0b01]] == -1
    assert c2[sp.index_of[0b10], sp.index_of[0b00]] == 1
    c1 = fb.op_adag(sp, e[0]).matrix
    assert c1[sp.index_of[0b01], sp.index_of[0b00]] == 1
    assert c1[sp.index_of[0b11], sp.index_of[0b10]] == 1


def test_mode_index_out_of_range():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        jw.creation(sp, 0)
    with pytest.raises(ValueError):
        jw.annihilation(sp, 4)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_car_on_modes(m):
    sp = fb.make_space(m)
    eye, e = np.eye(sp.dim), np.eye(m)
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            aj, ak = fb.op_a(sp, e[j - 1]), fb.op_a(sp, e[k - 1])
            cj, ck = fb.op_adag(sp, e[j - 1]), fb.op_adag(sp, e[k - 1])
            assert np.abs(jw.anticommutator(aj, ak)).max() == 0
            assert np.abs(jw.anticommutator(cj, ck)).max() == 0
            mixed = jw.anticommutator(aj, ck)
            assert np.abs(mixed - (eye if j == k else 0 * eye)).max() == 0


def test_op_a_basis_vector_is_mode_operator():
    sp = fb.make_space(3)
    e1 = np.array([1, 0, 0], dtype=complex)
    assert np.array_equal(fb.op_a(sp, e1).matrix, jw.annihilation(sp, 1).matrix)


def test_op_a_norm_identity_random():
    sp = fb.make_space(5)
    for t in range(10):
        f = complex_vector(trial_rng(123, t), 5)
        norm = np.linalg.norm(fb.op_a(sp, f).matrix, 2)
        assert norm == pytest.approx(np.linalg.norm(f), abs=1e-10)


def test_bilinear_pairing_convention():
    # f = (1, i): pairing with fbar gives |f|^2 = 2, pairing with f gives
    # sum f_j^2 = 0
    sp = fb.make_space(2)
    f = np.array([1.0, 1.0j])
    with_fbar = jw.anticommutator(fb.op_a(sp, f), fb.op_adag(sp, f.conj()))
    assert np.abs(with_fbar - 2.0 * np.eye(4)).max() == 0
    with_f = jw.anticommutator(fb.op_a(sp, f), fb.op_adag(sp, f))
    assert np.abs(with_f).max() == 0


def test_op_a_dimension_mismatch():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        fb.op_a(sp, [1.0, 2.0])


def test_slater_vacuum():
    sp = fb.make_space(3)
    assert np.array_equal(jw.slater_state(sp, []).amplitudes, np.eye(sp.dim)[0])


def test_slater_sign_is_plus_one():
    # filling modes in decreasing order crosses no occupied mode, so the
    # canonical basis coefficient is +1 for every subset
    sp = fb.make_space(4)
    for modes in ([1, 2], [1, 3], [2, 4], [1, 2, 3], [1, 2, 3, 4]):
        v = jw.slater_state(sp, [])
        for j in sorted(modes, reverse=True):
            v = fb.op_adag(sp, np.eye(4)[j - 1]) @ v
        mask = sum(1 << (j - 1) for j in modes)
        direct = jw.slater_state(sp, modes)
        assert np.array_equal(v.amplitudes, direct.amplitudes)
        assert direct.amplitudes[sp.index_of[mask]] == 1


def test_slater_increasing_order_sign():
    # the opposite application order a+_2 a+_1 picks up the JW sign
    sp = fb.make_space(2)
    e = np.eye(2)
    v = fb.op_adag(sp, e[1]) @ (fb.op_adag(sp, e[0]) @ jw.slater_state(sp, []))
    assert v.amplitudes[sp.index_of[0b11]] == -1


def test_slater_unit_norm():
    sp = fb.make_space(4)
    for mask in range(16):
        modes = [j + 1 for j in range(4) if mask >> j & 1]
        assert np.linalg.norm(jw.slater_state(sp, modes).amplitudes) == 1.0


def test_slater_duplicates_rejected():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        jw.slater_state(sp, [1, 1])


def test_number_operator_m2():
    sp = fb.make_space(2)
    assert np.array_equal(np.diag(jw.number_operator(sp).matrix),
                          np.array([0, 1, 1, 2], dtype=complex))


def test_number_operator_eigenstate():
    sp = fb.make_space(4)
    phi = jw.slater_state(sp, [1, 3])
    assert np.array_equal((jw.number_operator(sp) @ phi).amplitudes,
                          2.0 * phi.amplitudes)


def test_number_operator_is_mode_sum():
    sp = fb.make_space(4)
    total = sum((fb.op_adag(sp, e) @ fb.op_a(sp, e)).matrix for e in np.eye(4))
    assert np.abs(total - jw.number_operator(sp).matrix).max() == 0


def test_projection_spectrum_for_unit_f():
    # a+(f) a(fbar) is an orthogonal projection when |f| = 1
    sp = fb.make_space(4)
    f = complex_vector(trial_rng(5, 0), 4)
    f /= np.linalg.norm(f)
    proj = (fb.op_adag(sp, f) @ fb.op_a(sp, f.conj())).matrix
    eigs = np.linalg.eigvalsh(proj)
    assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) < 1e-12)


def test_verify_car_random_suite():
    residuals = fb.verify_car(fb.make_space(6), trials=50, seed=2024)
    assert jw.car_failures(residuals) == []
    assert residuals["anticommutator_mixed"] < 1e-12 * 50


def test_verify_car_deterministic():
    sp = fb.make_space(4)
    a = fb.verify_car(sp, trials=10, seed=9)
    b = fb.verify_car(sp, trials=10, seed=9)
    assert a == b


@pytest.mark.parametrize("trials", [0, -2])
def test_verify_car_rejects_vacuous_runs(trials):
    with pytest.raises(ValueError):
        fb.verify_car(fb.make_space(3), trials=trials)


@pytest.mark.parametrize("edge", ["lowest", "highest"])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_verify_car_sees_one_corrupt_creation_block(m, edge, corrupt_block):
    # creation maps sector n to n + 1, so its lowest block leaves the vacuum
    # and its highest one reaches the filled sector n = m
    flips = corrupt_block("creation", 0 if edge == "lowest" else m - 1)
    residuals = fb.verify_car(fb.make_space(m), trials=2, seed=5)
    assert flips
    assert jw.car_failures(residuals)
    # every residual with a creation factor sees it; {a+, a+} needs two modes
    touched = ["anticommutator_mixed", "adjoint_relation", "projection_identity"]
    touched += ["anticommutator_adad"] if m > 1 else []
    for key in touched:
        assert residuals[key] > 1e-3, key


def test_space_arrays_immutable():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        sp.masks[0] = 5


def sector_dim(m, n):
    return math.comb(m, n) if 0 <= n <= m else 0


def ladder_coeffs(rng, m, name, kind):
    shape = (m,) * len(fb.fock.LADDERS[name][0])
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "zero":
        return 0 * coeffs
    if kind == "one nonzero row":
        keep = np.zeros(m, dtype=bool)
        keep[rng.integers(m)] = True
        return np.where(keep.reshape((m,) + (1,) * (len(shape) - 1)), coeffs, 0)
    if kind == "diagonal":  # as --diag builds it; every other mode for one index
        return np.diag(np.diag(coeffs)) if len(shape) == 2 else np.where(
            np.arange(m) % 2 == 0, coeffs, 0)
    flat = coeffs.reshape(-1)
    if kind == "signed zeros":  # -0.0 counts as zero, a -0.0 part of a nonzero does not
        flat[::3] = complex(-0.0, -0.0)
        flat.real[1::3] = -0.0
    if kind == "nan":
        flat[::2] = complex(math.nan, 0.0)
        flat[1::4] = complex(0.0, math.nan)
    if kind == "inf":  # times a sign, inf + 0j reads inf + nan j, as complex products do
        flat[::2] = complex(math.inf, 0.0)
        flat[1::4] = complex(1.0, -math.inf)
    return coeffs


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


KINDS = ["random", "zero", "one nonzero row", "diagonal", "signed zeros", "nan", "inf"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
@np.errstate(invalid="ignore")  # inf * 0 in the products of the inf kind
def test_sector_blocks_equal_per_sector_builds_bit_for_bit(name, kind):
    # ladder_matrix on every key of the layout against the oracle's uncached
    # walk, compared as bits: np.array_equal on floats takes -0.0 for 0.0 and
    # fails on NaN
    shift = fb.fock.LADDERS[name][1]
    for m in range(1, 9):
        sp = fb.make_space(m)
        coeffs = ladder_coeffs(trial_rng(91, m), m, name, kind)
        want = jw.sector_blocks(sp, name, coeffs)
        keys = list(range(-abs(shift), m + abs(shift) + 1))
        assert list(fb.fock._ladder_pattern(m, name)) == list(want) == keys
        for n, block in want.items():
            built = fb.fock.ladder_matrix(sp, name, coeffs, n)
            assert built.shape == block.shape == (sector_dim(m, n + shift), sector_dim(m, n))
            assert np.array_equal(bits(built), bits(block)), (m, n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
@np.errstate(invalid="ignore")  # inf * 0 in the products of the inf kind
def test_cached_entries_equal_an_uncached_walk_bit_for_bit(name, kind):
    # the walk drops the terms whose coefficient is zero and the gather keeps
    # them, so the blocks must agree bit for bit (no -0.0 where the walk has
    # +0.0), and the entry lists wherever no coefficient is zero
    for m in range(1, 7):
        sp = fb.make_space(m)
        coeffs = ladder_coeffs(trial_rng(93, m), m, name, kind)
        for sector in [None, *range(-3, m + 4)]:
            (want_rows, want_cols), want, want_shape = jw.walked_entries(sp, name, coeffs, sector)
            block = np.zeros(want_shape, dtype=complex)
            np.add.at(block, (want_rows, want_cols), want)
            if sector is None:  # the whole space is its sector blocks put in place
                built = fb.fock.ladder_operator(sp, name, coeffs).matrix
                assert np.array_equal(bits(built), bits(block)), m
                continue
            built = fb.fock.ladder_matrix(sp, name, coeffs, sector=sector)
            assert built.shape == want_shape, (m, sector)
            assert np.array_equal(bits(built), bits(block)), (m, sector)
            if np.all(coeffs != 0):
                positions, values, shape = fb.fock._gather(sp, name, coeffs, sector)
                rows, cols = np.divmod(positions, shape[1])
                assert shape == want_shape, (m, sector)
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
                assert np.array_equal(bits(values), bits(want)), (m, sector)


def test_cached_pattern_is_read_only_and_never_handed_out():
    # every array of every sector's layout is read-only, so the positions a
    # gather returns cannot be written through; values and blocks are fresh
    sp, X = fb.make_space(4), complex_vector(trial_rng(3, 0), 16).reshape(4, 4)
    layout = fb.fock._ladder_pattern(4, "dGamma")
    kept = {n: [a.copy() for a in arrays[:3]] for n, arrays in layout.items()}
    for positions, terms, signs, _ in layout.values():
        assert not any(a.flags.writeable for a in (positions, terms, signs))
        # bytes per entry: int64 position, int16 term, int8 sign
        assert positions.itemsize + terms.itemsize + signs.itemsize == 11
    positions, values, _ = fb.fock._gather(sp, "dGamma", X, sector=2)
    with pytest.raises(ValueError, match="read-only"):
        positions[0] = 0
    first = values.copy()
    block = fb.fock.ladder_matrix(sp, "dGamma", X, sector=2)
    first_block = block.copy()
    blocks = [fb.fock.ladder_matrix(sp, "dGamma", X, sector=n) for n in layout]
    arrays = [a for entry in layout.values() for a in entry[:3]]
    for a in (values, block, *blocks):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in arrays)
        a[...] = 0
    assert fb.fock._ladder_pattern(4, "dGamma") is layout
    assert all(np.array_equal(a, b) for n in layout for a, b in zip(layout[n], kept[n]))
    assert np.array_equal(fb.fock._gather(sp, "dGamma", X, sector=2)[1], first)
    assert np.array_equal(fb.fock.ladder_matrix(sp, "dGamma", X, sector=2), first_block)


@pytest.mark.parametrize("sector", [2.5, 2.0, "2", math.nan])
def test_non_integral_sector_rejected(sector):
    # searchsorted would read 2.5 as sector 3
    with pytest.raises(ValueError, match="sector must be an integer"):
        fb.fock.ladder_matrix(fb.make_space(4), "dGamma", np.ones((4, 4)), sector=sector)


@pytest.mark.parametrize("build", [fb.fock.ladder_matrix])
@pytest.mark.parametrize("sector", [None, 2.5])
def test_sector_is_a_required_integer(build, sector):
    # there is no whole-space walk; a whole-space operator is ladder_operator
    with pytest.raises(ValueError, match="sector must be an integer"):
        build(fb.make_space(4), "dGamma", np.ones((4, 4)), sector)
    with pytest.raises(TypeError):
        build(fb.make_space(4), "dGamma", np.ones((4, 4)))


@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
def test_ladder_entries_rejects_a_walked_row_outside_its_block(name, misplace_row):
    # the layout build checks the walk itself, so a misplaced row raises
    # whatever its coefficient and whichever sector's entries are gathered,
    # and the layout is not cached
    sp = fb.make_space(4)
    coeffs = ladder_coeffs(trial_rng(6, 4), 4, name, "random")
    builds = [lambda: fb.fock._gather(sp, name, coeffs, 2),
              lambda: fb.fock._gather(sp, name, 0 * coeffs, 2),
              lambda: fb.fock.ladder_matrix(sp, name, coeffs, 9),
              lambda: fb.fock.ladder_operator(sp, name, coeffs)]
    for past_end in (False, True):
        for build in builds:
            moved = misplace_row(past_end)
            with pytest.raises(fb.fock.GradingError, match="sector shift"):
                build()
            assert moved == [name]
            assert fb.fock._ladder_pattern.cache_info().currsize == 0


@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
def test_numpy_integer_and_out_of_range_sectors(name):
    sp, shift = fb.make_space(4), fb.fock.LADDERS[name][1]
    coeffs = ladder_coeffs(trial_rng(5, 4), 4, name, "random")
    for n in range(-3, 8):
        block = fb.fock.ladder_matrix(sp, name, coeffs, sector=np.int64(n))
        assert np.array_equal(block, fb.fock.ladder_matrix(sp, name, coeffs, sector=n))
        assert block.shape == (sector_dim(4, n + shift), sector_dim(4, n))
        if not 0 <= n <= 4:
            assert block.size == 0


def test_sector_blocks_reject_an_entry_outside_its_sector(misplace_row):
    # np.add.at would wrap a row of -1 into the last row of the block; the
    # identity checks build every block with ladder_matrix, which raises
    sp, rng = fb.make_space(4), trial_rng(4, 0)
    A, C = skew_matrix(rng, 4), skew_matrix(rng, 4)
    for past_end in (False, True):
        for kind, check in (("creation", lambda: fb.verify_car(sp, trials=1)),
                            ("dGamma", lambda: fb.check_commutator(sp, A, C))):
            moved = misplace_row(past_end, kind)
            with pytest.raises(fb.fock.GradingError, match="sector shift"):
                check()
            assert moved == [kind]


def test_each_sector_blocks_call_builds_once(block_builds):
    # one gather and one scatter per block, and each identity check builds
    # each (operator, sector key) once per trial: the links of a and a+ are
    # k = 0..m+1, of Delta and DeltaPlus n = -2..m
    def builds(run):
        block_builds.gathers, block_builds.operators, block_builds.scatters = [], [], 0
        run()
        assert block_builds.scatters == len(block_builds.gathers)
        assert max(Counter(zip(block_builds.operators, block_builds.gathers)).values()) == 1
        return Counter(block_builds.gathers)

    sp, rng = fb.make_space(5), trial_rng(4, 0)
    A, C = skew_matrix(rng, 5), skew_matrix(rng, 5)
    # f, g and fbar in each of 3 trials
    assert builds(lambda: fb.verify_car(sp, trials=3, seed=2)) == {
        **{("annihilation", k): 9 for k in range(7)},
        **{("creation", k - 1): 9 for k in range(7)}}
    assert builds(lambda: fb.check_commutator(sp, A, C)) == {
        **{("Delta", n + 2): 1 for n in range(-2, 6)},
        **{("DeltaPlus", n): 1 for n in range(-2, 6)},
        **{("dGamma", n): 1 for n in range(-2, 6)}}


def scaled_draws(monkeypatch, scale):
    """Makes verify_car draw f and g times `scale`."""
    monkeypatch.setattr(fb.fock, "complex_vector", lambda rng, n: scale * complex_vector(rng, n))


def test_verify_car_passes_at_1e150_and_sees_a_corrupt_block_there(monkeypatch, corrupt_block):
    # f and g are brought to unit scale before any block is built, so no
    # product overflows at 1e150 and every row stays at rounding size; a
    # corrupt creation block still fails its rows there.  Warnings are errors,
    # so nothing overflows on the way.
    scaled_draws(monkeypatch, 1e150)
    with np.errstate(all="raise"):
        residuals = fb.verify_car(fb.make_space(4), trials=2, seed=0)
    assert jw.car_failures(residuals) == []
    assert max(residuals.values()) < 1e-14
    flips = corrupt_block("creation", 1)
    with np.errstate(all="raise"):
        residuals = fb.verify_car(fb.make_space(4), trials=2, seed=0)
    assert flips
    assert jw.car_failures(residuals)


# the rows a corrupt creation block fails at m = 4, seed 5
CREATION_ROWS = ["anticommutator_adad", "anticommutator_mixed", "adjoint_relation",
                 "projection_identity"]


@pytest.mark.parametrize("scale", [1.0, 1e-150])
def test_verify_car_corrupt_creation_block_fails_the_same_rows_at_every_scale(
        scale, monkeypatch, corrupt_block):
    # no residual is floored by an absolute term or lost to underflow
    scaled_draws(monkeypatch, scale)
    flips = corrupt_block("creation", 1)
    residuals = fb.verify_car(fb.make_space(4), trials=2, seed=5)
    assert flips
    assert sorted(jw.car_failures(residuals)) == sorted(CREATION_ROWS)
    for key in CREATION_ROWS:
        assert residuals[key] > 1e-3, key


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("target", [1, 2, 4])
def test_verify_car_norm_row_sees_one_entry_times_1_01(target, scale, monkeypatch,
                                                       corrupt_block):
    # one annihilation entry off by 1% moves a singular value of its block
    # away from |f|, so b b* b - |f|^2 b is no longer 0; block 4 is the
    # filled state's, which also gives the lower end c of the certificate
    scaled_draws(monkeypatch, scale)
    flips = corrupt_block("annihilation", target, factor=1.01)
    residuals = fb.verify_car(fb.make_space(4), trials=2, seed=5)
    assert flips
    assert "norm_identity" in jw.car_failures(residuals)
    assert residuals["norm_identity"] > 1e-4


@pytest.mark.parametrize("m", [1, 3, 5])
def test_verify_car_rows_are_0_for_f_and_g_0(m, monkeypatch):
    # every residual of zero inputs is exactly 0, and 0/0 reads as 0
    scaled_draws(monkeypatch, 0.0)
    with np.errstate(all="raise"):
        residuals = fb.verify_car(fb.make_space(m), trials=2, seed=1)
    assert residuals == dict.fromkeys(fb.fock.CAR_TOL, 0.0)


def test_verify_car_rows_are_bit_identical_under_power_of_two_scalings(monkeypatch):
    sp = fb.make_space(3)
    plain = fb.verify_car(sp, trials=2, seed=29)
    assert all(value > 0 for key, value in plain.items() if key != "adjoint_relation")
    for k in range(-300, 301):
        scaled_draws(monkeypatch, 2.0**k)
        assert fb.verify_car(sp, trials=2, seed=29) == plain, k


def test_verify_car_runs_no_eigensolve(monkeypatch):
    # np.linalg.norm(x, 2) reaches the SVD through numpy.linalg._linalg, so
    # both bindings of each solver are replaced
    def refuse(*args, **kwargs):
        raise AssertionError("verify_car called an eigensolver")

    for name in ("svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np.linalg._linalg, name, refuse)
    with pytest.raises(AssertionError, match="eigensolver"):
        np.linalg.norm(np.eye(2), 2)
    residuals = fb.verify_car(fb.make_space(5), trials=2, seed=67)
    assert jw.car_failures(residuals) == []


def test_verify_car_fails_on_a_nan_in_one_block(corrupt_block):
    flips = corrupt_block("creation", 1, factor=math.nan)
    with np.errstate(all="ignore"):
        residuals = fb.verify_car(fb.make_space(3), trials=2, seed=5)
    assert flips
    assert jw.car_failures(residuals)
    assert math.isnan(residuals["anticommutator_mixed"])


def test_verify_car_norm_identity_is_nan_on_a_non_finite_block(corrupt_block):
    # every annihilation block of m = 3, the filled state's (3) included, whose
    # norm is the lower end c of the certificate
    for target, factor in itertools.product((1, 2, 3), (math.nan, math.inf)):
        flips = corrupt_block("annihilation", target, factor=factor)
        with np.errstate(all="ignore"):
            residuals = fb.verify_car(fb.make_space(3), trials=2, seed=5)
        assert flips
        assert "norm_identity" in jw.car_failures(residuals)
        assert math.isnan(residuals["norm_identity"]), (target, factor)
