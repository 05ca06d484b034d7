
import math

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


@pytest.mark.parametrize("bad", [0, -1, 15, 2.5, "3"])
def test_make_space_guard(bad):
    with pytest.raises(fb.ResourceError):
        fb.make_space(bad)


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
    assert np.array_equal(fb.slater_state(sp, []).amplitudes,
                          fb.vacuum(sp).amplitudes)


def test_slater_sign_is_plus_one():
    # filling modes in decreasing order crosses no occupied mode, so the
    # canonical basis coefficient is +1 for every subset
    sp = fb.make_space(4)
    for modes in ([1, 2], [1, 3], [2, 4], [1, 2, 3], [1, 2, 3, 4]):
        v = fb.vacuum(sp)
        for j in sorted(modes, reverse=True):
            v = fb.op_adag(sp, np.eye(4)[j - 1]) @ v
        mask = sum(1 << (j - 1) for j in modes)
        direct = fb.slater_state(sp, modes)
        assert np.array_equal(v.amplitudes, direct.amplitudes)
        assert direct.amplitudes[sp.index_of[mask]] == 1


def test_slater_increasing_order_sign():
    # the opposite application order a+_2 a+_1 picks up the JW sign
    sp = fb.make_space(2)
    e = np.eye(2)
    v = fb.op_adag(sp, e[1]) @ (fb.op_adag(sp, e[0]) @ fb.vacuum(sp))
    assert v.amplitudes[sp.index_of[0b11]] == -1


def test_slater_unit_norm():
    sp = fb.make_space(4)
    for mask in range(16):
        modes = [j + 1 for j in range(4) if mask >> j & 1]
        assert np.linalg.norm(fb.slater_state(sp, modes).amplitudes) == 1.0


def test_slater_duplicates_rejected():
    sp = fb.make_space(3)
    with pytest.raises(ValueError):
        fb.slater_state(sp, [1, 1])


def test_number_operator_m2():
    sp = fb.make_space(2)
    assert np.array_equal(np.diag(fb.number_operator(sp).matrix),
                          np.array([0, 1, 1, 2], dtype=complex))


def test_number_operator_eigenstate():
    sp = fb.make_space(4)
    phi = fb.slater_state(sp, [1, 3])
    assert np.array_equal((fb.number_operator(sp) @ phi).amplitudes,
                          2.0 * phi.amplitudes)


def test_number_operator_is_mode_sum():
    sp = fb.make_space(4)
    total = sum((fb.op_adag(sp, e) @ fb.op_a(sp, e)).matrix for e in np.eye(4))
    assert np.abs(total - fb.number_operator(sp).matrix).max() == 0


def test_projection_spectrum_for_unit_f():
    # a+(f) a(fbar) is an orthogonal projection when |f| = 1
    sp = fb.make_space(4)
    f = complex_vector(trial_rng(5, 0), 4)
    f /= np.linalg.norm(f)
    proj = (fb.op_adag(sp, f) @ fb.op_a(sp, f.conj())).matrix
    eigs = np.linalg.eigvalsh(proj)
    assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) < 1e-12)


def test_verify_car_random_suite():
    report = fb.verify_car(fb.make_space(6), trials=50, seed=2024)
    assert report.passed
    assert report.residuals["anticommutator_mixed"] < 1e-12 * 50


def test_verify_car_deterministic():
    sp = fb.make_space(4)
    a = fb.verify_car(sp, trials=10, seed=9)
    b = fb.verify_car(sp, trials=10, seed=9)
    assert a.residuals == b.residuals


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
    report = fb.verify_car(fb.make_space(m), trials=2, seed=5)
    assert flips
    assert not report.passed
    # every residual with a creation factor sees it; {a+, a+} needs two modes
    touched = ["anticommutator_mixed", "adjoint_relation", "projection_identity"]
    touched += ["anticommutator_adad"] if m > 1 else []
    for key in touched:
        assert report.residuals[key] > 1e-3, key


def test_fock_vector_inner_antilinear_first():
    sp = fb.make_space(1)
    u = fb.FockVector(sp, np.array([1j, 0.0]))
    v = fb.FockVector(sp, np.array([1.0, 0.0]))
    assert np.vdot(u.amplitudes, v.amplitudes) == -1j


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
    return coeffs


@pytest.mark.parametrize("kind", ["random", "zero", "one nonzero row"])
@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
def test_sector_blocks_equal_per_sector_builds_bit_for_bit(name, kind):
    shift = fb.fock.LADDERS[name][1]
    for m in range(1, 9):
        sp = fb.make_space(m)
        coeffs = ladder_coeffs(trial_rng(91, m), m, name, kind)
        blocks = fb.fock.sector_blocks(sp, name, coeffs)
        assert list(blocks) == list(range(-abs(shift), m + abs(shift) + 1))
        for n, block in blocks.items():
            assert block.shape == (sector_dim(m, n + shift), sector_dim(m, n))
            built = fb.fock.ladder_matrix(sp, name, coeffs, sector=n)
            assert np.array_equal(block.view(float), built.view(float)), (m, n)


def walked_entries(space, name, coeffs, sector=None):
    """The bitmask walk over the nonzero coefficients alone, with no cache: the
    reference `ladder_entries` must equal entry for entry."""
    kinds, shift = fb.fock.LADDERS[name]
    coeffs = np.asarray(coeffs, dtype=complex)
    terms = np.nonzero(coeffs)
    if sector is None:
        cols, row0, nrows = space.masks, 0, space.dim
    else:
        c0, c1, row0, r1 = np.searchsorted(
            space.occupations, [sector, sector + 1, sector + shift, sector + shift + 1])
        cols, nrows = space.masks[c0:c1], r1 - row0
    masks = np.repeat(cols[None, :], terms[0].size, axis=0)
    alive = np.ones(masks.shape, dtype=bool)
    parity = np.zeros(masks.shape, dtype=np.int64)
    for kind, modes in zip(kinds[::-1], terms[::-1]):
        bit = (np.int64(1) << modes.astype(np.int64))[:, None]
        occupied = (masks & bit) != 0
        alive &= occupied if kind == "-" else ~occupied
        parity += np.bitwise_count(masks & (bit - 1))
        masks ^= bit
    term, col = np.nonzero(alive)
    return ((space.index_of[masks[term, col]] - row0, col),
            coeffs[terms][term] * (1 - 2 * (parity[term, col] & 1)), (nrows, cols.size))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("kind", ["random", "diagonal", "signed zeros", "nan"])
@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
def test_cached_entries_equal_an_uncached_walk_bit_for_bit(name, kind):
    for m in range(1, 7):
        sp = fb.make_space(m)
        coeffs = ladder_coeffs(trial_rng(93, m), m, name, kind)
        for sector in [None, *range(-3, m + 4)]:
            (want_rows, want_cols), want, want_shape = walked_entries(sp, name, coeffs, sector)
            block = np.zeros(want_shape, dtype=complex)
            np.add.at(block, (want_rows, want_cols), want)
            if sector is None:  # the whole space is its sector blocks put in place
                built = fb.fock.ladder_operator(sp, name, coeffs).matrix
                assert np.array_equal(bits(built), bits(block)), m
                continue
            (rows, cols), values, shape = fb.fock.ladder_entries(sp, name, coeffs, sector)
            assert shape == want_shape, (m, sector)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert np.array_equal(bits(values), bits(want)), (m, sector)
            built = fb.fock.ladder_matrix(sp, name, coeffs, sector=sector)
            assert np.array_equal(bits(built), bits(block)), (m, sector)


def test_cached_pattern_is_read_only_and_never_handed_out():
    sp, X = fb.make_space(4), complex_vector(trial_rng(3, 0), 16).reshape(4, 4)
    pattern = fb.fock._ladder_pattern(4, "dGamma", 2)
    arrays, kept = pattern[:4], [a.copy() for a in pattern[:4]]
    assert sum(a.itemsize for a in arrays) == 11  # bytes per entry
    assert not any(a.flags.writeable for a in arrays)
    (rows, cols), values, _ = fb.fock.ladder_entries(sp, "dGamma", X, sector=2)
    first = rows.copy(), cols.copy(), values.copy()
    for a in (rows, cols, values):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in arrays)
        a[:] = 0
    assert fb.fock._ladder_pattern(4, "dGamma", 2) is pattern
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))
    (rows, cols), values, _ = fb.fock.ladder_entries(sp, "dGamma", X, sector=2)
    assert all(np.array_equal(a, b) for a, b in zip((rows, cols, values), first))


@pytest.mark.parametrize("sector", [2.5, 2.0, "2", math.nan])
def test_non_integral_sector_rejected(sector):
    # searchsorted would read 2.5 as sector 3
    with pytest.raises(ValueError, match="sector must be an integer"):
        fb.fock.ladder_matrix(fb.make_space(4), "dGamma", np.ones((4, 4)), sector=sector)


@pytest.mark.parametrize("build", [fb.fock.ladder_entries, fb.fock.ladder_matrix])
@pytest.mark.parametrize("sector", [None, 2.5])
def test_sector_is_a_required_integer(build, sector):
    # there is no whole-space walk; a whole-space operator is ladder_operator
    with pytest.raises(ValueError, match="sector must be an integer"):
        build(fb.make_space(4), "dGamma", np.ones((4, 4)), sector)
    with pytest.raises(TypeError):
        build(fb.make_space(4), "dGamma", np.ones((4, 4)))


@pytest.mark.parametrize("name", sorted(fb.fock.LADDERS))
def test_ladder_entries_rejects_a_walked_row_outside_its_block(name, misplace_row):
    # the check reads the walk itself, so a misplaced row raises whatever its coefficient
    sp = fb.make_space(4)
    coeffs = ladder_coeffs(trial_rng(6, 4), 4, name, "random")
    for past_end in (False, True):
        moved = misplace_row(past_end)
        with pytest.raises(fb.fock.GradingError, match="sector shift"):
            fb.fock.ladder_entries(sp, name, coeffs, 2)
        assert moved == [name]


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
    # np.add.at would wrap a row of -1 into the last row of the block
    for past_end in (False, True):
        moved = misplace_row(past_end)
        with pytest.raises(fb.fock.GradingError, match="sector shift"):
            fb.fock.sector_blocks(fb.make_space(4), "dGamma", np.ones((4, 4)))
        assert moved == ["dGamma"]


def sector_keys(name, m):
    """(name, n) for every key of sector_blocks(space, name, coeffs) on m modes."""
    shift = abs(fb.fock.LADDERS[name][1])
    return [(name, n) for n in range(-shift, m + shift + 1)]


def test_each_sector_blocks_call_builds_once(monkeypatch):
    # one ladder_entries call per operator and key, in key order
    entries, calls = fb.fock.ladder_entries, []

    def counting(space, name, coeffs, sector=None):
        calls.append((name, sector))
        return entries(space, name, coeffs, sector)

    monkeypatch.setattr(fb.fock, "ladder_entries", counting)
    sp = fb.make_space(5)
    fb.fock.sector_blocks(sp, "Delta", np.zeros((5, 5)))
    assert calls == sector_keys("Delta", 5)
    calls.clear()
    fb.verify_car(sp, trials=3, seed=2)
    per_trial = 3 * sector_keys("annihilation", 5) + 3 * sector_keys("creation", 5)
    assert calls == 3 * per_trial
    calls.clear()
    rng = trial_rng(4, 0)
    fb.check_commutator(sp, skew_matrix(rng, 5), skew_matrix(rng, 5))
    assert calls == [key for name in ("Delta", "DeltaPlus", "dGamma")
                     for key in sector_keys(name, 5)]


def test_verify_car_fails_when_a_residual_overflows(monkeypatch):
    # |f|^2 proj overflows at this scale, so the projection identity is NaN,
    # which the builtin max would drop.  Warnings are silenced to see the
    # verdict a caller gets when numpy does not warn.
    monkeypatch.setattr(fb.fock, "complex_vector", lambda rng, n: 1e150 * complex_vector(rng, n))
    with np.errstate(all="ignore"):
        report = fb.verify_car(fb.make_space(4), trials=2, seed=0)
    assert not report.passed
    assert math.isnan(report.residuals["projection_identity"])


def test_verify_car_fails_on_a_nan_in_one_block(corrupt_block):
    flips = corrupt_block("creation", 1, factor=math.nan)
    with np.errstate(all="ignore"):
        report = fb.verify_car(fb.make_space(3), trials=2, seed=5)
    assert flips
    assert not report.passed
    assert math.isnan(report.residuals["anticommutator_mixed"])


def test_verify_car_norm_identity_is_nan_on_a_non_finite_block(corrupt_block):
    flips = corrupt_block("annihilation", 2, factor=math.nan)
    with np.errstate(all="ignore"):
        report = fb.verify_car(fb.make_space(3), trials=2, seed=5)
    assert flips
    assert not report.passed
    assert math.isnan(report.residuals["norm_identity"])
