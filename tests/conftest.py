import types

import numpy as np
import pytest

from fockbound import bounds, cli, fock, quadratics


@pytest.fixture
def corrupt_block(monkeypatch):
    """corrupt_block(name, target, factor=-1) makes fock.ladder_matrix multiply
    the largest entry of the block of `name` from sector `target` by `factor`
    in every block of that key it returns; it returns the list of flips made,
    so a test can tell that the patch bit.  `quadratics` and `cli` bind
    ladder_matrix by name, so their bindings are patched too.  A sign flip
    applied to the blocks of both Q(X) and Q(X*) keeps them adjoint to each
    other; a phase such as 1j does not."""
    build = fock.ladder_matrix

    def corrupt(name, target, factor=-1):
        flips = []

        def corrupted(space, kind, coeffs, sector):
            out = build(space, kind, coeffs, sector)
            if kind == name and sector == target:
                out[np.unravel_index(np.abs(out).argmax(), out.shape)] *= factor
                flips.append(target)
            return out

        for module in (fock, quadratics, cli):
            monkeypatch.setattr(module, "ladder_matrix", corrupted)
        return flips

    return corrupt


@pytest.fixture
def misplace_row(monkeypatch):
    """misplace_row(past_end, kind=None) makes the first nonempty sector walk of
    `kind` (of any operator if None) that a layout build reads from fock._walk
    come with its first row moved to -1, or to the block's row count if
    `past_end`: a target state outside the block, which is where a wrong
    particle number lands.  The layout cache is cleared first, so the next
    build of every operator walks again, and after the test, so no layout
    built from a moved row outlives it; later walks are left as they are.
    It returns the list of kinds moved, so a test can tell that the patch bit."""
    walk = fock._walk

    def misplace(past_end, kind=None):
        moved = []

        def misplaced(m, name, sector):
            rows, *rest, shape = walk(m, name, sector)
            if kind in (None, name) and rows.size and not moved:
                rows[0] = shape[0] if past_end else -1
                moved.append(name)
            return rows, *rest, shape

        fock._ladder_pattern.cache_clear()
        monkeypatch.setattr(fock, "_walk", misplaced)
        return moved

    yield misplace
    fock._ladder_pattern.cache_clear()


@pytest.fixture
def widest_bracket(monkeypatch):
    """widest_bracket() is the largest certified width 2 c_n in any extremes
    table that bounds._gram_extremes has returned during the test, read after
    the verdicts have solved sectors again in place.  A slack is read from
    the upper end top + width, so it lies at most this far below the exact one."""
    gram_extremes, seen = bounds._gram_extremes, []

    def recording(*args):
        seen.append(gram_extremes(*args))
        return seen[-1]

    monkeypatch.setattr(bounds, "_gram_extremes", recording)
    return lambda: max((float(extremes[:, 2].max()) for extremes in seen), default=0.0)


@pytest.fixture
def block_builds(monkeypatch):
    """Records every block build: `gathers` lists the (name, sector) of each
    fock._gather call, `operators` the (name, coefficient bytes) of the same
    call, and `scatters` counts fock's np.add.at calls."""
    gather, record = fock._gather, types.SimpleNamespace(gathers=[], operators=[], scatters=0)

    def gathering(space, name, coeffs, sector):
        record.gathers.append((name, sector))
        record.operators.append((name, np.asarray(coeffs, dtype=complex).tobytes()))
        return gather(space, name, coeffs, sector)

    def scatter(*args):
        record.scatters += 1
        return np.add.at(*args)

    class CountingNumpy:  # numpy, with np.add.at counted
        add = types.SimpleNamespace(at=scatter)

        def __getattr__(self, attr):
            return getattr(np, attr)

    monkeypatch.setattr(fock, "_gather", gathering)
    monkeypatch.setattr(fock, "np", CountingNumpy())
    return record
