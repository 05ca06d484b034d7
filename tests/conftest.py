import numpy as np
import pytest

from fockbound import fock


@pytest.fixture
def corrupt_block(monkeypatch):
    """corrupt_block(name, target, factor=-1) makes fock.ladder_matrix multiply
    the largest entry of every block of `name` built from sector `target` by
    `factor`; it returns the list of flips made, so a test can tell that the
    patch bit.  A sign flip applied to the blocks of both Q(X) and Q(X*) keeps
    them adjoint to each other; a phase such as 1j does not."""
    build = fock.ladder_matrix

    def corrupt(name, target, factor=-1):
        flips = []

        def corrupted(space, kind, coeffs, sector=None):
            out = build(space, kind, coeffs, sector=sector)
            if kind == name and sector == target:
                out[np.unravel_index(np.abs(out).argmax(), out.shape)] *= factor
                flips.append(target)
            return out

        monkeypatch.setattr(fock, "ladder_matrix", corrupted)
        return flips

    return corrupt
