import numpy as np
import pytest

from fockbound import fock


@pytest.fixture
def corrupt_block(monkeypatch):
    """corrupt_block(name, target) makes fock.ladder_matrix flip the sign of the
    largest entry of every block of `name` built from sector `target`; it
    returns the list of flips made, so a test can tell that the patch bit."""
    build = fock.ladder_matrix

    def corrupt(name, target):
        flips = []

        def corrupted(space, kind, coeffs, sector=None):
            out = build(space, kind, coeffs, sector=sector)
            if kind == name and sector == target:
                out[np.unravel_index(np.abs(out).argmax(), out.shape)] *= -1
                flips.append(target)
            return out

        monkeypatch.setattr(fock, "ladder_matrix", corrupted)
        return flips

    return corrupt
