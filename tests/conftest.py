import numpy as np
import pytest

from fockbound import cli, fock, quadratics


@pytest.fixture
def corrupt_block(monkeypatch):
    """corrupt_block(name, target, factor=-1) makes fock.sector_blocks multiply
    the largest entry of the block of `name` from sector `target` by `factor`
    in every dict it returns; it returns the list of flips made, so a test can
    tell that the patch bit.  `quadratics` and `cli` bind sector_blocks by name,
    so their bindings are patched too.  A sign flip applied to the blocks of
    both Q(X) and Q(X*) keeps them adjoint to each other; a phase such as 1j
    does not."""
    build = fock.sector_blocks

    def corrupt(name, target, factor=-1):
        flips = []

        def corrupted(space, kind, coeffs):
            blocks = build(space, kind, coeffs)
            if kind == name:
                out = blocks[target]
                out[np.unravel_index(np.abs(out).argmax(), out.shape)] *= factor
                flips.append(target)
            return blocks

        for module in (fock, quadratics, cli):
            monkeypatch.setattr(module, "sector_blocks", corrupted)
        return flips

    return corrupt
