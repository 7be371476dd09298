"""A sweep's controls evolved side by side in one ``duhamel_exact`` call
give the same bits as each control evolved alone on its own grid, for 1, 2
or 8 controls in the call, over many small mode blocks."""

import numpy as np
import pytest

from wavemoment import _kernels
from wavemoment.coupling import CouplingSystem, decompose
from wavemoment.moments import (TargetSpec, assemble_gram, moments_from_target,
                                synthesize, target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies, build_raw
from wavemoment.waveform import duhamel_exact

# entries per block in these tests: every evolution below then walks many
# mode blocks
BLOCK = 256
# (A, b, K, T, basis): "real-edd" has a real spectrum, "raw-growing" growing
# modes, pinned moments and the long-double evolution (lambda_1 = -2.24 <
# -1), "complex-pair" complex frequencies
SYSTEMS = {
    "real-edd": ([[0.5, 0.0, 0.0], [1.0, -0.3, 0.0], [0.0, 1.0, 1.7]],
                 [1.0, 0.0, 0.0], 24, 6 * np.pi + 1.0, "edd"),
    "raw-growing": ([[-2.239541, 0.0, 0.0], [1.0, 0.562783, 0.0],
                     [0.0, 1.0, 0.997996]], [1.0, 0.0, 0.0], 24,
                    19.563415613241176, "raw"),
    "complex-pair": ([[0.2, 0.7], [-0.7, 0.2]], [1.0, 0.0], 32,
                     4 * np.pi + 1.0, "edd"),
}


def sweep_states(a, b, k_max, duration, basis, count):
    """The one-call states of the ``count`` controls that a K sweep over
    k_max, (count - 1)/count of it, ..., 1/count of it synthesizes from one
    assembly, and each control's state alone on its own grid."""
    a, b = np.array(a), np.array(b)
    spec = decompose(CouplingSystem(a, b))
    grid = build_frequencies(spec, k_max)
    family = build_edd(grid) if basis == "edd" else build_raw(grid)
    ms = assemble_gram(family, duration)
    n = len(b)
    target = TargetSpec({1: np.linspace(-0.5, 0.5, n)},
                        {2: np.linspace(0.8, -0.3, n)})
    points = []
    for k in (k_max * (count - i) // count for i in range(count)):
        small = build_frequencies(spec, k)
        modal = target_to_modal(target, spec, small)
        points.append((synthesize(ms.restrict(k), moments_from_target(
            modal, spec, small, duration)), k, small))
    one_call = duhamel_exact(spec, grid, [(c, k) for c, k, _ in points],
                             duration)
    alone = [duhamel_exact(spec, small, c, duration)
             for c, _, small in points]
    return one_call, alone, points


@pytest.mark.parametrize("count", [1, 2, 8])
@pytest.mark.parametrize("name", SYSTEMS)
def test_one_call_evolution_matches_each_control_alone(name, count,
                                                       monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", BLOCK)
    one_call, alone, points = sweep_states(*SYSTEMS[name], count)
    assert len(one_call) == count
    if name == "raw-growing":
        # long double, and the pinned extras repeat some frequencies
        terms = points[0][0].frequencies
        assert np.unique(terms).size < terms.size
    for got, want, (_, k, small) in zip(one_call, alone, points):
        assert got.a.shape == (k, small.omega.shape[1])
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.adot, want.adot)
