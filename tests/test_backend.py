"""The compute path's samplers and Ulam rows, pinned bit for bit.

The golden strings were recorded from the sampler this module's batched
endpoint sampler replaced (a dense n_samples x K inverse-CDF gather). Each
character is one state in hexadecimal; trajectories start at state 3 and
run 40 steps, endpoint arrays hold 48 samples started at state 5 after
j = 0..6 steps, and the estimate is estimate_Lj_phi of the cell midpoints
at j = 6 as (mean, stderr) in float.hex.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erf

import ergodyn._backend as backend
from ergodyn import (
    NoisySystem,
    Observable,
    estimate_Lj_phi,
    kernel_from_rows,
    make_uniform_partition,
    sample_trajectory,
    ulam_discretize,
)
from ergodyn.errors import InvalidArgumentError
from ergodyn.kernel import NOISE_PARAMS

from conftest import random_kernel


def _hex_states(states):
    return "".join(f"{int(s):x}" for s in states)


GOLDEN = {
    (12, 0.5, 2718): {
        0: (
            '3310a12295b8869a75b4ab9b775619bb561a70312',
            (
                '555555555555555555555555555555555555555555555555',
                'bb6b6666b666b666b6b66bb6b666b66b6b66b66b6bbb666b',
                '88b8b951b919991b4b4b1895851ba15b1ab14bb8ba465118',
                '04844a6abb255b58a804515686981ab4a19ab8479b1162aa',
                'ab8a6bbba99b69b31136b261b9b82bb61ab768abaa19961b',
                '14771aa9baa8ba41aa1192b18a91348b57b5147bb1a9ab94',
                '28b71bb547b8a7891719a9a131b51b196046090b541578a8',
            ),
            ('0x1.1aaaaaaaaaaabp-1', '0x1.7078d28729dd7p-5'),
        ),
        1807: (
            '33127569948b8182756148331ab4bb87299565656',
            (
                '555555555555555555555555555555555555555555555555',
                'b66bbbbb6bb6b66b66bb6b666666b66b666b6666bbb66b66',
                '89b84b8914818b1b194ababbbb114bba111ab5b187899499',
                '2566641b283919449a01977784118b41a521a69477baa6a9',
                '761119aa981a9986a10195b5a811b9811692b55957b77914',
                '59019517aaa74a0979a98bb6b7155aba9953a6ba65802516',
                '6542a615bb7091495aba28a5702b6b8b5563b941b684369b',
            ),
            ('0x1.28e38e38e38e3p-1', '0x1.554ee0ab9489ep-5'),
        ),
        9223372036854775808: (
            '31a195699400612999a195b494941a1a75b9a7031',
            (
                '555555555555555555555555555555555555555555555555',
                '66b6bb66b66666666b666b6b6b6b6b66bb6b666bb666b666',
                'bb8bbb91ab519bbb969bb89856b49811b95491989b1581bb',
                '441978921862aa48999a83546176ab29796b59b4aa9bb18a',
                '915a78a7a299178195b74969b95b192a0a17b589174862ab',
                '5ab702b513a5a0314b5094544469153b3b004b8aa08252b9',
                '6b80a696231bb311866aa86ba9b54b1436a69b01167369a5',
            ),
            ('0x1.21c71c71c71c7p-1', '0x1.6008b466b499dp-5'),
        ),
        9223372036854788153: (
            '31a1129b6127b8819406126b888770a19a15ba195',
            (
                '555555555555555555555555555555555555555555555555',
                'b6b6bbbbb6bbbb666b66b6bb6bb66b66bbb6b6b6b6b6b6b6',
                'a991984999847a959a11a9a7b94b19198a8989816961899b',
                '1b499b89ab005babb7921b154b841aa93b1505b115113455',
                '19949479b70a697a455228268a86a17b1826ab49a62a10b6',
                '2aa9aab44767155186b97179b7111a78a361b4097b270a4b',
                '977a7b886797abb1816aa5b4701991b1b195a13a2825a11a',
            ),
            ('0x1.2aaaaaaaaaaabp-1', '0x1.6c2c0e62ca302p-5'),
        ),
        18446744073709551615: (
            '31956b4887a12270040a70a195bb98484069ab9a1',
            (
                '555555555555555555555555555555555555555555555555',
                'bb6666b6bbb6b66b66b6b6bb6b6bb66666bb66b66b6bbb66',
                '9ab19b4ba869bb5b9b4969a41854a1b11baabba198bb87b1',
                '51a949a87a1ab868a9949a7913b8199a28116672ab944049',
                '6179957b5b114198194a4b051192a59193129b07b6a18384',
                'b205565a640181b41987a40ba2a3bb54a1a74905917481b1',
                '42366b61b1aa32a95a757aa919117ab8b1b0b5ab51564292',
            ),
            ('0x1.2000000000000p-1', '0x1.6e26ee507dd07p-5'),
        ),
    },
    (16, 1.0, 31415): {
        0: (
            '3e70f253c3f6b88b88d4cc8e4d9549ef400b64375',
            (
                '555555555555555555555555555555555555555555555555',
                'ec4e0709f320c774f3e0afa2a476e22a3d73f02a8caf032c',
                '74d79744e906864d0f2e1a95550fe25e2bd22be7cc155424',
                '05652a5eff437d68e6117047c38a4fc0f4bef5277d2604fc',
                'ffae4bfedadb09841223a342dbea4ef32cf95cfc8c0a866c',
                '24790cdbf9b69a14dfb272b16bb1406b97fb44bdf2f6dea2',
                '58cc1df50baac7494c4b8eb243f70e2a11240c0f495577c5',
            ),
            ('0x1.eaaaaaaaaaaabp-2', '0x1.59bb04ca58340p-5'),
        ),
        1807: (
            '3b84b91a705f7193a625844c4ca0ef695fa566870',
            (
                '555555555555555555555555555555555555555555555555',
                'c60dffca3ce3e76e36ae7f633008f72c926c5732cca60c32',
                '57e72e4932727b4e372cddeefe000aea411ce5b043575099',
                '5346402f785a2a62aa03b644a0125e12d643c9956cfae3b9',
                'c90209feab7be773812398f5c604f97244e6e53d6cf77940',
                '69038406cbc90a0a8beb6dfac8265ddfb626e0ed56905403',
                '2155d027bc448157abdc46d64159ad9f569de624d1c5608f',
            ),
            ('0x1.eeaaaaaaaaaabp-2', '0x1.470b7f4225966p-5'),
        ),
        9223372036854775808: (
            '36e2c32a7000615fa8d3b4d2c0912e4da5c89565c',
            (
                '555555555555555555555555555555555555555555555555',
                '70f9af69e23878260e662d3e0c9f7f70fc6f372cc730f004',
                'de6cef71ee526cea638de6b953c38630f560b2956a5470db',
                '402647832755da157a7b74463434dd486a6f6be7aca9f36b',
                'b299b9dbf48d167084da5f6bd89c191d2b46e55a271754da',
                '5ea503c825d5e2431c42c0524198155c3d002de9f54370c9',
                '2f74fa834e4af542530f863fcaf25ea1b5e5bd0368672fc5',
            ),
            ('0x1.0600000000000p-1', '0x1.63f0742f7f8bep-5'),
        ),
        9223372036854788153: (
            '3bb334dd556ad7a1a005546e79d9b5f4bc29ac3b4',
            (
                '555555555555555555555555555555555555555555555555',
                'c3a0eecfe9efde657fa3e9fe2ee87c87def7c3a2e7f2e6f0',
                'bba2962cb6505c776d04cad4fb0f28266e984773475277cb',
                '3f1bae95be00a8ccf6753d160e5229f85f0503c302404024',
                '3c9270aab42e096c272357555cd5e2ae66327b0cb15e30b5',
                '4cceccd03b97028395fcc2caf5130fa7d491c2167d452f3f',
                'd55e7f845ab99ad2c658c9f0651b83e2d9a8a22a5807f33d',
            ),
            ('0x1.0a00000000000p-1', '0x1.3d759c701c164p-5'),
        ),
        18446744073709551615: (
            '3ba50b16b9d57081050d94d1a6aeb6775067cfcc2',
            (
                '555555555555555555555555555555555555555555555555',
                'ba3898a2aac7c20a63a3e7fd3c3ef67736ce06e26e9caf39',
                'acb17d1ed537ce5d8d0a38d15472d2d45bac9dd487cf76e4',
                '51ca2bd77e4cf628d980bb6b04a50eae45434575dc526419',
                '0247b56f6f1303bc1a0b1c342395c571f6176e0ac3e28360',
                'b803539e440332f52779d12bf5c6fe46d4d819277499d5f2',
                '13553d41c0bf58ccac7a7de95d246c96c0c0e5b9237376c6',
            ),
            ('0x1.fd55555555555p-2', '0x1.4303075ccd311p-5'),
        ),
    },
}


CASES = [(spec, seed) for spec, by_seed in GOLDEN.items() for seed in by_seed]


@pytest.mark.parametrize("spec,seed", CASES)
def test_samplers_match_golden(spec, seed):
    k, density, rng_seed = spec
    P = random_kernel(np.random.default_rng(rng_seed), k, density)
    traj, ends, (mean, stderr) = GOLDEN[spec][seed]
    assert _hex_states(sample_trajectory(P, 3, 40, seed).states) == traj
    for j, expected in enumerate(ends):
        assert _hex_states(backend.sample_endpoints(P, 5, j, seed, 48)) == expected
    phi = Observable(P.partition.midpoints(), P.partition)
    est = estimate_Lj_phi(P, phi, 5, 6, 48, seed)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


_MASK64 = (1 << 64) - 1


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _scalar_path(indptr, indices, cumdata, start, n, seed):
    # one trajectory at a time: python-int splitmix64 and a searchsorted per step
    states = [start]
    state = _mix64(seed & _MASK64)
    s = start
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        u = (_mix64(state) >> 11) * (1.0 / 9007199254740992.0)
        lo, hi = indptr[s], indptr[s + 1]
        pos = min(int(np.searchsorted(cumdata[lo:hi], u, side="right")), hi - lo - 1)
        s = int(indices[lo + pos])
        states.append(s)
    return np.array(states)


def test_endpoints_match_single_paths(rng):
    # the batched bisection and the per-path searchsorted draw the same states
    for _ in range(10):
        k = int(rng.integers(1, 40))
        P = random_kernel(rng, k, density=float(rng.uniform(0.05, 1.0)))
        indptr, indices, cumdata = P.csr_with_cum()
        start = int(rng.integers(0, k))
        master = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(0, 2))
        j = int(rng.integers(0, 9))
        ends = backend.sample_endpoints(P, start, j, master, 64)
        paths = backend.sample_path(P, start, j, master, 64)
        for i in range(64):
            seed = backend.trajectory_seed(master, i)
            path = _scalar_path(indptr, indices, cumdata, start, j, seed)
            assert ends[i] == path[-1]
            assert np.array_equal(paths[i], path)
            assert np.array_equal(sample_trajectory(P, start, j, seed).states, path)


@pytest.mark.parametrize("draw_block", [1, 5, 64])
def test_draw_batches_do_not_change_paths(rng, monkeypatch, draw_block):
    # uniforms drawn a batch of steps at a time: one step, a few, or all of them
    P = random_kernel(rng, 17, density=0.4)
    expected = backend.sample_path(P, 2, 25, 99, 4)
    monkeypatch.setattr(backend, "_DRAW_BLOCK", draw_block)
    assert np.array_equal(backend.sample_path(P, 2, 25, 99, 4), expected)
    assert np.array_equal(backend.sample_endpoints(P, 2, 25, 99, 4), expected[:, -1])
    indptr, indices, cumdata = P.csr_with_cum()
    for i in range(4):
        seed = backend.trajectory_seed(99, i)
        assert np.array_equal(_scalar_path(indptr, indices, cumdata, 2, 25, seed), expected[i])


def test_trajectories_match_across_processes(rng, tmp_path):
    # a kernel saved, reloaded and sampled in a fresh interpreter gives the same path
    P = random_kernel(rng, 13, density=0.5)
    from ergodyn.cli import save_kernel

    save_kernel(P, tmp_path / "k.txt")
    script = (
        "import sys, numpy as np; import ergodyn; "
        "from ergodyn.cli import load_kernel; "
        "P = load_kernel(sys.argv[1]); "
        "t = ergodyn.sample_trajectory(P, 3, 100, seed=31415); "
        "np.save(sys.argv[2], t.states)"
    )
    out = tmp_path / "states.npy"
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "k.txt"), str(out)], check=True
    )
    here = sample_trajectory(P, 3, 100, seed=31415)
    assert np.array_equal(np.load(out), here.states)


def _reference_ulam_rows(boundaries, samples, code, param, wrap):
    # every noise CDF evaluated over all K+1 boundaries, one temporary per step
    k, q = boundaries.size - 1, samples.shape[1]
    radius = {1: param, 2: 6.0 * param}.get(code, 0.0)
    n_shift = int(math.ceil(radius)) + 1 if wrap else 0
    out = np.zeros((k, k))
    for i in range(k):
        y = samples[i][:, None]
        acc = np.zeros((q, k))
        for w in range(-n_shift, n_shift + 1):
            u = boundaries[None, :] - y + w
            if code == 0:
                cdf = (u >= 0.0).astype(np.float64)
            elif code == 1:
                cdf = np.clip((u + param) / (2.0 * param), 0.0, 1.0)
            else:
                lo = 0.5 * (1.0 + erf(-6.0 / math.sqrt(2.0)))
                cdf = (0.5 * (1.0 + erf(u / (param * math.sqrt(2.0)))) - lo) / (1.0 - 2.0 * lo)
                cdf[u <= -6.0 * param] = 0.0
                cdf[u >= 6.0 * param] = 1.0
            if not wrap:
                cdf[:, 0] = 0.0
                cdf[:, -1] = 1.0
            acc += cdf[:, 1:] - cdf[:, :-1]
        out[i] = acc.sum(axis=0) / q
    return out


def _sparsified(rows):
    mask = rows != 0.0
    return np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), np.nonzero(mask)[1], rows[mask]


def assert_same_csr(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _clustered_images(rng, k, q, wrap):
    # each row's images within one cell width, as a base map's images of one cell
    samples = rng.random((k, 1)) + rng.random((k, q)) / k
    samples[0] = rng.random(q) / k  # within one cell of 0: the wrap window crosses 0 mod 1
    samples[1] = 1.0 - rng.random(q) / k  # within one cell of 1
    if not wrap:
        samples[0, 0], samples[1, 0] = 0.0, 1.0  # clamped images on the ends
    return np.mod(samples, 1.0) if wrap else np.clip(samples, 0.0, 1.0)


ROW_CASES = [(0, 0.0), (1, 0.05), (1, 0.7), (2, 0.002), (2, 0.03), (2, 0.4), (2, 0.2)]


# half_width 1.3 with wrap is folded in closed form (see the closed-form test)
@pytest.mark.parametrize(
    "code,param,wrap",
    [(c, p, w) for w in (True, False) for c, p in ROW_CASES] + [(1, 1.3, False)],
)
def test_ulam_rows_match_full_width_reference(rng, wrap, code, param):
    # the noise-support windows and scratch buffers leave every bit as before
    for k, q in ((7, 3), (64, 16), (300, 5)):
        boundaries = np.linspace(0.0, 1.0, k + 1)
        samples = rng.random((k, q))
        samples[1, 0] = boundaries[3]  # an image exactly on a boundary
        for images in (samples, _clustered_images(rng, k, q, wrap)):
            got = backend.ulam_rows(boundaries, images, code, param, wrap)
            want = _reference_ulam_rows(boundaries, images, code, param, wrap)
            assert_same_csr(got, _sparsified(want))
    # uneven cells
    boundaries = np.concatenate(([0.0], np.sort(rng.random(39)), [1.0]))
    images = _clustered_images(rng, 40, 4, wrap)
    got = backend.ulam_rows(boundaries, images, code, param, wrap)
    assert_same_csr(got, _sparsified(_reference_ulam_rows(boundaries, images, code, param, wrap)))


@pytest.mark.parametrize("code,param", ROW_CASES)
def test_a_signed_zero_first_edge_keeps_the_reference_bits(rng, code, param):
    # u = b - y is -0.0 only where an edge of -0.0 meets an image of +0.0, so
    # clamp mode adds its one wrap, w = 0, there and nowhere else
    boundaries = np.linspace(0.0, 1.0, 65)
    boundaries[0] = -0.0
    images = _clustered_images(rng, 64, 16, False)  # holds the images 0.0 and 1.0
    got = backend.ulam_rows(boundaries, images, code, param, False)
    assert_same_csr(got, _sparsified(_reference_ulam_rows(boundaries, images, code, param, False)))


SEAM_CASES = {
    # rows 0 and 1 wrap across 0, so their span is the whole circle; the rest are narrow
    "whole-circle-wrap-rows": (1, 0.05, True, 16),
    "one-sample": (2, 0.03, True, 1),
    "no-noise-wrap": (0, 0.0, True, 5),
    "no-noise-clamp": (0, 0.0, False, 5),
    # images 0.0 and 1.0 in rows 0 and 1: mass piles onto both end cells
    "clamped-ends-uniform": (1, 0.05, False, 16),
    "clamped-ends-gaussian": (2, 0.002, False, 3),
}


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(SEAM_CASES))
def test_ulam_row_blocks_keep_every_bit_across_seams(rng, monkeypatch, case, rows):
    # K = 23 is a multiple of none of the block sizes, so the last block is short
    monkeypatch.setattr(backend, "_row_blocks", lambda widths, q: range(0, len(widths), rows))
    code, param, wrap, q = SEAM_CASES[case]
    boundaries = np.linspace(0.0, 1.0, 24)
    images = _clustered_images(rng, 23, q, wrap)
    got = backend.ulam_rows(boundaries, images, code, param, wrap)
    assert_same_csr(got, _sparsified(_reference_ulam_rows(boundaries, images, code, param, wrap)))


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_wide_uniform_row_blocks_keep_every_bit_across_seams(rng, monkeypatch, rows):
    boundaries = np.linspace(0.0, 1.0, 24)
    images = rng.random((23, 4))
    want = backend.ulam_rows(boundaries, images, 1, 1.3, True)
    monkeypatch.setattr(backend, "_row_blocks", lambda widths, q: range(0, len(widths), rows))
    assert_same_csr(backend.ulam_rows(boundaries, images, 1, 1.3, True), want)


def test_row_blocks_stay_within_the_entry_budget(monkeypatch):
    # a block holds rows x q x (widest + 1) entries; a row over budget stands alone
    monkeypatch.setattr(backend, "_BLOCK_ENTRIES", 8)
    assert list(backend._row_blocks([3, 3, 3, 10, 3, 1, 1, 1, 1], 1)) == [0, 2, 3, 4, 6]
    assert list(backend._row_blocks([1, 1], 2)) == [0]
    assert list(backend._row_blocks([1, 1], 4)) == [0, 1]
    monkeypatch.setattr(backend, "_BLOCK_ENTRIES", 1)
    boundaries = np.linspace(0.0, 1.0, 24)
    images = _clustered_images(np.random.default_rng(5), 23, 4, True)
    assert_same_csr(
        backend.ulam_rows(boundaries, images, 2, 0.03, True),
        _sparsified(_reference_ulam_rows(boundaries, images, 2, 0.03, True)),
    )


@pytest.mark.parametrize("half_width", [1.0, 1.3, 2.7, 10.5])
def test_wide_uniform_closed_form_matches_wrap_loop(rng, half_width):
    for boundaries in (np.linspace(0.0, 1.0, 65), np.concatenate(([0.0], np.sort(rng.random(6)), [1.0]))):
        k = boundaries.size - 1
        images = rng.random((k, 16))
        indptr, indices, data = backend.ulam_rows(boundaries, images, 1, half_width, True)
        got = np.zeros((k, k))
        got[np.repeat(np.arange(k), np.diff(indptr)), indices] = data
        want = _reference_ulam_rows(boundaries, images, 1, half_width, True)
        assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("half_width", [1e6, 1e300, 1e308])
def test_wide_uniform_rows_stay_finite(rng, half_width):
    boundaries = np.linspace(0.0, 1.0, 17)
    indptr, indices, data = backend.ulam_rows(boundaries, rng.random((16, 4)), 1, half_width, True)
    assert np.all(np.isfinite(data)) and np.all(data > 0.0)
    assert np.abs(np.add.reduceat(data, indptr[:-1]) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("half_width", [1e6, 1e307, 1e308])
def test_wide_clamped_uniform_piles_half_the_mass_on_each_end(rng, half_width):
    boundaries = np.linspace(0.0, 1.0, 9)
    indptr, indices, data = backend.ulam_rows(boundaries, rng.random((8, 4)), 1, half_width, False)
    rows = np.zeros((8, 8))
    rows[np.repeat(np.arange(8), np.diff(indptr)), indices] = data
    assert np.abs(rows[:, [0, -1]] - 0.5).max() <= 1e-6


MAPS = {
    "rotation": {"alpha": 0.37},
    "doubling": {},
    "logistic": {"r": 3.9},
    "piecewise_linear": {"breakpoints": [0.3, 0.7], "slopes": [2.0, -1.0, 3.0]},
}
NOISES = {"uniform": {"half_width": 0.05}, "wrapped_gaussian": {"sigma": 0.01}, "none": {}}


def _accepted_systems():
    for base_map, noise, boundary in itertools.product(sorted(MAPS), sorted(NOISES), ("wrap", "clamp")):
        try:
            system = NoisySystem(base_map, MAPS[base_map], noise, NOISES[noise], boundary)
        except InvalidArgumentError:
            continue  # noise-free clamp with a map that leaves [0, 1]
        yield pytest.param(system, id=f"{base_map}-{noise}-{boundary}")


@pytest.mark.parametrize("system", _accepted_systems())
def test_ulam_discretize_matches_dense_reference(system):
    # the public build equals the full-width dense rows, sparsified and validated
    wrap = system.boundary == "wrap"
    part = make_uniform_partition("circle" if wrap else "unit_interval", 257)
    b = part.boundaries
    code, names = NOISE_PARAMS[system.noise]
    param = float(system.noise_params[names[0]]) if names else 0.0
    for q in (1, 16):
        pts = b[:-1, None] + np.diff(b)[:, None] * ((np.arange(q) + 0.5) / q)[None, :]
        raw = system.map_values(pts.ravel()).reshape(257, q)
        images = np.mod(raw, 1.0) if wrap else np.clip(raw, 0.0, 1.0)
        want = kernel_from_rows(_reference_ulam_rows(b, images, code, param, wrap), part)
        got = ulam_discretize(system, part, q)
        assert_same_csr((got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data))
