"""The seeded sampler: the (seed, index) -> sample contract, its array
Philox words and ziggurat draws against numpy's own, its normalization,
and the key domain."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from spinchsh import sample_pure_state, ziggurat
from spinchsh.sampler import (_PHILOX_TILE, _normalize, _philox_raw, _ziggurat, amplitude_rows,
                              keyed_generator, sample_amplitude_batch)


class TestSampling:

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_normalized(self, sampler):
        psi = sample_pure_state((3, 3), sampler, seed=3, index=5)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_sampler_first_quadrant(self):
        for index in range(50):
            psi = sample_pure_state((3, 3), "uniform", seed=1, index=index)
            assert np.all(psi.amplitudes.real >= 0)
            assert np.all(psi.amplitudes.imag >= 0)

    def test_deterministic_in_seed_and_index(self):
        a = sample_pure_state((3, 3), "haar", seed=9, index=7)
        b = sample_pure_state((3, 3), "haar", seed=9, index=7)
        c = sample_pure_state((3, 3), "haar", seed=9, index=8)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_batch_equals_single_path_bitwise(self, sampler):
        batch = amplitude_rows(sample_amplitude_batch((3, 3), sampler, seed=21, start=10, count=40))
        for i in range(40):
            single = sample_pure_state((3, 3), sampler, seed=21, index=10 + i)
            assert np.array_equal(batch[i], single.amplitudes)

    # first and last amplitude as (re, im) hex floats; the scan, the CLI and
    # every regenerated argmax state rest on this stream
    @pytest.mark.parametrize("sampler, seed, index, first, last", [
        ("uniform", 0, 0, ("0x1.5116693b501e4p-8", "0x1.b8b9c8acf7122p-4"),
         ("0x1.fdd74b969b495p-4", "0x1.367ffb799a79ap-4")),
        ("uniform", 2 ** 63 + 5, 17, ("0x1.daec51076b455p-3", "0x1.61804945c27f9p-2"),
         ("0x1.e415bd30385c1p-3", "0x1.1b3ba6c1e8bcep-3")),
        ("haar", 0, 0, ("0x1.1c378f0e21e3fp-5", "-0x1.8bb0f63fa7b4ap-2"),
         ("-0x1.0cd7671848482p-4", "-0x1.54be26b59d235p-3")),
        ("haar", 2 ** 64 - 1, 2 ** 64 - 1, ("0x1.3015a644f4402p-3", "-0x1.1712f87cf2cc7p-2"),
         ("-0x1.55fbbad2740a4p-2", "-0x1.35aecf6e1917ap-3")),
    ])
    def test_pinned_bits(self, sampler, seed, index, first, last):
        amps = sample_pure_state((3, 3), sampler, seed, index).amplitudes
        for a, (re, im) in ((amps[0], first), (amps[8], last)):
            assert (a.real, a.imag) == (float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    @pytest.mark.parametrize("seed, index", [
        (0, 0), (2 ** 63 + 5, 3), (7, 2 ** 63 + 9), (2 ** 64 - 1, 2 ** 64 - 1)])
    def test_batch_rows_match_numpy_keyed_philox(self, sampler, seed, index):
        # reference: numpy's own Philox(key=(seed, i)), drawn into [re, im]
        # pairs and normalized as the sampler does; the batch spans up to two
        # samples either side of index, so row 0 is not always the key
        start = index - min(index, 2)
        count = min(index + 2, 2 ** 64 - 1) - start + 1
        batch = amplitude_rows(sample_amplitude_batch((3, 3), sampler, seed, start, count))
        assert batch.shape == (count, 9)
        for i, row in enumerate(batch):
            rng = keyed_generator(seed, start + i)
            pairs = rng.random((9, 2)) if sampler == "uniform" else rng.standard_normal((9, 2))
            amps = pairs[:, 0] + 1j * pairs[:, 1]
            amps /= np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
            assert np.array_equal(row, amps)

    def test_haar_marginal_statistics(self):
        """Mean of |psi_11|^2 sits within 3 standard errors of 1/9."""
        n = 10_000
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "haar", seed=5, start=0, count=n))
        mean = float(np.mean(np.abs(batch[:, 0]) ** 2))
        # |psi_11|^2 is Beta(1, 8): variance (n-1)/(n^2 (n+1)) at n = 9
        se = np.sqrt(8 / (81 * 10) / n)
        assert abs(mean - 1 / 9) <= 3 * se

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            sample_pure_state((3, 3), "bogus", seed=0)

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    @pytest.mark.parametrize("dims", [(1, 3), (0, 4), (3,), (3, 3, 3), (3.0, 3), "33"])
    def test_bad_dims_rejected(self, sampler, dims):
        with pytest.raises(ValueError, match="dims"):
            sample_amplitude_batch(dims, sampler, 0, 0, 4)
        with pytest.raises(ValueError, match="dims"):
            sample_amplitude_batch(dims, sampler, 0, 0, 0)
        with pytest.raises(ValueError, match="dims"):
            sample_pure_state(dims, sampler, seed=0)


def key_range(start, count):
    """The second key words start .. start + count - 1, as the sampler makes them."""
    return np.arange(count, dtype=np.uint64) + np.uint64(start)


def keyed_uniform_rows(dims, seed, start, count):
    """Reference rows: numpy's own keyed Philox draws, normalized as the sampler does."""
    n = dims[0] * dims[1]
    rows = np.empty((count, n), dtype=complex)
    for i in range(count):
        pairs = keyed_generator(seed, start + i).random((n, 2))
        amps = pairs[:, 0] + 1j * pairs[:, 1]
        rows[i] = amps / np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2))
    return rows


class TestVectorizedPhilox:
    """The array Philox-4x64-10 against numpy's Philox, word for word."""

    # every key but (0, 0) has a word that wraps on the first key bump; the
    # last key wraps to exactly zero
    @pytest.mark.parametrize("seed, start", [
        (0, 0), (7, 2 ** 63 + 9), (2 ** 64 - 1, 2 ** 64 - 4),
        (2 ** 64 - 0x9E3779B97F4A7C15, 2 ** 64 - 0xBB67AE8584CAA73B)])
    @pytest.mark.parametrize("k", [1, 3, 4, 6, 18, 21])
    def test_raw_words_match_numpy(self, seed, start, k):
        words = _philox_raw(seed, key_range(start, 4), k)
        assert words.dtype == np.uint64 and words.shape == (k, 4)
        for i, row in enumerate(words.T):
            ref = np.random.Philox(key=np.array([seed, start + i], np.uint64)).random_raw(k)
            assert np.array_equal(row, ref)

    # one key, a tile short of one key, one tile, one key over and two tiles
    # and three keys over; the first batch ends at the last key
    @pytest.mark.parametrize("seed, last", [(2 ** 63 + 5, 2 ** 64 - 1), (9, 3 * _PHILOX_TILE + 11)])
    @pytest.mark.parametrize("count", [1, _PHILOX_TILE - 1, _PHILOX_TILE, _PHILOX_TILE + 1,
                                       2 * _PHILOX_TILE + 3])
    @pytest.mark.parametrize("k", [1, 3, 4, 18, 21])
    def test_tile_edges_match_numpy(self, seed, last, count, k):
        start = last - count + 1
        words = _philox_raw(seed, key_range(start, count), k)
        assert words.dtype == np.uint64 and words.shape == (k, count)
        assert all(row.flags.c_contiguous for row in words)
        # both ends of the batch and of each tile, and a stride through it
        edges = {i for t in range(0, count, _PHILOX_TILE) for i in (t, t + _PHILOX_TILE - 1)}
        for i in sorted((edges | set(range(0, count, 97)) | {count - 1}) & set(range(count))):
            ref = np.random.Philox(key=np.array([seed, start + i], np.uint64)).random_raw(k)
            assert np.array_equal(words[:, i], ref), i

    # the blocks the haar sampler's slow path asks for: any keys, in any
    # order, from any block on
    @pytest.mark.parametrize("block, k", [(0, 5), (1, 4), (5, 4), (6, 9)])
    def test_given_blocks_of_given_keys_match_numpy(self, block, k):
        seed = 2 ** 63 + 5
        keys = np.array([2 ** 64 - 1, 17, 0, 2 ** 63 + 9, 17], dtype=np.uint64)
        words = _philox_raw(seed, keys, k, block)
        assert words.shape == (k, len(keys))
        for key, column in zip(keys, words.T):
            ref = np.random.Philox(key=np.array([seed, key], np.uint64)).random_raw(4 * block + k)
            assert np.array_equal(column, ref[4 * block:])

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 4), (5, 5)])
    @pytest.mark.parametrize("seed, start", [(0, 0), (2 ** 63 + 5, 2 ** 64 - 3)])
    def test_uniform_rows_match_keyed_generator(self, dims, seed, start):
        batch = amplitude_rows(sample_amplitude_batch(dims, "uniform", seed, start, 3))
        assert np.array_equal(batch, keyed_uniform_rows(dims, seed, start, 3))

    def test_full_chunk_matches_keyed_generator_at_a_stride(self):
        seed, start, count = 11, 5 * 8192, 8192
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "uniform", seed, start, count))
        for i in range(0, count, 97):
            assert np.array_equal(batch[i], keyed_uniform_rows((3, 3), seed, start + i, 1)[0])
        assert np.array_equal(batch[-1], keyed_uniform_rows((3, 3), seed, start + count - 1, 1)[0])

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (5, 5)])
    def test_empty_batch_shape(self, sampler, dims):
        batch = sample_amplitude_batch(dims, sampler, 0, 0, 0)
        assert batch.shape == (2, dims[0] * dims[1], 0)
        assert amplitude_rows(batch).shape == (0, dims[0] * dims[1])


class TestSamplePlanes:
    """A batch leaves the sampler as float planes (re, im), normalized in
    place with the bits of the complex route they replaced: the [re, im]
    pairs made complex, then divided by the norm, numpy's complex / real
    (Smith's method) over its pairwise sum of the squares."""

    # signed zeros, subnormals, finite values and ones whose square
    # underflows or overflows
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310, 0.75, -1.5, 3e-170, -1e200]

    @staticmethod
    def complex_route(draws):
        """(b, n) complex rows of (b, 2n) draws, normalized as a complex array."""
        pairs = draws.reshape(len(draws), -1, 2)
        amps = pairs[:, :, 0] + 1j * pairs[:, :, 1]
        amps /= np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2, axis=1, keepdims=True))
        return amps

    # n = 144 amplitudes take numpy's recursive pairwise summation (n > 128)
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (12, 12)])
    def test_edge_values_in_every_slot_match_complex_bits(self, dims):
        n = dims[0] * dims[1]
        rng = np.random.default_rng(n)
        rows = []
        for slot in range(2 * n):
            for value in self.EDGES:
                row = rng.standard_normal(2 * n)
                row[slot] = value
                rows.append(row)
        # rows of edge values only: some norms are 0 (every part then NaN or
        # inf), underflow or overflow
        rows.extend(rng.choice(self.EDGES, (400, 2 * n)))
        draws = np.array(rows)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = self.complex_route(draws)
            planes = _normalize(np.ascontiguousarray(draws.T).reshape(n, 2, len(draws)))
        assert planes.shape == (2, n, len(draws))
        assert amplitude_rows(planes).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_plane_rows_are_contiguous(self, sampler, dims):
        # the scan kernel reads each plane row as one contiguous run
        planes = sample_amplitude_batch(dims, sampler, 3, 0, 100)
        assert planes.shape == (2, dims[0] * dims[1], 100) and planes.dtype == np.float64
        assert all(row.flags.c_contiguous for plane in planes for row in plane)

    def test_amplitude_rows_copy_every_bit(self):
        planes = np.array([[[-0.0, 5e-324, 1.0]], [[0.0, -0.0, -5e-324]]])
        rows = amplitude_rows(planes)
        assert rows.shape == (3, 1) and rows.flags.c_contiguous
        assert rows.real.T.tobytes() == planes[0].tobytes()
        assert rows.imag.T.tobytes() == planes[1].tobytes()


def words_read(rng):
    """Raw words a keyed Philox generator has handed out so far; numpy bumps
    the counter before each block of four words."""
    state = rng.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def keyed_normal_draws(seed, index, k):
    """numpy's first k standard_normal draws for the key, and how many raw
    words it read for them (k exactly when every draw took the fast path)."""
    rng = keyed_generator(seed, index)
    draws = rng.standard_normal(k)
    return draws, words_read(rng)


def normalized_rows(draws):
    """(count, 2n) draws as [re, im] pairs, normalized as the sampler does."""
    amps = draws[:, 0::2] + 1j * draws[:, 1::2]
    return amps / np.sqrt(np.sum(amps.real ** 2 + amps.imag ** 2, axis=1, keepdims=True))


def first_rejections(seed, start, count, k=18):
    """(row, position, word) of the first fast-path rejection in each row
    with one, from the committed tables, for the keys (seed, start + row)."""
    words = _philox_raw(seed, key_range(start, count), k).T
    rabs = (words >> np.uint64(9)) & np.uint64(2 ** 52 - 1)
    rejected = rabs >= np.array(ziggurat.KI_DOUBLE, dtype=np.uint64)[words & np.uint64(0xFF)]
    first = rejected.argmax(axis=1)
    return [(int(i), int(first[i]), int(words[i, first[i]]))
            for i in np.flatnonzero(rejected.any(axis=1))]


def load_extract_script():
    path = Path(__file__).resolve().parents[1] / "tools" / "extract_ziggurat.py"
    spec = importlib.util.spec_from_file_location("extract_ziggurat", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestZiggurat:
    """The haar sampler's array ziggurat against numpy's standard_normal,
    draw for draw and word for word, and the committed tables against
    numpy's own."""

    K = 18  # draws per (3, 3) sample

    @pytest.mark.parametrize("seed, start", [
        (0, 0), (2 ** 63 + 5, 2 ** 64 - 8192), (2 ** 64 - 1, 2 ** 64 - 8192)])
    def test_full_chunk_matches_numpy(self, seed, start):
        count = 8192
        draws, read = _ziggurat(seed, key_range(start, count), self.K)
        assert draws.shape == (self.K, count) and read.shape == (count,)
        reference = np.empty((count, self.K))
        numpy_read = np.empty(count, dtype=int)
        for i in range(count):
            reference[i], numpy_read[i] = keyed_normal_draws(seed, start + i, self.K)
        # every draw, the wedge and tail draws and those they shift included,
        # and the words each key's cursor read
        assert draws.T.tobytes() == reference.tobytes()
        assert np.array_equal(read, numpy_read)
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "haar", seed, start, count))
        assert np.array_equal(batch, normalized_rows(reference))
        # the chunk takes every path: 15-35% of its keys read extra words,
        # some four or more, some draws are in the tail (beyond r, the base
        # layer's edge), and every layer but 1 (ki = 0) is on the fast path
        extra = read - self.K
        assert 0.15 < np.mean(extra > 0) < 0.35 and extra.max() >= 4
        assert (np.abs(reference) > ziggurat.WI_DOUBLE[255] * 2 ** 52).sum() >= 10
        words = _philox_raw(seed, key_range(start, count), self.K).T
        assert set((words & np.uint64(0xFF)).ravel().tolist()) == set(range(256))
        fast_words = words[extra == 0]
        assert ziggurat.KI_DOUBLE[1] == 0
        assert set((fast_words & np.uint64(0xFF)).ravel().tolist()) == set(range(256)) - {1}
        assert set(((fast_words >> np.uint64(8)) & np.uint64(1)).ravel().tolist()) == {0, 1}

    @pytest.mark.parametrize("seed, start, count, k", [
        (11, 100, 300, 1), (11, 100, 300, 3), (5, 2 ** 64 - 200, 200, 8), (11, 100, 120, 288)])
    def test_other_draw_counts_match_numpy(self, seed, start, count, k):
        # k off a block edge, and (12, 12) samples, whose keys take the
        # slow path through several further blocks
        draws, read = _ziggurat(seed, key_range(start, count), k)
        for i in range(count):
            reference, numpy_read = keyed_normal_draws(seed, start + i, k)
            assert draws[:, i].tobytes() == reference.tobytes() and read[i] == numpy_read

    @pytest.mark.parametrize("index, what", [
        (0, "tail"), (0, "failed wedge"), (17403, "most words")])
    def test_slow_key_pinned_against_numpy(self, index, what):
        if what != "most words":
            # the first key of seed 0 whose first rejected word is in the
            # tail layer (idx 0), or in another layer and fails the wedge
            # test: numpy then reads more than two words for that one draw
            for i, j, word in first_rejections(0, 0, 4096):
                if (word & 0xFF == 0) == (what == "tail"):
                    rng = keyed_generator(0, i)
                    rng.standard_normal(j + 1)
                    if what == "tail" or words_read(rng) > j + 2:
                        index = i
                        break
            else:
                pytest.fail("no such key among the first 4096")
        else:
            # of seed 0's first 50,000 keys the first to read the most words:
            # 8 beyond its 18 draws, two blocks past the fast path's five
            read = _ziggurat(0, key_range(0, 50_000), self.K)[1]
            assert read.argmax() == index and read[index] == self.K + 8
        reference, numpy_read = keyed_normal_draws(0, index, self.K)
        assert numpy_read > self.K
        draws, read = _ziggurat(0, key_range(index, 1), self.K)
        assert draws[:, 0].tobytes() == reference.tobytes() and read[0] == numpy_read
        # the key alone and inside a batch
        expected = normalized_rows(reference[None, :])[0]
        assert np.array_equal(sample_pure_state((3, 3), "haar", 0, index).amplitudes, expected)
        start = max(index - 1, 0)
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "haar", 0, start, 3))
        assert np.array_equal(batch[index - start], expected)

    @pytest.mark.parametrize("chunk, calls", [(0, 2), (1, 3)])
    def test_one_philox_call_per_block(self, chunk, calls, monkeypatch):
        """A full chunk's words come from one _philox_raw call, and each
        further block its slow keys read from one more, never one per key."""
        made = []

        def recording(seed, keys, k, block=0):
            made.append((len(keys), block))
            return _philox_raw(seed, keys, k, block)

        monkeypatch.setattr("spinchsh.sampler._philox_raw", recording)
        count = 8192
        read = _ziggurat(0, key_range(chunk * count, count), self.K)[1]
        blocks = -(-read.max() // 4)
        assert len(made) == calls == 1 + blocks - 5
        assert made[0] == (count, 0)
        assert [block for _, block in made[1:]] == list(range(5, blocks))
        # each further block goes to slow keys only: those that read past k words
        assert all(n <= np.sum(read > self.K) for n, _ in made[1:])

    def test_no_numpy_generator_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy generator was built")
        monkeypatch.setattr(np.random, "Philox", refuse)
        monkeypatch.setattr(np.random, "Generator", refuse)
        planes = sample_amplitude_batch((3, 3), "haar", 7, 40 * 8192, 8192)
        assert planes.shape == (2, 9, 8192)
        assert sample_pure_state((3, 3), "haar", 0, 17403).amplitudes.shape == (9,)

    @pytest.mark.parametrize("count", [0, 1])
    def test_small_batch_shapes(self, count):
        draws, read = _ziggurat(2 ** 63 + 5, key_range(2 ** 64 - 1 - count, count), self.K)
        assert draws.shape == (self.K, count) and draws.dtype == np.float64
        assert read.shape == (count,) and np.all(read >= self.K)
        assert sample_amplitude_batch((3, 3), "haar", 5, 2 ** 64 - 1 - count, count).shape == (2, 9, count)

    def test_tables_match_installed_numpy(self):
        extract = load_extract_script()
        tables = extract.probe_tables()
        assert tables["ki_double"] == ziggurat.KI_DOUBLE
        for name in ("wi_double", "fi_double"):
            assert [v.hex() for v in tables[name]] == [v.hex() for v in getattr(ziggurat, name.upper())]
        # the wedge densities fall from exp(0) = 1 at the top
        assert ziggurat.FI_DOUBLE[0] == 1.0 and len(ziggurat.FI_DOUBLE) == 256
        assert all(a > b for a, b in zip(ziggurat.FI_DOUBLE, ziggurat.FI_DOUBLE[1:]))
        # the committed module is exactly what the script writes
        assert extract.render(tables) == Path(ziggurat.__file__).read_text()

    def test_script_writes_the_committed_module(self, tmp_path, monkeypatch):
        # run end to end, recording every file opened: none is numpy's
        numpy_dir = Path(np.__file__).resolve().parent
        opened, recording = [], [True]
        sys.addaudithook(lambda event, args: recording[0] and event == "open"
                         and opened.append(args[0]))
        try:
            extract = load_extract_script()
            monkeypatch.setattr(extract, "OUT", tmp_path / "ziggurat.py")
            extract.main()
            first = extract.OUT.read_bytes()
            extract.main()
        finally:
            recording[0] = False
        assert first == extract.OUT.read_bytes() == Path(ziggurat.__file__).read_bytes()
        written = {}
        exec(first, written)
        assert all(len(written[name]) == 256 for name in ("KI_DOUBLE", "WI_DOUBLE", "FI_DOUBLE"))
        paths = [Path(os.fsdecode(p)).resolve() for p in opened if not isinstance(p, int)]
        assert paths and not [p for p in paths if p.is_relative_to(numpy_dir)]


class TestKeyDomain:
    """Seeds and sample indices are rejected outside [0, 2**64), not wrapped."""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            keyed_generator(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            sample_pure_state((3, 3), "uniform", seed=seed)
        with pytest.raises(ValueError, match="seed"):
            sample_amplitude_batch((3, 3), "uniform", seed, 0, 4)

    @pytest.mark.parametrize("index", [-1, 2 ** 64])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="index"):
            sample_pure_state((3, 3), "uniform", seed=0, index=index)
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, index, 1)

    def test_batch_checks_its_last_index(self):
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, 2 ** 64 - 2, 3)
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, -1, 3)
        # numpy integers must not wrap the last index past 2**64 to 0
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, 2 ** 64 - 1, np.uint64(2))
        with pytest.raises(ValueError, match="index"):
            sample_amplitude_batch((3, 3), "uniform", 0, np.uint64(2 ** 64 - 1), 2)

    @pytest.mark.parametrize("sampler", ["uniform", "haar"])
    def test_negative_count_rejected(self, sampler):
        with pytest.raises(ValueError, match="count"):
            sample_amplitude_batch((3, 3), sampler, 0, 0, -1)

    def test_largest_seed_and_index_accepted(self):
        top = 2 ** 64 - 1
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "haar", top, top - 1, 2))
        assert np.array_equal(batch[1], sample_pure_state((3, 3), "haar", top, top).amplitudes)

    @pytest.mark.parametrize("seed, index", [
        (2 ** 63 + 5, 3), (7, 2 ** 63 + 9), (2 ** 64 - 1, 0), (2 ** 63, 1)])
    def test_high_key_words_keep_single_and_batch_paths_equal(self, seed, index):
        # a key with one word above 2**63 and one below must not lose bits
        single = sample_pure_state((3, 3), "uniform", seed, index).amplitudes
        batch = amplitude_rows(sample_amplitude_batch((3, 3), "uniform", seed, index, 1))
        assert np.array_equal(single, batch[0])
        assert not np.array_equal(single, sample_pure_state((3, 3), "uniform", seed ^ 1, index).amplitudes)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            keyed_generator(1.5, 0)

    def test_empty_batch(self):
        assert sample_amplitude_batch((3, 3), "uniform", 0, 0, 0).shape == (2, 9, 0)
