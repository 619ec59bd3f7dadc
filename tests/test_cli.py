import hashlib
import importlib.util
import io
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodyn import (
    cli, kernel_from_rows, make_uniform_partition, measures, ulam_discretize, NoisySystem,
    TransitionKernel,
)
from ergodyn.cli import (
    config_hash, load_config, load_kernel, load_measure, main, save_kernel, save_measure,
)
from ergodyn.kernel import MAP_PARAMS, NOISE_PARAMS
from ergodyn.mc import estimate_Lj_phi
from ergodyn.space import Measure, Observable

from conftest import random_kernel

DATA = Path(__file__).parent / "data"

def bundled(name, dst):
    with resources.as_file(resources.files("ergodyn").joinpath(f"data/{name}")) as p:
        shutil.copy(p, dst / name)
    return dst / name


def write_config(path, body):
    Path(path).write_text(body)
    return str(path)


class TestKernelRoundTrip:
    def test_exact_round_trip(self, rng, tmp_path):
        P = random_kernel(rng, 23, density=0.5)
        path = tmp_path / "k.txt"
        save_kernel(P, path)
        Q = load_kernel(path)
        assert np.array_equal(P.to_dense(), Q.to_dense())
        assert P.partition == Q.partition

    def test_ulam_kernel_round_trip(self, tmp_path):
        part = make_uniform_partition("circle", 32)
        system = NoisySystem("doubling", {}, "uniform", {"half_width": 0.07})
        P = ulam_discretize(system, part, 8)
        path = tmp_path / "k.txt"
        save_kernel(P, path)
        Q = load_kernel(path)
        assert np.array_equal(P.to_dense(), Q.to_dense())

    @pytest.mark.parametrize("k, density", [(1, 1.0), (23, 0.5), (150, 0.1)])
    def test_writer_matches_record_by_record_format(self, rng, tmp_path, k, density):
        P = random_kernel(rng, k, density=density)
        save_kernel(P, tmp_path / "k.txt")
        lines = [
            "ergodyn-kernel 1", f"K {k}", "domain unit_interval",
            "boundaries " + " ".join(f"{float(b):.17g}" for b in P.partition.boundaries),
            f"nnz {P.nnz}",
        ]
        for i in range(k):
            cols, probs = P.row(i)
            lines += [f"{i} {c} {float(p):.17g}" for c, p in zip(cols, probs)]
        assert (tmp_path / "k.txt").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("last_row", [[1.0], [0.25, 0.75], [0.1, 0.2, 0.7]])
    def test_writer_blocks_keep_record_text_and_bits(self, monkeypatch, tmp_path, last_row):
        # nnz 7, 8 and 9: below, at and above a multiple of a 4-record block
        monkeypatch.setattr(cli, "_WRITE_BLOCK", 4)
        rows = [[5e-324, 1.0], [1 / 3, 2 / 3], [0.1, 0.9], last_row]
        cols = [[0, 2], [1, 3], [0, 3], list(range(4 - len(last_row), 4))]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        P = TransitionKernel(
            indptr, np.concatenate(cols), np.concatenate(rows), make_uniform_partition("unit_interval", 4)
        )
        save_kernel(P, tmp_path / "k.txt")
        text = "".join(
            f"{i} {c} {p:.17g}\n" for i, (cs, ps) in enumerate(zip(cols, rows)) for c, p in zip(cs, ps)
        )
        assert (tmp_path / "k.txt").read_text().split(f"nnz {indptr[-1]}\n")[1] == text
        Q, parses = load_counting_parses(tmp_path / "k.txt", monkeypatch)  # from the sidecar blocks
        (tmp_path / "k.txt.records").unlink()
        R, reparses = load_counting_parses(tmp_path / "k.txt", monkeypatch)  # from the text
        assert (parses, reparses) == (0, 1)
        assert same_bits(Q, P) and same_bits(R, P)

    def test_measure_round_trip(self, rng, tmp_path):
        part = make_uniform_partition("unit_interval", 9)
        w = rng.random(9)
        mu = Measure(w / w.sum(), part)
        path = tmp_path / "m.txt"
        save_measure(mu, path)
        nu = load_measure(path, part)
        assert np.array_equal(mu.weights, nu.weights)


def same_bits(P, Q):
    """The two kernels' CSR arrays and boundaries agree bit for bit."""
    pairs = [(P.indptr, Q.indptr), (P.indices, Q.indices), (P.data, Q.data),
             (P.partition.boundaries, Q.partition.boundaries)]
    return P.partition == Q.partition and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs
    )


def load_counting_parses(path, monkeypatch):
    """(load_kernel(path), how many times it parsed the text with np.loadtxt)."""
    parses = []
    loadtxt = np.loadtxt
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", lambda *a, **kw: parses.append(1) or loadtxt(*a, **kw))
        return load_kernel(path), len(parses)


@contextmanager
def deadline(seconds=20):
    """Fail a step that blocks (a FIFO opened for reading waits for a writer).

    The alarm goes to the main thread itself: a process-wide one may land on
    a BLAS thread and leave the blocked call waiting."""
    def expire(signum, frame):
        pytest.fail(f"blocked for {seconds} s")  # not an OSError, which the loader would catch

    previous = signal.signal(signal.SIGALRM, expire)
    timer = threading.Timer(seconds, signal.pthread_kill, (threading.get_ident(), signal.SIGALRM))
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        signal.signal(signal.SIGALRM, previous)


def _resave(types):
    """A sidecar rewrite: the built digest, then the built kernel's indptr,
    indices and data written raw as the three ``types``."""
    def mutate(text, side):
        P = load_kernel(text)
        arrays = (P.indptr, P.indices, P.data)
        side.write_bytes(side.read_bytes()[:32] + b"".join(
            a.astype(t).tobytes() for a, t in zip(arrays, types)))
    return mutate


def _flip(offset):
    def mutate(text, side):
        data = bytearray(side.read_bytes())
        data[offset] ^= 0x01
        side.write_bytes(bytes(data))
    return mutate


def _huge_shape(text, side):
    """An .npy header that claims 10^12 records, written over the start of
    the payload; the file keeps its size."""
    data = side.read_bytes()
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(cli._RECORD), "fortran_order": False, "shape": (10**12,)})
    side.write_bytes(data[:32] + header.getvalue() + data[32 + len(header.getvalue()):])


def _parent_layout(text, side):
    """The sidecar layout before CSR: the text's records as 24-byte
    ``(row, col, prob)``, after a digest sha256(sha256(text) ||
    sha256(records)) with no layout tag."""
    records = np.loadtxt(text, dtype=cli._RECORD, skiprows=5, ndmin=1)
    digest = hashlib.sha256(hashlib.sha256(text.read_bytes()).digest()
                            + hashlib.sha256(records).digest()).digest()
    side.write_bytes(digest + records.tobytes())


def _replace_with(make):
    def mutate(text, side):
        side.unlink()
        make(side)
    return mutate


#: name -> mutation of (kernel text path, sidecar path) after a build. Each
#: leaves the text's kernel as it was built, so the loader must parse the
#: text and return the same kernel.
SIDECAR_FAULTS = {
    "deleted": lambda text, side: side.unlink(),
    "truncated": lambda text, side: side.write_bytes(side.read_bytes()[:-5]),
    "digest_byte": _flip(0),
    "record_byte": _flip(-1),
    "text_edited": lambda text, side: text.write_text(text.read_text()[:-1] + " \n"),
    "wrong_dtype": _resave(("<i8", "<i8", "<f8")),
    "byte_swapped": _resave((">i8", ">i4", ">f8")),
    "shape_1e12": _huge_shape,
    "parent_layout": _parent_layout,
    "directory": _replace_with(Path.mkdir),
    "fifo": _replace_with(os.mkfifo),
}


class TestRecordSidecar:
    """``kernel-build`` writes ``kernel.txt.records`` next to the text; loaders
    take its CSR arrays only when its digest matches the text and the arrays."""

    @staticmethod
    def build(tmp_path, source):
        out = tmp_path / "built"
        if source.endswith(".kernel"):  # a kernel file without a system: save what it holds
            out.mkdir()
            save_kernel(load_kernel(DATA / source if (DATA / source).exists()
                                    else bundled(source, tmp_path)), out / "kernel.txt")
        else:
            cfg = DATA / source if (DATA / source).exists() else bundled(source, tmp_path)
            assert main(["kernel-build", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "kernel.txt.records").is_file()
        return out / "kernel.txt", out / "kernel.txt.records"

    @pytest.mark.parametrize("source", [
        "swap.kernel", "rotation_uniform.cfg", "pipeline_logistic_k64.cfg", "doubling_gaussian_k64.cfg",
    ])
    def test_sidecar_kernel_is_bit_identical_to_the_parsed_text(self, tmp_path, monkeypatch, source):
        text, side = self.build(tmp_path, source)
        hit, parses = load_counting_parses(text, monkeypatch)
        assert parses == 0
        side.unlink()
        parsed, parses = load_counting_parses(text, monkeypatch)
        assert parses == 1
        assert same_bits(hit, parsed)

    @pytest.mark.parametrize("fault", list(SIDECAR_FAULTS))
    def test_faulty_sidecar_falls_back_to_the_text(self, tmp_path, monkeypatch, capsys, fault):
        text, side = self.build(tmp_path, "rotation_uniform.cfg")
        clean = tmp_path / "clean"
        clean.mkdir()
        shutil.copy(text, clean / "kernel.txt")
        reference, _ = load_counting_parses(clean / "kernel.txt", monkeypatch)
        SIDECAR_FAULTS[fault](text, side)
        with deadline():
            P, parses = load_counting_parses(text, monkeypatch)
            assert parses == 1 and same_bits(P, reference)
            for kernel, out in ((text, "o"), (clean / "kernel.txt", "ref")):
                for argv in (["measure"], ["verify", "--checks", "lemma1,maximal", "--trials", "3"],
                             ["simulate"]):
                    assert main(argv + ["--kernel", str(kernel), "--seed", "1807",
                                        "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().err == ""
        for name in ("measure_report.txt", "verify_report.txt", "trajectories.csv", "estimates.csv"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_npy_layout_sidecar_is_not_taken(self, tmp_path, monkeypatch):
        # the earlier layout: a digest that binds the text to the records, an
        # .npy header, then the same records
        text, side = self.build(tmp_path, "rotation_uniform.cfg")
        records = np.loadtxt(text, dtype=cli._RECORD, skiprows=5)
        buf = io.BytesIO()
        np.save(buf, records)
        side.write_bytes(cli._binding(cli._file_digest(text), cli.hashlib.sha256(records)) + buf.getvalue())
        P, parses = load_counting_parses(text, monkeypatch)
        assert parses == 1
        assert P.data.tobytes() == records["prob"].tobytes()

    @pytest.mark.parametrize("source", ["swap.kernel", "rotation_uniform.cfg"])
    def test_parent_layout_sidecar_is_not_taken(self, tmp_path, monkeypatch, source):
        # on swap (K=2, nnz=2) both layouts take 80 bytes: only the layout tag
        # in the digest tells them apart
        text, side = self.build(tmp_path, source)
        built, size = load_kernel(text), side.stat().st_size
        _parent_layout(text, side)
        assert (side.stat().st_size == size) == (source == "swap.kernel")
        P, parses = load_counting_parses(text, monkeypatch)
        assert parses == 1 and same_bits(P, built)

    def test_a_hit_sorts_nothing(self, tmp_path, monkeypatch):
        text, side = self.build(tmp_path, "pipeline_logistic_k64.cfg")
        sorts = []
        for name in ("argsort", "sort", "lexsort"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=original, **kw: sorts.append(1) or _f(*a, **kw))
        hit = load_kernel(text)
        assert sorts == []
        side.unlink()
        assert same_bits(load_kernel(text), hit) and sorts  # the text parse sorts its records

    def test_shuffled_records_load_to_the_row_major_kernel(self, tmp_path, rng):
        lines = (DATA / "pipeline_logistic_k64.kernel").read_text().splitlines(keepends=True)
        head, records = lines[:5], lines[5:]
        shuffled = tmp_path / "shuffled.kernel"
        shuffled.write_text("".join(head + [records[i] for i in rng.permutation(len(records))]))
        assert same_bits(load_kernel(shuffled), load_kernel(DATA / "pipeline_logistic_k64.kernel"))

    def test_a_hit_holds_about_one_copy_of_the_kernel(self, tmp_path):
        # about 10^5 nonzeros: the arrays read, the validator's int64 columns
        # and its masks, and one hash chunk of the text
        system = NoisySystem("rotation", {"alpha": 0.37}, "uniform", {"half_width": 0.05})
        P = ulam_discretize(system, make_uniform_partition("circle", 1024), 4)
        save_kernel(P, tmp_path / "k.txt")
        arrays = P.indptr.nbytes + P.indices.nbytes + P.data.nbytes
        assert 0.9e5 < P.nnz < 1.2e5
        tracemalloc.start()
        try:
            Q = load_kernel(tmp_path / "k.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(Q, P)
        assert peak <= 2 * arrays + cli._HASH_CHUNK, f"peak {peak / 2**20:.2f} MiB, arrays {arrays / 2**20:.2f} MiB"

    def test_kernel_too_wide_for_int32_columns_gets_no_sidecar(self, tmp_path, monkeypatch):
        P = load_kernel(DATA / "pipeline_logistic_k64.kernel")
        monkeypatch.setattr(cli, "_SIDECAR_MAX_K", P.K - 1)
        save_kernel(P, tmp_path / "k.txt")
        assert not (tmp_path / "k.txt.records").exists()
        Q, parses = load_counting_parses(tmp_path / "k.txt", monkeypatch)
        assert parses == 1 and same_bits(Q, P)

    def test_text_edited_after_the_build_wins(self, tmp_path, monkeypatch):
        text, side = self.build(tmp_path, "rotation_uniform.cfg")
        lines = text.read_text().splitlines(keepends=True)
        first, second = lines[5].split(), lines[6].split()  # two records of row 0
        assert first[0] == second[0] == "0" and first[2] != second[2]
        lines[5], lines[6] = (f"{first[0]} {first[1]} {second[2]}\n",
                              f"{second[0]} {second[1]} {first[2]}\n")
        text.write_text("".join(lines))
        P, parses = load_counting_parses(text, monkeypatch)
        assert parses == 1
        assert P.data[:2].tolist() == [float(second[2]), float(first[2])]

    @pytest.mark.parametrize("column, message", [(None, "duplicate entry"), ("64", "outside [0, 64)")])
    def test_bad_record_next_to_a_stale_sidecar_exits_3(self, tmp_path, capsys, column, message):
        text, side = self.build(tmp_path, "rotation_uniform.cfg")
        lines = text.read_text().splitlines(keepends=True)
        row, _, prob = lines[6].split()  # row 0's second record; None repeats its first column
        lines[6] = f"{row} {column or lines[5].split()[1]} {prob}\n"
        text.write_text("".join(lines))
        errors = []
        for _ in ("stale sidecar", "no sidecar"):
            assert main(["measure", "--kernel", str(text), "--out", str(tmp_path / "o")]) == 3
            errors.append(capsys.readouterr().err)
            side.unlink(missing_ok=True)
        assert errors[0] == errors[1] and message in errors[0]
        assert errors[0].startswith("error: invalid data: ") and errors[0].count("\n") == 1

    @pytest.mark.parametrize("make", [Path.mkdir, os.mkfifo])
    def test_kernel_build_writes_the_text_when_the_sidecar_cannot_be(self, tmp_path, monkeypatch, make):
        text, side = self.build(tmp_path, "rotation_uniform.cfg")
        built = text.read_bytes()
        _replace_with(make)(text, side)
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        with deadline():
            assert main(["kernel-build", "--config", str(cfg), "--out", str(text.parent)]) == 0
        assert text.read_bytes() == built and side.exists() and not side.is_file()
        assert load_counting_parses(text, monkeypatch)[1] == 1


def test_loaders_write_nothing_next_to_their_input(tmp_path):
    listing = sorted(p.name for p in DATA.iterdir())
    for kernel in sorted(DATA.glob("*.kernel")):
        for argv in (["measure"], ["verify", "--checks", "lemma1", "--trials", "2"], ["simulate"]):
            out = tmp_path / kernel.stem / argv[0]
            assert main(argv + ["--kernel", str(kernel), "--out", str(out)]) == 0
    assert sorted(p.name for p in DATA.iterdir()) == listing


def _other_setting(line):
    """A class cache written by a measure run at another [solver] setting."""
    def mutate(text, cache):
        cfg = write_config(cache.parent.parent / "other.cfg", f"[solver]\n{line}\n")
        assert main(["measure", "--config", cfg, "--kernel", str(text), "--out", str(cache.parent)]) == 0
    return mutate


def _other_kernels(text, cache):
    """The class cache of another kernel file of the same name."""
    other = cache.parent.parent / "other"
    assert main(["kernel-build", "--config", str(DATA / "pipeline_logistic_k64.cfg"), "--out", str(other)]) == 0
    assert main(["measure", "--kernel", str(other / "kernel.txt"), "--out", str(other)]) == 0
    shutil.copy(other / "kernel.txt.classes", cache)


def _out_is_a_file(text, cache):
    shutil.rmtree(cache.parent)
    cache.parent.write_bytes(b"")


#: name -> mutation of (kernel text path, class cache path) after a measure
#: run wrote the cache. Each leaves nothing at the cache's path that a run at
#: the default [solver] setting may take.
CLASS_CACHE_FAULTS = {
    "truncated": lambda text, cache: cache.write_bytes(cache.read_bytes()[:-5]),
    "payload_byte": _flip(-1),
    "zeroed_digest": lambda text, cache: cache.write_bytes(bytes(32) + cache.read_bytes()[32:]),
    "other_tol": _other_setting("tol = 1e-11"),
    "other_max_iter": _other_setting("max_iter = 99999"),
    "other_kernel": _other_kernels,
    "directory": _replace_with(Path.mkdir),
    "fifo": _replace_with(os.mkfifo),
    "out_is_a_file": _out_is_a_file,
}


def _workload_config(name, dst):
    """The run configuration of a ``perfbench`` workload, written to dst."""
    if "perfbench_workloads" not in sys.modules:  # its dataclass looks itself up there
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    workloads = sys.modules["perfbench_workloads"]
    path = dst / f"{name}.cfg"
    path.write_text(workloads.WORKLOADS[name].config_text(dst / "out"))
    return path


CLASS_CACHE_CONFIGS = ("rotation_uniform.cfg", "verify-rotation-k512", "pipeline-logistic-k4096")


@pytest.fixture(scope="module")
def built_kernel(tmp_path_factory):
    """config name -> (its config path, the kernel file built from it, with
    its sidecar); each is built once per module."""
    built = {}

    def build(name):
        if name not in built:
            dst = tmp_path_factory.mktemp(name.replace(".", "_"))
            cfg = bundled(name, dst) if name.endswith(".cfg") else _workload_config(name, dst)
            assert main(["kernel-build", "--config", str(cfg), "--out", str(dst / "built")]) == 0
            built[name] = cfg, dst / "built" / "kernel.txt"
        return built[name]
    return build


def count_class_work(monkeypatch) -> dict:
    """measures function -> its calls from now on: class solves, period
    searches, and the class search over the whole kernel that
    ``_class_structure`` makes (not the searches on a measure's support)."""
    calls = {"_solve_class": 0, "_graph_period": 0, "_closed_classes_on": 0}
    for name in calls:
        def counted(*args, _f=getattr(measures, name), _name=name):
            if _name != "_closed_classes_on" or sys._getframe(1).f_code.co_name == "_class_structure":
                calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(measures, name, counted)
    return calls


class TestClassCache:
    """``measure`` and ``verify`` leave the class solves of a kernel loaded
    through its sidecar in ``<out>/kernel.txt.classes``, and a later run at
    the same setting reads them there instead of solving."""

    @staticmethod
    def run(command, cfg, kernel, out):
        assert main([command, "--config", str(cfg), "--kernel", str(kernel), "--seed", "1807",
                     "--out", str(out)]) == 0
        return (out / f"{command}_report.txt").read_bytes()

    @pytest.mark.parametrize("name", CLASS_CACHE_CONFIGS)
    def test_reports_are_byte_identical_with_and_without_the_cache(self, tmp_path, built_kernel, name):
        cfg, kernel = built_kernel(name)
        first = self.run("measure", cfg, kernel, tmp_path / "o")
        assert (tmp_path / "o" / "kernel.txt.classes").is_file()
        assert not (kernel.parent / "kernel.txt.classes").exists()  # never next to the input
        assert self.run("measure", cfg, kernel, tmp_path / "o") == first
        assert self.run("verify", cfg, kernel, tmp_path / "o") == self.run("verify", cfg, kernel, tmp_path / "fresh")
        assert (tmp_path / "fresh" / "kernel.txt.classes").read_bytes() == (tmp_path / "o" / "kernel.txt.classes").read_bytes()

    @pytest.mark.parametrize("name", CLASS_CACHE_CONFIGS)
    def test_verify_after_measure_solves_nothing(self, tmp_path, monkeypatch, built_kernel, name):
        cfg, kernel = built_kernel(name)
        self.run("measure", cfg, kernel, tmp_path / "o")
        calls = count_class_work(monkeypatch)
        self.run("verify", cfg, kernel, tmp_path / "o")
        assert calls == dict.fromkeys(calls, 0)
        self.run("verify", cfg, kernel, tmp_path / "fresh")
        assert all(calls.values())  # a fresh --out holds no cache: the run solves

    @pytest.mark.parametrize("fault", list(CLASS_CACHE_FAULTS))
    def test_faulty_class_cache_is_solved_again(self, tmp_path, monkeypatch, capsys, fault):
        text, _ = TestRecordSidecar.build(tmp_path, "rotation_uniform.cfg")
        clean = tmp_path / "clean"
        clean.mkdir()
        shutil.copy(text, clean / "kernel.txt")  # the text alone: no sidecar, so no cache

        def runs(kernel):
            """(exit code, stderr, report or None) of measure, then of verify, in o."""
            results = []
            for argv in (["measure"], ["verify", "--checks", "lemma1,maximal,periodic", "--trials", "3"]):
                code = main(argv + ["--kernel", str(kernel), "--seed", "1807", "--out", str(tmp_path / "o")])
                report = tmp_path / "o" / f"{argv[0]}_report.txt"
                results.append((code, capsys.readouterr().err, report.read_bytes() if report.is_file() else None))
            return results

        runs(text)
        cache = tmp_path / "o" / "kernel.txt.classes"
        assert cache.is_file()
        CLASS_CACHE_FAULTS[fault](text, cache)
        calls = count_class_work(monkeypatch)
        with deadline():
            got = runs(text)
            solves = calls["_solve_class"]
            assert solves and got == runs(clean / "kernel.txt")

    @pytest.mark.parametrize("argv", [["--kernel", str(DATA / "pipeline_logistic_k64.kernel")],
                                      ["--config", str(DATA / "pipeline_logistic_k64.cfg")]],
                             ids=["parsed_text", "system"])
    def test_a_kernel_without_a_sidecar_gets_no_cache(self, tmp_path, argv):
        for command in (["measure"], ["verify", "--checks", "lemma1"]):
            assert main(command + argv + ["--out", str(tmp_path / "o")]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["measure_report.txt", "verify_report.txt"]


class TestExitCodes:
    def test_verify_all_bundled_swap(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        cfg = bundled("swap.cfg", tmp_path)
        code = main([
            "verify", "--config", str(cfg), "--seed", "42", "--trials", "25",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_verify_all_bundled_rotation(self, tmp_path):
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        code = main([
            "verify", "--config", str(cfg), "--seed", "1", "--trials", "10",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_verify_with_a_stationary_measure_file(self, tmp_path):
        kernel = str(bundled("swap.kernel", tmp_path))
        save_measure(Measure([0.5, 0.5], load_kernel(kernel).partition), tmp_path / "m.txt")
        argv = ["verify", "--kernel", kernel, "--measure", str(tmp_path / "m.txt"), "--seed", "1807"]
        assert main(argv + ["--trials", "5", "--out", str(tmp_path / "o")]) == 0
        assert "[summary]\npassed=12\ntotal=12\n" in (tmp_path / "o" / "verify_report.txt").read_text()

    @pytest.mark.parametrize("check", ["birkhoff", "ergodic_limit", "periodic", "nonconvergence_empty"])
    def test_first_limit_window_past_n_cap_exits_4(self, tmp_path, capsys, check):
        # a period-3 class: the first window spans 2 * 3 steps, past a cap of 5 (n_max may
        # not pass the cap)
        cfg = write_config(tmp_path / "c.cfg", "[checks]\nn_cap = 5\nn_max = 5\n")
        argv = ["verify", "--config", cfg, "--kernel", str(DATA / "cyclic3_k24.kernel"), "--checks", check]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "error: no convergence: time averages not converged at horizon 3: residual inf\n")
        assert not (tmp_path / "o").exists()

    def test_corrupt_kernel_exits_3(self, tmp_path):
        bad = tmp_path / "bad.kernel"
        bad.write_text("not a kernel\n")
        assert main(["verify", "--kernel", str(bad)]) == 3

    def test_bad_row_sum_exits_3(self, tmp_path):
        bad = tmp_path / "bad.kernel"
        bad.write_text(
            "ergodyn-kernel 1\nK 2\ndomain unit_interval\nboundaries 0 0.5 1\n"
            "nnz 2\n0 1 0.5\n1 0 1\n"
        )
        assert main(["verify", "--kernel", str(bad)]) == 3

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "[system]\nmapp = rotation\n")
        assert main(["kernel-build", "--config", cfg]) == 2

    def test_unknown_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "[systems]\nmap = rotation\n")
        assert main(["kernel-build", "--config", cfg]) == 2

    def test_both_sources_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "[system]\nmap = doubling\n[kernel]\npath = x\n"
        )
        assert main(["verify", "--config", cfg]) == 2

    def test_nonconvergent_solver_exits_4(self, rng, tmp_path):
        from ergodyn.cli import save_kernel

        save_kernel(random_kernel(rng, 16), tmp_path / "k.txt")
        cfg = write_config(
            tmp_path / "c.cfg",
            "[kernel]\npath = k.txt\n[solver]\ntol = 1e-15\nmax_iter = 1\n",
        )
        assert main(["measure", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_nonstationary_measure_exits_5(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        mfile = tmp_path / "m.txt"
        mfile.write_text("ergodyn-measure 1\nK 2\n0.9\n0.1\n")
        code = main([
            "verify", "--kernel", str(tmp_path / "swap.kernel"),
            "--measure", str(mfile), "--checks", "maximal",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 5

    def test_failed_check_exits_1(self, tmp_path, monkeypatch):
        # the statements all hold, so exit 1 is exercised with a stub
        import ergodyn.cli as cli
        from ergodyn import CheckReport

        def failing(P, values, weights):
            return [CheckReport("duality", False, 1.0, 0.0, 0.0, None, 1)]

        monkeypatch.setattr(cli, "duality_trials", failing)
        bundled("swap.kernel", tmp_path)
        code = main([
            "verify", "--kernel", str(tmp_path / "swap.kernel"),
            "--checks", "duality", "--seed", "3",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        text = (tmp_path / "out" / "verify_report.txt").read_text()
        assert "passed=false" in text


class TestPeriodicStride:
    """periodic reads P's own squares only at a power-of-two p up to 2^10; at
    any other p it squares the renormalised P^p, and its report is the one
    it had before the pass took groups (the expected sections are that
    code's output)."""

    @pytest.mark.parametrize("source, p, lhs, witnesses, trials", [
        ("rotation_uniform.cfg", 2**70, "9.7144514654701197e-17", range(64), 20),
        ("rotation_uniform.cfg", 10**23, "9.7144514654701197e-17", range(64), 20),
        ("rotation_uniform.cfg", 2**11, "2.1649348980190553e-14", range(64), 20),
        ("cyclic3_k24.kernel", 3, "3.2570734304071536e-14", range(16, 24), 60),
        ("cyclic3_k24.kernel", 6, "3.2563795410167629e-14", range(16, 24), 60),
    ])
    def test_other_p_keep_their_reports(self, tmp_path, source, p, lhs, witnesses, trials):
        if source.endswith(".cfg"):
            cfg = bundled(source, tmp_path)
            cfg.write_text(cfg.read_text().replace("p = 2\n", f"p = {p}\n"))
            argv = ["--config", str(cfg)]
        else:
            argv = ["--config", write_config(tmp_path / "c.cfg", f"[checks]\np = {p}\n"),
                    "--kernel", str(DATA / source)]
        out = tmp_path / "o"
        assert main(["verify", *argv, "--checks", "periodic", "--seed", "1807", "--out", str(out)]) == 0
        assert (out / "verify_report.txt").read_text().endswith(
            f"[check periodic]\nname=ergodic_limit\npassed=true\nlhs={lhs}\nrhs=0\nslack=1e-10\n"
            f"witnesses={','.join(map(str, witnesses))}\niterations_used={trials}\n\n"
            "[summary]\npassed=1\ntotal=1\n")


def child_env(unbuffered):
    """The environment of a ``python -m ergodyn.cli`` child: this source tree
    on its path, and PYTHONUNBUFFERED set only if unbuffered."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


#: A child that runs the cli with duality stubbed to fail its one trial.
FAILING_DUALITY = (
    "import sys\n"
    "from ergodyn import cli, CheckReport\n"
    "cli.duality_trials = lambda *a: [CheckReport('duality', False, 1.0, 0.0, 0.0, None, 1)]\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


class TestFailingEnvironment:
    """A run whose stdout cannot be written has written its outputs; it ends
    with one stderr line and exit 2, as for any output it cannot make, and
    leaves the interpreter nothing to report at exit. A stderr that cannot
    be written loses the error line, not the exit code. An interrupt ends
    with one line and exit 130."""

    @pytest.mark.parametrize("sink", ["/dev/full", "closed"])
    @pytest.mark.parametrize("case, code, unbuffered", [
        ("config", 2, False), ("config", 2, True), ("kernel", 3, False),
        ("precondition", 5, False), ("failed check", 1, False),
    ])
    def test_stderr_that_cannot_be_written_keeps_the_exit_code(self, tmp_path, sink, case, code, unbuffered):
        kernel = bundled("swap.kernel", tmp_path)
        (tmp_path / "bad.kernel").write_text("not a kernel\n")
        (tmp_path / "m.txt").write_text("ergodyn-measure 1\nK 2\n0.9\n0.1\n")
        out = ["--out", str(tmp_path / "o")]
        cli_module = [sys.executable, "-m", "ergodyn.cli"]
        argv = {
            "config": cli_module + ["verify", "--config", str(tmp_path / "missing.cfg")],
            "kernel": cli_module + ["measure", "--kernel", str(tmp_path / "bad.kernel")],
            "precondition": cli_module + ["verify", "--kernel", str(kernel), "--measure",
                                          str(tmp_path / "m.txt"), "--checks", "maximal"],
            "failed check": [sys.executable, "-c", FAILING_DUALITY, "verify", "--kernel", str(kernel),
                             "--checks", "duality", "--seed", "3"],
        }[case] + out
        if sink == "/dev/full":
            stderr = os.open("/dev/full", os.O_WRONLY)
        else:  # the child's stderr is closed, as by a shell's 2>&-
            stderr, argv = None, ["sh", "-c", 'exec "$@" 2>&-', "sh", *argv]
        try:
            run = subprocess.run(argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(unbuffered),
                                 text=True, timeout=60)
        finally:
            if stderr is not None:
                os.close(stderr)
        assert run.returncode == code
        if code == 1:
            assert run.stdout.startswith("verify: 0/1 checks passed -> ")
            assert "passed=false" in (tmp_path / "o" / "verify_report.txt").read_text()
        else:
            assert run.stdout == ""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
    def test_stdout_that_cannot_be_written_exits_2(self, tmp_path, sink, unbuffered):
        cfg = bundled("swap.cfg", tmp_path)
        bundled("swap.kernel", tmp_path)
        argv = ["verify", "--config", str(cfg), "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
        env = child_env(unbuffered)
        if sink == "/dev/full":
            stdout, errno = os.open("/dev/full", os.O_WRONLY), 28
        else:
            read, stdout = os.pipe()
            os.close(read)
            errno = 32
        try:
            run = subprocess.run([sys.executable, "-m", "ergodyn.cli", *argv, "--out", str(tmp_path / "o")],
                                 stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(stdout)
        assert (run.returncode, run.stderr) == (
            2, f"error: invalid configuration: cannot write stdout: [Errno {errno}] {os.strerror(errno)}\n")
        report = (tmp_path / "o" / "verify_report.txt").read_bytes()
        assert report == (tmp_path / "ref" / "verify_report.txt").read_bytes()

    def test_interrupt_exits_130(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "stationary_measures", interrupted)
        argv = ["verify", "--kernel", str(bundled("swap.kernel", tmp_path)), "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")


class TestErrorOrder:
    """verify raises the error of the first check, in the order asked for, that
    fails: the shared passes raise for no column, and each check raises for
    its own columns in its turn. The expected lines are those of running the
    checks one at a time, in the order asked for."""

    @pytest.mark.parametrize("lines, checks, code, message", [
        # neither limit settles under the cap; the error names the first column of the check
        # asked for first
        ("n_cap = 4\nn_max = 4\n", "birkhoff,nonconvergence_empty", 4,
         "no convergence: time averages not converged at horizon 4: residual 4.669e-01"),
        ("n_cap = 4\nn_max = 4\n", "nonconvergence_empty,birkhoff", 4,
         "no convergence: time averages not converged at horizon 4: residual 4.213e-01"),
        # birkhoff settles at tol 1e-3; nonconvergence_empty's columns, at the inner tol, do not
        ("n_cap = 128\nn_max = 16\ntol = 1e-3\n", "birkhoff,nonconvergence_empty", 4,
         "no convergence: time averages not converged at horizon 128: residual 3.081e-04"),
    ])
    def test_first_failing_check_raises(self, tmp_path, capsys, lines, checks, code, message):
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        cfg.write_text(cfg.read_text().replace("[checks]\n", f"[checks]\n{lines}"))
        argv = ["verify", "--config", str(cfg), "--checks", checks, "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_precondition_after_the_shared_pass(self, tmp_path, capsys):
        # two closed classes and a measure that mixes their measures: birkhoff (on the mixture
        # of every measure) runs the limit pass over all three checks' columns and passes,
        # then ergodic_limit finds its measure, the one given, not ergodic
        kernel, measure = tmp_path / "k.txt", tmp_path / "m.txt"
        kernel.write_text("ergodyn-kernel 1\nK 4\ndomain unit_interval\nboundaries 0 0.25 0.5 0.75 1\n"
                          "nnz 8\n0 0 0.5\n0 1 0.5\n1 0 0.5\n1 1 0.5\n"
                          "2 2 0.5\n2 3 0.5\n3 2 0.5\n3 3 0.5\n")
        measure.write_text("ergodyn-measure 1\nK 4\n0.25\n0.25\n0.25\n0.25\n")
        argv = ["verify", "--kernel", str(kernel), "--measure", str(measure), "--seed", "1807"]
        alone = {check: (main(argv + ["--checks", check, "--out", str(tmp_path / check)]),
                         capsys.readouterr().err)
                 for check in ("birkhoff", "ergodic_limit", "nonconvergence_empty")}
        assert alone == {"birkhoff": (0, ""),
                         "ergodic_limit": (5, "error: precondition violated: measure is not ergodic\n"),
                         "nonconvergence_empty": (0, "")}
        checks = "birkhoff,ergodic_limit,nonconvergence_empty"
        assert main(argv + ["--checks", checks, "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == alone["ergodic_limit"][1]
        assert not (tmp_path / "o").exists()


#: Valid kernels with an entry of 1e-16 inside a closed class {0, 1}; the
#: second adds the swap {2, 3} as a second class.
TINY_EDGE_KERNELS = {
    "one_class_k3": "K 3\ndomain unit_interval\nboundaries 0 0.33333333333333331 0.66666666666666663 1\n"
                    "nnz 5\n0 0 0.99999999999999989\n0 1 1.0000000000000001e-16\n1 0 1\n"
                    "2 1 0.5\n2 2 0.5\n",
    "two_classes_k4": "K 4\ndomain unit_interval\nboundaries 0 0.25 0.5 0.75 1\n"
                      "nnz 5\n0 0 0.99999999999999989\n0 1 1.0000000000000001e-16\n1 0 1\n"
                      "2 3 1\n3 2 1\n",
}


class TestOneClassStructure:
    """measure and every verify check read the closed classes of the exact
    support graph, found once per kernel."""

    @pytest.mark.parametrize("name", TINY_EDGE_KERNELS)
    def test_tiny_edge_inside_a_class_verifies(self, tmp_path, name):
        # with classes taken above a threshold of 1e-14, state 0 alone was "closed" and every
        # check over the classes found it not invariant (exit 5)
        kernel = tmp_path / "k.txt"
        kernel.write_text("ergodyn-kernel 1\n" + TINY_EDGE_KERNELS[name])
        argv = ["verify", "--kernel", str(kernel), "--checks", "all", "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0

    def test_verify_finds_the_classes_once(self, tmp_path, monkeypatch):
        calls = []
        find = measures._closed_classes_on

        def counted(*args):
            calls.append(1)
            return find(*args)

        monkeypatch.setattr(measures, "_closed_classes_on", counted)
        argv = ["verify", "--kernel", str(DATA / "cyclic3_k24.kernel"),
                "--checks", "corollary_c,localization,levelsets", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == 1


SWAP_HEADER = "ergodyn-kernel 1\nK 2\ndomain unit_interval\nboundaries 0 0.5 1\n"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOutputErrors:
    """An output location that cannot be written exits 2 with a one-line error."""

    @pytest.mark.parametrize("command", ["kernel-build", "measure", "verify", "simulate"])
    def test_out_naming_a_regular_file_exits_2(self, tmp_path, capsys, command):
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = [command, "--config", str(cfg), "--out", str(blocker)]
        if command != "kernel-build":
            argv += ["--kernel", str(bundled("swap.kernel", tmp_path))]
        if command in ("verify", "simulate"):
            argv += ["--trials", "2"]
        assert main(argv) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, output", [
        ("kernel-build", "kernel.txt"), ("measure", "measure_report.txt"),
        ("verify", "verify_report.txt"), ("simulate", "estimates.csv"),
    ])
    def test_output_file_that_cannot_be_written_exits_2(self, tmp_path, capsys, command, output):
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)  # a directory where the file goes
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command != "kernel-build":
            argv += ["--kernel", str(bundled("swap.kernel", tmp_path))]
        if command in ("verify", "simulate"):
            argv += ["--trials", "2"]
        assert main(argv) == 2
        assert_one_line_error(capsys)


class TestInvalidData:
    def test_kernel_header_k_disagrees_with_boundaries_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.kernel"
        bad.write_text(
            "ergodyn-kernel 1\nK 3\ndomain unit_interval\nboundaries 0 0.5 1\n"
            "nnz 3\n0 1 1\n1 0 1\n2 2 1\n"
        )
        assert main(["measure", "--kernel", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert_one_line_error(capsys)

    def test_measure_of_wrong_length_exits_3(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        mfile = tmp_path / "m.txt"
        mfile.write_text("ergodyn-measure 1\nK 3\n0.2\n0.3\n0.5\n")
        code = main([
            "measure", "--kernel", str(tmp_path / "swap.kernel"),
            "--measure", str(mfile), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("records", [
        "nnz 2\n0 1 1\n-1 0 1\n",     # negative row, once aliased to row K-1
        "nnz 2\n0 -1 1\n1 0 1\n",     # negative column
        "nnz 2\n0 1 1\n2 0 1\n",      # row past K-1
        "nnz 2\n0 2 1\n1 0 1\n",      # column past K-1
        "nnz 3\n0 1 1\n1 0 0.5\n1 0 1\n",  # duplicate record, once last-wins
    ])
    def test_bad_records_exit_3(self, tmp_path, capsys, records):
        bad = tmp_path / "bad.kernel"
        bad.write_text(SWAP_HEADER + records)
        assert main(["measure", "--kernel", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert_one_line_error(capsys)


    @pytest.mark.parametrize("line_no, replacement", [
        (0, "ergodyn-kernel 2"),
        (1, "X 2"),
        (2, "foo unit_interval"),
        (3, "bar 0 0.5 1"),
        (4, "baz 2"),
        (1, "K 2 2"),
        (4, "nnz"),
    ])
    def test_kernel_header_keywords_checked(self, tmp_path, capsys, line_no, replacement):
        lines = (SWAP_HEADER + "nnz 2\n0 1 1\n1 0 1\n").splitlines()
        lines[line_no] = replacement
        bad = tmp_path / "bad.kernel"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["measure", "--kernel", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("text", [
        "ergodyn-measure 1\nK 2\n0.5\n0.5\n0.0\n",  # one weight more than K
        "ergodyn-measure 1\nK 2\n0.5\n0.5\n0.5\n0.5\n",
        "ergodyn-measure 1\nN 2\n0.5\n0.5\n",  # keyword is not K
    ])
    def test_measure_file_beyond_its_header_exits_3(self, tmp_path, capsys, text):
        bundled("swap.kernel", tmp_path)
        mfile = tmp_path / "m.txt"
        mfile.write_text(text)
        code = main([
            "measure", "--kernel", str(tmp_path / "swap.kernel"),
            "--measure", str(mfile), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert_one_line_error(capsys)


class TestInvalidConfiguration:
    @pytest.mark.parametrize("spec", ["indicator:2", "indicator:7", "indicator:-1", "indicator:x"])
    def test_observable_outside_kernel_exits_2(self, tmp_path, capsys, spec):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", f"[kernel]\npath = swap.kernel\n[mc]\nobservable = {spec}\n"
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    def test_indicator_in_range_accepted(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg",
            "[kernel]\npath = swap.kernel\n[mc]\nobservable = indicator:1\nn_samples = 10\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "estimates.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "0"  # (L^0 chi_1)(0) = 0

    @pytest.mark.parametrize("command", ["kernel-build", "measure", "verify", "simulate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_exits_2(self, tmp_path, capsys, command, seed):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg",
            "[system]\nmap = doubling\n[partition]\ndomain = circle\ncells = 4\n"
            if command == "kernel-build" else "[kernel]\npath = swap.kernel\n",
        )
        code = main([command, "--config", cfg, "--seed", seed, "--out", str(tmp_path / "o")])
        assert code == 2
        assert_one_line_error(capsys)

    def test_config_seed_outside_u64_exits_2(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[mc]\nmaster_seed = -5\n"
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_trials_below_one_exits_2(self, tmp_path, capsys, trials):
        bundled("swap.kernel", tmp_path)
        code = main([
            "verify", "--kernel", str(tmp_path / "swap.kernel"), "--trials", trials,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert_one_line_error(capsys)

    def test_config_trials_below_one_exits_2(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[checks]\ntrials = 0\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    def test_simulate_trials_below_one_exits_2(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        code = main([
            "simulate", "--kernel", str(tmp_path / "swap.kernel"), "--trials", "-3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o" / "trajectories.csv").exists()

    def test_config_trajectories_below_one_exits_2(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[mc]\ntrajectories = 0\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["measure", "verify"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "-inf", "inf"])
    def test_tol_not_positive_exits_2(self, tmp_path, capsys, command, tol):
        bundled("swap.kernel", tmp_path)
        code = main([
            command, "--kernel", str(tmp_path / "swap.kernel"), f"--tol={tol}",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["solver", "checks"])
    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_config_tol_not_positive_exits_2(self, tmp_path, capsys, section, tol):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", f"[kernel]\npath = swap.kernel\n[{section}]\ntol = {tol}\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["measure", "verify"])
    @pytest.mark.parametrize("section, line", [
        ("solver", "tol = inf"), ("checks", "tol = inf"),
        ("solver", "max_iter = 0"), ("solver", "max_iter = -4"),
        ("checks", "n_max = 0"), ("checks", "n_cap = 1"), ("checks", "n_cap = -5"),
    ])
    def test_unusable_tolerance_cap_or_level_exits_2(self, tmp_path, capsys, command, section, line):
        # an infinite tolerance passed every check, and a cap below its least ran no window at all
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        text = cfg.read_text()
        if section == "checks":
            text = text.replace("[checks]\n", f"[checks]\n{line}\n")
        else:
            text += f"\n[{section}]\n{line}\n"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("checks, line, message", [
        ("birkhoff", "n_cap = -5", "n_cap in [checks] must be at least 4, got -5"),
        ("birkhoff", "n_cap = 2", "n_cap in [checks] must be at least 4, got 2"),
        ("birkhoff", "n_cap = 3", "n_cap in [checks] must be at least 4, got 3"),
        ("lemma1", "n_max = 0", "n_max in [checks] must be at least 1, got 0"),
    ])
    def test_config_horizon_below_its_least_exits_2(self, tmp_path, capsys, checks, line, message):
        # no limit converges under the cap (that needs windows at horizons 2L and 4L), and
        # lemma1 reads no n_max: both are still configuration errors, not a failed solve or a pass
        bundled("swap.kernel", tmp_path)
        cfg = bundled("swap.cfg", tmp_path)
        cfg.write_text(cfg.read_text().replace("[checks]\n", f"[checks]\n{line}\n"))
        argv = ["verify", "--config", str(cfg), "--checks", checks, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("checks", ["lemma1", "maximal"])
    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_verify_n_max_below_one_exits_2(self, tmp_path, capsys, checks, n_max):
        bundled("swap.kernel", tmp_path)
        argv = ["verify", "--kernel", str(tmp_path / "swap.kernel"), "--checks", checks, "--n-max", n_max]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid configuration: --n-max must be at least 1, got {n_max}\n")
        assert not (tmp_path / "o").exists()

    def test_least_horizons_are_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "[kernel]\npath = k.txt\n[checks]\nn_max = 1\nn_cap = 4\n")
        checks = load_config(cfg)["checks"]
        assert (checks["n_max"], checks["n_cap"]) == (1, 4)

    @pytest.mark.parametrize("line, flag, message", [
        ("", None, None),
        ("n_max = 100000000000\n", None,
         "n_max in [checks] must be at most n_cap (1048576), got 100000000000"),
        ("", "100000000000", "--n-max must be at most n_cap (1048576), got 100000000000"),
        ("n_cap = 8\nn_max = 9\n", None, "n_max in [checks] must be at most n_cap (8), got 9"),
        ("n_cap = 8\nn_max = 8\n", "9", "--n-max must be at most n_cap (8), got 9"),
        # a flag within the cap does not rescue a config value past it
        ("n_cap = 64\nn_max = 100\n", "10", "n_max in [checks] must be at most n_cap (64), got 100"),
        ("n_cap = 8\nn_max = 8\n", None, None),
    ])
    def test_n_max_above_n_cap_exits_2_at_once(self, tmp_path, capsys, line, flag, message):
        # the partial-sum loop takes one product per term: at n_max = 10^11 it ran until killed
        bundled("swap.kernel", tmp_path)
        cfg = bundled("swap.cfg", tmp_path)
        cfg.write_text(cfg.read_text().replace("[checks]\n", f"[checks]\n{line}"))
        argv = ["verify", "--config", str(cfg), "--checks", "maximal", "--out", str(tmp_path / "o")]
        with deadline(10):
            code = main(argv + (["--n-max", flag] if flag else []))
        if message is None:
            assert code == 0
        else:
            assert code == 2
            assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("noise, key", [("uniform", "half_width"), ("wrapped_gaussian", "sigma")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_parameter_exits_2(self, tmp_path, capsys, noise, key, value):
        cfg = write_config(
            tmp_path / "c.cfg",
            f"[system]\nmap = rotation\nalpha = 0.37\nnoise = {noise}\n{key} = {value}\n"
            "[partition]\ndomain = circle\ncells = 16\n",
        )
        assert main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, body", [
        ("simulate", "[kernel]\npath = swap.kernel\n[mc]\nn_samples = 1000000000000000\n"),
        ("kernel-build", "[system]\nmap = doubling\n[partition]\ndomain = circle\n"
                         "cells = 1000000000000000\n"),
        ("verify", "[kernel]\npath = swap.kernel\n[checks]\nnames = duality\ntrials = 1000000000000000\n"),
        ("verify", "[kernel]\npath = swap.kernel\n[checks]\nnames = corollary_c\n"
                   "trials = 4611686018427387904\n"),
        *[(command, body.format(n=n)) for n in (2**62, 2**63) for command, body in (
            ("kernel-build", "[system]\nmap = doubling\nquadrature = {n}\n"
                             "[partition]\ndomain = circle\ncells = 16\n"),
            ("kernel-build", "[system]\nmap = doubling\n[partition]\ndomain = circle\ncells = {n}\n"),
            ("simulate", "[kernel]\npath = swap.kernel\n[mc]\nsteps = {n}\n"),
            ("simulate", "[kernel]\npath = swap.kernel\n[mc]\ntrajectories = {n}\n"),
            ("simulate", "[kernel]\npath = swap.kernel\n[mc]\nn_samples = {n}\n"),
        )],
    ], ids=["n_samples", "cells", "trials", "trials_past_address_space"] + [
        f"{key}_2^{e}" for e in (62, 63) for key in ("quadrature", "cells", "steps", "trajectories", "n_samples")
    ])
    def test_size_beyond_memory_exits_2(self, tmp_path, capsys, command, body):
        # 10**15 eight-byte slots exceed any memory: the allocation fails at once. 2^62 and
        # 2^63 slots exceed the address space, where NumPy raises ValueError or, for an
        # arange past int64, returns an empty array; they are rejected before any allocation.
        # A check draws its whole trial block in one call, before any trial runs.
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_wrapped_gaussian_beyond_the_limit_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[system]\nmap = rotation\nalpha = 0.37\nnoise = wrapped_gaussian\nsigma = 1e5\n"
            "boundary = wrap\n[partition]\ndomain = circle\ncells = 16\n",
        )
        assert main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds 10" in err, err

    @pytest.mark.parametrize("system", [
        "noise = none",
        "map = tent",
        "map = rotation",
        "map = piecewise_linear\nbreakpoints = 0.5",
        "map = doubling\nnoise = cauchy",
        "map = doubling\nnoise = uniform\nsigma = 0.1",
        "map = doubling\nnoise = wrapped_gaussian",
    ])
    def test_unknown_or_incomplete_system_exits_2(self, tmp_path, capsys, system):
        cfg = write_config(
            tmp_path / "c.cfg", f"[system]\n{system}\n[partition]\ndomain = circle\ncells = 16\n"
        )
        assert main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("checks", [",", " , ", "lemma1,lemma1", "duality,lemma1,duality",
                                        "lemma1,nosuch"])
    def test_empty_or_repeated_check_list_exits_2(self, tmp_path, capsys, checks):
        bundled("swap.kernel", tmp_path)
        code = main([
            "verify", "--kernel", str(tmp_path / "swap.kernel"), "--checks", checks,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, body, message", [
        ("kernel-build", "[partition]\ndomain = circle\ncells = many\n",
         "key 'cells' in [partition]: cannot parse 'many'"),
        ("kernel-build", "no section header\n", "cannot parse config"),
        ("kernel-build", "[system]\nmap = doubling\n[partition]\ndomain = circle\n",
         "section [partition] needs 'domain' and 'cells'"),
        ("measure", "[kernel]\n", "section [kernel] needs a 'path' key"),
        ("measure", "[checks]\np = 2\n", "no kernel source"),
        ("simulate", "", "no kernel source"),
    ])
    def test_incomplete_config_exits_2(self, tmp_path, capsys, command, body, message):
        cfg = write_config(tmp_path / "c.cfg", body)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["kernel-build", "measure", "verify", "simulate"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "dir.cfg").mkdir()
        for cfg in (tmp_path / "missing.cfg", tmp_path / "dir.cfg"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err == f"error: invalid configuration: cannot read config file {cfg}\n"

    def test_config_repeated_check_names_exit_2(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[checks]\nnames = maximal, maximal\n"
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_error(capsys)

    def test_output_formats_is_an_unknown_key(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(
            tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[output]\nformats = report,csv\n"
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'formats'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        # the closed classes are those of the exact support graph; no threshold splits them
        "edge_threshold = 1e-14",
        # each check takes its level from its statement or its draws
        "alpha = 0.1", "alpha = nan", "alpha = inf", "beta = -0.1", "beta = nan", "beta = -inf",
    ])
    def test_retired_key_is_an_unknown_key(self, tmp_path, capsys, line):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", f"[kernel]\npath = swap.kernel\n[checks]\n{line}\n")
        key = line.split(" = ")[0]
        for command in COMMANDS:
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, command
            assert capsys.readouterr().err == (
                f"error: invalid configuration: unknown key {key!r} in section [checks]\n")
        assert not (tmp_path / "o").exists()

    def test_largest_u64_seed_accepted(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        code = main([
            "simulate", "--kernel", str(tmp_path / "swap.kernel"), "--seed", str(2**64 - 1),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0


COMMANDS = ("kernel-build", "measure", "verify", "simulate")
#: Values that no key of each kind parses.
UNPARSEABLE = {int: ("many", "1.5"), float: ("many", "1,5"), "floats": ("0.5 many",)}
NON_FINITE = ("nan", "inf", "-inf", "1e400")
#: Ints at and past the edges of int64 and uint64.
HUGE_INTS = (2**62, 2**63, 2**64)
#: A valid value of each numeric [system] key, for the map or noise law that takes it.
SYSTEM_VALUES = {"alpha": "0.37", "r": "3.9", "breakpoints": "0.5", "slopes": "2 -2",
                 "half_width": "0.1", "sigma": "0.01"}


def schema_keys(*kinds, sections=None):
    """(section, key) of every ``_SCHEMA`` key of the given kinds."""
    return [(section, key) for section, keys in cli._SCHEMA.items() for key, (kind, *_) in keys.items()
            if kind in kinds and (sections is None or section in sections)]


def system_config(key, value):
    """A kernel-build config that builds with SYSTEM_VALUES and differs from
    that one only in ``key = value``."""
    maps = [name for name, params in MAP_PARAMS.items() if key in params] or ["doubling"]
    noises = [name for name, (_, params) in NOISE_PARAMS.items() if key in params]
    lines = [f"map = {maps[0]}"] + [f"noise = {noise}" for noise in noises[:1]]
    params = MAP_PARAMS[maps[0]] if key in MAP_PARAMS[maps[0]] else (key,)
    lines += [f"{k} = {value if k == key else SYSTEM_VALUES[k]}" for k in params]
    return "[system]\n" + "\n".join(lines) + "\n[partition]\ndomain = circle\ncells = 16\n"


def huge_int_config(tmp_path, section, key, value) -> str:
    """A config that sets one int key of ``_SCHEMA`` to value: the [system]
    and [partition] keys on the control config that ``system_config`` builds,
    every other key on bundled swap.cfg."""
    if section in ("system", "partition"):
        text = system_config("quadrature", "16")
        old = "cells = 16\n" if key == "cells" else "quadrature = 16\n"
        return write_config(tmp_path / "c.cfg", text.replace(old, f"{key} = {value}\n"))
    bundled("swap.kernel", tmp_path)
    cfg = bundled("swap.cfg", tmp_path)
    text, line = cfg.read_text(), f"{key} = {value}\n"
    if key == "p":  # swap.cfg sets p already; configparser rejects a second one
        text = text.replace("p = 2\n", line)
    elif section == "checks":
        text = text.replace("[checks]\n", "[checks]\n" + line)
    else:
        text += f"\n[{section}]\n{line}"
    cfg.write_text(text)
    return str(cfg)


class TestConfigFromSchema:
    """Every numeric key of ``_SCHEMA`` rejects a value it cannot use with
    exit 2 and one line, in each command that reads it."""

    @pytest.mark.parametrize("section, key", schema_keys(int))
    @pytest.mark.parametrize("value", HUGE_INTS)
    def test_huge_int_ends_with_0_or_2(self, tmp_path, capsys, section, key, value):
        # a run either takes the value or rejects it with one line; none may crash or run on
        cfg = huge_int_config(tmp_path, section, key, value)
        for command in COMMANDS:
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) in (0, 2), command
            err = capsys.readouterr().err
            assert err.count("\n") <= 1 and "Traceback" not in err, (command, err)

    @pytest.mark.parametrize("section, key, raw", [
        (section, key, raw) for kind, values in UNPARSEABLE.items()
        for section, key in schema_keys(kind) for raw in values
    ])
    def test_unparseable_value_exits_2(self, tmp_path, capsys, section, key, raw):
        cfg = write_config(tmp_path / "c.cfg", f"[{section}]\n{key} = {raw}\n")
        for command in COMMANDS:
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, command
            assert capsys.readouterr().err == (
                f"error: invalid configuration: key {key!r} in [{section}]: cannot parse {raw!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", schema_keys(float, "floats", sections=("solver", "checks")))
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_value_exits_2_at_load(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "c.cfg", f"[{section}]\n{key} = {value}\n")
        for command in COMMANDS:
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid configuration: {key} in [{section}] must be finite")
            assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", [key for _, key in schema_keys(float, "floats", sections=("system",))])
    def test_non_finite_system_value_exits_2(self, tmp_path, capsys, key):
        argv = ["kernel-build", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]
        write_config(tmp_path / "c.cfg", system_config(key, SYSTEM_VALUES[key]))
        assert main(argv) == 0  # the same config with a usable value builds
        shutil.rmtree(tmp_path / "o")
        capsys.readouterr()
        for value in NON_FINITE:
            write_config(tmp_path / "c.cfg", system_config(key, value))
            assert main(argv) == 2, value
            assert_one_line_error(capsys)
            assert not (tmp_path / "o").exists()


class TestArgumentParsing:
    """main(argv) returns argparse's exit code instead of raising SystemExit."""

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["verify", "--help"]])
    def test_version_and_help_return_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "--seed", "abc"],
        ["simulate", "--trials", "many"],
        ["no-such-command"],
        [],
    ])
    def test_bad_usage_returns_2(self, capsys, argv):
        assert main(argv) == 2
        assert "usage:" in capsys.readouterr().err

    def test_seed_error_names_the_type(self, capsys):
        assert main(["verify", "--seed", "abc"]) == 2
        assert "invalid integer value: 'abc'" in capsys.readouterr().err


#: command -> the flags it takes; every command takes --config, --out and --seed.
FLAGS = {
    "kernel-build": {"--config", "--out", "--seed"},
    "measure": {"--config", "--out", "--seed", "--kernel", "--tol", "--measure"},
    "verify": {"--config", "--out", "--seed", "--kernel", "--tol", "--measure",
               "--n-max", "--trials", "--checks"},
    "simulate": {"--config", "--out", "--seed", "--kernel", "--trials"},
}


def report_hash(out_dir, name):
    """The config_hash line of a report."""
    return [ln for ln in (Path(out_dir) / name).read_text().splitlines() if ln.startswith("config_hash=")]


class TestCommandFlags:
    """Each command takes only the flags it reads, and a flag that sets a
    config key enters the report's config hash."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_command_takes_only_its_flags(self, capsys, command):
        for flag in sorted(set().union(*FLAGS.values())):
            if flag in FLAGS[command]:
                cli.build_parser().parse_args([command, flag, "1"])
            else:
                assert main([command, flag, "1"]) == 2
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--tol", "-5", "--n-max", "0", "--checks", "nonsense", "--measure", "nofile"],
        ["kernel-build", "--kernel", "nofile", "--trials", "-3", "--tol", "nan"],
    ])
    def test_flags_a_command_ignored_are_usage_errors(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_measure_tol_enters_the_config_hash(self, tmp_path):
        kernel = str(bundled("swap.kernel", tmp_path))
        hashes = []
        for sub, tol in (("default", []), ("a", ["--tol", "1e-3"]), ("b", ["--tol", "1e-6"])):
            assert main(["measure", "--kernel", kernel, "--out", str(tmp_path / sub)] + tol) == 0
            hashes += report_hash(tmp_path / sub, "measure_report.txt")
        assert len(set(hashes)) == 3

    @pytest.mark.parametrize("command, flag, section, key, value", [
        ("measure", "--tol", "solver", "tol", "1e-6"),
        ("verify", "--tol", "checks", "tol", "1e-6"),
        ("verify", "--n-max", "checks", "n_max", "7"),
        ("verify", "--trials", "checks", "trials", "3"),
    ])
    def test_flag_gives_the_report_of_its_config_key(self, tmp_path, command, flag, section, key, value):
        bundled("swap.kernel", tmp_path)
        base = f"[kernel]\npath = swap.kernel\n[{section}]\n"
        argv = [command, "--seed", "1807", "--config"]
        assert main(argv + [write_config(tmp_path / "a.cfg", base), flag, value,
                            "--out", str(tmp_path / "a")]) == 0
        assert main(argv + [write_config(tmp_path / "b.cfg", base + f"{key} = {value}\n"),
                            "--out", str(tmp_path / "b")]) == 0
        name = f"{command}_report.txt"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


#: (section, key) of every key that ``_SCHEMA`` bounds.
BOUNDED = [(section, key) for section, keys in cli._SCHEMA.items() for key, row in keys.items() if row[2:]]

#: (command, flag, section, key) of every flag that sets a config key.
KEY_FLAGS = [(command, flag, *key) for command, (_, _, flags) in cli._COMMANDS.items()
             for flag, key in flags.items() if key]
KEY_FLAG_IDS = [f"{command}{flag}" for command, flag, _, _ in KEY_FLAGS]


def below_bound(section, key) -> str:
    """A value just outside a key's ``_SCHEMA`` bound."""
    least = cli._SCHEMA[section][key][2]
    return "0" if least == "positive" else str(least - 1)


def within_bound(section, key) -> str:
    """A value inside a key's ``_SCHEMA`` bound, and under the default n_cap."""
    return "1e-9" if cli._SCHEMA[section][key][2] == "positive" else "5"


class TestKeyFlags:
    """A flag that sets a config key is held to the key's ``_SCHEMA`` bound,
    under the flag's name, in the one check that every command runs before
    it reads a kernel. The config's own value is held to the bound as the
    file gives it, so no flag rescues a bad one."""

    @pytest.mark.parametrize("command, flag, section, key", KEY_FLAGS, ids=KEY_FLAG_IDS)
    def test_flag_below_its_bound_exits_2_naming_the_flag(self, tmp_path, capsys, command, flag, section, key):
        bundled("swap.kernel", tmp_path)
        argv = [command, "--kernel", str(tmp_path / "swap.kernel"), flag, below_bound(section, key)]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration: {flag} must be ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, section, key", KEY_FLAGS, ids=KEY_FLAG_IDS)
    def test_config_value_below_its_bound_exits_2_in_every_command(self, tmp_path, capsys, command, flag,
                                                                    section, key):
        cfg = write_config(tmp_path / "c.cfg", f"[{section}]\n{key} = {below_bound(section, key)}\n")
        for each in COMMANDS:
            assert main([each, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, each
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid configuration: {key} in [{section}] must be "), (each, err)
            assert err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, section, key", KEY_FLAGS, ids=KEY_FLAG_IDS)
    def test_flag_does_not_rescue_a_bad_config_value(self, tmp_path, capsys, command, flag, section, key):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", f"[kernel]\npath = swap.kernel\n"
                                               f"[{section}]\n{key} = {below_bound(section, key)}\n")
        argv = [command, "--config", cfg, flag, within_bound(section, key), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid configuration: {key} in [{section}] must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["measure", "--seed", str(2**64)], ["verify", "--tol", "0"], ["simulate", "--trials", "0"],
    ])
    def test_bad_setting_wins_over_a_bad_kernel(self, tmp_path, capsys, argv):
        # settings are resolved before the kernel is read: exit 2, not 3
        kernel = ["--kernel", str(tmp_path / "missing.kernel")]
        assert main(argv + kernel + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid configuration: ")

    @pytest.mark.parametrize("section, key", BOUNDED, ids=[f"{s}.{k}" for s, k in BOUNDED])
    def test_config_value_below_its_bound_wins_over_a_bad_kernel(self, tmp_path, capsys, section, key):
        # every bounded key, flag or none, such as [checks] p, which only some commands read
        cfg = write_config(tmp_path / "c.cfg", f"[{section}]\n{key} = {below_bound(section, key)}\n")
        for command in COMMANDS:
            kernel = [] if command == "kernel-build" else ["--kernel", str(tmp_path / "missing.kernel")]
            assert main([command, "--config", cfg, *kernel, "--out", str(tmp_path / "o")]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid configuration: {key} in [{section}] must be "), err
            assert err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_period_below_one_exits_2_where_no_check_reads_it(self, tmp_path, capsys):
        bundled("swap.kernel", tmp_path)
        cfg = write_config(tmp_path / "c.cfg", "[kernel]\npath = swap.kernel\n[checks]\np = 0\n")
        assert main(["verify", "--config", cfg, "--checks", "lemma1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: invalid configuration: p in [checks] must be at least 1, got 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flag, message", [
        ("", "bogus", "unknown checks: bogus"),
        ("", ",", "no check named in ','"),
        ("", "lemma1,maximal,lemma1", "checks named more than once: lemma1"),
        ("names = lemma1,bogus\n", None, "unknown checks: bogus"),
    ])
    def test_bad_check_name_wins_over_a_bad_kernel(self, tmp_path, capsys, config, flag, message):
        cfg = write_config(tmp_path / "c.cfg", f"[checks]\n{config}")
        argv = ["verify", "--config", cfg, "--kernel", str(tmp_path / "missing.kernel")]
        argv += ["--checks", flag] if flag else []
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not (tmp_path / "o").exists()


class TestKernelBuild:
    def test_build_writes_kernel(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[system]\nmap = rotation\nalpha = 0.25\nnoise = none\n"
            "[partition]\ndomain = circle\ncells = 4\n",
        )
        code = main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "K=4" in out and "nnz=4" in out
        P = load_kernel(tmp_path / "o" / "kernel.txt")
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, (i + 1) % 4] = 1.0
        assert np.array_equal(P.to_dense(), expected)

    def test_build_without_system_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "[solver]\ntol = 1e-10\n")
        assert main(["kernel-build", "--config", cfg]) == 2

    def test_doubling_uniform_build(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[system]\nmap = doubling\nnoise = uniform\nhalf_width = 0.1\n"
            "[partition]\ndomain = circle\ncells = 256\n",
        )
        code = main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        P = load_kernel(tmp_path / "o" / "kernel.txt")
        dense = P.to_dense()
        assert np.abs(dense.sum(axis=1) - 1).max() <= 1e-12


    @pytest.mark.parametrize("half_width", ["1e6", "1e308"])
    def test_uniform_noise_wider_than_the_circle_builds_fast(self, tmp_path, half_width):
        cfg = write_config(
            tmp_path / "c.cfg",
            f"[system]\nmap = rotation\nalpha = 0.37\nnoise = uniform\nhalf_width = {half_width}\n"
            "boundary = wrap\n[partition]\ndomain = circle\ncells = 16\n",
        )
        start = time.perf_counter()
        assert main(["kernel-build", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        P = load_kernel(tmp_path / "o" / "kernel.txt")
        assert np.abs(np.add.reduceat(P.data, P.indptr[:-1]) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("config, golden", [
        ("pipeline_logistic_k64.cfg", "pipeline_logistic_k64.kernel"),
        ("doubling_gaussian_k64.cfg", "doubling_gaussian_k64.kernel"),
        ("rotation_uniform.cfg", "rotation_uniform.kernel"),
    ])
    def test_build_matches_golden_kernel_file(self, tmp_path, config, golden):
        # golden files written by the dense-row Ulam assembly that the windowed one replaced;
        # the bundled rotation config is also the rotation benchmark workload at K=64
        cfg = DATA / config if (DATA / config).exists() else bundled(config, tmp_path)
        assert main(["kernel-build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "kernel.txt").read_bytes() == (DATA / golden).read_bytes()


class TestMeasureCommand:
    def test_identity_three_measures(self, tmp_path):
        save_kernel(kernel_from_rows(np.eye(3)), tmp_path / "k.txt")
        code = main([
            "measure", "--kernel", str(tmp_path / "k.txt"), "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        text = (tmp_path / "o" / "measure_report.txt").read_text()
        assert "stationary_count=3" in text
        assert text.count("ergodic=true") == 3

    def test_decomposition_weights(self, tmp_path):
        P = kernel_from_rows([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
        save_kernel(P, tmp_path / "k.txt")
        save_measure(Measure([0.25, 0.75, 0.0], P.partition), tmp_path / "m.txt")
        code = main([
            "measure", "--kernel", str(tmp_path / "k.txt"),
            "--measure", str(tmp_path / "m.txt"), "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        text = (tmp_path / "o" / "measure_report.txt").read_text()
        assert "weight_0=0.25" in text
        assert "weight_1=0.75" in text

    def test_swap_periodic_section(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        code = main([
            "measure", "--kernel", str(tmp_path / "swap.kernel"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        text = (tmp_path / "o" / "measure_report.txt").read_text()
        assert "[periodic p=2]" in text
        assert "minimal_period_0=2" in text
        assert "minimal_period_1=2" in text

    @pytest.mark.parametrize("p", [10**18, 10**23])
    def test_huge_period_on_the_rotation(self, tmp_path, p):
        # P^p is never formed: only gcd(p, d) enters, so a huge p is as cheap as p = 2
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        kernel = str(DATA / "rotation_uniform.kernel")
        assert main(["measure", "--config", str(cfg), "--kernel", kernel, "--out", str(tmp_path / "two")]) == 0
        cfg.write_text(cfg.read_text().replace("p = 2\n", f"p = {p}\n"))
        start = time.perf_counter()
        assert main(["measure", "--config", str(cfg), "--kernel", kernel, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        got = periodic_section(tmp_path / "o")
        assert got["count"] == "1" and got["minimal_period_0"] == "1"
        assert got["support_0"] == periodic_section(tmp_path / "two")["support_0"]

    @pytest.mark.parametrize("p", [10**18, 10**23])
    def test_huge_period_check_on_the_rotation(self, tmp_path, p):
        # P^p's products are renormalised as they form, so row sums cannot drift as (1+eps)^p
        cfg = bundled("rotation_uniform.cfg", tmp_path)
        cfg.write_text(cfg.read_text().replace("p = 2\n", f"p = {p}\n"))
        kernel = str(DATA / "rotation_uniform.kernel")
        argv = ["verify", "--config", str(cfg), "--kernel", kernel, "--checks", "periodic", "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert "[summary]\npassed=1\ntotal=1\n" in (tmp_path / "o" / "verify_report.txt").read_text()

    @pytest.mark.parametrize("p, count", [(3 * 10**17, 3), (10**18, 1)])
    def test_huge_period_on_a_three_cyclic_kernel(self, tmp_path, p, count):
        cfg = write_config(tmp_path / "c.cfg", f"[checks]\np = {p}\n")
        kernel = str(DATA / "cyclic3_k24.kernel")
        start = time.perf_counter()
        assert main(["measure", "--config", cfg, "--kernel", kernel, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        got = periodic_section(tmp_path / "o")
        assert got["count"] == str(count)
        assert [got[f"minimal_period_{k}"] for k in range(count)] == [str(count)] * count
        supports = sorted(int(i) for k in range(count) for i in got[f"support_{k}"].split(","))
        assert supports == list(range(24))

    @pytest.mark.parametrize("check", ["birkhoff", "ergodic_limit", "nonconvergence_empty", "periodic"])
    def test_limit_checks_converge_on_a_three_cyclic_kernel(self, tmp_path, check):
        # the doubling horizons run over multiples of 3, where the windows cancel the rotation
        kernel = str(DATA / "cyclic3_k24.kernel")
        argv = ["verify", "--kernel", kernel, "--checks", check, "--seed", "1807"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert "[summary]\npassed=1\ntotal=1\n" in (tmp_path / "o" / "verify_report.txt").read_text()

    @pytest.mark.parametrize("name, config, kernel", [
        ("pipeline_logistic_k64", "pipeline_logistic_k64.cfg", "pipeline_logistic_k64.kernel"),
        ("doubling_gaussian_k64", "doubling_gaussian_k64.cfg", "doubling_gaussian_k64.kernel"),
        ("rotation_uniform", "rotation_uniform.cfg", "rotation_uniform.kernel"),
        ("swap", "swap.cfg", None),
        ("cyclic3_k24_p2", "[checks]\np = 2\n", "cyclic3_k24.kernel"),
        ("cyclic3_k24_p3", "[checks]\np = 3\n", "cyclic3_k24.kernel"),
        ("cyclic3_k24_p6", "[checks]\np = 6\n", "cyclic3_k24.kernel"),
    ])
    def test_report_matches_golden_file(self, tmp_path, name, config, kernel):
        # golden reports written by the measure command that solved the classes of P^p again,
        # except the pipeline's minimal period: 1, where that command's tolerance scan printed 2
        if "\n" in config:
            cfg = write_config(tmp_path / "c.cfg", config)
        elif (DATA / config).exists():
            cfg = str(DATA / config)
        else:  # a bundled config, next to the kernel file it may name
            bundled("swap.kernel", tmp_path)
            cfg = str(bundled(config, tmp_path))
        argv = ["measure", "--config", cfg, "--out", str(tmp_path / "o")]
        if kernel:
            argv += ["--kernel", str(DATA / kernel)]
        assert main(argv) == 0
        golden = DATA / f"{name}.measure_report.txt"
        assert (tmp_path / "o" / "measure_report.txt").read_bytes() == golden.read_bytes()


def periodic_section(out_dir):
    """The key=value lines of a measure report's periodic section."""
    text = (Path(out_dir) / "measure_report.txt").read_text()
    body = text.split("\n[periodic p=", 1)[1].split("\n", 1)[1]
    return dict(line.split("=", 1) for line in body.splitlines() if "=" in line)


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        cfg = bundled("swap.cfg", tmp_path)
        for sub in ("a", "b"):
            code = main([
                "verify", "--config", str(cfg), "--seed", "42", "--trials", "40",
                "--out", str(tmp_path / sub),
            ])
            assert code == 0
        a = (tmp_path / "a" / "verify_report.txt").read_bytes()
        b = (tmp_path / "b" / "verify_report.txt").read_bytes()
        assert a == b

    @pytest.mark.parametrize("name, digest", [
        ("swap.cfg", "23695ca0e2518943"), ("rotation_uniform.cfg", "0bbe85b30bda9f0a"),
    ])
    def test_bundled_config_hash(self, name, digest):
        # the schema's defaults are part of the resolved config, so this pins them
        with resources.as_file(resources.files("ergodyn").joinpath(f"data/{name}")) as path:
            assert config_hash(load_config(path), 1807) == digest

    def test_simulate_csv_byte_identical(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        for sub in ("a", "b"):
            code = main([
                "simulate", "--kernel", str(tmp_path / "swap.kernel"),
                "--seed", "9", "--trials", "3", "--out", str(tmp_path / sub),
            ])
            assert code == 0
        for name in ("trajectories.csv", "estimates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_simulate_estimates_equal_estimate_Lj_phi(self, tmp_path, steps):
        shutil.copy(DATA / "pipeline_logistic_k64.kernel", tmp_path / "k.kernel")
        cfg = write_config(
            tmp_path / "c.cfg",
            f"[kernel]\npath = k.kernel\n[mc]\nstart = 17\nsteps = {steps}\nn_samples = 900\n",
        )
        assert main(["simulate", "--config", cfg, "--seed", "77", "--out", str(tmp_path / "o")]) == 0
        P = load_kernel(tmp_path / "k.kernel")
        phi = Observable(P.partition.midpoints(), P.partition)
        rows = (tmp_path / "o" / "estimates.csv").read_text().splitlines()[1:]
        assert len(rows) == steps + 1
        for j, row in enumerate(rows):
            est = estimate_Lj_phi(P, phi, 17, j, 900, 77)
            assert row.split(",")[:3] == [str(j), cli._fmt(est.mean), cli._fmt(est.stderr)]

    def test_simulate_identity_rows(self, tmp_path):
        save_kernel(kernel_from_rows(np.eye(2)), tmp_path / "k.txt")
        cfg = write_config(
            tmp_path / "c.cfg",
            "[kernel]\npath = k.txt\n[mc]\nstart = 1\nsteps = 3\nn_samples = 10\n",
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "trial,step,state"
        assert all(line.endswith(",1") for line in rows[1:])


# ---------------------------------------------------------------------------
# Mutated kernel and measure files: always a clean exit 2 or 3
# ---------------------------------------------------------------------------

#: text that neither int() nor float() can read as a finite number
GARBAGE = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x1", "1_0_", "--1"]),
)


def _replace_token(lines, line_no, tok_no, value):
    toks = lines[line_no].split(" ")
    toks[tok_no] = value
    lines[line_no] = " ".join(toks)


@st.composite
def broken_kernel_text(draw):
    """A saved random kernel with one mutation that makes it invalid."""
    import tempfile

    k = draw(st.integers(2, 6))
    P = random_kernel(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), k, density=0.6)
    with tempfile.TemporaryDirectory() as d:
        save_kernel(P, Path(d) / "k.txt")
        text = (Path(d) / "k.txt").read_text()
    lines = text.splitlines()
    entry = draw(st.integers(5, len(lines) - 1))
    kind = draw(st.sampled_from(
        ["negative", "out_of_range", "duplicate", "wrong_k", "truncate", "garbage"]
    ))
    if kind == "negative":
        _replace_token(lines, entry, draw(st.integers(0, 1)), str(draw(st.integers(max_value=-1))))
    elif kind == "out_of_range":
        _replace_token(lines, entry, draw(st.integers(0, 1)), str(draw(st.integers(min_value=k))))
    elif kind == "duplicate":
        copy = lines[entry].rsplit(" ", 1)[0] + " " + draw(st.sampled_from(["0.5", "1", "0"]))
        lines.insert(draw(st.integers(5, len(lines))), copy)
        if draw(st.booleans()):
            lines[4] = f"nnz {P.nnz + 1}"
    elif kind == "wrong_k":
        lines[1] = f"K {draw(st.integers().filter(lambda v: v != k))}"
    elif kind == "truncate":
        # cut anywhere before the last probability, which then goes missing
        return text[: draw(st.integers(0, text.rindex(" ") + 1))]
    else:
        numeric = [(1, 1), (4, 1), (entry, 0), (entry, 1), (entry, 2)]
        numeric += [(3, t) for t in range(1, k + 2)]
        line_no, tok_no = draw(st.sampled_from(numeric))
        _replace_token(lines, line_no, tok_no, draw(GARBAGE))
    return "\n".join(lines) + "\n"


@st.composite
def broken_measure_text(draw):
    """The swap kernel's stationary measure file with one invalidating mutation."""
    lines = ["ergodyn-measure 1", "K 2", "0.5", "0.5"]
    kind = draw(st.sampled_from(["negative", "wrong_k", "truncate", "garbage"]))
    if kind == "negative":
        lines[draw(st.integers(2, 3))] = str(-draw(st.floats(1e-300, 1e300)))
    elif kind == "wrong_k":
        lines[1] = f"K {draw(st.integers().filter(lambda v: v != 2))}"
    elif kind == "truncate":
        text = "\n".join(lines) + "\n"
        return text[: draw(st.integers(0, text.rindex("0.5")))]
    else:
        line_no, tok_no = draw(st.sampled_from([(1, 1), (2, 0), (3, 0)]))
        _replace_token(lines, line_no, tok_no, draw(GARBAGE))
    return "\n".join(lines) + "\n"


@st.composite
def renamed_header_kernel_text(draw):
    """The swap kernel file with one header keyword replaced by another word."""
    lines = (SWAP_HEADER + "nnz 2\n0 1 1\n1 0 1\n").splitlines()
    line_no = draw(st.integers(1, 4))
    keyword, rest = lines[line_no].split(" ", 1)
    word = draw(st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                        min_size=1, max_size=6).filter(lambda w: w != keyword))
    lines[line_no] = f"{word} {rest}"
    return "\n".join(lines) + "\n"


@st.composite
def padded_measure_text(draw):
    """The swap kernel's stationary measure file with weights past its header K."""
    extra = draw(st.lists(st.sampled_from(["0", "0.0", "0.5", "1e-300"]), min_size=1, max_size=4))
    return "\n".join(["ergodyn-measure 1", "K 2", "0.5", "0.5"] + extra) + "\n"


def _main_on(argv, files):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for name, content in files.items():
            Path(d, name).write_text(content)
        return main([a.format(d=d) for a in argv])


@settings(max_examples=150, deadline=None)
@given(broken_kernel_text())
def test_mutated_kernel_file_exits_2_or_3(text):
    code = _main_on(["measure", "--kernel", "{d}/k.txt", "--out", "{d}/o"], {"k.txt": text})
    assert code in (2, 3)


@pytest.mark.parametrize("record", ["\U000e093a 0 1", "0 \U000e093a 1", "0 1 \U000e093a",
                                    "\u00e9 0 1", "0 1 1\u00a0"])
def test_non_ascii_record_exits_3_before_parsing(tmp_path, capsys, record):
    # NumPy's loadtxt can crash the interpreter on U+E093A in a numeric field
    (tmp_path / "k.txt").write_text(SWAP_HEADER + f"nnz 2\n{record}\n1 0 1\n")
    assert main(["measure", "--kernel", str(tmp_path / "k.txt"), "--out", str(tmp_path / "o")]) == 3
    assert "a record holds a non-ASCII character" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=40))
def test_undecodable_kernel_file_exits_3(junk):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        Path(d, "k.txt").write_bytes(b"ergodyn-kernel 1\nK 2\n\xff" + junk)
        assert main(["measure", "--kernel", f"{d}/k.txt", "--out", f"{d}/o"]) == 3


@settings(max_examples=100, deadline=None)
@given(broken_measure_text())
def test_mutated_measure_file_exits_2_or_3(text):
    swap = "ergodyn-kernel 1\nK 2\ndomain unit_interval\nboundaries 0 0.5 1\nnnz 2\n0 1 1\n1 0 1\n"
    code = _main_on(
        ["measure", "--kernel", "{d}/k.txt", "--measure", "{d}/m.txt", "--out", "{d}/o"],
        {"k.txt": swap, "m.txt": text},
    )
    assert code in (2, 3)


@settings(max_examples=60, deadline=None)
@given(renamed_header_kernel_text())
def test_renamed_kernel_header_exits_3(text):
    code = _main_on(["measure", "--kernel", "{d}/k.txt", "--out", "{d}/o"], {"k.txt": text})
    assert code == 3


@settings(max_examples=30, deadline=None)
@given(padded_measure_text())
def test_padded_measure_file_exits_3(text):
    swap = SWAP_HEADER + "nnz 2\n0 1 1\n1 0 1\n"
    code = _main_on(
        ["measure", "--kernel", "{d}/k.txt", "--measure", "{d}/m.txt", "--out", "{d}/o"],
        {"k.txt": swap, "m.txt": text},
    )
    assert code == 3
