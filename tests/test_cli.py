import io
import os
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergodyn import (
    cli, kernel_from_rows, make_uniform_partition, ulam_discretize, NoisySystem, TransitionKernel,
)
from ergodyn.cli import (
    config_hash, load_config, load_kernel, load_measure, main, save_kernel, save_measure,
)
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


def _resave(records):
    """A sidecar rewrite: the built digest, then the built records mapped by
    ``records`` and written raw."""
    def mutate(text, side):
        data = side.read_bytes()
        side.write_bytes(data[:32] + records(np.frombuffer(data[32:], cli._RECORD)).tobytes())
    return mutate


def _flip(offset):
    def mutate(text, side):
        data = bytearray(side.read_bytes())
        data[offset] ^= 0x01
        side.write_bytes(bytes(data))
    return mutate


def _huge_shape(text, side):
    data = side.read_bytes()
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(cli._RECORD), "fortran_order": False, "shape": (10**12,)})
    side.write_bytes(data[:32] + header.getvalue() + data[data.index(b"\n", 32) + 1:])


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
    "wrong_dtype": _resave(lambda r: r.astype([("row", "<i4"), ("col", "<i4"), ("prob", "<f8")])),
    "byte_swapped": _resave(lambda r: r.astype([("row", ">i8"), ("col", ">i8"), ("prob", ">f8")])),
    "shape_1e12": _huge_shape,
    "directory": _replace_with(Path.mkdir),
    "fifo": _replace_with(os.mkfifo),
}


class TestRecordSidecar:
    """``kernel-build`` writes ``kernel.txt.records`` next to the text; loaders
    take its records only when its digest matches the text and the records."""

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
        records = np.frombuffer(side.read_bytes()[32:], cli._RECORD)
        buf = io.BytesIO()
        np.save(buf, records)
        side.write_bytes(cli._binding(cli._file_digest(text), cli.hashlib.sha256(records)) + buf.getvalue())
        P, parses = load_counting_parses(text, monkeypatch)
        assert parses == 1
        assert P.data.tobytes() == records["prob"].tobytes()

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
        # a period-3 class: the first window spans 2 * 3 steps, past a cap of 5
        cfg = write_config(tmp_path / "c.cfg", "[checks]\nn_cap = 5\n")
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

        def failing(name, P, stationaries, cfg, seed):
            return CheckReport(name, False, 1.0, 0.0, 0.0, None, 1)

        monkeypatch.setattr(cli, "run_check", failing)
        bundled("swap.kernel", tmp_path)
        code = main([
            "verify", "--kernel", str(tmp_path / "swap.kernel"),
            "--checks", "duality", "--seed", "3",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        text = (tmp_path / "out" / "verify_report.txt").read_text()
        assert "passed=false" in text


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
        ("checks", "alpha = nan"), ("checks", "beta = nan"),
        ("checks", "alpha = inf"), ("checks", "beta = -inf"),
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
        ("birkhoff", "n_cap = -5", "n_cap in [checks] must be at least 2, got -5"),
        ("lemma1", "n_max = 0", "n_max in [checks] must be at least 1, got 0"),
    ])
    def test_config_horizon_below_its_least_exits_2(self, tmp_path, capsys, checks, line, message):
        # no limit window fits under the cap, and lemma1 reads no n_max: both are still
        # configuration errors, not a failed solve or a pass
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
        cfg = write_config(tmp_path / "c.cfg", "[kernel]\npath = k.txt\n[checks]\nn_max = 1\nn_cap = 2\n")
        checks = load_config(cfg)["checks"]
        assert (checks["n_max"], checks["n_cap"]) == (1, 2)

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
    ], ids=["n_samples", "cells", "trials", "trials_past_address_space"])
    def test_size_beyond_memory_exits_2(self, tmp_path, capsys, command, body):
        # 10**15 eight-byte slots exceed any address space: the allocation fails at once.
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

    def test_largest_u64_seed_accepted(self, tmp_path):
        bundled("swap.kernel", tmp_path)
        code = main([
            "simulate", "--kernel", str(tmp_path / "swap.kernel"), "--seed", str(2**64 - 1),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0


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
        ("swap.cfg", "54c2cbab43e6c5fa"), ("rotation_uniform.cfg", "27475df60e5139d0"),
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
