import os
import re
import subprocess
import sys
from pathlib import Path

import ctypes

import numpy as np
import pytest

import edhsim.kernel as kernel
from edhsim.errors import EdhsimError
from edhsim.scene import PixelConfig
from edhsim.transient import SimConfig, build_transient, sample_stream

SRC = Path(kernel.__file__).resolve().parents[1]


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh kernel cache: ``$XDG_CACHE_HOME/edhsim`` under a tmp dir."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "edhsim"


def test_first_build_compiles_and_second_reuses(cache, monkeypatch):
    path = kernel.build()
    assert path.parent == cache and path.is_file()
    assert sorted(cache.iterdir()) == [path]  # no temporary file left behind

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(kernel.subprocess, "run", no_compile)
    assert kernel.build() == path


def test_default_cache_is_under_home(monkeypatch, tmp_path):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert kernel.cache_dir() == tmp_path / ".cache" / "edhsim"


def test_two_processes_building_at_once_both_load(cache):
    code = "import edhsim.kernel as k; k.library(); print(k.build())"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache.parent), PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    [path] = {out.strip() for out, _ in outs}
    assert sorted(cache.iterdir()) == [Path(path)]


def test_editing_the_source_changes_the_cache_key(cache, monkeypatch, tmp_path):
    source = tmp_path / "kernel.c"
    source.write_text(kernel.SOURCE.read_text())
    monkeypatch.setattr(kernel, "SOURCE", source)
    before = kernel.build()
    source.write_text(source.read_text() + "\n/* edited */\n")
    after = kernel.build()
    assert after != before
    assert before.is_file() and after.is_file()


def test_missing_compiler_raises_one_error_naming_the_command(cache, monkeypatch):
    monkeypatch.setattr(kernel, "COMPILER", ["/nonexistent/edhsim-cc"])
    with pytest.raises(EdhsimError, match="/nonexistent/edhsim-cc .*-ffp-contract=off"):
        kernel.build()
    assert list(cache.iterdir()) == []


def test_fixed_walk_refuses_a_photon_in_no_interval():
    # A NaN photon lies in no interval, so its run of photons is empty; the
    # walk must report that rather than loop on it forever. PhotonStream
    # refuses NaN, so both calls go around it, and the subprocess's timeout
    # turns a hang into a failure.
    code = """
import numpy as np
import edhsim.kernel as k
from edhsim.binner import run_fixed
from edhsim.errors import EdhsimError
from edhsim.transient import PhotonStream
ts, offsets = np.array([np.nan]), np.array([0, 1], dtype=np.int64)
cvs = np.array([512.0])
print(k.library().edh_fixed_walk(ts, offsets, 0, 1, np.empty(0), 0, 1024.0, cvs, 0.5, 1.0))
stream = PhotonStream.from_cycles([np.array([1.0])], 1024)
object.__setattr__(stream, "timestamps", ts)
try:
    run_fixed(stream, 0.5, 1.0)
except EdhsimError as e:
    print(type(e).__name__, e)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, error = proc.stdout.splitlines()
    assert status == "1"
    assert error.startswith("EdhsimError fixed walk met a photon in no interval")


def test_hedh_refuses_a_photon_in_no_interval():
    # as test_fixed_walk_refuses_a_photon_in_no_interval, for the entry that
    # runs every hedh level: one cycle at q=4 gives cuts [0, 0, 1], so
    # hedh meets the NaN on its second level, the direct call on its first
    code = """
import numpy as np
import edhsim.kernel as k
from edhsim.errors import EdhsimError
from edhsim.histogrammer import hedh
from edhsim.transient import PhotonStream
ts, offsets = np.array([np.nan]), np.array([0, 1], dtype=np.int64)
cuts = np.array([0, 1, 1], dtype=np.int64)
print(k.library().edh_hedh(ts, offsets, cuts, 2, 1024.0, 1.0, np.empty(2), np.empty(3)))
stream = PhotonStream.from_cycles([np.array([1.0])], 1024)
object.__setattr__(stream, "timestamps", ts)
try:
    hedh(stream, 4, 1.0)
except EdhsimError as e:
    print(type(e).__name__, e)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, error = proc.stdout.splitlines()
    assert status == "1"
    assert error.startswith("EdhsimError hedh met a photon in no interval")


@pytest.mark.parametrize("ts", [
    np.array([1.0, 2.0], dtype=np.float32),
    np.array([1.0, 9.0, 2.0, 9.0])[::2],
], ids=["float32", "non-contiguous"])
def test_bank_refuses_timestamps_it_would_misread(ts):
    # the kernel reads ts as contiguous float64: anything else is refused at
    # the call rather than stepped as garbage, and a contiguous float64 copy
    # of the same photons is stepped
    def step(ts):
        one, cv = np.ones(1), np.full(1, 4.0)
        kernel.library().edh_optimized_bank(
            ts, np.array([0, 2], dtype=np.int64), 1, 0, 0.95, 0.8, 1.0, 1.0, 0, one, 1,
            1, one * 0.5, 8.0, cv, np.zeros(1), np.zeros(1))
        return cv[0]

    with pytest.raises(ctypes.ArgumentError):
        step(ts)
    assert step(np.ascontiguousarray(ts, np.float64)) < 4.0


def test_flags_keep_the_exactness_rules():
    # fused multiply-add and the fast-math family reorder or merge roundings;
    # an instruction-set flag makes the library die on a CPU without that
    # set, so the wide bank's instances, picked at load, are the only way
    # into AVX2 and AVX-512
    assert "-ffp-contract=off" in kernel.FLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math"):
        assert flag not in kernel.FLAGS, flag
    for flag in kernel.FLAGS:
        assert not flag.startswith(("-mavx", "-mfma", "-march=")), flag


def test_declared_argument_counts_match_the_c_definitions():
    # ctypes does not check a call against the C signature, so a parameter
    # added to or dropped from kernel.c but not from kernel.py would shift
    # every argument after it
    source = kernel.SOURCE.read_text()
    definitions = dict(re.findall(r"^\w[\w ]*?\b(edh_\w+)\(([^)]*)\)\s*\{", source, re.MULTILINE))
    assert sorted(definitions) == ["edh_ewh_counts", "edh_fixed_walk", "edh_hedh",
                                   "edh_loggam", "edh_ndtr", "edh_optimized_bank",
                                   "edh_place_photons", "edh_poisson_offsets",
                                   "edh_sample_photons"]
    lib = kernel.library()
    for name, params in definitions.items():
        assert len(params.split(",")) == len(getattr(lib, name).argtypes), name


def test_kernel_builds_without_a_warning(tmp_path):
    # with the build's own compiler and flags: a static helper left without
    # a caller, an unused variable or a partial initializer fails here, as an
    # unused import does in the Python modules
    command = [*kernel.COMPILER, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
               "-o", str(tmp_path / f"kernel{kernel.SUFFIX}"), str(kernel.SOURCE), "-lm"]
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_build_keeps_the_most_recent_libraries(cache, monkeypatch):
    # a build, and only a build, deletes all but the KEEP most recently
    # modified libraries, its own among them; loading deletes nothing
    cache.mkdir(parents=True)
    stale = [cache / f"kernel-{i:032x}{kernel.SUFFIX}" for i in range(kernel.KEEP + 3)]
    for i, path in enumerate(stale):  # the higher i, the newer, all long ago
        path.write_bytes(b"")
        os.utime(path, (10**9 + i, 10**9 + i))
    other = cache / "notes.txt"
    other.write_text("kept")
    lib = kernel.build()
    assert set(cache.glob("kernel-*")) == {lib, *stale[-(kernel.KEEP - 1):]}
    assert other.read_text() == "kept"

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(kernel.subprocess, "run", no_compile)
    for path in stale:
        path.write_bytes(b"")  # the older ones come back; a cached load leaves them all
    assert kernel.build() == lib
    assert set(cache.glob("kernel-*")) == {lib, *stale}


def _cpu_has(flag):
    try:
        return flag in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


# the wide path's instances, by lanes: the CPU flag each needs, and what its
# forced build's resolver asks of __builtin_cpu_supports
RESOLVER = ('__builtin_cpu_supports("avx512f")', '__builtin_cpu_supports("avx2")')
INSTANCES = {8: ("avx512f", ("1", "0")), 4: ("avx2", ("0", "1")), 2: (None, ("0", "0"))}


@pytest.fixture(scope="module")
def bank_copies(tmp_path_factory):
    """The shipped library and, by lanes, a build whose constructor picks
    that instance of the wide path whatever the CPU has (None when this CPU
    lacks the instance's flag), each in a cache of its own."""
    root = tmp_path_factory.mktemp("instances")
    text = kernel.SOURCE.read_text()
    libs = {"shipped": kernel.library()}
    for lanes, (flag, answers) in INSTANCES.items():
        if flag is not None and not _cpu_has(flag):
            libs[lanes] = None
            continue
        forced = text
        for call, answer in zip(RESOLVER, answers):
            assert forced.count(call) == 1, call
            forced = forced.replace(call, answer)
        source = root / f"kernel{lanes}.c"
        source.write_text(forced)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("XDG_CACHE_HOME", str(root / str(lanes)))
            mp.setattr(kernel, "SOURCE", source)
            lib = ctypes.CDLL(str(kernel.build()))
        lib.edh_optimized_bank.restype = None
        lib.edh_optimized_bank.argtypes = libs["shipped"].edh_optimized_bank.argtypes
        libs[lanes] = lib
    return libs


def _bank_case(pixel, n_cycles, n_targets, freeze, seed=3):
    sim = SimConfig()
    stream = sample_stream(build_transient(PixelConfig(*pixel), sim), n_cycles, seed)
    targets = np.arange(1, n_targets + 1) / (n_targets + 1)
    return stream.timestamps, stream.cycle_offsets, n_cycles, freeze, targets, float(sim.n_bins)


def _hand_case(n_targets, seed):
    # half-integer photons on a 16-bin range, so CVs land on photons, in
    # cycles of 0 to 40 photons, odd and even: the wide path's photon pairs
    # end with and without a tail
    rng = np.random.default_rng(seed)
    sizes = rng.choice([0, 1, 2, 5, 31, 32, 33, 40], size=60)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    ts = np.concatenate([np.sort(rng.integers(0, 32, m) / 2.0) for m in sizes])
    targets = np.sort(rng.choice([0.125, 0.25, 0.5, 0.75, 0.9], size=n_targets))
    return ts, offsets, sizes.size, 20, targets, 16.0


BANK_CASES = {
    # 0 to 3 photons a cycle: the wide path for K >= 8, searches below; a
    # bank that is no multiple of 8 has pad lanes
    **{f"1:1 K={k}": (lambda k=k: _bank_case((7.5, 1.0, 1.0), 600, k, 300))
       for k in (1, 7, 8, 9, 15, 17, 31, 33, 63, 65, 127, 129)},
    **{f"1:5 K={k}": (lambda k=k: _bank_case((7.5, 1.0, 5.0), 600, k, 300))
       for k in (1, 8, 31)},
    # long cycles, about 45 and 300 photons: the wide path for K >= 8 steps
    # them as it steps short ones
    **{f"15:30 K={k}": (lambda k=k: _bank_case((7.5, 15.0, 30.0), 300, k, 100))
       for k in (1, 8, 31)},
    **{f"100:200 K={k}": (lambda k=k: _bank_case((7.5, 100.0, 200.0), 40, k, 20))
       for k in (8, 9, 31, 127)},
    # 1,030 binners: the wide path's slices of 512, the last one padded
    **{f"hand K={k}": (lambda k=k: _hand_case(k, k)) for k in (1, 2, 8, 9, 64, 65, 1030)},
}


@pytest.mark.parametrize("case", list(BANK_CASES))
@pytest.mark.parametrize("lanes", list(INSTANCES))
def test_bank_instances_agree_byte_for_byte(bank_copies, case, lanes):
    # the instance the constructor picks here and each instance forced in a
    # build of its own give the same bytes, in every binner's CV and memories,
    # and write nothing past the bank's arrays
    if bank_copies[lanes] is None:
        pytest.skip(f"this CPU has no {INSTANCES[lanes][0]} (not in /proc/cpuinfo)")
    ts, offsets, n_cycles, freeze, targets, n_bins = BANK_CASES[case]()
    decay = np.array([0.99902 ** e for e in range(freeze // 2)])  # the rest from pow
    k, tail = targets.size, np.full(8, 12345.0)

    def run(lib):
        cvs, s, dtil = (np.concatenate([a, tail]) for a in (targets * n_bins, np.zeros(k),
                                                            np.zeros(k)))
        lib.edh_optimized_bank(ts, offsets, n_cycles, 0, 0.95, 0.8, 0.2 * 0.03 * n_bins,
                               0.99902, freeze, decay, decay.size, k, targets, n_bins,
                               cvs[:k], s[:k], dtil[:k])
        for a in (cvs, s, dtil):
            assert a[k:].tobytes() == tail.tobytes()
        return b"".join(a[:k].tobytes() for a in (cvs, s, dtil))

    assert run(bank_copies[lanes]) == run(bank_copies["shipped"])
