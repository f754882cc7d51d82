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
            ts, np.array([0, 2], dtype=np.int64), 1, 0, 0.95, 0.8, 1.0, 1.0, 0,
            1, one * 0.5, 8.0, cv, np.zeros(1), np.zeros(1))
        return cv[0]

    with pytest.raises(ctypes.ArgumentError):
        step(ts)
    assert step(np.ascontiguousarray(ts, np.float64)) < 4.0


def test_flags_keep_the_exactness_rules():
    # fused multiply-add and the fast-math family reorder or merge roundings,
    # and -march=native makes the library depend on the host that built it
    assert "-ffp-contract=off" in kernel.FLAGS
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
                 "-march=native"):
        assert flag not in kernel.FLAGS, flag


def test_declared_argument_counts_match_the_c_definitions():
    # ctypes does not check a call against the C signature, so a parameter
    # added to or dropped from kernel.c but not from kernel.py would shift
    # every argument after it
    source = kernel.SOURCE.read_text()
    definitions = dict(re.findall(r"^\w[\w ]*?\b(edh_\w+)\(([^)]*)\)\s*\{", source, re.MULTILINE))
    assert sorted(definitions) == ["edh_ewh_counts", "edh_fixed_walk", "edh_hedh", "edh_loggam",
                                   "edh_ndtr", "edh_optimized_bank", "edh_place_photons",
                                   "edh_poisson_offsets", "edh_sample_photons"]
    lib = kernel.library()
    for name, params in definitions.items():
        assert len(params.split(",")) == len(getattr(lib, name).argtypes), name
