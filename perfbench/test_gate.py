"""The benchmark's correctness gate rejects wrong outputs.

    python3 -m pytest perfbench/test_gate.py -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import instances  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from worker import Run  # noqa: E402

from bihomcheck.linalg import Subspace  # noqa: E402
from bihomcheck.structure import Certificate  # noqa: E402


def corrupted(expected, golden=None, digest=None):
    goldens = dict(expected.goldens)
    digests = dict(expected.digests)
    if golden is not None:
        text = goldens[golden]
        goldens[golden] = text.replace('"pass"', '"fail"', 1)
        assert goldens[golden] != text
    if digest is not None:
        digests[digest] = "0" * 64
    return dataclasses.replace(expected, goldens=goldens, digests=digests)


def test_catalog_pass_is_clean_and_gate_counts_corrupted_expectations():
    expected = workloads.Expected.load()
    clean = Run(workloads.build("cli-catalog", 7, expected))
    clean.one_pass()
    assert clean.failures == []

    bad = corrupted(expected, golden="check_all_kz2", digest="construct:commutator:example24")
    run = Run(workloads.build("cli-catalog", 7, bad))
    run.one_pass()
    assert sorted(name for name, _ in run.failures) == [
        "check:kz2",
        "construct:commutator:example24",
    ]
    assert run.attempted == len(run.tasks)


def test_golden_check_needs_exact_bytes_and_exit_code():
    expected = workloads.Expected.load()
    golden = expected.goldens["check_all_kz2"]
    check = workloads.check_golden(expected, "check_all_kz2")
    assert check(workloads.CliResult(0, golden)) is None
    assert check(workloads.CliResult(0, golden + " ")) is not None
    assert check(workloads.CliResult(1, golden)) is not None


def test_seeded_checks_reject_wrong_answers():
    gl = instances.general_linear(2)
    assert workloads.check_dims(1)(Subspace.full_space(4, ())) is not None
    assert workloads.check_equal_tensor(gl)(instances.general_linear(2)) is None
    assert workloads.check_equal_tensor(gl)(instances.general_linear(3)) is not None
    e11 = Subspace.from_rows(4, [gl.module.basis_vector(0)], ())
    not_an_ideal = Certificate(e11, None, None, 0, 8)
    assert workloads.check_certificate(gl)(not_an_ideal) is not None
    full = Subspace.full_space(4, ())
    nonzero_product = Certificate(None, (full, full), None, 0, 8)
    assert workloads.check_certificate(gl)(nonzero_product) is not None


def test_span_is_scaled_by_the_kernel_samples_around_it():
    speed = reference.Speed()
    ref = reference.REFERENCE_S
    speed.samples = [(0.0, 0.1, ref), (1.0, 1.1, 2 * ref), (5.0, 5.1, 4 * ref)]
    # the last sample ending before 1.5 and the first starting after 4.0
    assert speed.scale(1.5, 4.0) == 1 / 3
    assert speed.scale(0.2, 0.9) == 2 / 3
    assert speed.scale(5.2, 6.0) == 1 / 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
