"""Mutation check: every engine guard and every physics constant has a test.

Each mutation below changes one site in a temporary copy of the tree
(``src/``, ``tests/`` and ``pyproject.toml``) and runs
``pytest -x -q tests`` there.  A mutant must make the tests fail; one that
passes means no test protects that site.  Three kinds of site are listed:

* numerical guards, each disabled (the Cholesky positivity test loosened
  a hundredfold): a density-matrix, generator, piece-map, step-halving,
  steady-state, correlator, fit or CSV check;
* the kernel's prefix product over shaped-pulse pieces, with its pair
  offset shifted by one;
* physics mutants, each a 1-4% error in one model constant (dephasing,
  radiative rate, drive coupling, lambda pump coupling).  The engine's
  guards and the 2-5% anchors let them through; the exact closed-form rows
  of ``reproduce-all`` (``test_cookbook_passes_all_anchors``) catch each.

The script exits 1 when a pattern does not occur exactly once in its file,
so the list cannot rot as the code changes, when the unmutated copy fails
its tests, or when a mutant survives.

Usage, from the repository root (a few minutes)::

    python tools/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

QDYN = "src/emitterlab/qdyn.py"

# (name, file, exact source text, replacement that disables the check)
MUTATIONS = [
    ("state finiteness", QDYN,
     "    if not np.all(np.isfinite(rho)):\n", "    if False:\n"),
    ("state trace", QDYN,
     "    if trace_err > TRACE_TOL:\n", "    if False:\n"),
    ("state Hermiticity", QDYN,
     "    if herm > herm_tol:\n", "    if False:\n"),
    ("state positivity", QDYN,
     "    if eigmin < -EIGENVALUE_TOL:\n", "    if False:\n"),
    ("state positivity, Cholesky shift x100", QDYN,
     "            np.linalg.cholesky(rho + EIGENVALUE_TOL * np.eye(rho.shape[-1]))\n",
     "            np.linalg.cholesky(rho + 100 * EIGENVALUE_TOL * np.eye(rho.shape[-1]))\n"),
    ("Hamiltonian and coupling Hermiticity", QDYN,
     "    if np.max(np.abs(op - np.conj(np.swapaxes(op, -1, -2))), initial=0.0) > HERMITICITY_TOL:\n",
     "    if False:\n"),
    ("generator Hermiticity preservation", QDYN,
     "    if abs(g.imag).max(initial=0.0) > HERMITICITY_TOL * max(abs(g.real).max(initial=0.0), 1.0):\n",
     "    if False:\n"),
    ("sample misalignment", QDYN,
     "    if (\n        np.any(hit >= tb.size)\n", "    if False and (\n        np.any(hit >= tb.size)\n"),
    ("piece-map squaring bound", QDYN,
     "    if not np.all(norm <= _THETA13 * 2.0**_MAX_SQUARINGS):\n", "    if False:\n"),
    ("step-count overflow", QDYN,
     "    if not np.all(n_steps < 2.0 ** (63 - _MAX_STEP_REFINEMENTS)):\n", "    if False:\n"),
    ("prefix product pair offset k -> k+1", QDYN,
     "                    q[:, k:] = q[:, k:] @ q[:, :-k]\n",
     "                    q[:, k + 1:] = q[:, k + 1:] @ q[:, :-k - 1]\n"),
    ("step underflow", QDYN,
     "    if not dt_int > 0:\n", "    if False:\n"),
    ("non-finite values during evolution", QDYN,
     "        if not np.all(np.isfinite(cur)):\n", "        if False:\n"),
    ("step-halving acceptance", QDYN,
     "        if not shaped or refinement and error(cur - prev) < STEP_HALVING_TOL:\n",
     "        if not shaped or refinement:\n"),
    ("steady-state uniqueness", QDYN,
     "        if np.any(n_null != 1):\n", "        if False:\n"),
    ("uniqueness certificate, residual leg", QDYN,
     "            residual * math.sqrt(d) < STATIONARY_NULL_TOL)\n", "            True)\n"),
    ("uniqueness certificate, norm leg", QDYN,
     "        certified = (np.linalg.norm(inv, axis=(1, 2)) * scale < 0.5 / STATIONARY_NULL_TOL) & (\n",
     "        certified = True & (\n"),
    ("steady-state residual", QDYN,
     "    if not worst < STEADY_STATE_RESIDUAL_TOL:\n", "    if False:\n"),
    ("correlator stationarity", QDYN,
     "    if stationarity > 1e-8:\n", "    if False:\n"),
    ("Ramsey first-pulse state", "src/emitterlab/ramsey.py",
     '    qdyn.check_density_matrix(first, "Ramsey first-pulse state", error=NumericFailure)\n',
     "    pass\n"),
    ("Ramsey final state", "src/emitterlab/ramsey.py",
     '    qdyn.check_density_matrix(finals, "Ramsey final state")\n', "    pass\n"),
    ("correlator imaginary part", "src/emitterlab/tls.py",
     "    if np.max(np.abs(corr.imag)) > 1e-8:\n", "    if False:\n"),
    ("g2 negativity", "src/emitterlab/photostats.py",
     "    if np.min(g2) < -1e-9:\n", "    if False:\n"),
    ("emission spectrum negativity", "src/emitterlab/photostats.py",
     "    if np.min(s) < floor:\n", "    if False:\n"),
    ("Rabi fit washout: frequency above Nyquist", "src/emitterlab/fitkit.py",
     '    if result.converged and result["omega_ghz"] > nyquist:\n', "    if False:\n"),
    ("Rabi fit washout: peak at the IRF band edge", "src/emitterlab/fitkit.py",
     "    if peak < 0 or freqs[band[peak]] > edge - 2.0 * freqs[1]:\n", "    if peak < 0:\n"),
    ("Rabi fit start: IRF-corrected peak above the noise", "src/emitterlab/fitkit.py",
     "    if mag[band[peak]] < _PEAK_NOISE_RATIO * noise:\n", "    if False:\n"),
    ("CSV body width", "src/emitterlab/csvio.py",
     '    if set(map(str.count, body, repeat(","))) == {width - 1}:\n', "    if True:\n"),
    ("CSV body finiteness", "src/emitterlab/csvio.py",
     "            if np.all(np.isfinite(data)):\n", "            if True:\n"),
    ("long-form matrix shape", "src/emitterlab/csvio.py",
     "    if np.shape(matrix) != (n, m):\n", "    if False:\n"),
    # physics mutants: a small error in one model constant
    ("M1: pure dephasing x1.02", "src/emitterlab/tls.py",
     "        jumps.append(math.sqrt(2.0 * params.gamma_phi) * PROJ_EXCITED)\n",
     "        jumps.append(math.sqrt(2.0 * 1.02 * params.gamma_phi) * PROJ_EXCITED)\n"),
    ("M2: radiative rate x1.01", "src/emitterlab/tls.py",
     "    jumps = [math.sqrt(1.0 / params.t1) * SIGMA_MINUS]\n",
     "    jumps = [math.sqrt(1.01 / params.t1) * SIGMA_MINUS]\n"),
    ("M3: drive coupling x1.01", "src/emitterlab/tls.py",
     "    half = 0.5 * omega\n", "    half = 1.01 * 0.5 * omega\n"),
    ("M4: lambda pump coupling x1.04", "src/emitterlab/lambda_system.py",
     "    o_c = TWO_PI * drive.omega_c_ghz\n", "    o_c = 1.04 * TWO_PI * drive.omega_c_ghz\n"),
]


def _check_patterns(mutations) -> list[str]:
    """Problems with the list: a pattern found other than exactly once."""
    problems = []
    for name, path, pattern, _ in mutations:
        count = (ROOT / path).read_text(encoding="utf-8").count(pattern)
        if count != 1:
            problems.append(f"{name}: pattern occurs {count} times in {path}, need exactly 1")
    return problems


def _tests_pass(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def main() -> int:
    problems = _check_patterns(MUTATIONS)
    if problems:
        print("\n".join(problems))
        return 1
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        start = time.perf_counter()
        if not _tests_pass(tree):
            print("the unmutated tree fails its tests; no mutant can be judged")
            return 1
        print(f"unmutated tree passes ({time.perf_counter() - start:.1f} s)")
        for name, path, pattern, replacement in MUTATIONS:
            target = tree / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(pattern, replacement), encoding="utf-8")
            start = time.perf_counter()
            killed = not _tests_pass(tree)
            target.write_text(original, encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTATIONS)} mutations survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTATIONS)} mutations fail the tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
