"""The four benchmark workloads: seeded inputs, one timed op, output checks.

Every workload drives cyclefield through its public API and the
``cyclefield`` CLI entry point (``cli.run``) in the calling process, with
the shipped parameters in ``base.cfg``.  ``op()`` is the timed part and
returns what it produced; ``check()`` runs afterwards, outside the timing,
and returns a list of problems (empty when the outputs are correct).

Why these workloads:

* ``mc_wide``: many short paths, so building one random stream per path
  dominates, the kernel propagators are nearly free, and the endpoint
  export puts the CLI's 17-digit writer on the path.
* ``mc_long``: few long paths, so the per-step Euler loop and the RK4
  propagators dominate and the noise buffer grows with the horizon; it
  also runs ``appendix5_negligibility``, the second Euler drift.
* ``phase_scan``: six 1000-point scans, bound by the phase solver; the
  kappa scan hits the Gamma3 iteration cap and exits 4 with no CSV, a
  known defect kept in view.  No Monte Carlo or RK4 work.
* ``panel_likelihood``: scalar per-call kernel cost and CSV reads on a
  generated panel; no Monte Carlo and no RK4.

The MC workloads stay at the shipped parameters (A0=8, gamma=0.05):
the weak-drift point hides the failing statistical gates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

from cyclefield import cli, corrections, green, montecarlo, phases, weights
from cyclefield.errors import ConvergenceError, InfeasiblePhaseError
from cyclefield.params import ModelParams, load_config
from cyclefield.paths import AgentPath, AgentState
from cyclefield.phases import PhaseSolution

Z_GATE = 4.0       # |z| <= 4 passes
KS_GATE = 1e-3     # KS p >= 1e-3 passes
MC_DT = 1e-3       # mc-validate's default Euler step

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _remove(*paths: str) -> None:
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point in this process; return (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, err.getvalue()


class Workload:
    """Base: holds the checkout paths, seed, shipped parameters and work dir."""

    name = ""
    work_unit = ""  # what the throughput counts

    def __init__(self, root: str, work: str, seed: int, smoke: bool):
        self.root, self.work, self.seed, self.smoke = root, work, seed, smoke
        self.cfg = os.path.join(root, "base.cfg")
        self.params = load_config(self.cfg)
        self.first = None  # first op's outputs, for the repeat check

    def setup(self) -> list[str]:
        """Prepare inputs and run the untimed checks; return problems."""
        if self.params != ModelParams():
            return [f"base.cfg differs from ModelParams(): {self.params}"]
        return []

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        """Problems with the op's outputs; also sets ``out["good"]``."""
        raise NotImplementedError

    def work_done(self, out: dict) -> float:
        """Work units the op completed (called after :meth:`check`)."""
        raise NotImplementedError

    def _repeat_check(self, key) -> list[str]:
        if self.first is None:
            self.first = key
            return []
        return [] if key == self.first else ["repeated op is not byte-identical"]


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def _gate_problems(report: dict) -> tuple[int, list[str]]:
    z, ks = report["zscores"], report["ks"]
    values = list(z.values()) + list(ks.values())
    problems = []
    if len(z) != 6 or len(ks) != 3:
        problems.append(f"expected 6 z-scores and 3 KS values, got {len(z)} and {len(ks)}")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        problems.append("non-finite z-score or KS value")
        return 0, problems
    passed = sum(abs(v) <= Z_GATE for v in z.values()) + sum(p >= KS_GATE for p in ks.values())
    return passed, problems


class _MonteCarlo(Workload):
    work_unit = "path-steps"
    phase = 0

    def __init__(self, *a):
        super().__init__(*a)
        self.export = os.path.join(self.work, "endpoints.csv")

    def setup(self) -> list[str]:
        problems = super().setup()
        # Endpoints must not depend on how paths are split into blocks.
        sol = phases.solve_phase(self.params, self.phase)
        x0 = AgentState(C=sol.C_bar_phase, K=self.params.K_bar, A=sol.A_bar_phase)
        cfg = montecarlo.MCConfig(n_paths=300, dt=MC_DT, seed=self.seed)
        a = montecarlo.sample_paths(x0, 0.02, sol, self.params, cfg, block_size=64)
        b = montecarlo.sample_paths(x0, 0.02, sol, self.params, cfg, block_size=4096)
        if not all(np.array_equal(getattr(a, c), getattr(b, c)) for c in "CKA"):
            problems.append("sample_paths endpoints depend on the block size")
        return problems

    def _mc_validate(self, t: float, n: int, extra: list[str]) -> tuple[int, str]:
        out = os.path.join(self.work, "mc.json")
        _remove(out)
        argv = ["--config", self.cfg, "--seed", str(self.seed), "mc-validate",
                "--t", repr(t), "--n", str(n), "--phase", str(self.phase), "--output", out]
        return run_cli(argv + extra)

    def _check_report(self, out: dict) -> tuple[list[str], dict]:
        if out["rc"] != 0:
            return [f"mc-validate exited {out['rc']}: {out['stderr'].strip()}"], {}
        path = os.path.join(self.work, "mc.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        gates, problems = _gate_problems(report)
        return problems, {"gates": gates, "report_sha": _sha(path)}

    def _check_export(self, out: dict) -> list[str]:
        """The endpoint export has one row per path; counts the bytes written."""
        with open(self.export, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        out["bytes_written"] = os.path.getsize(self.export) + os.path.getsize(os.path.join(self.work, "mc.json"))
        return [] if rows == self.n else [f"export has {rows} rows, expected {self.n}"]


class McWide(_MonteCarlo):
    """mc-validate over many short paths in phase 0, with the endpoint export."""

    name = "mc_wide"
    phase = 0

    def __init__(self, *a):
        super().__init__(*a)
        self.t, self.n = (0.05, 200) if self.smoke else (0.1, 100_000)

    def op(self) -> dict:
        _remove(self.export)
        rc, err = self._mc_validate(self.t, self.n, ["--export", self.export])
        return {"rc": rc, "stderr": err}

    def work_done(self, out: dict) -> float:
        return self.n * round(self.t / MC_DT)

    def check(self, out: dict) -> list[str]:
        problems, facts = self._check_report(out)
        if problems:
            return problems
        problems += self._check_export(out)
        out["good"] = facts["gates"]
        return problems + self._repeat_check((facts["report_sha"], _sha(self.export)))


class McLong(_MonteCarlo):
    """mc-validate over few long paths in phase 1 with the endpoint export,
    then the appendix-5 estimate."""

    name = "mc_long"
    phase = 1
    R_VALUES = (0.0, 0.05, 0.1, 0.2)

    def __init__(self, *a):
        super().__init__(*a)
        if self.smoke:
            self.t, self.n, self.T, self.n5 = 0.5, 64, 2.0, 50
        else:
            self.t, self.n, self.T, self.n5 = 10.0, 512, 40.0, 1000
        self.dt5 = 0.02

    def op(self) -> dict:
        _remove(self.export)
        rc, err = self._mc_validate(self.t, self.n, ["--export", self.export])
        sol = phases.solve_phase(self.params, 1)
        ratios = montecarlo.appendix5_negligibility(
            self.params, sol, self.R_VALUES, T=self.T, dt=self.dt5, n_paths=self.n5, seed=self.seed
        )
        return {"rc": rc, "stderr": err, "ratios": ratios}

    def work_done(self, out: dict) -> float:
        return self.n * round(self.t / MC_DT) + self.n5 * round(self.T / self.dt5)

    def check(self, out: dict) -> list[str]:
        problems, facts = self._check_report(out)
        if problems:
            return problems
        ratios = out["ratios"]
        if sorted(ratios) != sorted(self.R_VALUES) or not all(
            math.isfinite(v) and v > 0.0 for v in ratios.values()
        ):
            problems.append(f"appendix5 ratios not finite and positive: {ratios}")
        problems += self._check_export(out)
        out["good"] = facts["gates"]
        return problems + self._repeat_check((facts["report_sha"], _sha(self.export), tuple(sorted(ratios.items()))))


# ---------------------------------------------------------------------------
# phase scan
# ---------------------------------------------------------------------------

SCAN_RANGES = {
    "A0": (4.0, 12.0),
    "kappa": (0.0, 0.99),
    "gamma": (0.0, 0.5),
    "C0": (0.0, 2.0),
    "nu": (0.02, 0.5),
    "K_bar": (2.0, 40.0),
}
# CSV column -> PhaseSolution field, where the names differ beyond case and '_'
_COLUMN_ALIASES = {"m": "mass"}


def _norm(name: str) -> str:
    return name.replace("_", "").lower()


_SCAN_FIELDS = {_norm(f.name) for f in dataclasses.fields(ModelParams) + dataclasses.fields(PhaseSolution)} - {"phase"}


def _expected_row(base: ModelParams, key: str, value: float) -> dict:
    """Solve one scan point in process, as the scan defines it."""
    p = base.replace(**{key: value})
    try:
        sol = phases.solve_phase(p, 1)
        feasible = sol.feasible
    except InfeasiblePhaseError:
        sol = phases.solve_phase(p, 0)
        feasible = False
    expected = {_norm(k): v for k, v in p.to_dict().items()}
    expected.update({_norm(k): v for k, v in vars(sol).items() if k != "phase"})
    expected["feasible"] = feasible
    return expected


class PhaseScan(Workload):
    """One op is a pass of six phase-scan calls over seeded grids."""

    name = "phase_scan"
    work_unit = "CSV rows"
    N_SAMPLED = 3  # rows per scan compared with an in-process solve

    def __init__(self, *a):
        super().__init__(*a)
        n = 12 if self.smoke else 1000
        rng = np.random.default_rng(self.seed)
        self.grids = {}
        for key, (lo, hi) in SCAN_RANGES.items():
            # one uniform draw per stratum: the grid covers the range evenly
            self.grids[key] = lo + (np.arange(n) + rng.random(n)) / n * (hi - lo)
        self.sampled = {key: rng.choice(n, self.N_SAMPLED, replace=False) for key in SCAN_RANGES}
        self.library_fails = {}  # key -> whether solve_phase fails somewhere on the grid

    def _out(self, key: str) -> str:
        return os.path.join(self.work, f"scan_{key}.csv")

    def op(self) -> dict:
        calls = {}
        for key, grid in self.grids.items():
            _remove(self._out(key))
            argv = ["--config", self.cfg, "--seed", str(self.seed), "phase-scan", "--key", key,
                    "--values", ",".join(repr(float(v)) for v in grid), "--output", self._out(key)]
            calls[key] = run_cli(argv)
        return {"calls": calls}

    def work_done(self, out: dict) -> float:
        return out.get("good", 0)

    def _library_fails(self, key: str) -> bool:
        """Whether the in-process solve raises ConvergenceError somewhere on the grid."""
        if key not in self.library_fails:
            self.library_fails[key] = False
            for v in self.grids[key]:
                try:
                    _expected_row(self.params, key, float(v))
                except ConvergenceError:
                    self.library_fails[key] = True
                    break
        return self.library_fails[key]

    def _check_csv(self, key: str) -> tuple[int, list[str]]:
        with open(self._out(key), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header, rows = lines[0].split(","), [r.split(",") for r in lines[1:]]
        grid = self.grids[key]
        if len(rows) != grid.size:
            return len(rows), [f"{key} scan wrote {len(rows)} rows for {grid.size} values"]
        cols = {i: _norm(_COLUMN_ALIASES.get(h, h)) for i, h in enumerate(header)}
        cols = {i: c for i, c in cols.items() if c in _SCAN_FIELDS}
        problems = []
        bad = next(((j, i) for j, r in enumerate(rows) for i in cols
                    if r[i] not in ("true", "false") and not math.isfinite(float(r[i]))), None)
        if bad:
            problems.append(f"{key} scan row {bad[0]}: non-finite {header[bad[1]]}")
        for j in self.sampled[key]:
            expected = _expected_row(self.params, key, float(grid[j]))
            for i, c in cols.items():
                want = expected[c]
                got = (rows[j][i] == "true") if isinstance(want, bool) else float(rows[j][i])
                if got != want:
                    problems.append(f"{key} scan row {j}: {header[i]}={rows[j][i]}, in-process {want!r}")
        return len(rows), problems

    def check(self, out: dict) -> list[str]:
        problems, rows_written, nbytes, aborted = [], 0, 0, 0
        for key, (rc, err) in out["calls"].items():
            path = self._out(key)
            if rc == 0:
                n, p = self._check_csv(key)
                rows_written += n
                nbytes += os.path.getsize(path)
                problems += p
            elif rc == 4:
                # numerical failure: valid only if the library itself fails on this grid
                aborted += 1
                if os.path.exists(path):
                    problems.append(f"{key} scan exited 4 but wrote {path}")
                if "numerical failure" not in err:
                    problems.append(f"{key} scan exited 4 without a numerical-failure message")
                if not self._library_fails(key):
                    problems.append(f"{key} scan exited 4 but solve_phase succeeds on every value")
            else:
                problems.append(f"{key} scan exited {rc}: {err.strip()}")
        out["good"] = rows_written
        out["aborted"] = aborted
        out["bytes_written"] = nbytes
        return problems


# ---------------------------------------------------------------------------
# panel likelihood
# ---------------------------------------------------------------------------

def make_panel(params: ModelParams, seed, n_paths: int, n_samples: int, dt: float) -> list[AgentPath]:
    """Agent paths near the phase-0 background, from the benchmark's own RNG.

    Each coordinate relaxes towards the background (rate 0.5) with the
    model's noise amplitudes; the paths stay well inside C, K, A > 0.
    """
    sol = phases.solve_phase(params, 0)
    anchor = np.array([sol.C_bar_phase, params.K_bar, sol.A_bar_phase])
    amp = np.array([params.varpi, params.nu, 1.0 / params.lam])
    rng = np.random.default_rng(seed)
    x = anchor + amp * rng.standard_normal((n_paths, 3))
    out = np.empty((n_samples, n_paths, 3))
    out[0] = x
    for k in range(1, n_samples):
        x = x - 0.5 * (x - anchor) * dt + amp * math.sqrt(dt) * rng.standard_normal((n_paths, 3))
        out[k] = x
    return [AgentPath(out[:, i, 0], out[:, i, 1], out[:, i, 2], dt=dt) for i in range(n_paths)]


def score_panel(paths: list[AgentPath], params: ModelParams) -> dict:
    """Weights and kernel log-likelihood sums over every consecutive pair."""
    sol = phases.solve_phase(params, 0)
    lw = weights.log_weight_total(paths, params, sol.A_bar_phase)
    lc = sum(weights.log_weight_intertemporal_constraint(p, params) for p in paths)
    n_finite = 0
    td, cd, lp = 0.0, 0.0, 0.0
    for path in paths:
        states = [path.state(i) for i in range(len(path))]
        for a, b in zip(states, states[1:]):
            x = green.transition_density(a, b, path.dt, sol, params)[1]
            y = corrections.corrected_density(a, b, path.dt, sol, params)[1]
            z = math.log(green.laplace_propagator(a, b, sol, params))
            td, cd, lp = td + x, cd + y, lp + z
            n_finite += math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
    sums = {
        "log_weight_total": lw,
        "log_weight_intertemporal_constraint": lc,
        "transition_log_density": td,
        "corrected_log_density": cd,
        "laplace_log_propagator": lp,
    }
    return {"sums": sums, "n_finite": n_finite}


# The recorded reference: a small fixed panel, independent of the workload seed.
REFERENCE_PANEL = {"seed": 20181017, "n_paths": 8, "n_samples": 101, "dt": 0.01}
REFERENCE_RTOL = 1e-9


def reference_sums(params: ModelParams) -> dict:
    """Sums for the reference panel, read back through CSV as the op reads its panel."""
    paths = [AgentPath.from_csv(p.to_csv()) for p in make_panel(params, **REFERENCE_PANEL)]
    return score_panel(paths, params)["sums"]


def _sum_problems(got: dict, want: dict, what: str) -> list[str]:
    return [f"{what} {k}={v!r}, expected {want.get(k)!r}" for k, v in got.items()
            if want.get(k) is None or not math.isclose(v, want[k], rel_tol=REFERENCE_RTOL, abs_tol=0.0)]


class PanelLikelihood(Workload):
    """Read a generated panel from CSV and score it with weights and kernels."""

    name = "panel_likelihood"
    work_unit = "transitions"

    def __init__(self, *a):
        super().__init__(*a)
        self.n_paths, self.n_samples = (4, 21) if self.smoke else (128, 501)
        self.files = [os.path.join(self.work, f"panel_{i:03d}.csv") for i in range(self.n_paths)]
        self.expected = {}  # sums scored on the generated arrays, before any CSV

    def setup(self) -> list[str]:
        problems = super().setup()
        panel = make_panel(self.params, self.seed, self.n_paths, self.n_samples, 0.01)
        for path, f in zip(panel, self.files):
            with open(f, "w", encoding="utf-8") as fh:
                fh.write(path.to_csv())
        self.expected = score_panel(panel, self.params)["sums"]
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            recorded = json.load(fh)["panel_sums"]
        return problems + _sum_problems(reference_sums(self.params), recorded, "reference panel")

    def op(self) -> dict:
        paths = []
        for f in self.files:
            with open(f, encoding="utf-8") as fh:
                paths.append(AgentPath.from_csv(fh.read()))
        return score_panel(paths, self.params)

    def work_done(self, out: dict) -> float:
        return self.n_paths * (self.n_samples - 1)

    def check(self, out: dict) -> list[str]:
        sums = out["sums"]
        problems = [f"{k} is not finite" for k, v in sums.items() if not math.isfinite(v)]
        problems += _sum_problems(sums, self.expected, "panel read from CSV:")
        out["good"] = out["n_finite"]
        return problems + self._repeat_check(tuple(sorted(sums.items())))


WORKLOADS = {w.name: w for w in (McWide, McLong, PhaseScan, PanelLikelihood)}


if __name__ == "__main__":
    # Print the recorded reference for reference.json (run from the checkout root
    # with src/ on PYTHONPATH).
    print(json.dumps({"panel": REFERENCE_PANEL, "panel_sums": reference_sums(ModelParams())}, indent=2))
