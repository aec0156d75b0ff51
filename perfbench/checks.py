"""Reference computations made apart from syncstab, and the result checks.

Nothing here calls into syncstab: the config text is read by a small parser
of its own, B comes from its own Kron reduction, Γ(jω) from its closed form
and every eigenvalue from plain NumPy.  A failed check raises
:class:`CheckFailed`; the runner counts the operation as failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# syncstab.stability.MARGINAL_BAND, restated so that the verdict rule is
# checked against the documented value rather than read back from the program
MARGINAL_BAND = 1e-3
# crosscheck statuses are only decisive outside this margin (criterion 04)
ORACLE_DECISIVE_MARGIN = 0.01
# the power flow stops once no P or Q mismatch exceeds 1e-8 at any node; the
# interior nodes' share of that mismatch reaches the converters through the
# reduction, hence twice the stopping tolerance
PF_RESIDUAL_TOL = 2e-8
IDENTITY_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# the config text, read without syncstab
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """What the checks need from a config: topology, gains and one case."""

    nodes: tuple[str, ...]
    branches: tuple[tuple[str, str, float], ...]
    slack: str
    conv_nodes: tuple[str, ...]
    conv_names: tuple[str, ...]
    kp: float
    ki: float
    omega0: float
    cases: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def n(self) -> int:
        return len(self.conv_names)


def read_grid(text: str) -> Grid:
    sections: dict[str, list[list[str]]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = line.strip("[]").strip()
            sections[current] = []
        else:
            sections[current].append(line.replace("=", " ").split())
    f0 = 50.0
    for row in sections.get("system", []):
        if row[0] == "rated_frequency_hz":
            f0 = float(row[1])
    convs = sections["converters"]
    names = tuple(r[0] for r in convs)
    cases = {}
    for title, rows in sections.items():
        if title.startswith("operating_point"):
            setp = {r[0]: (float(r[1]), float(r[2])) for r in rows}
            cases[title.split()[1]] = (
                np.array([setp.get(nm, (0.0, 0.0))[0] for nm in names]),
                np.array([setp.get(nm, (0.0, 0.0))[1] for nm in names]))
    return Grid(
        nodes=tuple(tok for r in sections["nodes"] for tok in r),
        branches=tuple((r[0], r[1], float(r[2])) for r in sections["branches"]),
        slack=sections["slack"][0][0],
        conv_nodes=tuple(r[1] for r in convs), conv_names=names,
        kp=float(convs[0][2]), ki=float(convs[0][3]),
        omega0=2.0 * math.pi * f0, cases=cases)


# --------------------------------------------------------------------------
# network references
# --------------------------------------------------------------------------

def laplacian(grid: Grid) -> tuple[np.ndarray, dict[str, int]]:
    idx = {nm: k for k, nm in enumerate(grid.nodes)}
    lap = np.zeros((len(idx), len(idx)))
    for a, b, x in grid.branches:
        i, j = idx[a], idx[b]
        lap[[i, j], [i, j]] += 1.0 / x
        lap[i, j] -= 1.0 / x
        lap[j, i] -= 1.0 / x
    return lap, idx


def _kron(lap: np.ndarray, keep: list[int], drop: list[int]) -> np.ndarray:
    out = lap[np.ix_(keep, keep)]
    if drop:
        out = out - lap[np.ix_(keep, drop)] @ np.linalg.solve(
            lap[np.ix_(drop, drop)], lap[np.ix_(drop, keep)])
    return 0.5 * (out + out.T)


def reduced_b(grid: Grid) -> np.ndarray:
    """B over the converter nodes: slack grounded, interior nodes eliminated."""
    lap, idx = laplacian(grid)
    keep = [idx[nd] for nd in grid.conv_nodes]
    drop = [k for k in range(len(idx)) if k not in keep and k != idx[grid.slack]]
    return _kron(lap, keep, drop)


def reduced_with_slack(grid: Grid) -> np.ndarray:
    """Laplacian over converters then slack (last row), interior eliminated."""
    lap, idx = laplacian(grid)
    keep = [idx[nd] for nd in grid.conv_nodes] + [idx[grid.slack]]
    drop = [k for k in range(len(idx)) if k not in keep]
    return _kron(lap, keep, drop)


def pf_residual(grid: Grid, p: np.ndarray, q: np.ndarray,
                u: np.ndarray, delta: np.ndarray) -> float:
    """Largest P or Q mismatch, with S = V·conj(Y·V) and Y = −j·L."""
    lap = reduced_with_slack(grid)
    v = np.append(u * np.exp(1j * delta), 1.0)
    s = v * np.conj(-1j * lap @ v)
    miss = s[:-1] - (p + 1j * q)
    return float(max(np.max(np.abs(miss.real)), np.max(np.abs(miss.imag))))


def gamma_parts(omega, u: float, kp: float, ki: float, omega0: float):
    """(D_con, K_con) = (Re Γ, Im Γ) in closed form."""
    omega = np.asarray(omega, dtype=float)
    den = kp * kp + ki * ki / (omega * omega)
    return omega0 * kp / (u * den), omega0 * (ki / (u * den) - 1.0) / omega


def gnet_eigs(b: np.ndarray, p: np.ndarray, q: np.ndarray, u: np.ndarray,
              omega0: float, omega) -> np.ndarray:
    """Eigenvalues of B⁻¹(−P̃ + j(ω0/ω)Q̃); batched over an array of ω."""
    pt, qt = p / u**2, q / u**2
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    diag = -pt[None, :] + 1j * (omega0 / omega)[:, None] * qt[None, :]
    mats = np.linalg.solve(b, np.eye(len(p)))[None, :, :] * diag[:, None, :]
    return np.linalg.eigvals(mats)


def multiset_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance in a greedy nearest pairing of two value sets."""
    left = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in left]))
        worst = max(worst, abs(x - left.pop(j)))
    return worst


def close(a: float, b: float, tol: float = IDENTITY_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def verdict_of(margin: float) -> str:
    if margin > MARGINAL_BAND:
        return "Stable"
    if margin < -MARGINAL_BAND:
        return "Unstable"
    return "Marginal"


# --------------------------------------------------------------------------
# one analysis (library calls)
# --------------------------------------------------------------------------

def check_analysis(grid: Grid, b_ref: np.ndarray, p: np.ndarray, q: np.ndarray,
                   result, eta: np.ndarray, dd_dp: np.ndarray, dominant: int,
                   oracle_status: str, root_tol_hz: float) -> None:
    """Check run_analysis → weights → sensitivities → oracle for one point."""
    b = result.net.b_matrix
    require(np.max(np.abs(b - b_ref)) <= 1e-9 * max(1.0, np.max(np.abs(b_ref))),
            "reduced B differs from the reference Kron reduction")
    rep = result.report
    u = result.op.u_pu
    if not result.steady.flat:
        require(pf_residual(grid, p, q, u, result.steady.delta0_rad) <= PF_RESIDUAL_TOL,
                "solved voltages miss the setpoints")
    u_ref = float(np.mean(u))
    crit = rep.critical
    crossings = [c for a in rep.per_subsystem for c in a.crossings]
    require((crit is None) == (not crossings), "critical point without crossings")
    if crit is None:
        require(rep.verdict == "NoCrossing", f"verdict {rep.verdict} without crossing")
        return

    eigs = gnet_eigs(b_ref, p, q, u, grid.omega0, crit.omega_c1)[0]
    require(np.min(np.abs(eigs - crit.lam1)) <= IDENTITY_TOL * max(1.0, abs(crit.lam1)),
            "lambda1 is not an eigenvalue of B^-1(-P~ + j w0/wc1 Q~)")

    for c in crossings:
        f = np.array([c.f_ci - root_tol_hz, c.f_ci + root_tol_hz])
        omega = 2.0 * np.pi * f
        ev = gnet_eigs(b_ref, p, q, u, grid.omega0, omega)
        lam = ev[np.arange(2), np.argmin(np.abs(ev - c.lam), axis=1)]
        k_total = gamma_parts(omega, u_ref, grid.kp, grid.ki, grid.omega0)[1] + lam.imag
        require(k_total[0] * k_total[1] < 0.0,
                f"crossing at {c.f_ci:.6f} Hz is not bracketed by +-root_tol_hz")

    d_con = float(gamma_parts(crit.omega_c1, u_ref, grid.kp, grid.ki, grid.omega0)[0])
    require(close(crit.d_con_at_c1, d_con), "D_con(w_c1) differs from the closed form")
    require(close(crit.margin, crit.d_con_at_c1 + crit.d_net1), "margin != D_con + D_net1")
    require(rep.verdict == verdict_of(crit.margin),
            f"verdict {rep.verdict} does not follow from margin {crit.margin:.6g}")

    require(np.all(eta >= 0.0), "negative weight eta")
    require(close(crit.d_net1, -float(eta @ p)), "D_net1 != -sum(eta P)")
    require(close(crit.lam1.imag, grid.omega0 / crit.omega_c1 * float(eta @ q)),
            "Im lambda1 != (w0/wc1) sum(eta Q)")
    require(np.array_equal(dd_dp, -eta) and dominant == int(np.argmax(eta)),
            "sensitivities are not (-eta, argmax eta)")

    if result.steady.flat and abs(crit.margin) > ORACLE_DECISIVE_MARGIN:
        require(oracle_status != "DISAGREE",
                f"oracle DISAGREE at decisive margin {crit.margin:.4g}")
    if grid.n == 1 and rep.verdict != "Marginal":
        m_p = p[0] / (b_ref[0, 0] * u[0] ** 2)
        m_q = q[0] / (b_ref[0, 0] * u[0] ** 2)
        unstable = m_p > (grid.omega0 * grid.kp / grid.ki) * (1.0 - m_q)
        require(unstable == (rep.verdict == "Unstable"),
                "two-bus verdict contradicts the scalar closed form")


# --------------------------------------------------------------------------
# CLI outputs
# --------------------------------------------------------------------------

def read_kv(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep and not line.startswith("#"):
                out[key.strip()] = value.strip()
    return out


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check_report(grid: Grid, p: np.ndarray, path: str) -> str:
    """analyze's report.txt: margin, verdict and D_net1 = −Σ η P."""
    kv = read_kv(path)
    margin, d_net1 = float(kv["margin"]), float(kv["D_net1"])
    d_con, f_c1 = float(kv["D_con_at_c1"]), float(kv["f_c1_hz"])
    require(close(margin, d_con + d_net1), "report margin != D_con + D_net1")
    require(kv["verdict"] == verdict_of(margin), "report verdict contradicts margin")
    u_ref = float(np.mean([float(kv[f"u_{nm}"]) for nm in grid.conv_names]))
    ref = float(gamma_parts(2 * np.pi * f_c1, u_ref, grid.kp, grid.ki, grid.omega0)[0])
    require(close(d_con, ref), "report D_con_at_c1 differs from the closed form")
    eta = np.array([float(kv[f"eta_{nm}"]) for nm in grid.conv_names])
    require(np.all(eta >= 0) and close(d_net1, -float(eta @ p)),
            "report D_net1 != -sum(eta P)")
    return kv["verdict"]


def check_curves(grid: Grid, b_ref: np.ndarray, p: np.ndarray, q: np.ndarray,
                 path: str) -> None:
    """curves.csv rows against closed-form Γ and the NumPy eigenvalues, at
    flat voltage (U = 1), which is how the station config runs."""
    header, rows = read_csv(path)
    n = grid.n
    require(header[:3] == ["f_hz", "D_con", "K_con"] and len(header) == 3 + 2 * n,
            "curves.csv header")
    data = np.array(rows, dtype=float)
    omega = 2.0 * np.pi * data[:, 0]
    u = np.ones(n)
    d_con, k_con = gamma_parts(omega, 1.0, grid.kp, grid.ki, grid.omega0)
    scale = np.maximum(1.0, np.abs(data[:, 1:3]))
    require(np.all(np.abs(data[:, 1] - d_con) <= IDENTITY_TOL * scale[:, 0])
            and np.all(np.abs(data[:, 2] - k_con) <= IDENTITY_TOL * scale[:, 1]),
            "curves.csv D_con/K_con differ from the closed form")
    lam = data[:, 3:3 + n] + 1j * data[:, 3 + n:3 + 2 * n]
    ref = gnet_eigs(b_ref, p, q, u, grid.omega0, omega)
    for k in range(len(data)):
        require(multiset_dev(lam[k], ref[k]) <= IDENTITY_TOL * max(1.0, np.max(np.abs(ref[k]))),
                f"curves.csv row {k}: D_net + jK_net are not the eigenvalues")


def dominant_sigma(path: str) -> float:
    """σ of the dominant oscillatory mode in modes.csv (|f| above 0.5 Hz)."""
    _header, rows = read_csv(path)
    data = np.array(rows, dtype=float)
    osc = data[np.abs(data[:, 1]) > 2.0 * np.pi * 0.5]
    return float(np.max(osc[:, 0]))


def check_timeseries(n: int, dt: float, duration: float, pulse_end: float,
                     sigma: float, path: str) -> None:
    """Row and column counts, finiteness, and envelope growth vs sign(σ)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    require(data.shape == (int(round(duration / dt)) + 1, 3 * n + 1),
            f"timeseries shape {data.shape}")
    require(bool(np.all(np.isfinite(data))), "non-finite timeseries entries")
    t = data[:, 0]
    theta = np.abs(data[:, 1:n + 1])
    span = (t[-1] - pulse_end) / 3.0
    early = np.max(theta[(t > pulse_end) & (t <= pulse_end + span)])
    late = np.max(theta[t > t[-1] - span])
    require((late < early) == (sigma < 0.0),
            f"envelope {early:.3g} -> {late:.3g} contradicts sigma {sigma:.3g}")
