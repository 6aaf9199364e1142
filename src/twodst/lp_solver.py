"""Linear program solving behind a thin stable interface.

The heavy lifting is delegated to scipy's HiGHS backend, which is
deterministic for a fixed model and configuration. The model holds only
the live part of the relaxation (see `lp_model`): a dead column
(`LpModel.live` false) sits in no row. HiGHS sees only the live columns,
and the dead ones come back as exact zeros. Every optimal result is
replayed against every row of the model before being returned; at a point
whose dead columns are 0 this is the replay against the full relaxation,
whose other rows 0 satisfies. So a wrong answer from the backend cannot
slip through silently. A wrong column mask would instead give a feasible,
suboptimal point, which no replay sees; the tests catch it by comparing the
model with a full reference model, and the benchmark by checking that the
LP value stays at most OPT. Infeasible models get a certificate: the
smallest total relaxation (elastic slacks) that would make the rows
consistent, reported per offending row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack

from .errors import ModelInconsistencyError, SolverError
from .lp_model import (
    EQ,
    GE,
    INFEASIBLE,
    LIMIT,
    OPTIMAL,
    LpModel,
    LpSolution,
    replay_constraints,
    solution_values_from_json,
)


@dataclass(frozen=True)
class SolverConfig:
    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    max_iterations: Optional[int] = None

    def __post_init__(self):
        if self.feas_tol <= 0 or self.opt_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Rows that must be relaxed, with the amounts, to restore feasibility."""

    rows: tuple  # (row position, family, relaxation amount)
    total_relaxation: float

    def families(self) -> dict:
        out: dict = {}
        for _, family, amount in self.rows:
            out[family] = out.get(family, 0.0) + amount
        return out


def _signed_rows(model: LpModel, rows: np.ndarray, sign: np.ndarray):
    """The given rows of the model (repeats allowed), each times its sign."""
    lengths = np.diff(model.indptr)
    sub = model.matrix()[rows]
    sub.data *= np.repeat(sign, lengths[rows])
    return sub, sign * model.rhs[rows]


def _split_rows(model: LpModel):
    """Rows as sparse inequality/equality blocks (GE rows negated)."""
    eq = model.sense == EQ
    ub = np.flatnonzero(~eq)
    a_ub, b_ub = _signed_rows(model, ub, np.where(model.sense[ub] == GE, -1.0, 1.0))
    a_eq, b_eq = _signed_rows(model, np.flatnonzero(eq), np.ones(int(eq.sum())))
    return (a_ub if len(ub) else None), b_ub, (a_eq if len(b_eq) else None), b_eq


def _live_block(block, rhs: np.ndarray, cols: np.ndarray, equality: bool):
    """The block's live columns, without the rows left with no term.

    Such a row reads 0 against its right-hand side, which must hold.
    """
    if block is None:
        return None, rhs
    block = block[:, cols]
    kept = np.diff(block.indptr) > 0
    dropped = rhs[~kept]
    broken = dropped != 0.0 if equality else dropped < 0.0
    if broken.any():
        raise ModelInconsistencyError(
            f"{int(broken.sum())} row(s) with only dead columns are not satisfied by 0"
        )
    block = block[kept]
    return (block if block.shape[0] else None), rhs[kept]


def _options(config: SolverConfig) -> dict:
    options = {
        "presolve": True,
        "primal_feasibility_tolerance": config.feas_tol,
        "dual_feasibility_tolerance": max(config.opt_tol, 1e-10),
    }
    if config.max_iterations is not None:
        options["maxiter"] = config.max_iterations
    return options


def solve(model: LpModel, config: SolverConfig = SolverConfig()) -> LpSolution:
    cols = np.flatnonzero(model.live)
    a_ub, b_ub, a_eq, b_eq = _split_rows(model)
    a_ub, b_ub = _live_block(a_ub, b_ub, cols, equality=False)
    a_eq, b_eq = _live_block(a_eq, b_eq, cols, equality=True)
    blocks = [a for a in (a_ub, a_eq) if a is not None]
    shape = (sum(a.shape[0] for a in blocks), len(cols), sum(a.nnz for a in blocks))
    result = linprog(
        model.objective[cols],
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=(0.0, 1.0),
        method="highs",
        options=_options(config),
    )
    run = {"model": model, "iterations": int(result.nit), "solved_shape": shape}
    if result.status == 0:
        values = np.zeros(model.num_vars)
        values[cols] = result.x
        violation = replay_constraints(model, values)
        if violation > max(10.0 * config.feas_tol, 1e-8):
            raise SolverError(
                f"backend reported optimal but replay finds violation {violation:.3e}"
            )
        return LpSolution(
            values=values,
            objective=float(result.fun),
            status=OPTIMAL,
            max_violation=violation,
            **run,
        )
    if result.status == 1:
        return LpSolution(
            values=np.zeros(model.num_vars),
            objective=float("nan"),
            status=LIMIT,
            **run,
        )
    if result.status == 2:
        certificate = _infeasibility_certificate(model, config)
        return LpSolution(
            values=np.zeros(model.num_vars),
            objective=float("nan"),
            status=INFEASIBLE,
            certificate=certificate,
            **run,
        )
    raise SolverError(f"backend failure: {result.message}")


def _infeasibility_certificate(
    model: LpModel, config: SolverConfig
) -> InfeasibilityCertificate:
    """Minimize the total elastic slack needed to satisfy all rows.

    Every row gets one slack variable easing it in the violated
    direction (equalities may flex both ways). Rows given positive slack
    at the optimum form the repair set: relaxing each by its amount makes
    the model feasible.
    """
    n = model.num_vars
    k = model.num_rows
    # equalities become two inequalities (sign +1, then -1) sharing one slack
    eq = model.sense == EQ
    rows = np.repeat(np.arange(k), np.where(eq, 2, 1))
    second = np.zeros(len(rows), dtype=bool)
    second[1:] = rows[1:] == rows[:-1]
    sign = np.where(second | (model.sense[rows] == GE), -1.0, 1.0)
    signed, rhs_ub = _signed_rows(model, rows, sign)
    slack = csr_matrix(
        (-np.ones(len(rows)), (np.arange(len(rows)), rows)), shape=(len(rows), k)
    )
    a_ub = hstack([signed, slack], format="csr")
    cost = np.concatenate([np.zeros(n), np.ones(k)])
    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * k
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=rhs_ub,
        bounds=bounds,
        method="highs",
        options=_options(config),
    )
    if result.status != 0:
        raise SolverError(f"elastic relaxation failed: {result.message}")
    slacks = np.asarray(result.x[n:])
    tol = max(10.0 * config.feas_tol, 1e-8)
    offenders = tuple(
        (pos, model.families[model.family[pos]], float(slacks[pos]))
        for pos in np.flatnonzero(slacks > tol).tolist()
    )
    return InfeasibilityCertificate(offenders, float(np.sum(slacks)))


def solution_from_file(
    model: LpModel, path, config: SolverConfig = SolverConfig()
) -> LpSolution:
    """Adopt an externally produced solution dump instead of solving.

    Dead columns are set to 0 first: they cost nothing and sit in no row, so
    a dump could otherwise pass any value on them on to rounding.
    """
    values = solution_values_from_json(model, Path(path).read_text())
    values[~model.live] = 0.0
    violation = replay_constraints(model, values)
    if violation > max(10.0 * config.feas_tol, 1e-6):
        raise SolverError(
            f"external solution violates the model by {violation:.3e}"
        )
    return LpSolution(
        model=model,
        values=values,
        objective=float(np.dot(model.objective, values)),
        status=OPTIMAL,
        max_violation=violation,
    )
