"""Linear program solving behind a thin stable interface.

The heavy lifting is delegated to scipy's HiGHS backend, which is
deterministic for a fixed model and configuration. HiGHS in process is the
only source of an LP solution, so the reported objective is the optimum of
the live relaxation. The model (see `lp_model`) holds only the live columns,
and HiGHS gets it as it is. Every optimal result is replayed against every
row of the model before being returned; with the dead columns at 0 this is
the replay against the full relaxation, whose other rows 0 satisfies. So a
wrong answer from the backend cannot slip through silently. A wrong
live-column rule would instead give a feasible, suboptimal point, which no
replay sees; the tests catch it by comparing the model with a full
reference model, and the benchmark by checking that the LP value stays at
most OPT. Infeasible models get a certificate: the smallest total
relaxation (elastic slacks) that would make the rows consistent, reported
per offending row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack

from .errors import SolverError
from .lp_model import (
    EQ,
    GE,
    INFEASIBLE,
    LIMIT,
    OPTIMAL,
    LpModel,
    LpSolution,
    replay_constraints,
)


# HiGHS primal and dual feasibility tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# largest row violation accepted when replaying a backend optimum, and the
# smallest elastic slack that puts a row into an infeasibility certificate
REPLAY_TOL = 1e-8


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


def _options(max_iterations: Optional[int]) -> dict:
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    options = {
        "presolve": True,
        "primal_feasibility_tolerance": FEAS_TOL,
        "dual_feasibility_tolerance": OPT_TOL,
    }
    if max_iterations is not None:
        options["maxiter"] = max_iterations
    return options


def solve(model: LpModel, max_iterations: Optional[int] = None) -> LpSolution:
    options = _options(max_iterations)
    a_ub, b_ub, a_eq, b_eq = _split_rows(model)
    result = linprog(
        model.objective,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=(0.0, 1.0),
        method="highs",
        options=options,
    )
    run = {"model": model, "iterations": int(result.nit)}
    if result.status == 0:
        values = np.asarray(result.x, dtype=float)
        violation = replay_constraints(model, values)
        if violation > REPLAY_TOL:
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
        certificate = _infeasibility_certificate(model, max_iterations)
        return LpSolution(
            values=np.zeros(model.num_vars),
            objective=float("nan"),
            status=INFEASIBLE,
            certificate=certificate,
            **run,
        )
    raise SolverError(f"backend failure: {result.message}")


def _infeasibility_certificate(
    model: LpModel, max_iterations: Optional[int]
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
        options=_options(max_iterations),
    )
    if result.status != 0:
        raise SolverError(f"elastic relaxation failed: {result.message}")
    slacks = np.asarray(result.x[n:])
    offenders = tuple(
        (pos, model.families[model.family[pos]], float(slacks[pos]))
        for pos in np.flatnonzero(slacks > REPLAY_TOL).tolist()
    )
    return InfeasibilityCertificate(offenders, float(np.sum(slacks)))

