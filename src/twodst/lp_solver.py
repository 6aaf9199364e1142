"""Linear program solving behind a thin stable interface.

The heavy lifting is delegated to HiGHS, which is deterministic for a fixed
model and configuration. HiGHS in process is the only source of an LP
solution, so the reported objective is the optimum of the live relaxation.
The model (see `lp_model`) holds only the live columns and the rows that can
bind, and HiGHS gets it as it is. Every optimal result is replayed against
every row of the model and the bounds 0 <= x <= 1; with the dead columns at
0 this is the replay against the full relaxation, whose other rows 0 or the
bounds satisfy. So a wrong answer from the backend cannot slip through
silently. A wrong live-column rule would instead give a feasible, suboptimal
point, which no replay sees; the tests catch it by comparing the model with
a full reference model, and the benchmark by checking that the LP value
stays at most OPT. Infeasible models get a certificate: the smallest total
relaxation (elastic slacks) that would make the rows consistent, reported
per offending row.

`linprog` calls HiGHS directly through scipy's bindings
(`scipy.optimize._highspy._core`), with exactly the arrays and options that
`scipy.optimize.linprog(method="highs")` would pass: the <= rows, then the
equality rows, as one column-wise matrix with row bounds (-inf, b_ub] and
[b_eq, b_eq]; presolve on, dual simplex, no debug checks, no output, both
feasibility tolerances at 1e-9, and the iteration limit on both the simplex
and the IPM. It reads back only the model status (mapped to scipy's status
codes), the objective, the column values and the simplex iteration count,
and skips what scipy's wrapper adds: input cleaning, option checks one
option at a time, and duals. scipy's own post-check of the point at 1e-9 is
replaced by the replay at `REPLAY_TOL`. The bindings are private API, so
the module checks at import that every name it uses exists, and raises
ImportError naming the missing one; `tests/test_lp_solver.py` pins the call
against `scipy.optimize.linprog` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.sparse import csr_matrix, hstack, vstack

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


def _require(module, names):
    """The module, once it is checked to have every name."""
    for name in names:
        if not hasattr(module, name):
            raise ImportError(
                f"{module.__name__} has no attribute {name!r}; twodst calls HiGHS "
                "through this private scipy API, which the installed scipy lacks"
            )
    return module


try:
    from scipy.optimize._highspy import _core
except ImportError as err:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "twodst calls HiGHS through scipy.optimize._highspy._core, which the "
        "installed scipy lacks"
    ) from err

_highs = _require(_core, (
    "_Highs", "HighsLp", "HighsOptions", "HighsStatus", "HighsModelStatus",
    "MatrixFormat", "kHighsInf",
))

# HiGHS primal and dual feasibility tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# largest row violation accepted when replaying a backend optimum, and the
# smallest elastic slack that puts a row into an infeasibility certificate
REPLAY_TOL = 1e-8

# HiGHS model status -> scipy's linprog status: 0 optimal, 1 limit,
# 2 infeasible, 3 unbounded, 4 anything else
_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kModelError: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}


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


class HighsResult(NamedTuple):
    """What `linprog` reads back; `x` and `fun` are None unless optimal."""

    x: Optional[np.ndarray]
    fun: Optional[float]
    status: int  # as scipy's linprog: 0 optimal, 1 limit, 2 infeasible, ...
    nit: int  # simplex iterations
    message: str


def _highs_options(max_iterations: Optional[int]):
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # kSimplexStrategyDual
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    options.primal_feasibility_tolerance = FEAS_TOL
    options.dual_feasibility_tolerance = OPT_TOL
    if max_iterations is not None:
        options.simplex_iteration_limit = max_iterations
        options.ipm_iteration_limit = max_iterations
    return options


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0.0, 1.0),
            max_iterations: Optional[int] = None) -> HighsResult:
    """min c.x over A_ub x <= b_ub, A_eq x = b_eq and lower <= x <= upper,
    by one HiGHS run; `bounds` is (lower, upper), each a scalar or one value
    per column, and an upper bound of `kHighsInf` (inf) means none."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    n = len(c)
    blocks = [(a, b) for a, b in ((A_ub, b_ub), (A_eq, b_eq)) if a is not None]
    blocks = blocks or [(csr_matrix((0, n)), np.zeros(0))]
    a = vstack([a for a, _ in blocks], format="csc")
    rhs = np.concatenate([np.asarray(b, dtype=float) for _, b in blocks])
    num_ub = 0 if A_ub is None else len(b_ub)
    lhs = rhs.copy()
    lhs[:num_ub] = -_highs.kHighsInf
    lower, upper = bounds

    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(rhs)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = np.asarray(c, dtype=float)
    lp.col_lower_ = np.broadcast_to(np.asarray(lower, dtype=float), n).copy()
    lp.col_upper_ = np.broadcast_to(np.asarray(upper, dtype=float), n).copy()
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    # the bindings copy an int array element by element, a list about 2x faster
    lp.a_matrix_.start_ = a.indptr.tolist()
    lp.a_matrix_.index_ = a.indices.tolist()
    lp.a_matrix_.value_ = a.data

    highs = _highs._Highs()
    highs.passOptions(_highs_options(max_iterations))
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    code = _STATUS.get(status, 4)
    info = highs.getInfo()
    nit = int(info.simplex_iteration_count)
    message = highs.modelStatusToString(status)
    if code != 0:
        return HighsResult(None, None, code, nit, message)
    return HighsResult(np.array(highs.getSolution().col_value),
                       float(info.objective_function_value), code, nit, message)


def solve(model: LpModel, max_iterations: Optional[int] = None) -> LpSolution:
    a_ub, b_ub, a_eq, b_eq = _split_rows(model)
    result = linprog(
        model.objective,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=(0.0, 1.0),
        max_iterations=max_iterations,
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
    upper = np.concatenate([np.ones(n), np.full(k, _highs.kHighsInf)])  # slacks uncapped
    result = linprog(cost, A_ub=a_ub, b_ub=rhs_ub, bounds=(0.0, upper),
                     max_iterations=max_iterations)
    if result.status != 0:
        raise SolverError(f"elastic relaxation failed: {result.message}")
    slacks = np.asarray(result.x[n:])
    offenders = tuple(
        (pos, model.families[model.family[pos]], float(slacks[pos]))
        for pos in np.flatnonzero(slacks > REPLAY_TOL).tolist()
    )
    return InfeasibilityCertificate(offenders, float(np.sum(slacks)))

