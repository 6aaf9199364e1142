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
(`scipy.optimize._highspy._core`), on the model that
`scipy.optimize.linprog(method="highs")` would build: the <= rows (>= rows
negated), then the equality rows, as one column-wise matrix with row
bounds (-inf, b_ub] and [b_eq, b_eq]; presolve on, dual simplex, no debug
checks, no output, both feasibility tolerances at 1e-9, and the iteration
limit on both the simplex and the IPM. `_split_rows` gathers that matrix
from the model's CSR in one pass, as numpy arrays of the dtypes HiGHS
stores (int32 starts and indices, float64 values and bounds), and
`linprog` hands them to the pointer overload of `_Highs.passModel`, so
HiGHS reads them in place. That overload also takes an integrality array,
which must hold one 0 (continuous) per column: an empty one makes
`passModel` reject the model. HiGHS cannot see the arrays' lengths through
the pointers, so `linprog` checks that they fit together. Both a misfit
and a model HiGHS rejects raise `SolverError`; they are faults in the
handoff, not an infeasible LP. `linprog` reads back only the model status
(mapped to scipy's status codes), the objective, the column values and the
simplex iteration count, and skips what scipy's wrapper adds: input
cleaning, option checks one option at a time, and duals. scipy's own
post-check of the point at 1e-9 is replaced by the replay at `REPLAY_TOL`.
The bindings are private API, so the module checks at import that every
name it uses exists, and raises ImportError naming the missing one;
`tests/test_lp_solver.py` pins the arrays against scipy's own sparse
stacking and the call against `scipy.optimize.linprog` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import SolverError
from .lp_model import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
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
    "_Highs", "HighsOptions", "HighsStatus", "HighsModelStatus", "MatrixFormat",
    "ObjSense", "kHighsInf",
))

# HiGHS primal and dual feasibility tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# largest row violation accepted when replaying a backend optimum, and the
# smallest elastic slack that puts a row into an infeasibility certificate
REPLAY_TOL = 1e-8

# HiGHS model status -> scipy's linprog status: 0 optimal, 1 limit,
# 2 infeasible, 3 unbounded, 4 anything else; unlike scipy, a model error
# is 4, a fault and not an infeasible LP
_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
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


def _row_entries(indptr: np.ndarray, rows: np.ndarray):
    """Positions in a CSR's entry arrays of the given rows' entries, row
    after row (repeats allowed), and the length of each row."""
    lengths = np.diff(indptr)[rows]
    offsets = np.cumsum(lengths) - lengths  # each row's first position in the result
    return np.arange(int(lengths.sum())) + np.repeat(indptr[rows] - offsets, lengths), lengths


def _split_rows(model: LpModel):
    """The model's rows as HiGHS's column-wise arrays, gathered from its CSR
    in one pass: the <= and >= rows, each >= row negated, then the = rows,
    each part in model order; within a column, entries by row. Returns
    (start, index, value, row_lower, row_upper), with int32 `start` and
    `index`, one column per entry of `model.objective`, and row bounds
    (-inf, b] for the first part and [b, b] for the second."""
    eq = model.sense == EQ
    order = np.argsort(eq, kind="stable")
    sign = np.where(model.sense[order] == GE, -1.0, 1.0)
    entries, lengths = _row_entries(model.indptr, order)
    cols = model.indices[entries]
    by_col = np.argsort(cols, kind="stable")
    n = len(model.objective)
    start = np.zeros(n + 1, dtype=np.int32)
    start[1:] = np.cumsum(np.bincount(cols, minlength=n))
    index = np.repeat(np.arange(len(order), dtype=np.int32), lengths)[by_col]
    value = (model.data[entries] * np.repeat(sign, lengths))[by_col]
    row_upper = sign * model.rhs[order]
    row_lower = np.where(eq[order], row_upper, -_highs.kHighsInf)
    return start, index, value, row_lower, row_upper


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


def linprog(c, rows, bounds=(0.0, 1.0), max_iterations: Optional[int] = None) -> HighsResult:
    """min c.x over row_lower <= A x <= row_upper and lower <= x <= upper,
    by one HiGHS run. `rows` is `_split_rows`' (start, index, value,
    row_lower, row_upper); `bounds` is (lower, upper), each a scalar or one
    value per column, and an upper bound of `kHighsInf` (inf) means none.
    Raises SolverError when the arrays' lengths do not fit together, which
    HiGHS cannot see through the pointers, or when HiGHS rejects the model."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    start, index, value, row_lower, row_upper = rows
    n = len(c)
    if len(start) != n + 1 or len(index) != len(value) or len(row_lower) != len(row_upper):
        raise SolverError(
            f"malformed rows for HiGHS: {len(start)} column starts for {n} columns, "
            f"{len(index)} row indices for {len(value)} values, "
            f"{len(row_lower)} row lower bounds for {len(row_upper)} upper"
        )
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), n).copy() for b in bounds)

    highs = _highs._Highs()
    highs.passOptions(_highs_options(max_iterations))
    passed = highs.passModel(
        n, len(row_upper), len(value), int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, np.asarray(c, dtype=float), lower, upper,
        row_lower, row_upper, start, index, value, np.zeros(n, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        raise SolverError(
            f"HiGHS rejected the model ({n} columns, {len(row_upper)} rows, "
            f"{len(value)} nonzeros): passModel returned kError"
        )
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
    result = linprog(model.objective, _split_rows(model), (0.0, 1.0), max_iterations)
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


def _elastic_model(model: LpModel) -> LpModel:
    """The model's elastic LP, as a model over its n columns and then one
    slack column per row: every row as <= rows (a >= row negated, an = row
    once as is and once negated), each followed by its row's slack with
    coefficient -1. Only the rows and the objective (zero on the model's
    columns, one on the slacks) are the elastic LP's; `var_index` is the
    model's."""
    n = model.num_vars
    k = model.num_rows
    eq = model.sense == EQ
    rows = np.repeat(np.arange(k), np.where(eq, 2, 1))
    second = np.zeros(len(rows), dtype=bool)
    second[1:] = rows[1:] == rows[:-1]
    sign = np.where(second | (model.sense[rows] == GE), -1.0, 1.0)
    entries, lengths = _row_entries(model.indptr, rows)
    indptr = np.concatenate(([0], np.cumsum(lengths + 1)))
    slack = indptr[1:] - 1
    term = np.ones(indptr[-1], dtype=bool)
    term[slack] = False
    indices = np.empty(indptr[-1], dtype=model.indices.dtype)
    indices[term] = model.indices[entries]
    indices[slack] = n + rows
    data = np.empty(indptr[-1])
    data[term] = model.data[entries] * np.repeat(sign, lengths)
    data[slack] = -1.0
    return replace(
        model,
        objective=np.concatenate([np.zeros(n), np.ones(k)]),
        indptr=indptr, indices=indices, data=data,
        sense=np.full(len(rows), LE), rhs=sign * model.rhs[rows], family=model.family[rows],
    )


def _infeasibility_certificate(
    model: LpModel, max_iterations: Optional[int]
) -> InfeasibilityCertificate:
    """Minimize the total elastic slack needed to satisfy all rows.

    Every row gets one slack variable easing it in the violated
    direction (equalities may flex both ways; see `_elastic_model`). Rows
    given positive slack at the optimum form the repair set: relaxing each
    by its amount makes the model feasible.
    """
    n = model.num_vars
    k = model.num_rows
    elastic = _elastic_model(model)
    upper = np.concatenate([np.ones(n), np.full(k, _highs.kHighsInf)])  # slacks uncapped
    result = linprog(elastic.objective, _split_rows(elastic), (0.0, upper), max_iterations)
    if result.status != 0:
        raise SolverError(f"elastic relaxation failed: {result.message}")
    slacks = np.asarray(result.x[n:])
    offenders = tuple(
        (pos, model.families[model.family[pos]], float(slacks[pos]))
        for pos in np.flatnonzero(slacks > REPLAY_TOL).tolist()
    )
    return InfeasibilityCertificate(offenders, float(np.sum(slacks)))

