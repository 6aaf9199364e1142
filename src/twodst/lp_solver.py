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
violation of the rows, over 0 <= x <= 1, that would make them consistent,
reported per offending row. `solve` sets up one HiGHS object per model:
`linprog` runs it, and for an infeasible model HiGHS computes the
certificate on the same object with its feasibility relaxation
(`_Highs.feasibilityRelaxation`), which penalises each unit of row violation
by 1 and never relaxes a bound; this is the elastic LP with one slack per
row (an = row may flex both ways).

HiGHS is called directly through scipy's bindings
(`scipy.optimize._highspy._core`) on the model as `lp_model` built it, which
is already HiGHS's row-wise LP: its CSR matrix, each row as a range
[row_lower, row_upper], and the bounds 0 <= x <= 1; presolve on, dual
simplex, no debug checks, no output, both feasibility tolerances at 1e-9,
and the iteration limit on both the simplex and the IPM. The model's rows
are already in the order `scipy.optimize.linprog(method="highs")` would give
them (the inequality rows, then the = rows), so HiGHS gets the LP that
scipy's wrapper would build, row for row. `_split_rows` only casts the CSR's
starts and indices to the int32 HiGHS stores, and `_highs_model` hands the
arrays to the pointer overload of `_Highs.passModel`, so HiGHS reads them in
place. That overload also takes an integrality array, which must hold one 0
(continuous) per column: an empty one makes `passModel` reject the model.
HiGHS cannot see the arrays' lengths through the pointers, so `_highs_model`
checks that they fit together. Both a misfit and a model HiGHS rejects raise
`SolverError`; they are faults in the handoff, not an infeasible LP.
`linprog` reads back only the model status (mapped to `lp_model`'s
statuses), the objective, the column values and the simplex iteration count,
and skips what scipy's wrapper adds: input cleaning, option checks one
option at a time, and duals. scipy's own post-check of the point at 1e-9 is
replaced by the replay at `REPLAY_TOL` (a non-finite coordinate is an
infinite violation) and by a check that the objective HiGHS reports is c.x
at the point, to `REPLAY_TOL` relative; either failing raises `SolverError`.
The certificate's rows are the model's rows, in its order, and its amounts
are the replay's row violations (`lp_model.row_violations`). The bindings
are private API, so the module checks at import that every name and method
it uses exists, and raises ImportError naming the missing one;
`tests/test_lp_solver.py` pins the call against `scipy.optimize.linprog`
itself, whose wrapper hands HiGHS the same rows column-wise with each >=
row negated (x, objective and iterations bit for bit), and the certificate
against an elastic LP solved by `scipy.optimize.linprog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import SolverError
from .lp_model import (
    INFEASIBLE,
    LIMIT,
    OPTIMAL,
    LpModel,
    LpSolution,
    replay_constraints,
    row_violations,
)


def _require(owner, names):
    """The module or class, once it is checked to have every name."""
    for name in names:
        if not hasattr(owner, name):
            raise ImportError(
                f"{owner.__name__} has no attribute {name!r}; twodst calls HiGHS "
                "through this private scipy API, which the installed scipy lacks"
            )
    return owner


try:
    from scipy.optimize._highspy import _core
except ImportError as err:  # pragma: no cover - depends on the installed scipy
    raise ImportError(
        "twodst calls HiGHS through scipy.optimize._highspy._core, which the "
        "installed scipy lacks"
    ) from err

_highs = _require(_core, (
    "_Highs", "HighsOptions", "HighsStatus", "HighsModelStatus", "MatrixFormat", "ObjSense",
))
_require(_highs._Highs, (
    "passOptions", "passModel", "run", "feasibilityRelaxation", "getModelStatus",
    "modelStatusToString", "getInfo", "getSolution",
))

# HiGHS primal and dual feasibility tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# largest row violation accepted when replaying a backend optimum, and the
# smallest row violation that puts a row into an infeasibility certificate
REPLAY_TOL = 1e-8

# HiGHS model status -> the model's; any other (unbounded, a model error)
# is a backend fault, not an infeasible LP
_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kTimeLimit: LIMIT,
    _highs.HighsModelStatus.kIterationLimit: LIMIT,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
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


def _split_rows(model: LpModel):
    """The model's rows as HiGHS's row-wise arrays: its CSR and row ranges
    as they are, with int32 starts and indices. Returns (start, index,
    value, row_lower, row_upper)."""
    return (model.indptr.astype(np.int32), model.indices.astype(np.int32), model.data,
            model.row_lower, model.row_upper)


class HighsResult(NamedTuple):
    """What `linprog` reads back; `x` and `fun` are None unless optimal."""

    x: Optional[np.ndarray]
    fun: Optional[float]
    status: Optional[str]  # OPTIMAL, LIMIT or INFEASIBLE; None for any other
    nit: int  # simplex iterations
    message: str


def _highs_model(c, rows, max_iterations: Optional[int]):
    """A HiGHS instance holding min c.x over row_lower <= A x <= row_upper
    and 0 <= x <= 1, with this module's options. `rows` is `_split_rows`'
    (start, index, value, row_lower, row_upper). Raises SolverError when the
    arrays' lengths do not fit together, which HiGHS cannot see through the
    pointers, or when HiGHS rejects the model."""
    if max_iterations is not None and max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    start, index, value, row_lower, row_upper = rows
    n, k = len(c), len(row_upper)
    if len(start) != k + 1 or len(index) != len(value) or len(row_lower) != k:
        raise SolverError(
            f"malformed rows for HiGHS: {len(start)} row starts for {k} rows, "
            f"{len(index)} column indices for {len(value)} values, "
            f"{len(row_lower)} row lower bounds for {k} upper"
        )
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
    highs = _highs._Highs()
    highs.passOptions(options)
    passed = highs.passModel(
        n, k, len(value), int(_highs.MatrixFormat.kRowwise),
        int(_highs.ObjSense.kMinimize), 0.0, np.asarray(c, dtype=float), np.zeros(n),
        np.ones(n), row_lower, row_upper, start, index, value, np.zeros(n, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        raise SolverError(
            f"HiGHS rejected the model ({n} columns, {k} rows, "
            f"{len(value)} nonzeros): passModel returned kError"
        )
    return highs


def linprog(highs) -> HighsResult:
    """One run of the HiGHS instance `_highs_model` set up, and what it
    found."""
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    result = HighsResult(None, None, _STATUS.get(status), int(info.simplex_iteration_count),
                         highs.modelStatusToString(status))
    if result.status != OPTIMAL:
        return result
    return result._replace(x=np.array(highs.getSolution().col_value),
                           fun=float(info.objective_function_value))


def solve(model: LpModel, max_iterations: Optional[int] = None) -> LpSolution:
    highs = _highs_model(model.objective, _split_rows(model), max_iterations)
    result = linprog(highs)
    run = {"model": model, "status": result.status, "iterations": result.nit}
    if result.status == OPTIMAL:
        values = np.asarray(result.x, dtype=float)
        violation = replay_constraints(model, values)
        if not violation <= REPLAY_TOL:
            raise SolverError(
                f"backend reported optimal but replay finds violation {violation:.3e}"
            )
        fun, recomputed = float(result.fun), float(model.objective @ values)
        # scaled by c.x, which is finite, so a non-finite objective fails too
        if not abs(fun - recomputed) <= REPLAY_TOL * (1.0 + abs(recomputed)):
            raise SolverError(
                f"backend reported objective {fun!r} but the point's is {recomputed!r}")
        return LpSolution(values=values, objective=fun, max_violation=violation, **run)
    if result.status is None:
        raise SolverError(f"backend failure: {result.message}")
    certificate = None
    if result.status == INFEASIBLE:
        certificate = _infeasibility_certificate(model, highs)
    return LpSolution(values=np.zeros(model.num_vars), objective=float("nan"),
                      certificate=certificate, **run)


def _infeasibility_certificate(model: LpModel, highs) -> InfeasibilityCertificate:
    """The least total row violation over 0 <= x <= 1, by HiGHS's
    feasibility relaxation of the model on `highs`, the HiGHS instance that
    found it infeasible: every row may be violated at a cost of 1 per unit
    (an = row either way), and no bound may be. Each row's amount is its
    violation (`row_violations`) at the relaxation's optimum; the rows with
    more than `REPLAY_TOL` form the repair set, and relaxing each by its
    amount makes the model feasible."""
    relaxed = highs.feasibilityRelaxation(-1, -1, 1)  # bounds fixed, rows at 1 per unit
    if relaxed != _highs.HighsStatus.kOk:
        raise SolverError(f"feasibility relaxation failed: HiGHS returned {relaxed.name}")
    activity = np.array(highs.getSolution().row_value)
    amounts = row_violations(activity, model.row_lower, model.row_upper)
    offenders = tuple(
        (pos, model.families[model.family[pos]], float(amounts[pos]))
        for pos in np.flatnonzero(amounts > REPLAY_TOL).tolist()
    )
    return InfeasibilityCertificate(offenders, float(np.sum(amounts)))
