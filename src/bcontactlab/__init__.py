"""bcontactlab: numerical laboratory for contact dynamics with a critical surface.

Core objects are a small expression language whose exact partial derivatives
are expressions too (:mod:`~bcontactlab.expressions`, the one differentiation
engine: symbolic ``differentiate`` evaluated on floats or arrays, and trees
compiled by ``compile`` into one generated function),
tubular charts of a surface Z inside a 3-manifold (:mod:`~bcontactlab.charts`),
singular contact forms f dz/z + β with their Reeb fields and the induced
Hamiltonian system on Z (:mod:`~bcontactlab.contact`,
:mod:`~bcontactlab.critical`), an orbit engine that traces escape orbits in
log-regularized coordinates (:mod:`~bcontactlab.rk45`,
:mod:`~bcontactlab.orbits`), Beltrami-field identities on Z
(:mod:`~bcontactlab.beltrami`), and the three-body problem at infinity in
McGehee coordinates (:mod:`~bcontactlab.mcgehee`).  Scenario files, the
pipeline runner and the CLI live in :mod:`~bcontactlab.scenarios`,
:mod:`~bcontactlab.runner` and :mod:`~bcontactlab.cli`.
"""
from .expressions import (
    DomainError,
    EvalError,
    ParseError,
    differentiate,
    eval_value,
    parse,
    substitute,
    to_string,
)
from .charts import Chart, TubularChart
from .contact import (
    BContactForm,
    BReebField,
    ChartFields,
    contact_check,
    exceptional_hamiltonian,
    reeb_residual_report,
    solve_reeb,
    verify_hamiltonian_identity,
)
from .critical import (
    CensusBound,
    CriticalPoint,
    StabilityReport,
    census_bound,
    find_critical_points,
    stability_at,
)
from .orbits import (
    EscapeCensus,
    EscapeOrbit,
    escape_census,
    refinement_check,
    trace_invariant_manifolds,
    trace_on_surface,
)
from .beltrami import (
    BeltramiData,
    beltrami_stability_matrix,
    contact_from_beltrami,
    hamiltonian_identity_check,
    laplace_eigen_check,
)
from .mcgehee import (
    McGeheeParams,
    McGeheeState,
    integrate_mcgehee,
    newtonian_oracle_compare,
)
from .scenarios import Scenario, ScenarioError, builtin_names, load_scenario
from .runner import RunResult, run

__version__ = "0.1.0"

__all__ = [
    "DomainError", "EvalError", "ParseError", "parse", "to_string",
    "differentiate", "substitute", "eval_value",
    "Chart", "TubularChart",
    "BContactForm", "BReebField", "ChartFields", "contact_check",
    "exceptional_hamiltonian", "reeb_residual_report", "solve_reeb",
    "verify_hamiltonian_identity",
    "CensusBound", "CriticalPoint", "StabilityReport", "census_bound",
    "find_critical_points", "stability_at",
    "EscapeCensus", "EscapeOrbit", "escape_census", "refinement_check",
    "trace_invariant_manifolds", "trace_on_surface",
    "BeltramiData", "beltrami_stability_matrix", "contact_from_beltrami",
    "hamiltonian_identity_check", "laplace_eigen_check",
    "McGeheeParams", "McGeheeState", "integrate_mcgehee",
    "newtonian_oracle_compare",
    "Scenario", "ScenarioError", "builtin_names", "load_scenario",
    "RunResult", "run",
    "__version__",
]
