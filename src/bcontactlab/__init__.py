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
from .charts import TubularChart
from .contact import BReebField, exceptional_hamiltonian
from .critical import census_bound, find_critical_points, stability_at
from .orbits import escape_census, trace_invariant_manifolds
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
from .scenarios import load_scenario

__version__ = "0.1.0"

__all__ = [
    "TubularChart",
    "BReebField", "exceptional_hamiltonian",
    "census_bound", "find_critical_points", "stability_at",
    "escape_census", "trace_invariant_manifolds",
    "BeltramiData", "beltrami_stability_matrix", "contact_from_beltrami",
    "hamiltonian_identity_check", "laplace_eigen_check",
    "McGeheeParams", "McGeheeState", "integrate_mcgehee",
    "newtonian_oracle_compare",
    "load_scenario",
    "__version__",
]
