"""teamsolve: feasible approximate matching equilibria for N-category
matching-for-teams problems (including Wasserstein barycenters).

The pipeline: triangulate the type and quality spaces (``geometry``), take
exact test-function moments of the agent measures (``measures``), solve the
parametrized dual by cutting planes with an exact global minimization
oracle (``cutting_plane``, ``oracle``, ``linprog``), then assemble coupled
samplers and sub-optimality certificates through optimal-transport
couplings (``transport``, ``equilibrium``).  Concrete cost families live in
``problems``; the batch front end in ``cli``.
"""

from .cutting_plane import (CuttingPlaneResult, DualDiscreteMeasures,
                            MaxIterationsExceededError, ParametricSolution,
                            UnboundedRelaxationError, run, sparsity_bound)
from .equilibrium import (EquilibriumReport, construct, eps_theo,
                          transfer_eval, z_opt)
from .geometry import (FiniteSpace, HatBasis, IndicatorBasis,
                       SimplicialComplex, build_box_partition, epsilon_bar)
from .measures import (CpwaDensityMeasure, DiscreteMeasure, moment_vector,
                       random_cpwa, sample, second_moment)
from .oracle import OracleResult, make_oracle
from .problems import (barycenter_cost, business_location_cost,
                       capped_affine_cost, tabulated_cpwa_cost)
from .transport import ot_discrete, ot_quantile_1d, ot_semidiscrete

__version__ = "0.1.0"
