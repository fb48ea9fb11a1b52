"""Gauge (fine-partition) integration with values in concrete Riesz lattices.

The library certifies integrals against regulator envelopes instead of metric
tolerances: a claim of convergence names a regulator (a double sequence
decreasing to zero along columns) and is checked against a finite probe set of
index maps.  On top of the single-valued integrator sit order-interval
multifunctions with a set-valued integral (membership test plus interval
oracle) and Aumann-style selection integrals.
"""

from .values import (ORDER_SLACK, RieszValue, Scalar, SparseSeq, Vector, leq,
                     mul, ones_like, zero_like)
from .regulators import (AffineMap, ConstantMap, ExponentialMap, FiniteMatrix,
                         FremlinCombination, Geometric, IdentityMap, IndexMap,
                         Regulator, Scaled, ShiftedMap, SumPair, d_limit_check,
                         envelope, fremlin_combine, max_envelope, min_envelope,
                         regulator_entry, standard_probes, zero_regulator)
from .domain import (BorelSet, Gauge, Interval, MeasureSpec, TaggedPartition,
                     cousin_partition, is_fine, measure, partition_borel,
                     regularity_witness, sigma_additivity_check)
from .integrands import (ConstantIntegrand, CounterexampleC00, Integrand,
                         PointwiseScalar, SCALAR_FORMS, ScalarForm,
                         SelectionIntegrand, SimpleIntegrand, named_integrand)
from .integrate import (IntegralCertificate, ProbeReport,
                        counterexample_partition, counterexample_unboundedness,
                        integral_additivity_check, kh_integrate,
                        riemann_sum)
from .setvalued import (ConstantSet, IntervalValued, Multifunction,
                        OrderInterval, SimpleSet, dot_sum, phi_closedness_check,
                        phi_convexity_check, phi_interval_oracle,
                        phi_membership, phi_monotonicity_check,
                        riemann_set_sum, set_scale, singleton_multifunction)
from .aumann import (AumannResult, ComparisonReport, aumann_integral,
                     comparison_simple, default_mixes, selection,
                     selection_is_valid)
from .config import RunConfig, load_config
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
