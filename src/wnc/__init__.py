"""wnc: distribution, delay and backlog bounds for wireless channel capacity.

Analytical bounds for the cumulative capacity process under comonotonic,
independent and Markov-additive dependence, feedback/self-interference and
multi-hop reductions, stochastic-order comparisons, and a Monte Carlo
queueing oracle that validates every bound.
"""

__version__ = "0.1.0"

from .distributions import DiscreteDistribution
from .solve import SolveInfo
from .errors import (HeavyTailError, NumericFailure, UnstableSystemError,
                     ValidationError, WncError)
from .fading import (ChannelSpec, FadingMarginal, FrequencySelective,
                     Lognormal, Nakagami, Rayleigh, Rice, TailCertificate,
                     Weibull, capacity_marginal, certify_light_tail)
from .processes import (Additive, AntitheticPairing, BoundReport,
                        CapacityProcess, Comonotonic, MarkovAdditive,
                        MarkovKernel, cdf_bounds, comonotonic_cdf,
                        frechet_bounds, mgf_matrix, perron_frobenius)
from .delay import (ArrivalSpec, LundbergSolution, backlog_tail,
                    delay_constrained_capacity, delay_tail,
                    delay_tail_comonotonic, delay_tails, lundberg_root,
                    stability_margin)
from .interference import (HopChain, e2e_delay_bound, feedback_delay,
                           feedback_delays)
from .ordering import (OrderVerdict, SampleSet, adjustment_ordering, cx_order,
                       delay_ordering_check, icx_order, st_order)
from .simulate import SimConfig, TailEstimate, feedback_queue, tandem_queue
