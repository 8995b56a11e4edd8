"""Exact computer algebra for Jack superpolynomials at rational parameter."""

from .coeffring import (ALPHA, AlphaPolynomial, AlphaRational,
                        IndeterminateError, PoleError, alpha_eval,
                        parse_alpha, solve_exact, FieldMatrix)
from .spart import (SuperPartition, conjugate, dominance_leq,
                    enumerate_admissible, enumerate_sparts, is_admissible,
                    parse_spart, star_pair, to_overpartition)
from .superpoly import (SuperPolynomial, ferm_power, monomial_msym,
                        omega_alpha, p_label, power_sum, prescribed_part,
                        to_mbasis)
from .jack import (JackExpansion, jack_at, jack_poly, jack_symbolic,
                   norm_gram, norm_hook, pieri_closed, duality_check,
                   evaluation_direct, evaluation_formula)
from .ideals import (CharacterSeries, char_F, char_I, cluster_multiplicity,
                     ideal_basis, membership, stability_suite, vanish_check)

__version__ = "0.1.0"
