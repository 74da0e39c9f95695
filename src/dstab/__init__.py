"""Exact certification and randomized disproof of matrix D-stability."""

from .certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED, INCONCLUSIVE,
                        NOT_STABLE, CoeffTree, IntervalSet, NodeRecord,
                        Quadratic, TestReport, coeff_tree, degenerate_step2,
                        make_quadratic, quadratic_refine,
                        quadratic_zero_location, region_S, seed_polys,
                        step1_sufficient, step2_Q0_system,
                        step2_nondegenerate, test_hierarchy)
from .falsifier import (Counterexample, DiagonalSample, falsify, johnson_F,
                        spectral_margin, stable_seed)
from .harness import (ExperimentStats, GeneratorStyle, RunConfig, check_matrix,
                      random_stable_matrix, run_experiment)
from .matrix import (DEFAULT_MINOR_CAP, CharPoly, Matrix, MinorCapExceeded,
                     MinorTable, all_principal_minors, char_poly, classify_P,
                     det_complex, hurwitz_determinants, is_positive_stable,
                     load_matrix, necessary_filter, parse_matrix,
                     principal_minor)
from .poly import IDENTICALLY_ZERO, MIXED, NONNEG, NONNEG_STRICT, Poly
from .recursion import (DetPair, PairFG, alpha_set, build_tree, fg_pair,
                        leaf_pair, node_det_direct, surviving_indices)

__version__ = "0.1.0"
