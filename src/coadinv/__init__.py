"""coadinv: exact rational construction and verification of the coadjoint
invariant polynomials of inhomogeneous matrix groups."""

from .exactmat import (ExactnessError, Mat, Rat, det, inverse, mat_from_json,
                       mat_mul, mat_to_json, pfaffian, rank, rat, rat_str)
from .charpoly import (CharData, bordered, bordered_char_identities, bordered_gradients,
                       char_data, directional_coeff, interp_coeffs)
from .liealg import (Algebra, DualPoint, FAMILIES, GroupElem, Rng, bracket_b,
                     coad, commutator_form, compose, dual_from_json,
                     dual_to_json, embed_M, group_from_json, group_to_json,
                     index_of, k_bracket, project_traceless, sample_dual,
                     sample_group, theta)
from .invariants import (CanonicalPair, EXOTIC_SLICE_SIGN, EXOTIC_SQUARE_SIGN,
                         F_SLICE_SIGN, F_all, F_bordered, F_bordered_all, F_invariant,
                         GENERATORS, NotInOpenOrbit, PSI_SLICE_SIGN, exotic_phi, f_bar,
                         f_invariant, f_krylov, generators, krylov_rows, lower_shift,
                         orbit_normalize, phi_rows, pi_projection, psi_all, psi_bordered,
                         psi_bordered_all, psi_invariant, sample_open_b, slice_isl, slice_so)

from .verify import (SUITES, SuiteConfig, VerifyReport, resolve_sign, run_all, run_suite,
                     suite_range)

__all__ = [name for name in dir() if not name.startswith("_")]
