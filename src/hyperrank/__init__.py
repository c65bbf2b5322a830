"""hyperrank: exact analysis of commuting integer-matrix actions on tori,
nilmanifolds, and their solenoid extensions.

Subpackages/modules:
  exact      -- rational/modular/p-adic arithmetic primitives
  spectra    -- Lyapunov functionals at all places, Weyl chambers
  ergodicity -- root-of-unity certificates, splittings, ergodic Z^2 search
  solenoid   -- dual characters, exact and Monte Carlo mixing, CLT checks
  nilpotent  -- step-2 Mal'cev coordinates, nilpotent CRT, bracket checks
  conjugacy  -- numerical conjugacies for perturbed expanding maps
  cli        -- `hyperrank` command
"""

__version__ = "0.1.0"

from .spectra import (ActionSpec, LyapunovFunctional, LyapunovSpectrum,
                      coarse_classes, joint_spectrum, min_expansion_rate,
                      real_lyapunov, weyl_chambers)
from .ergodicity import (ErgodicityCertificate, RankOneReport,
                         Z2SubgroupCertificate, ergodic_z2_subgroup,
                         has_rank_one_factor, is_ergodic, rational_splitting)
from .solenoid import (SolenoidPoint, TrigFunction, apply, apply_inverse,
                       clt_check, exact_correlation, haar_sample,
                       mixing_curve, monte_carlo_correlation)
from .nilpotent import (NilElement, NilStructure, automorphism_action,
                        bracket_inclusion_check, heisenberg, nil_crt,
                        nil_element, nil_element_padic, nil_inv, nil_mul,
                        nil_structure)
from .conjugacy import (ConjugacyField, PerturbedMap, holder_estimate,
                        perturbed_map, solve_conjugacy, trig_perturbation,
                        verify_conjugacy)
