// Umbrella header: the full public API of the cadapt library.
//
// Quick tour:
//   model::RegularParams      — an (a,b,c)-regular algorithm's shape
//   profile::*                — square profiles, distributions, transforms
//   engine::RegularExecution  — symbolic cache-adaptive execution
//   engine::AnalyticSolver    — exact Lemma-3 stopping-time recurrence
//   campaign::run_cell_trials — parallel expectation estimation: one
//                               claimed cell of trials of
//                               engine::make_regular_trial_runner over a
//                               core::iid_source (or any runner)
//   paging::CaMachine         — concrete cache-adaptive paging machine
//   algos::*                  — instrumented real algorithms (MM-Scan, ...)
//   campaign::run_sweep       — one-call reproductions of the paper's
//                               claims: manifest in, report out
//                               (examples/smoothing_tour.cpp)
#pragma once

#include "campaign/manifest.hpp"    // IWYU pragma: export
#include "campaign/plan.hpp"        // IWYU pragma: export
#include "campaign/sweep.hpp"       // IWYU pragma: export
#include "core/experiments.hpp"     // IWYU pragma: export
#include "core/workloads.hpp"       // IWYU pragma: export
#include "engine/analytic.hpp"      // IWYU pragma: export
#include "engine/exec.hpp"          // IWYU pragma: export
#include "engine/montecarlo.hpp"    // IWYU pragma: export
#include "model/potential.hpp"      // IWYU pragma: export
#include "model/regular.hpp"        // IWYU pragma: export
#include "paging/ca_machine.hpp"    // IWYU pragma: export
#include "paging/dam.hpp"           // IWYU pragma: export
#include "paging/fluid.hpp"         // IWYU pragma: export
#include "paging/trace.hpp"         // IWYU pragma: export
#include "profile/distributions.hpp"  // IWYU pragma: export
#include "profile/render.hpp"       // IWYU pragma: export
#include "profile/square_approx.hpp"  // IWYU pragma: export
#include "profile/transforms.hpp"   // IWYU pragma: export
#include "profile/worst_case.hpp"   // IWYU pragma: export
#include "sched/shared_cache.hpp"   // IWYU pragma: export
