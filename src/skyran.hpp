// Umbrella header: the SkyRAN public API surface. Downstream users can
// include this one header and link against the `skyran_all` CMake target.
#pragma once

#include "core/config.hpp"        // SkyRanConfig, LocalizationMode
#include "fleet/fleet.hpp"        // multi-cell SINR/handover/steering fleet
#include "core/skyran.hpp"        // SkyRan: the epoch state machine
#include "localization/localizer.hpp"  // standalone UE localization
#include "lte/backhaul.hpp"       // backhaul link models
#include "mobility/deployment.hpp"     // UE deployment generators
#include "mobility/model.hpp"     // mobility models
#include "rem/bank.hpp"           // radio environment maps (REM engine)
#include "rem/placement.hpp"      // placement objectives & altitude search
#include "rem/store.hpp"          // REM store with positional reuse
#include "sim/baselines.hpp"      // Uniform / Centroid / Random schemes
#include "sim/ground_truth.hpp"   // evaluation against perfect REMs
#include "sim/service.hpp"        // TTI-level service simulation
#include "sim/world.hpp"          // the simulated physical world
#include "terrain/synth.hpp"      // procedural terrains
