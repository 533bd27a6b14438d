// Umbrella header: the public API of the CHARISMA library.
//
//   #include "charisma.hpp"
//
//   charisma::mac::ScenarioParams params;
//   params.num_voice_users = 80;
//   auto engine = charisma::protocols::make_protocol(
//       charisma::protocols::ProtocolId::kCharisma, params);
//   const auto& metrics = engine->run(/*warmup=*/3.0, /*measure=*/15.0);
//
// The scenario recipe behind charisma_sim, the examples and the world
// benches is charisma::experiment::parse_scenario (experiment/scenario.hpp);
// examples/ holds short tours built on it.
#pragma once

#include "analysis/fading_statistics.hpp"
#include "analysis/slotted_aloha.hpp"
#include "analysis/voice_capacity.hpp"
#include "channel/channel_bank.hpp"
#include "channel/csi.hpp"
#include "channel/fading.hpp"
#include "common/config.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/charisma.hpp"
#include "core/fairness.hpp"
#include "core/priority.hpp"
#include "experiment/report.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"
#include "experiment/worker_pool.hpp"
#include "mac/attachment.hpp"
#include "mac/cellular_world.hpp"
#include "mac/contention.hpp"
#include "mac/engine.hpp"
#include "mac/geometry.hpp"
#include "mac/metrics.hpp"
#include "mac/mobile_user.hpp"
#include "mac/mobility.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"
#include "mac/scenario.hpp"
#include "mac/site_layout.hpp"
#include "phy/adaptive_phy.hpp"
#include "phy/fixed_phy.hpp"
#include "phy/modes.hpp"
#include "protocols/drma.hpp"
#include "protocols/dtdma.hpp"
#include "protocols/factory.hpp"
#include "protocols/prma.hpp"
#include "protocols/rama.hpp"
#include "protocols/rmav.hpp"
#include "traffic/data_source.hpp"
#include "traffic/voice_source.hpp"
