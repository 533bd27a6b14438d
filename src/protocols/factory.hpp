// Construction of any of the seven protocols by identifier — the paper's
// six and the PRMA extension baseline — the entry point the experiment
// framework, benches and examples use to run the paper's cross-protocol
// comparisons. all_protocols() lists the paper's six only, so
// `charisma_sim protocol=all` and the figure sweeps never run PRMA; it runs
// only when named (`protocol=prma`).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/charisma.hpp"
#include "mac/engine.hpp"

namespace charisma::protocols {

enum class ProtocolId {
  kCharisma,
  kDtdmaVr,
  kDrma,
  kRama,
  kDtdmaFr,
  kRmav,
  /// Extension baseline (not part of the paper's comparison): classic
  /// PRMA, the ancestor of the D-TDMA designs.
  kPrma,
};

/// The paper's six protocols in its typical ranking order (PRMA, an
/// extension baseline, is constructible but not listed here).
const std::vector<ProtocolId>& all_protocols();

std::string protocol_name(ProtocolId id);

/// Parses "charisma", "d-tdma/fr", "dtdma_fr", "rama", ... (case
/// insensitive); throws std::invalid_argument on unknown names.
ProtocolId parse_protocol(const std::string& name);

/// Builds a ready-to-run engine. CHARISMA takes its options separately so
/// ablations can tweak them.
std::unique_ptr<mac::ProtocolEngine> make_protocol(
    ProtocolId id, const mac::ScenarioParams& params,
    const core::CharismaOptions& charisma_options = {});

}  // namespace charisma::protocols
