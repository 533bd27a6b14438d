// The cell-attachment decision rule CellularWorld applies each epoch.
#pragma once

#include <span>

namespace charisma::mac {

/// Among stations whose filtered pilot exceeds the *attached* station's
/// pilot by more than `hysteresis_db`, returns the strongest; returns
/// `attached` when none qualifies. Every challenger is measured against the
/// attached pilot — measuring challengers against the running maximum (the
/// historical bug) let a weaker station scanned earlier raise the bar and
/// block the strongest one, so the handoff target was scan-order dependent
/// and not the strongest eligible pilot.
///
/// Takes a span so CellularWorld can pass one user's band pilots from its
/// reused shard scratch without building a vector per decision.
int strongest_with_hysteresis(std::span<const double> pilot_db, int attached,
                              double hysteresis_db);

}  // namespace charisma::mac
