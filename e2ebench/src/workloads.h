// The three workloads of the end-to-end benchmark. Each generates its
// inputs from the run's seed, sets up, warms up untimed, runs a fixed
// count of statement rounds (closed loop), checks the outputs, round-trips
// the database through a file, and reports its metrics through `run`.
#pragma once

#include "e2ebench/src/harness.h"

namespace e2e {

/// Rounds of a workload's statement mix for a run of `seconds`: a fixed
/// count per second of run length, so a run's work never depends on how
/// fast the program is.
inline int RoundsFor(int seconds, int rounds_per_second) {
  return seconds * rounds_per_second > 0 ? seconds * rounds_per_second : 1;
}

int RunTpchConf(Run& run);
int RunIngestRefresh(Run& run);
int RunServerSessions(Run& run);

}  // namespace e2e
