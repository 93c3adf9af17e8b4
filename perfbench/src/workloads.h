// The three workloads. Each fills `report` with every end-to-end metric
// (untraced run) or every per-layer metric of the layers it exercises
// (traced run), and records each checked operation in `ledger`. A condition
// the workload cannot meet on this host is returned in `skipped`, never
// passed over silently.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

entmatcher::Status RunStudy(const RunConfig& config, Report* report,
                            Ledger* ledger, std::string* skipped);
entmatcher::Status RunServe(const RunConfig& config, Report* report,
                            Ledger* ledger, std::string* skipped);
entmatcher::Status RunFleet(const RunConfig& config, Report* report,
                            Ledger* ledger, std::string* skipped);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
