// checks.h — the per-workload correctness gate.
//
// Every law here is either a conservation law of the simulation (every
// request joins, keys = requests × N, misses = fetches + delayed hits, every
// replayed trace record completes) or statistical agreement with theory at
// the tolerances the repository's own test tiers use. None is a bit-exact
// golden, so a deliberate RNG regeneration does not trip the gate.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

using Violations = std::vector<std::string>;
using Perturbations = std::vector<std::pair<std::string, Facts>>;

Violations check_table3(const Facts& f);
Violations check_fanout(const Facts& f);
Violations check_cold_keyspace(const Facts& f);
Violations check_churn_sharded(const Facts& f);

Perturbations perturb_table3(const Facts& f);
Perturbations perturb_fanout(const Facts& f);
Perturbations perturb_cold_keyspace(const Facts& f);
Perturbations perturb_churn_sharded(const Facts& f);

/// Names of the facts on which `a` and `b` differ bit for bit (the
/// invariance contracts: --jobs, --shard-jobs, KeyTable budget).
std::vector<std::string> differing_facts(const Facts& a, const Facts& b);

}  // namespace perfbench
