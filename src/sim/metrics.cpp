#include "sim/metrics.hpp"

#include <algorithm>

namespace rex::sim {

void EpochBucket::add(const core::EpochCounters& counters,
                      const StageTimes& stages, double bytes, double memory,
                      double reachable) {
  const bool first = contributors == 0;
  ++contributors;
  reachable_sum += reachable;
  rmse_sum += counters.rmse;
  rmse_min = first ? counters.rmse : std::min(rmse_min, counters.rmse);
  rmse_max = std::max(rmse_max, counters.rmse);
  stage_sum += stages;
  stage_max.raise_to(stages);
  bytes_sum += bytes;
  mem_sum += memory;
  mem_max = std::max(mem_max, memory);
  store_sum += static_cast<double>(counters.store_size);
  duplicates += counters.duplicates_dropped;
  bytes_saved += counters.bytes_saved_compression;
}

RoundRecord EpochBucket::record(std::uint64_t epoch) const {
  const double dn = static_cast<double>(contributors);
  RoundRecord r;
  r.epoch = epoch;
  r.nodes_reporting = contributors;
  r.reachable_fraction = reachable_sum / dn;
  r.mean_rmse = rmse_sum / dn;
  r.min_rmse = rmse_min;
  r.max_rmse = rmse_max;
  r.mean_bytes_in_out = bytes_sum / dn;
  r.mean_stages = stage_sum.mean(dn);
  r.max_stages = stage_max;
  r.mean_memory_bytes = mem_sum / dn;
  r.max_memory_bytes = mem_max;
  r.mean_store_size = store_sum / dn;
  r.duplicates_dropped = duplicates;
  r.bytes_saved_compression = bytes_saved;
  return r;
}

}  // namespace rex::sim
