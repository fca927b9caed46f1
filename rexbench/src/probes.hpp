// Layer probes for the traced run: short timed loops over one module's
// public functions, fed with the traced run's own inputs (a node's shard,
// its trained model and its neighbours' models, the run's mean message
// size and queue high-water mark).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/payload.hpp"
#include "data/partition.hpp"
#include "ml/model.hpp"

namespace rexbench {

struct ProbeInputs {
  const rex::ml::RecModel* model = nullptr;  // node 0, trained
  std::vector<const rex::ml::RecModel*> neighbor_models;
  const rex::data::NodeShard* shard = nullptr;  // node 0's local data
  /// The share the workload puts on the wire: raw ratings or a model blob.
  rex::core::PayloadKind payload_kind = rex::core::PayloadKind::kRawData;
  std::size_t raw_points = 0;  // ratings per raw share
  double message_bytes = 0.0;  // mean wire bytes per message
  std::size_t queue_size = 0;  // event-queue high-water mark
  std::uint64_t seed = 1;
  std::size_t platforms = 4;
};

/// Runs every layer probe and records its per-layer metric in `out`.
void run_layer_probes(const ProbeInputs& inputs, Outcome& out);

}  // namespace rexbench
