// Model-sharing golden identity: small MS cells whose per-round CSV, every
// node's final RMSE (full precision) and an FNV-1a hash of every node's
// serialized model must stay byte-identical to the committed dumps. These
// pin the merge path (DESIGN.md §7 "Merge from the wire") end to end: a
// single flipped bit in any merge, codec or memory-accounting step shows up
// here. Cells: native barrier D-PSGD, event-driven RMW, simulated-SGX
// barrier D-PSGD over a small EPC (memory_bytes and the paging-inflated
// time_s pin the enclave memory ledger), quantized barrier D-PSGD, and a
// lean-memory event-driven RMW cell with churn and sliced resync (lazy user
// rows and the resync merge), plus a DNN barrier D-PSGD cell for the
// deserialize-then-merge fallback.
//
// On a mismatch the fresh dumps are kept in the temp directory for diffing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

Scenario ms_scenario() {
  Scenario s;
  s.dataset.n_users = 16;
  s.dataset.n_items = 150;
  s.dataset.n_ratings = 900;
  s.dataset.seed = 3;
  s.nodes = 0;  // one node per user
  s.topology = TopologyKind::kSmallWorld;
  s.model = ModelKind::kMf;
  s.mf_sgd_steps_per_epoch = 40;
  s.rex.sharing = core::SharingMode::kModel;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.epochs = 10;
  s.seed = 9;
  return s;
}

Scenario event_rmw_scenario() {
  Scenario s = ms_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  s.dynamics.straggler_probability = 0.2;
  s.dynamics.straggler_lognormal_sigma = 0.8;
  return s;
}

Scenario sgx_scenario() {
  Scenario s = ms_scenario();
  s.rex.security = enclave::SecurityMode::kSgxSimulated;
  // Small enough that model + merge buffers overcommit it: the paging
  // factor then feeds the memory ledger into simulated time.
  s.rex.epc.available_bytes = 48 * 1024;
  return s;
}

Scenario quantized_scenario() {
  Scenario s = ms_scenario();
  s.rex.quantize_model_shares = true;
  return s;
}

Scenario dnn_scenario() {
  Scenario s = ms_scenario();
  s.model = ModelKind::kDnn;
  s.dnn_batches_per_epoch = 2;
  s.epochs = 4;
  return s;
}

Scenario lean_churn_scenario() {
  Scenario s = ms_scenario();
  s.lean_memory = true;
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.3;
  s.dynamics.churn_probability = 0.25;
  s.dynamics.churn_downtime_s = 0.001;
  s.rex.resync_slices = 3;
  return s;
}

/// Parses a CSV file into header names + rows of cells.
struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

Csv read_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  Csv csv;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (first) {
      csv.header = std::move(cells);
      first = false;
    } else if (!cells.empty()) {
      csv.rows.push_back(std::move(cells));
    }
  }
  return csv;
}

std::string golden_path(const std::string& name) {
  return (std::filesystem::path(__FILE__).parent_path() / "golden" / name)
      .string();
}

std::string fresh_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("rex_" + name)).string();
}

/// Every golden column must exist in the fresh dump and match cell for
/// cell; returns false on any difference.
bool columns_match(const std::string& name) {
  const Csv golden = read_csv(golden_path(name));
  const Csv fresh = read_csv(fresh_path(name));
  EXPECT_FALSE(golden.rows.empty()) << name;
  EXPECT_EQ(golden.rows.size(), fresh.rows.size()) << name;
  if (golden.rows.empty() || golden.rows.size() != fresh.rows.size()) {
    return false;
  }
  bool same = true;
  for (std::size_t g = 0; g < golden.header.size(); ++g) {
    const auto it = std::find(fresh.header.begin(), fresh.header.end(),
                              golden.header[g]);
    if (it == fresh.header.end()) {
      ADD_FAILURE() << name << ": column " << golden.header[g]
                    << " disappeared";
      return false;
    }
    const auto f = static_cast<std::size_t>(it - fresh.header.begin());
    for (std::size_t row = 0; row < golden.rows.size(); ++row) {
      const std::string& want =
          g < golden.rows[row].size() ? golden.rows[row][g] : "";
      const std::string& got =
          f < fresh.rows[row].size() ? fresh.rows[row][f] : "";
      EXPECT_EQ(want, got) << name << ": " << golden.header[g] << " row "
                           << row;
      same = same && want == got;
    }
  }
  return same;
}

std::uint64_t fnv1a(BytesView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Runs `scenario` and compares its round CSV plus a per-node dump (epochs,
/// resync merges, enclave memory ledger, final RMSE at %.17g, FNV-1a of
/// serialize()) against `<cell>.csv` and `<cell>_nodes.csv`.
void expect_matches_golden(const Scenario& scenario, const std::string& cell) {
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(scenario, inputs);
  sim.run(scenario.epochs);

  const std::string rounds = cell + ".csv";
  const std::string nodes = cell + "_nodes.csv";
  write_csv(sim.result(), fresh_path(rounds));
  {
    std::ofstream out(fresh_path(nodes));
    out << "node,epochs,resync_merged,memory_bytes,final_rmse,model_fnv1a\n";
    for (core::NodeId id = 0; id < sim.node_count(); ++id) {
      const core::TrustedNode& node = sim.host(id).trusted();
      char line[160];
      std::snprintf(line, sizeof line, "%u,%llu,%llu,%zu,%.17g,%016llx\n", id,
                    static_cast<unsigned long long>(node.epochs_completed()),
                    static_cast<unsigned long long>(
                        node.resync_models_merged()),
                    node.memory_footprint(), node.last_rmse(),
                    static_cast<unsigned long long>(
                        fnv1a(node.model().serialize())));
      out << line;
    }
  }
  const bool rounds_same = columns_match(rounds);
  const bool nodes_same = columns_match(nodes);
  if (rounds_same && nodes_same) {
    std::filesystem::remove(fresh_path(rounds));
    std::filesystem::remove(fresh_path(nodes));
  } else {
    ADD_FAILURE() << "fresh dumps kept at " << fresh_path(rounds) << " and "
                  << fresh_path(nodes);
  }
}

TEST(ModelSharingGolden, BarrierDpsgd) {
  expect_matches_golden(ms_scenario(), "ms_off_barrier_dpsgd");
}

TEST(ModelSharingGolden, EventRmw) {
  expect_matches_golden(event_rmw_scenario(), "ms_off_event_rmw");
}

TEST(ModelSharingGolden, SgxBarrierDpsgdSmallEpc) {
  expect_matches_golden(sgx_scenario(), "ms_off_sgx_barrier_dpsgd");
}

TEST(ModelSharingGolden, QuantizedBarrierDpsgd) {
  expect_matches_golden(quantized_scenario(), "ms_off_quantized_dpsgd");
}

TEST(ModelSharingGolden, LeanEventChurnSlicedResync) {
  expect_matches_golden(lean_churn_scenario(), "ms_lean_churn_sliced");
}

TEST(ModelSharingGolden, DnnBarrierDpsgd) {
  expect_matches_golden(dnn_scenario(), "ms_off_dnn_dpsgd");
}

}  // namespace
}  // namespace rex::sim
