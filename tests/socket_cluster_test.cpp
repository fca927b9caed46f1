// Multi-process loopback cluster tests (DESIGN.md §11): the same TrustedNode
// code over real TCP links must reproduce its simulated twin.
//
// Each test forks one child process per node (run_node needs a process of
// its own — that is the deployment model), on ephemeral loopback ports
// discovered by pre-binding. The equivalence test then runs the identical
// scenario through the in-process simulator and holds the two per-epoch
// records equal (RMSE, store size, duplicates dropped): native D-PSGD merges
// in neighbor-rank order, so the socket run is deterministic despite
// wall-clock scheduling (docs/deployment.md "Simulation equivalence").
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "node/daemon.hpp"
#include "sim/experiment.hpp"

namespace rex::node {
namespace {

/// Reserves `count` distinct free loopback TCP ports: binds them all before
/// releasing any, so the kernel cannot hand the same port out twice. The
/// usual caveat applies — another process could grab one between close()
/// and the cluster's bind — but SO_REUSEADDR plus ephemeral-range ports
/// make that vanishingly rare in practice.
std::vector<std::uint16_t> reserve_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

/// A small cluster config document (strict-parsed, so this doubles as a
/// format regression test). Experiment fields are chosen tiny: the
/// equivalence property does not depend on scale.
std::string make_config_json(const std::string& security,
                             const std::vector<std::uint16_t>& ports,
                             std::size_t epochs) {
  std::ostringstream out;
  out << "{\n"
      << "  \"cluster\": \"gtest-" << security << "\",\n"
      << "  \"seed\": 21,\n"
      << "  \"platforms\": 2,\n"
      << "  \"epochs\": " << epochs << ",\n"
      << "  \"security\": \"" << security << "\",\n"
      << "  \"algorithm\": \"dpsgd\",\n"
      << "  \"sharing\": \"raw\",\n"
      << "  \"model\": \"mf\",\n"
      << "  \"topology\": \"full\",\n"
      << "  \"dataset\": { \"users\": 24, \"items\": 80, \"ratings\": 1000 },\n"
      << "  \"data_points_per_epoch\": 40,\n"
      << "  \"mf_sgd_steps_per_epoch\": 60,\n"
      << "  \"nodes\": [\n";
  for (std::size_t id = 0; id < ports.size(); ++id) {
    out << "    { \"id\": " << id << ", \"host\": \"127.0.0.1\", \"port\": "
        << ports[id] << " }" << (id + 1 < ports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// One line of a child's per-epoch dump.
struct EpochRow {
  double rmse = 0.0;
  double store_size = 0.0;
  std::uint64_t duplicates_dropped = 0;
};

/// Forks one run_node process per node. Each child writes one line per
/// epoch record — RMSE (full %.17g precision; the CSVs round to 6
/// decimals), mean_store_size and duplicates_dropped — to
/// `out_dir`/epochs_<id>.txt and exits 0 on success. Returns true iff every
/// child exited cleanly.
bool run_cluster(const ClusterConfig& config, const std::string& out_dir) {
  std::filesystem::create_directories(out_dir);
  std::vector<pid_t> children;
  for (std::size_t id = 0; id < config.nodes.size(); ++id) {
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Child: gtest state is duplicated but must never be touched — only
      // _exit() leaves this block.
      int code = 1;
      try {
        NodeOptions options;
        options.run_timeout_s = 120.0;
        const NodeReport report =
            run_node(config, static_cast<net::NodeId>(id), options);
        const std::string path =
            out_dir + "/epochs_" + std::to_string(id) + ".txt";
        if (std::FILE* file = std::fopen(path.c_str(), "w")) {
          for (const sim::RoundRecord& round : report.trajectory.rounds) {
            std::fprintf(file, "%.17g %.17g %llu\n", round.mean_rmse,
                         round.mean_store_size,
                         static_cast<unsigned long long>(
                             round.duplicates_dropped));
          }
          std::fclose(file);
          code = 0;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "node %zu: %s\n", id, e.what());
      }
      _exit(code);
    }
    children.push_back(pid);
  }
  bool all_ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) all_ok = false;
  }
  return all_ok;
}

std::vector<EpochRow> read_rows(const std::string& out_dir, std::size_t id) {
  std::ifstream file(out_dir + "/epochs_" + std::to_string(id) + ".txt");
  std::vector<EpochRow> rows;
  EpochRow row;
  while (file >> row.rmse >> row.store_size >> row.duplicates_dropped) {
    rows.push_back(row);
  }
  return rows;
}

TEST(SocketCluster, NativeDpsgdMatchesSimulatedTwin) {
  const std::vector<std::uint16_t> ports = reserve_ports(4);
  const ClusterConfig config =
      ClusterConfig::parse(make_config_json("native", ports, /*epochs=*/4));
  const std::string out_dir = ::testing::TempDir() + "socket_cluster_eq_" +
                              std::to_string(::getpid());

  ASSERT_TRUE(run_cluster(config, out_dir)) << "a node process failed";

  // The simulated twin: byte-for-byte the same Scenario the daemons derived.
  const sim::ExperimentResult sim_result =
      sim::run_scenario(config.scenario);
  ASSERT_EQ(sim_result.rounds.size(), config.scenario.epochs + 1);

  std::vector<std::vector<EpochRow>> node_rows;
  for (std::size_t id = 0; id < config.nodes.size(); ++id) {
    node_rows.push_back(read_rows(out_dir, id));
    ASSERT_EQ(node_rows.back().size(), sim_result.rounds.size())
        << "node " << id << " recorded a different epoch count";
  }

  // Native D-PSGD merges per neighbor rank — arrival order (the only thing
  // wall-clock scheduling perturbs) cannot change the math, so the socket
  // records equal the simulated ones: RMSE to double precision, the raw-data
  // store and its duplicate count exactly. Each daemon builds its records
  // through the simulator's EpochBucket, so this also pins that builder.
  const double nodes = static_cast<double>(node_rows.size());
  for (std::size_t epoch = 0; epoch < sim_result.rounds.size(); ++epoch) {
    const sim::RoundRecord& twin = sim_result.rounds[epoch];
    double rmse_sum = 0.0;
    double store_sum = 0.0;
    std::uint64_t duplicates = 0;
    for (const std::vector<EpochRow>& rows : node_rows) {
      rmse_sum += rows[epoch].rmse;
      store_sum += rows[epoch].store_size;
      duplicates += rows[epoch].duplicates_dropped;
    }
    EXPECT_NEAR(rmse_sum / nodes, twin.mean_rmse, 1e-12)
        << "diverged at epoch " << epoch;
    EXPECT_DOUBLE_EQ(store_sum / nodes, twin.mean_store_size)
        << "store size diverged at epoch " << epoch;
    EXPECT_EQ(duplicates, twin.duplicates_dropped)
        << "duplicate count diverged at epoch " << epoch;
  }

  std::filesystem::remove_all(out_dir);
}

TEST(SocketCluster, SecureClusterAttestsOverSockets) {
  // SGX mode end-to-end over real links: mutual attestation handshakes and
  // AEAD-framed protocol payloads all ride the socket transport. Completion
  // of every node is the assertion — attestation failure, a fingerprint
  // mismatch or an undecryptable payload would kill a child.
  const std::vector<std::uint16_t> ports = reserve_ports(3);
  const ClusterConfig config =
      ClusterConfig::parse(make_config_json("sgx", ports, /*epochs=*/2));
  const std::string out_dir = ::testing::TempDir() + "socket_cluster_sgx_" +
                              std::to_string(::getpid());

  ASSERT_TRUE(run_cluster(config, out_dir))
      << "secure cluster failed to converge over sockets";

  for (std::size_t id = 0; id < config.nodes.size(); ++id) {
    const std::vector<EpochRow> rows = read_rows(out_dir, id);
    ASSERT_EQ(rows.size(), config.scenario.epochs + 1);
    EXPECT_GT(rows.back().rmse, 0.0);
  }
  std::filesystem::remove_all(out_dir);
}

}  // namespace
}  // namespace rex::node
