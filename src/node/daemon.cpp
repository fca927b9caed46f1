#include "node/daemon.hpp"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/untrusted_host.hpp"
#include "net/socket_transport.hpp"
#include "sim/report.hpp"
#include "support/error.hpp"

namespace rex::node {

namespace {

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

NodeReport run_node(const ClusterConfig& config, net::NodeId self,
                    const NodeOptions& options) {
  REX_REQUIRE(self < config.nodes.size(), "node id outside the cluster");
  const sim::Scenario& scenario = config.scenario;

  // Derive the shared world. Every process recomputes the full dataset,
  // split and topology from the config's seed and keeps only its shard.
  sim::ScenarioInputs inputs = sim::prepare_scenario(scenario);
  REX_REQUIRE(inputs.node_count == config.nodes.size(),
              "endpoint table does not match the derived node count");
  core::ClusterContext cluster(scenario.seed, scenario.platforms);

  net::Transport transport(inputs.node_count);
  core::UntrustedHost host(scenario.rex, self, cluster.identity(),
                           cluster.quoting_enclave(self), cluster.verifier(),
                           inputs.model_factory, cluster.node_seed(self),
                           transport);
  core::TrustedNode& trusted = host.trusted();

  net::SocketTransport::Options sock_options;
  sock_options.self = self;
  sock_options.listen_port = options.listen_port_override != 0
                                 ? options.listen_port_override
                                 : config.node(self).endpoint.port;
  sock_options.fingerprint = config.fingerprint;
  net::SocketTransport socket(sock_options, transport);

  std::vector<core::NodeId> neighbors(inputs.topology.neighbors(self).begin(),
                                      inputs.topology.neighbors(self).end());
  REX_REQUIRE(!neighbors.empty(), "node has no topology neighbors");
  for (const core::NodeId peer : neighbors) {
    // Deployment connection policy: the lower node id dials the edge.
    socket.add_peer(peer, config.node(peer).endpoint,
                    /*initiator=*/self < peer);
  }

  // run_epochs(N) in the simulator yields N+1 total rounds (epoch 0 runs
  // inside ecall_init); the daemon targets the same count.
  const std::uint64_t target_epochs = scenario.epochs + 1;
  const bool dpsgd = scenario.rex.algorithm == core::Algorithm::kDpsgd;

  NodeReport report;
  report.id = self;
  report.trajectory.label =
      scenario.label + " [socket node " + std::to_string(self) + "]";

  double init_time = 0.0;  // wall time of ecall_init (trajectory t = 0)
  net::TrafficStats traffic_mark{};

  // Records one RoundRecord per completed epoch through the same
  // EpochBucket the simulator aggregates with (a bucket of one node); only
  // the wall-clock round_time / cumulative_time are set here. TrustedNode
  // keeps only the latest epoch's counters, so this must run after every
  // call that can finish an epoch — the REX_CHECK catches any epoch that
  // slipped by.
  auto snapshot = [&] {
    while (report.trajectory.rounds.size() < trusted.epochs_completed()) {
      REX_CHECK(
          trusted.epochs_completed() - report.trajectory.rounds.size() == 1,
          "epoch snapshot fell behind the enclave");
      const core::EpochCounters& counters = trusted.last_epoch();
      sim::EpochBucket bucket;
      bucket.add(counters, sim::StageTimes{},
                 static_cast<double>(net::take_bytes_since(
                     traffic_mark, transport.stats(self))),
                 static_cast<double>(counters.memory_bytes), 1.0);
      sim::RoundRecord round = bucket.record(report.trajectory.rounds.size());
      const double elapsed = mono_now() - init_time;
      const double previous =
          round.epoch == 0
              ? 0.0
              : report.trajectory.rounds.back().cumulative_time.seconds;
      round.cumulative_time = SimTime{elapsed};
      round.round_time = SimTime{elapsed - previous};
      report.trajectory.rounds.push_back(round);
      if (options.verbose) {
        std::printf("node %u epoch %llu rmse %.6f t %.3fs\n",
                    static_cast<unsigned>(self),
                    static_cast<unsigned long long>(round.epoch),
                    round.mean_rmse, elapsed);
      }
    }
  };

  // Phased delivery: the network is live from the first poll, but the
  // enclave only accepts attestation traffic after start_attestation and
  // protocol traffic after ecall_init. A faster peer's early messages are
  // stashed and replayed at the phase transition (the simulator's barriers
  // provide this ordering implicitly; wall clocks do not).
  enum class Phase { kConnect, kAttest, kTrain };
  Phase phase = Phase::kConnect;
  std::vector<net::Envelope> stash;

  auto handle = [&](net::Envelope env) {
    const bool ready = env.kind == net::MessageKind::kAttestation
                           ? phase != Phase::kConnect
                           : phase == Phase::kTrain;
    if (!ready) {
      stash.push_back(std::move(env));
      return;
    }
    if (env.kind == net::MessageKind::kProtocol &&
        trusted.epochs_completed() >= target_epochs) {
      // Target reached: the neighbors' final-epoch shares feed no further
      // round here (D-PSGD epoch e consumes epoch e-1 shares). Dropping
      // them keeps the recorded trajectory exactly target_epochs long.
      return;
    }
    host.on_deliver(env);
    if (dpsgd) {
      // Pipeline catch-up: with the 2-deep D-PSGD buffer a delivery can
      // leave a complete *next* round already buffered.
      while (trusted.epochs_completed() < target_epochs &&
             trusted.round_ready() && !trusted.rejoining()) {
        host.on_train_due();
        snapshot();
      }
    }
    snapshot();
  };
  socket.set_deliver(handle);
  auto replay_stash = [&] {
    std::vector<net::Envelope> pending = std::move(stash);
    stash.clear();
    for (net::Envelope& env : pending) handle(std::move(env));
  };

  // ---- connect: bring up the full neighbor mesh ----
  const double connect_deadline = mono_now() + options.connect_timeout_s;
  while (!socket.all_connected()) {
    socket.poll(50);
    REX_REQUIRE(mono_now() < connect_deadline,
                "timed out connecting to the neighbor mesh");
  }

  // ---- attest: mutual attestation over the live links (secure mode) ----
  if (scenario.rex.security != enclave::SecurityMode::kNative) {
    phase = Phase::kAttest;
    host.start_attestation(neighbors);
    replay_stash();
    socket.pump_outbox();
    const double attest_deadline = mono_now() + options.connect_timeout_s;
    while (!trusted.fully_attested()) {
      socket.poll(50);
      socket.pump_outbox();
      REX_REQUIRE(mono_now() < attest_deadline,
                  "timed out waiting for mutual attestation");
    }
  }

  // ---- train: epoch 0 inside ecall_init, then the delivery loop ----
  core::TrustedInit init;
  init.local_train = std::move(inputs.shards[self].train);
  init.local_test = std::move(inputs.shards[self].test);
  init.neighbors = neighbors;
  init_time = mono_now();
  host.initialize(std::move(init));
  phase = Phase::kTrain;
  snapshot();
  replay_stash();
  socket.pump_outbox();

  double rmw_period = options.rmw_wall_period_s;
  if (rmw_period <= 0.0) rmw_period = scenario.rex.rmw_period_s;
  if (rmw_period <= 0.0) rmw_period = 0.25;
  double next_rmw = init_time + rmw_period;

  const double run_deadline = init_time + options.run_timeout_s;
  while (trusted.epochs_completed() < target_epochs) {
    socket.poll(20);
    if (!dpsgd && mono_now() >= next_rmw && !trusted.rejoining()) {
      host.on_train_due();
      snapshot();
      next_rmw += rmw_period;
    }
    socket.pump_outbox();
    REX_REQUIRE(mono_now() < run_deadline,
                "timed out before reaching the epoch target");
  }

  // ---- done: announce, then hold the line until every neighbor did ----
  report.epochs_completed = trusted.epochs_completed();
  socket.pump_outbox();  // the final epoch's shares
  socket.send_done(report.epochs_completed);
  const double done_deadline = mono_now() + options.connect_timeout_s;
  while (socket.peers_done() < neighbors.size() || !socket.tx_idle()) {
    socket.poll(50);
    REX_REQUIRE(mono_now() < done_deadline,
                "timed out at the DONE barrier");
  }

  report.traffic = transport.stats(self);
  report.netstats = socket.netstats();

  if (!options.output_dir.empty()) {
    std::filesystem::create_directories(options.output_dir);
    const std::string base =
        options.output_dir + "/node_" + std::to_string(self);
    sim::write_csv(report.trajectory, base + ".csv");
    net::write_netstats_csv(
        options.output_dir + "/netstats_" + std::to_string(self) + ".csv",
        self, report.netstats);
  }
  return report;
}

}  // namespace rex::node
