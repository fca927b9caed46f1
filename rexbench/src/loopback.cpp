// loopback_sgx: four rex_node daemons over TCP loopback.
//
// Each repetition reserves four fresh ephemeral ports, writes a cluster
// config owned by the benchmark (SGX D-PSGD, raw sharing, full topology),
// forks one process per node that calls node::run_node, and reaps them
// all. No SimEngine runs in the daemons: framing, the socket transport and
// AEAD over live links carry every share. Then the cluster's simulated
// twin runs in another forked child: the repetition's RMSE trajectory must
// match it within 1e-6, and the twin's trained nodes serve the workload's
// top-k reads (run_node exposes no query path).
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "node/daemon.hpp"
#include "support/error.hpp"

namespace rexbench {

namespace {

using namespace rex;

constexpr std::size_t kDaemons = 4;
/// Epochs per repetition after epoch 0: about a second of training.
constexpr std::size_t kEpochs = 5000;
/// A daemon gives up on its own after this; the parent kills stragglers
/// a little later.
constexpr double kDaemonTimeoutS = 60.0;
constexpr double kReapDeadlineS = 75.0;
/// Top-k read passes over the twin's nodes: 1,200 reads, so each p99 has a
/// dozen reads above it.
constexpr std::size_t kReadPasses = 3;
constexpr double kTwinTolerance = 1e-6;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Reserves `count` distinct free loopback TCP ports: binds them all before
/// releasing any, so the kernel cannot hand out one port twice. Fresh
/// ports per repetition keep back-to-back repetitions clear of sockets
/// still in TIME_WAIT.
std::vector<std::uint16_t> reserve_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    REX_REQUIRE(fd >= 0, "socket() failed while reserving ports");
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    REX_REQUIRE(
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
        "could not reserve a loopback port");
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

/// The benchmark's cluster: 400 users, 2,000 items, 40k ratings, sized so
/// one run trains for seconds rather than milliseconds.
std::string cluster_json(std::uint64_t seed,
                         const std::vector<std::uint16_t>& ports) {
  std::ostringstream out;
  out << "{\n"
      << "  \"cluster\": \"rexbench-loopback-sgx\",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"platforms\": 2,\n"
      << "  \"epochs\": " << kEpochs << ",\n"
      << "  \"security\": \"sgx\",\n"
      << "  \"algorithm\": \"dpsgd\",\n"
      << "  \"sharing\": \"raw\",\n"
      << "  \"model\": \"mf\",\n"
      << "  \"topology\": \"full\",\n"
      << "  \"dataset\": { \"users\": 400, \"items\": 2000, "
         "\"ratings\": 40000 },\n"
      << "  \"data_points_per_epoch\": 60,\n"
      << "  \"mf_sgd_steps_per_epoch\": 100,\n"
      << "  \"nodes\": [\n";
  for (std::size_t id = 0; id < ports.size(); ++id) {
    out << "    { \"id\": " << id << ", \"host\": \"127.0.0.1\", \"port\": "
        << ports[id] << " }" << (id + 1 < ports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// What one daemon process reports back through its result file.
struct DaemonResult {
  bool ok = false;
  double start_s = 0.0;  // monotonic, right after fork
  double end_s = 0.0;    // monotonic, after run_node returned
  std::vector<double> rmse;
  double first_s = 0.0;  // trajectory time of epoch 0 (since ecall_init)
  double last_s = 0.0;   // trajectory time of the final epoch
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t reconnects = 0;
  double rtt_min_s = 0.0;  // 0 = no RTT sample
  double maxrss_mib = 0.0;
};

/// Child body: run the daemon, write its report to `path`, _exit.
[[noreturn]] void daemon_main(const node::ClusterConfig& config,
                              net::NodeId id, std::uint16_t port,
                              const std::string& path) {
  int code = 1;
  try {
    const double start = now_s();
    node::NodeOptions options;
    options.listen_port_override = port;
    options.run_timeout_s = kDaemonTimeoutS;
    const node::NodeReport report = node::run_node(config, id, options);
    const double end = now_s();
    double rtt_min = 0.0;
    std::uint64_t frames = 0, bytes = 0, data = 0;
    for (const auto& [peer, stats] : report.netstats.peers()) {
      frames += stats.frames_tx;
      bytes += stats.bytes_tx;
      data += stats.data_tx;
      if (stats.rtt_samples > 0 &&
          (rtt_min == 0.0 || stats.rtt_min_s < rtt_min)) {
        rtt_min = stats.rtt_min_s;
      }
    }
    const auto& rounds = report.trajectory.rounds;
    const double first =
        rounds.empty() ? 0.0 : rounds.front().cumulative_time.seconds;
    const double last =
        rounds.empty() ? 0.0 : rounds.back().cumulative_time.seconds;
    const net::TrafficStats& traffic = report.traffic;
    if (std::FILE* file = std::fopen(path.c_str(), "w")) {
      std::fprintf(file, "%.17g %.17g %.17g %.17g\n", start, end, first,
                   last);
      std::fprintf(file, "%llu %llu %llu %llu %llu %llu %llu %.17g\n",
                   static_cast<unsigned long long>(traffic.messages_sent),
                   static_cast<unsigned long long>(traffic.bytes_sent),
                   static_cast<unsigned long long>(traffic.messages_received),
                   static_cast<unsigned long long>(frames),
                   static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(data),
                   static_cast<unsigned long long>(
                       report.netstats.total_reconnects()),
                   rtt_min);
      for (const sim::RoundRecord& round : rounds) {
        std::fprintf(file, "%.17g\n", round.mean_rmse);
      }
      code = std::fclose(file) == 0 ? 0 : 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daemon %u: %s\n", static_cast<unsigned>(id),
                 e.what());
  }
  _exit(code);
}

bool read_result(const std::string& path, DaemonResult& r) {
  std::ifstream in(path);
  unsigned long long v[7] = {};
  if (!(in >> r.start_s >> r.end_s >> r.first_s >> r.last_s)) return false;
  for (unsigned long long& x : v) {
    if (!(in >> x)) return false;
  }
  if (!(in >> r.rtt_min_s)) return false;
  r.messages_sent = v[0];
  r.bytes_sent = v[1];
  r.messages_received = v[2];
  r.frames_tx = v[3];
  r.bytes_tx = v[4];
  r.data_tx = v[5];
  r.reconnects = v[6];
  double rmse = 0.0;
  while (in >> rmse) r.rmse.push_back(rmse);
  return r.rmse.size() == kEpochs + 1;
}

/// One timed cluster run.
struct ClusterRep {
  bool ok = false;
  double setup_s = 0.0;
  double train_s = 0.0;
  double node_epochs = 0.0;
  double deliveries = 0.0;
  double rss_mib = 0.0;
  double connect_attest_s = 0.0;
  std::vector<DaemonResult> daemons;
  Counters counters;
};

ClusterRep run_cluster(const Options& options, std::size_t index,
                       Tracer* tracer, Outcome& out) {
  Scope span(tracer, "cluster");
  ClusterRep rep;
  const std::vector<std::uint16_t> ports = reserve_ports(kDaemons);
  const node::ClusterConfig config =
      node::ClusterConfig::parse(cluster_json(options.seed, ports));
  const std::string dir =
      options.work_dir + "/cluster-" + std::to_string(index);
  std::filesystem::create_directories(dir);
  const auto result_path = [&](std::size_t id) {
    return dir + "/daemon_" + std::to_string(id) + ".txt";
  };

  std::fflush(nullptr);  // nothing buffered may be written twice
  const double fork_s = now_s();
  std::vector<pid_t> children;
  for (std::size_t id = 0; id < kDaemons; ++id) {
    const pid_t pid = fork();
    if (pid == 0) {
      daemon_main(config, static_cast<net::NodeId>(id), ports[id],
                  result_path(id));
    }
    if (pid < 0) {
      out.fail("fork failed");
      break;
    }
    children.push_back(pid);
  }

  // Reap every child; kill any that outlives the deadline.
  std::vector<int> status(children.size(), -1);
  std::vector<double> rss(children.size(), 0.0);
  std::size_t pending = children.size();
  bool killed = false;
  while (pending > 0) {
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (status[i] != -1) continue;
      int st = 0;
      rusage usage{};
      if (wait4(children[i], &st, WNOHANG, &usage) == children[i]) {
        status[i] = st;
        rss[i] = static_cast<double>(usage.ru_maxrss) / 1024.0;
        --pending;
      }
    }
    if (pending == 0) break;
    if (!killed && now_s() - fork_s > kReapDeadlineS) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (status[i] == -1) kill(children[i], SIGKILL);
      }
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  rep.ok = children.size() == kDaemons;
  for (std::size_t id = 0; id < children.size(); ++id) {
    ++out.attempted;
    DaemonResult result;
    const bool exited_ok =
        WIFEXITED(status[id]) && WEXITSTATUS(status[id]) == 0;
    if (!exited_ok || !read_result(result_path(id), result)) {
      out.fail("daemon " + std::to_string(id) +
               (exited_ok ? " wrote no complete report"
                          : " exited abnormally (status " +
                                std::to_string(status[id]) + ")"));
      rep.ok = false;
      continue;
    }
    result.maxrss_mib = rss[id];
    rep.daemons.push_back(std::move(result));
  }
  std::filesystem::remove_all(dir);
  if (!rep.ok) return rep;

  // Setup ends when the last daemon finished epoch 0. A daemon's epoch-0
  // time is recovered from its own clock: return time minus the training
  // span of its trajectory (the DONE barrier after the final epoch, well
  // under a millisecond on loopback, is not subtracted).
  double setup_end = 0.0;
  std::uint64_t sent = 0, bytes = 0, data = 0;
  for (std::size_t id = 0; id < rep.daemons.size(); ++id) {
    const DaemonResult& d = rep.daemons[id];
    const double train = d.last_s - d.first_s;
    setup_end = std::max(setup_end, d.end_s - train);
    rep.connect_attest_s =
        std::max(rep.connect_attest_s, d.end_s - d.last_s - d.start_s);
    rep.train_s = std::max(rep.train_s, train);
    rep.node_epochs += static_cast<double>(d.rmse.size() - 1);
    rep.deliveries += static_cast<double>(d.messages_received);
    rep.rss_mib += d.maxrss_mib;
    sent += d.messages_sent;
    bytes += d.bytes_sent;
    data += d.data_tx;
    char rmse[40];
    std::snprintf(rmse, sizeof rmse, "%.17g", d.rmse.back());
    rep.counters["rmse.final." + std::to_string(id)] = rmse;
  }
  rep.setup_s = setup_end - fork_s;
  rep.counters["node_epochs"] = std::to_string(
      static_cast<std::uint64_t>(rep.node_epochs));
  rep.counters["net.wire_messages"] = std::to_string(sent);
  rep.counters["net.wire_bytes"] = std::to_string(bytes);
  rep.counters["net.deliveries"] = std::to_string(
      static_cast<std::uint64_t>(rep.deliveries));
  rep.counters["node.data_tx"] = std::to_string(data);
  return rep;
}

/// Holds every epoch's mean, min and max RMSE over the daemons equal to
/// the simulated twin's within kTwinTolerance.
void verify_against_twin(const ClusterRep& rep,
                         const std::vector<sim::RoundRecord>& twin,
                         Outcome& out) {
  ++out.attempted;
  if (twin.size() != kEpochs + 1) {
    out.fail("simulated twin recorded " + std::to_string(twin.size()) +
             " epochs");
    return;
  }
  double worst = 0.0;
  for (std::size_t epoch = 0; epoch < twin.size(); ++epoch) {
    double mean = 0.0, lo = 1e300, hi = -1e300;
    for (const DaemonResult& d : rep.daemons) {
      mean += d.rmse[epoch];
      lo = std::min(lo, d.rmse[epoch]);
      hi = std::max(hi, d.rmse[epoch]);
    }
    mean /= static_cast<double>(rep.daemons.size());
    worst = std::max({worst, std::fabs(mean - twin[epoch].mean_rmse),
                      std::fabs(lo - twin[epoch].min_rmse),
                      std::fabs(hi - twin[epoch].max_rmse)});
  }
  if (!(worst <= kTwinTolerance)) {
    out.fail("socket RMSE trajectory diverged from the simulated twin by " +
             std::to_string(worst));
  }
}

/// The simulated twin of one repetition, run in a forked child so the
/// benchmark process stays small (the next repetition's daemons inherit
/// its pages) and every repetition reads from a freshly built cluster.
/// The child's checks and counters come back through `path`.
bool twin_in_child(const Options& options, const sim::Scenario& scenario,
                   const std::string& path, TwinRun& twin, Outcome& out) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    int code = 1;
    try {
      Outcome child;
      const TwinRun run =
          run_twin(scenario, kReadPasses, options, nullptr, child);
      if (std::FILE* file = std::fopen(path.c_str(), "w")) {
        std::fprintf(file, "%llu %llu %zu %zu %zu\n",
                     static_cast<unsigned long long>(child.attempted),
                     static_cast<unsigned long long>(child.failed),
                     run.counters.size(), run.rounds.size(),
                     run.latency_us.size());
        for (const auto& [key, value] : run.counters) {
          std::fprintf(file, "%s %s\n", key.c_str(), value.c_str());
        }
        for (const sim::RoundRecord& round : run.rounds) {
          std::fprintf(file, "%.17g %.17g %.17g\n", round.mean_rmse,
                       round.min_rmse, round.max_rmse);
        }
        for (const double latency : run.latency_us) {
          std::fprintf(file, "%.17g\n", latency);
        }
        code = std::fclose(file) == 0 ? 0 : 1;
      }
      for (const std::string& error : child.errors) {
        std::fprintf(stderr, "simulated twin: %s\n", error.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "simulated twin: %s\n", e.what());
    }
    _exit(code);
  }
  if (pid < 0) {
    out.fail("fork failed");
    return false;
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ++out.attempted;
  std::ifstream in(path);
  unsigned long long attempted = 0, failed = 0;
  std::size_t counters = 0, rounds = 0, reads = 0;
  bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
            static_cast<bool>(in >> attempted >> failed >> counters >> rounds >>
                              reads);
  for (std::size_t i = 0; ok && i < counters; ++i) {
    std::string key, value;
    ok = static_cast<bool>(in >> key >> value);
    twin.counters[key] = value;
  }
  twin.rounds.resize(ok ? rounds : 0);
  for (sim::RoundRecord& round : twin.rounds) {
    ok = ok && static_cast<bool>(in >> round.mean_rmse >> round.min_rmse >>
                                 round.max_rmse);
  }
  twin.latency_us.resize(ok ? reads : 0);
  for (double& latency : twin.latency_us) {
    ok = ok && static_cast<bool>(in >> latency);
  }
  std::filesystem::remove(path);
  if (!ok) {
    out.fail("simulated twin failed (status " + std::to_string(status) + ")");
    return false;
  }
  out.attempted += attempted;
  for (unsigned long long i = 0; i < failed; ++i) {
    out.fail("simulated twin failed a check (see stderr)");
  }
  return true;
}

/// The benchmark's cluster as a scenario: what the daemons derive and the
/// twin runs.
sim::Scenario cluster_scenario(std::uint64_t seed) {
  return node::ClusterConfig::parse(
             cluster_json(seed, std::vector<std::uint16_t>(kDaemons, 1)))
      .scenario;
}

/// Daemons' layer numbers of the traced repetition.
void node_metrics(const ClusterRep& traced, Outcome& out) {
  std::uint64_t frames = 0, bytes = 0, reconnects = 0;
  double rtt_min = 0.0;
  for (const DaemonResult& d : traced.daemons) {
    frames += d.frames_tx;
    bytes += d.bytes_tx;
    reconnects += d.reconnects;
    if (d.rtt_min_s > 0.0 && (rtt_min == 0.0 || d.rtt_min_s < rtt_min)) {
      rtt_min = d.rtt_min_s;
    }
  }
  out.set("node.connect_attest_s", traced.connect_attest_s);
  out.set("node.run_s", traced.train_s);
  out.set("node.frames_tx", static_cast<double>(frames));
  out.set("node.bytes_tx", static_cast<double>(bytes));
  out.set("node.reconnects", static_cast<double>(reconnects));
  out.set("node.rtt_min_us", rtt_min * 1e6);
  // Envelope traffic of the real links, not of the twin.
  const double messages = std::stod(traced.counters.at("net.wire_messages"));
  const double wire = std::stod(traced.counters.at("net.wire_bytes"));
  out.set("net.wire_messages", messages);
  out.set("net.wire_bytes", wire);
  out.set("net.bytes_per_message", messages > 0 ? wire / messages : 0.0);
}

}  // namespace

Outcome run_loopback_workload(const Options& options) {
  Outcome out;
  const sim::Scenario scenario = cluster_scenario(options.seed);
  std::size_t index = 0;
  // One repetition: the daemons, then their twin, which checks the
  // trajectory and serves the top-k reads. A failed cluster can take the
  // daemons' timeouts to fail; one is enough to report, so the repetitions
  // stop there.
  repeat_reps(options.seconds, [&] {
    try {
      const StealMeter steal;
      ClusterRep rep = run_cluster(options, index++, nullptr, out);
      TwinRun twin;
      if (!rep.ok ||
          !twin_in_child(options, scenario, options.work_dir + "/twin.txt",
                         twin, out)) {
        return false;
      }
      verify_against_twin(rep, twin.rounds, out);
      for (const auto& [key, value] : twin.counters) {
        rep.counters["twin." + key] = value;
      }
      out.check_counters(rep.counters);
      out.add_rep({{"host_steal", steal.share()},
                   {"setup_s", rep.setup_s},
                   {"node_epochs_per_s", rep.node_epochs / rep.train_s},
                   {"events_per_s", rep.deliveries / rep.train_s},
                   {"peak_rss_mib", rep.rss_mib},
                   {"query_p50_us", percentile(twin.latency_us, 0.50)},
                   {"query_p99_us", percentile(twin.latency_us, 0.99)}});
      return true;
    } catch (const std::exception& e) {
      out.fail(std::string("cluster repetition threw: ") + e.what());
      return false;
    }
  });
  const double epochs_per_s = median(out.samples["node_epochs_per_s"]);
  if (!options.trace) {
    const std::vector<double> rss = out.samples["peak_rss_mib"];
    out.set("setup_s", median(out.samples["setup_s"]));
    out.set("node_epochs_per_s", epochs_per_s);
    out.set("events_per_s", median(out.samples["events_per_s"]));
    out.set("peak_rss_mib",
            rss.empty() ? 0.0 : *std::max_element(rss.begin(), rss.end()));
    out.set("query_p50_us", mean(out.samples["query_p50_us"]));
    return out;
  }
  out.set("query_p99_us", mean(out.samples["query_p99_us"]));

  // Traced run: one more repetition with spans; its twin runs in-process,
  // traced, and feeds the layer probes.
  Tracer tracer;
  try {
    const ClusterRep traced = run_cluster(options, index++, &tracer, out);
    if (traced.ok) {
      TwinRun twin;
      {
        Scope span(&tracer, "twin");
        twin = run_twin(scenario, kReadPasses, options, &tracer, out);
      }
      {
        Scope span(&tracer, "verify");
        verify_against_twin(traced, twin.rounds, out);
      }
      Counters counters = traced.counters;
      for (const auto& [key, value] : twin.counters) {
        counters["twin." + key] = value;
      }
      out.check_counters(counters);
      node_metrics(traced, out);
      const double rate = traced.node_epochs / traced.train_s;
      out.set("trace.node_epochs_per_s", rate);
      out.set("trace.untraced_node_epochs_per_s", epochs_per_s);
      out.set("trace.overhead_pct", (epochs_per_s / rate - 1.0) * 100.0);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("traced repetition threw: ") + e.what());
  }
  span_metrics(tracer, out);
  return out;
}

}  // namespace rexbench
