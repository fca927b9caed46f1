// The three in-process simulator workloads:
//
//   ms_dpsgd_er       Table II model-sharing cell: native D-PSGD on ER, one
//                     user per node, 128 nodes, barrier engine.
//   rex_sgx_dpsgd_er  the same cell with raw-data sharing in simulated SGX,
//                     stepped one epoch at a time with a closed-loop top-k
//                     read to every node after each epoch.
//   engine_10k        the 10k-node event-driven D-PSGD learning cell with
//                     stragglers and speed spread.
//
// One repetition = set up the scenario from scratch, train a fixed number
// of epochs, read top-k from the nodes, tear down. The work of a
// repetition is a pure function of the seed, so its counters must repeat
// exactly.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "probes.hpp"
#include "sim/report.hpp"
#include "support/error.hpp"

namespace rexbench {

namespace {

using namespace rex;

struct Spec {
  sim::Scenario scenario;  // scenario.epochs = training epochs per rep
  /// Train one epoch per run_epochs call (in barrier mode run_epochs(N) is
  /// exactly N single rounds), so the enclave counters, which reset every
  /// epoch, can be summed; otherwise one call trains every epoch.
  bool step = false;
  /// With `step`: a read pass after each epoch, so reads follow fresh
  /// writes (REX serving).
  bool read_each_epoch = false;
  /// Read passes after training.
  std::size_t read_passes = 0;
};

/// The Table II one-user-per-node cell at the reduced 128-node scale:
/// MovieLens-Latest shape with the full 9,000-item catalogue, ER with the
/// paper's mean degree (~30), MF, 300 shared points per epoch.
sim::Scenario one_user_er(std::uint64_t seed, core::SharingMode sharing) {
  sim::Scenario s;
  s.dataset = data::movielens_latest_config();
  s.dataset.n_users = 128;
  s.dataset.n_ratings = 20983;  // 100,000 x 128/610
  s.dataset.seed = seed ^ 0xDA7A;
  s.topology = sim::TopologyKind::kErdosRenyi;
  s.er_edge_probability = 30.45 / 127.0;
  s.nodes = 0;
  s.model = sim::ModelKind::kMf;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.sharing = sharing;
  s.rex.data_points_per_epoch = 300;
  s.seed = seed;
  s.threads = 0;  // the program default: hardware concurrency
  return s;
}

/// The 10k-node event-driven learning cell: tiny MF models over a
/// 100-item catalogue, D-PSGD on small-world links, log-normal speed
/// spread and 30% stragglers.
sim::Scenario engine_cell(std::uint64_t seed) {
  sim::Scenario s;
  s.dataset.n_users = 10000;
  s.dataset.n_items = 100;
  s.dataset.n_ratings = 100000;
  s.dataset.min_ratings_per_user = 5;
  s.dataset.seed = seed ^ 0xDA7A;
  s.nodes = 0;
  s.topology = sim::TopologyKind::kSmallWorld;
  s.model = sim::ModelKind::kMf;
  s.mf_embedding_dim = 2;
  s.mf_sgd_steps_per_epoch = 4;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.data_points_per_epoch = 4;
  s.engine_mode = sim::EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.25;
  s.dynamics.straggler_probability = 0.3;
  s.dynamics.straggler_lognormal_sigma = 1.0;
  s.seed = seed;
  s.threads = 0;
  return s;
}

std::optional<Spec> make_spec(const std::string& workload,
                              std::uint64_t seed) {
  Spec spec;
  if (workload == "ms_dpsgd_er") {
    spec.scenario = one_user_er(seed, core::SharingMode::kModel);
    spec.scenario.epochs = 10;
    spec.read_passes = 10;
  } else if (workload == "rex_sgx_dpsgd_er") {
    spec.scenario = one_user_er(seed, core::SharingMode::kRawData);
    spec.scenario.rex.security = enclave::SecurityMode::kSgxSimulated;
    spec.scenario.epochs = 20;
    spec.step = true;
    spec.read_each_epoch = true;
  } else if (workload == "engine_10k") {
    spec.scenario = engine_cell(seed);
    spec.scenario.epochs = 2;
    spec.read_passes = 3;
  } else {
    return std::nullopt;
  }
  return spec;
}

/// Simulator::Setup from prepared inputs: the field mapping of
/// sim::make_scenario_simulator, split out so preparation and assembly
/// are timed separately.
sim::Simulator::Setup make_setup(const sim::Scenario& scenario,
                                 sim::ScenarioInputs& inputs) {
  sim::Simulator::Setup setup;
  setup.topology = &inputs.topology;
  setup.shards = std::move(inputs.shards);
  setup.rex = scenario.rex;
  setup.model_factory = inputs.model_factory;
  setup.seed = scenario.seed;
  setup.costs = scenario.costs;
  setup.threads = scenario.threads;
  setup.platforms = scenario.platforms;
  setup.engine = scenario.engine_mode;
  setup.dynamics = scenario.dynamics;
  setup.query_load = scenario.query_load;
  setup.faults = scenario.faults;
  setup.lean_memory = scenario.lean_memory;
  setup.label = sim::scenario_label(scenario);
  return setup;
}

std::string str(std::uint64_t value) { return std::to_string(value); }

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One repetition's timings and outputs.
struct Rep {
  double setup_s = 0.0;
  double train_s = 0.0;
  double node_epochs = 0.0;
  double events = 0.0;
  std::vector<sim::RoundRecord> rounds;
  std::vector<double> latency_us;  // one per top-k read
  Counters counters;
};

/// Called on the traced repetition with the trained simulator, before
/// teardown.
using TrainedHook =
    std::function<void(sim::Simulator&, const data::NodeShard& shard0,
                       const Counters& counters)>;

std::uint64_t epochs_completed(sim::Simulator& simulator) {
  std::uint64_t total = 0;
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    total += simulator.host(id).trusted().epochs_completed();
  }
  return total;
}

/// One top-k read, validated (10 distinct in-catalogue items with finite
/// scores) and folded into `hash`; its latency goes to `latency_us` unless
/// that is null (an untimed read).
void read_topk(core::TrustedNode& node, data::UserId user, std::size_t n_items,
               Tracer* tracer, Outcome& out, std::vector<double>* latency_us,
               std::uint64_t& hash) {
  ++out.attempted;
  try {
    Scope query(latency_us ? tracer : nullptr, "query");
    const Clock::time_point start = Clock::now();
    const core::TrustedNode::QueryAnswer answer = node.query_topk(user, 10);
    if (latency_us) latency_us->push_back(seconds_since(start) * 1e6);
    bool valid = answer.items.size() == 10;
    for (std::size_t i = 0; i < answer.items.size(); ++i) {
      const ml::ScoredItem& item = answer.items[i];
      valid = valid && item.item < n_items && std::isfinite(item.score);
      for (std::size_t j = 0; j < i; ++j) {
        valid = valid && answer.items[j].item != item.item;
      }
      hash = (hash ^ item.item) * 0x100000001B3ULL;
    }
    if (!valid) out.fail("invalid top-k answer from node " + str(node.id()));
  } catch (const std::exception& e) {
    out.fail(std::string("query_topk threw: ") + e.what());
  }
}

/// One closed-loop pass of top-k reads, one client: every node answers one
/// read per local user, node after node, so each node's first read meets
/// a model that other nodes' reads have pushed out of cache.
void read_pass(sim::Simulator& simulator, std::size_t n_items,
               Tracer* tracer, Outcome& out, std::vector<double>* latency_us,
               std::uint64_t& hash) {
  Scope serve(latency_us ? tracer : nullptr, "serve");
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    core::TrustedNode& node = simulator.host(id).trusted();
    for (std::size_t u = 0; u < node.local_user_count(); ++u) {
      read_topk(node, node.local_user(u), n_items, tracer, out, latency_us,
                hash);
    }
  }
}

Rep run_rep(const Spec& spec, Tracer* tracer, Outcome& out,
            const TrainedHook& on_trained) {
  Scope rep_span(tracer, "rep");
  const sim::Scenario& scenario = spec.scenario;
  Rep rep;
  ++out.attempted;
  const Clock::time_point setup_start = Clock::now();

  std::unique_ptr<sim::ScenarioInputs> inputs;
  {
    Scope span(tracer, "prepare");
    inputs = std::make_unique<sim::ScenarioInputs>(
        sim::prepare_scenario(scenario));
  }
  const std::size_t n_items = inputs->dataset.n_items;
  data::NodeShard shard0;
  if (on_trained) shard0 = inputs->shards.at(0);
  std::unique_ptr<sim::Simulator> simulator;
  {
    Scope span(tracer, "build");
    simulator =
        std::make_unique<sim::Simulator>(make_setup(scenario, *inputs));
  }
  {
    Scope span(tracer, "attest");
    simulator->run_attestation();
  }
  {
    Scope span(tracer, "init");
    simulator->initialize_nodes();
  }
  rep.setup_s = seconds_since(setup_start);

  // Each node's top-k scratch is allocated on its first read, a one-off
  // cost a serving node does not pay per read: one untimed pass first.
  std::uint64_t answer_hash = 0xCBF29CE484222325ULL;
  read_pass(*simulator, n_items, tracer, out, nullptr, answer_hash);

  const std::uint64_t events_before = simulator->engine().events_processed();
  const std::uint64_t epochs_before = epochs_completed(*simulator);
  std::uint64_t ecalls = 0;
  std::uint64_t sealed_bytes = 0;
  {
    Scope train(tracer, "train");
    const std::size_t steps = spec.step ? scenario.epochs : 1;
    for (std::size_t step = 0; step < steps; ++step) {
      const Clock::time_point start = Clock::now();
      {
        Scope span(tracer, "epoch");
        simulator->run_epochs(spec.step ? 1 : scenario.epochs);
      }
      rep.train_s += seconds_since(start);
      // Enclave runtime counters reset every epoch: summed when stepping
      // (the unstepped cells are native, where they stay 0).
      for (core::NodeId id = 0; spec.step && id < simulator->node_count();
           ++id) {
        const enclave::RuntimeStats& stats =
            simulator->host(id).runtime().stats();
        ecalls += stats.ecalls;
        sealed_bytes += stats.sealed_bytes;
      }
      if (spec.read_each_epoch) {
        read_pass(*simulator, n_items, tracer, out, &rep.latency_us,
                  answer_hash);
      }
    }
  }
  rep.events = static_cast<double>(simulator->engine().events_processed() -
                                   events_before);
  rep.node_epochs =
      static_cast<double>(epochs_completed(*simulator) - epochs_before);
  for (std::size_t pass = 0; pass < spec.read_passes; ++pass) {
    read_pass(*simulator, n_items, tracer, out, &rep.latency_us, answer_hash);
  }

  // ---- output checks and exact work counters ----
  rep.rounds = simulator->result().rounds;
  for (const sim::RoundRecord& round : rep.rounds) {
    if (!(round.mean_rmse > 0.0 && round.mean_rmse < 5.0)) {
      out.fail("epoch " + str(round.epoch) + " mean RMSE out of range: " +
               exact(round.mean_rmse));
      break;
    }
  }
  if (scenario.engine_mode == sim::EngineMode::kBarrier) {
    // Synchronized rounds: exactly epochs + 1 records, and learning shows.
    if (rep.rounds.size() != scenario.epochs + 1) {
      out.fail("expected " + str(scenario.epochs + 1) + " rounds, got " +
               str(rep.rounds.size()));
    } else if (!(rep.rounds.back().mean_rmse < rep.rounds.front().mean_rmse)) {
      out.fail("mean RMSE did not improve: " +
               exact(rep.rounds.front().mean_rmse) + " -> " +
               exact(rep.rounds.back().mean_rmse));
    }
  } else {
    // Event-driven: every node reached the epoch target (fast nodes
    // overshoot it, by design).
    for (core::NodeId id = 0; id < simulator->node_count(); ++id) {
      if (simulator->host(id).trusted().epochs_completed() <
          scenario.epochs + 1) {
        out.fail("node " + str(id) + " stopped short of the epoch target");
        break;
      }
    }
  }
  const sim::SimEngine::SchedulerStats stats =
      simulator->engine().scheduler_stats();
  std::uint64_t messages = 0;
  for (core::NodeId id = 0; id < simulator->node_count(); ++id) {
    messages += simulator->transport().stats(id).messages_sent;
  }
  Counters& counters = rep.counters;
  counters["rmse.final"] =
      exact(rep.rounds.empty() ? 0.0 : rep.rounds.back().mean_rmse);
  counters["rounds"] = str(rep.rounds.size());
  counters["node_epochs"] = exact(rep.node_epochs);
  counters["sim.events"] = str(stats.events);
  counters["sim.batches"] = str(stats.batches);
  counters["sim.queue_peak"] = str(stats.queue_peak);
  counters["sim.queue_resizes"] = str(stats.queue_resizes);
  counters["net.wire_messages"] = str(messages);
  counters["net.wire_bytes"] = str(simulator->transport().total_bytes_sent());
  counters["enclave.ecalls"] = str(ecalls);
  counters["enclave.sealed_bytes"] = str(sealed_bytes);
  counters["query.count"] = str(rep.latency_us.size());
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof hash_hex, "%016" PRIx64, answer_hash);
  counters["query.answer_hash"] = hash_hex;

  if (on_trained) on_trained(*simulator, shard0, counters);
  {
    Scope span(tracer, "teardown");
    simulator.reset();
    inputs.reset();
  }
  return rep;
}

/// Per-layer metrics of the traced repetition, read from the trained
/// simulator and its counters, plus the layer probes.
void per_layer_metrics(const Spec& spec, const Options& options,
                       sim::Simulator& simulator,
                       const data::NodeShard& shard0,
                       const Counters& counters, Tracer& tracer,
                       Outcome& out) {
  {
    Scope span(&tracer, "report");
    sim::write_csv(simulator.result(), options.work_dir + "/epochs.csv");
    sim::write_node_csv(simulator.engine(), options.work_dir + "/nodes.csv",
                        1);
  }
  const sim::SimEngine::SchedulerStats stats =
      simulator.engine().scheduler_stats();
  const double messages = std::stod(counters.at("net.wire_messages"));
  const double bytes = std::stod(counters.at("net.wire_bytes"));
  out.set("sim.events", static_cast<double>(stats.events));
  out.set("sim.batches", static_cast<double>(stats.batches));
  out.set("sim.events_per_batch",
          stats.batches ? static_cast<double>(stats.events) /
                              static_cast<double>(stats.batches)
                        : 0.0);
  out.set("sim.queue_peak", static_cast<double>(stats.queue_peak));
  out.set("sim.queue_resizes", static_cast<double>(stats.queue_resizes));
  out.set("net.wire_messages", messages);
  out.set("net.wire_bytes", bytes);
  out.set("net.bytes_per_message", messages > 0 ? bytes / messages : 0.0);
  out.set("enclave.ecalls", std::stod(counters.at("enclave.ecalls")));
  out.set("enclave.sealed_bytes",
          std::stod(counters.at("enclave.sealed_bytes")));
  std::size_t peak_resident = 0;
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    peak_resident =
        std::max(peak_resident,
                 simulator.host(id).runtime().stats().peak_resident_bytes);
  }
  out.set("enclave.peak_resident_bytes", static_cast<double>(peak_resident));

  ProbeInputs probe;
  probe.model = &simulator.host(0).trusted().model();
  for (const core::NodeId peer : simulator.topology().neighbors(0)) {
    probe.neighbor_models.push_back(&simulator.host(peer).trusted().model());
  }
  probe.shard = &shard0;
  probe.payload_kind = spec.scenario.rex.sharing == core::SharingMode::kModel
                           ? core::PayloadKind::kModel
                           : core::PayloadKind::kRawData;
  probe.raw_points = spec.scenario.rex.data_points_per_epoch;
  probe.message_bytes = messages > 0 ? bytes / messages : 0.0;
  probe.queue_size = stats.queue_peak;
  probe.seed = spec.scenario.seed;
  probe.platforms = spec.scenario.platforms;
  Scope span(&tracer, "probes");
  run_layer_probes(probe, out);
}

/// Runs the traced repetition of `spec`; per-layer metrics land in `out`.
Rep traced_rep(const Spec& spec, const Options& options, Tracer& tracer,
               Outcome& out) {
  const TrainedHook hook = [&](sim::Simulator& simulator,
                               const data::NodeShard& shard0,
                               const Counters& counters) {
    per_layer_metrics(spec, options, simulator, shard0, counters, tracer,
                      out);
  };
  return run_rep(spec, &tracer, out, hook);
}

}  // namespace

double self_peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void span_metrics(const Tracer& tracer, Outcome& out) {
  const std::map<std::string, Tracer::Summary> summary = tracer.summarise();
  const auto total = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.total_s;
  };
  for (const auto& [name, span] : summary) {
    out.set("span." + name + ".total_s", span.total_s);
    out.set("span." + name + ".self_s", span.self_s);
  }
  out.set("data.prepare_s", total("prepare"));
  out.set("sim.build_s", total("build"));
  out.set("enclave.attest_s", total("attest"));
  out.set("core.init_s", total("init"));
  out.set("sim.run_s", total("epoch"));
  out.set("sim.report_s", total("report"));
}

std::optional<Outcome> run_simulator_workload(const Options& options) {
  const std::optional<Spec> spec = make_spec(options.workload, options.seed);
  if (!spec) return std::nullopt;
  Outcome out;

  // Untraced repetitions give the end-to-end metrics and, on a traced run,
  // the baseline its tracing overhead is stated against.
  repeat_reps(options.seconds, [&] {
    try {
      const StealMeter steal;
      const Rep rep = run_rep(*spec, nullptr, out, nullptr);
      out.check_counters(rep.counters);
      out.add_rep({{"host_steal", steal.share()},
                   {"setup_s", rep.setup_s},
                   {"node_epochs_per_s", rep.node_epochs / rep.train_s},
                   {"events_per_s", rep.events / rep.train_s},
                   {"query_p50_us", percentile(rep.latency_us, 0.50)},
                   {"query_p99_us", percentile(rep.latency_us, 0.99)}});
    } catch (const std::exception& e) {
      out.fail(std::string("repetition threw: ") + e.what());
    }
    return true;
  });
  const double epochs_per_s = median(out.samples["node_epochs_per_s"]);

  if (!options.trace) {
    out.set("setup_s", median(out.samples["setup_s"]));
    out.set("node_epochs_per_s", epochs_per_s);
    out.set("events_per_s", median(out.samples["events_per_s"]));
    out.set("peak_rss_mib", self_peak_rss_mib());
    out.set("query_p50_us", mean(out.samples["query_p50_us"]));
    return out;
  }
  out.set("query_p99_us", mean(out.samples["query_p99_us"]));

  Tracer tracer;
  try {
    const Rep rep = traced_rep(*spec, options, tracer, out);
    out.check_counters(rep.counters);
    out.set("trace.node_epochs_per_s", rep.node_epochs / rep.train_s);
    out.set("trace.untraced_node_epochs_per_s", epochs_per_s);
    out.set("trace.overhead_pct",
            (epochs_per_s * rep.train_s / rep.node_epochs - 1.0) * 100.0);
  } catch (const std::exception& e) {
    out.fail(std::string("traced repetition threw: ") + e.what());
  }
  span_metrics(tracer, out);
  return out;
}

TwinRun run_twin(const sim::Scenario& scenario, std::size_t read_passes,
                 const Options& options, Tracer* tracer, Outcome& out) {
  Spec spec;
  spec.scenario = scenario;
  spec.step = true;
  spec.read_passes = read_passes;
  TwinRun twin;
  Rep rep = tracer ? traced_rep(spec, options, *tracer, out)
                   : run_rep(spec, nullptr, out, nullptr);
  twin.rounds = std::move(rep.rounds);
  twin.latency_us = std::move(rep.latency_us);
  twin.counters = std::move(rep.counters);
  return twin;
}

}  // namespace rexbench
