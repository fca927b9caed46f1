// Shared types of the rexbench binary: options, the per-invocation outcome
// (failure accounting, exact work counters, metrics) and the repetition
// loop every workload uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "trace.hpp"

namespace rexbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this invocation (cluster configs, daemon
  /// outputs, report CSVs); created and removed by run.py.
  std::string work_dir;
};

/// Exact work counters, rendered as strings so integers and full-precision
/// doubles compare exactly. Identical across repetitions of one binary and
/// seed, by contract.
using Counters = std::map<std::string, std::string>;

/// Everything one invocation reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Counters counters;
  /// Metric values by name; units come from main.cpp's metric table.
  std::map<std::string, double> metrics;
  /// Per-repetition values the metrics are taken from, by name.
  std::map<std::string, std::vector<double>> samples;
  std::size_t reps = 0;

  void fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Appends one repetition's values to `samples`.
  void add_rep(const std::map<std::string, double>& values) {
    for (const auto& [key, value] : values) samples[key].push_back(value);
  }
  /// First repetition's counters become the reference; later ones must
  /// match them exactly or the repetition counts as failed.
  void check_counters(const Counters& rep_counters) {
    if (reps++ == 0) {
      counters = rep_counters;
      return;
    }
    for (const auto& [key, value] : rep_counters) {
      const auto it = counters.find(key);
      if (it == counters.end() || it->second != value) {
        fail("counter drift between repetitions: " + key + " = " + value +
             " vs " + (it == counters.end() ? "<missing>" : it->second));
        return;
      }
    }
  }
};

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

/// Share of the host's CPU time the hypervisor stole (/proc/stat "steal",
/// summed over CPUs) since construction; 0 where the kernel reports none.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const {
    const Ticks now = read();
    return now.total > start_.total
               ? static_cast<double>(now.steal - start_.steal) /
                     static_cast<double>(now.total - start_.total)
               : 0.0;
  }

 private:
  struct Ticks {
    unsigned long long steal = 0;
    unsigned long long total = 0;
  };
  static Ticks read() {
    Ticks ticks;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
      unsigned long long value = 0;
      if (!(in >> value)) break;
      ticks.total += value;
      if (field == 7) ticks.steal = value;
    }
    return ticks;
  }
  Ticks start_;
};

/// Repetitions a run takes at least: read latency shifts from one build of
/// a scenario to the next (memory placement), so a run averages several.
/// Each repetition also records the share of CPU time the hypervisor stole
/// meanwhile (`host_steal`): on a 4-vCPU guest, lockstep threads or daemons
/// slow down several times more than the share stolen.
inline constexpr std::size_t kMinReps = 5;

/// Runs `rep()` at least kMinReps times and until `seconds` have passed;
/// `rep` returns false when repeating is pointless.
template <class Rep>
void repeat_reps(double seconds, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kMinReps || seconds_since(start) < seconds;
       ++i) {
    if (!rep()) break;
  }
}

/// The workloads; each returns its outcome with end-to-end metrics (trace
/// off) or per-layer metrics (trace on). The simulator runner returns
/// nullopt for a name it does not know.
[[nodiscard]] std::optional<Outcome> run_simulator_workload(
    const Options& options);
[[nodiscard]] Outcome run_loopback_workload(const Options& options);

/// A socket cluster's simulated twin, run in-process: its per-epoch
/// records, and the latencies of `read_passes` passes of top-k reads (one
/// per local user of every node) after training. With a tracer, the run is
/// traced and the per-layer metrics and layer probes land in `out`.
struct TwinRun {
  std::vector<rex::sim::RoundRecord> rounds;
  std::vector<double> latency_us;
  Counters counters;
};
[[nodiscard]] TwinRun run_twin(const rex::sim::Scenario& scenario,
                               std::size_t read_passes,
                               const Options& options, Tracer* tracer,
                               Outcome& out);

/// Span-derived per-layer metrics: every span's total and self time, and
/// the module timings that are one span each (data.prepare_s, sim.build_s,
/// enclave.attest_s, core.init_s, sim.run_s, sim.report_s).
void span_metrics(const Tracer& tracer, Outcome& out);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mib();

}  // namespace rexbench
