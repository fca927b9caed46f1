// rexbench: runs one benchmark workload and prints one JSON line.
//
//   rexbench --workload NAME --seed S --seconds T --trace 0|1 --work-dir DIR
//
// Workloads: ms_dpsgd_er, rex_sgx_dpsgd_er, engine_10k, loopback_sgx (see
// README.md). With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 the per-layer metrics of one traced repetition plus the layer
// probes. Either way it carries the failure counts, the exact work
// counters and the build/host provenance. run.py builds this binary,
// checks the counters against recorded fingerprints and prints the final
// result line.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "linalg/simd_kernels.hpp"

#ifndef REXBENCH_BUILD_TYPE
#define REXBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using rexbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"node_epochs_per_s", "1/s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
    {"query_p50_us", "us"},
};

// Printed with --trace 1. A layer a workload does not exercise reads 0.
// query_p99_us is measured like query_p50_us but reported here: on a
// shared host its run-to-run spread tracks the hypervisor's steal time and
// exceeds any bound an end-to-end gate could hold.
constexpr MetricDef kPerLayer[] = {
    {"query_p99_us", "us"},
    {"support.queue_op_ns", "ns"},
    {"support.pool_shards_us", "us"},
    {"sim.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.report_s", "s"},
    {"sim.events", "count"},
    {"sim.batches", "count"},
    {"sim.events_per_batch", "events/batch"},
    {"sim.queue_peak", "count"},
    {"sim.queue_resizes", "count"},
    {"data.prepare_s", "s"},
    {"core.init_s", "s"},
    {"core.payload_encode_us", "us"},
    {"core.payload_decode_us", "us"},
    {"ml.train_epoch_us", "us"},
    {"ml.merge_us", "us"},
    {"ml.rmse_us", "us"},
    {"ml.topk_us", "us"},
    {"enclave.attest_s", "s"},
    {"crypto.attest_pair_ms", "ms"},
    {"crypto.seal_mib_s", "MiB/s"},
    {"crypto.open_mib_s", "MiB/s"},
    {"enclave.ecalls", "count"},
    {"enclave.sealed_bytes", "bytes"},
    {"enclave.peak_resident_bytes", "bytes"},
    {"net.wire_messages", "count"},
    {"net.wire_bytes", "bytes"},
    {"net.bytes_per_message", "bytes"},
    {"net.frame_encode_us", "us"},
    {"net.frame_parse_us", "us"},
    {"node.connect_attest_s", "s"},
    {"node.run_s", "s"},
    {"node.frames_tx", "count"},
    {"node.bytes_tx", "bytes"},
    {"node.reconnects", "count"},
    {"node.rtt_min_us", "us"},
    {"trace.node_epochs_per_s", "1/s"},
    {"trace.untraced_node_epochs_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

// Every span the workloads open; each yields span.<name>.total_s/.self_s.
constexpr const char* kSpans[] = {
    "rep",   "prepare",  "build",   "attest", "init",
    "train", "epoch",    "serve",   "query",  "report",
    "teardown", "probes", "cluster", "twin",  "verify",
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "rexbench: %s\nusage: rexbench --workload NAME --seed S "
               "--seconds T --trace 0|1 --work-dir DIR\n",
               message);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  rexbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || !have_trace ||
      !(options.seconds > 0.0)) {
    usage("--workload, --seconds > 0, --trace 0|1 and --work-dir are required");
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "rexbench: refusing to time an unoptimised build (%s)\n",
                 REXBENCH_BUILD_TYPE);
    return 3;
  }

  Outcome out;
  try {
    if (options.workload == "loopback_sgx") {
      out = rexbench::run_loopback_workload(options);
    } else if (auto sim = rexbench::run_simulator_workload(options)) {
      out = std::move(*sim);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    out.fail(std::string("workload threw: ") + e.what());
  }
  if (out.attempted == 0) out.attempted = 1;

  // Units come from the metric tables; a metric a workload did not produce
  // reads 0 on the traced run (that layer does not run there) and is an
  // error on the untraced run.
  std::string metrics;
  const auto emit = [&](const std::string& name, const char* unit) {
    const auto it = out.metrics.find(name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (it == out.metrics.end() && !options.trace) {
      out.fail("metric " + name + " not produced");
    }
    if (!std::isfinite(value)) out.fail("metric " + name + " is not finite");
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + json_number(value) + ", \"unit\": " +
               json_string(unit) + "}";
  };
  if (options.trace) {
    for (const MetricDef& m : kPerLayer) emit(m.name, m.unit);
    for (const char* span : kSpans) {
      emit(std::string("span.") + span + ".total_s", "s");
      emit(std::string("span.") + span + ".self_s", "s");
    }
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m.name, m.unit);
  }

  std::string counters;
  for (const auto& [key, value] : out.counters) {
    counters += (counters.empty() ? "" : ", ") + json_string(key) + ": " +
                json_string(value);
  }
  std::string samples;
  for (const auto& [key, values] : out.samples) {
    std::string list;
    for (const double v : values) {
      list += (list.empty() ? "" : ", ") + json_number(v);
    }
    samples += (samples.empty() ? "" : ", ") + json_string(key) + ": [" +
               list + "]";
  }
  std::string errors;
  for (const std::string& e : out.errors) {
    errors += (errors.empty() ? "" : ", ") + json_string(e);
  }
  const char* scalar_env = std::getenv("REX_SCALAR_KERNELS");
  const std::string provenance =
      "{\"workload\": " + json_string(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"threads\": " +
      std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
      ", \"cpu\": " + json_string(cpu_model()) +
      ", \"build_type\": " + json_string(REXBENCH_BUILD_TYPE) +
      ", \"optimized\": true" + ", \"simd\": " +
      json_string(rex::linalg::simd::backend_name(
          rex::linalg::simd::active_backend())) +
      ", \"REX_SCALAR_KERNELS\": " +
      json_string(scalar_env ? scalar_env : "") +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"reps\": " + std::to_string(out.reps) + "}";

  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"errors\": [%s], "
      "\"metrics\": {%s}, \"counters\": {%s}, \"samples\": {%s}, "
      "\"provenance\": %s}\n",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), errors.c_str(),
      metrics.c_str(), counters.c_str(), samples.c_str(), provenance.c_str());
  return 0;
}
