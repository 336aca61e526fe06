// ndpbench: runs one benchmark workload for a seed and prints one JSON
// object with the run's outcome and every metric it measured.
//
//   ndpbench --workload <scan_bulk|serve_cluster|query_suite|upsert_get|upsert_mix>
//            --seed <n> --seconds <s> --trace <0|1> [--spans <file>] [--tiny]
//
// A run repeats reps (reset, set-up, timed ops, oracle check) until
// --seconds have passed and at least kMinReps reps ran, and reports
// host-time metrics as medians over the reps. The first rep warms the
// process up (it runs ~10% slower): it is checked but not timed. With
// --trace 1 the later reps alternate traced and untraced: traced reps
// record a span around every layer call the workload makes, and after the
// reps the workload's probes replay its blocks through the inner layers.
// Per-layer metrics are medians over the traced reps plus the probe
// figures; the tracing overhead is the traced minus the untraced median
// wall time. A per-layer metric the workload declares unused is reported
// as 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace ndpbench {
namespace {

constexpr int kMinReps = 4;        // The warm-up rep + three timed.
constexpr int kMinRepsTraced = 5;  // The warm-up + two traced, two untraced.
constexpr int kMaxReps = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: ndpbench --workload <scan_bulk|serve_cluster|query_suite|"
               "upsert_get|upsert_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>] [--tiny]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "scan_bulk") return make_scan_bulk(options);
  if (name == "upsert_mix") return make_upsert_mix(options);
  if (name == "upsert_get") return make_upsert_get(options);
  if (name == "serve_cluster") return make_serve_cluster(options);
  if (name == "query_suite") return make_query_suite(options);
  return nullptr;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
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

std::string json_map(const MetricMap& map) {
  std::string out = "{";
  for (const auto& [name, value] : map) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":" + json_number(value);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ",";
    out += json_number(value);
  }
  return out + "]";
}

int run(const Args& args) {
  Options options;
  options.seed = args.seed;
  options.tiny = args.tiny;
  auto workload = make_workload(args.workload, options);
  if (!workload) return usage();

  RepOutcome total;
  MetricMap virt;
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<double> setup_s, wall_s, cpu_s_samples, traced_wall_s;
  SpanRecorder spans;
  bool correct = true;
  int reps = 0;

  const auto absorb = [&](RepOutcome& rep) {
    total.attempted += rep.attempted;
    for (auto& reason : rep.failures) {
      if (total.failures.size() < 8) total.failures.push_back(reason);
    }
    total.failed += rep.failed;
  };

  try {
    workload->prepare();
    const double start = now_s();
    for (;;) {
      const bool warm_up = reps == 0;
      const bool traced = args.trace && reps % 2 == 1;
      // One setup_s sample per rep: the mean over setup_repeats() set-ups.
      const int setups = workload->setup_repeats();
      double setup = 0;
      std::size_t first_span = 0;
      double setup_end = 0;
      for (int k = 0; k < setups; ++k) {
        workload->reset();
        spans.enable(traced && k + 1 == setups);  // Trace the kept set-up.
        first_span = spans.spans().size();
        const double setup_start = now_s();
        workload->setup(spans);
        setup_end = now_s();
        setup += (setup_end - setup_start) / setups;
      }
      const double cpu_start = cpu_s();
      workload->run(spans);
      const double wall = now_s() - setup_end;
      const double cpu = cpu_s() - cpu_start;
      spans.enable(false);

      RepOutcome rep;
      workload->verify(rep);
      if (traced) {
        workload->layer_metrics(spans, first_span, rep);
        for (const auto& [name, value] : rep.layer) {
          layer_samples[name].push_back(value);
        }
        traced_wall_s.push_back(wall);
      } else if (!warm_up) {
        setup_s.push_back(setup);
        wall_s.push_back(wall);
        cpu_s_samples.push_back(cpu);
      }
      if (warm_up) {
        virt = rep.virt;
      } else if (rep.virt != virt) {
        rep.fail("virtual metrics differ between reps of one seed");
      }
      absorb(rep);
      ++reps;
      const int min_reps = args.trace ? kMinRepsTraced : kMinReps;
      if (reps >= kMaxReps ||
          (reps >= min_reps && now_s() - start >= args.seconds)) {
        break;
      }
    }
  } catch (const std::exception& error) {
    ++total.attempted;
    total.fail(std::string("exception: ") + error.what());
    correct = false;
  }
  const double peak_rss = peak_rss_mb();

  MetricMap e2e;
  MetricMap layer;
  if (correct) {
    try {
      RepOutcome tail;
      workload->finish(tail);
      for (const auto& [name, value] : tail.virt) virt[name] = value;
      if (args.trace) {
        spans.enable(true);
        workload->probe(spans, tail);
        spans.enable(false);
        for (const auto& [name, value] : tail.layer) layer[name] = value;
      }
      absorb(tail);
    } catch (const std::exception& error) {
      total.fail(std::string("exception: ") + error.what());
      correct = false;
    }
  }

  e2e["setup_s"] = median(setup_s);
  e2e["wall_s"] = median(wall_s);
  e2e["cpu_s"] = median(cpu_s_samples);
  e2e["peak_rss_mb"] = peak_rss;
  for (const char* name : {"virt_ms", "virt_flash_mb_per_s"}) {
    if (virt.count(name) != 0) e2e[name] = virt[name];
  }
  if (args.trace) {
    for (const auto& [name, values] : layer_samples) {
      if (layer.count(name) == 0) layer[name] = median(values);
    }
    if (layer.count("kv.load_s") != 0 && layer.count("workload.gen_s") != 0) {
      layer["kv.sst_build_s"] = layer["kv.load_s"] - layer["workload.gen_s"];
    }
    layer["trace.overhead_s"] = median(traced_wall_s) - median(wall_s);
    for (const auto& [name, value] : virt) {
      if (name.rfind("virt", 0) == 0 && e2e.count(name) == 0) {
        layer[name] = value;
      }
    }
    for (const std::string& name : workload->unused_layer_metrics()) {
      if (layer.count(name) != 0) {
        total.fail("per-layer metric " + name +
                   " is declared unused but was measured");
      }
      layer[name] = 0.0;
    }
  }
  if (!args.spans_path.empty() && args.trace &&
      !spans.write(args.spans_path)) {
    std::fprintf(stderr, "ndpbench: cannot write %s\n",
                 args.spans_path.c_str());
  }
  for (const auto& reason : total.failures) {
    std::fprintf(stderr, "ndpbench: FAILED %s\n", reason.c_str());
  }
  correct = correct && total.failed == 0;

  std::string out = "{";
  out += "\"workload\":" + json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  out += ",\"tiny\":" + std::string(args.tiny ? "true" : "false");
  out += ",\"pe_threads\":" + std::to_string(kPeThreads);
  out += ",\"build_type\":" + json_string(NDPBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + json_string(NDPBENCH_COMPILER);
  out += ",\"reps\":" + std::to_string(reps);
  out += ",\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(total.attempted);
  out += ",\"failed\":" + std::to_string(total.failed);
  out += ",\"e2e\":" + json_map(e2e);
  out += ",\"virt\":" + json_map(virt);
  out += ",\"layer\":" + json_map(layer);
  out += ",\"samples\":{\"setup_s\":" + json_list(setup_s) +
         ",\"wall_s\":" + json_list(wall_s) +
         ",\"cpu_s\":" + json_list(cpu_s_samples) +
         ",\"traced_wall_s\":" + json_list(traced_wall_s) + "}";
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace ndpbench

int main(int argc, char** argv) {
  ndpbench::Args args;
  if (!ndpbench::parse_args(argc, argv, args)) return ndpbench::usage();
  return ndpbench::run(args);
}
