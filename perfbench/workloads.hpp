// The benchmark's workloads. Each one is a fixed op sequence over inputs
// made from the seed; the runner (main.cpp) repeats set-up + ops in reps
// for the requested seconds and reports medians over the reps.
//
//   reset()   untimed   drop the previous rep's stores
//   setup()   setup_s   spec compile, PE instantiate, dataset + store build
//   run()     wall_s    the timed op sequence (also cpu_s)
//   verify()  untimed   oracle check of every op, virtual metrics
//   probe()   traced    inner-layer probes over the last rep's blocks
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ndpbench {

struct Options {
  std::uint64_t seed = 1;
  bool tiny = false;  ///< Smoke-test sizes.
};

/// Host threads driving the PE shards, set explicitly (never auto). One:
/// on a shared 4-vCPU box four threads amplify the neighbours' load (a
/// box 14% slower on set-up made 4-thread scans 40% slower), and the
/// shard count, not the thread count, decides every virtual result.
inline constexpr std::uint32_t kPeThreads = 1;

using MetricMap = std::map<std::string, double>;

/// What one rep reports back to the runner.
struct RepOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few reasons, for stderr.
  MetricMap virt;   ///< Virtual-clock metrics: must repeat exactly.
  MetricMap layer;  ///< Per-layer host metrics (traced reps only).

  void fail(std::string reason, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) failures.push_back(std::move(reason));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Once per run, untimed: oracle inputs derived from the seed.
  virtual void prepare() {}
  /// Set-ups per rep; the rep's setup_s sample is their mean and the last
  /// one's state is kept. More than one where a set-up takes under a
  /// millisecond, so a sample is not timer noise.
  [[nodiscard]] virtual int setup_repeats() const { return 1; }
  virtual void reset() = 0;
  virtual void setup(SpanRecorder& spans) = 0;
  virtual void run(SpanRecorder& spans) = 0;
  virtual void verify(RepOutcome& out) = 0;
  /// Per-layer values of one traced rep, from the spans it recorded
  /// (indices [first_span, spans.size())).
  virtual void layer_metrics(const SpanRecorder& spans,
                             std::size_t first_span, RepOutcome& out) = 0;
  /// Once per run after the reps, untimed: virtual metrics that need more
  /// than one rep's worth of simulation (serve_cluster's rate search).
  virtual void finish(RepOutcome& out) { (void)out; }
  /// Traced run only: probes that replay the last rep's blocks through
  /// the inner layers one at a time.
  virtual void probe(SpanRecorder& spans, RepOutcome& out) = 0;
  /// The per-layer metrics of the catalogue this workload never exercises
  /// (it makes no call into that part of the layer). The traced run
  /// reports them as 0; any other catalogue metric the run did not
  /// measure is an error, so a renamed span or a skipped probe shows.
  [[nodiscard]] virtual std::vector<std::string> unused_layer_metrics()
      const = 0;
};

/// Groups of per-layer metrics, for unused_layer_metrics().
std::vector<std::string> scan_metrics();   ///< ndp.scan_s.*, ndp.*scan*, dedup
std::vector<std::string> write_metrics();  ///< kv.put_s ... kv.write_amp
std::vector<std::string> get_metrics();    ///< ndp.get_*, virt_get_us.*
std::vector<std::string> serve_metrics();  ///< host.*, cluster.*, virt_req_ms.*
std::vector<std::string> query_metrics();  ///< query.*, virt_query_ms
std::vector<std::string> phase_metrics();  ///< virt.phase.*
/// Concatenates metric groups.
std::vector<std::string> join(
    std::initializer_list<std::vector<std::string>> groups);

std::unique_ptr<Workload> make_scan_bulk(const Options& options);
std::unique_ptr<Workload> make_upsert_mix(const Options& options);
std::unique_ptr<Workload> make_upsert_get(const Options& options);
std::unique_ptr<Workload> make_serve_cluster(const Options& options);
std::unique_ptr<Workload> make_query_suite(const Options& options);

}  // namespace ndpbench
