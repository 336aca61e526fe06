// serve_cluster: four smart SSDs (R=2, one spare) behind the host query
// service. Four open-loop tenants send narrow range requests at three
// fixed offered rates that bracket the knee. The host service (queue
// pairs, WRR, coalescing) and the coordinator (scatter, merge, hedging)
// do most of the work; each request touches few blocks, so a CRC or PE
// gain should not move this workload. Arrivals are scheduled in virtual
// time only: there is no host-time arrival schedule, so the generator can
// never run late.
#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/pubgraph_cluster.hpp"
#include "host/service.hpp"
#include "probes.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kBroadYear = 2010;
/// Offered rates (requests per virtual second) around the knee.
constexpr std::uint64_t kRates[] = {600, 1200, 1800};
constexpr const char* kRateNames[] = {"lo", "mid", "hi"};
/// virt_max_rps: the p99 latency limit a rate must meet, and the search.
constexpr double kLatencyLimitMs = 20.0;
constexpr std::uint64_t kSearchLo = 250;
constexpr std::uint64_t kSearchHi = 4000;
constexpr int kSearchSteps = 7;

/// Times every coalesced offload the service sends into the cluster (the
/// cluster layer seen from the host) and sums what the device side read.
class TimedTarget final : public host::OffloadTarget {
 public:
  TimedTarget(host::OffloadTarget& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] obs::Observability& observability() noexcept override {
    return inner_.observability();
  }
  platform::LinkGrant doorbell(platform::SimTime at) override {
    return inner_.doorbell(at);
  }
  [[nodiscard]] platform::SimTime device_now() override {
    return inner_.device_now();
  }
  void advance_device_to(platform::SimTime at) override {
    inner_.advance_device_to(at);
  }
  [[nodiscard]] platform::SimTime completion_latency() const override {
    return inner_.completion_latency();
  }
  ndp::ScanStats multi_range_scan(
      const std::vector<ndp::KeyRange>& ranges,
      const std::vector<ndp::FilterPredicate>& predicates,
      std::vector<std::vector<std::uint8_t>>* records) override {
    SpanRecorder::Scope span(spans_, "cluster.offload");
    ndp::ScanStats stats = inner_.multi_range_scan(ranges, predicates, records);
    bytes += stats.bytes_from_flash;
    elapsed += stats.elapsed;
    return stats;
  }

  std::uint64_t bytes = 0;
  platform::SimTime elapsed = 0;

 private:
  host::OffloadTarget& inner_;
  SpanRecorder& spans_;
};

/// One fixed-rate segment: its report and every request's latency.
struct Segment {
  host::ServiceReport report;
  std::vector<double> latency_ms;
  std::uint64_t wrong = 0;   ///< Completions whose result count is wrong.
  std::uint64_t missing = 0; ///< Requests never completed (dropped).
  std::uint64_t offload_bytes = 0;
  platform::SimTime offload_ns = 0;
};

class ServeCluster final : public Workload {
 public:
  explicit ServeCluster(const Options& options)
      : options_(options),
        requests_(options.tiny ? 64 : 1000) {
    build_.devices = 4;
    build_.replication = 2;
    build_.spares = 1;
    build_.scale_divisor = options.tiny ? 4096 : 64;
    build_.seed = options.seed;
    build_.mode = ndp::ExecMode::kHardware;
    // Requests touch a few blocks each: one PE shard, one host thread.
    build_.pes = 1;
    build_.threads = 1;
  }

  void prepare() override {
    // Oracle: matching papers per id prefix, straight from the generator.
    const workload::PubGraphGenerator generator(
        {.scale_divisor = build_.scale_divisor, .seed = options_.seed});
    prefix_.assign(generator.paper_count() + 1, 0);
    for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
      prefix_[i + 1] =
          prefix_[i] + (generator.paper(i).year < kBroadYear ? 1 : 0);
    }
  }

  void reset() override { cluster_.reset(); }

  void setup(SpanRecorder& spans) override {
    SpanRecorder::Scope span(spans, "cluster.build");
    cluster_ = cluster::build_pubgraph_cluster(build_);
  }

  void run(SpanRecorder& spans) override {
    segments_.clear();
    for (const std::uint64_t rate : kRates) {
      spans.set_op(++next_op_);
      segments_.push_back(serve(rate, spans));
    }
  }

  void verify(RepOutcome& out) override {
    double virt_ns = 0;
    double bytes = 0;
    double offload_ns = 0;
    obs::PhaseBreakdown phases;
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const Segment& segment = segments_[s];
      out.attempted += requests_;
      if (segment.wrong + segment.missing > 0) {
        out.fail(std::string("serve_cluster rate ") + kRateNames[s] + ": " +
                     std::to_string(segment.wrong) + " wrong result counts, " +
                     std::to_string(segment.missing) +
                     " requests not completed",
                 segment.wrong + segment.missing);
      }
      virt_ns += static_cast<double>(segment.report.makespan_ns);
      bytes += static_cast<double>(segment.offload_bytes);
      offload_ns += static_cast<double>(segment.offload_ns);
      phases += segment.report.phases;
      out.virt[std::string("virt_req_ms.p99.") + kRateNames[s]] =
          percentile(segment.latency_ms, 0.99);
      out.virt[std::string("virt_req_ms.p50.") + kRateNames[s]] =
          median(segment.latency_ms);
    }
    out.virt["virt_ms"] = virt_ns / 1e6;
    out.virt["virt_flash_mb_per_s"] = bytes / 1e6 / (offload_ns / 1e9);
    add_phase_metrics(phases, out.virt);
  }

  void layer_metrics(const SpanRecorder& spans, std::size_t first_span,
                     RepOutcome& out) override {
    MetricMap& layer = out.layer;
    layer["host.run_s"] = spans.total("host.run", first_span);
    layer["host.self_s"] = spans.self_times(first_span)["host.run"];
    layer["cluster.offload_s"] = spans.total("cluster.offload", first_span);
    layer["cluster.build_s"] = spans.total("cluster.build", first_span);
    double coalesced = 0, completed = 0, dropped = 0;
    for (const Segment& segment : segments_) {
      coalesced += static_cast<double>(segment.report.coalesced);
      completed += static_cast<double>(segment.report.completed);
      dropped += static_cast<double>(segment.report.dropped);
    }
    layer["host.coalesced_frac"] = completed > 0 ? coalesced / completed : 0;
    layer["host.dropped"] = dropped;
    const cluster::ClusterReport& report = cluster_->coordinator->report();
    layer["cluster.sub_scans"] = static_cast<double>(report.subscans);
    layer["cluster.hedges"] = static_cast<double>(report.hedges);
    layer["cluster.hedges_won"] = static_cast<double>(report.hedge_wins);
  }

  void finish(RepOutcome& out) override {
    // virt_max_rps: bisect for the highest rate whose p99 meets the limit
    // with no drops and no kBusy rejection (the submission queues never
    // filled, so the backlog did not grow), on a fresh cluster.
    reset();
    SpanRecorder off;
    setup(off);
    std::uint64_t good = 0;
    std::uint64_t lo = kSearchLo;
    std::uint64_t hi = kSearchHi;
    for (int step = 0; step < kSearchSteps; ++step) {
      const std::uint64_t rate = step == 0 ? lo : (lo + hi) / 2;
      const Segment segment = serve(rate, off);
      // Drops are expected past the knee; a wrong result count never is.
      if (segment.wrong > 0) {
        out.fail("serve_cluster rate search at " + std::to_string(rate) +
                     " req/s: " + std::to_string(segment.wrong) +
                     " wrong result counts",
                 segment.wrong);
      }
      const bool meets = segment.report.dropped == 0 &&
                         segment.report.rejected_busy == 0 &&
                         percentile(segment.latency_ms, 0.99) <=
                             kLatencyLimitMs;
      if (meets) {
        good = rate;
        lo = rate;
      } else if (step == 0) {
        break;
      } else {
        hi = rate;
      }
    }
    out.virt["virt_max_rps"] = static_cast<double>(good);
  }

  void probe(SpanRecorder& spans, RepOutcome& out) override {
    cluster::SmartSsdDevice& device = cluster_->coordinator->device(0);
    const auto& artifacts = cluster_->compiled.get("PaperScan");
    probe_blocks({&device.db(), &artifacts.analyzed,
                  &artifacts.design.operators,
                  device.platform().pe_count() - 1,
                  {{"year", "lt", kBroadYear}}},
                 spans, out);
    out.layer["workload.gen_s"] = probe_generate_papers(cluster_->generator);
    // The cluster build compiles the spec and loads each member
    // internally; compile once and load the whole dataset once into one
    // store to time the core and kv layers from outside.
    platform::CosmosPlatform cosmos;
    core::Framework framework;
    double t0 = now_s();
    {
      SpanRecorder::Scope span(spans, "core.compile");
      const core::CompileResult compiled =
          framework.compile(workload::pubgraph_spec_source());
      (void)framework.instantiate(compiled, "PaperScan", cosmos);
    }
    out.layer["core.compile_s"] = now_s() - t0;
    kv::NKV db(cosmos, paper_db_config());
    SpanRecorder::Scope span(spans, "kv.load");
    t0 = now_s();
    workload::load_papers(db, cluster_->generator);
    out.layer["kv.load_s"] = now_s() - t0;
  }

  [[nodiscard]] std::vector<std::string> unused_layer_metrics()
      const override {
    return join({scan_metrics(), write_metrics(), get_metrics(),
                 query_metrics()});
  }

 private:
  Segment serve(std::uint64_t rate, SpanRecorder& spans) {
    cluster::ClusterCoordinator& coordinator = *cluster_->coordinator;
    host::LoadConfig load_config;
    load_config.tenants = kTenants;
    load_config.requests = requests_;
    load_config.arrival_rate = rate;
    load_config.key_space = cluster_->generator.paper_count();
    load_config.seed = options_.seed * 1000003 + rate;
    // Each segment continues the cluster's timeline.
    load_config.start_ns = coordinator.device_now();
    host::ServiceConfig service_config;
    service_config.tenants = kTenants;
    service_config.predicates = {{"year", "lt", kBroadYear}};
    service_config.result_key = workload::paper_result_key;

    TimedTarget target(coordinator, spans);
    host::QueryService service(target, service_config);
    host::LoadGenerator load(load_config);
    Segment segment;
    {
      SpanRecorder::Scope span(spans, "host.run");
      segment.report = service.run(load);
    }
    segment.offload_bytes = target.bytes;
    segment.offload_ns = target.elapsed;

    // Oracle: replay the generator's requests and compare each
    // completion's result count with the matching papers in its range.
    std::unordered_map<std::uint64_t, std::uint64_t> expected;
    host::LoadGenerator replay(load_config);
    while (auto request = replay.next_arrival()) {
      const std::uint64_t last = prefix_.size() - 1;
      const std::uint64_t first_id = request->lo.hi + (request->lo.lo > 0);
      const std::uint64_t last_id = std::min(request->hi.hi, last);
      expected[request->id] =
          first_id > last_id ? 0 : prefix_[last_id] - prefix_[first_id - 1];
    }
    std::vector<host::Completion> completions;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      service.queue_pair(t).reap(completions);
    }
    for (const host::Completion& completion : completions) {
      const auto it = expected.find(completion.id);
      if (it == expected.end() || it->second != completion.results) {
        ++segment.wrong;
      }
      segment.latency_ms.push_back(
          static_cast<double>(completion.latency()) / 1e6);
    }
    segment.missing = requests_ - std::min<std::uint64_t>(
                                      requests_, completions.size());
    return segment;
  }

  Options options_;
  std::uint64_t requests_;
  cluster::ClusterBuildConfig build_;
  std::vector<std::uint64_t> prefix_;
  std::uint64_t next_op_ = 0;
  std::unique_ptr<cluster::PubgraphCluster> cluster_;
  std::vector<Segment> segments_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_cluster(const Options& options) {
  return std::make_unique<ServeCluster>(options);
}

}  // namespace ndpbench
