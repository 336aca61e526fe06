// upsert_mix: a bulk-loaded papers store, then rounds of random
// overwrites and deletes through NKV::put/del (auto flush and compaction
// on), an explicit flush, point GETs through HybridExecutor::get and a
// broad scan. It is the only workload on the write path and the GET path,
// and its scans reconcile *overlapping* versions of a key, so a change
// that skips reconciliation for disjoint key ranges must not help here and
// must stay correct here. A shadow key -> latest-version map checks every
// GET byte for byte and every scan's result count.
//
// upsert_get is the same op sequence without the scans. The scans fail
// their check on stores with overlapping versions (the scan filters each
// version before newest-wins reconciliation, so an overwrite that stops
// matching lets the older matching version through, and a tombstone hides
// a key even when a newer put re-created it), so only upsert_get can sit
// in the gated workload list until that is fixed.
#include <array>
#include <cstring>
#include <memory>
#include <string>

#include "core/framework.hpp"
#include "ndp/executor.hpp"
#include "probes.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

/// Output layout of PaperScan (PaperResult): the first 24 bytes of a Paper.
constexpr std::size_t kResultBytes = 24;
constexpr std::uint32_t kBroadYear = 1990;

struct Write {
  std::uint64_t id = 0;
  bool del = false;
  std::vector<std::uint8_t> record;  ///< Empty for a delete.
};

class UpsertMix final : public Workload {
 public:
  UpsertMix(const Options& options, bool scans)
      : options_(options),
        scans_enabled_(scans),
        generator_({.scale_divisor = options.tiny ? 4096u : 16u,
                    .seed = options.seed}),
        rounds_(8),
        writes_per_round_(options.tiny ? 200 : 20'000),
        gets_per_round_(options.tiny ? 16 : 128) {}

  void prepare() override {
    // The op sequence depends only on the seed, so every rep replays the
    // same writes, GETs and scans and the virtual clock repeats exactly.
    const std::uint64_t papers = generator_.paper_count();
    support::SplitMix64 rng(options_.seed ^ 0x75707365'72746d78ULL);
    initial_.resize(papers);
    for (std::uint64_t i = 0; i < papers; ++i) {
      const auto record = generator_.paper(i).serialize();
      std::memcpy(initial_[i].data(), record.data(), kResultBytes);
    }
    writes_.resize(rounds_);
    get_ids_.resize(rounds_);
    for (std::uint32_t r = 0; r < rounds_; ++r) {
      for (std::uint32_t j = 0; j < writes_per_round_; ++j) {
        Write write;
        write.id = 1 + rng.next() % papers;
        write.del = rng.next() % 8 == 0;
        if (!write.del) {
          workload::PaperRecord paper = generator_.paper(write.id - 1);
          const auto& config = generator_.config();
          paper.year = config.min_year +
                       static_cast<std::uint32_t>(
                           rng.next() % (config.max_year - config.min_year + 1));
          paper.n_cited = static_cast<std::uint32_t>(rng.next() % 1000);
          paper.venue_id =
              static_cast<std::uint32_t>(rng.next() % config.venues);
          write.record = paper.serialize();
        }
        writes_[r].push_back(std::move(write));
      }
      for (std::uint32_t g = 0; g < gets_per_round_; ++g) {
        get_ids_[r].push_back(1 + rng.next() % papers);
      }
    }
  }

  void reset() override {
    executor_.reset();
    db_.reset();
    cosmos_.reset();
    compiled_.reset();
  }

  void setup(SpanRecorder& spans) override {
    {
      SpanRecorder::Scope span(spans, "core.compile");
      compiled_ = std::make_unique<core::CompileResult>(
          framework_.compile(workload::pubgraph_spec_source()));
    }
    cosmos_ = std::make_unique<platform::CosmosPlatform>();
    db_ = std::make_unique<kv::NKV>(*cosmos_, paper_db_config());
    {
      SpanRecorder::Scope span(spans, "kv.load");
      workload::load_papers(*db_, generator_);
    }
    {
      SpanRecorder::Scope span(spans, "core.instantiate");
      pe_ = framework_.instantiate(*compiled_, "PaperScan", *cosmos_);
    }
    executor_ = make_hw_executor(*db_, compiled_->get("PaperScan"), pe_,
                                 workload::paper_result_key);
  }

  void run(SpanRecorder& spans) override {
    gets_.assign(rounds_, {});
    scans_.assign(rounds_, {});
    flushed_records_ = 0;
    const std::vector<ndp::FilterPredicate> broad{
        {"year", "lt", kBroadYear}};
    for (std::uint32_t r = 0; r < rounds_; ++r) {
      spans.set_op(++next_op_);
      for (const Write& write : writes_[r]) {
        const std::uint64_t flushes = db_->stats().flushes;
        const std::size_t entries = db_->memtable().entry_count();
        SpanRecorder::Scope span(spans, write.del ? "kv.del" : "kv.put");
        if (write.del) {
          db_->del(kv::Key{write.id, 0});
        } else {
          db_->put(write.record);
        }
        if (db_->stats().flushes != flushes) {
          span.rename("kv.put.flush");
          flushed_records_ += entries + 1 - db_->memtable().entry_count();
        }
      }
      {
        // Scans read only the SSTs, so the round's tail of writes is
        // flushed before the reads.
        flushed_records_ += db_->memtable().entry_count();
        SpanRecorder::Scope span(spans, "kv.flush");
        db_->flush();
      }
      for (const std::uint64_t id : get_ids_[r]) {
        spans.set_op(++next_op_);
        SpanRecorder::Scope span(spans, "ndp.get");
        gets_[r].push_back(executor_->get(kv::Key{id, 0}));
      }
      if (!scans_enabled_) continue;
      spans.set_op(++next_op_);
      SpanRecorder::Scope span(spans, "ndp.scan.broad");
      scans_[r] = executor_->scan(broad);
    }
  }

  void verify(RepOutcome& out) override {
    std::vector<std::array<std::uint8_t, kResultBytes>> shadow = initial_;
    std::vector<bool> live(shadow.size(), true);
    std::vector<double> get_us;
    double elapsed_ns = 0;
    double bytes = 0;
    obs::PhaseBreakdown phases;
    const std::string name = scans_enabled_ ? "upsert_mix" : "upsert_get";
    for (std::uint32_t r = 0; r < rounds_; ++r) {
      for (const Write& write : writes_[r]) {
        ++out.attempted;
        live[write.id - 1] = !write.del;
        if (!write.del) {
          std::memcpy(shadow[write.id - 1].data(), write.record.data(),
                      kResultBytes);
        }
      }
      ++out.attempted;  // The explicit flush.
      for (std::uint32_t g = 0; g < get_ids_[r].size(); ++g) {
        ++out.attempted;
        const std::uint64_t index = get_ids_[r][g] - 1;
        const ndp::GetStats& stats = gets_[r][g];
        const bool equal =
            stats.found == live[index] &&
            (!stats.found ||
             (stats.record.size() == kResultBytes &&
              std::memcmp(stats.record.data(), shadow[index].data(),
                          kResultBytes) == 0));
        if (!equal) {
          out.fail(name + " round " + std::to_string(r) + ": GET of id " +
                   std::to_string(index + 1) + " disagrees with the shadow map");
        }
        get_us.push_back(static_cast<double>(stats.elapsed) / 1e3);
        elapsed_ns += static_cast<double>(stats.elapsed);
        bytes += static_cast<double>(stats.blocks_fetched) *
                 kv::kDataBlockBytes;
      }
      if (!scans_enabled_) continue;
      ++out.attempted;
      std::uint64_t expected = 0;
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        if (live[i] && support::get_u32(shadow[i], 8) < kBroadYear) {
          ++expected;
        }
      }
      const ndp::ScanStats& scan = scans_[r];
      if (scan.results != expected) {
        out.fail(name + " round " + std::to_string(r) + ": scan returned " +
                 std::to_string(scan.results) + " records, shadow map " +
                 std::to_string(expected));
      }
      elapsed_ns += static_cast<double>(scan.elapsed);
      bytes += static_cast<double>(scan.bytes_from_flash);
      phases += scan.phases;
    }
    out.virt["virt_ms"] = elapsed_ns / 1e6;
    out.virt["virt_flash_mb_per_s"] = bytes / 1e6 / (elapsed_ns / 1e9);
    out.virt["virt_get_us.p50"] = median(get_us);
    out.virt["virt_get_us.p99"] = percentile(get_us, 0.99);
    add_phase_metrics(phases, out.virt);
  }

  void layer_metrics(const SpanRecorder& spans, std::size_t first_span,
                     RepOutcome& out) override {
    MetricMap& layer = out.layer;
    layer["kv.put_s"] =
        spans.total("kv.put", first_span) + spans.total("kv.del", first_span);
    layer["kv.flush_s"] = spans.total("kv.put.flush", first_span) +
                          spans.total("kv.flush", first_span);
    const auto& compaction = db_->compaction_stats();
    layer["kv.compactions"] = static_cast<double>(compaction.compactions);
    layer["kv.records_purged"] =
        static_cast<double>(compaction.records_purged);
    // Records the store wrote to SSTs (flushes + compaction output) per
    // record the workload wrote.
    layer["kv.write_amp"] =
        static_cast<double>(flushed_records_ + compaction.records_out) /
        static_cast<double>(rounds_ * writes_per_round_);
    layer["ndp.get_s"] = median(spans.durations("ndp.get", first_span));
    double blocks = 0;
    for (const auto& round : gets_) {
      for (const ndp::GetStats& get : round) blocks += get.blocks_fetched;
    }
    layer["ndp.get_blocks_fetched"] = blocks;
    if (scans_enabled_) {
      double results = 0, matched = 0;
      for (const ndp::ScanStats& scan : scans_) {
        results += static_cast<double>(scan.results);
        matched += static_cast<double>(scan.tuples_matched);
      }
      layer["ndp.scan_s.broad"] =
          median(spans.durations("ndp.scan.broad", first_span));
      layer["ndp.dedup_ratio"] = matched > 0 ? results / matched : 0.0;
    }
    layer["kv.load_s"] = spans.total("kv.load", first_span);
    layer["core.compile_s"] = spans.total("core.compile", first_span) +
                              spans.total("core.instantiate", first_span);
  }

  void probe(SpanRecorder& spans, RepOutcome& out) override {
    const auto& artifacts = compiled_->get("PaperScan");
    probe_blocks({db_.get(), &artifacts.analyzed, &artifacts.design.operators,
                  pe_, {{"year", "lt", kBroadYear}}},
                 spans, out);
    out.layer["workload.gen_s"] = probe_generate_papers(generator_);
  }

  [[nodiscard]] std::vector<std::string> unused_layer_metrics()
      const override {
    // Only upsert_mix scans: one broad full scan per round.
    std::vector<std::string> scans = scan_metrics();
    if (scans_enabled_) {
      scans = {"ndp.scan_s.selective", "ndp.range_scan_s", "ndp.scan_self_s"};
    }
    return join({scans, serve_metrics(), query_metrics()});
  }

 private:
  Options options_;
  bool scans_enabled_;
  workload::PubGraphGenerator generator_;
  std::uint32_t rounds_;
  std::uint32_t writes_per_round_;
  std::uint32_t gets_per_round_;
  std::vector<std::array<std::uint8_t, kResultBytes>> initial_;
  std::vector<std::vector<Write>> writes_;
  std::vector<std::vector<std::uint64_t>> get_ids_;
  std::uint64_t next_op_ = 0;

  std::vector<std::vector<ndp::GetStats>> gets_;
  std::vector<ndp::ScanStats> scans_;
  std::uint64_t flushed_records_ = 0;

  core::Framework framework_;
  std::unique_ptr<core::CompileResult> compiled_;
  std::unique_ptr<platform::CosmosPlatform> cosmos_;
  std::unique_ptr<kv::NKV> db_;
  std::size_t pe_ = 0;
  std::unique_ptr<ndp::HybridExecutor> executor_;
};

}  // namespace

std::unique_ptr<Workload> make_upsert_mix(const Options& options) {
  return std::make_unique<UpsertMix>(options, /*scans=*/true);
}

std::unique_ptr<Workload> make_upsert_get(const Options& options) {
  return std::make_unique<UpsertMix>(options, /*scans=*/false);
}

}  // namespace ndpbench
