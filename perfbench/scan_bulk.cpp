// scan_bulk: bulk-loaded papers and refs stores on one device; the timed
// ops interleave broad and selective full scans and range scans in HW
// mode on 4 PE shards. Every block goes through the flash DES, the
// checked block read and the PE simulator; broad predicates send ~40-50%
// of tuples through newest-wins reconciliation over disjoint SSTs, while
// selective ones (<1%) skip most of it.
#include <memory>
#include <string>

#include "core/framework.hpp"
#include "ndp/executor.hpp"
#include "probes.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

struct ScanOp {
  const char* span = "";  ///< ndp.scan.* / ndp.range_scan.*, broad/selective.
  bool refs = false;
  bool range = false;
  bool broad = false;
  std::vector<ndp::FilterPredicate> predicates;
  kv::Key lo;
  kv::Key hi;
  std::uint64_t expected = 0;  ///< Oracle: matching generator records.
  ndp::ScanStats stats;
  std::uint64_t op_id = 0;
};

class ScanBulk final : public Workload {
 public:
  explicit ScanBulk(const Options& options)
      : papers_gen_({.scale_divisor = options.tiny ? 1024u : 64u,
                     .seed = options.seed}),
        refs_gen_({.scale_divisor = options.tiny ? 4096u : 256u,
                   .seed = options.seed}) {
    const std::uint64_t papers = papers_gen_.paper_count();
    const std::uint64_t ref_ids = refs_gen_.paper_count();
    const std::vector<ndp::FilterPredicate> p_broad{{"year", "lt", 1990}};
    const std::vector<ndp::FilterPredicate> p_sel{{"year", "lt", 1940}};
    const std::vector<ndp::FilterPredicate> r_broad{{"dst", "lt", ref_ids / 2}};
    const std::vector<ndp::FilterPredicate> r_sel{
        {"dst", "lt", std::max<std::uint64_t>(2, ref_ids / 200)}};
    const kv::Key all_lo = kv::Key::min();
    const kv::Key all_hi = kv::Key::max();
    const auto paper_range = [&](std::uint64_t from) {
      return std::pair{kv::Key{from, 0}, kv::Key{from + papers / 8, 0}};
    };
    const auto ref_range = [&](std::uint64_t from) {
      return std::pair{kv::Key{from, 0},
                       kv::Key{from + ref_ids / 16, ~std::uint64_t{0}}};
    };
    const auto [pr1_lo, pr1_hi] = paper_range(papers / 4);
    const auto [pr2_lo, pr2_hi] = paper_range(papers / 2);
    const auto [rr1_lo, rr1_hi] = ref_range(ref_ids / 4);
    const auto [rr2_lo, rr2_hi] = ref_range(ref_ids / 2);
    const auto op = [](const char* span, bool refs, bool range, bool broad,
                       std::vector<ndp::FilterPredicate> predicates,
                       kv::Key lo, kv::Key hi) {
      ScanOp scan;
      scan.span = span;
      scan.refs = refs;
      scan.range = range;
      scan.broad = broad;
      scan.predicates = std::move(predicates);
      scan.lo = lo;
      scan.hi = hi;
      return scan;
    };
    ops_ = {
        op("ndp.scan.broad", false, false, true, p_broad, all_lo, all_hi),
        op("ndp.scan.selective", true, false, false, r_sel, all_lo, all_hi),
        op("ndp.scan.broad", true, false, true, r_broad, all_lo, all_hi),
        op("ndp.scan.selective", false, false, false, p_sel, all_lo, all_hi),
        op("ndp.range_scan.broad", false, true, true, p_broad, pr1_lo,
           pr1_hi),
        op("ndp.range_scan.selective", true, true, false, r_sel, rr1_lo,
           rr1_hi),
        op("ndp.range_scan.broad", true, true, true, r_broad, rr2_lo, rr2_hi),
        op("ndp.range_scan.selective", false, true, false, p_sel, pr2_lo,
           pr2_hi),
    };
  }

  void prepare() override {
    // Oracle: count matching records straight from the generator, the
    // same record streams load_papers/load_refs consume (refs skip
    // duplicate (src, dst) pairs exactly as the bulk load does).
    for (std::uint64_t i = 0; i < papers_gen_.paper_count(); ++i) {
      const workload::PaperRecord paper = papers_gen_.paper(i);
      for (ScanOp& op : ops_) {
        if (!op.refs && matches(op, kv::Key{paper.id, 0}, paper.year)) {
          ++op.expected;
        }
      }
    }
    kv::Key previous = kv::Key::min();
    for (std::uint64_t i = 0; i < refs_gen_.ref_count(); ++i) {
      const workload::RefRecord ref = refs_gen_.ref(i);
      const kv::Key key{ref.src, ref.dst};
      if (!(previous < key)) continue;
      previous = key;
      for (ScanOp& op : ops_) {
        if (op.refs && matches(op, key, ref.dst)) ++op.expected;
      }
    }
  }

  void reset() override {
    paper_exec_.reset();
    ref_exec_.reset();
    papers_.reset();
    refs_.reset();
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
    // Both stores share the device, so they share one placement policy
    // striped over every channel (the evaluation setting of Fig. 7).
    auto placement = std::make_shared<kv::PlacementPolicy>(
        cosmos_->flash().topology(), 1);
    auto papers_config = paper_db_config();
    papers_config.shared_placement = placement;
    papers_ = std::make_unique<kv::NKV>(*cosmos_, papers_config);
    auto refs_config = ref_db_config();
    refs_config.shared_placement = placement;
    refs_ = std::make_unique<kv::NKV>(*cosmos_, refs_config);
    {
      SpanRecorder::Scope span(spans, "kv.load");
      workload::load_papers(*papers_, papers_gen_);
    }
    {
      SpanRecorder::Scope span(spans, "kv.load");
      workload::load_refs(*refs_, refs_gen_);
    }
    {
      SpanRecorder::Scope span(spans, "core.instantiate");
      paper_pe_ = framework_.instantiate(*compiled_, "PaperScan", *cosmos_);
      ref_pe_ = framework_.instantiate(*compiled_, "RefScan", *cosmos_);
    }
    paper_exec_ = make_hw_executor(*papers_, compiled_->get("PaperScan"),
                                   paper_pe_, workload::paper_result_key);
    ref_exec_ = make_hw_executor(*refs_, compiled_->get("RefScan"), ref_pe_,
                                 workload::ref_key);
  }

  void run(SpanRecorder& spans) override {
    for (ScanOp& op : ops_) {
      op.op_id = ++next_op_;
      spans.set_op(op.op_id);
      ndp::HybridExecutor& exec = op.refs ? *ref_exec_ : *paper_exec_;
      SpanRecorder::Scope span(spans, op.span);
      op.stats = op.range ? exec.range_scan(op.lo, op.hi, op.predicates)
                          : exec.scan(op.predicates);
    }
  }

  void verify(RepOutcome& out) override {
    double elapsed_ns = 0;
    double bytes = 0;
    obs::PhaseBreakdown phases;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      const ScanOp& op = ops_[k];
      ++out.attempted;
      if (op.stats.results != op.expected) {
        out.fail("scan_bulk op " + std::to_string(k) + ": " +
                 std::to_string(op.stats.results) + " results, oracle " +
                 std::to_string(op.expected));
      } else if (!op.range && op.stats.results != op.stats.tuples_matched) {
        // Bulk loads hold one version per key: reconciliation must keep
        // every match (range scans also drop boundary-block records).
        out.fail("scan_bulk op " + std::to_string(k) +
                 ": reconciliation dropped matches of a single-version store");
      }
      elapsed_ns += static_cast<double>(op.stats.elapsed);
      bytes += static_cast<double>(op.stats.bytes_from_flash);
      phases += op.stats.phases;
    }
    out.virt["virt_ms"] = elapsed_ns / 1e6;
    out.virt["virt_flash_mb_per_s"] = bytes / 1e6 / (elapsed_ns / 1e9);
    add_phase_metrics(phases, out.virt);
  }

  void layer_metrics(const SpanRecorder& spans, std::size_t first_span,
                     RepOutcome& out) override {
    std::vector<double> broad, selective, range;
    double results = 0, matched = 0;
    for (std::size_t i = first_span; i < spans.spans().size(); ++i) {
      const Span& span = spans.spans()[i];
      const double seconds = span.end - span.start;
      for (const ScanOp& op : ops_) {
        if (op.op_id != span.op || span.name != op.span) continue;
        if (op.range) {
          range.push_back(seconds);
        } else {
          (op.broad ? broad : selective).push_back(seconds);
          if (op.broad && !op.refs) papers_broad_s_.push_back(seconds);
        }
      }
    }
    for (const ScanOp& op : ops_) {
      if (op.range) continue;  // Range scans also drop boundary records.
      results += static_cast<double>(op.stats.results);
      matched += static_cast<double>(op.stats.tuples_matched);
    }
    out.layer["ndp.scan_s.broad"] = median(broad);
    out.layer["ndp.scan_s.selective"] = median(selective);
    out.layer["ndp.range_scan_s"] = median(range);
    out.layer["ndp.dedup_ratio"] = matched > 0 ? results / matched : 0.0;
    out.layer["kv.load_s"] = spans.total("kv.load", first_span);
    out.layer["core.compile_s"] = spans.total("core.compile", first_span) +
                                  spans.total("core.instantiate", first_span);
  }

  void probe(SpanRecorder& spans, RepOutcome& out) override {
    MetricMap& layer = out.layer;
    const auto& artifacts = compiled_->get("PaperScan");
    probe_blocks({papers_.get(), &artifacts.analyzed,
                  &artifacts.design.operators, paper_pe_,
                  ops_.front().predicates},
                 spans, out);
    layer["workload.gen_s"] =
        probe_generate_papers(papers_gen_) + probe_generate_refs(refs_gen_);
    // Scan self time: the papers broad scan minus the block reads and PE
    // runs of the same blocks (one host thread runs the scan's PE shards,
    // as the probe does).
    layer["ndp.scan_self_s"] = median(papers_broad_s_) -
                               layer["kv.read_block_s"] -
                               layer["hwsim.process_block_s"];
  }

  [[nodiscard]] std::vector<std::string> unused_layer_metrics()
      const override {
    return join({write_metrics(), get_metrics(), serve_metrics(),
                 query_metrics()});
  }

 private:
  /// Every op's predicate is one "<field> lt <value>".
  static bool matches(const ScanOp& op, const kv::Key& key,
                      std::uint64_t field) {
    if (op.range && (key < op.lo || op.hi < key)) return false;
    return field < op.predicates.front().value;
  }

  workload::PubGraphGenerator papers_gen_;
  workload::PubGraphGenerator refs_gen_;
  std::vector<ScanOp> ops_;
  std::uint64_t next_op_ = 0;
  std::vector<double> papers_broad_s_;  ///< Traced reps' papers broad scans.

  core::Framework framework_;
  std::unique_ptr<core::CompileResult> compiled_;
  std::unique_ptr<platform::CosmosPlatform> cosmos_;
  std::unique_ptr<kv::NKV> papers_;
  std::unique_ptr<kv::NKV> refs_;
  std::size_t paper_pe_ = 0;
  std::size_t ref_pe_ = 0;
  std::unique_ptr<ndp::HybridExecutor> paper_exec_;
  std::unique_ptr<ndp::HybridExecutor> ref_exec_;
};

}  // namespace

std::unique_ptr<Workload> make_scan_bulk(const Options& options) {
  return std::make_unique<ScanBulk>(options);
}

}  // namespace ndpbench
